"""Table I: average communicating peers per process."""


def test_table1_peers(run_experiment):
    result = run_experiment("table1")
    npes = result.extras["npes"]

    peers = result.extras["peers"]
    # Every application talks to a small subset of its peers.
    for name, value in peers.items():
        assert value < npes * 0.35, (name, value)
    # EP (reduction-only) is the sparsest of the suite.
    assert peers["EP"] == min(peers.values())
    # The stencil/ADI codes are all in the same one-digit band.
    for name in ("BT", "SP", "MG", "2DHeat"):
        assert 2.0 <= peers[name] <= 20.0, (name, peers[name])
