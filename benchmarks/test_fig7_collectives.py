"""Figure 7: collective latency, static vs on-demand."""


def test_fig7ab_collect_reduce(run_experiment):
    result = run_experiment("fig7ab")

    latency = result.extras["latency"]
    for kind in ("collect", "reduce"):
        for size, (s, o, diff) in latency[kind].items():
            # Identical performance between the two schemes (the
            # handshake amortises over iterations).
            assert diff < 3.0, (kind, size, diff)
    # collect (dense allgather) moves N x the data: far costlier than
    # reduce once payloads dominate (small sizes are latency-bound and
    # comparable).
    big = max(latency["collect"])
    assert latency["collect"][big][0] > 2.0 * latency["reduce"][big][0]


def test_fig7c_barrier(run_experiment):
    result = run_experiment("fig7c")

    latency = result.extras["latency"]
    for npes, (s, o, diff) in latency.items():
        assert diff < 6.0, (npes, diff)
    # Barrier latency grows (log-depth tree) with the process count.
    sizes = sorted(latency)
    assert latency[sizes[-1]][0] > latency[sizes[0]][0]
