"""Ablations of the paper's individual design choices (DESIGN.md D1-D5)."""


def test_ablation_d1_piggyback(run_experiment):
    result = run_experiment("ablation-piggyback")
    # The separate exchange adds a round trip per first contact; the
    # handshake itself dominates, so the relative cost is small but
    # strictly positive and deterministic.
    assert result.extras["separate_us"] > result.extras["piggyback_us"]
    assert result.extras["overhead_pct"] > 0.4


def test_ablation_d2_pmi(run_experiment):
    result = run_experiment("ablation-pmi")
    growths = result.extras["growths"]
    times = result.extras["times"]
    _small, large = result.extras["sizes"]
    # Only on-demand + non-blocking stays ~constant with job size...
    assert growths[("ondemand", "nonblocking")] < 1.05
    # ...and beats every other combination at the largest size.
    best = times[("ondemand", "nonblocking")][large]
    for combo, series in times.items():
        if combo != ("ondemand", "nonblocking"):
            assert series[large] > best, combo
            assert growths[combo] > growths[("ondemand", "nonblocking")]


def test_ablation_d3_intranode_barrier(run_experiment):
    result = run_experiment("ablation-barrier")
    raw = result.extras["raw"]
    for npes, row in raw.items():
        # Global init barriers serialise on the PMI exchange; the
        # intra-node variant keeps init faster and connection-free.
        assert row["intranode_us"] < row["global_us"], npes
        # Intra-node barriers keep init (nearly) connection-free: the
        # tiny residue comes from finalize-phase handshakes served
        # while a neighbour was still snapshotting.
        assert row["intranode_conns"] < 0.15
        assert row["global_conns"] > 5 * max(0.01, row["intranode_conns"])


def test_ablation_d5_qp_cache(run_experiment):
    result = run_experiment("ablation-qp-cache")
    raw = result.extras["raw"]
    sizes = sorted(raw)
    # A too-small context cache measurably slows communication.
    small_cache_time = raw[sizes[0]][0]
    big_cache_time = raw[sizes[-1]][0]
    assert small_cache_time > 1.02 * big_cache_time
    # And the miss counters actually explain it.
    assert raw[sizes[0]][1] > raw[sizes[-1]][1]
