"""Figure 9 (churn companion): QP footprint under connection churn."""


def test_fig9_churn(run_experiment):
    result = run_experiment("fig9-churn")

    series = result.extras["series"]
    for npes, off in series["off"].items():
        # Without eviction the footprint is the union of every epoch's
        # peers; either lifecycle policy keeps it below that.
        for policy in ("lru", "credit"):
            peak = series[policy][npes]["peak_connections"]
            assert peak < off["peak_connections"], (npes, policy, peak)
        # lru retires every idle connection, so it must actually evict.
        assert series["lru"][npes]["evictions"] > 0, npes
