"""Figure 8(b): hybrid MPI+OpenSHMEM Graph500."""


def test_fig8b_graph500(run_experiment):
    result = run_experiment("fig8b")

    times = result.extras["times"]
    for npes, (static_us, ondemand_us, diff_pct) in times.items():
        # Paper: negligible difference (<2%) — generation + validation
        # dominate; give the simulated runs a little slack.
        assert abs(diff_pct) < 8.0, (npes, diff_pct)
    # BFS validated with zero errors on every run (asserted in rows).
    for row in result.rows:
        assert row[-1] == "ok"
