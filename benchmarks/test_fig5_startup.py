"""Figure 5: startup performance, current vs proposed."""

from conftest import full_scale


def test_fig5a_startup(run_experiment):
    result = run_experiment("fig5a")

    raw = result.extras["raw"]
    sizes = sorted(raw)
    small, large = sizes[0], sizes[-1]

    # Proposed start_pes is near-constant across job sizes...
    prop_small = raw[small]["proposed"].startup.mean_us
    prop_large = raw[large]["proposed"].startup.mean_us
    assert prop_large / prop_small < 1.15

    # ...while the current design grows and loses at the largest size.
    cur_large = raw[large]["current"].startup.mean_us
    cur_small = raw[small]["current"].startup.mean_us
    assert cur_large > 1.3 * cur_small
    init_speedup = cur_large / prop_large
    assert init_speedup > 1.3

    # Hello World wall-clock gains exceed the init gains (teardown of
    # the fully connected fabric is also on the clock).
    hello_speedup = (
        raw[large]["current"].wall_time_us
        / raw[large]["proposed"].wall_time_us
    )
    assert hello_speedup > init_speedup * 0.9
    if full_scale():
        # Paper: ~3x init and ~8.3x Hello World at 8192 PEs.
        assert 2.0 < init_speedup < 7.0
        assert 5.0 < hello_speedup < 14.0


def test_fig5b_breakdown(run_experiment):
    result = run_experiment("fig5b")

    from repro.shmem import PHASE_CONN, PHASE_MEMREG, PHASE_PMI

    means = result.extras["phase_means"]
    for npes, bd in means.items():
        # Negligible time in PMI operations and connection setup.
        assert bd.get(PHASE_PMI, 0.0) < 0.02 * bd[PHASE_MEMREG]
        assert bd.get(PHASE_CONN, 0.0) < 0.02 * bd[PHASE_MEMREG]
