"""Figure 8(a): NAS benchmark total execution time."""

from conftest import full_scale


def test_fig8a_nas(run_experiment):
    result = run_experiment("fig8a")

    times = result.extras["times"]
    for name, (static_us, ondemand_us, improvement) in times.items():
        # On-demand always wins (shorter startup), never regresses.
        assert improvement > 0.0, (name, improvement)
        # Sanity ceiling: the win comes from startup, not the kernel.
        assert improvement < 60.0, (name, improvement)
    if full_scale():
        # Paper band at 256 PEs / class B: 18-35%.
        for name, (_s, _o, improvement) in times.items():
            assert 8.0 < improvement < 50.0, (name, improvement)
