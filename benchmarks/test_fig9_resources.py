"""Figure 9: per-process endpoint usage, measured + projected."""

from conftest import full_scale


def test_fig9_resources(run_experiment):
    result = run_experiment("fig9")

    series = result.extras["series"]
    reductions = result.extras["reductions"]

    for name, by_npes in series.items():
        sizes = sorted(by_npes)
        # Sublinear growth: the *fraction* of peers each process
        # touches shrinks as the job grows (Section V-F).
        frac_small = by_npes[sizes[0]] / sizes[0]
        frac_large = by_npes[sizes[-1]] / sizes[-1]
        assert frac_large < frac_small, (name, frac_small, frac_large)

    # 2DHeat and EP have the smallest footprints of the suite (the
    # paper ranks 2DHeat best followed by EP; in our simulation the
    # two swap, because EP's only peers are its reduction-tree
    # neighbours — see EXPERIMENTS.md).
    largest = max(next(iter(series.values())))
    ranked = sorted(series, key=lambda name: series[name][largest])
    assert set(ranked[:2]) == {"2DHeat", "EP"}

    # Reduction vs the static design's N endpoints/process.
    for name, red in reductions.items():
        floor = 90.0 if full_scale() else 60.0
        assert red > floor, (name, red)
