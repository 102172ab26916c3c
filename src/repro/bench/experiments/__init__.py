"""One module per paper table/figure, and the one registry of them.

:data:`EXPERIMENTS` is the only list of experiments.  ``python -m
repro.bench``, ``scripts/run_full_experiments.py`` and the
``benchmarks/`` harness all read it, so a name means the same callable
everywhere and "paper scale" means the same thing everywhere: the
entry's ``run(quick=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from ...errors import ConfigError
from ..runner import ExperimentResult
from . import (
    ablation_barrier,
    ablation_piggyback,
    ablation_pmi,
    ablation_qp_cache,
    fig1_breakdown,
    fig2_radar,
    fig5_startup,
    fig6_p2p,
    fig7_collectives,
    fig8a_nas,
    fig8b_graph500,
    fig9_churn,
    fig9_resources,
    table1_peers,
)

__all__ = ["Experiment", "EXPERIMENTS", "select", "full_suite"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    #: Command-line name, e.g. ``fig5a``.
    name: str
    #: Results-file stem: tables are written as ``{stem}.txt``/``.csv``.
    stem: str
    #: ``run(quick=...)``: quick scale when true, paper scale when false.
    run: Callable[..., ExperimentResult]
    #: Part of the default full-suite run; False for entries that cost
    #: too much to run unless named.
    in_full_suite: bool = True


EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("fig1", "fig1_breakdown", fig1_breakdown.run),
    Experiment("table1", "table1_peers", table1_peers.run),
    Experiment("fig2", "fig2_radar", fig2_radar.run),
    Experiment("fig5a", "fig5a_startup", fig5_startup.run),
    Experiment("fig5b", "fig5b_breakdown", fig5_startup.run_breakdown),
    # Beyond-the-paper on-demand curve to 1,048,576 PEs: minutes of
    # wall clock and several GB at paper scale, so it runs only when
    # named.
    Experiment("fig5-scale", "fig5_scale", fig5_startup.run_scale,
               in_full_suite=False),
    Experiment("fig6ab", "fig6ab_put_get", fig6_p2p.run),
    Experiment("fig6c", "fig6c_atomics", fig6_p2p.run_atomics),
    Experiment("fig7ab", "fig7ab_collect_reduce", fig7_collectives.run),
    Experiment("fig7c", "fig7c_barrier", fig7_collectives.run_barrier),
    Experiment("fig8a", "fig8a_nas", fig8a_nas.run),
    Experiment("fig8b", "fig8b_graph500", fig8b_graph500.run),
    Experiment("fig9", "fig9_resources", fig9_resources.run),
    Experiment("fig9-churn", "fig9_churn", fig9_churn.run),
    Experiment("ablation-piggyback", "ablation_d1_piggyback",
               ablation_piggyback.run),
    Experiment("ablation-pmi", "ablation_d2_pmi", ablation_pmi.run),
    Experiment("ablation-barrier", "ablation_d3_barrier",
               ablation_barrier.run),
    # One scale: the cache sweep is already small at paper size.
    Experiment("ablation-qp-cache", "ablation_d5_qp_cache",
               lambda quick: ablation_qp_cache.run()),
)}


def select(names: Iterable[str]) -> List[Experiment]:
    """The entries for ``names``, in the order given.

    Raises :class:`ConfigError` naming every unknown name."""
    names = list(names)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ConfigError(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(available: {', '.join(EXPERIMENTS)})"
        )
    return [EXPERIMENTS[n] for n in names]


def full_suite() -> List[Experiment]:
    """The entries a default full-suite run covers, in registry order."""
    return [e for e in EXPERIMENTS.values() if e.in_full_suite]
