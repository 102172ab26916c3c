"""The benchmark's workloads: the job each one runs and how its output is checked.

Every workload uses the exact engine and the calendar scheduler.  The
benchmark seed feeds ``RuntimeConfig.seed`` (launch skew, UD loss,
jitter) and, for Graph500, the graph generator seed.  Sizes are chosen
so one job takes about 1-4 s on a 2-core host: a run then holds enough
jobs for a steady median.  ``README.md`` records why each workload is
in the set.

This module imports ``repro`` only inside functions, so ``run.py`` can
read the workload names without loading the simulator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Tuple

#: The seed whose simulated results are pinned in ``fingerprints.json``.
DEFAULT_SEED = 1

WORKLOADS = ("startup_ondemand", "startup_static", "graph500",
             "churn_observed")

#: Graph500 and churn parameters, shared by the job and its validation.
_G500 = dict(scale=9, edgefactor=16, nroots=2)
_CHURN = dict(epochs=6, partners=4, requests=8, idle_gap_us=30_000.0)


@lru_cache(maxsize=None)
def graph500_inputs(seed: int) -> Tuple[int, Tuple[int, ...]]:
    """The Graph500 generator seed for benchmark ``seed``, and its roots.

    The specification searches from roots with edges; the app draws its
    roots uniformly, so on a scale-9 R-MAT graph a root may sit in a
    tiny component and end its search in a level or two, making the
    job's work depend on the seed.  The benchmark therefore takes the
    first generator seed from ``seed * 1000`` on whose roots, drawn the
    way ``Graph500Hybrid.run`` draws them, all lie in the component
    holding most of the vertices that have an edge.  ``validate``
    checks that the app searched from exactly these roots.
    """
    import numpy as np
    from repro.apps import kronecker_edges

    n = 1 << _G500["scale"]
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        edges = kronecker_edges(_G500["scale"], _G500["edgefactor"],
                                candidate)
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in edges.tolist():
            parent[find(u)] = find(v)
        touched = np.unique(edges)
        sizes: Dict[int, int] = {}
        for v in touched.tolist():
            sizes[find(v)] = sizes.get(find(v), 0) + 1
        roots = np.random.default_rng(candidate + 7).integers(
            0, n, size=_G500["nroots"]).tolist()
        if all(2 * sizes.get(find(r), 0) > len(touched) for r in roots):
            return candidate, tuple(roots)
    raise ValueError(f"no Graph500 generator seed found for seed {seed}")


def job_factory(name: str, seed: int) -> Tuple[Callable[[], Any], Any]:
    """``(make_job, app)`` for workload ``name``.

    ``make_job()`` builds the cluster preset and the ``Job``: the whole
    of machine assembly, which the benchmark times as set-up.
    """
    from repro.apps import ChurnWorkload, Graph500Hybrid, HelloWorld
    from repro.cluster import cluster_a, cluster_b
    from repro.core import Job, RuntimeConfig
    from repro.gasnet import LifecyclePolicy

    if name == "startup_ondemand":
        config = RuntimeConfig.proposed(seed=seed)
        return (lambda: Job(4096, config=config,
                            cluster=cluster_b(4096, ppn=16)), HelloWorld())
    if name == "startup_static":
        config = RuntimeConfig.current(seed=seed)
        return (lambda: Job(2048, config=config,
                            cluster=cluster_b(2048, ppn=16)), HelloWorld())
    if name == "graph500":
        config = RuntimeConfig.proposed(seed=seed, heap_backing_kb=2048)
        return (lambda: Job(64, config=config, cluster=cluster_a(64)),
                Graph500Hybrid(seed=graph500_inputs(seed)[0], **_G500))
    if name == "churn_observed":
        config = RuntimeConfig.proposed(
            seed=seed, lifecycle=LifecyclePolicy(policy="lru"))
        return (lambda: Job(128, config=config, cluster=cluster_a(128),
                            observe={"timeline": True}),
                ChurnWorkload(**_CHURN))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def clear_preset_caches() -> None:
    """Forget cached cluster presets, so the next set-up builds one."""
    from repro.cluster import cluster_a, cluster_b

    cluster_a.cache_clear()
    cluster_b.cache_clear()


def validate(name: str, seed: int, result) -> List[str]:
    """Problems with a job's output by the application's own rules."""
    problems: List[str] = []
    values = result.app_results
    if len(values) != result.npes or any(v is None for v in values):
        return [f"{name}: not every PE returned a result"]
    if name.startswith("startup_"):
        for rank, value in enumerate(values):
            if value != f"Hello from PE {rank} of {result.npes}":
                problems.append(f"{name}: PE {rank} returned {value!r}")
                break
    elif name == "graph500":
        nedges = _G500["edgefactor"] << _G500["scale"]
        roots = graph500_inputs(seed)[1]
        for rank, value in enumerate(values):
            if tuple(bfs["root"] for bfs in value["bfs"]) != roots:
                problems.append(f"graph500: PE {rank} searched from "
                                f"other roots than {roots}")
            if value["nedges"] != nedges:
                problems.append(f"graph500: PE {rank} saw "
                                f"{value['nedges']} edges, not {nedges}")
            for bfs in value["bfs"]:
                if bfs["errors"] or bfs["visited"] < 1:
                    problems.append(f"graph500: PE {rank} root "
                                    f"{bfs['root']}: {bfs}")
            if problems:
                break
    elif name == "churn_observed":
        per_epoch = sum(max(1, _CHURN["requests"] >> slot)
                        for slot in range(_CHURN["partners"]))
        for rank, value in enumerate(values):
            if value["puts"] != per_epoch * _CHURN["epochs"]:
                problems.append(f"churn_observed: PE {rank} made "
                                f"{value['puts']} puts")
                break
        if not result.counters.get("conduit.evictions"):
            problems.append("churn_observed: no connection was evicted")
    return problems


def fingerprint(result) -> Dict[str, Any]:
    """The simulated results a host-speed change must leave untouched."""
    from dataclasses import asdict

    return {
        "wall_time_us": result.wall_time_us,
        "app_done_us": result.app_done_us,
        "startup_max_us": result.startup.max_us,
        "startup_mean_us": result.startup.mean_us,
        "resources": asdict(result.resources),
        "counters": dict(sorted(result.counters.items())),
    }
