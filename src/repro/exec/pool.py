"""The sweep pool: fan independent simulations out across cores.

Every experiment point — one ``(app, npes, config, testbed)`` tuple —
is a complete, self-seeded discrete-event simulation: it builds its own
:class:`~repro.sim.engine.Simulator` and draws every random number from
``RngRegistry(config.seed)``.  Two runs of the same :class:`JobSpec`
therefore produce identical :class:`~repro.core.metrics.JobResult`\\ s
*wherever they run*, which makes the paper sweeps (Figure 5's seven job
sizes x two designs, Figure 9's app x size grid, the ablations)
embarrassingly parallel.

Determinism contract
--------------------
* A :class:`JobSpec` fully determines its result (no wall-clock, no
  global state, no cross-job RNG).
* :func:`run_sweep` returns results **in spec order** — position ``i``
  of the output is the result of ``specs[i]`` regardless of which
  worker finished first.
* The serial fallback (``REPRO_PAR=0``, ``max_workers=1``, a single
  spec, or a single-core host) runs the same ``execute`` function
  in-process; parallel and serial output are byte-identical.

Failure contract
----------------
Any exception inside a job — in the worker or on the serial path — is
re-raised as :class:`SweepError` carrying the failing :class:`JobSpec`
(``.spec``) and the original exception (``.cause`` / ``__cause__``).
A worker process dying outright (segfault, OOM-kill) surfaces the
pool's :class:`BrokenProcessPool` the same way.

Worker model
------------
Workers are plain ``ProcessPoolExecutor`` processes.  On platforms with
``fork`` they inherit the parent's already-imported modules (warm
start); elsewhere an initializer pre-imports the heavy packages once
per worker so per-job import cost is zero either way.  Clusters and
config singletons are cached per process (see ``repro.cluster.presets``
and ``RuntimeConfig.current``), so a worker running many points of one
sweep builds each distinct ``(npes, ppn)`` topology once.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..cluster.params import CostModel
from ..core import Job, RuntimeConfig
from ..errors import ConfigError
from .identity import default_ppn, spec_description, spec_identity

__all__ = ["JobSpec", "SweepError", "execute", "resolve_workers",
           "resolve_workers_info", "run_sweep"]

_TESTBEDS = ("A", "B")
_COST_FIELDS = frozenset(f.name for f in fields(CostModel))

#: Jobs at or above this size leave enough cyclic garbage (generators,
#: waitables, conduit machinery) that sweeping it eagerly after the run
#: is a clear win: without the collect, every later job in the same
#: process pays progressively more for generational GC over the dead
#: machine (measured: a 2048-PE static point runs ~15% slower when it
#: follows an uncollected 4096-PE one).
_GC_SWEEP_NPES = 256


class SweepError(RuntimeError):
    """A sweep job failed; carries the spec and the original exception.

    The message names the job by its collision-free :attr:`JobSpec.
    identity` (with the display ``label``, when set, as a prefix) so a
    failure is never misattributed to a different point of the grid —
    ``label`` alone can be shared, and the descriptive ``key`` elides
    override details.
    """

    def __init__(self, spec: "JobSpec", cause: BaseException) -> None:
        identity = spec.identity
        name = f"{spec.label} ({identity})" if spec.label else identity
        super().__init__(f"sweep job {name} failed: {cause!r}")
        self.spec = spec
        self.cause = cause


@dataclass(frozen=True)
class JobSpec:
    """One picklable experiment point.

    ``config`` (design axes, seed and every opt-in: observe, faults,
    check, lifecycle, macro) plus the cluster description
    (``testbed``/``ppn``/``cost_overrides``) and the ``app`` instance
    fully determine the simulation.  Vary a run through the config
    (``config.evolve(seed=7, observe=True)``) — the spec itself holds
    no second copy of any config field.  App instances must be
    picklable module-level classes holding plain parameters — every
    app in ``repro.apps`` and ``repro.bench.microbench`` qualifies.
    """

    app: Any
    npes: int
    config: RuntimeConfig
    testbed: str = "A"
    ppn: Optional[int] = None
    #: CostModel fields to evolve on top of the testbed's preset (e.g.
    #: ``{"qp_cache_entries": 8}`` for ablation D5).  Normalised to a
    #: sorted tuple so specs stay hashable.
    cost_overrides: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: Human-readable tag used in error messages.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.npes < 1:
            raise ConfigError(f"JobSpec.npes must be >= 1, got {self.npes}")
        if self.testbed not in _TESTBEDS:
            raise ConfigError(
                f"JobSpec.testbed must be one of {_TESTBEDS}, "
                f"got {self.testbed!r}"
            )
        if self.ppn is not None and self.ppn < 1:
            raise ConfigError(f"JobSpec.ppn must be >= 1, got {self.ppn}")
        overrides = self.cost_overrides
        if isinstance(overrides, Mapping):
            overrides = tuple(sorted(overrides.items()))
            object.__setattr__(self, "cost_overrides", overrides)
        if overrides:
            # Validate here, with the offending key in hand — a
            # misspelt field or an unhashable value (e.g. a list) would
            # otherwise explode deep inside _custom_cluster long after
            # construction, with an opaque TypeError.
            for entry in overrides:
                try:
                    key, value = entry
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"JobSpec.cost_overrides entries must be "
                        f"(name, value) pairs, got {entry!r}"
                    )
                if not isinstance(key, str):
                    raise ConfigError(
                        f"JobSpec.cost_overrides keys must be strings, "
                        f"got {key!r}"
                    )
                if key not in _COST_FIELDS:
                    raise ConfigError(
                        f"JobSpec.cost_overrides: {key!r} is not a "
                        f"CostModel field"
                    )
                try:
                    hash(value)
                except TypeError:
                    raise ConfigError(
                        f"JobSpec.cost_overrides[{key!r}] must be a "
                        f"hashable value, got {value!r}"
                    )

    @property
    def key(self) -> str:
        """Display string: the ``label`` when set, else the descriptive
        form of :func:`spec_description`.  NOT collision-free — distinct
        specs can share a label, and the derived form elides override
        details.  Anything attributing behaviour to a spec (errors,
        dedup, caching) must use :attr:`identity` or
        :func:`repro.exec.spec_hash` instead.
        """
        return self.label or spec_description(self)

    @property
    def identity(self) -> str:
        """Collision-free identity string (see :func:`spec_identity`):
        the derived descriptive form — ``label`` never shadows it —
        plus a short content-hash suffix covering every semantic field,
        including ``cost_overrides`` and every config field."""
        return spec_identity(self)


@lru_cache(maxsize=32)
def _custom_cluster(testbed: str, npes: int, ppn: int,
                    overrides: Tuple[Tuple[str, Any], ...]):
    from ..cluster import CLUSTER_A_COST, CLUSTER_B_COST
    from ..cluster.topology import Cluster

    base = CLUSTER_A_COST if testbed == "A" else CLUSTER_B_COST
    return Cluster(npes=npes, ppn=ppn, cost=base.evolve(**dict(overrides)),
                   name=f"Cluster-{testbed}*")


def _cluster_for(spec: JobSpec):
    from ..cluster import cluster_a, cluster_b

    ppn = spec.ppn if spec.ppn is not None else default_ppn(spec.testbed)
    if spec.cost_overrides:
        return _custom_cluster(spec.testbed, spec.npes, ppn,
                               spec.cost_overrides)
    factory = cluster_a if spec.testbed == "A" else cluster_b
    return factory(spec.npes, ppn=ppn)


def execute(spec: JobSpec) -> Any:
    """Run one spec to completion in this process; returns a JobResult.

    This is the single code path both the serial fallback and the pool
    workers run — parallel == serial by construction.
    """
    job = Job(npes=spec.npes, config=spec.config, cluster=_cluster_for(spec))
    try:
        return job.run(spec.app)
    finally:
        if spec.npes >= _GC_SWEEP_NPES:
            del job
            gc.collect()


# ----------------------------------------------------------------------
# worker-count policy
# ----------------------------------------------------------------------
def _detect_host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers_info(max_workers: Optional[int] = None,
                         njobs: Optional[int] = None,
                         host_cpus: Optional[int] = None) -> Dict[str, Any]:
    """Pick the worker count; returns the decision *and* why.

    Policy: ``REPRO_PAR=0`` (or ``1``) is a global kill switch forcing
    the serial path even when the caller asked for workers (single-core
    CI, debugging).  ``REPRO_PAR=N`` sets the default when the caller
    passed no explicit ``max_workers``.  With neither, auto-detect from
    CPU affinity.  The count is clamped to the number of jobs **and to
    the host CPUs actually available** — oversubscribing a process pool
    of CPU-bound simulations only adds fork and context-switch cost (a
    2-worker sweep on a 1-CPU host measured a 0.81x "speedup"), so a
    request beyond the affinity mask falls back rather than thrashing.
    On a single-core host every request degrades to the serial path.

    Returns a dict so callers can record the policy outcome in result
    metadata (``BENCH_sweep.json`` stores it verbatim):

    ``requested``
        The worker count asked for (explicit argument or ``REPRO_PAR``),
        or ``None`` for auto-detect.
    ``host_cpus``
        CPUs available to this process (affinity-aware).
    ``workers``
        The resolved count — what :func:`run_sweep` will use.
    ``mode``
        ``"parallel"`` or ``"serial"``.
    ``reason``
        Why the count differs from the request (``"REPRO_PAR kill
        switch"``, ``"clamped to host CPUs"``, ``"single-core host"``,
        ``"clamped to job count"``), or ``None``.

    ``host_cpus`` may be passed explicitly to make the policy testable
    independent of the machine running the tests.
    """
    if host_cpus is None:
        host_cpus = _detect_host_cpus()
    info: Dict[str, Any] = {
        "requested": max_workers,
        "host_cpus": host_cpus,
        "workers": 1,
        "mode": "serial",
        "reason": None,
    }
    env = os.environ.get("REPRO_PAR", "").strip()
    if env:
        try:
            env_workers = int(env)
        except ValueError:
            raise ConfigError(f"REPRO_PAR must be an integer, got {env!r}")
        if env_workers <= 1:
            info["reason"] = "REPRO_PAR kill switch"
            return info
        if max_workers is None:
            max_workers = env_workers
            info["requested"] = env_workers
    workers = max_workers if max_workers is not None else host_cpus
    if workers > host_cpus:
        workers = host_cpus
        info["reason"] = ("single-core host" if host_cpus <= 1
                          else "clamped to host CPUs")
    if njobs is not None and workers > njobs:
        workers = njobs
        info["reason"] = "clamped to job count"
    workers = max(1, workers)
    info["workers"] = workers
    info["mode"] = "parallel" if workers > 1 else "serial"
    if workers == 1 and info["reason"] is None and host_cpus <= 1:
        info["reason"] = "single-core host"
    return info


def resolve_workers(max_workers: Optional[int] = None,
                    njobs: Optional[int] = None,
                    host_cpus: Optional[int] = None) -> int:
    """The worker count alone (see :func:`resolve_workers_info`)."""
    return resolve_workers_info(max_workers, njobs, host_cpus)["workers"]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _warm_worker() -> None:
    """Per-worker initializer: pre-import the heavy packages once so no
    job pays import cost (a no-op under ``fork``, where the worker
    inherits the parent's modules)."""
    import repro.apps  # noqa: F401
    import repro.bench.microbench  # noqa: F401


def _run_serial(specs: List[JobSpec]) -> List[Any]:
    results = []
    for spec in specs:
        try:
            results.append(execute(spec))
        except Exception as exc:
            raise SweepError(spec, exc) from exc
    return results


def _run_parallel(specs: List[JobSpec], workers: int) -> List[Any]:
    import multiprocessing

    mp_context = None
    if "fork" in multiprocessing.get_all_start_methods():
        # Warm-start workers: they inherit every module the parent has
        # already imported instead of re-importing under spawn.
        mp_context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_warm_worker,
    )
    try:
        # Results are keyed by submission position — completion order
        # never matters, so the merge is deterministic by construction.
        futures = [pool.submit(execute, spec) for spec in specs]
        results = []
        for i, (spec, future) in enumerate(zip(specs, futures)):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                # The worker died without raising (crash/OOM-kill);
                # attach the first spec whose result we could not get.
                raise SweepError(spec, exc) from exc
            except Exception as exc:
                for pending in futures[i + 1:]:
                    pending.cancel()
                raise SweepError(spec, exc) from exc
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(specs: Iterable[JobSpec],
              max_workers: Optional[int] = None) -> List[Any]:
    """Run every spec; returns JobResults in spec order."""
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise ConfigError(f"run_sweep expects JobSpecs, got {spec!r}")
    if not specs:
        return []
    workers = resolve_workers(max_workers, njobs=len(specs))
    if workers <= 1:
        return _run_serial(specs)
    return _run_parallel(specs, workers)
