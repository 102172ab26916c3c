"""The job launcher: assembles a machine, runs an application, reports.

``Job`` is the package's main entry point::

    from repro.core import Job, RuntimeConfig
    from repro.apps import HelloWorld

    result = Job(npes=256, config=RuntimeConfig.proposed()).run(HelloWorld())
    print(result.startup.phase_means, result.wall_time_s)

One ``Job`` builds one fully wired simulated machine — fabric, HCAs,
PMI daemon tree, conduits, OpenSHMEM PEs (and an MPI communicator per
PE for hybrid apps) — spawns every PE's main process with a realistic
launch skew, and runs the discrete-event simulation to completion.
"""

from __future__ import annotations

import gc

from typing import Callable, Dict, List, Optional

from ..check import CheckPlan, Sanitizer
from ..cluster import Cluster, cluster_a
from ..errors import ConfigError, InvariantViolation
from ..faults import FaultInjector, FaultPlan
from ..gasnet import ConduitNetwork, OnDemandConduit, StaticConduit
from ..gasnet.conduit import install_timeline_probes as _conduit_probes
from ..ib import HCA, Fabric, VerbsContext
from ..ib.hca import install_timeline_probes as _hca_probes
from ..mpi import Communicator
from ..obs import Observability, TimelineConfig
from ..shmem.runtime import install_timeline_probes as _shmem_probes
from ..pmi import PMIClient, PMIDomain
from ..shmem import ShmemPE
from ..shmem.models import run_macro_job, supported_corner
from ..sim import Barrier, Counters, RngRegistry, Simulator, Tracer, spawn, spawn_batch
from .config import RuntimeConfig
from .metrics import JobResult, ResourceReport, StartupReport

__all__ = ["Job"]


class Job:
    """One simulated job launch."""

    def __init__(
        self,
        npes: int,
        config: Optional[RuntimeConfig] = None,
        cluster: Optional[Cluster] = None,
        cluster_factory: Optional[Callable[[int], Cluster]] = None,
        trace: bool = False,
        faults: Optional[FaultPlan] = None,
        observe=None,
        check: Optional[CheckPlan] = None,
        scheduler: str = "calendar",
        macro: Optional[bool] = None,
    ) -> None:
        if npes < 1:
            raise ConfigError("npes must be >= 1")
        config = config or RuntimeConfig.proposed()
        # Keyword overrides: an explicit value (False included) wins
        # over the config, None means "not set".  RuntimeConfig coerces,
        # folds and validates them, macro guard rails included.
        overrides = {
            name: value
            for name, value in (("fault_plan", faults), ("observe", observe),
                                ("check", check), ("macro_phases", macro))
            if value is not None
        }
        self.config = config.evolve(**overrides) if overrides else config
        if cluster is not None:
            self.cluster = cluster
        else:
            factory = cluster_factory or cluster_a
            self.cluster = factory(npes)
        if self.cluster.npes != npes:
            raise ConfigError(
                f"cluster sized for {self.cluster.npes} PEs, job wants {npes}"
            )
        self.npes = npes

        # -- analytical phase models (macro mode) ----------------------
        self.macro = self.config.macro_phases
        if self.macro:
            if trace:
                raise ConfigError(
                    "macro mode produces no event trace (trace=True)"
                )
            supported_corner(self.config)  # fail fast off the corner
            # No machine: the reducers read MacroRunResult instead.
            self.sim = None
            self.obs = None
            self.tracer = None
            self.sanitizer = None
            self.fault_injector = None
            return

        # -- machine assembly ------------------------------------------
        self.sim = Simulator(scheduler=scheduler)
        #: Every count of the run, observed or not; telemetry reports it.
        self.counters = Counters()
        #: Flight recorder (spans + histograms, optionally the timeline
        #: sampler); None unless the config enables observe.
        #: Every substrate holds an ``obs`` pointer that stays None when
        #: off, so instrumentation costs one predicate check per site.
        observe = self.config.observe
        timeline_cfg = observe if isinstance(observe, TimelineConfig) else None
        self.obs: Optional[Observability] = (
            Observability(self.sim, self.counters, timeline=timeline_cfg)
            if observe else None
        )
        self.rng = RngRegistry(self.config.seed)
        self.fabric = Fabric(self.sim, self.cluster, self.rng, self.counters)
        cost = self.cluster.cost
        self.hcas = [
            HCA(self.sim, self.fabric, node=n, lid=0x100 + n,
                cost=cost, counters=self.counters)
            for n in range(self.cluster.nnodes)
        ]
        self.ctxs = [
            VerbsContext(
                self.sim, self.hcas[self.cluster.node_of(r)], r, cost,
                self.counters,
            )
            for r in range(npes)
        ]
        self.pmi_domain = PMIDomain(self.sim, self.cluster, self.counters)
        self.pmi = [PMIClient(self.pmi_domain, r) for r in range(npes)]
        if self.obs is not None:
            self.fabric.obs = self.obs
            for hca in self.hcas:
                hca.obs = self.obs
            self.pmi_domain.obs = self.obs
            for client in self.pmi:
                client.obs = self.obs
        # -- fault injection ------------------------------------------
        plan = self.config.fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        if plan is not None:
            self.fault_injector = FaultInjector(
                plan, self.sim, self.rng, self.counters
            ).install(
                fabric=self.fabric, hcas=self.hcas,
                pmi_domain=self.pmi_domain,
            )
            if self.obs is not None:
                self.fault_injector.obs = self.obs
        # -- invariant sanitizer ----------------------------------------
        check_plan = self.config.check
        self.sanitizer: Optional[Sanitizer] = None
        if check_plan is not None:
            self.sanitizer = Sanitizer(
                check_plan, self.sim, obs=self.obs
            ).install(hcas=self.hcas, pmi_domain=self.pmi_domain)
        self.network = ConduitNetwork()
        self.network.obs = self.obs
        self.network.check = self.sanitizer
        #: Protocol-level event log (connects, AMs, RMA); off by default
        #: so it costs one pointer check on the hot paths.
        self.tracer = Tracer(self.sim, enabled=trace)
        self.network.tracer = self.tracer
        conduit_cls = (
            StaticConduit if self.config.connection_mode == "static"
            else OnDemandConduit
        )
        self.conduits = [
            conduit_cls(
                self.sim, self.network, self.ctxs[r], self.cluster,
                self.pmi[r], r,
            )
            for r in range(npes)
        ]
        lifecycle = self.config.lifecycle
        if lifecycle is not None:
            for conduit in self.conduits:
                conduit.install_lifecycle(lifecycle)
        self.pes = [
            ShmemPE(
                self.sim, r, self.cluster, self.ctxs[r], self.conduits[r],
                self.pmi[r], self.counters, self.config,
            )
            for r in range(npes)
        ]
        registry: Dict[int, ShmemPE] = {r: pe for r, pe in enumerate(self.pes)}
        node_barriers = [
            Barrier(self.sim, parties=len(self.cluster.ranks_on_node(n)))
            for n in range(self.cluster.nnodes)
        ]
        for r, pe in enumerate(self.pes):
            pe.install_peer_registry(registry)
            pe.node_barrier = node_barriers[self.cluster.node_of(r)]
            pe.obs = self.obs
            pe.check = self.sanitizer

        # -- timeline probes (machine fully assembled at this point) ----
        timeline = self.obs.timeline if self.obs is not None else None
        if timeline is not None:
            _conduit_probes(timeline, self.conduits, self.counters)
            _hca_probes(timeline, self.hcas, self.counters)
            self.pmi_domain.install_timeline_probes(timeline)
            _shmem_probes(timeline, self.pes)
            # Scheduler depth: how much work the DES is juggling —
            # pending_events is a pure len() sum over the queues.
            timeline.add_probe("sim.event_queue_depth",
                               lambda: self.sim.pending_events)

    # ------------------------------------------------------------------
    def run(self, app) -> JobResult:
        """Launch ``app`` on every PE and simulate to completion."""
        if self.macro:
            res = run_macro_job(app, self.npes, self.config, self.cluster)
            return JobResult(
                npes=self.npes,
                config_label=self.config.label,
                wall_time_us=res.wall_time_us,
                app_done_us=res.app_done_us,
                startup=StartupReport.from_pes(res.pes),
                resources=ResourceReport.from_pes(res.pes),
                app_results=res.app_results,
                counters=res.counters,
                telemetry=None,
                check=None,
                macro=True,
            )
        skew_rng = self.rng.stream("launch-skew")
        skews = skew_rng.uniform(0.0, self.cluster.cost.launch_skew_us,
                                 size=self.npes)
        uses_mpi = getattr(app, "uses_mpi", False)
        app_done_at: List[float] = [0.0] * self.npes
        all_done_at: List[float] = [0.0] * self.npes
        results: List = [None] * self.npes

        def pe_main(rank: int):
            pe = self.pes[rank]
            yield float(skews[rank])
            yield from pe.start_pes()
            if uses_mpi:
                pe.mpi = Communicator(pe)
            value = yield from app.run(pe)
            app_done_at[rank] = self.sim.now
            results[rank] = value
            pe.snapshot_resources()
            yield from pe.finalize()
            all_done_at[rank] = self.sim.now

        # The launch broadcast is one aggregate wave: every PE main
        # takes its first step from a single scheduler entry instead of
        # npes individual queue hops (order unchanged — see spawn_batch).
        procs = spawn_batch(
            self.sim, ((pe_main(r), f"pe{r}") for r in range(self.npes))
        )
        done = {"ok": False}
        timeline = self.obs.timeline if self.obs is not None else None

        def join_all(sim):
            yield sim.all_of(procs)
            done["ok"] = True
            if timeline is not None:
                # Final sample + disarm; the one already-scheduled tick
                # fires as a no-op so the queue still drains.  Without
                # this the self-rearming sampler would keep the run
                # alive forever (same hazard the lifecycle reaper parks
                # around).
                timeline.stop()

        spawn(self.sim, join_all(self.sim), name="join")
        if timeline is not None:
            timeline.start()
        # The event storm allocates heavily but creates no garbage
        # cycles the run itself needs collected; at tens of thousands
        # of PEs the cyclic GC's generational scans are a measurable
        # fraction of wall time, so pause it for the simulation proper.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run()
        except BaseException as exc:
            # A strict sanitizer violation inside a PE process arrives
            # wrapped in the engine's generic ProcessFailure; surface
            # the structured violation itself at the job boundary.
            cause = exc.__cause__
            if isinstance(cause, InvariantViolation):
                raise cause from exc
            raise
        finally:
            if gc_was_enabled:
                gc.enable()
        if not done["ok"]:
            msg = (
                "job did not complete: a PE is deadlocked "
                "(event queue drained with processes still waiting)"
            )
            if self.sanitizer is not None and self.sanitizer.violations:
                heads = "; ".join(
                    str(v) for v in self.sanitizer.violations[:5]
                )
                msg += (
                    f" — sanitizer recorded "
                    f"{len(self.sanitizer.violations)} violation(s): {heads}"
                )
            raise RuntimeError(msg)

        check_report = None
        if self.sanitizer is not None:
            check_report = self.sanitizer.final_audit(
                pes=self.pes, conduits=self.conduits, pmi_clients=self.pmi,
            )

        launch = self.cluster.cost.launch_overhead_us
        return JobResult(
            npes=self.npes,
            config_label=self.config.label,
            wall_time_us=launch + max(all_done_at),
            app_done_us=launch + max(app_done_at),
            startup=StartupReport.from_pes(self.pes),
            resources=ResourceReport.from_pes(self.pes),
            app_results=results,
            counters=self.counters.as_dict(),
            telemetry=self.obs.telemetry() if self.obs is not None else None,
            check=check_report,
        )
