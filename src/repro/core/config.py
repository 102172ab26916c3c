"""Runtime configuration: the paper's design axes as data.

The paper's "Current Design" and "Proposed Design" are the two preset
corners; ablations mix the axes independently (e.g. static connections
with non-blocking PMI, Section IV-D's observation that the overlap
cannot help the static scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Any, Optional

from ..check import CheckPlan
from ..errors import ConfigError
from ..faults import FaultPlan
from ..gasnet import LifecyclePolicy
from ..obs.timeline import canonical_observe

__all__ = ["RuntimeConfig"]

_CONNECTION_MODES = ("static", "ondemand")
_PMI_MODES = ("blocking", "nonblocking")
_BARRIER_MODES = ("global", "intranode")


def _is_int(value: Any) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RuntimeConfig:
    """One point in the design space evaluated by the paper."""

    #: ``static`` (full wire-up at init) or ``ondemand`` (Fig. 4).
    connection_mode: str = "ondemand"
    #: ``blocking`` Put/Fence/Get or ``nonblocking`` PMIX_Iallgather.
    pmi_mode: str = "nonblocking"
    #: Barriers inside start_pes: ``global`` or ``intranode``.
    barrier_mode: str = "intranode"
    #: On-demand only: piggyback segment keys on the connect handshake
    #: (Section IV-C).  When False, the runtime sends a separate
    #: request/reply exchange after connecting — the baseline
    #: inefficiency #2 the paper eliminates (ablation D1).
    piggyback_segments: bool = True
    #: Symmetric heap size (MB) registered at init — drives the
    #: memory-registration cost, as on the real systems.
    heap_mb: float = 256.0
    #: Real backing buffer per PE (KB) actually materialised for data.
    #: Raise for data-heavy apps; see SymmetricHeap.
    heap_backing_kb: int = 64
    #: RNG master seed for the whole job.
    seed: int = 12345
    #: The opt-ins below are coerced, folded and validated here, once:
    #: ``Job`` keyword overrides and ``JobSpec`` both resolve through
    #: :meth:`evolve`, and the spec hash reads the folded fields.  An
    #: opt-in that would do nothing is stored as its "off" form, so
    #: every spelling of the same run compares (and hashes) equal.
    #:
    #: Flight recorder (:mod:`repro.obs`): span tracing + latency
    #: histograms on every substrate.  Off by default; when off the
    #: instrumentation costs one predicate check per site.  Accepts
    #: ``bool``, ``{"timeline": ...}`` (adds the time-series sampler),
    #: or a :class:`repro.obs.TimelineConfig`; stored as ``False`` /
    #: ``True`` / ``TimelineConfig`` so the dataclass stays hashable.
    observe: Any = False
    #: Deterministic fault plan (:class:`repro.faults.FaultPlan` or the
    #: equivalent config dict); ``None`` (or a plan with no rules)
    #: disables injection.
    fault_plan: Optional[FaultPlan] = None
    #: Invariant sanitizer plan (:class:`repro.check.CheckPlan`, the
    #: equivalent config dict, or ``True`` for the default plan);
    #: ``None``/``False`` (or a plan arming no auditor) disables
    #: auditing.
    check: Optional[CheckPlan] = None
    #: Connection-lifecycle policy (:class:`repro.gasnet.LifecyclePolicy`
    #: or the equivalent config dict): idle-connection reaping and
    #: transparent reconnect on the on-demand conduit.  ``None`` (the
    #: default) keeps eviction off — connections live until finalize,
    #: exactly as in the paper's evaluation.  A disabled policy, or any
    #: policy under ``connection_mode="static"`` (whose conduit owns no
    #: per-peer lifecycle), is stored as ``None``.
    lifecycle: Optional[LifecyclePolicy] = None
    #: Analytical phase models (:mod:`repro.sim.macro`): reproduce the
    #: startup metrics through closed-form cost curves instead of the
    #: per-PE event swarm.  Off by default — the exact engine is the
    #: reference; macro mode exists for very large scale points
    #: (Figure 5 beyond ~10^5 PEs).  Incompatible with faults, observe,
    #: check and lifecycle (rejected here) and with ``Job(trace=True)``.
    macro_phases: bool = False

    def __post_init__(self) -> None:
        if self.connection_mode not in _CONNECTION_MODES:
            raise ConfigError(f"connection_mode must be one of {_CONNECTION_MODES}")
        if self.pmi_mode not in _PMI_MODES:
            raise ConfigError(f"pmi_mode must be one of {_PMI_MODES}")
        if self.barrier_mode not in _BARRIER_MODES:
            raise ConfigError(f"barrier_mode must be one of {_BARRIER_MODES}")
        heap_mb = self.heap_mb
        if (isinstance(heap_mb, bool) or not isinstance(heap_mb, Real)
                or not math.isfinite(heap_mb) or heap_mb <= 0):
            raise ConfigError(
                f"heap_mb must be a finite positive number, got {heap_mb!r}"
            )
        if not _is_int(self.heap_backing_kb) or self.heap_backing_kb <= 0:
            raise ConfigError(
                f"heap_backing_kb must be a positive integer, "
                f"got {self.heap_backing_kb!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        for name in ("piggyback_segments", "macro_phases"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a bool, got {value!r}")
        set_ = object.__setattr__
        set_(self, "observe", canonical_observe(self.observe))
        plan = self.fault_plan
        if isinstance(plan, dict):
            plan = FaultPlan.from_dict(plan)
        elif plan is not None and not isinstance(plan, FaultPlan):
            raise ConfigError(
                f"fault_plan must be a FaultPlan or config dict, got {plan!r}"
            )
        set_(self, "fault_plan", None if plan is None or plan.empty else plan)
        check = self.check
        if check is True:
            check = CheckPlan()
        elif check is False:
            check = None
        elif isinstance(check, dict):
            check = CheckPlan.from_dict(check)
        elif check is not None and not isinstance(check, CheckPlan):
            raise ConfigError(
                f"check must be a CheckPlan, config dict, or bool, "
                f"got {check!r}"
            )
        set_(self, "check", None if check is None or check.empty else check)
        policy = self.lifecycle
        if isinstance(policy, dict):
            policy = LifecyclePolicy.from_dict(policy)
        elif policy is not None and not isinstance(policy, LifecyclePolicy):
            raise ConfigError(
                f"lifecycle must be a LifecyclePolicy or config dict, "
                f"got {policy!r}"
            )
        if policy is not None and (
            not policy.enabled or self.connection_mode == "static"
        ):
            policy = None
        set_(self, "lifecycle", policy)
        if self.macro_phases:
            # The macro layer reproduces metrics, not events: anything
            # that hooks the event stream has nothing to hook.
            if self.fault_plan is not None:
                raise ConfigError("macro mode cannot inject faults")
            if self.observe is not False:
                raise ConfigError("macro mode has no flight recorder")
            if self.check is not None:
                raise ConfigError("macro mode cannot run the sanitizer")
            if self.lifecycle is not None:
                raise ConfigError(
                    "macro mode does not model connection lifecycle"
                )

    # -- the paper's two corners ------------------------------------------
    # The unmodified corners are process-wide singletons: RuntimeConfig
    # is frozen, and sweep workers request the same design point for
    # every grid cell (validation in __post_init__ is not free).
    _current_singleton = None
    _proposed_singleton = None

    @classmethod
    def current(cls, **overrides) -> "RuntimeConfig":
        """The baseline: static connections, blocking PMI, global barriers."""
        base = cls._current_singleton
        if base is None or base.__class__ is not cls:
            base = cls(
                connection_mode="static", pmi_mode="blocking",
                barrier_mode="global",
            )
            cls._current_singleton = base
        return base.evolve(**overrides) if overrides else base

    @classmethod
    def proposed(cls, **overrides) -> "RuntimeConfig":
        """The paper's design: on-demand + PMIX_Iallgather + intra-node."""
        base = cls._proposed_singleton
        if base is None or base.__class__ is not cls:
            base = cls(
                connection_mode="ondemand", pmi_mode="nonblocking",
                barrier_mode="intranode",
            )
            cls._proposed_singleton = base
        return base.evolve(**overrides) if overrides else base

    def evolve(self, **overrides) -> "RuntimeConfig":
        return replace(self, **overrides)

    @property
    def label(self) -> str:
        """Short label for tables ("static+blocking+global")."""
        return (
            f"{self.connection_mode}+{self.pmi_mode}+{self.barrier_mode}"
        )
