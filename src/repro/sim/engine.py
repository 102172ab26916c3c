"""Discrete-event simulation core: clock, scheduler, waitables.

The engine is deliberately tiny and deterministic.  Simulated time is a
``float`` in *microseconds*.  Events scheduled for the same timestamp
fire in scheduling order (a monotonically increasing sequence number
breaks ties), so a simulation with a fixed seed is exactly
reproducible.

Fast paths
----------
Zero-delay work (waitable callback dispatch, ``call_soon``, process
continuations) dominates event volume, so it bypasses the global
scheduler: a FIFO **microtask queue** holds ``(seq, fn, arg)`` entries
that are drained in ``(time, seq)`` order merged against the timed
queue.  Because every microtask carries the same sequence counter the
scheduler uses, the execution order is *identical* to scheduling
everything through one heap — the golden-trace tests in ``tests/sim``
pin this down — while a ``deque`` append/popleft replaces a
``heappush``/``heappop`` pair and no closure or tuple payload is
allocated per hop.

Timed events go through a pluggable scheduler (``scheduler=`` ctor
argument): the default :class:`~repro.sim.calendar.CalendarQueue`
(day buckets + near heap + overflow heap, O(1) amortized insert for
the dense startup regime) or the original single binary heap
(``scheduler="heap"``), kept as reference for byte-identity tests.

Homogeneous event storms — a PMI fence releasing a whole wave of
waiters, ``start_pes`` launching every PE — can be scheduled as one
:meth:`Simulator.schedule_wave` aggregate: a contiguous block of seq
numbers is reserved and the members dispatch in batch from a single
scheduler entry, in exactly the order N independent entries would
have (see :mod:`repro.sim.calendar` for the argument).

The public surface is:

* :class:`Simulator` -- owns the clock, the timed-event scheduler and
  the microtask queue.
* :class:`Waitable` -- anything a process generator may ``yield``.
* :class:`SimEvent` -- a one-shot event that can be succeeded or failed.
* :class:`Timeout` -- fires after a fixed simulated delay.
* :class:`AnyOf` / :class:`AllOf` -- composite waits.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import Any, Callable, Iterable, List, Optional, Sequence

from .calendar import CalendarQueue, HeapQueue, Wave

__all__ = [
    "Simulator",
    "Waitable",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-trigger etc.)."""


def _invoke0(fn: Callable[[], None]) -> None:
    """Microtask shim running an argument-less callable."""
    fn()


class _CallbackBatch:
    """Dispatches a multi-entry callback list without a per-dispatch
    closure (the single-callback case never allocates this)."""

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: List[Callable]) -> None:
        self.callbacks = callbacks

    def __call__(self, waitable: "Waitable") -> None:
        for fn in self.callbacks:
            fn(waitable)


class Waitable:
    """Base class for objects a process can ``yield`` on.

    A waitable is *triggered* at most once.  When triggered it carries a
    ``value`` (delivered to waiters via ``send``) or an exception
    (delivered via ``throw``).  Callbacks registered via
    :meth:`add_callback` run, in order, at the simulated instant the
    waitable triggers.

    ``callbacks`` is stored compactly: ``None`` (none registered — the
    common case for timeouts and fire-and-forget events), a bare
    callable (exactly one waiter — the dominant case), or a list (two
    or more).  This keeps the per-waitable allocation at zero until a
    second waiter actually appears.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Any = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the waitable has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if triggered without an exception."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises if the waitable failed or is pending."""
        if not self._triggered:
            raise SimulationError("waitable has not triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ---------------------------------------------------
    def _trigger(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exc = exc
        self.sim._schedule_callbacks(self)

    def add_callback(self, fn: Callable[["Waitable"], None]) -> None:
        """Run ``fn(self)`` when this waitable fires (immediately if fired).

        "Immediately" still means *via the event queue* at the current
        simulated time, preserving run-to-completion semantics.
        """
        if self._triggered:
            # Already dispatched: schedule a fresh zero-delay callback.
            self.sim._call_soon(fn, self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = fn
        elif cbs.__class__ is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]


class SimEvent(Waitable):
    """One-shot event with explicit :meth:`succeed` / :meth:`fail`."""

    __slots__ = ()

    def succeed(self, value: Any = None) -> "SimEvent":
        self._trigger(value=value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(exc=exc)
        return self


class Timeout(Waitable):
    """Fires ``delay`` microseconds after construction.

    Processes that only need a value-less sleep can ``yield`` a plain
    ``float``/``int`` delay instead and skip this object entirely (see
    :mod:`repro.sim.process`).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        sim._schedule_at(sim.now + self.delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self._trigger(value=value)


class _Composite(Waitable):
    """Shared machinery for AnyOf / AllOf."""

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self.children: List[Waitable] = list(children)
        if not self.children:
            raise ValueError("composite wait over an empty set")
        self._pending = len(self.children)
        for child in self.children:
            child.add_callback(self._child_fired)

    def _child_fired(self, child: Waitable) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _detach_pending(self) -> None:
        """Unregister from children that have not fired yet.

        Without this a triggered composite would linger in its losing
        children's callback lists for their whole lifetime — the retry
        loops in the on-demand conduit create an ``AnyOf`` per attempt
        over the *same* long-lived event, so the leak is unbounded.
        """
        cb = self._child_fired
        for child in self.children:
            if child._triggered:
                continue
            cbs = child.callbacks
            if cbs.__class__ is list:
                try:
                    cbs.remove(cb)
                except ValueError:
                    pass
            elif cbs == cb:  # bound methods compare by (self, func)
                child.callbacks = None


class AnyOf(_Composite):
    """Triggers when the *first* child triggers; value is ``(child, value)``."""

    __slots__ = ()

    def _child_fired(self, child: Waitable) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self._trigger(exc=child.exception)
        else:
            self._trigger(value=(child, child._value))
        self._detach_pending()


class AllOf(_Composite):
    """Triggers when *all* children have; value is the list of child values."""

    __slots__ = ()

    def _child_fired(self, child: Waitable) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self._trigger(exc=child.exception)
            self._detach_pending()
            return
        self._pending -= 1
        if self._pending == 0:
            self._trigger(value=[c._value for c in self.children])


class Simulator:
    """The event loop: a clock, a timed-event scheduler of
    ``(time, seq, fn, arg)`` entries and a FIFO microtask queue of
    ``(seq, fn, arg)`` zero-delay entries.

    ``scheduler`` selects the timed-event backend: ``"calendar"`` (the
    default :class:`~repro.sim.calendar.CalendarQueue`) or ``"heap"``
    (the original single binary heap).  Both dispatch in exactly the
    same ``(time, seq)`` order; the knob exists for A/B byte-identity
    tests and as an escape hatch.
    """

    def __init__(self, scheduler: str = "calendar",
                 calendar_width_us: float = 512.0,
                 calendar_horizon_days: int = 4096) -> None:
        self.now: float = 0.0
        if scheduler == "calendar":
            self._sched = CalendarQueue(
                width_us=calendar_width_us,
                horizon_days=calendar_horizon_days,
            )
        elif scheduler == "heap":
            self._sched = HeapQueue()
        else:
            raise ValueError(
                f"unknown scheduler {scheduler!r} (use 'calendar' or 'heap')"
            )
        self.scheduler = scheduler
        #: Direct reference to the scheduler's stable peek list (see
        #: HeapQueue.near): inline ``near[0]`` peeks — and direct
        #: ``heappop`` pops — on the hot paths.
        self._near = self._sched.near
        self._push = self._sched.push
        self._micro: deque = deque()
        self._seq = 0
        #: True while a Wave is dispatching its member batch — the
        #: process trampoline must not inline-resume then, because the
        #: remaining members are not visible in any queue.
        self._wave_active = False
        #: Undispatched wave members beyond the one scheduler entry per
        #: wave (keeps :attr:`pending_events` truthful).
        self._wave_extra = 0
        #: Opt-in profiling hook (see :mod:`repro.sim.profile`).
        self._prof = None

    # -- low-level scheduling ------------------------------------------
    def _schedule_at(self, when: float, fn: Callable, arg: Any = None) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < now={self.now})"
            )
        self._seq += 1
        self._push(when, self._seq, fn, arg)
        if self._prof is not None:
            self._prof._record(fn, False)

    def schedule_callback(self, when: float, fn: Callable,
                          arg: Any = None) -> None:
        """Public timed-callback entry point: run ``fn(arg)`` at ``when``.

        Intended for passive observers (e.g. the telemetry timeline
        sampler) that need a periodic hook without creating a process
        or a waitable.  The entry consumes one sequence number like any
        other event; since seq only breaks *same-time* ties and is
        allocated monotonically, inserting such events never reorders
        the rest of the simulation.
        """
        self._schedule_at(when, fn, arg)

    def schedule_wave(self, when: float, fn: Callable[[Any], None],
                      args: Sequence[Any]) -> None:
        """Schedule ``fn(arg)`` for every ``arg`` at instant ``when``, as
        one aggregate.

        A contiguous block of ``len(args)`` sequence numbers is
        reserved, so dispatch order is byte-identical to ``len(args)``
        separate ``_schedule_at`` calls made back-to-back — at a single
        scheduler entry's cost.  An empty ``args`` schedules nothing
        and consumes no seq numbers, matching a zero-iteration loop.
        """
        n = len(args)
        if n == 0:
            return
        when = float(when)
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < now={self.now})"
            )
        seq0 = self._seq + 1
        self._seq += n
        self._push(when, seq0, Wave(self, fn, args, when, seq0)._dispatch,
                   None)
        self._wave_extra += n - 1
        if self._prof is not None:
            self._prof._record_wave(fn, n)

    def _call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at the current time via the microtask
        queue (no heap traffic, no allocation beyond the entry tuple)."""
        self._seq += 1
        self._micro.append((self._seq, fn, arg))
        if self._prof is not None:
            self._prof._record(fn, True)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the current simulated time, after pending work."""
        self._call_soon(_invoke0, fn)

    def _schedule_callbacks(self, waitable: Waitable) -> None:
        # Double dispatch is impossible: ``_trigger`` (the only caller)
        # raises on a second trigger before reaching here.
        cbs = waitable.callbacks
        if cbs is None:
            # Nobody registered yet — nothing observable would run;
            # late ``add_callback`` calls go through the microtask queue.
            return
        waitable.callbacks = None
        if cbs.__class__ is list:
            self._call_soon(_CallbackBatch(cbs), waitable)
        else:
            # Inline the dominant single-waiter case.
            self._call_soon(cbs, waitable)

    # -- waitable constructors -----------------------------------------
    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        return AnyOf(self, children)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        return AllOf(self, children)

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Advance the clock to — and execute — the next pending event.

        Microtasks and timed events interleave in exact ``(time, seq)``
        order, so draining via ``step`` is indistinguishable from a
        single global heap.  A wave entry counts as one step per
        same-time member batch.
        """
        micro = self._micro
        near = self._near
        if micro:
            # An entry outside ``near`` is in a later calendar day and
            # cannot be due now, so the merge check peeks only ``near``.
            if near:
                top = near[0]
                if top[0] == self.now and top[1] < micro[0][0]:
                    heappop(near)
                    top[2](top[3])
                    return
            entry = micro.popleft()
            entry[1](entry[2])
            return
        if self._sched.head() is None:
            raise SimulationError("no pending events")
        when, _seq, fn, arg = heappop(near)
        self.now = when
        fn(arg)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or ``until`` is reached.

        Returns the final simulated time.  Unhandled process failures
        propagate out of :meth:`run` (see ``repro.sim.process``).
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        micro = self._micro
        near = self._near
        head = self._sched.head
        while True:
            if micro:
                # Merge against same-time timed events by sequence
                # number.  Peeking only ``near`` is exact: anything the
                # calendar holds outside it is in a strictly later day
                # and cannot tie with ``now``.
                if near:
                    top = near[0]
                    if top[0] == self.now and top[1] < micro[0][0]:
                        heappop(near)
                        top[2](top[3])
                        continue
                _seq, fn, arg = micro.popleft()
                fn(arg)
            else:
                if not near and head() is None:
                    break
                if until is not None and near[0][0] > until:
                    self.now = until
                    return self.now
                when, _seq, fn, arg = heappop(near)
                self.now = when
                fn(arg)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Pending work items, counting every undispatched wave member."""
        return len(self._sched) + len(self._micro) + self._wave_extra
