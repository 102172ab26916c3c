"""Calendar-queue scheduler and aggregate-wave edge cases.

Every test here runs the same workload twice — once on the calendar
queue, once on the reference binary heap — and asserts the recorded
dispatch order is **identical**.  The calendar queue is a pure
constant-factor optimisation; any divergence is a bug by definition.

The edges covered are exactly the ones where a bucketed scheduler can
go wrong:

* same-tick interleaving of ``_call_soon`` microtasks and timed events;
* event times landing exactly on bucket (day) boundaries;
* far-future timeouts that live in the overflow heap and must migrate
  back in as the clock approaches;
* same-instant waves against independently scheduled entries;
* a seeded random storm mixing all of the above.
"""

import random

import pytest

from repro.sim import CalendarQueue, HeapQueue, Simulator, spawn

SCHEDULERS = ("heap", "calendar")


def _run_both(build, **sim_kwargs):
    """Run ``build(sim, log)`` under both schedulers; return both logs."""
    logs = {}
    for scheduler in SCHEDULERS:
        sim = Simulator(scheduler=scheduler, **sim_kwargs)
        log = []
        build(sim, log)
        sim.run()
        logs[scheduler] = log
    assert logs["heap"] == logs["calendar"]
    return logs["heap"]


# ----------------------------------------------------------------------
# same-tick ordering: microtasks vs timed events
# ----------------------------------------------------------------------
def test_same_tick_call_soon_vs_scheduled():
    """A microtask and a timed event due at the same instant dispatch
    in seq order, whichever queue they sit in."""

    def build(sim, log):
        def proc(sim, tag):
            yield 1.0
            log.append((sim.now, "timed", tag))
            yield 0.0  # _call_soon continuation at t=1.0
            log.append((sim.now, "micro", tag))

        for tag in ("a", "b", "c"):
            spawn(sim, proc(sim, tag), name=tag)
        # A bare timed event at the same instant as the continuations.
        sim._schedule_at(1.0, lambda _a: log.append((sim.now, "timed", "x")))

    log = _run_both(build)
    assert [e[0] for e in log] == [1.0] * len(log)


def test_zero_delay_storm_interleaves_with_timed():
    def build(sim, log):
        def ticker(sim):
            for i in range(5):
                yield 1.0
                log.append((sim.now, "tick", i))

        def spinner(sim, tag):
            for i in range(10):
                yield 0.5
                log.append((sim.now, tag, i))
                yield 0.0
                log.append((sim.now, tag + "+", i))

        spawn(sim, ticker(sim), name="ticker")
        spawn(sim, spinner(sim, "s1"), name="s1")
        spawn(sim, spinner(sim, "s2"), name="s2")

    _run_both(build)


# ----------------------------------------------------------------------
# bucket boundaries
# ----------------------------------------------------------------------
def test_bucket_boundary_times():
    """Times exactly on, just below, and just above day boundaries.

    width_us=8 makes day boundaries land at 8, 16, 24... — the test
    schedules pairs straddling each boundary plus events exactly on it.
    """

    def build(sim, log):
        times = [7.999, 8.0, 8.001, 15.999, 16.0, 16.001, 24.0, 24.0,
                 31.999, 32.0]
        for i, t in enumerate(times):
            sim._schedule_at(t, lambda _a, i=i, t=t: log.append((t, i)))

    log = _run_both(build, calendar_width_us=8.0)
    assert log == sorted(log)
    assert len(log) == 10


def test_boundary_insert_into_current_day():
    """An insert landing in the *current* day (or earlier, from float
    rounding at a boundary) goes straight into the near heap and still
    dispatches in (time, seq) order."""

    def build(sim, log):
        def proc(sim):
            yield 8.0  # advance to a day boundary (width 8)
            log.append((sim.now, "arrived"))
            # Schedule at now and at now + sub-day offsets: all within
            # the day being drained.
            sim._schedule_at(sim.now, lambda _a: log.append((sim.now, "now")))
            sim._schedule_at(sim.now + 0.5,
                             lambda _a: log.append((sim.now, "half")))
            yield 1.0
            log.append((sim.now, "after"))

        spawn(sim, proc(sim), name="p")

    log = _run_both(build, calendar_width_us=8.0)
    assert [e[1] for e in log] == ["arrived", "now", "half", "after"]


# ----------------------------------------------------------------------
# overflow heap (far-future timeouts)
# ----------------------------------------------------------------------
def test_far_future_timeout_in_overflow():
    """Delays beyond width*horizon go to the overflow heap and must
    migrate back into the calendar as the clock approaches."""

    def build(sim, log):
        def patient(sim):
            yield 10_000.0  # way past the 4*2=8us horizon
            log.append((sim.now, "patient"))

        def busy(sim):
            for i in range(20):
                yield 1.0
                log.append((sim.now, "busy", i))

        spawn(sim, patient(sim), name="patient")
        spawn(sim, busy(sim), name="busy")

    log = _run_both(build, calendar_width_us=2.0, calendar_horizon_days=4)
    assert log[-1] == (10_000.0, "patient")


def test_overflow_only_advance():
    """The calendar can advance with *nothing* in the day buckets —
    straight from one overflow day to the next."""

    def build(sim, log):
        for t in (1e6, 2e6, 2e6 + 0.5, 3e6):
            sim._schedule_at(t, lambda _a, t=t: log.append(t))

    log = _run_both(build, calendar_width_us=1.0, calendar_horizon_days=2)
    assert log == [1e6, 2e6, 2e6 + 0.5, 3e6]


def test_overflow_merges_with_bucket_day():
    """An overflow entry whose day also holds bucketed entries must
    merge into that day's near heap in (time, seq) order."""

    def build(sim, log):
        def proc(sim):
            # First hop lands within the horizon; second is overflow at
            # schedule time but shares its eventual day with near-term
            # events scheduled later.
            yield 3.0
            log.append((sim.now, "hop"))
            sim._schedule_at(100.25, lambda _a: log.append((sim.now, "late")))
            yield 97.0  # due 100.0 — same day as the overflow entry
            log.append((sim.now, "sleeper"))

        spawn(sim, proc(sim), name="p")
        sim._schedule_at(100.5, lambda _a: log.append((sim.now, "edge")))

    log = _run_both(build, calendar_width_us=2.0, calendar_horizon_days=8)
    assert [e[1] for e in log] == ["hop", "sleeper", "late", "edge"]


# ----------------------------------------------------------------------
# waves: batching
# ----------------------------------------------------------------------
def test_uniform_wave_matches_individual_schedules():
    """One N-member wave dispatches byte-identically to N separate
    ``_schedule_at`` calls (same contiguous seq block, same order)."""

    def build_wave(sim, log):
        sim.schedule_wave(5.0, lambda i: log.append((sim.now, i)),
                          list(range(8)))

    def build_loop(sim, log):
        for i in range(8):
            sim._schedule_at(5.0, lambda _a, i=i: log.append((sim.now, i)))

    logs = {}
    for name, build in (("wave", build_wave), ("loop", build_loop)):
        sim = Simulator()
        log = []
        build(sim, log)
        sim.run()
        logs[name] = log
    assert logs["wave"] == logs["loop"]


def test_wave_resumes_after_a_raising_member():
    """A member that raises leaves the rest of the wave armed under
    their reserved keys: they still run ahead of a later-scheduled
    same-instant entry, and pending_events counts them meanwhile."""

    def build(sim, log):
        def member(i):
            log.append((sim.now, i))
            if i == 1:
                raise RuntimeError("member 1")

        sim.schedule_wave(5.0, member, [0, 1, 2, 3])
        sim._schedule_at(5.0, lambda _a: log.append((sim.now, "after")))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.pending_events == 3

    log = _run_both(build)
    assert [e[1] for e in log] == [0, 1, 2, 3, "after"]


def test_wave_pending_events_accounting():
    sim = Simulator()
    sim.schedule_wave(1.0, lambda i: None, list(range(6)))
    assert sim.pending_events == 6
    sim.run()
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# randomized storm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 1234])
def test_randomized_storm_byte_identical(seed):
    """A seeded mess of sleeps, zero-delays, events, far timeouts and
    waves dispatches identically under both schedulers."""

    def build(sim, log):
        rng = random.Random(seed)

        def worker(sim, tag):
            for i in range(rng.randrange(5, 15)):
                roll = rng.random()
                if roll < 0.4:
                    yield rng.choice([0.25, 1.0, 3.0, 7.5, 512.0, 513.0])
                elif roll < 0.6:
                    yield 0.0
                elif roll < 0.8:
                    ev = sim.event()
                    sim._schedule_at(
                        sim.now + rng.choice([0.5, 2.0, 5000.0]),
                        lambda _a, ev=ev: ev.succeed())
                    yield ev
                else:
                    yield float(rng.randrange(1, 4) * 8)  # boundary-ish
                log.append((sim.now, tag, i))

        for w in range(6):
            spawn(sim, worker(sim, f"w{w}"), name=f"w{w}")
        # A couple of waves dropped in at deterministic points.
        sim.schedule_wave(4.0, lambda i: log.append((4.0, "wave0", i)),
                          list(range(4)))
        sim.schedule_wave(16.0, lambda i: log.append((sim.now, "wave1", i)),
                          [0, 1, 2])

    _run_both(build, calendar_width_us=8.0, calendar_horizon_days=16)


# ----------------------------------------------------------------------
# queue-level unit checks (no simulator)
# ----------------------------------------------------------------------
def test_calendar_queue_len_and_order():
    cq = CalendarQueue(width_us=4.0, horizon_days=4)
    hq = HeapQueue()
    entries = [(12.5, 1), (0.5, 2), (100.0, 3), (3.999, 4), (4.0, 5),
               (100.0, 6), (7.5, 7)]
    for when, seq in entries:
        cq.push(when, seq, None, None)
        hq.push(when, seq, None, None)
    assert len(cq) == len(hq) == len(entries)
    popped = []
    while True:
        head = cq.head()
        if head is None:
            break
        assert head == cq.near[0]
        popped.append(cq.pop_head()[:2])
    assert popped == sorted(entries)
    assert len(cq) == 0


def test_calendar_queue_rejects_bad_knobs():
    with pytest.raises(ValueError):
        CalendarQueue(width_us=0.0)
    with pytest.raises(ValueError):
        CalendarQueue(horizon_days=0)


def test_simulator_rejects_unknown_scheduler():
    with pytest.raises(ValueError):
        Simulator(scheduler="fibonacci")

