"""Unit tests for mailboxes, semaphores, barriers and latches."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Barrier, Latch, Mailbox, Semaphore, Simulator, spawn


class TestMailbox:
    def test_send_then_recv(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            got.append((yield mbox.recv()))

        mbox.send("hello")
        spawn(sim, receiver(sim))
        sim.run()
        assert got == ["hello"]

    def test_recv_blocks_until_send(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            msg = yield mbox.recv()
            got.append((msg, sim.now))

        def sender(sim):
            yield sim.timeout(9.0)
            mbox.send("late")

        spawn(sim, receiver(sim))
        spawn(sim, sender(sim))
        sim.run()
        assert got == [("late", 9.0)]

    def test_fifo_order_preserved(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            for _ in range(4):
                got.append((yield mbox.recv()))

        for i in range(4):
            mbox.send(i)
        spawn(sim, receiver(sim))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_multiple_waiters_woken_in_order(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim, tag):
            msg = yield mbox.recv()
            got.append((tag, msg))

        spawn(sim, receiver(sim, "first"))
        spawn(sim, receiver(sim, "second"))

        def sender(sim):
            yield sim.timeout(1.0)
            mbox.send("m1")
            mbox.send("m2")

        spawn(sim, sender(sim))
        sim.run()
        assert got == [("first", "m1"), ("second", "m2")]

    def test_try_recv(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        assert mbox.try_recv() is None
        mbox.send(7)
        assert len(mbox) == 1
        assert mbox.try_recv() == 7
        assert mbox.try_recv() is None


_MAILBOX_OPS = st.lists(
    st.sampled_from(["send", "recv", "try_recv", "len"]), max_size=60
)


class TestMailboxAgainstTwoDeques:
    """The one-queue Mailbox behaves like the two-deque reference: one
    deque of queued messages, one of waiting receivers."""

    @settings(max_examples=200, deadline=None)
    @given(_MAILBOX_OPS)
    def test_matches_reference_model(self, ops):
        sim = Simulator()
        mbox = Mailbox(sim)
        items, waiters = deque(), deque()  # the reference model
        woken, expected_woken = [], []
        next_msg = 0
        for step, op in enumerate(ops):
            if op == "send":
                mbox.send(next_msg)
                if waiters:
                    expected_woken.append((waiters.popleft(), next_msg))
                else:
                    items.append(next_msg)
                next_msg += 1
            elif op == "recv":
                ev = mbox.recv()
                if items:
                    assert ev.triggered and ev.value == items.popleft()
                else:
                    assert not ev.triggered
                    waiters.append(step)
                    ev.add_callback(
                        lambda e, tag=step: woken.append((tag, e.value))
                    )
            elif op == "try_recv":
                expected = items.popleft() if items else None
                assert mbox.try_recv() == expected
            else:
                assert len(mbox) == len(items)
            sim.run()
            assert woken == expected_woken
            assert len(mbox) == len(items)


class TestSemaphore:
    def test_initial_value_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Semaphore(sim, value=-1)

    def test_mutual_exclusion(self):
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        active = []
        max_active = []

        def worker(sim, wid):
            yield sem.acquire()
            active.append(wid)
            max_active.append(len(active))
            yield sim.timeout(5.0)
            active.remove(wid)
            sem.release()

        for wid in range(4):
            spawn(sim, worker(sim, wid))
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 20.0  # fully serialized

    def test_counting_allows_n_concurrent(self):
        sim = Simulator()
        sem = Semaphore(sim, value=2)

        def worker(sim):
            yield sem.acquire()
            yield sim.timeout(5.0)
            sem.release()

        for _ in range(4):
            spawn(sim, worker(sim))
        sim.run()
        assert sim.now == 10.0  # two waves of two


class TestBarrier:
    def test_parties_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Barrier(sim, parties=0)

    def test_all_released_together(self):
        sim = Simulator()
        bar = Barrier(sim, parties=3)
        release_times = []

        def worker(sim, delay):
            yield sim.timeout(delay)
            gen = yield bar.wait()
            release_times.append((sim.now, gen))

        for delay in [1.0, 5.0, 9.0]:
            spawn(sim, worker(sim, delay))
        sim.run()
        assert [t for t, _ in release_times] == [9.0, 9.0, 9.0]
        assert {g for _, g in release_times} == {0}

    def test_barrier_is_reusable(self):
        sim = Simulator()
        bar = Barrier(sim, parties=2)
        gens = []

        def worker(sim, delay):
            yield sim.timeout(delay)
            gens.append((yield bar.wait()))
            yield sim.timeout(delay)
            gens.append((yield bar.wait()))

        spawn(sim, worker(sim, 1.0))
        spawn(sim, worker(sim, 2.0))
        sim.run()
        assert sorted(gens) == [0, 0, 1, 1]


class TestLatch:
    def test_zero_count_is_open(self):
        sim = Simulator()
        latch = Latch(sim, count=0)
        done = []

        def waiter(sim):
            yield latch.wait()
            done.append(sim.now)

        spawn(sim, waiter(sim))
        sim.run()
        assert done == [0.0]

    def test_count_down_opens(self):
        sim = Simulator()
        latch = Latch(sim, count=3)
        done = []

        def waiter(sim):
            yield latch.wait()
            done.append(sim.now)

        def ticker(sim):
            for _ in range(3):
                yield sim.timeout(2.0)
                latch.count_down()

        spawn(sim, waiter(sim))
        spawn(sim, ticker(sim))
        sim.run()
        assert done == [6.0]

    def test_overdraw_rejected(self):
        sim = Simulator()
        latch = Latch(sim, count=1)
        latch.count_down()
        with pytest.raises(RuntimeError):
            latch.count_down()
