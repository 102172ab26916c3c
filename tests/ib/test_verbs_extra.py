"""Additional verbs-facade coverage: teardown, dereg, bulk destroy."""

import pytest

from repro.errors import MemoryRegistrationError, QPStateError
from repro.ib import QPState
from repro.sim import spawn

from ..conftest import build_rig


class TestTeardown:
    def test_destroy_qp_charges_time_and_unregisters(self, rig2):
        ctx = rig2.ctxs[0]
        marks = {}

        def proc(sim):
            s, r = ctx.create_cq(), ctx.create_cq()
            qp = yield from ctx.create_rc_qp(s, r)
            qpn = qp.qpn
            t0 = sim.now
            yield from ctx.destroy_qp(qp)
            marks["dt"] = sim.now - t0
            marks["gone"] = qpn not in ctx.hca._qps
            marks["state"] = qp.state

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(rig2.cluster.cost.qp_destroy_us)
        assert marks["gone"]
        assert marks["state"] is QPState.ERROR

    def test_bulk_destroy_charge(self, rig2):
        ctx = rig2.ctxs[0]
        marks = {}

        def proc(sim):
            t0 = sim.now
            yield from ctx.bulk_charge_qp_destroy(100)
            marks["dt"] = sim.now - t0

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(
            100 * rig2.cluster.cost.qp_destroy_us
        )

    def test_send_to_destroyed_qp_is_naked(self, rig2):
        """An RC *request* aimed at a destroyed QP is NAKed back to the
        requester (surfacing as an error completion), as real HCAs do —
        never silently swallowed, which would hang the sender."""
        ctx0, ctx1 = rig2.ctxs
        out = {}

        def proc(sim):
            s0, r0 = ctx0.create_cq(), ctx0.create_cq()
            s1, r1 = ctx1.create_cq(), ctx1.create_cq()
            qa = yield from ctx0.create_rc_qp(s0, r0)
            qb = yield from ctx1.create_rc_qp(s1, r1)
            yield from ctx0.connect_rc_qp(qa, qb.address)
            yield from ctx1.connect_rc_qp(qb, qa.address)
            qb.destroy()
            qa.post_send(b"into the void", 13)
            out["ok"] = True

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["ok"]
        assert rig2.counters["hca.nak_dead_qp"] >= 1
        assert rig2.counters["hca.dropped_no_qp"] == 0


class TestMemoryLifecycle:
    def test_dereg_makes_region_unreachable(self, rig2):
        ctx = rig2.ctxs[0]
        out = {}

        def proc(sim):
            addr = ctx.mm.alloc(128)
            region = yield from ctx.reg_mr(addr)
            assert ctx.registered_bytes == 128
            yield from ctx.dereg_mr(region)
            out["bytes"] = ctx.registered_bytes
            with pytest.raises(Exception):
                ctx.hca.memory_target(region.rkey)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["bytes"] == 0

    def test_model_bytes_drives_cost_not_buffer(self, rig2):
        ctx = rig2.ctxs[0]
        cost = rig2.cluster.cost
        marks = {}

        def proc(sim):
            addr = ctx.mm.alloc(4096)
            t0 = sim.now
            yield from ctx.reg_mr(addr, model_bytes=256 * 1024 * 1024)
            marks["dt"] = sim.now - t0

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert marks["dt"] == pytest.approx(cost.mr_register_us(256 * 1024 * 1024))
        assert ctx.registered_bytes == 256 * 1024 * 1024

    def test_dereg_returns_model_bytes(self, rig2):
        """dereg_mr gives back what reg_mr charged, not the backing size."""
        ctx = rig2.ctxs[0]
        out = {}

        def proc(sim):
            region = yield from ctx.reg_mr(
                ctx.mm.alloc(4096), model_bytes=256 * 1024 * 1024
            )
            yield from ctx.dereg_mr(region)
            out["bytes"] = ctx.registered_bytes

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out["bytes"] == 0

    def test_reg_mr_needs_allocation_base(self, rig2):
        """A non-base address fails before any pinning time is charged,
        and the lookup leaves the backing unmaterialised."""
        ctx = rig2.ctxs[0]
        out = {}

        def proc(sim):
            addr = ctx.mm.alloc(4096)
            for model_bytes in (None, 1 << 20):
                with pytest.raises(MemoryRegistrationError):
                    yield from ctx.reg_mr(addr + 64, model_bytes=model_bytes)
            out["now"] = sim.now
            out["unmaterialised"] = ctx.mm._buffers[addr] == 4096

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
        assert out == {"now": 0.0, "unmaterialised": True}


class TestBulkValidation:
    def test_negative_bulk_rejected(self, rig2):
        ctx = rig2.ctxs[0]

        def proc(sim):
            with pytest.raises(ValueError):
                yield from ctx.bulk_charge_rc_qps(-1)

        spawn(rig2.sim, proc(rig2.sim))
        rig2.sim.run()
