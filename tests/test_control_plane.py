"""Tests for the §5 control-plane wire protocol."""

import pytest

from repro.core.control import (
    CONTROL_MESSAGE_SIZE,
    CeError,
    CeOp,
    ControlPlane,
    decode,
    encode,
)
from repro.core.coreengine import CoreEngine
from repro.cpu.core import Core
from repro.sim import Simulator


@pytest.fixture
def plane():
    sim = Simulator()
    return ControlPlane(CoreEngine(sim, [Core(sim)]))


class TestWireFormat:
    def test_message_is_eight_bytes(self):
        raw = encode(CeOp.REGISTER_VM, 2, 7)
        assert len(raw) == CONTROL_MESSAGE_SIZE == 8

    def test_roundtrip(self):
        op, arg, data = decode(encode(CeOp.ASSIGN_VM, 3, 42))
        assert (op, arg, data) == (CeOp.ASSIGN_VM, 3, 42)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode(b"short")

    def test_negative_data_roundtrips(self):
        _, _, data = decode(encode(CeOp.OK, 0, -5))
        assert data == -5


class TestControlPlane:
    def test_register_vm_over_the_wire(self, plane):
        response = plane.handle(encode(CeOp.REGISTER_VM, 2, 1))
        op, _arg, vm_id = decode(response)
        assert op == CeOp.OK
        device = plane.engine.vm_device(vm_id)
        assert len(device.queue_sets) == 2

    def test_register_assign_deregister_sequence(self, plane):
        _, _, vm_id = decode(plane.handle(encode(CeOp.REGISTER_VM, 1, 1)))
        _, _, nsm_id = decode(plane.handle(encode(CeOp.REGISTER_NSM, 1, 1)))
        op, _, _ = decode(plane.handle(encode(CeOp.ASSIGN_VM, nsm_id, vm_id)))
        assert op == CeOp.OK
        assert plane.engine.vm_to_nsm[vm_id] == nsm_id
        op, _, _ = decode(plane.handle(encode(CeOp.DEREGISTER, 0, vm_id)))
        assert op == CeOp.OK
        assert vm_id not in plane.engine.vm_to_nsm

    def test_assign_unknown_ids_errors(self, plane):
        response = plane.handle(encode(CeOp.ASSIGN_VM, 99, 98))
        op, _, code = decode(response)
        assert op == CeOp.ERROR
        assert code == CeError.UNKNOWN_ID

    def test_malformed_request_errors(self, plane):
        response = plane.handle(b"garbage!")  # 8 bytes but invalid op
        op, _, code = decode(response)
        assert op == CeOp.ERROR
        assert code == CeError.BAD_REQUEST
        assert plane.errors_returned == 1

    def test_truncated_request_errors(self, plane):
        op, _, code = decode(plane.handle(b"123"))
        assert op == CeOp.ERROR
        assert code == CeError.BAD_REQUEST

    def test_counters(self, plane):
        plane.handle(encode(CeOp.REGISTER_VM, 1, 1))
        plane.handle(b"bad")
        assert plane.requests_handled == 1
        assert plane.errors_returned == 1
