"""Shared fixtures: a counter rewind for golden timelines, the
full-scan scheduler oracle, and the scalar datapath reference."""

import itertools
from contextlib import contextmanager

import pytest

from repro.core.coreengine import _SwitchLoop
from tests.reference_models import ReceiveBufferModel, SendBufferModel


def rewind() -> None:
    """Rewind the process-wide id counters (socket ids, NQE tokens,
    packet ids, ...) and drain the NQE pool, so a run starts from the
    same state whatever ran before it in this process.  Socket ids feed
    ``hash(vm_tuple)`` (the NSM queue-set choice), so without this a
    golden digest would depend on test order."""
    from repro.core import guestlib, nqe, servicelib
    from repro.net import packet
    from repro.stack import udp
    from repro.stack.tcp import engine as tcp_engine

    nqe._tokens = itertools.count(1)
    nqe.NQE_POOL._free.clear()
    guestlib.NetKernelSocket._ids = itertools.count(1)
    servicelib._SocketContext._ids = itertools.count(1)
    packet._packet_ids = itertools.count(1)
    tcp_engine._conn_ids = itertools.count(1)
    udp.UdpSocket._ids = itertools.count(1)


@pytest.fixture
def rewind_counters():
    """:func:`rewind` before the test."""
    rewind()


def full_scan_loop(self):
    """The scheduler oracle: rescan every device homed on the loop on
    every pass.  CoreEngine's ready-set loop must produce exactly this
    loop's simulated timeline; it only skips the devices with nothing to
    do."""
    while self._running:
        self._kicked = False
        self._pass_counter += 1
        if self._inbox:
            yield from self._drain_inbox()
        progressed = False
        stall = None
        for registry in (self._vms, self._nsms):
            for reg in list(registry.values()):
                if not reg.parked and not reg.device.produce_pending():
                    continue
                result = yield from self._service_device(reg)
                if result is True:
                    progressed = True
                elif isinstance(result, float):
                    stall = result if stall is None else min(stall, result)
        if progressed or self._kicked:
            continue
        yield from self._idle_sleep(stall)


@pytest.fixture
def full_scan(monkeypatch):
    """A context manager: engines built inside it switch with
    :func:`full_scan_loop` instead of the ready-set loop."""

    @contextmanager
    def installed():
        with monkeypatch.context() as patch:
            patch.setattr(_SwitchLoop, "_run_ready", full_scan_loop)
            yield

    return installed


@pytest.fixture
def scalar_datapath(monkeypatch):
    """A context manager: inside it, TCP connections use the bytearray
    reference buffers instead of the slab and chunk buffers, and the
    switch delivers every NQE through the generator slow path
    ``_deliver`` instead of the synchronous ``_deliver_fast``.  The
    simulated timeline must not change."""

    @contextmanager
    def installed():
        with monkeypatch.context() as patch:
            patch.setattr("repro.stack.tcp.engine.SendBuffer",
                          SendBufferModel)
            patch.setattr("repro.stack.tcp.engine.ReceiveBuffer",
                          ReceiveBufferModel)
            patch.setattr(_SwitchLoop, "_deliver_fast",
                          lambda self, ring, nqe, device: False)
            yield

    return installed
