"""The replay harness shared by the chaos, migration and capacity runs.

Each of those workloads is a seeded replay on the same canonical host:
``nsm-a`` (the client's NSM and the fault or migration source),
``nsm-b`` (the standby or migration target) and ``nsm-srv`` serving a
``server`` VM that echoes on :data:`ECHO_PORT`.  :func:`echo_host` builds
it; callers add their own client VMs afterwards.

A run is summarized by :func:`timeline_fingerprint`, a SHA-256 over the
simulated timeline serialized as canonical JSON.  :func:`host_timeline`
gives the sections every host replay hashes (sim clock, the CoreEngine
:data:`SWITCH_COUNTERS`, ServiceLib and GuestLib counters); process-wide
allocator state (NQE pool hits, token values, socket-id counters) is
left out, since it differs between two runs in one process without
moving the timeline.  So the same seed and knobs replay to the same
fingerprint, which ``--verify`` on ``repro chaos``, ``migrate`` and
``capacity`` asserts.  :func:`resource_leaks` is the end-of-run census
of hugepage buffers and NQE-pool balance.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Tuple

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.core.vm import GuestVM
from repro.errors import SocketError

#: The echo server's port on ``nsm-srv``.
ECHO_PORT = 7000

#: The CoreEngine counters a host timeline covers: the key set of a
#: one-core ``stats()``.  Naming them keeps the fingerprint fixed when
#: ``stats()`` gains keys (the per-shard rows, handoff counts).
SWITCH_COUNTERS = (
    "nqes_switched", "batches", "avg_batch", "connections",
    "rate_limited_stalls", "nqes_dropped", "nqes_dropped_backpressure",
    "nqes_failed_fast", "nqes_shed", "heartbeats_sent", "heartbeat_acks",
    "nsms_quarantined", "vms_failed_over", "conns_reset_on_failover",
    "vms_migrated", "conns_migrated", "migration_parked_ops",
    "sched.passes", "sched.stale_wakeups",
)


def timeline_fingerprint(payload) -> str:
    """SHA-256 over ``payload`` as canonical JSON (sorted keys, compact
    separators, ``repr`` for anything JSON cannot encode)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _echo_server(api, vm):
    """Accept loop + per-connection echo children."""

    def echo(conn):
        try:
            while True:
                data = yield from api.recv(conn, 64 * 1024)
                if not data:
                    break
                yield from api.send(conn, data)
        except SocketError:
            pass

    listener = yield from api.socket()
    yield from api.bind(listener, ECHO_PORT)
    yield from api.listen(listener, backlog=128)
    while True:
        conn = yield from api.accept(listener)
        vm.spawn(echo(conn))


def echo_host(sim) -> Tuple[NetKernelHost, GuestVM]:
    """The canonical replay host with its echo server already spawned;
    returns ``(host, server_vm)``."""
    host = NetKernelHost(sim)
    for name in ("nsm-a", "nsm-b", "nsm-srv"):
        host.add_nsm(name, vcpus=1, stack="kernel")
    server_vm = host.add_vm("server", vcpus=1, nsm=host.nsms["nsm-srv"])
    server_vm.spawn(_echo_server(host.socket_api(server_vm), server_vm))
    return host, server_vm


def scrap(api, sock):
    """Best-effort close of a failed socket; always returns None."""
    if sock is not None:
        try:
            yield from api.close(sock)
        except SocketError:
            pass
    return None


def host_timeline(sim, host, guestlib_keys: Iterable[str]) -> dict:
    """The ``sim``, ``ce``, ``nsms`` and ``guestlib`` sections of a host
    replay's timeline; ``guestlib_keys`` names the per-VM GuestLib
    counters to include."""
    ce_stats = host.coreengine.stats()
    guestlibs = {name: vm.guestlib.stats()
                 for name, vm in sorted(host.vms.items())}
    return {
        "sim": {
            "now": round(sim.now, 9),
            "events_processed": sim.events_processed,
            "events_cancelled": sim.events_cancelled,
        },
        "ce": {key: ce_stats[key] for key in SWITCH_COUNTERS},
        "nsms": {name: nsm.servicelib.stats()
                 for name, nsm in sorted(host.nsms.items())},
        "guestlib": {name: {key: stats[key] for key in guestlib_keys}
                     for name, stats in guestlibs.items()},
    }


def resource_leaks(host, pool_before: int) -> List[str]:
    """Live hugepage buffers per VM and the NQE-pool outstanding delta
    since ``pool_before``; empty when the run released everything."""
    leaks = []
    for name, vm in sorted(host.vms.items()):
        region = host.coreengine.vm_device(vm.vm_id).hugepages
        if region.live_buffers or region.allocated:
            leaks.append(
                f"{name}: {region.live_buffers} live hugepage buffer(s), "
                f"{region.allocated} B still allocated")
    pool_delta = NQE_POOL.outstanding - pool_before
    if pool_delta != 0:
        leaks.append(f"NQE pool outstanding delta {pool_delta:+d}")
    return leaks
