"""Memory follows occupancy: idle VMs and short connections cost little.

The paper packs many bursty, mostly idle VMs onto one CoreEngine and
NSM, which only pays off if an idle VM or a short connection is cheap.
Rings store only what is queued and TCP send slabs appear on first
write, so both bounds below hold however large the logical capacities.
"""

import tracemalloc

from repro.core.host import NetKernelHost
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec

#: Traced-memory budget per idle VM (its device, queue sets and rings).
BOOT_BYTES_PER_VM = 32 * 1024
#: Send-slab budget for one 64 B echo connection, listener included.
ECHO_SLAB_BYTES = 16 * 1024


def _host():
    sim = Simulator()
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    return sim, NetKernelHost(sim, network)


def test_idle_vm_boot_memory_per_vm():
    n_vms = 1000
    _, host = _host()
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vms = [host.add_vm(f"vm{i}", vcpus=1, nsm=nsm)
               for i in range(n_vms)]
        per_vm = (tracemalloc.get_traced_memory()[0] - before) / n_vms
    finally:
        if not already:
            tracemalloc.stop()
    assert len(vms) == n_vms
    assert per_vm < BOOT_BYTES_PER_VM, f"{per_vm:.0f} B per idle VM"


def test_echo_connection_send_slabs():
    sim, host = _host()
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    vm_server = host.add_vm("server", vcpus=1, nsm=nsm)
    vm_client = host.add_vm("client", vcpus=1, nsm=nsm)
    api_server = host.socket_api(vm_server)
    api_client = host.socket_api(vm_client)
    engine = nsm.stack.engine
    request = bytes(range(64))
    seen = {}

    def server():
        listener = yield from api_server.socket()
        yield from api_server.bind(listener, 80)
        yield from api_server.listen(listener, 16)
        conn = yield from api_server.accept(listener)
        data = yield from api_server.recv(conn, 64)
        yield from api_server.send(conn, data)
        # Hold both server endpoints open until the client hangs up.
        seen["eof"] = yield from api_server.recv(conn, 64)
        yield from api_server.close(conn)
        yield from api_server.close(listener)

    def client():
        yield sim.timeout(0.001)
        sock = yield from api_client.socket()
        yield from api_client.connect(sock, (nsm.name, 80))
        yield from api_client.send(sock, request)
        seen["reply"] = yield from api_client.recv(sock, 64)
        # Every endpoint of the echo is still open here: the client, the
        # server's accepted child and the listener.
        endpoints = engine.connections() + list(engine._listeners.values())
        seen["endpoints"] = len(endpoints)
        seen["slab_bytes"] = sum(len(c.send_buf._slab) for c in endpoints)
        yield from api_client.close(sock)

    vm_server.spawn(server())
    vm_client.spawn(client())
    sim.run(until=1.0)
    assert seen["reply"] == request and seen["eof"] == b""
    assert seen["endpoints"] == 3
    assert 0 < seen["slab_bytes"] <= ECHO_SLAB_BYTES
