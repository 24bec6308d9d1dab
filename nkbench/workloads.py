"""The benchmark's three workloads, driven through the public API only.

Each workload builds a :class:`repro.NetKernelHost`, boots its VMs and
NSMs, starts applications from ``repro.apps`` (or, for the open-loop
churn, a client written against ``host.socket_api``), runs the simulator
until every op has finished, and then checks its outputs.

Payload bytes are seeded and verified end to end by thin socket-API
wrappers that sit between an application and its VM's socket facade:

* :class:`EchoClientApi` replaces every request with seeded bytes and
  records what comes back;
* :class:`EchoServerApi` turns a fixed-response server into an echo
  server by answering each request with the bytes it just received;
* :class:`StreamSendApi` / :class:`StreamRecvApi` send seeded streams
  tagged with a stream number and hash both ends.

The seed drives payload bytes, start jitter, arrival times and the choice
of active VMs; nothing else about a workload depends on it.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Dict, List, Optional

from repro import Link, NetKernelHost, Network, Simulator
from repro.apps.epoll_server import EpollServer
from repro.apps.iperf import StreamReceiver, StreamSender
from repro.apps.load_gen import LoadGenerator
from repro.core.nqe import NQE_POOL
from repro.errors import SocketError
from repro.units import gbps, usec

#: Input sizes.  ``full`` is what a benchmark run measures; ``tiny`` keeps
#: the self-tests fast.
SIZES = {
    "rpc_keepalive": {
        "full": {"requests": 2000, "clients": 4},
        "tiny": {"requests": 60, "clients": 2},
    },
    "bulk_stream": {
        "full": {"streams": 4, "message": 65536, "send_sec": 0.002},
        "tiny": {"streams": 2, "message": 8192, "send_sec": 0.0002},
    },
    "fleet_churn": {
        "full": {"vms": 2000, "active_pct": 3.0, "conns": 100,
                 "window_sec": 0.01},
        "tiny": {"vms": 40, "active_pct": 10.0, "conns": 6,
                 "window_sec": 0.001},
    },
}

MSG = 64            # request and response size of the RPC workloads
PORT = 80
BOOT_SEC = 0.002    # simulated time for servers to bind before load


class CountingNetwork(Network):
    """A fabric that keeps the access links it creates, so packet and
    drop counts can be read after a run.  Links are built exactly as
    :class:`Network` builds them, so timelines are unchanged."""

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self.uplinks: List[Link] = []
        self.downlinks: List[Link] = []

    def add_endpoint(self, host_id, handler, uplink=None, downlink=None):
        uplink = uplink or Link(self.sim, self.default_rate_bps,
                                self.default_delay_sec, name=f"{host_id}.up")
        downlink = downlink or Link(self.sim, self.default_rate_bps,
                                    self.default_delay_sec,
                                    name=f"{host_id}.down")
        self.uplinks.append(uplink)
        self.downlinks.append(downlink)
        super().add_endpoint(host_id, handler, uplink, downlink)


class _Delegate:
    """Socket-API wrapper base: everything not overridden passes through."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class EchoClientApi(_Delegate):
    """Client side of an echo check: seeded requests, recorded replies.

    ``corrupt`` flips one received byte, which the correctness gate must
    catch (used by the self-tests only).
    """

    def __init__(self, inner, sim, rng: random.Random,
                 jitter_sec: float = 0.0, corrupt: bool = False):
        super().__init__(inner)
        self.sim = sim
        self.rng = rng
        self.jitter_sec = jitter_sec
        self.corrupt = corrupt
        self.sent: Dict[object, bytearray] = {}
        self.received: Dict[object, bytearray] = {}

    def socket(self, vcpu: int = 0, sock_type: str = "stream"):
        if self.jitter_sec:
            yield self.sim.timeout(self.rng.uniform(0.0, self.jitter_sec))
        sock = yield from self.inner.socket(vcpu, sock_type)
        self.sent[sock] = bytearray()
        self.received[sock] = bytearray()
        return sock

    def send(self, sock, data, vcpu: int = 0):
        payload = self.rng.randbytes(len(data))
        self.sent[sock] += payload
        return (yield from self.inner.send(sock, payload, vcpu))

    def recv(self, sock, max_bytes: int, vcpu: int = 0):
        data = yield from self.inner.recv(sock, max_bytes, vcpu)
        if self.corrupt and data:
            self.corrupt = False
            data = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
        self.received[sock] += data
        return data

    def mismatches(self) -> int:
        """Sockets whose replies differ from their requests."""
        return sum(self.received[s] != self.sent[s] for s in self.sent)

    def digest_into(self, digest) -> None:
        """Feed every received byte, socket by socket, into ``digest``."""
        for data in self.received.values():
            digest.update(data)


class EchoServerApi(_Delegate):
    """Server side: each response carries the request bytes it answers."""

    def __init__(self, inner):
        super().__init__(inner)
        self.pending: Dict[object, bytearray] = {}
        self.listeners: list = []
        self.short_echoes = 0

    def listen(self, sock, backlog: int = 128, vcpu: int = 0):
        self.listeners.append(sock)
        return (yield from self.inner.listen(sock, backlog, vcpu))

    def recv_nonblocking(self, sock, max_bytes: int):
        data = yield from self.inner.recv_nonblocking(sock, max_bytes)
        self.pending.setdefault(sock, bytearray()).extend(data)
        return data

    def send(self, sock, data, vcpu: int = 0):
        pending = self.pending.setdefault(sock, bytearray())
        echo = bytes(pending[:len(data)])
        del pending[:len(data)]
        if len(echo) < len(data):
            self.short_echoes += 1
            echo += bytes(len(data) - len(echo))
        return (yield from self.inner.send(sock, echo, vcpu))


class StreamSendApi(_Delegate):
    """Sender side of a stream check: seeded messages, the first four
    bytes of each stream carry its stream number."""

    def __init__(self, inner, sim, rng: random.Random):
        super().__init__(inner)
        self.sim = sim
        self.rng = rng
        self.stream_of: Dict[object, int] = {}
        self.digests: List = []     # per stream: hashlib object
        self.lengths: List[int] = []
        self.issued: List[List] = []  # per stream: [(end_offset, t_issue)]

    def socket(self, vcpu: int = 0, sock_type: str = "stream"):
        sock = yield from self.inner.socket(vcpu, sock_type)
        self.stream_of[sock] = len(self.digests)
        self.digests.append(hashlib.sha256())
        self.lengths.append(0)
        self.issued.append([])
        return sock

    def send(self, sock, data, vcpu: int = 0):
        stream = self.stream_of[sock]
        payload = self.rng.randbytes(len(data))
        if self.lengths[stream] == 0:
            payload = struct.pack("<I", stream) + payload[4:]
        self.digests[stream].update(payload)
        self.lengths[stream] += len(payload)
        self.issued[stream].append((self.lengths[stream], self.sim.now))
        return (yield from self.inner.send(sock, payload, vcpu))


class StreamRecvApi(_Delegate):
    """Receiver side: hashes each stream and times every message from
    its send call to the arrival of its last byte."""

    def __init__(self, inner, sim, sender: StreamSendApi,
                 corrupt: bool = False):
        super().__init__(inner)
        self.sim = sim
        self.sender = sender
        self.corrupt = corrupt
        self.listeners: list = []
        self.streams: Dict[object, dict] = {}
        self.latencies: List[float] = []

    def listen(self, sock, backlog: int = 128, vcpu: int = 0):
        self.listeners.append(sock)
        return (yield from self.inner.listen(sock, backlog, vcpu))

    def recv(self, sock, max_bytes: int, vcpu: int = 0):
        data = yield from self.inner.recv(sock, max_bytes, vcpu)
        if self.corrupt and data:
            self.corrupt = False
            data = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
        state = self.streams.setdefault(
            sock, {"head": bytearray(), "id": None, "bytes": 0,
                   "digest": hashlib.sha256(), "next": 0, "eof": False})
        if not data:
            state["eof"] = True
            return data
        state["digest"].update(data)
        state["bytes"] += len(data)
        if state["id"] is None:
            state["head"] += data[:4 - len(state["head"])]
            if len(state["head"]) == 4:
                state["id"] = struct.unpack("<I", state["head"])[0]
        issued = (self.sender.issued[state["id"]]
                  if state["id"] is not None
                  and state["id"] < len(self.sender.issued) else ())
        now = self.sim.now
        index = state["next"]
        while index < len(issued) and issued[index][0] <= state["bytes"]:
            self.latencies.append(now - issued[index][1])
            index += 1
        state["next"] = index
        return data

    def mismatches(self) -> int:
        """Sender streams not received intact (bytes, digest, EOF)."""
        got = {s["id"]: s for s in self.streams.values()}
        bad = 0
        for stream, digest in enumerate(self.sender.digests):
            state = got.get(stream)
            if (state is None or not state["eof"]
                    or state["bytes"] != self.sender.lengths[stream]
                    or state["digest"].digest() != digest.digest()):
                bad += 1
        return bad + max(0, len(got) - len(self.sender.digests))


class Workload:
    """Common frame: build in :meth:`setup`, run in :meth:`run`, then
    :meth:`finish` closes listeners, drains and checks the outputs."""

    name = ""

    def __init__(self, seed: int, size: str = "full",
                 corrupt: bool = False):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.corrupt = corrupt
        self.sim = Simulator()
        self.network = CountingNetwork(self.sim, default_rate_bps=gbps(100),
                                       default_delay_sec=usec(25))
        self.host: Optional[NetKernelHost] = None
        self.listener_apis: list = []
        self.run_started_at = 0.0
        self.latencies: List[float] = []
        self.attempted = self.completed = self.failed = 0
        self.goodput_bytes = 0
        self.ops_end_at = 0.0
        self.extra: Dict[str, object] = {}

    def make_host(self, observe: bool, **kwargs) -> NetKernelHost:
        self.host = NetKernelHost(self.sim, self.network, **kwargs)
        if observe:
            self.host.enable_observability()
        return self.host

    def setup(self, observe: bool = False) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def mismatches(self) -> int:
        raise NotImplementedError

    def output_digest(self) -> str:
        """Hash of the bytes the receiving applications got."""
        raise NotImplementedError

    def vm_regions(self):
        engine = self.host.coreengine
        return [engine.vm_device(vm.vm_id).hugepages
                for vm in self.host.vms.values()]

    def finish(self) -> List[str]:
        """Close every listener, let the host quiesce, and return the
        correctness breaches (empty when the run is correct)."""
        for api, vm in self.listener_apis:
            for listener in api.listeners:
                vm.spawn(self._close(api, listener))
        self.sim.run()
        breaches = []
        mismatches = self.mismatches()
        if mismatches:
            breaches.append(f"{mismatches} payload mismatches")
        if self.attempted != self.completed + self.failed:
            breaches.append(f"attempted {self.attempted} != completed "
                            f"{self.completed} + failed {self.failed}")
        if self.failed:
            breaches.append(f"{self.failed} failed ops")
        if self.completed == 0:
            breaches.append("no op completed")
        leaked = sum(region.allocated for region in self.vm_regions())
        if leaked:
            breaches.append(f"{leaked} hugepage bytes still allocated")
        if NQE_POOL.outstanding:
            breaches.append(f"{NQE_POOL.outstanding} NQEs not released")
        connections = self.host.coreengine.stats()["connections"]
        if connections:
            breaches.append(f"{connections} CE connections left open")
        return breaches

    @staticmethod
    def _close(api, sock):
        try:
            yield from api.close(sock)
        except SocketError:
            pass


class RpcKeepalive(Workload):
    """Closed-loop keep-alive RPC on one NSM: 64 B echo requests."""

    name = "rpc_keepalive"

    def setup(self, observe: bool = False) -> None:
        host = self.make_host(observe)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        server_vm = host.add_vm("server", vcpus=1, nsm=nsm)
        client_vm = host.add_vm("client", vcpus=1, nsm=nsm)
        server_api = EchoServerApi(host.socket_api(server_vm))
        self.client_api = EchoClientApi(host.socket_api(client_vm), self.sim,
                                        self.rng, jitter_sec=usec(20),
                                        corrupt=self.corrupt)
        self.server = EpollServer(self.sim, server_api, port=PORT,
                                  request_size=MSG, response_size=MSG,
                                  keepalive=True)
        self.server.start(server_vm)
        self.listener_apis.append((server_api, server_vm))
        self.load = LoadGenerator(self.sim, self.client_api, ("nsm0", PORT),
                                  total_requests=self.params["requests"],
                                  concurrency=self.params["clients"],
                                  request_size=MSG, response_size=MSG,
                                  keepalive=True)
        self.client_vm = client_vm
        self.sim.run(until=BOOT_SEC)

    def run(self) -> None:
        self.run_started_at = self.sim.now
        self.load.start(self.client_vm)
        self.sim.run()
        stats = self.load.stats
        self.attempted = self.params["requests"]
        self.completed = stats.completed
        self.failed = stats.errors
        self.latencies = stats.latencies
        self.goodput_bytes = stats.bytes_received
        self.ops_end_at = stats.finished_at

    def mismatches(self) -> int:
        return (self.client_api.mismatches()
                + self.listener_apis[0][0].short_echoes)

    def output_digest(self) -> str:
        digest = hashlib.sha256()
        self.client_api.digest_into(digest)
        return digest.hexdigest()


class BulkStream(Workload):
    """Bulk streams between two kernel NSMs across the simulated fabric."""

    name = "bulk_stream"

    def setup(self, observe: bool = False) -> None:
        host = self.make_host(observe)
        nsm_tx = host.add_nsm("nsm-tx", vcpus=1, stack="kernel")
        nsm_rx = host.add_nsm("nsm-rx", vcpus=1, stack="kernel")
        tx_vm = host.add_vm("sender", vcpus=1, nsm=nsm_tx)
        rx_vm = host.add_vm("receiver", vcpus=1, nsm=nsm_rx)
        self.send_api = StreamSendApi(host.socket_api(tx_vm), self.sim,
                                      self.rng)
        self.recv_api = StreamRecvApi(host.socket_api(rx_vm), self.sim,
                                      self.send_api, corrupt=self.corrupt)
        self.receiver = StreamReceiver(self.sim, self.recv_api, port=PORT,
                                       read_size=self.params["message"])
        self.receiver.start(rx_vm)
        self.listener_apis.append((self.recv_api, rx_vm))
        self.sender = StreamSender(self.sim, self.send_api, ("nsm-rx", PORT),
                                   message_size=self.params["message"],
                                   duration=self.params["send_sec"],
                                   streams=self.params["streams"])
        self.tx_vm = tx_vm
        self.sim.run(until=BOOT_SEC)

    def run(self) -> None:
        self.run_started_at = self.sim.now
        self.sender.start(self.tx_vm)
        self.sim.run()
        self.attempted = self.sender.stats.messages
        self.latencies = self.recv_api.latencies
        self.completed = len(self.latencies)
        self.failed = (self.attempted - self.completed
                       + self.sender.stats.errors
                       + self.receiver.stats.errors)
        self.goodput_bytes = self.receiver.stats.bytes
        self.ops_end_at = self.receiver.stats.finished_at or self.sim.now

    def mismatches(self) -> int:
        return self.recv_api.mismatches()

    def output_digest(self) -> str:
        digest = hashlib.sha256()
        for state in sorted(self.recv_api.streams.values(),
                            key=lambda state: state["id"]):
            digest.update(state["digest"].digest())
        return digest.hexdigest()


class FleetChurn(Workload):
    """Open-loop short connections from a few percent of a large,
    sharded VM fleet (one NSM and one echo server per shard)."""

    name = "fleet_churn"
    SHARDS = 4

    def setup(self, observe: bool = False) -> None:
        params = self.params
        host = self.make_host(observe, ce_shards=self.SHARDS)
        self.server_apis = []
        for shard in range(self.SHARDS):
            nsm = host.add_nsm(f"nsm{shard}", vcpus=1, stack="kernel",
                               shard=shard)
            vm = host.add_vm(f"server{shard}", vcpus=1, nsm=nsm,
                             shard=shard)
            api = EchoServerApi(host.socket_api(vm))
            EpollServer(self.sim, api, port=PORT, request_size=MSG,
                        response_size=MSG, keepalive=False).start(vm)
            self.listener_apis.append((api, vm))
        nsm_name = {nsm.nsm_id: name for name, nsm in host.nsms.items()}
        fleet = [host.add_vm(f"vm{i}", vcpus=1)
                 for i in range(params["vms"])]
        active = max(1, round(len(fleet) * params["active_pct"] / 100))
        chosen = sorted(self.rng.sample(range(len(fleet)), active))
        # Arrivals: a Poisson process conditioned on its count, i.e.
        # uniform due times over the window, each to a random active VM.
        dues: Dict[int, List[float]] = {index: [] for index in chosen}
        for _ in range(params["conns"]):
            due = BOOT_SEC + self.rng.uniform(0.0, params["window_sec"])
            dues[self.rng.choice(chosen)].append(due)
        self.clients = []
        for index in chosen:
            vm = fleet[index]
            api = EchoClientApi(host.socket_api(vm), self.sim, self.rng,
                                corrupt=self.corrupt and not self.clients)
            remote = (nsm_name[host.coreengine.vm_to_nsm[vm.vm_id]], PORT)
            self.clients.append((vm, api, remote, sorted(dues[index])))
        self.lateness: List[float] = []
        self.sim.run(until=BOOT_SEC)

    def run(self) -> None:
        self.run_started_at = self.sim.now
        self.first_due = min((d[0] for *_, d in self.clients if d),
                             default=self.sim.now)
        for vm, api, remote, dues in self.clients:
            vm.spawn(self._client(api, remote, dues))
        self.sim.run()
        self.attempted = self.params["conns"]
        self.completed = len(self.latencies)
        self.extra["lateness_us"] = sorted(x * 1e6 for x in self.lateness)

    def _client(self, api, remote, dues):
        sim = self.sim
        for due in dues:
            if sim.now < due:
                yield sim.timeout(due - sim.now)
            self.lateness.append(sim.now - due)
            got = 0
            try:
                sock = yield from api.socket()
                yield from api.connect(sock, remote)
                yield from api.send(sock, bytes(MSG))
                while got < MSG:
                    data = yield from api.recv(sock, MSG - got)
                    if not data:
                        break
                    got += len(data)
                yield from api.close(sock)
            except SocketError:
                got = -1
            if got == MSG:
                self.latencies.append(sim.now - due)
                self.goodput_bytes += got
                self.ops_end_at = max(self.ops_end_at, sim.now)
            else:
                self.failed += 1

    def mismatches(self) -> int:
        return (sum(api.mismatches() for _, api, _, _ in self.clients)
                + sum(api.short_echoes for api, _ in self.listener_apis))

    def output_digest(self) -> str:
        digest = hashlib.sha256()
        for _, api, _, _ in self.clients:
            api.digest_into(digest)
        return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (RpcKeepalive, BulkStream, FleetChurn)}
