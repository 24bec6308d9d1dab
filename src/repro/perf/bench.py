"""Pinned-seed wall-clock microbenchmarks.

Each benchmark is a callable ``fn(quick: bool) -> dict`` returning at
least ``{"wall_s", "events", "peak_rss"}`` (``peak_rss`` in KiB, from
``getrusage``), plus a ``fingerprint`` of the simulated timeline where
one exists.  The sharded fig. 8 benches also run the same workload on
one shard as a reference and report whether every shard reproduced it
bit for bit (``fingerprint_match``).

Workload sizes are fixed constants (no RNG, no clock inputs), so the
simulated side of every result is reproducible bit-for-bit.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from collections import deque
from typing import Dict, List, Optional

from repro.core.coreengine import CoreEngine
from repro.core.nqe import NQE_POOL, NqeOp
from repro.cpu.core import Core
from repro.cpu.cost_model import DEFAULT_COST_MODEL
from repro.sim import Simulator


def _measure(fn):
    """(wall seconds, peak RSS KiB, fn result) with a clean GC start."""
    gc.collect()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return wall, peak, result


# -- raw simulator event throughput ------------------------------------------


def _events_workload(n_procs: int, events_each: int) -> int:
    sim = Simulator()

    def ticker():
        for _ in range(events_each):
            yield sim.timeout(1e-6)

    for _ in range(n_procs):
        sim.process(ticker())
    sim.run()
    return sim.events_processed


def bench_events(quick: bool) -> dict:
    """Raw event-loop throughput: timer wheels only, no datapath."""
    n_procs, events_each = (50, 400) if quick else (200, 2500)
    wall, peak, events = _measure(
        lambda: _events_workload(n_procs, events_each))
    return {"wall_s": wall, "events": events, "peak_rss": peak,
            "events_per_sec": events / wall if wall else 0.0}


# -- CoreEngine NQE switching ------------------------------------------------


def _mux_workload(n_vms: int, active_vms: int,
                  nqes_per_active: int, burst: int = 1,
                  period: float = 20e-6, ring_slots: int = 256,
                  seed_conns: bool = False, n_shards: int = 1) -> dict:
    """Fig. 8-style multiplexing on raw NK devices, over ``n_shards``
    switching cores.

    Each shard gets one NSM plus ``n_vms`` VMs pinned to the same shard
    and assigned to that NSM; ``active_vms`` of them produce control
    NQEs (``burst`` per doorbell, paced ``period`` apart, staggered by
    their within-shard index so wake-ups usually find one dirty device).
    A raw ring consumer on each NSM device echoes every request as an
    OP_RESULT; per-VM drainers recycle the responses.  The partition is
    traffic-closed, so no NQE crosses shards and every shard's counters
    must be bit-identical to a one-shard run of the same size.

    ``seed_conns`` exercises the connection-plane control path at boot:
    every VM is placed with ``assign_vm_auto`` (shard-aware — the result
    must be the VM's home-shard NSM, counted in ``cohomed``) and gets one
    established connection-table entry.  With the indexed table that is
    O(VMs) total; a table that regresses to full scans makes it O(VMs x
    connections) and blows the bench's wall-time floor.

    Returns the timeline's totals plus each shard's
    :data:`_SHARD_FP_KEYS` fingerprint under ``per_shard``.
    """
    sim = Simulator()
    cores = [Core(sim, name=f"bench.ce{i}", hz=DEFAULT_COST_MODEL.core_hz)
             for i in range(n_shards)]
    # Small rings keep device setup cheap (4096-slot rings would make
    # allocation, not scheduling, dominate the 1000-VM bench).
    engine = CoreEngine(sim, cores, batch_size=8, ring_slots=ring_slots)
    received = [0] * n_shards

    def responder(shard, nsm_dev):
        owner = object()
        qs = nsm_dev.queue_sets[0]
        job_ring, send_ring = nsm_dev.consume_rings(qs)
        completion_ring, _ = nsm_dev.produce_rings(qs)
        backlog = deque()
        scratch: list = []
        while True:
            # Always consume requests (so CE's VM→NSM deliveries never
            # stall on a full job ring) and queue responses locally,
            # draining them whenever the completion ring has room —
            # needed once the active-VM count approaches the ring size.
            progressed = False
            if backlog:
                pushed = False
                cap = completion_ring.capacity
                while backlog and len(completion_ring._items) < cap:
                    completion_ring.try_push(backlog.popleft(), owner=owner)
                    pushed = True
                if pushed:
                    nsm_dev.ring_doorbell()
                    progressed = True
            n = (job_ring.drain_into(scratch, 64, owner=owner)
                 if job_ring._items else 0)
            if send_ring._items:
                n += send_ring.drain_into(scratch, 64, owner=owner, start=n)
            if n:
                progressed = True
                for i in range(n):
                    nqe = scratch[i]
                    scratch[i] = None
                    received[shard] += 1
                    backlog.append(nqe.response(NqeOp.OP_RESULT))
                    NQE_POOL.release(nqe)
            if not progressed:
                if backlog:
                    yield sim.timeout(1e-6)
                else:
                    yield nsm_dev.wait_for_inbound()

    def drainer(vm_dev):
        owner = object()
        qs = vm_dev.queue_sets[0]
        completion_ring, _ = vm_dev.consume_rings(qs)
        scratch: list = []
        while True:
            n = completion_ring.drain_into(scratch, 64, owner=owner)
            if not n:
                yield vm_dev.wait_for_inbound()
                continue
            for i in range(n):
                NQE_POOL.release(scratch[i])
                scratch[i] = None

    def producer(vm_id, vm_dev, index):
        owner = object()
        qs = vm_dev.queue_sets[0]
        control_ring, _ = vm_dev.produce_rings(qs)
        acquire = NQE_POOL.acquire
        yield sim.timeout(1e-6 * (index + 1))  # stagger the phases
        for _ in range(nqes_per_active):
            for _ in range(burst):
                control_ring.push(
                    acquire(NqeOp.SETSOCKOPT, vm_id, 0, 1,
                            created_at=sim._now),
                    owner=owner)
            vm_dev.ring_doorbell()
            yield sim.timeout(period)

    cohomed = 0
    for shard in range(n_shards):
        nsm_id, nsm_dev = engine.register_nsm(
            f"nsm{shard}", queue_sets=1, shard=shard)
        sim.process(responder(shard, nsm_dev))
        vms = []
        for i in range(n_vms):
            vm_id, vm_dev = engine.register_vm(
                f"s{shard}.vm{i}", queue_sets=1, shard=shard)
            if seed_conns:
                assigned = engine.assign_vm_auto(vm_id)
                cohomed += assigned == nsm_id
                # One established connection per VM: VM socket 1 (the
                # same socket id the producers use, so switching hits
                # this entry instead of inserting) mapped to a unique
                # NSM socket id.
                engine.table.insert((vm_id, 0, 1), assigned, 0)
                engine.table.complete((vm_id, 0, 1), nsm_socket_id=vm_id)
            else:
                engine.assign_vm(vm_id, nsm_id)
            vms.append((vm_id, vm_dev))
        for _vm_id, vm_dev in vms:
            sim.process(drainer(vm_dev))
        for index, (vm_id, vm_dev) in enumerate(vms[:active_vms]):
            sim.process(producer(vm_id, vm_dev, index))
    sim.run()

    stats = engine.stats()
    per_shard = []
    for shard, core in enumerate(cores):
        row = stats[f"shard.{shard}"]
        per_shard.append({"nqes_switched": row["nqes_switched"],
                          "batches": row["batches"],
                          "received": received[shard],
                          "ce_busy_cycles": core.busy_cycles})
    return {
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "nqes_switched": stats["nqes_switched"],
        "batches": stats["batches"],
        "received": sum(received),
        "ce_busy_cycles": sum(core.busy_cycles for core in cores),
        "handoffs": stats["handoffs_in"],
        "per_shard": per_shard,
        "cohomed": cohomed,
    }


#: The per-shard fingerprint: every key a shard must reproduce
#: bit-identically to a standalone 1-shard run of the same partition.
_SHARD_FP_KEYS = ("nqes_switched", "batches", "received", "ce_busy_cycles")

#: A one-shard mux run's timeline fingerprint.
_MUX_FP_KEYS = ("sim_now", "events_processed", "events_cancelled"
                ) + _SHARD_FP_KEYS


def bench_nqe_switch(quick: bool) -> dict:
    """CoreEngine switch throughput: bursts of 8 through one hot VM."""
    nqes = 2_000 if quick else 20_000
    wall, peak, out = _measure(
        lambda: _mux_workload(n_vms=1, active_vms=1, nqes_per_active=nqes,
                              burst=8, period=5e-6))
    fp = {key: out[key] for key in _MUX_FP_KEYS}
    return {"wall_s": wall, "events": fp["events_processed"],
            "peak_rss": peak,
            "nqes_switched": fp["nqes_switched"],
            "nqe_switches_per_sec":
                fp["nqes_switched"] / wall if wall else 0.0,
            "fingerprint": fp}


def _bench_fig08(n_vms: int, nqes_quick: int, nqes_full: int):
    def bench(quick: bool) -> dict:
        active = max(1, n_vms // 10)  # 10% duty cycle
        nqes = nqes_quick if quick else nqes_full
        wall, peak, out = _measure(
            lambda: _mux_workload(n_vms, active, nqes))
        fp = {key: out[key] for key in _MUX_FP_KEYS}
        return {"wall_s": wall, "events": fp["events_processed"],
                "peak_rss": peak, "fingerprint": fp}

    return bench


# -- sharded CoreEngine multiplexing (fig. 8 at fleet scale) -----------------


def _bench_fig08_sharded(n_shards: int, vms_quick: int, vms_full: int,
                         nqes_quick: int, nqes_full: int,
                         duty: int = 10, seed_conns: bool = False):
    """Fig. 8 over ``n_shards`` switching cores, one traffic-closed
    partition per core with ``1/duty`` of its VMs active.  The switching
    fingerprint of every shard must stay bit-identical to a standalone
    1-shard run of one partition (``fingerprint_match``, 0 handoffs).

    ``seed_conns`` is the 100k-VM scale proof for the indexed connection
    table: every VM is placed via shard-aware ``assign_vm_auto`` (one
    ``nsm_loads`` consultation per boot) and seeded with one established
    connection, so boot alone performs O(VMs) table control operations.
    A connection table that regresses to full-table scans turns that
    into O(VMs x connections) — ~2x10^8 entry visits even in the quick
    20k-VM CI variant — and trips the wall-time floor.  Shard-aware
    placement must then also have co-homed every VM (``cohomed`` ==
    VMs).
    """
    def bench(quick: bool) -> dict:
        vms_per_shard = vms_quick if quick else vms_full
        active = max(1, vms_per_shard // duty)
        nqes = nqes_quick if quick else nqes_full
        # 250 active producers per partition need completion headroom a
        # 256-slot ring does not give (the 1000-VM bench has only 100).
        slots = 1024
        # Reference: one partition's workload on a one-core switch.
        wall_ref, peak_ref, ref = _measure(
            lambda: _mux_workload(vms_per_shard, active, nqes,
                                  ring_slots=slots, seed_conns=seed_conns))
        ref_fp = {key: ref[key] for key in _SHARD_FP_KEYS}
        wall, peak, out = _measure(
            lambda: _mux_workload(vms_per_shard, active, nqes,
                                  ring_slots=slots, seed_conns=seed_conns,
                                  n_shards=n_shards))
        vms_total = n_shards * vms_per_shard
        match = (all(fp == ref_fp for fp in out["per_shard"])
                 and out["sim_now"] == ref["sim_now"]
                 and out["handoffs"] == 0
                 and (not seed_conns or out["cohomed"] == vms_total))
        result = {
            "wall_s": wall,
            "events": out["events_processed"],
            "peak_rss": max(peak, peak_ref),
            "n_shards": n_shards,
            "vms_total": vms_total,
            "wall_1shard_partition_s": wall_ref,
            "handoffs": out["handoffs"],
            "fingerprint_match": match,
            "fingerprint": ref_fp,
            "per_shard_fingerprints": out["per_shard"],
            "sim_now": out["sim_now"],
        }
        if seed_conns:
            result["cohomed"] = out["cohomed"]
        return result

    return bench


# -- end-to-end short-request RPS (fig. 20's workload shape) -----------------


def _rps_workload(requests: int) -> dict:
    from repro import NetKernelHost, Network
    from repro.units import gbps, usec

    sim = Simulator()
    network = Network(sim, default_rate_bps=gbps(100),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    vm_server = host.add_vm("vm-server", vcpus=1, nsm=nsm)
    vm_client = host.add_vm("vm-client", vcpus=1, nsm=nsm)
    api_server = host.socket_api(vm_server)
    api_client = host.socket_api(vm_client)
    done = {}

    def server():
        listener = yield from api_server.socket()
        yield from api_server.bind(listener, 80)
        yield from api_server.listen(listener, backlog=64)
        conn = yield from api_server.accept(listener)
        while True:
            data = yield from api_server.recv(conn, 4096)
            if not data:
                break
            yield from api_server.send(conn, b"R" * 64)
        yield from api_server.close(conn)

    def client():
        yield sim.timeout(0.001)  # let the server bind first
        sock = yield from api_client.socket()
        yield from api_client.connect(sock, ("nsm0", 80))
        for _ in range(requests):
            yield from api_client.send(sock, b"Q" * 64)
            yield from api_client.recv(sock, 4096)
        yield from api_client.close(sock)
        done["sim_now"] = sim.now

    vm_server.spawn(server())
    vm_client.spawn(client())
    sim.run(until=60.0)
    return {
        "events_processed": sim.events_processed,
        "completed": "sim_now" in done,
        "sim_rps": requests / done["sim_now"] if done.get("sim_now") else 0.0,
    }


def bench_fig20_rps(quick: bool) -> dict:
    """Full GuestLib→CE→ServiceLib→stack round trips, 64 B echoes."""
    requests = 300 if quick else 3_000
    wall, peak, out = _measure(lambda: _rps_workload(requests))
    return {"wall_s": wall, "events": out["events_processed"],
            "peak_rss": peak, "completed": out["completed"],
            "sim_rps": out["sim_rps"],
            "requests_per_wall_sec": requests / wall if wall else 0.0}


def bench_capacity_mux(quick: bool) -> dict:
    """NDR/PDR bisection over the mux scenario, overload governor on."""
    from repro.perf.capacity import run_capacity

    window, iterations = (0.005, 3) if quick else (0.02, 5)
    wall, peak, out = _measure(
        lambda: run_capacity(scenario="mux", seed=0, window=window,
                             iterations=iterations))
    graceful = out["graceful"]
    return {"wall_s": wall, "events": out["events_processed"],
            "peak_rss": peak, "steps": len(out["steps"]),
            "ndr_ops": out["ndr"]["rate"] if out["ndr"] else None,
            "pdr_ops": out["pdr"]["rate"] if out["pdr"] else None,
            "graceful": graceful["pass"] if graceful else None,
            "leaks": len(out["leaks"]),
            "fingerprint": out["fingerprint"]}


#: name -> fn(quick) -> result dict.
BENCHMARKS = {
    "events": bench_events,
    "nqe_switch": bench_nqe_switch,
    "fig08_mux_10": _bench_fig08(10, nqes_quick=100, nqes_full=2_000),
    "fig08_mux_100": _bench_fig08(100, nqes_quick=60, nqes_full=1_000),
    "fig08_mux_1000": _bench_fig08(1_000, nqes_quick=10, nqes_full=100),
    "fig08_sharded": _bench_fig08_sharded(4, 2_500, 2_500,
                                          nqes_quick=4, nqes_full=100),
    "fig08_sharded_100k": _bench_fig08_sharded(
        8, 2_500, 12_500, nqes_quick=8, nqes_full=40, duty=100,
        seed_conns=True),
    "fig20_rps": bench_fig20_rps,
    "capacity_mux": bench_capacity_mux,
}


def run_benchmarks(names: Optional[List[str]] = None,
                   quick: bool = False,
                   profile_top: int = 0) -> Dict[str, dict]:
    """Run the named benchmarks (all by default), in registry order.

    ``profile_top > 0`` wraps each benchmark in cProfile and attaches the
    top-N functions by cumulative time as ``result["profile"]`` (a text
    dump; the CLI prints it).  Profiled wall times carry tracer overhead,
    so never use them for floors or committed BENCH files.
    """
    if not names:
        names = list(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown}; "
                       f"choose from {list(BENCHMARKS)}")
    results = {}
    for name in names:
        if profile_top > 0:
            import cProfile
            import io
            import pstats
            prof = cProfile.Profile()
            prof.enable()
            try:
                result = BENCHMARKS[name](quick)
            finally:
                prof.disable()
            stream = io.StringIO()
            stats = pstats.Stats(prof, stream=stream)
            stats.sort_stats("cumulative").print_stats(profile_top)
            result["profile"] = stream.getvalue()
        else:
            result = BENCHMARKS[name](quick)
        result["name"] = name
        result["quick"] = quick
        results[name] = result
    return results


def write_results(results: Dict[str, dict], out_dir: str) -> List[str]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, result in results.items():
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def check_floors(results: Dict[str, dict], floors: Dict[str, float],
                 tolerance: float = 2.0) -> List[str]:
    """Regression check: a benchmark fails when its wall time exceeds
    ``tolerance ×`` the checked-in floor (a generous baseline, so CI
    machine jitter does not trip it).  Returns failure messages."""
    failures = []
    for name, floor in floors.items():
        result = results.get(name)
        if result is None:
            continue
        limit = floor * tolerance
        if result["wall_s"] > limit:
            failures.append(
                f"{name}: wall {result['wall_s']:.2f}s exceeds "
                f"{tolerance:g}x floor ({floor:g}s -> limit {limit:g}s)")
    return failures
