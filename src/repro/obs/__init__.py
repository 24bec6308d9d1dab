"""repro.obs: the datapath observability layer.

One :class:`Observability` instance owns a :class:`MetricsRegistry` and an
:class:`NqeTracer`.  Components hold an ``obs`` attribute that is
``None`` by default; every hook site is guarded by ``if obs is not None``
so a run without observability pays nothing beyond that attribute check.

Enable it on a host before (or after — late components are wired too)
building VMs and NSMs::

    host = NetKernelHost(sim, network)
    obs = host.enable_observability()
    ...
    sim.run(until=1.0)
    report = obs.report()     # stages, ops, rings, buckets, cycles

The registry holds only what no component keeps itself: the per-hop and
per-op latency histograms and the tracer's two counters.  Everything else
in :meth:`Observability.report` is read, at report time, from the
component that owns it (``CoreEngine.stats()``, ``GuestLib.stats()``,
``NKDevice.ring_depths()``, ``HugepageRegion.watermarks()``, the cores'
cycle ledgers, the autoscaler's counters).  Hooks never yield, never
charge cycles, and never create simulation events, and reading a report
mutates nothing, so the simulated timeline of the workload is identical
with observability on or off — asserted by tests/test_obs.py.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.obs.metrics import (Counter, Histogram, MetricsRegistry,
                               geometric_bounds)
from repro.obs.trace import HOP_STAGES, NqeTracer

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "NqeTracer",
    "Observability", "geometric_bounds", "HOP_STAGES",
]

#: Which cycle ledger (role, component) backs each latency stage in the
#: combined report.  ce.switch serves both directions of the switch.
STAGE_CYCLE_SOURCES = {
    "guest_to_ce": ("vms", "guestlib.prep"),
    "ce_to_nsm": ("coreengine", "ce.switch"),
    "nsm_service": ("nsms", "servicelib.dispatch"),
    "nsm_to_ce": ("coreengine", "ce.switch"),
    "ce_to_guest": ("vms", "guestlib.dispatch"),
}


def _cycles_by_component(cores: Iterable) -> Dict[str, float]:
    """Busy cycles per labelled component, summed over ``cores``."""
    merged: Dict[str, float] = {}
    for core in cores:
        for component, cycles in core.busy_by_component.items():
            merged[component] = merged.get(component, 0.0) + cycles
    return merged


class Observability:
    """Facade wiring the NQE tracer into a NetKernelHost and rendering
    the combined report from the host's own counters."""

    def __init__(self, sim):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = NqeTracer(sim, self.registry)
        self._host = None

    # -- component hooks (hot path; must stay cheap and side-effect free) --

    def on_guest_enqueue(self, nqe) -> None:
        self.tracer.guest_enqueue(nqe)

    def on_ce_switch(self, nqe, source_role: str) -> None:
        self.tracer.ce_switch(nqe, source_role)

    def on_nsm_consume(self, nqe) -> None:
        self.tracer.nsm_consume(nqe)

    def on_nsm_emit(self, nqe) -> None:
        self.tracer.nsm_emit(nqe)

    def on_guest_deliver(self, nqe) -> None:
        self.tracer.guest_deliver(nqe)

    # -- wiring ------------------------------------------------------------

    def attach_host(self, host) -> "Observability":
        """Install hooks on a host's CoreEngine and all current (and
        future — see NetKernelHost.add_vm/add_nsm) VMs and NSMs."""
        self._host = host
        host.obs = self
        host.coreengine.obs = self
        for vm in host.vms.values():
            self.attach_vm(vm)
        for nsm in host.nsms.values():
            self.attach_nsm(nsm)
        return self

    def attach_vm(self, vm) -> None:
        vm.guestlib.obs = self

    def attach_nsm(self, nsm) -> None:
        nsm.servicelib.obs = self

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The combined per-stage latency + cycles report (JSON-ready)."""
        host = self._host
        component_cycles = {
            "coreengine": _cycles_by_component(host.ce_cores),
            "nsms": _cycles_by_component(
                core for nsm in host.nsms.values() for core in nsm.cores),
            "vms": _cycles_by_component(
                core for vm in host.vms.values() for core in vm.cores),
        }
        stages = []
        for snap in self.tracer.hop_snapshot():
            role, component = STAGE_CYCLE_SOURCES[snap["stage"]]
            stages.append({
                "stage": snap["stage"],
                "count": snap["count"],
                "p50_us": snap["p50"] * 1e6,
                "p95_us": snap["p95"] * 1e6,
                "p99_us": snap["p99"] * 1e6,
                "max_us": snap["max"] * 1e6,
                "mean_us": snap["mean"] * 1e6,
                "cycles": component_cycles[role].get(component, 0.0),
            })
        ops = []
        for prefix in ("nqe.e2e.", "nqe.oneway.", "nqe.event."):
            for hist in self.registry.histograms_named(prefix):
                snap = hist.snapshot()
                ops.append({
                    "op": hist.name.split(".", 2)[2],
                    "kind": hist.name.split(".", 2)[1],
                    "vm": hist.labels.get("vm"),
                    "count": snap["count"],
                    "p50_us": snap["p50"] * 1e6,
                    "p95_us": snap["p95"] * 1e6,
                    "p99_us": snap["p99"] * 1e6,
                    "max_us": snap["max"] * 1e6,
                })
        devices = [(name, vm.guestlib.device)
                   for name, vm in host.vms.items()]
        devices += [(name, nsm.servicelib.device)
                    for name, nsm in host.nsms.items()]
        rings = {}
        for name, device in devices:
            for ring_id, depths in device.ring_depths().items():
                rings[f"{name}.{ring_id}"] = {"depth": depths["depth"],
                                              "peak_depth": depths["peak"]}
        hugepages = {}
        for vm in host.vms.values():
            region = vm.guestlib.device.hugepages
            marks = region.watermarks()
            hugepages[region.name] = {
                key: marks[key] for key in ("allocated", "free",
                                            "peak_allocated", "live_buffers")}
        engine = host.coreengine
        engine_stats = engine.stats()
        report = {
            "stages": stages,
            "ops": ops,
            "rings": dict(sorted(rings.items())),
            "hugepages": dict(sorted(hugepages.items())),
            "token_buckets": {str(vm): state for vm, state
                              in engine.isolation_state().items()},
            "cycles": component_cycles,
            "counters": {m.name: m.value
                         for m in (self.tracer.traced,
                                   self.tracer.dropped_records)},
        }
        guestlibs = [vm.guestlib.stats() for vm in host.vms.values()]
        failover = {
            "failover.quarantines": engine_stats["nsms_quarantined"],
            "failover.vms_moved": engine_stats["vms_failed_over"],
        }
        for key, field in (("guestlib.op_timeouts", "op_timeouts"),
                           ("guestlib.op_retries", "op_retries"),
                           ("guestlib.op_sheds", "ops_shed")):
            failover[key] = sum(stats[field] for stats in guestlibs)
        if any(failover.values()):
            report["failover"] = failover
        if engine.migrations:
            blackout = Histogram("migration.blackout_sec", {})
            for record in engine.migrations:
                blackout.record(record["blackout_sec"])
            snap = blackout.snapshot()
            report["migration"] = {
                "migration.completed": engine_stats["vms_migrated"],
                "migration.sockets_moved": engine_stats["conns_migrated"],
                "migration.parked_ops": engine_stats["migration_parked_ops"],
                "migration.blackout_sec": {
                    key: snap[key]
                    for key in ("count", "p50", "p99", "max", "mean")},
            }
        autoscaler = host.autoscaler
        if autoscaler is not None:
            counters = autoscaler.counters
            autoscale = {
                "autoscale.spawn": counters["spawned"],
                "autoscale.retire": counters["retired"],
                "autoscale.migrate": counters["migrations"],
                "autoscale.reap": sum(1 for entry in autoscaler.events
                                      if entry["action"] == "reap"),
            }
            autoscale = {key: n for key, n in autoscale.items() if n}
            if autoscale:
                report["autoscale"] = autoscale
        report["coreengine"] = engine_stats
        drops = engine.per_vm_drops()
        if drops:
            report["per_vm_drops"] = {str(vm): d for vm, d in drops.items()}
        overload = engine.overload_stats()
        if overload is not None:
            report["overload"] = overload
        return report
