"""One benchmark episode in a fresh interpreter: set up, run, check.

    python3 nkbench/episode.py --workload rpc_keepalive --seed 1 [--trace]
                               [--seconds S]

Prints one JSON object: host timings, simulated metrics, work counts,
correctness breaches and the ``sim_digest``.  With ``--trace`` the whole
episode (set-up and run) runs under cProfile with observability enabled,
and the object also carries self time per layer and the simulated
per-stage latency report.  ``peak_rss_mb`` is this process's high-water
mark after the first play, which is why every episode gets its own
interpreter.  With ``--seconds`` the workload is played again, untraced
and checked each time, and every play's host timings are kept.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pstats
import resource
import signal
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"episode: no repro package under {_SRC}")
sys.path[:0] = [_SRC, _HERE]

from repro.core.nqe import NQE_POOL  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Tail percentiles tried in order; the first with >= TAIL_BEYOND
#: samples above it is reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = int(len(ordered) * pct / 100.0 + 0.5)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def tail(ordered):
    """(percentile, value, samples beyond it) for the latency tail."""
    for pct in TAIL_PERCENTILES:
        beyond = len(ordered) - int(len(ordered) * pct / 100.0 + 0.5)
        if beyond >= TAIL_BEYOND:
            return pct, percentile(ordered, pct), beyond
    return 100.0, ordered[-1], 0


def sim_digest(workload, latencies) -> str:
    """Fingerprint of the simulated run: clock, events, switch counters,
    cycles by role, the latency histogram and the delivered bytes."""
    host = workload.host
    engine_stats = {key: value for key, value in
                    host.coreengine.stats().items()
                    if not key.startswith("shard.")}
    state = {
        "now": repr(workload.sim.now),
        "events": workload.sim.events_processed,
        "coreengine": {k: repr(v) for k, v in sorted(engine_stats.items())},
        "cycles": {k: repr(v) for k, v in
                   sorted(host.cycles_by_role().items())},
        "latencies": hashlib.sha256(
            repr(latencies).encode()).hexdigest(),
        "payload": workload.output_digest(),
    }
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def counts(workload) -> dict:
    """Work counts from the public stats() views and Simulator counters."""
    host = workload.host
    engine = host.coreengine.stats()
    servicelibs = [nsm.servicelib.stats() for nsm in host.nsms.values()]
    regions = workload.vm_regions()
    pool = NQE_POOL.stats()
    return {
        "events": workload.sim.events_processed,
        "segments": sum(nsm.stack.engine.segments_sent
                        for nsm in host.nsms.values()),
        "packets": sum(link.delivered_packets
                       for link in workload.network.uplinks),
        "dropped_packets": sum(link.dropped_packets for link in
                               workload.network.uplinks
                               + workload.network.downlinks),
        "nqes_switched": engine["nqes_switched"],
        "avg_batch": engine["avg_batch"],
        "sched_passes": engine["sched.passes"],
        "stale_wakeups": engine["sched.stale_wakeups"],
        "rx_window_clamps": sum(s["rx_window_clamps"] for s in servicelibs),
        "nqe_allocated": pool["allocated"],
        "nqe_reused": pool["reused"],
        "hugepage_allocs": sum(region.total_allocs for region in regions),
        "vms": len(host.vms),
        "cycles": host.cycles_by_role(),
    }


class Probes:
    """Runs the reference probe (``calibrate.probe``) at the start and end
    of a timed phase and every ``calibrate.EVERY_SEC`` in between, from a
    timer signal, so it samples the host's speed at the same instants as
    the program runs.  The probes' own time is kept apart from the
    program's."""

    def __init__(self):
        self.times = []

    def _take(self, *_args) -> None:
        self.times.append(calibrate.probe())

    def mean(self) -> float:
        return sum(self.times) / len(self.times)

    def __enter__(self):
        self._take()
        self.previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, calibrate.EVERY_SEC,
                         calibrate.EVERY_SEC)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._take()


def play(name: str, seed: int, size: str = "full", trace: bool = False,
         corrupt: bool = False):
    """Set up and run one workload; return it, its host timings and the
    profile (``None`` untraced).  The caller checks it with ``finish``."""
    profile = None
    if trace:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    t_setup = time.perf_counter()
    with Probes() as setup_probes:
        workload = WORKLOADS[name](seed, size=size, corrupt=corrupt)
        workload.setup(observe=trace)
    t_run = time.perf_counter()
    cpu_run = time.process_time()
    events_run = workload.sim.events_processed
    with Probes() as run_probes:
        workload.run()
    run_wall = time.perf_counter() - t_run - sum(run_probes.times)
    run_cpu = time.process_time() - cpu_run - sum(run_probes.times)
    if profile is not None:
        profile.disable()
    timing = {"setup_s": t_run - t_setup - sum(setup_probes.times),
              "setup_probe_s": setup_probes.mean(),
              "run_wall_s": run_wall,
              "run_cpu_s": run_cpu,
              "run_events": workload.sim.events_processed - events_run,
              "run_probe_s": run_probes.mean()}
    return workload, timing, profile


def run_episode(name: str, seed: int, size: str = "full",
                trace: bool = False, corrupt: bool = False,
                seconds: float = 0.0) -> dict:
    """Set up, run and check one workload; return the episode record.

    With ``seconds`` the same workload is then played again, untraced,
    while another play still fits in that much wall time since the
    start; every play is checked, must give the first one's digest, and
    adds its host timings to ``record["plays"]``."""
    started = time.perf_counter()
    workload, timing, profile = play(name, seed, size, trace, corrupt)
    breaches = workload.finish()
    timing.update(attempted=workload.attempted, failed=workload.failed)
    latencies = sorted(workload.latencies)
    ops = workload.completed
    sim_duration = workload.ops_end_at - workload.run_started_at
    tail_pct, tail_value, tail_beyond = (tail(latencies) if latencies
                                         else (0.0, 0.0, 0))
    work = counts(workload)
    record = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "attempted": workload.attempted,
        "completed": ops,
        "failed": workload.failed,
        "breaches": breaches,
        "setup_s": timing["setup_s"],
        "run_wall_s": timing["run_wall_s"],
        "run_cpu_s": timing["run_cpu_s"],
        "run_events": timing["run_events"],
        "setup_probe_s": timing["setup_probe_s"],
        "run_probe_s": timing["run_probe_s"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": {
            "ops_per_s": ops / sim_duration if sim_duration > 0 else 0.0,
            "goodput_gbps": (workload.goodput_bytes * 8.0 / sim_duration
                             / 1e9 if sim_duration > 0 else 0.0),
            "lat_p50_us": (percentile(latencies, 50.0) * 1e6
                           if latencies else 0.0),
            "lat_tail_us": tail_value * 1e6,
            "tail_percentile": tail_pct,
            "tail_beyond": tail_beyond,
            "cycles_per_op": (sum(work["cycles"].values()) / ops
                              if ops else 0.0),
        },
        "counts": work,
        "extra": workload.extra,
        "sim_digest": sim_digest(workload, latencies),
    }
    if profile is not None:
        stats = pstats.Stats(profile).stats
        record["self_s"] = layers.self_time_by_layer(stats)
        record["retransmissions"] = layers.call_count(
            stats, "_retransmit_one", "repro.stack.tcp.engine")
        report = workload.host.obs.report()
        record["stages"] = {
            stage["stage"]: {"p50_us": stage["p50_us"],
                             "cycles": stage["cycles"]}
            for stage in report["stages"]}
    del workload
    plays = [timing]
    longest = time.perf_counter() - started
    while time.perf_counter() - started + longest <= seconds:
        began = time.perf_counter()
        gc.collect()
        again, timing, _ = play(name, seed, size)
        for breach in again.finish():
            record["breaches"].append(f"play {len(plays)}: {breach}")
        timing.update(attempted=again.attempted, failed=again.failed)
        digest = sim_digest(again, sorted(again.latencies))
        if digest != record["sim_digest"]:
            record["breaches"].append(
                f"play {len(plays)}: sim_digest {digest} differs")
        del again
        plays.append(timing)
        longest = max(longest, time.perf_counter() - began)
    record["plays"] = plays
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="play the workload again until this much "
                             "wall time has passed")
    args = parser.parse_args(argv)
    record = run_episode(args.workload, args.seed, size=args.size,
                         trace=args.trace, seconds=args.seconds)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
