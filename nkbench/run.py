"""The repo benchmark: three seeded workloads through the public API.

    python3 nkbench/run.py --workload rpc_keepalive --seed 1 --seconds 10 --trace 0

Each episode (set-up, run, output check) runs in a fresh interpreter
(``episode.py``), because peak RSS is a process high-water mark and the
NQE pool is process-global.  Every play of one seed must produce the
same ``sim_digest``.

``--trace 0`` runs one episode that plays the workload again and again
for ``--seconds`` and reports the end-to-end metrics: medians over plays
of host times scaled by the reference probe in ``calibrate.py``.
``--trace 1`` alternates untraced and traced (cProfile + observability)
episodes of one play each and reports the per-layer metrics, the tracing
overhead, and checks that the digest is the same traced and untraced and
changes with the seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero if
any episode fails, breaks a correctness check, or disagrees on the
digest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import calibrate
from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("rpc_keepalive", "bulk_stream", "fleet_churn")
EPISODE_TIMEOUT_S = 150
#: glibc malloc settings for episodes: never trim the heap, and take
#: blocks up to 32 MiB (glibc's largest allowed threshold) from it rather
#: than from mmap.  Then the first play faults its memory in and later
#: plays reuse it.  With glibc's dynamic thresholds the number of plays
#: that fault ~800 MiB back in (fleet_churn) varies from 3 to all, which
#: moved a run's median by 1.7x.
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 40),
              "MALLOC_MMAP_THRESHOLD_": str(1 << 25)}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "ops_per_s": "op/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ops_per_s": "op/sim-s",
    "sim_goodput_gbps": "Gbit/s",
    "sim_lat_p50_us": "us-sim",
    "sim_lat_tail_us": "us-sim",
    "sim_cycles_per_op": "cycles/op",
}

STAGES = ("guest_to_ce", "ce_to_nsm", "nsm_service", "nsm_to_ce",
          "ce_to_guest")
#: Per-layer metrics: name -> unit.  PROVENANCE.md states which
#: end-to-end metric and workload each one should move.
PER_LAYER = dict(
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("sim.events_per_op", "event/op"),
       ("sim.host_us_per_event", "us/event"),
       ("stack.tcp.segments_per_op", "segment/op"),
       ("stack.tcp.retransmissions", "count"),
       ("net.packets_per_op", "packet/op"),
       ("net.dropped_packets", "count"),
       ("core.coreengine.avg_batch", "nqe/batch"),
       ("core.coreengine.stale_wakeup_ratio", "ratio"),
       ("core.coreengine.nqes_per_op", "nqe/op"),
       ("core.servicelib.rx_window_clamps", "count"),
       ("core.nqe.reuse_ratio", "ratio"),
       ("mem.hugepages.allocs_per_op", "alloc/op"),
       ("boot.us_per_vm", "us/vm")]
    + [(f"stage.{stage}.{field}", unit) for stage in STAGES
       for field, unit in (("p50_us", "us-sim"), ("cycles", "cycles"))]
    + [(f"cycles.{role}_per_op", "cycles/op")
       for role in ("vms", "nsms", "ce")]
    + [("trace.overhead_s", "s")])


class BenchError(RuntimeError):
    """An episode crashed or produced no record."""


def run_episode(workload: str, seed: int, trace: bool = False,
                size: str = "full", seconds: float = 0.0) -> dict:
    """Run one episode in a fresh interpreter and return its record."""
    cmd = [sys.executable, os.path.join(HERE, "episode.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0", **MALLOC_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=seconds + EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} episode timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} episode exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(workload: str, probe_s: float) -> float:
    """Factor that maps host time of ``workload`` measured alongside
    probes of mean time ``probe_s`` onto the calm host."""
    return ((calibrate.NOMINAL_S / probe_s)
            ** calibrate.ELASTICITY[workload])


def scaled(workload: str, play, key: str) -> float:
    """A play's host time ``key`` mapped onto the calm host by the probes
    run during the same phase."""
    phase = "setup" if key == "setup_s" else "run"
    return play[key] * speed(workload, play[f"{phase}_probe_s"])


def end_to_end(record) -> dict:
    """The end-to-end metrics of one untraced episode."""
    sim = record["sim"]
    plays = record["plays"]
    name = record["workload"]
    values = {
        "ops_per_s": record["completed"] / median(
            scaled(name, play, "run_wall_s") for play in plays),
        "cpu_s": median(scaled(name, play, "run_cpu_s") for play in plays),
        "setup_s": median(scaled(name, play, "setup_s") for play in plays),
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_ops_per_s": sim["ops_per_s"],
        "sim_goodput_gbps": sim["goodput_gbps"],
        "sim_lat_p50_us": sim["lat_p50_us"],
        "sim_lat_tail_us": sim["lat_tail_us"],
        "sim_cycles_per_op": sim["cycles_per_op"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(plain, traced) -> dict:
    """The per-layer metrics of a traced run (medians over pairs)."""
    first = traced[0]
    workload = first["workload"]
    work = first["counts"]
    ops = max(1, first["completed"])
    values = {f"{layer}.self_s": median(
        r["self_s"][layer] * speed(workload, r["run_probe_s"])
        for r in traced) for layer in LAYERS}
    values.update({
        "sim.events_per_op": first["run_events"] / ops,
        "sim.host_us_per_event": median(
            scaled(workload, r, "run_wall_s") / max(1, r["run_events"]) * 1e6
            for r in plain),
        "stack.tcp.segments_per_op": work["segments"] / ops,
        "stack.tcp.retransmissions": first["retransmissions"],
        "net.packets_per_op": work["packets"] / ops,
        "net.dropped_packets": work["dropped_packets"],
        "core.coreengine.avg_batch": work["avg_batch"],
        "core.coreengine.stale_wakeup_ratio": (
            work["stale_wakeups"] / max(1, work["sched_passes"])),
        "core.coreengine.nqes_per_op": work["nqes_switched"] / ops,
        "core.servicelib.rx_window_clamps": work["rx_window_clamps"],
        "core.nqe.reuse_ratio": work["nqe_reused"] / max(
            1, work["nqe_allocated"] + work["nqe_reused"]),
        "mem.hugepages.allocs_per_op": work["hugepage_allocs"] / ops,
        "boot.us_per_vm": median(
            scaled(workload, r, "setup_s") / r["counts"]["vms"] * 1e6
            for r in plain),
        "cycles.vms_per_op": work["cycles"]["vms"] / ops,
        "cycles.nsms_per_op": work["cycles"]["nsms"] / ops,
        "cycles.ce_per_op": work["cycles"]["coreengine"] / ops,
        "trace.overhead_s": median(
            scaled(workload, t, "setup_s") + scaled(workload, t, "run_wall_s")
            - scaled(workload, p, "setup_s") - scaled(workload, p, "run_wall_s")
            for p, t in zip(plain, traced)),
    })
    for stage in STAGES:
        spans = first["stages"].get(stage, {"p50_us": 0.0, "cycles": 0.0})
        values[f"stage.{stage}.p50_us"] = spans["p50_us"]
        values[f"stage.{stage}.cycles"] = spans["cycles"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def problems(records, seed_digests=None) -> list:
    """Correctness and determinism breaches across a run's episodes."""
    found = []
    for r in records:
        mode = "traced" if r["trace"] else "untraced"
        found += [f"{mode} episode: {b}" for b in r["breaches"]]
    digests = sorted({r["sim_digest"] for r in records})
    if len(digests) > 1:
        found.append(f"sim_digest differs between repeats: {digests}")
    if seed_digests is not None and len(set(seed_digests)) == 1:
        found.append("sim_digest does not change with the seed")
    return found


def report(workload, seed, records, metrics, found, out) -> None:
    """Human-readable summary (everything but the final JSON line)."""
    sim = records[0]["sim"]
    plays = [play for r in records if not r["trace"] for play in r["plays"]]
    print(f"workload {workload}  seed {seed}  episodes {len(records)}  "
          f"untraced plays {len(plays)}  "
          f"sim_digest {records[0]['sim_digest']}", file=out)
    print(f"  tail percentile p{sim['tail_percentile']:g} "
          f"({sim['tail_beyond']} samples beyond)", file=out)
    lateness = records[0]["extra"].get("lateness_us")
    if lateness:
        print(f"  generator lateness p50 {median(lateness):.3f} us, "
              f"max {max(lateness):.3f} us", file=out)
    rates = sorted(records[0]["completed"] / play["run_wall_s"]
                   for play in plays)
    print(f"  unscaled ops_per_s of untraced plays: min {rates[0]:.1f}  "
          f"median {median(rates):.1f}  max {rates[-1]:.1f}", file=out)
    probe = median(play["run_probe_s"] for play in plays)
    print(f"  reference probe, median over plays {probe * 1e3:.4f} ms "
          f"(nominal {calibrate.NOMINAL_S * 1e3:.4f} ms)", file=out)
    attempted = records[0]["attempted"]
    print(f"  fail_ratio {records[0]['failed'] / max(1, attempted):.6f} "
          f"ratio", file=out)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}",
              file=out)
    for problem in found:
        print(f"  BREACH: {problem}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="input size (tiny is for the self-tests)")
    args = parser.parse_args(argv)

    started = now = time.perf_counter()
    plain, traced = [], []
    longest = 0.0
    seed_digests = None
    try:
        if not args.trace:
            plain.append(run_episode(args.workload, args.seed,
                                     size=args.size, seconds=args.seconds))
        while args.trace and (not plain
                              or now - started + longest <= args.seconds):
            plain.append(run_episode(args.workload, args.seed,
                                     size=args.size))
            traced.append(run_episode(args.workload, args.seed,
                                      trace=True, size=args.size))
            longest = max(longest, time.perf_counter() - now)
            now = time.perf_counter()
        if args.trace:
            seed_digests = [
                run_episode(args.workload, seed, size="tiny")["sim_digest"]
                for seed in (args.seed, args.seed + 1)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    records = plain + traced
    found = problems(records, seed_digests)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain[0]))
    report(args.workload, args.seed, records, metrics, found, sys.stdout)
    result = {
        "correct": not found,
        "attempted": sum(play["attempted"] for r in records
                         for play in r["plays"]),
        "failed": sum(play["failed"] for r in records for play in r["plays"]),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
