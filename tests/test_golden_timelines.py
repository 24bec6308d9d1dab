"""Golden timelines: pinned digests of seeded simulated runs.

Each golden is the first 16 hex digits of the SHA-256 of a run's output
serialized as canonical JSON (sorted keys, no whitespace).  Every value
was confirmed identical under the ready-set and full-scan schedulers and
under the slab and bytearray TCP buffer layouts, so a changed digest
means the simulated timeline moved.  A golden is asserted inside a
tier-1 test that already makes its run wherever one exists, so no run is
repeated only to check a digest: the experiments in
``test_experiments.py``, the transfer in ``test_determinism.py``, the
raw-switch runs in ``test_sched_determinism.py`` next to the full-scan
oracle, chaos ``nsm-crash``/11 in ``test_faults.py``, the quick
``nqe_switch`` bench in ``test_units_and_cli.py``, the shed burst in
``test_overload.py``, the multi-core runs in ``test_sharding.py`` and the
fig-autoscale scenarios in ``test_autoscaler.py``.  ``fig9`` (duration 0.3) is compared only with its
full-scan oracle run in ``test_sched_determinism.py``.  The rest run
here.
"""

import hashlib
import json

import pytest

GOLDENS = {
    # Experiment rows and notes (test_experiments.py).
    "fig8": "e79b9dfe07d55647",
    "fig9_quick": "eb0ce03da6dc39a0",
    "fig21_quick": "4c5a8c88d5b7f17d",
    "table5_quick": "c9cf949e37e5042e",
    # fig9 at duration 0.3 (test_sched_determinism.py, oracle side only).
    "fig9": "7ff08024363f8d6e",
    # Full stack: GuestLib -> CE -> NSM TCP -> network and back.
    "transfer": "576475698ac9326a",
    # Raw-switch runs (test_sched_determinism.py).
    "mux40": "e5f14e84ec9739bb",
    "rate_limited": "9fcee726579b7d0a",
    # ``repro bench --quick`` fingerprints.
    "bench.nqe_switch": "402da00059a1a45d",
    "bench.fig08_mux_10": "56ecb4a471af33cc",
    "bench.fig08_mux_100": "2fc1d7d7e370ee2b",
    "bench.fig08_mux_1000": "86ddc285539eafb6",
    "bench.capacity_mux": "c9d674426e9e88b1",
    # Chaos ``switch_fingerprint``s at duration 0.2.
    "chaos.nsm-crash.11": "c8e356a236e39f9d",
    "chaos.nsm-stall.23": "b43e6b1bb96caf4f",
    "chaos.overload.17": "5824921eda9d1b52",
    # Switch-side overload shed burst (test_overload.py).
    "shed_burst": "63517c09a1419604",
    # Multi-core switches (test_sharding.py, test_autoscaler.py): the
    # 3-shard mux partition, the cross-shard echo, and the 2-shard
    # fig-autoscale clean and chaos runs.
    "sharded.mux3": "9382933a86a1e2a0",
    "sharded.echo": "e0fcd89b79dbd3a5",
    "autoscale.clean": "750e869c72ffa1d2",
    "autoscale.chaos": "c27626c52da12770",
}


def timeline_digest(value) -> str:
    """First 16 hex digits of SHA-256 over ``value`` as canonical JSON."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ["fig08_mux_10",
                                  "fig08_mux_100", "fig08_mux_1000",
                                  "capacity_mux"])
def test_bench_quick_fingerprint(name, rewind_counters):
    from repro.perf.bench import BENCHMARKS

    fingerprint = BENCHMARKS[name](True)["fingerprint"]
    assert timeline_digest(fingerprint) == GOLDENS[f"bench.{name}"]


@pytest.mark.parametrize("plan,seed", [("nsm-stall", 23),
                                       ("overload", 17)])
def test_chaos_switch_fingerprint(plan, seed, rewind_counters):
    from repro.faults.chaos import run_chaos

    result = run_chaos(seed=seed, plan_name=plan, duration=0.2)
    assert (timeline_digest(result["switch_fingerprint"])
            == GOLDENS[f"chaos.{plan}.{seed}"])
