"""Golden timelines: pinned digests of seeded simulated runs.

Each golden is the first 16 hex digits of
:func:`repro.faults.harness.timeline_fingerprint` (SHA-256 over canonical
JSON) of a run's output.  The experiment, transfer, raw-switch, bench,
chaos and shed-burst values were confirmed identical under the ready-set
and full-scan schedulers and under the slab and bytearray TCP buffer
layouts; every later value was generated at the commit before the change
that added it.  So a changed digest means the simulated timeline moved.
A golden is asserted inside a tier-1 test that already makes its run
wherever one exists, so no run is repeated only to check a digest: the
experiments in ``test_experiments.py``, the transfer in
``test_determinism.py``, the raw-switch runs in
``test_sched_determinism.py`` next to the full-scan oracle, chaos
``nsm-crash``/11 in ``test_faults.py``, migrate seed 7 in
``test_migration.py``, the quick ``nqe_switch`` bench in
``test_units_and_cli.py``, the shed burst in ``test_overload.py``, the
multi-core runs in ``test_sharding.py`` and the fig-autoscale scenarios
in ``test_autoscaler.py``.  ``fig9`` (duration 0.3) is compared only with
its full-scan oracle run in ``test_sched_determinism.py``.  The rest run
here.
"""

import pytest

from repro.faults.harness import timeline_fingerprint

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
    # Migrate ``switch_fingerprint``, seed 7, 12 streams, duration 0.1
    # (test_migration.py).
    "migrate.7": "8aaf701440357419",
    # Capacity echo-search ``fingerprint``s, seed 0, 2 iterations:
    # rps at window 0.01, failover at window 0.02.
    "capacity.rps": "0b1db4aa5894f2fe",
    "capacity.failover": "fa818470a61fac36",
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
    """First 16 hex digits of ``value``'s timeline fingerprint."""
    return timeline_fingerprint(value)[:16]


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


@pytest.mark.parametrize("scenario,window", [("rps", 0.01),
                                             ("failover", 0.02)])
def test_capacity_echo_fingerprint(scenario, window, rewind_counters):
    from repro.perf.capacity import run_capacity

    result = run_capacity(scenario=scenario, seed=0, window=window,
                          iterations=2)
    assert result["leaks"] == []
    assert (timeline_digest(result["fingerprint"])
            == GOLDENS[f"capacity.{scenario}"])
