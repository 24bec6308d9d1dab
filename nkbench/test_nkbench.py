"""Self-tests of the benchmark.  Run from the repo root with

    python3 -m pytest nkbench -q
"""

import json
import os
import subprocess
import sys

import pytest

import calibrate
import episode
import run
from workloads import WORKLOADS

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(workload, trace, seed=1):
    """Run the one command at tiny size; return (exit code, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metric_tables():
    with open(SPEC) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, result = bench(workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_corrupted_payload_trips_the_gate(workload):
    record = episode.run_episode(workload, 1, size="tiny", corrupt=True)
    assert any("payload mismatches" in b for b in record["breaches"])
    assert run.problems([record])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_digest_repeats_per_seed_and_changes_with_it(workload):
    first = episode.run_episode(workload, 7, size="tiny")
    again = episode.run_episode(workload, 7, size="tiny", trace=True)
    other = episode.run_episode(workload, 8, size="tiny")
    assert first["breaches"] == again["breaches"] == other["breaches"] == []
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
    assert not run.problems([first, again])
    assert run.problems([first, other])


def test_host_times_are_scaled_by_the_probe_and_take_the_median():
    def play(wall, probe_ratio):
        probe_s = calibrate.NOMINAL_S * probe_ratio
        return {"run_wall_s": wall, "run_cpu_s": wall, "setup_s": wall / 10,
                "run_probe_s": probe_s, "setup_probe_s": probe_s}

    # The probes of the second play ran 2x slow, and the program slowed
    # by the workload's elasticity.
    elasticity = calibrate.ELASTICITY["fleet_churn"]
    plays = [play(1.0, 1.0), play(2.0 ** elasticity, 2.0), play(1.2, 1.0)]
    record = {"workload": "fleet_churn", "completed": 100, "plays": plays,
              "peak_rss_mb": 1.0,
              "sim": dict.fromkeys(("ops_per_s", "goodput_gbps",
                                    "lat_p50_us", "lat_tail_us",
                                    "cycles_per_op"), 1.0)}
    metrics = run.end_to_end(record)
    assert metrics["ops_per_s"]["value"] == pytest.approx(100.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)


def test_replays_are_checked_and_timed():
    record = episode.run_episode("rpc_keepalive", 3, size="tiny", seconds=1)
    assert len(record["plays"]) > 1
    assert record["breaches"] == []
    assert all(play["run_events"] == record["run_events"]
               for play in record["plays"])
