"""The benchmark's own tests: every workload at a tiny size with its checks,
a tamper test proving the oracles can fail, and the attribution rule.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import paths  # noqa: E402

paths.use_checkout_sources()

import attribution  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def tiny(name, seed=None, oracles=None):
    return harness.Runner(name, seed, seconds=0, size="tiny",
                          oracles=oracles)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_passes_its_checks(name):
    record = tiny(name).execute(traced=False)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    # Oracle leaves, invariants, the identity check and the set-up probe.
    assert result["attempted"] > 3
    assert set(result["metrics"]) == {n for n, _, _ in harness.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["detail"]["walls"]) >= harness.MIN_PASSES


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_layer_metric(name):
    record = tiny(name).execute(traced=True)
    result = record["result"]
    assert result["correct"], record["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {n for n, _, _ in harness.PER_LAYER}
    assert metrics["fail_frac"] == 0
    assert metrics["trace_overhead"] > 0
    assert 0 < metrics["attributed_frac"] <= 1
    layer_sum = sum(v for k, v in metrics.items() if k.startswith("self_s."))
    traced_wall = record["detail"]["traced_wall"]
    assert layer_sum == pytest.approx(traced_wall, rel=1e-3, abs=1e-3)
    assert metrics["attributed_frac"] == pytest.approx(
        1 - metrics["self_s.unattributed"] / traced_wall)
    assert record["detail"]["spans"], "the traced pass recorded no spans"


def test_layer_metrics_land_on_their_workload():
    fleet = tiny("fleet").execute(traced=True)["result"]["metrics"]
    assert fleet["fleet.events"]["value"] > 0
    assert fleet["self_s.simnet.clock"]["value"] > 0
    assert fleet["spans.exchange.events"]["value"] > 0
    assert fleet["self_s.trace.generator"]["value"] == 0
    replay = tiny("replay").execute(traced=True)["result"]["metrics"]
    assert replay["self_s.trace.generator"]["value"] > 0
    assert replay["replay.worker_cpu_s"]["value"] > 0
    assert replay["fleet.events"]["value"] == 0


def test_flipped_expected_byte_count_drives_fail_frac_above_zero():
    oracles = harness.load_oracles()
    tampered = copy.deepcopy(oracles)
    tampered["fleet"]["tiny"]["traffic_bytes"] += 1
    record = tiny("fleet", oracles=tampered).execute(traced=True)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["fail_frac"]["value"] > 0
    assert any("traffic_bytes" in f for f in record["failures"])


def test_other_seed_swaps_oracles_for_run_it_twice_identity():
    default = tiny("strategy-sweep")
    other = tiny("strategy-sweep", seed=default.seed + 1)
    assert default.oracle is not None and other.oracle is None
    record = other.execute(traced=False)
    assert record["result"]["correct"], record["failures"]
    assert record["result"]["failed"] == 0


def test_pass_identity_check_catches_divergent_passes():
    runner = tiny("fleet")
    runner.one_pass(profiled=False)
    # Pretend the first pass computed other bytes.
    runner.first = ("0" * 64,) + runner.first[1:]
    runner.one_pass(profiled=False)
    assert runner.checks.failed == 1
    assert "pass-identity" in runner.checks.failures[0]


def test_benchmark_json_declares_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(harness.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_stdlib_time_goes_to_the_nearest_repro_frame():
    repro = "/src/repro"
    content = (f"{repro}/content/model.py", 1, "text")
    helper = ("/usr/lib/python3/random.py", 1, "choices")
    builtin = ("~", 0, "<built-in method _random.random>")
    bench = ("/bench/run.py", 1, "main")
    table = {
        bench: (1, 1, 0.1, 3.6, {}),
        content: (1, 1, 0.5, 3.5, {bench: (1, 1, 0.5, 3.5)}),
        helper: (1, 1, 1.0, 3.0, {content: (1, 1, 1.0, 3.0)}),
        builtin: (1, 1, 2.0, 2.0, {helper: (1, 1, 2.0, 2.0)}),
    }
    times = attribution.layer_self_times(table, repro)
    assert times["content"] == pytest.approx(3.5)
    assert times[attribution.UNATTRIBUTED] == pytest.approx(0.1)


def test_stdlib_cycle_called_from_two_layers_is_split_by_outside_callers():
    repro = "/src/repro"
    content = (f"{repro}/content/model.py", 1, "text")
    compress = (f"{repro}/compress.py", 1, "pack")
    first = ("/usr/lib/python3/json/encoder.py", 1, "_iterencode")
    second = ("/usr/lib/python3/json/encoder.py", 2, "_iterencode_list")
    # content -> first <-> second <- compress: the cycle's outside callers
    # carried 3 s (content) and 1 s (compress) of cumulative time.
    rows = [
        (content, (1, 1, 0.0, 3.0, {})),
        (compress, (1, 1, 0.0, 1.0, {})),
        (first, (2, 2, 2.0, 4.0, {content: (1, 1, 1.0, 3.0),
                                  second: (1, 1, 1.0, 1.0)})),
        (second, (2, 2, 2.0, 3.0, {first: (1, 1, 1.0, 2.0),
                                   compress: (1, 1, 1.0, 1.0)})),
    ]
    for order in (rows, rows[::-1], rows[2:] + rows[:2]):
        times = attribution.layer_self_times(dict(order), repro)
        # first: 1 s under content, 1 s under the cycle (3/4 content).
        # second: 1 s under compress, 1 s under the cycle.
        assert times["content"] == pytest.approx(1.75 + 0.75)
        assert times["compress"] == pytest.approx(0.25 + 1.25)
        assert times[attribution.UNATTRIBUTED] == 0


def test_profile_table_keeps_code_objects_that_share_a_label():
    from dataclasses import dataclass

    @dataclass
    class First:
        x: int

    @dataclass
    class Second:
        y: int

    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(2000):
        First(i)
        Second(i)
    profiler.disable()
    inits = [e for e in profiler.getstats()
             if cProfile.label(e.code)[2] == "__init__"
             and e.code.co_filename == "<string>"]
    assert len(inits) == 2  # two code objects, one pstats label
    table = attribution.profile_table(profiler)
    merged = [row for func, row in table.items()
              if func[0] == "<string>" and func[2] == "__init__"]
    assert len(merged) == 1
    assert merged[0][1] == sum(e.callcount for e in inits) == 4000
    assert sum(row[2] for row in table.values()) == pytest.approx(
        sum(e.inlinetime for e in profiler.getstats()))


def test_layer_of_maps_every_module_to_one_layer():
    repro = "/src/repro"
    assert attribution.layer_of(f"{repro}/trace/generator.py", repro) \
        == "trace.generator"
    assert attribution.layer_of(f"{repro}/trace/schema.py", repro) \
        == "trace.other"
    assert attribution.layer_of(f"{repro}/client/strategies/cdc.py", repro) \
        == "client"
    assert attribution.layer_of(f"{repro}/units.py", repro) == "other"
    assert attribution.layer_of("/usr/lib/python3/zlib.py", repro) == ""


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode not in (0, None)
    assert done.stdout.strip() == ""


def test_no_process_outlives_the_run():
    """The replay pool starts the resource tracker; run.py must stop it."""
    script = f"""
import os, sys
sys.path.insert(0, {str(BENCH)!r})
import paths
paths.use_checkout_sources()
import run
from multiprocessing import resource_tracker
from repro.trace import ReplayPool, generate_trace
with ReplayPool(generate_trace(scale=0.01, seed=42), workers=2):
    pass
pid = resource_tracker._resource_tracker._pid
assert pid is not None, "the pool started no tracker"
run.stop_children()
try:
    os.kill(pid, 0)
except ProcessLookupError:
    print("ok")
"""
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
