"""Run one workload for a time budget, check it, and compute its metrics.

Untraced runs (``trace=False``) time passes of the workload pipeline with
tracing off and report the end-to-end metrics.  Traced runs make one
untraced pass and one pass under ``cProfile`` (plus ``repro.obs``
recording where the pipeline does not record already) and report the
per-layer metrics.  Every pass's simulated outputs are checked; the
outcome of each check is one item of ``attempted`` / ``failed``.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import attribution
import numpy
import repro
import workloads
from repro.obs import recording
from spans import Spans

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracles.json"

#: Passes per untraced run, at least: a non-default seed has no pinned
#: oracle, so the second pass is its run-it-twice identity check.
MIN_PASSES = 2
MAX_PASSES = 64
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
MIB = 1024 * 1024

#: (name, unit, better) — the order BENCHMARK.json lists them in.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("update_mib_per_s", "MiB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("tue", "ratio", "lower"),
)

# Spelled out rather than imported from ``repro``: metric names are fixed
# for later changes, even ones that rename a span kind or a strategy.
SPAN_KINDS = ("connect", "exchange", "delta-exchange", "dedup-hit",
              "strategy-select", "bundle-commit", "retry-attempt")
STRATEGY_NAMES = ("full-file", "fixed-delta", "cdc-delta", "set-reconcile",
                  "adaptive")

PER_LAYER = tuple(
    [(f"self_s.{layer}", "s", "lower")
     for layer in attribution.LAYERS + (attribution.UNATTRIBUTED,)]
    + [
        ("attributed_frac", "ratio", "higher"),
        ("trace_overhead", "ratio", "lower"),
        ("trace.generate_s", "s", "lower"),
        ("replay.replay_s", "s", "lower"),
        ("replay.files_per_s", "1/s", "higher"),
        ("replay.pool_start_s", "s", "lower"),
        ("replay.worker_cpu_s", "s", "lower"),
        ("replay.parallel_eff", "ratio", "higher"),
        ("replay.saved_frac.compression", "ratio", "higher"),
        ("replay.saved_frac.dedup", "ratio", "higher"),
        ("replay.saved_frac.bds", "ratio", "higher"),
        ("replay.saved_frac.ids", "ratio", "higher"),
        ("fleet.build_s", "s", "lower"),
        ("fleet.run_s", "s", "lower"),
        ("fleet.report_s", "s", "lower"),
        ("fleet.events", "count", "lower"),
        ("fleet.events_per_s", "1/s", "higher"),
        ("fleet.notifications", "count", "lower"),
        ("fleet.fanout_fetches", "count", "lower"),
        ("fleet.suppressed", "count", "higher"),
        ("obs.audit_s", "s", "lower"),
    ]
    + [(f"exp11.cell_s.{name}", "s", "lower") for name in STRATEGY_NAMES]
    + [("table6_s", "s", "lower"), ("table8_s", "s", "lower")]
    + [(f"spans.{kind}.events", "count", "lower") for kind in SPAN_KINDS]
    + [
        ("simnet.overhead_frac", "ratio", "lower"),
        ("client.strategy_payload_frac", "ratio", "lower"),
        ("paper_err", "ratio", "lower"),
        ("fail_frac", "ratio", "lower"),
    ]
)


class Checks:
    """Counts checked outputs; keeps the first few failures for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_oracles() -> Dict[str, Any]:
    return json.loads(ORACLE_PATH.read_text())


def compare(expected: Any, actual: Any, path: str, checks: Checks) -> None:
    """One check per leaf of ``expected``; ``actual`` must match it."""
    if isinstance(expected, dict):
        for key in expected:
            if key.startswith("_"):
                continue  # provenance notes, not values
            value = actual.get(key) if isinstance(actual, dict) else None
            compare(expected[key], value, f"{path}/{key}", checks)
        return
    checks.add(f"oracle{path}", expected == actual,
               f"expected {expected!r}, got {actual!r}")


def host_fingerprint() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# The replay pool's forked workers would otherwise profile their whole life
# and report nothing; a child with no profiler is unaffected.
os.register_at_fork(after_in_child=lambda: sys.setprofile(None))


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: Optional[int], seconds: float,
                 size: str = "full",
                 oracles: Optional[Dict[str, Any]] = None) -> None:
        self.workload = workloads.make(name, size)
        self.seed = self.workload.default_seed if seed is None else seed
        self.seconds = seconds
        self.size = size
        self.checks = Checks()
        #: (digest, update bytes, TUE) of the first pass; later passes must
        #: reproduce the digest.
        self.first: Optional[Tuple[str, int, float]] = None
        oracles = load_oracles() if oracles is None else oracles
        self.oracle = (oracles.get(name, {}).get(size)
                       if self.seed == self.workload.default_seed else None)

    # -- one pass -----------------------------------------------------------

    def one_pass(self, profiled: bool, stopwatch: bool = False
                 ) -> Tuple[workloads.PassResult, Dict]:
        """One pass; ``profiled`` runs it under cProfile (and recording),
        ``stopwatch`` records the benchmark's own spans."""
        wl = self.workload
        spans = Spans(enabled=stopwatch)
        profiler = cProfile.Profile() if profiled else None
        record = profiled and wl.record_when_traced
        hub_ctx = recording() if record else contextlib.nullcontext()
        # Start every pass without the previous pass's garbage, so neither
        # its collection time nor its memory lands in this pass.
        gc.collect()
        with hub_ctx as hub:
            if profiler is not None:
                profiler.enable()
            t0 = time.perf_counter()
            inputs = wl.build(self.seed, spans)
            t1 = time.perf_counter()
            state = wl.run(inputs, spans)
            t2 = time.perf_counter()
            if profiler is not None:
                profiler.disable()
        result = wl.summarize(state, hub)
        if result.hub is None:
            result.hub = hub
        timing = {"build_s": t1 - t0, "run_s": t2 - t1, "spans": spans,
                  "profiler": profiler}
        self._check(result)
        return result, timing

    def _check(self, result: workloads.PassResult) -> None:
        for name, ok, detail in result.invariants:
            self.checks.add(name, ok, detail)
        if self.oracle is not None:
            compare(self.oracle, result.oracle_view, "", self.checks)
        if self.first is None:
            self.first = (result.digest, result.update_bytes, result.tue)
        else:
            self.checks.add("pass-identity", result.digest == self.first[0],
                            "simulated outputs differ between passes")

    def _safe_pass(self, profiled: bool, stopwatch: bool = False):
        try:
            return self.one_pass(profiled, stopwatch)
        except Exception:  # a crashed pass is a failed check, not a crash
            self.checks.add("pass-exception", False,
                            traceback.format_exc(limit=5))
            return None

    # -- untraced run -------------------------------------------------------

    def run_untraced(self) -> Dict[str, Any]:
        walls: List[float] = []
        builds: List[float] = []
        start = time.perf_counter()
        while len(walls) < MAX_PASSES:
            outcome = self._safe_pass(profiled=False)
            if outcome is None:
                break
            timing = outcome[1]
            del outcome  # drop the pass's outputs before the next pass
            walls.append(timing["run_s"])
            builds.append(timing["build_s"])
            elapsed = time.perf_counter() - start
            if (len(walls) >= MIN_PASSES
                    and elapsed + elapsed / len(walls) > self.seconds):
                break
        # Children so far are the workload's own (replay pool workers);
        # measure before the set-up probes add theirs.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups = [self._probe_setup() for _ in range(SETUP_PROBES)]
        setups = [s for s in setups if s is not None]
        metrics: Dict[str, float] = {}
        if walls and setups and len(walls) >= MIN_PASSES:
            wall = statistics.median(walls)
            _, update_bytes, tue = self.first
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "update_mib_per_s": update_bytes / MIB / wall,
                "peak_rss_mb": (own + child) * 1024 / 1e6,
                "tue": tue,
            }
        return {"metrics": metrics, "walls": walls, "builds": builds,
                "setups": setups}

    def _probe_setup(self) -> Optional[float]:
        """``setup_s`` once: a fresh interpreter imports and builds."""
        command = [sys.executable, str(HERE / "setup_probe.py"),
                   self.workload.name, str(self.seed), self.size]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
        try:
            seconds = float(json.loads(done.stdout.strip().splitlines()[-1])
                            ["setup_s"])
        except (IndexError, ValueError, KeyError):
            self.checks.add("setup-probe", False,
                            done.stderr.strip()[-500:])
            return None
        self.checks.add("setup-probe", done.returncode == 0,
                        done.stderr.strip()[-500:])
        return seconds

    # -- traced run ---------------------------------------------------------

    def run_traced(self) -> Dict[str, Any]:
        """Stopwatch spans and rates come from a pass without the profiler,
        whose overhead grows with the number of Python calls; self times,
        attribution and span counts come from the profiled pass."""
        plain = self._safe_pass(profiled=False, stopwatch=True)
        traced = self._safe_pass(profiled=True) if plain else None
        if plain is None or traced is None:
            return {"metrics": {}, "spans": []}
        plain_result, plain_timing = plain
        result, timing = traced
        traced_wall = timing["build_s"] + timing["run_s"]
        plain_wall = plain_timing["build_s"] + plain_timing["run_s"]
        table = attribution.profile_table(timing["profiler"])
        layers = attribution.layer_self_times(table, repro_dir())
        charged = sum(v for k, v in layers.items()
                      if k != attribution.UNATTRIBUTED)
        # Traced wall time no repro frame was charged with, including any
        # the profiler did not see, is unattributed.
        layers[attribution.UNATTRIBUTED] = max(traced_wall - charged, 0.0)
        metrics = {name: 0.0 for name, _, _ in PER_LAYER}
        for layer, seconds in layers.items():
            metrics[f"self_s.{layer}"] = seconds
        metrics["attributed_frac"] = charged / traced_wall
        metrics["trace_overhead"] = traced_wall / plain_wall
        metrics.update(plain_timing["spans"].totals())
        for key, value in plain_result.counts.items():
            if key in metrics:
                metrics[key] = value
        if result.hub is not None:
            for stat in result.hub.phase_breakdown():
                key = f"spans.{stat.kind}.events"
                if key in metrics:
                    metrics[key] += stat.events
        self._derived(metrics, plain_result)
        return {"metrics": metrics, "spans": plain_timing["spans"].to_list(),
                "layers": layers, "traced_wall": traced_wall,
                "plain_wall": plain_wall}

    def _derived(self, metrics: Dict[str, float],
                 result: workloads.PassResult) -> None:
        replay_s = metrics["replay.replay_s"]
        if replay_s > 0:
            metrics["replay.files_per_s"] = \
                result.counts["replay.files"] / replay_s
            metrics["replay.parallel_eff"] = metrics["replay.worker_cpu_s"] \
                / (workloads.Replay.WORKERS * replay_s)
        if metrics["fleet.run_s"] > 0:
            metrics["fleet.events_per_s"] = \
                metrics["fleet.events"] / metrics["fleet.run_s"]

    # -- result -------------------------------------------------------------

    def execute(self, traced: bool) -> Dict[str, Any]:
        host = host_fingerprint()
        detail = self.run_traced() if traced else self.run_untraced()
        host["loadavg_after"] = list(os.getloadavg())
        metrics = detail.pop("metrics")
        if traced and metrics:
            metrics["fail_frac"] = self.checks.fail_frac
        declared = PER_LAYER if traced else END_TO_END
        complete = bool(metrics) and all(name in metrics
                                         for name, _, _ in declared)
        if not complete:
            self.checks.add("metrics-complete", False,
                            "a pass failed before every metric was measured")
        result = {
            "correct": self.checks.failed == 0,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in declared if name in metrics},
        }
        return {"result": result, "host": host, "detail": detail,
                "failures": self.checks.failures,
                "workload": self.workload.name, "seed": self.seed,
                "size": self.size, "seconds": self.seconds,
                "trace": traced}


def repro_dir() -> str:
    return str(Path(repro.__file__).resolve().parent)
