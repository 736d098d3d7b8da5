"""Regenerate ``perfbench/oracles.json`` — the outputs each workload must
reproduce on its default seed.

Usage (from the root of the repository)::

    python3 perfbench/pin_oracles.py

Where a committed artifact covers a workload, the oracle is read from it and
a fresh default-seed pass must agree before anything is written:

* ``strategy-sweep`` — the LTE cells of ``BENCH_strategies.json``;
* ``fleet`` — the 10,000-client point of ``BENCH_fleet.json``;
* ``paper-tables`` — ``benchmarks/results/table6_{pc,web,mobile}.txt`` and
  the PC columns of ``benchmarks/results/table8_compression.txt``;
* ``replay`` — the six-service traffic total at scale 0.25, seed 42.

Exact byte counts with no artifact behind them (Table 6/8 overhead and
per-service replay fields, every ``tiny`` size) are pinned from the same
pass.  Run this only when a change is meant to alter modelled bytes, and
say so in the change.
"""

from __future__ import annotations

import json
import sys

import paths

ROOT = paths.HERE.parent
REPLAY_TOTAL = 1_228_770_595_276


def view_of(name: str, size: str) -> dict:
    import harness
    runner = harness.Runner(name, None, 0, size=size, oracles={})
    result, _ = runner.one_pass(profiled=False)
    if runner.checks.failed:
        raise SystemExit(f"{name}/{size}: invariants failed: "
                         f"{runner.checks.failures}")
    return result.oracle_view


def agree(label: str, expected, actual) -> None:
    if expected != actual:
        raise SystemExit(f"{label}: artifact says {expected!r}, "
                         f"this tree computes {actual!r}")


def strategy_oracle(view: dict) -> dict:
    import workloads
    bench = json.loads((ROOT / "BENCH_strategies.json").read_text())
    fields = ("files", "update_bytes", "traffic", "strategy_payload",
              "round_trips", "cpu_units")
    cells = {f"{c['workload']}/{c['link']}/{c['strategy']}":
             {f: c[f] for f in fields}
             for c in bench["cells"]
             if c["link"] == workloads.StrategySweep.LINK}
    agree("BENCH_strategies.json", cells, view["cells"])
    return {"_source": "BENCH_strategies.json (seed 0, files 3), LTE cells",
            "cells": cells}


def fleet_oracle(view: dict) -> dict:
    bench = json.loads((ROOT / "BENCH_fleet.json").read_text())
    point = next(p for p in bench["points"] if p["clients"] == 10_000)
    agree("BENCH_fleet.json events", point["events"], view["events"])
    agree("BENCH_fleet.json traffic", point["traffic_bytes"],
          view["traffic_bytes"])
    return {"_source": "BENCH_fleet.json 10,000-client point; update_bytes "
                       "pinned from a default-seed pass", **view}


def paper_oracle(view: dict) -> dict:
    results = ROOT / "benchmarks" / "results"
    texts = {access: (results / f"table6_{access}.txt").read_text().rstrip("\n")
             for access in ("pc", "web", "mobile")}
    agree("table6 texts", texts, view["table6_text"])
    table8 = {}
    for line in (results / "table8_compression.txt").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] in view["table8_pc_mb"]:
            table8[cells[0]] = cells[1:3]
    agree("table8 PC columns", table8, view["table8_pc_mb"])
    return {"_source": "benchmarks/results/table6_*.txt, PC columns of "
                       "table8_compression.txt; exact bytes pinned from a "
                       "default-seed pass", **view}


def replay_oracle(view: dict) -> dict:
    agree("replay six-service total", REPLAY_TOTAL, view["total_traffic"])
    return {"_source": "six-service total 1,228,770,595,276 bytes at scale "
                       "0.25, seed 42; per-service fields pinned from a "
                       "default-seed pass", **view}


def main() -> int:
    paths.use_checkout_sources()
    full = {"replay": replay_oracle, "fleet": fleet_oracle,
            "strategy-sweep": strategy_oracle, "paper-tables": paper_oracle}
    oracles = {}
    for name, from_artifact in full.items():
        oracles[name] = {
            "full": from_artifact(view_of(name, "full")),
            "tiny": {"_source": "pinned from a default-seed pass",
                     **view_of(name, "tiny")},
        }
        print(f"pinned {name}", file=sys.stderr)
    out = paths.HERE / "oracles.json"
    out.write_text(json.dumps(oracles, indent=1, sort_keys=True) + "\n")
    print(f"written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
