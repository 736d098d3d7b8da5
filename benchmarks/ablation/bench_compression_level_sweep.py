"""Ablation — compression level vs. traffic on a mixed workload.

DESIGN.md tradeoff: "determining the best data compression level to
achieve a good balance between traffic, storage, and computation" (§7).
Measures wire bytes and the number of independently deflated segments per
level on a mix of text and incompressible content.  The segment count is the
deterministic face of the trade-off (smaller independent windows are cheaper
per call and compress worse); wall-clock CPU time is left out so the
artifact regenerates byte-identical.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import emit, run_once

from repro.compress import (
    HIGH_COMPRESSION,
    LOW_COMPRESSION,
    MODERATE_COMPRESSION,
    NO_COMPRESSION,
)
from repro.content import random_content, text_content
from repro.reporting import render_table
from repro.units import MB, fmt_size

POLICIES = [NO_COMPRESSION, LOW_COMPRESSION, MODERATE_COMPRESSION,
            HIGH_COMPRESSION]


def _sweep():
    workload = [text_content(2 * MB, seed=1), random_content(2 * MB, seed=2),
                text_content(1 * MB, seed=3)]
    total = sum(c.size for c in workload)
    rows = []
    for policy in POLICIES:
        wire = sum(policy.wire_size(content) for content in workload)
        segments = sum(policy.segment_count(content.size)
                       for content in workload)
        rows.append((policy.level.value, total, wire, segments))
    return rows


def test_compression_level_sweep(benchmark):
    rows_data = run_once(benchmark, _sweep)

    rows = [[level, fmt_size(total), fmt_size(wire),
             f"{wire / total:.3f}", str(segments)]
            for level, total, wire, segments in rows_data]
    emit("ablation_compression_levels",
         render_table(["Level", "Input", "Wire", "Ratio", "Segments"],
                      rows, title="Ablation — compression level tradeoff"))

    wires = [wire for _, _, wire, _ in rows_data]
    assert wires == sorted(wires, reverse=True)  # none ≥ low ≥ moderate ≥ high
    # Stronger levels deflate in fewer, larger independent windows; NONE
    # deflates nothing.
    segments = {level: count for level, _, _, count in rows_data}
    assert segments["none"] == 0
    assert segments["low"] > segments["moderate"] > segments["high"] >= 1
