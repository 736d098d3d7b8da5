"""Ablation — fixed-block vs. content-defined chunking under edits.

§5.2's footnote concedes the paper's dedup analysis uses head-aligned fixed
blocks, "not the best possible manner [19, 39]".  This bench quantifies the
difference on the three edit patterns that matter: append (fixed blocks
survive), in-place overwrite (both survive), and insertion (only CDC
survives) — the reason block-dedup systems that face edited files pay for
CDC's extra computation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import emit, run_once

from repro.chunking import cdc_chunks, chunk_data, shared_bytes
from repro.content import random_content
from repro.reporting import render_table
from repro.units import KB, MB

SIZE = 1 * MB
FIXED_BLOCK = 8 * KB


def _edits(base: bytes):
    return [
        ("append 16 KB", base + random_content(16 * KB, seed=9).data),
        ("overwrite 16 KB @256K",
         base[:256 * KB] + random_content(16 * KB, seed=10).data
         + base[256 * KB + 16 * KB:]),
        ("insert 1 KB @64K",
         base[:64 * KB] + random_content(1 * KB, seed=11).data + base[64 * KB:]),
        ("prepend 100 B", random_content(100, seed=12).data + base),
    ]


def _sweep():
    base = random_content(SIZE, seed=8).data
    fixed = lambda data: chunk_data(data, FIXED_BLOCK)
    cdc = lambda data: cdc_chunks(data)
    rows = []
    for label, new in _edits(base):
        fixed_shared = shared_bytes(base, new, fixed) / len(new)
        cdc_shared = shared_bytes(base, new, cdc) / len(new)
        rows.append((label, fixed_shared, cdc_shared, len(cdc(new))))
    return rows


def test_cdc_vs_fixed(benchmark):
    rows_data = run_once(benchmark, _sweep)

    rows = [[label, f"{fixed_shared:.1%}", f"{cdc_shared:.1%}", str(cdc_count)]
            for label, fixed_shared, cdc_shared, cdc_count in rows_data]
    emit("ablation_cdc_vs_fixed",
         render_table(["Edit", "Fixed-block dedup", "CDC dedup", "CDC chunks"],
                      rows,
                      title="Ablation — dedup surviving an edit "
                            "(1 MB file, 8 KB blocks)"))

    by_label = {label: (fixed_shared, cdc_shared)
                for label, fixed_shared, cdc_shared, _ in rows_data}
    # Appends: both chunkers keep the prefix.
    assert by_label["append 16 KB"][0] > 0.9
    assert by_label["append 16 KB"][1] > 0.9
    # Inserts/prepends: fixed loses everything, CDC keeps nearly everything.
    for label in ("insert 1 KB @64K", "prepend 100 B"):
        fixed_shared, cdc_shared = by_label[label]
        assert fixed_shared < 0.15, label
        assert cdc_shared > 0.85, label
