"""Time one set-up in a fresh interpreter: ``import repro`` to inputs ready.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SIZE``.  Prints one
JSON line ``{"setup_s": seconds}``.  ``harness.py`` runs it several times
per run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    import paths
    paths.use_checkout_sources()
    start = time.perf_counter()
    import spans
    import workloads  # imports repro: the import is part of set-up
    workload = workloads.make(name, size)
    workload.build(seed, spans.Spans(enabled=False))
    seconds = time.perf_counter() - start
    paths.check_imported()
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
