"""The layer-attributed benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay --seed 42 --seconds 25 --trace 0

``--trace 0`` times passes with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes one untraced and one profiled pass and prints
the per-layer metrics.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give the host fingerprint and per-pass timings, and the full record is
written to ``.perfbench/`` in the checkout.  Exits 1 when a check fails and
2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import paths

OUT_DIR = paths.HERE.parent / ".perfbench"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "fleet", "strategy-sweep",
                                 "paper-tables"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed the "
                             "committed artifacts were made with)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget; at least two passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The replay pool joins its workers when it closes, but it also starts
    the ``multiprocessing`` resource tracker, which otherwise exits only
    after this process does: close its pipe and wait for it here, so no
    process outlives the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return measure(parse(argv))
    finally:
        stop_children()


def measure(args) -> int:
    try:
        paths.use_checkout_sources()
        import harness
        paths.check_imported()
    except (paths.MissingSources, ImportError) as error:
        print(f"perfbench: cannot measure this checkout: {error}",
              file=sys.stderr)
        return 2
    runner = harness.Runner(args.workload, args.seed, args.seconds)
    record = runner.execute(traced=bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{runner.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("host " + json.dumps(record["host"]))
    detail = record["detail"]
    print("passes " + json.dumps({k: detail[k] for k in
                                  ("walls", "builds", "setups")
                                  if k in detail}))
    for failure in record["failures"]:
        print("FAILED " + failure.splitlines()[-1][:300])
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
