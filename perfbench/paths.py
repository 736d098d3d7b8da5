"""Locate the ``repro`` sources of the checkout this benchmark sits in.

The benchmark must measure the checkout's own ``src/repro``, never an
installed copy, so it puts ``src`` first on ``sys.path`` and refuses to run
when the sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class MissingSources(RuntimeError):
    pass


def use_checkout_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSources(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported() -> None:
    """After ``import repro``: it must be the checkout's copy."""
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSources(f"repro imported from {origin}, not {SRC}")
