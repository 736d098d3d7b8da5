"""The benchmark's own stopwatch spans around calls into ``repro``.

A span is (name, start, end, parent).  Spans stay in memory and are written
out with the traced run's result file.  A disabled recorder hands out one
shared no-op context, so untraced passes pay nothing for the ``with``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int]]


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            _, start, _, _ = self.records[index]
            self.records[index] = (name, start, time.perf_counter(), parent)

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_list(self) -> List[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.records]


_NULL = contextlib.nullcontext()
