"""Charge a cProfile run's self time to the ``repro`` layer that spent it.

A layer is a module of ``src/repro``: ``trace.generator``, ``simnet.meter``,
``content`` and so on (see :data:`LAYERS`).  Time a profiled function spends
in its own body goes to its layer when the function is ``repro`` code.  Time
spent in stdlib, builtin or numpy code goes to the **nearest calling repro
frame**, not the immediate caller: ``random.choices`` called by a helper in
``random`` called by ``repro.content`` belongs to ``content``.  Charging the
immediate caller only left a quarter to a half of the time as "other".

cProfile keeps caller edges, not whole stacks, so a non-repro function's
self time is split over its callers in proportion to the time each edge
carried, and a non-repro caller passes its share on to its own callers in
proportion to their cumulative time.  Non-repro functions that call each
other in a cycle (recursive stdlib code such as the json encoder) are one
node for that purpose: the cycle's share is the blend of the callers from
outside it.  The split is exact on call trees and proportional where one
stdlib function serves several layers.  Time with no repro frame above it
(the benchmark's own code) is ``unattributed``.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: Layers the benchmark reports, in a fixed order.  Every ``repro`` module
#: maps to exactly one of them, so the layer times partition charged time.
LAYERS = (
    "trace.generator",
    "trace.replay",
    "trace.other",
    "chunking.cdc",
    "chunking.fixed",
    "delta",
    "compress",
    "content",
    "simnet.clock",
    "simnet.protocol",
    "simnet.meter",
    "simnet.link",
    "simnet.other",
    "fleet",
    "client",
    "cloud",
    "obs",
    "reporting",
    "core",
    "fsim",
    "other",
)
UNATTRIBUTED = "unattributed"

_SPLIT_PACKAGES = {"trace", "simnet", "chunking"}

FuncKey = Tuple[str, int, str]
#: Function → ``[cc, nc, tt, ct, callers]`` as in ``pstats.Stats.stats``,
#: where ``callers[c] = [cc, nc, tt, ct]`` is the part of the function's
#: time spent under calls from ``c``.
Table = Dict[FuncKey, list]


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a source file belongs to, or '' for non-repro code."""
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return ""
    parts = filename[len(prefix):].split(os.sep)
    head = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if head in _SPLIT_PACKAGES and len(parts) > 1:
        name = f"{head}.{parts[1][:-3]}"
        return name if name in LAYERS else f"{head}.other"
    return head if head in LAYERS else "other"


def profile_table(profiler: cProfile.Profile) -> Table:
    """The profiler's per-function table, keyed like ``pstats``.

    ``pstats.Stats`` keeps one entry per ``(file, line, name)`` label and
    lets a later code object overwrite an earlier one with the same label,
    which drops time: every dataclass-generated ``__init__`` is
    ``('<string>', 2, '__init__')``.  Here such entries are summed.
    """
    entries = profiler.getstats()
    table: Table = {}
    for entry in entries:
        row = table.setdefault(cProfile.label(entry.code), [0, 0, 0.0, 0.0, {}])
        _add(row, (entry.callcount - entry.reccallcount, entry.callcount,
                   entry.inlinetime, entry.totaltime))
    for entry in entries:
        caller = cProfile.label(entry.code)
        for sub in entry.calls or ():
            callee = table.setdefault(cProfile.label(sub.code),
                                      [0, 0, 0.0, 0.0, {}])
            edge = callee[4].setdefault(caller, [0, 0, 0.0, 0.0])
            _add(edge, (sub.callcount - sub.reccallcount, sub.callcount,
                        sub.inlinetime, sub.totaltime))
    return table


def _add(row: list, values: Tuple[int, int, float, float]) -> None:
    for i, value in enumerate(values):
        row[i] += value


def layer_self_times(table: Table, repro_dir: str) -> Dict[str, float]:
    """Self seconds per layer, plus ``unattributed`` for the rest."""
    layer_cache: Dict[FuncKey, str] = {}

    def layer(func: FuncKey) -> str:
        if func not in layer_cache:
            layer_cache[func] = layer_of(func[0], repro_dir)
        return layer_cache[func]

    def callers(func: FuncKey) -> dict:
        return table[func][4] if func in table else {}

    outside = [func for func in table if not layer(func)]
    component = _components(
        outside, lambda func: [c for c in callers(func) if not layer(c)])
    members: Dict[FuncKey, List[FuncKey]] = {}
    for func, root in component.items():
        members.setdefault(root, []).append(func)
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share_of(func: FuncKey) -> Dict[str, float]:
        """Where time inside ``func``'s subtree is charged, as fractions."""
        own = layer(func)
        if own:
            return {own: 1.0}
        root = component[func]
        if root not in shares:
            weights: Dict[FuncKey, float] = {}
            for member in members[root]:
                for caller, edge in callers(member).items():
                    if component.get(caller) != root:
                        weights[caller] = weights.get(caller, 0.0) + edge[3]
            shares[root] = _mix(weights, share_of)
        return shares[root]

    totals = {name: 0.0 for name in LAYERS + (UNATTRIBUTED,)}
    for func, (_cc, _nc, tt, _ct, func_callers) in table.items():
        if tt <= 0:
            continue
        own = layer(func)
        if own:
            totals[own] += tt
            continue
        weights = {caller: edge[2] for caller, edge in func_callers.items()
                   if caller != func}
        for name, share in _mix(weights, share_of).items():
            totals[name] += tt * share
    return totals


def _components(nodes: Iterable[FuncKey],
                successors: Callable[[FuncKey], List[FuncKey]]
                ) -> Dict[FuncKey, FuncKey]:
    """Strongly connected components (Tarjan, without recursion): each node
    maps to its component's root node."""
    index: Dict[FuncKey, int] = {}
    low: Dict[FuncKey, int] = {}
    stack: List[FuncKey] = []
    on_stack = set()
    component: Dict[FuncKey, FuncKey] = {}
    # Depth-first path: each node with its callers still to visit.
    work: List[Tuple[FuncKey, Iterator[FuncKey]]] = []

    def visit(node: FuncKey) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(successors(node))))

    for start in nodes:
        if start in index:
            continue
        visit(start)
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index:
                    visit(nxt)
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component[member] = node
                        if member == node:
                            break
    return component


def _mix(weights: Dict[FuncKey, float], share_of) -> Dict[str, float]:
    """Blend callers' charge shares by edge weight; no caller → unattributed."""
    total = sum(weights.values())
    if total <= 0:
        # Equal weights when every edge carried no measurable time.
        weights = {caller: 1.0 for caller in weights}
        total = float(len(weights))
    if not weights:
        return {UNATTRIBUTED: 1.0}
    mixed: Dict[str, float] = {}
    for caller, weight in weights.items():
        for name, share in share_of(caller).items():
            mixed[name] = mixed.get(name, 0.0) + share * weight / total
    return mixed
