"""The four benchmark workloads: ``replay``, ``fleet``, ``strategy-sweep``,
``paper-tables``.

Each workload is a fixed batch of simulated work driven only through
``repro.*`` public functions.  A workload splits one pass into

* ``build()``     — inputs made before the pipeline starts (``setup_s``
  covers importing this module, which imports ``repro``, plus ``build``),
* ``run()``       — the pipeline itself (``wall_s`` times this), and
* ``summarize()`` — turns the run's simulated outputs (and the trace hub,
  when the pass recorded one) into a :class:`PassResult`: a canonical
  digest for identity checks, the bytes that make up TUE, invariant
  outcomes, the values the oracle pins, and the deterministic per-layer
  counts.

Why each workload exists, and which layers it should move, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import SERVICES, AccessMethod
from repro.core import (STRATEGIES, STRATEGY_WORKLOADS, measure_compression,
                        measure_creation, run_strategy_cell)
from repro.fleet import Fleet, schedule_writer_workload
from repro.obs import (AuditViolation, audit_hub, recording,
                       verify_replay_report)
from repro.reporting import (fmt_tue, render_strategy_matrix, render_table,
                             size_cell)
from repro.trace import ReplayPool, generate_trace, replay_all
from repro.units import KB, MB, fmt_size

from spans import Spans

#: Paper values, copied from EXPERIMENTS.md (Table 6 PC column, lines 17–22;
#: Table 8 PC UP/DN for Dropbox and UbuntuOne, lines 76–77).  Table 6 cells
#: are in the repo's binary units (``K`` = 1024 bytes, ``M`` = 1024 K), as
#: EXPERIMENTS.md renders them; Table 8 cells are MB of the same kind.
PAPER_TABLE6_PC = {  # service -> (1 B, 1 KB, 1 MB, 10 MB) in K / K / M / M
    "GoogleDrive": (9, 10, 1.13, 11.2),
    "OneDrive": (19, 20, 1.14, 11.4),
    "Dropbox": (38, 40, 1.28, 12.5),
    "Box": (55, 47, 1.10, 10.6),
    "UbuntuOne": (2, 3, 1.11, 11.2),
    "SugarSync": (9, 19, 1.17, 11.4),
}
PAPER_TABLE8_PC = {  # service -> (PC UP, PC DN) in MB
    "Dropbox": (6.1, 5.5),
    "UbuntuOne": (5.6, 5.3),
}
PAPER_SIZES = (1, KB, MB, 10 * MB)

Invariant = Tuple[str, bool, str]


@dataclass
class PassResult:
    """What one pass produced, as far as the checks and metrics need it."""

    digest: str
    update_bytes: int
    traffic_bytes: int
    invariants: List[Invariant] = field(default_factory=list)
    oracle_view: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: The ``repro.obs`` trace hub the pipeline recorded into, if any.
    hub: Optional[Any] = None

    @property
    def tue(self) -> float:
        return self.traffic_bytes / self.update_bytes


def canonical_digest(value: Any) -> str:
    """sha256 of a canonical rendering of simulated outputs."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def audited(name: str, audit: Callable[[], None]) -> Invariant:
    """Run one ``repro.obs`` audit as an invariant check."""
    try:
        audit()
    except AuditViolation as violation:
        return name, False, str(violation)
    return name, True, ""


def hub_wire_bytes(hub) -> Tuple[int, int]:
    """(overhead, total) bytes over every wire span a trace hub recorded."""
    overhead = total = 0
    for recorder in hub.recorders:
        for span in recorder.spans:
            if span.wire and span.delta is not None:
                overhead += span.delta.overhead
                total += span.delta.total
    return overhead, total


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """Base: subclasses fill in the three steps and the two sizes."""

    name = ""
    #: The seed the committed artifacts were made with; only on this seed
    #: are the pinned oracles compared.
    default_seed = 0
    #: Run the traced pass under ``repro.obs.recording()`` so span counts
    #: exist for it (workloads whose pipeline records anyway leave this off).
    record_when_traced = False
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, size: str = "full") -> None:
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r} for {self.name}")
        self.size = size
        self.params = self.SIZES[size]

    def build(self, seed: int, spans: Spans) -> Any:
        return seed

    def run(self, inputs: Any, spans: Spans) -> Any:
        raise NotImplementedError

    def summarize(self, state: Any, hub: Optional[Any]) -> PassResult:
        raise NotImplementedError


class Replay(Workload):
    """``repro replay``: generate the trace, replay it over the six PC
    profiles through one 2-worker fork pool, render the table."""

    name = "replay"
    default_seed = 42
    #: The trace stands in for the paper's one fixed real-world trace, so it
    #: is always the seed-42 twin; the workload seed drives the replay's own
    #: draws.  Across trace seeds the update bytes at scale 0.25 swing by
    #: ±15% (a few heavy users dominate), which would swamp a speed change.
    TRACE_SEED = 42
    #: Two workers: the host has two cores, and 2-worker passes are steady
    #: where in-process sequential replay is not (see README).
    WORKERS = 2
    SIZES = {"full": {"scale": 0.25}, "tiny": {"scale": 0.01}}

    def run(self, seed: int, spans: Spans) -> Any:
        cpu_before = children_cpu_s()
        with spans.span("trace.generate_s"):
            trace = generate_trace(scale=self.params["scale"],
                                   seed=self.TRACE_SEED)
        with spans.span("replay.pool_start_s"):
            pool = ReplayPool(trace, workers=self.WORKERS)
        try:
            with spans.span("replay.replay_s"):
                reports = replay_all(trace, seed=seed, pool=pool)
        finally:
            pool.close()
        rows = [[r.service, fmt_size(r.traffic_bytes), fmt_tue(r.tue),
                 fmt_size(r.saved_by_compression),
                 fmt_size(r.saved_by_dedup), fmt_size(r.saved_by_bds),
                 fmt_size(r.saved_by_ids)] for r in reports]
        table = render_table(
            ["Service", "Traffic", "TUE", "Δcompress", "Δdedup", "Δbds",
             "Δids"], rows,
            title=f"Macro replay (scale {self.params['scale']:g}, "
                  f"{len(trace)} files, pc)")
        return reports, table, len(trace), children_cpu_s() - cpu_before

    def summarize(self, state: Any, hub: Optional[Any]) -> PassResult:
        reports, table, files, worker_cpu = state
        invariants = []
        for report in reports:
            violations = verify_replay_report(report)
            invariants.append((f"replay-conservation:{report.service}",
                               not violations,
                               "; ".join(str(v) for v in violations)))
        saved = {kind: sum(getattr(r, f"saved_by_{kind}") for r in reports)
                 for kind in ("compression", "dedup", "bds", "ids")}
        traffic = sum(r.traffic_bytes for r in reports)
        would_be = traffic + sum(saved.values())
        counts = {f"replay.saved_frac.{kind}": value / would_be
                  for kind, value in saved.items()}
        counts.update({
            "simnet.overhead_frac":
                sum(r.overhead_bytes for r in reports) / traffic,
            "replay.files": files * len(reports),
            "replay.worker_cpu_s": worker_cpu,
        })
        view = {
            "files": files,
            "total_traffic": traffic,
            "services": {r.service: {
                "data_update_bytes": r.data_update_bytes,
                "traffic_bytes": r.traffic_bytes,
                "overhead_bytes": r.overhead_bytes,
                "saved_by_compression": r.saved_by_compression,
                "saved_by_dedup": r.saved_by_dedup,
                "saved_by_bds": r.saved_by_bds,
                "saved_by_ids": r.saved_by_ids,
            } for r in reports},
        }
        return PassResult(
            digest=canonical_digest([asdict(r) for r in reports] + [table]),
            update_bytes=sum(r.data_update_bytes for r in reports),
            traffic_bytes=traffic, invariants=invariants,
            oracle_view=view, counts=counts)


class FleetRun(Workload):
    """The ``bench_fleet.py`` 10,000-client point: GoogleDrive, 2 writers ×
    1 file × 16 KB, one event queue, stepped by hand."""

    name = "fleet"
    default_seed = 42
    record_when_traced = True
    SIZES = {"full": {"clients": 10_000}, "tiny": {"clients": 50}}
    SERVICE = "GoogleDrive"

    def build(self, seed: int, spans: Spans) -> Any:
        with spans.span("fleet.build_s"):
            fleet = Fleet(self.SERVICE, clients=self.params["clients"],
                          seed=seed)
            schedule_writer_workload(fleet, writers=2, files_per_writer=1,
                                     file_size=16 * KB, seed=seed)
        return fleet

    def run(self, fleet: Any, spans: Spans) -> Any:
        events = 0
        with spans.span("fleet.run_s"):
            while fleet.sim.step():
                events += 1
        with spans.span("fleet.report_s"):
            report = fleet.report()
        return fleet, report, events

    def summarize(self, state: Any, hub: Optional[Any]) -> PassResult:
        fleet, report, events = state
        invariants: List[Invariant] = [
            ("fleet-converged", fleet.converged(), "members diverged")]
        if hub is not None:
            # Conservation over every member plus the fan-out ledger.
            invariants.append(audited("fleet-audit", fleet.audit))
        merged = report.merged
        members = report.members
        counts = {
            "fleet.events": events,
            "fleet.notifications": sum(m.notifications for m in members),
            "fleet.fanout_fetches": sum(m.fanout_fetches for m in members),
            "fleet.suppressed": sum(m.suppressed for m in members),
            "simnet.overhead_frac": (merged.up_overhead
                                     + merged.down_overhead) / merged.total,
        }
        view = {"events": events, "traffic_bytes": report.traffic_bytes,
                "update_bytes": report.update_bytes}
        return PassResult(
            digest=canonical_digest(repr(report)),
            update_bytes=report.update_bytes,
            traffic_bytes=report.traffic_bytes, invariants=invariants,
            oracle_view=view, counts=counts)


class StrategySweep(Workload):
    """Experiment 11 on the LTE link: 5 strategies × 3 workloads, files=3,
    under ``recording()`` plus ``audit_hub``."""

    name = "strategy-sweep"
    default_seed = 0
    #: One of Experiment 11's three links, so a pass fits the run budget;
    #: CPU work per cell does not depend on the link (see README).
    LINK = "lte"
    SIZES = {"full": {"files": 3}, "tiny": {"files": 1}}

    def run(self, seed: int, spans: Spans) -> Any:
        cells = []
        with recording() as hub:
            for workload in STRATEGY_WORKLOADS:
                for strategy in STRATEGIES:
                    with spans.span(f"exp11.cell_s.{strategy}"):
                        cells.append(run_strategy_cell(
                            strategy, workload, self.LINK,
                            files=self.params["files"], seed=seed))
        with spans.span("obs.audit_s"):
            audit = audited("audit_hub", lambda: audit_hub(hub))
        rendered = render_strategy_matrix(
            cells, title=f"Experiment 11 — sync strategies (seed {seed})")
        return cells, rendered, hub, audit

    def summarize(self, state: Any, hub: Optional[Any]) -> PassResult:
        cells, rendered, sweep_hub, audit = state
        overhead, wire = hub_wire_bytes(sweep_hub)
        update = sum(c.update_bytes for c in cells)
        counts = {
            "simnet.overhead_frac": overhead / wire,
            "client.strategy_payload_frac":
                sum(c.strategy_payload for c in cells) / update,
        }
        view = {"cells": {
            f"{c.workload}/{c.link}/{c.strategy}": {
                "files": c.files, "update_bytes": c.update_bytes,
                "traffic": c.traffic, "strategy_payload": c.strategy_payload,
                "round_trips": c.round_trips, "cpu_units": c.cpu_units,
            } for c in cells}}
        return PassResult(
            digest=canonical_digest([asdict(c) for c in cells]
                                    + [rendered]),
            update_bytes=update, traffic_bytes=sum(c.traffic for c in cells),
            invariants=[audit], oracle_view=view, counts=counts,
            hub=sweep_hub)


class PaperTables(Workload):
    """Table 6 (6 services × 3 access methods × 4 sizes) plus the Table 8
    PC column for the two compressing services (10 MB text, UP then DN)."""

    name = "paper-tables"
    #: Table 6 content seed; Table 8 text uses ``seed + 3`` (4 by default),
    #: the seeds ``measure_creation`` / ``measure_compression`` default to.
    default_seed = 1
    record_when_traced = True
    SIZES = {
        "full": {"sizes": PAPER_SIZES, "text_size": 10 * MB},
        "tiny": {"sizes": (1, KB), "text_size": 64 * KB},
    }
    #: Table 8 services: the two whose paper cells ``paper_err`` compares.
    TABLE8_SERVICES = tuple(PAPER_TABLE8_PC)

    def run(self, seed: int, spans: Spans) -> Any:
        sizes = self.params["sizes"]
        with spans.span("table6_s"):
            cells = {(service, access, size): measure_creation(
                         service, access, size, seed=seed)
                     for service in SERVICES
                     for access in AccessMethod
                     for size in sizes}
            texts = {access.value: render_table(
                ["Service"] + [fmt_size(s) for s in sizes],
                [[service] + [size_cell(cells[service, access, s].traffic)
                              for s in sizes]
                 for service in SERVICES],
                title=f"Table 6 — creation sync traffic "
                      f"({access.value} client)")
                for access in AccessMethod}
        with spans.span("table8_s"):
            rows = {service: measure_compression(
                        service, AccessMethod.PC,
                        size=self.params["text_size"], seed=seed + 3)
                    for service in self.TABLE8_SERVICES}
            table8 = render_table(
                ["Service", "PC UP", "PC DN"],
                [[s] + mb_cells(r) for s, r in rows.items()],
                title="Table 8 — 10-MB text file sync traffic (MB), PC")
        return cells, texts, rows, table8

    def summarize(self, state: Any, hub: Optional[Any]) -> PassResult:
        cells, texts, rows, table8 = state
        invariants = [] if hub is None else [
            audited("audit_hub", lambda: audit_hub(hub))]
        update = sum(size for (_, _, size) in cells) \
            + 2 * len(rows) * self.params["text_size"]
        traffic = sum(c.traffic for c in cells.values()) \
            + sum(r.upload_traffic + r.download_traffic
                  for r in rows.values())
        view = {
            "table6": {f"{s}/{a.value}/{size}": {"traffic": c.traffic,
                                                 "overhead": c.overhead}
                       for (s, a, size), c in cells.items()},
            "table6_text": texts,
            "table8": {s: {"upload": r.upload_traffic,
                           "download": r.download_traffic}
                       for s, r in rows.items()},
            "table8_pc_mb": {s: mb_cells(r) for s, r in rows.items()},
        }
        overhead = sum(c.overhead for c in cells.values())
        creation_traffic = sum(c.traffic for c in cells.values())
        counts = {"paper_err": self.paper_err(cells, rows),
                  "simnet.overhead_frac": overhead / creation_traffic}
        return PassResult(
            digest=canonical_digest({"view": view, "table8": table8}),
            update_bytes=update, traffic_bytes=traffic,
            invariants=invariants, oracle_view=view, counts=counts)

    def paper_err(self, cells, rows) -> float:
        """Median |measured − paper| ÷ paper over the paper cells run."""
        units = (KB, KB, MB, MB)
        errors = []
        for service, values in PAPER_TABLE6_PC.items():
            for size, value, unit in zip(PAPER_SIZES, values, units):
                cell = cells.get((service, AccessMethod.PC, size))
                if cell is not None:
                    paper = value * unit
                    errors.append(abs(cell.traffic - paper) / paper)
        if self.params["text_size"] == 10 * MB:
            for service, (up, down) in PAPER_TABLE8_PC.items():
                row = rows[service]
                for measured, value in ((row.upload_traffic, up),
                                        (row.download_traffic, down)):
                    paper = value * MB
                    errors.append(abs(measured - paper) / paper)
        return statistics.median(errors)


def mb_cells(row) -> List[str]:
    """A Table 8 row's PC UP / PC DN cells as the committed table prints."""
    return [f"{row.upload_traffic / MB:.1f}",
            f"{row.download_traffic / MB:.1f}"]


WORKLOADS = {w.name: w for w in (Replay, FleetRun, StrategySweep,
                                 PaperTables)}


def make(name: str, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} "
                         f"(one of {', '.join(WORKLOADS)})")
    return WORKLOADS[name](size)
