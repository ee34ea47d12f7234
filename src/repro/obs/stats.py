"""Trace aggregation: JSONL traces → per-obligation/per-phase tables.

This is the analysis half of :mod:`repro.obs`: it reads a trace written
by ``armada verify --trace FILE`` and reduces it to the report the
``armada stats`` subcommand renders — how many obligations ran, where
their wall-clock went phase by phase, and what the counters/histograms
accumulated.  Output ordering is deterministic (rows sort by label, key
sets are stable), so two traces of the same program diff cleanly and
the aggregate doubles as a regression fixture.
"""

from __future__ import annotations

import json

from repro.obs.core import (
    KIND_CHAIN,
    KIND_OBLIGATION,
    KIND_PHASE,
    KIND_PROOF,
    KIND_STRATEGY,
)
from repro.record import Fresh, Record

#: Fixed rendering order for the span-kind rows of the phase table.
_KIND_ORDER = (KIND_CHAIN, KIND_PROOF, KIND_STRATEGY, KIND_OBLIGATION)


class TraceError(Exception):
    """A trace file that cannot be read or parsed."""


def load_trace(path: str) -> list[dict]:
    """Parse one JSONL trace file into its records.

    Blank lines are skipped; a malformed line raises :class:`TraceError`
    (a trace is machine-written — corruption should fail loudly).
    """
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as error:
                    raise TraceError(
                        f"{path}:{number}: not valid JSON ({error})"
                    )
                if not isinstance(record, dict):
                    raise TraceError(
                        f"{path}:{number}: expected an object"
                    )
                records.append(record)
    except OSError as error:
        raise TraceError(f"cannot read {path}: {error}")
    return records


class TraceStats(Record):
    """The aggregate of one trace (the ``armada stats`` payload)."""

    events: int = 0
    format: str | None = None
    chain: dict | None = None
    proofs: list[dict] = Fresh(list)
    obligations: list[dict] = Fresh(list)
    phases: list[dict] = Fresh(list)
    counters: dict = Fresh(dict)
    histograms: dict = Fresh(dict)
    #: Distinct memory-model names tagged on the trace's spans.
    memory_models: list[str] = Fresh(list)

    # ------------------------------------------------------------------

    @property
    def obligation_total(self) -> int:
        return len(self.obligations)

    @property
    def obligation_cached(self) -> int:
        return sum(1 for row in self.obligations if row["cached"])

    def to_dict(self) -> dict:
        """The stable ``--json`` schema."""
        return {
            "format": self.format,
            "events": self.events,
            "chain": self.chain,
            "proofs": self.proofs,
            "obligations": {
                "total": self.obligation_total,
                "cached": self.obligation_cached,
                "executed": self.obligation_total - self.obligation_cached,
                "seconds": round(
                    sum(row["seconds"] for row in self.obligations), 6
                ),
                "rows": self.obligations,
            },
            "phases": self.phases,
            "counters": self.counters,
            "histograms": self.histograms,
            "memory_models": self.memory_models,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # ------------------------------------------------------------------

    def render_text(self) -> str:
        lines: list[str] = [f"trace: {self.events} events"
                            + (f" [{self.format}]" if self.format else "")]
        if self.chain is not None:
            lines.append(
                f"chain: {self.chain['name']} "
                f"({self.chain['seconds']:.3f}s)"
            )
        if self.memory_models:
            lines.append(
                "memory model: " + ", ".join(self.memory_models)
            )
        for row in self.proofs:
            lines.append(
                f"  proof {row['name']} [{row.get('low', '?')} -> "
                f"{row.get('high', '?')}]: {row['seconds']:.3f}s"
            )
        lines.append(
            f"obligations: {self.obligation_total} "
            f"({self.obligation_cached} from cache, "
            f"{self.obligation_total - self.obligation_cached} executed)"
        )
        if self.phases:
            lines.append("per-phase totals:")
            width = max(len(row["phase"]) for row in self.phases)
            lines.append(
                f"  {'phase'.ljust(width)}  {'spans':>6}  {'seconds':>9}"
            )
            for row in self.phases:
                lines.append(
                    f"  {row['phase'].ljust(width)}  "
                    f"{row['spans']:>6}  {row['seconds']:>9.3f}"
                )
        if self.obligations:
            lines.append("per-obligation:")
            for row in sorted(
                self.obligations, key=lambda r: -r["seconds"]
            )[:15]:
                mark = "cache" if row["cached"] else "ran"
                lines.append(
                    f"  {row['seconds']:>9.3f}s  [{mark:>5}]  "
                    f"{row['label']}"
                )
            hidden = len(self.obligations) - 15
            if hidden > 0:
                lines.append(f"  ... {hidden} more")
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name} = {self.counters[name]}")
        if self.histograms:
            lines.append("histograms:")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name}: n={h['count']} sum={h['sum']:.6f} "
                    f"min={h['min']:.6f} max={h['max']:.6f}"
                )
        return "\n".join(lines)


def aggregate(records: list[dict]) -> TraceStats:
    """Reduce trace records to a :class:`TraceStats`."""
    stats = TraceStats(events=len(records))
    phase_totals: dict[str, list] = {}  # name -> [spans, seconds]
    models: set[str] = set()
    for record in records:
        rtype = record.get("type")
        if rtype == "meta":
            stats.format = record.get("format")
        elif rtype == "span":
            _fold_span(stats, phase_totals, record)
            model = (record.get("attrs") or {}).get("memory_model")
            if model:
                models.add(str(model))
        elif rtype == "counters":
            _merge_counters(stats, record.get("counters") or {})
            _merge_histograms(stats, record.get("histograms") or {})
    stats.obligations.sort(key=lambda row: row["label"])
    stats.proofs.sort(key=lambda row: row["name"])
    ordered: list[dict] = []
    for key in _KIND_ORDER:
        if key in phase_totals:
            spans, seconds = phase_totals.pop(key)
            ordered.append({
                "phase": key, "spans": spans,
                "seconds": round(seconds, 6),
            })
    for key in sorted(phase_totals):
        spans, seconds = phase_totals[key]
        ordered.append({
            "phase": key, "spans": spans, "seconds": round(seconds, 6),
        })
    stats.phases = ordered
    stats.memory_models = sorted(models)
    return stats


def aggregate_file(path: str) -> TraceStats:
    return aggregate(load_trace(path))


def _fold_span(stats: TraceStats, phase_totals: dict,
               record: dict) -> None:
    kind = record.get("kind")
    name = record.get("name", "")
    seconds = float(record.get("seconds") or 0.0)
    counters = record.get("counters") or {}
    histograms = record.get("histograms") or {}
    _merge_counters(stats, counters)
    _merge_histograms(stats, histograms)
    if kind == KIND_PHASE:
        key = name
    else:
        key = kind if isinstance(kind, str) else "unknown"
    cells = phase_totals.setdefault(key, [0, 0.0])
    cells[0] += 1
    cells[1] += seconds
    if kind == KIND_CHAIN and stats.chain is None:
        stats.chain = {"name": name, "seconds": round(seconds, 6)}
    elif kind == KIND_PROOF:
        attrs = record.get("attrs") or {}
        stats.proofs.append({
            "name": name,
            "low": attrs.get("low"),
            "high": attrs.get("high"),
            "seconds": round(seconds, 6),
        })
    elif kind == KIND_OBLIGATION:
        attrs = record.get("attrs") or {}
        stats.obligations.append({
            "label": name,
            "seconds": round(seconds, 6),
            "cached": bool(attrs.get("cached")),
            "counters": dict(counters),
        })


def _merge_counters(stats: TraceStats, counters: dict) -> None:
    for name, value in counters.items():
        stats.counters[name] = stats.counters.get(name, 0) + value


def _merge_histograms(stats: TraceStats, histograms: dict) -> None:
    for name, summary in histograms.items():
        merged = stats.histograms.get(name)
        if merged is None:
            stats.histograms[name] = {
                "count": summary.get("count", 0),
                "sum": summary.get("sum", 0.0),
                "min": summary.get("min", 0.0),
                "max": summary.get("max", 0.0),
            }
            continue
        merged["count"] += summary.get("count", 0)
        merged["sum"] += summary.get("sum", 0.0)
        merged["min"] = min(merged["min"], summary.get("min", 0.0))
        merged["max"] = max(merged["max"], summary.get("max", 0.0))
