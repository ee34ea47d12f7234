"""Structured findings for the analyzer, with text and JSON rendering.

A finding couples one shared location's verdict with its evidence: the
witness access pair for a confirmed race, the store/load pair for a
TSO-sensitivity flag, and any validated ownership suggestion.  Severity
is ordinal:

``high``    confirmed race (dynamic witness in hand).
``medium``  statically racy but not cross-checked (no/partial scan).
``low``     TSO-sensitivity flag, benign-race downgrade notes.
``info``    everything else (classification bookkeeping).
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.ownership import OwnershipSuggestion
from repro.analysis.robustness import Classification, LocationVerdict
from repro.record import Fresh, Record

_SEVERITY_ORDER = {"high": 0, "medium": 1, "low": 2, "info": 3}


class Finding(Record):
    severity: str
    location: str
    classification: str
    message: str
    witness: str | None = None
    tso: str | None = None
    suggestion: str | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "severity": self.severity,
            "location": self.location,
            "classification": self.classification,
            "message": self.message,
        }
        if self.witness:
            data["witness"] = self.witness
        if self.tso:
            data["tso_witness"] = self.tso
        if self.suggestion:
            data["suggestion"] = self.suggestion
        return data


class AnalysisReport(Record):
    level: str
    findings: list[Finding] = Fresh(list)
    stats: dict[str, Any] = Fresh(dict)

    # ------------------------------------------------------------------

    @property
    def racy_locations(self) -> list[str]:
        return sorted(
            f.location for f in self.findings
            if f.classification == Classification.RACY.value
        )

    def sorted_findings(self) -> list[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (_SEVERITY_ORDER.get(f.severity, 9), f.location),
        )

    # ------------------------------------------------------------------

    def render_text(self) -> str:
        lines = [f"analysis of level {self.level}:"]
        for f in self.sorted_findings():
            lines.append(
                f"  [{f.severity:<6}] {f.location}: "
                f"{f.classification} — {f.message}"
            )
            if f.witness:
                lines.append(f"           witness: {f.witness}")
            if f.tso:
                lines.append(f"           tso: {f.tso}")
            if f.suggestion:
                lines.append(f"           suggest: {f.suggestion}")
        if self.stats:
            scan = self.stats.get("dynamic_states")
            if scan is not None:
                coverage = (
                    "complete" if self.stats.get("dynamic_complete")
                    else "INCOMPLETE"
                )
                lines.append(
                    f"  dynamic cross-check: {scan} states "
                    f"({coverage})"
                )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "level": self.level,
                "findings": [f.to_dict() for f in self.sorted_findings()],
                "stats": self.stats,
            },
            indent=2,
            sort_keys=True,
        )


def build_report(
    level: str,
    verdicts: dict[str, LocationVerdict],
    suggestions: list[OwnershipSuggestion],
    stats: dict[str, Any] | None = None,
) -> AnalysisReport:
    suggestion_of = {
        s.location: s for s in suggestions if s.validated
    }
    report = AnalysisReport(level=level, stats=dict(stats or {}))
    for name, verdict in sorted(verdicts.items()):
        report.findings.append(
            _finding_of(verdict, suggestion_of.get(name))
        )
    return report


def _finding_of(
    verdict: LocationVerdict,
    suggestion: OwnershipSuggestion | None,
) -> Finding:
    cls = verdict.classification
    witness = verdict.witness.describe() if verdict.witness else None
    tso = verdict.tso.describe() if verdict.tso else None
    suggest_text = None
    if suggestion is not None:
        suggest_text = f'tso_elim {verdict.name} "{suggestion.predicate}"'
    if cls is Classification.RACY:
        if verdict.dynamic == "confirmed":
            severity = "high"
            message = (
                "data race confirmed by the bounded dynamic scan"
            )
        else:
            severity = "medium"
            message = (
                "statically racy; dynamic cross-check "
                f"{verdict.dynamic}"
            )
    elif cls is Classification.ORDERED:
        severity = "low"
        message = (
            "statically racy, but no conflicting accesses are ever "
            "simultaneously enabled in the bounded state space "
            "(ordered by program logic)"
        )
    elif cls is Classification.LOCK_PROTECTED:
        severity = "info"
        message = "consistently protected by " + ", ".join(verdict.locks)
    elif cls is Classification.THREAD_LOCAL:
        severity = "info"
        message = "accessed by a single thread context"
        if verdict.dynamic == "confirmed":
            message += " (dynamically corroborated)"
    elif cls is Classification.ATOMIC:
        severity = "info"
        message = "accessed only with drained-store-buffer atomics"
    elif cls is Classification.READ_ONLY:
        severity = "info"
        message = "never written after initialization"
    else:
        severity = "info"
        message = "no reachable accesses"
    if tso and severity in ("info",):
        severity = "low"
    return Finding(
        severity=severity,
        location=verdict.name,
        classification=cls.value,
        message=message,
        witness=witness,
        tso=tso,
        suggestion=suggest_text,
    )
