"""Deterministic fault plans: seeded, addressable chaos injection.

A :class:`FaultPlan` is a list of :class:`FaultRule` records, each
naming *where* a fault fires (an obligation index in the farm's batch
queue, a label substring, a pipeline phase, a retry attempt) and *what*
happens there:

* ``delay`` — sleep ``seconds`` before running the obligation (useful
  for forcing real deadline expiries).
* ``raise`` — raise a :class:`~repro.errors.TransientFault` (a generic
  retriable infrastructure failure).
* ``timeout`` — the obligation's deadline expires immediately: it
  yields a TIMEOUT verdict without burning wall-clock time.
* ``corrupt_cache_entry`` — after the verdict is stored, truncate its
  on-disk cache entry, exercising the cache's framing/checksum
  self-healing on the next read.

Rules address a specific ``attempt`` (0 = first execution), so a rule
that raises at attempt 0 lets the retry at attempt 1 succeed — plans
are fully deterministic with no shared mutable state.  The plan's
``seed`` feeds the farm's retry-backoff jitter, making even the sleep
pattern of a chaos run reproducible.

Plans are disabled by default everywhere: the farm only evaluates a
plan when one was explicitly supplied (``armada verify --inject-faults
PLAN.json``), and every hook guards itself with a single ``is None``
test, so the zero-fault hot path pays nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import FaultPlanError

DELAY = "delay"
RAISE = "raise"
TIMEOUT_FAULT = "timeout"
CORRUPT_CACHE_ENTRY = "corrupt_cache_entry"
ACTIONS = (DELAY, RAISE, TIMEOUT_FAULT, CORRUPT_CACHE_ENTRY)

#: Pipeline phases a rule can attach to.
PHASE_EXECUTE = "execute"
PHASE_CACHE_STORE = "cache_store"
PHASES = (PHASE_EXECUTE, PHASE_CACHE_STORE)

#: The phase each action fires in unless the rule says otherwise.
_DEFAULT_PHASE = {
    DELAY: PHASE_EXECUTE,
    RAISE: PHASE_EXECUTE,
    TIMEOUT_FAULT: PHASE_EXECUTE,
    CORRUPT_CACHE_ENTRY: PHASE_CACHE_STORE,
}


@dataclass(frozen=True)
class FaultRule:
    """One addressable fault.

    A rule matches an obligation when every constraint it states holds:
    ``index`` (position in the farm's batch queue), ``label`` (substring
    of the job's ``proof:lemma`` label), and ``attempt`` (which retry;
    ``None`` fires on every attempt — use with care, an always-raising
    rule exhausts the retry budget and the obligation goes UNKNOWN).
    """

    action: str
    index: int | None = None
    label: str | None = None
    phase: str = ""
    attempt: int | None = 0
    #: ``delay``: how long to sleep; ``timeout``: the deadline to report.
    seconds: float = 0.0
    #: ``raise``: the TransientFault message.
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {', '.join(ACTIONS)})"
            )
        phase = self.phase or _DEFAULT_PHASE[self.action]
        if phase not in PHASES:
            raise FaultPlanError(
                f"unknown fault phase {phase!r} "
                f"(expected one of {', '.join(PHASES)})"
            )
        object.__setattr__(self, "phase", phase)
        if self.index is None and self.label is None:
            raise FaultPlanError(
                f"fault rule {self.action!r} must be addressable: "
                "give an obligation index and/or a label substring"
            )

    def matches(self, phase: str, index: int, label: str,
                attempt: int) -> bool:
        if phase != self.phase:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.label is not None and self.label not in label:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def describe(self) -> str:
        where = []
        if self.index is not None:
            where.append(f"index={self.index}")
        if self.label is not None:
            where.append(f"label~{self.label!r}")
        if self.attempt is not None:
            where.append(f"attempt={self.attempt}")
        return f"{self.action}[{', '.join(where)}]"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"action": self.action,
                               "phase": self.phase}
        if self.index is not None:
            out["index"] = self.index
        if self.label is not None:
            out["label"] = self.label
        if self.attempt != 0:
            out["attempt"] = self.attempt
        if self.seconds:
            out["seconds"] = self.seconds
        if self.message:
            out["message"] = self.message
        return out


_RULE_KEYS = {"action", "index", "label", "phase", "attempt",
              "seconds", "message"}


def _rule_from_dict(raw: Any, position: int) -> FaultRule:
    if not isinstance(raw, dict):
        raise FaultPlanError(
            f"fault #{position} is not an object: {raw!r}"
        )
    unknown = set(raw) - _RULE_KEYS
    if unknown:
        raise FaultPlanError(
            f"fault #{position} has unknown keys: "
            + ", ".join(sorted(unknown))
        )
    if "action" not in raw:
        raise FaultPlanError(f"fault #{position} is missing 'action'")
    try:
        return FaultRule(
            action=raw["action"],
            index=raw.get("index"),
            label=raw.get("label"),
            phase=raw.get("phase", ""),
            attempt=raw.get("attempt", 0),
            seconds=float(raw.get("seconds", 0.0)),
            message=str(raw.get("message", "")),
        )
    except (TypeError, ValueError) as error:
        raise FaultPlanError(f"fault #{position}: {error}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable, picklable set of fault rules."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = "<plan>"

    def match(self, phase: str, index: int, label: str,
              attempt: int = 0) -> FaultRule | None:
        """The first rule firing at this site, or None."""
        for rule in self.rules:
            if rule.matches(phase, index, label, attempt):
                return rule
        return None

    def __len__(self) -> int:
        return len(self.rules)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, raw: Any, name: str = "<plan>") -> "FaultPlan":
        if not isinstance(raw, dict):
            raise FaultPlanError(
                "fault plan must be a JSON object with a 'faults' list"
            )
        unknown = set(raw) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                "fault plan has unknown keys: "
                + ", ".join(sorted(unknown))
            )
        faults = raw.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a list")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int):
            raise FaultPlanError("'seed' must be an integer")
        rules = tuple(
            _rule_from_dict(rule, position)
            for position, rule in enumerate(faults)
        )
        return cls(rules=rules, seed=seed, name=name)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Parse a ``--inject-faults`` JSON file into a plan."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise FaultPlanError(f"cannot read fault plan {path}: {error}")
    try:
        raw = json.loads(text)
    except ValueError as error:
        raise FaultPlanError(
            f"fault plan {path} is not valid JSON: {error}"
        )
    return FaultPlan.from_dict(raw, name=str(path))
