"""Incremental re-verification for the serve daemon.

Armada's proof effort is already spread across many small, independently
dischargeable obligations, each content-addressed in the proof cache.
The serve daemon builds one more reuse layer on top — at *proof*
granularity — and an explanation layer beside it:

* :class:`OutcomeCache` maps :meth:`ProofEngine.proof_key` — a
  structural hash of both level machines, the full recipe, the prover
  configuration, and the toolchain version — to the finished
  :class:`~repro.proofs.engine.ProofOutcome`.  A hit skips script
  generation, every lemma obligation, *and* the whole-program bounded
  refinement check (which the lemma-level cache cannot cover, because
  its input is a pair of state machines rather than lemma text).  The
  soundness argument is the cache's, one level up: equal keys mean the
  re-run would perform byte-identical checks, so replaying the stored
  outcome is indistinguishable from re-computing it.  Only settled
  outcomes are stored; inconclusive ones (timeouts, drains) must be
  retried.  The cache is in-memory: outcomes hold live lemma/script
  objects whose obligation closures do not survive pickling.  Across
  daemon restarts the persistent lemma cache still makes
  re-verification warm.

* :class:`FingerprintIndex` remembers, per tenant-visible program
  ``name``, the per-level machine fingerprints of the last submission.
  Diffing a new submission against it yields the *changed level set*
  and therefore the *invalidated proof set* (exactly the proofs whose
  low or high side changed).  The diff is reporting and metrics — the
  outcome/lemma caches enforce correctness by content address alone —
  but it is what makes the daemon's answer to "what will this edit
  cost me?" precise: editing one level re-verifies only the proofs
  that touch it.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro.record import Fresh, Record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.proofs.engine import ProofOutcome


class OutcomeCache:
    """In-memory, thread-safe proof-outcome store with LRU bound."""

    def __init__(self, max_entries: int = 4096) -> None:
        self._entries: dict[str, "ProofOutcome"] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def get(self, key: str) -> "ProofOutcome | None":
        with self._lock:
            outcome = self._entries.get(key)
            if outcome is None:
                self.misses += 1
                return None
            # dict preserves insertion order; re-inserting marks recency.
            del self._entries[key]
            self._entries[key] = outcome
            self.hits += 1
            return outcome

    def put(self, key: str, outcome: "ProofOutcome") -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = outcome
            self.stores += 1
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }


class LevelDiff(Record):
    """What one resubmission changed, in machine-semantics terms."""

    #: Levels whose machine fingerprint differs from the index (or are
    #: new); their proofs must re-verify.
    changed: list[str] = Fresh(list)
    #: Levels whose fingerprint matches the previous submission.
    unchanged: list[str] = Fresh(list)
    #: True when the index had no entry for this program name yet.
    first_submission: bool = False

    def invalidated_proofs(self, proofs) -> list[str]:
        """Names of the proofs that touch a changed level."""
        changed = set(self.changed)
        return [
            p.name for p in proofs
            if p.low_level in changed or p.high_level in changed
        ]

    def to_dict(self, proofs=None) -> dict:
        payload = {
            "changed_levels": sorted(self.changed),
            "unchanged_levels": sorted(self.unchanged),
            "first_submission": self.first_submission,
        }
        if proofs is not None:
            payload["invalidated_proofs"] = sorted(
                self.invalidated_proofs(proofs)
            )
        return payload


class FingerprintIndex:
    """Per-program-name last-seen level fingerprints, persisted as JSON.

    The on-disk file makes the diff meaningful across daemon restarts
    (and is human-inspectable when debugging why a resubmission was or
    was not considered incremental).  Corruption is harmless: an
    unreadable index is treated as empty, which only widens the
    reported diff — never the set of obligations actually re-run.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._programs: dict[str, dict[str, str]] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        for name, levels in raw.items():
            if isinstance(name, str) and isinstance(levels, dict):
                self._programs[name] = {
                    str(k): str(v) for k, v in levels.items()
                }

    def _flush(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(self._programs, indent=2, sort_keys=True),
                encoding="utf-8",
            )
            tmp.replace(self.path)
        except OSError:
            pass  # the index is advisory; losing it only widens diffs

    def diff(self, name: str,
             fingerprints: dict[str, str]) -> LevelDiff:
        """Compare a submission's level fingerprints against the last
        one recorded under *name* (without recording it)."""
        with self._lock:
            previous = self._programs.get(name)
        if previous is None:
            return LevelDiff(
                changed=sorted(fingerprints), first_submission=True
            )
        diff = LevelDiff()
        for level, fingerprint in fingerprints.items():
            if previous.get(level) == fingerprint:
                diff.unchanged.append(level)
            else:
                diff.changed.append(level)
        return diff

    def record(self, name: str, fingerprints: dict[str, str]) -> None:
        with self._lock:
            self._programs[name] = dict(fingerprints)
            self._flush()

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._programs
