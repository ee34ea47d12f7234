"""Content-addressed on-disk proof cache (incremental verification).

The paper's toolchain gets incrementality for free from Dafny, which
caches verified modules across runs; re-verifying an unchanged Armada
program only re-proves what changed.  This module reproduces that: every
lemma obligation is keyed by a *structural hash* of

* the lemma's content (name, statement, body, customizations),
* the prover configuration fingerprint (a different sampling budget may
  produce a different verdict), and
* a code-version fingerprint over the ``repro`` package sources (a new
  strategy or prover fix must invalidate old verdicts).

Keys are built with :func:`repro.hashing.structural_hash` and
:func:`repro.hashing.code_version`.  A key therefore identifies the
obligation *semantically*: any edit to a level, a recipe, a lemma
customization, the prover budget, or the toolchain itself changes the
key and forces a re-check, while an untouched lemma is discharged by a
single file read.

Entry framing and self-healing
------------------------------
Verdicts are stored one-per-file under ``<dir>/<k[:2]>/<k[2:]>.verdict``
(sharded by the leading key byte so no directory grows unboundedly),
written atomically via ``os.replace`` so concurrent workers and even
concurrent ``armada`` processes can share a cache directory safely.

Size cap and LRU eviction
-------------------------
A long-running, multi-tenant cache (the ``armada serve`` daemon, or a
shared CI cache directory) must not grow without bound.  Constructing
the cache with ``max_bytes`` arms an LRU policy: every hit touches the
entry's mtime, and a store that pushes the on-disk payload total over
the cap evicts least-recently-used entries until the total is back
under ~90% of it.  Eviction is purely a capacity decision — an evicted
obligation is simply recomputed on its next miss — so it can never
change a verdict, and concurrent evictors racing over the same
directory at worst double-delete (``missing_ok`` unlinks).

Every entry is *framed*: a magic/format header, the payload length, and
a SHA-256 payload checksum precede the pickled verdict.  A read first
validates the frame, so a truncated, garbage, or partially-written
entry — the expected failure modes of a crashed worker or a full disk —
is **detected before unpickling**, moved into ``<dir>/quarantine/`` for
post-mortem inspection, counted, and treated as a miss: the obligation
is simply recomputed and re-stored.  Nothing in the farm ever
tracebacks on a bad cache file, and a quarantined entry can never
shadow a future store under the same key.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import threading
from pathlib import Path

from repro.verifier.prover import SETTLED, Verdict

#: Entry frame: magic+version, 8-byte payload length, 32-byte SHA-256.
_MAGIC = b"ARMV\x02\n"
_LEN = struct.Struct(">Q")
_HEADER_SIZE = len(_MAGIC) + _LEN.size + hashlib.sha256().digest_size


def frame_entry(payload: bytes) -> bytes:
    """Wrap a pickled verdict in the length+checksum frame."""
    return (
        _MAGIC
        + _LEN.pack(len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def unframe_entry(raw: bytes) -> bytes | None:
    """Validate a frame, returning the payload or None if the entry is
    truncated, garbage, or partially written."""
    if len(raw) < _HEADER_SIZE or not raw.startswith(_MAGIC):
        return None
    offset = len(_MAGIC)
    (length,) = _LEN.unpack_from(raw, offset)
    offset += _LEN.size
    checksum = raw[offset:offset + hashlib.sha256().digest_size]
    payload = raw[_HEADER_SIZE:]
    if len(payload) != length:
        return None
    if hashlib.sha256(payload).digest() != checksum:
        return None
    return payload


class ProofCache:
    """Content-addressed verdict store rooted at one directory."""

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Settled verdicts that could not be written (the directory
        #: is not writable, or is not a directory at all).
        self.failed_stores = 0
        #: Corrupt entries detected, moved aside, and recomputed.
        self.quarantined = 0
        #: Entries removed by the LRU policy to respect ``max_bytes``.
        self.evictions = 0
        #: Bytes reclaimed by eviction.
        self.evicted_bytes = 0
        #: Byte budget for stored entries; None = unbounded.
        self.max_bytes = max_bytes
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key[2:]}.verdict"

    def entry_path(self, key: str) -> Path:
        """Where *key*'s entry lives on disk (tests corrupt entries
        through this)."""
        return self._path(key)

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside so it can neither shadow a future
        store nor traceback a future read, keeping it inspectable."""
        target_dir = self.directory / "quarantine"
        target = target_dir / path.name
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self.quarantined += 1

    def get(self, key: str) -> Verdict | None:
        """Look up a verdict; any failure to read, unframe, or decode
        quarantines the entry and reports a miss (recompute path)."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        payload = unframe_entry(raw)
        if payload is None:
            self._quarantine(path)  # truncated or garbage
            with self._lock:
                self.misses += 1
            return None
        try:
            verdict = pickle.loads(payload)
        except Exception:
            verdict = None
        if not isinstance(verdict, Verdict):
            # The frame checked out but the payload is foreign — a
            # format drift the version bump should have caught.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        # LRU recency: a hit is a use.  Failure is harmless (another
        # process may have just evicted the entry).
        try:
            os.utime(path)
        except OSError:
            pass
        return verdict

    def put(self, key: str, verdict: Verdict) -> bool:
        """Store a settled verdict atomically; returns False if the
        verdict is inconclusive (TIMEOUT/UNKNOWN must never be pinned
        by a cache), not serializable, or could not be written (counted
        in ``failed_stores``); the job then stays uncached."""
        if verdict.status not in SETTLED:
            return False
        try:
            payload = pickle.dumps(verdict)
        except Exception:
            return False
        path = self._path(key)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(frame_entry(payload))
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            with self._lock:
                self.failed_stores += 1
            return False
        with self._lock:
            self.stores += 1
        if self.max_bytes is not None:
            self._enforce_cap()
        return True

    # ------------------------------------------------------------------
    # size accounting and LRU eviction

    def _entries(self) -> list[tuple[Path, float, int]]:
        """Every stored entry as ``(path, mtime, size)``; entries that
        vanish mid-scan (concurrent eviction) are skipped."""
        rows: list[tuple[Path, float, int]] = []
        if not self.directory.is_dir():
            return rows
        for path in self.directory.glob("??/*.verdict"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((path, stat.st_mtime, stat.st_size))
        return rows

    def total_bytes(self) -> int:
        """On-disk payload total (quarantine excluded)."""
        return sum(size for _, _, size in self._entries())

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries until the stored total is
        back under ~90% of ``max_bytes`` (hysteresis so a cache sitting
        at the cap does not evict one entry per store)."""
        assert self.max_bytes is not None
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        if total <= self.max_bytes:
            return
        target = int(self.max_bytes * 0.9)
        entries.sort(key=lambda row: row[1])  # oldest mtime first
        for path, _, size in entries:
            if total <= target:
                break
            try:
                path.unlink()
            except OSError:
                continue  # already gone: a concurrent evictor won
            total -= size
            with self._lock:
                self.evictions += 1
                self.evicted_bytes += size

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.verdict"))
