"""Content hashes shared by every cache key in the toolchain.

A leaf module with no ``repro`` imports.  The proof cache
(:mod:`repro.farm.cache`), the proof engine and the serve daemon key
their entries with the same two functions.  The stepper's bytecode
cache (:mod:`repro.compiler.stepc`) needs neither: it keys each entry
by the source it compiles.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Any

#: Version prefix of every structural hash: bump it to invalidate every
#: cache key at once (proof cache, serve keys).  Format 2
#: came with the proof cache's length+checksum framing (unframed
#: format-1 entries fail the magic check and are quarantined on first
#: read).
CACHE_FORMAT = 2


def _encode(value: Any, out: list[bytes]) -> None:
    """Canonical, type-tagged encoding of nested str/int/bool/None and
    sequences, so structurally equal values hash equally and
    structurally different ones (``"1"`` vs ``1``, ``["ab"]`` vs
    ``["a", "b"]``) never collide."""
    if value is None:
        out.append(b"N;")
    elif isinstance(value, bool):
        out.append(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        raw = str(value).encode()
        out.append(b"i%d:%s;" % (len(raw), raw))
    elif isinstance(value, str):
        raw = value.encode()
        out.append(b"s%d:%s;" % (len(raw), raw))
    elif isinstance(value, (list, tuple)):
        out.append(b"l%d:" % len(value))
        for item in value:
            _encode(item, out)
        out.append(b";")
    else:
        raw = repr(value).encode()
        out.append(b"r%d:%s;" % (len(raw), raw))


def structural_hash(*parts: Any) -> str:
    """Stable hex digest of a tuple of (possibly nested) values."""
    out: list[bytes] = [b"v%d;" % CACHE_FORMAT]
    _encode(list(parts), out)
    return hashlib.sha256(b"".join(out)).hexdigest()


_code_version: str | None = None
_code_version_lock = threading.Lock()


def code_version() -> str:
    """Fingerprint of the ``repro`` package sources, memoized per
    process.  Any change to the toolchain (strategies, prover,
    translator, ...) yields a new version and invalidates the cache."""
    global _code_version
    with _code_version_lock:
        if _code_version is None:
            root = Path(__file__).resolve().parent
            digest = hashlib.sha256()
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\x00")
                digest.update(path.read_bytes())
                digest.update(b"\x00")
            _code_version = digest.hexdigest()
        return _code_version
