"""``repro.serve`` — verification as a service.

``armada serve`` keeps a daemon resident next to a state directory so
that verification stops being a batch process and becomes a queryable
service: editors, CI runners, and humans with ``nc`` submit Armada
programs over a line-delimited JSON socket protocol, poll status,
stream lifecycle events, and fetch results — while the daemon
multiplexes every job onto shared warm state (one byte-capped LRU
proof cache, one proof-outcome cache and a level-fingerprint index for
incremental re-verification).

Modules:

* :mod:`repro.serve.protocol` — the NDJSON wire protocol (ops, job
  kinds, job states, framing).
* :mod:`repro.serve.incremental` — the proof-outcome cache and the
  per-level fingerprint diff that make resubmitting an edited program
  re-verify only the proofs the edit invalidated.
* :mod:`repro.serve.daemon` — the asyncio server, job queue, drain
  lifecycle, and restart resume.
* :mod:`repro.serve.client` — the synchronous client library the
  ``armada submit``/``status``/``result``/``cancel`` subcommands use.
"""

from __future__ import annotations

from repro.serve.client import ServeClient, ServeError  # noqa: F401
from repro.serve.daemon import (  # noqa: F401
    ArmadaDaemon,
    DaemonThread,
    ServeJob,
    run_daemon,
)
from repro.serve.incremental import (  # noqa: F401
    FingerprintIndex,
    LevelDiff,
    OutcomeCache,
)
from repro.serve.protocol import (  # noqa: F401
    KIND_ANALYZE,
    KIND_EXPLORE,
    KIND_VERIFY,
    PROTOCOL_VERSION,
    ProtocolError,
)
