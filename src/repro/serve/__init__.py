"""``repro.serve`` — verification as a service.

``armada serve`` keeps a daemon resident next to a state directory so
that verification stops being a batch process and becomes a queryable
service: editors, CI runners, and humans with ``nc`` submit Armada
programs over a line-delimited JSON socket protocol, poll status and
fetch results — while the daemon runs every job against one shared,
byte-capped LRU proof cache, so a resubmission executes only the
obligations whose content address changed.

Modules:

* :mod:`repro.serve.protocol` — the NDJSON wire protocol (ops, job
  kinds, job states, framing).
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
from repro.serve.protocol import (  # noqa: F401
    KIND_ANALYZE,
    KIND_EXPLORE,
    KIND_VERIFY,
    PROTOCOL_VERSION,
    ProtocolError,
)
