"""Bug-hunting as a service (``repro serve``).

The batch harness (:mod:`repro.harness`) runs one campaign and exits;
this package keeps the machinery alive as a supervised, crash-safe
service with near-zero per-submission marginal cost (every submission
shares one warm compilation cache).  Four pieces:

* :mod:`.wal` — the shared durability primitive: an append-only
  segmented JSONL write-ahead log with atomic-rename compaction and
  torn-tail-tolerant replay.  Every byte of service state lives in a
  WAL; ``kill -9`` at any instant recovers to a consistent state.
* :mod:`.queue` — durable job queue: idempotent content-addressed task
  ids, at-least-once delivery with leases that expire and requeue when
  a worker (or the whole service) dies, FIFO scheduling, admission
  depth accounting.
* :mod:`.bugdb` — persistent bug database keyed by the triage
  signature ``(kind, fault site, alloc site)``: first-seen/last-seen
  tracking, occurrence counts, and regression flips (seen → absent
  under the same engine version → seen again).  Rebuilt from its WAL
  with byte-identical state.
* :mod:`.supervisor` — drives the existing :class:`~repro.harness.pool.
  WorkerPool` over leased batches, restarts crashed batches with
  exponential backoff behind a circuit breaker, enforces admission
  control (bounded queue depth, 429-style shedding with retry-after),
  and degrades gracefully under overload by descending the degradation
  ladder service-wide (speculate → full-checks → interpreter) before
  shedding load.
* :mod:`.api` — the JSON/HTTP surface (stdlib ``http.server``, no new
  dependencies): ``POST /submit``, ``GET /job/<id>`` (JSONL stream),
  ``GET /bugs``, ``GET /healthz`` — plus ``serve()`` itself and the
  ``repro serve --selftest`` smoke.
"""

from .bugdb import BugDatabase
from .queue import JobQueue, task_id_for
from .supervisor import Supervisor
from .wal import WriteAheadLog

__all__ = [
    "BugDatabase", "JobQueue", "Supervisor", "WriteAheadLog",
    "task_id_for",
]
