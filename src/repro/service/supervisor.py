"""Supervision: drive the pool, restart on failure, degrade, shed.

The supervisor is the loop between the durable stores and the existing
:class:`~repro.harness.pool.WorkerPool`:

* **lease → run → record → complete** — it leases queued tasks, fans
  them over a pool batch (every worker sharing the one warm
  compilation cache via ``options``), and on each completion first
  appends the findings to the bug database and then marks the queue
  entry done.  The write order is the crash-consistency contract: a
  ``kill -9`` between the two appends redelivers the task, whose
  re-recording is a no-op (both stores are idempotent per task id);
* **restart with backoff + circuit breaker** — a batch that dies
  (pool-level exception, not an individual worker death, which the
  pool already retries) is restarted after an exponentially growing
  delay; ``breaker_threshold`` consecutive failures open the breaker,
  which rejects new work for ``breaker_cooldown`` seconds before a
  half-open probe batch;
* **admission control** — the queue depth is bounded
  (``max_depth``); past it, :meth:`Supervisor.admit` rejects with a
  retry-after hint (the HTTP layer turns this into 429);
* **graceful degradation** — before shedding, sustained depth above
  ``degrade_depth`` walks the whole service down the existing
  degradation ladder (elide → full-checks → interpreter): new leases
  run at the cheaper-to-supervise, stricter-checked rung, and the
  service climbs back up when the queue drains.  Degrading can only
  make runs slower or stricter, never blinder — the same invariant
  the per-task ladder already guarantees.

Service fault kinds (``queue-stall``, ``db-torn-write``) are
interpreted here, keyed by the task's delivery count, so every
recovery path is testable deterministically.
"""

from __future__ import annotations

import os
import threading
import time

from ..harness import faults
from ..harness.pool import WorkerPool, WorkTask, build_ladder
from ..harness.quotas import DEFAULT_TIMEOUT, Quotas
from ..obs import Observer
from .bugdb import BugDatabase
from .queue import JobQueue

DEFAULT_MAX_DEPTH = 256
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 10.0

# Task-payload keys a submission may set; everything else (tool,
# options, fault) is the service's to decide.
_TASK_KEYS = ("source", "path", "filename", "corpus_entry", "argv",
              "stdin_b64", "vfs_b64", "max_steps")


class Supervisor:
    def __init__(self, queue: JobQueue, bugdb: BugDatabase, *,
                 tool: str = "safe-sulong",
                 options: dict | None = None,
                 quotas: Quotas | None = None,
                 jobs: int = 2, timeout: float | None = None,
                 retries: int = 2, backoff: float = 0.1,
                 campaign: str = "serve",
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 degrade_depth: int | None = None,
                 lease_ttl: float | None = None,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
                 restart_backoff: float = 0.25,
                 restart_backoff_max: float = 30.0,
                 cache_cap_bytes: int | None = None,
                 observer: Observer | None = None,
                 fault_plan: faults.FaultPlan | None = None):
        self.queue = queue
        self.bugdb = bugdb
        self.tool = tool
        self.quotas = quotas or Quotas()
        config = self.quotas.config(options)
        if tool == "safe-sulong":
            # The service's top rung runs optimized (elision + JIT) so
            # the degradation ladder has rungs to descend to; both are
            # correctness-preserving (elision is proof-based, the JIT
            # is the interpreter's semantic twin), so this changes
            # throughput, never what gets detected.
            if config.jit_threshold is None:
                from ..obs.profile import DEFAULT_JIT_THRESHOLD
                config = config._replace(jit_threshold=DEFAULT_JIT_THRESHOLD)
            config = config._replace(elide_checks=True)
        # The service-wide degradation ladder: index 0 is as-requested,
        # later rungs trade optimization for headroom under load.
        self.config = config
        self.rungs = build_ladder(tool, config.to_json(), True)
        self.rung_index = 0
        self.jobs = max(1, jobs)
        self.timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        self.retries = retries
        self.backoff = backoff
        self.campaign = campaign
        self.max_depth = max_depth
        self.degrade_depth = degrade_depth \
            if degrade_depth is not None else max(4, max_depth // 4)
        self.lease_ttl = lease_ttl \
            if lease_ttl is not None else max(15.0, 2.0 * self.timeout)
        self.breaker_threshold = max(1, breaker_threshold)
        self.breaker_cooldown = breaker_cooldown
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.cache_cap_bytes = cache_cap_bytes
        self.observer = observer or Observer(enabled=True)
        self.fault_plan = fault_plan
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        self._restart_not_before = 0.0
        self._seq_by_id: dict[str, int] = {}
        self._torn_tasks: set[str] = set()
        self._steps = 0
        self.last_error: str | None = None

    # -- admission ----------------------------------------------------------------

    @property
    def rung(self):
        return self.rungs[self.rung_index]

    def breaker_state(self, now: float | None = None) -> str:
        now = time.time() if now is None else now
        if now < self._breaker_open_until:
            return "open"
        if self._consecutive_failures >= self.breaker_threshold:
            return "half-open"
        return "closed"

    def admit(self, now: float | None = None) -> tuple[bool, float]:
        """May a new submission enter?  ``(True, 0)`` or ``(False,
        retry_after_seconds)``.  Rejections are counted as shed
        requests — degradation has already been tried by the time
        depth reaches ``max_depth``."""
        now = time.time() if now is None else now
        if self.breaker_state(now) == "open":
            self.observer.count("service.shed")
            return False, max(0.5, self._breaker_open_until - now)
        depth = self.queue.depth()
        if depth >= self.max_depth:
            self.observer.count("service.shed")
            retry_after = max(1.0, (depth - self.max_depth + 1)
                              * self.timeout / self.jobs)
            return False, min(retry_after, 60.0)
        return True, 0.0

    # -- load policy --------------------------------------------------------------

    def _apply_load_policy(self) -> None:
        """One ladder step per scheduling turn: descend while the
        backlog is above the degrade threshold, climb back once it has
        drained below half of it."""
        depth = self.queue.depth()
        if depth >= self.degrade_depth \
                and self.rung_index + 1 < len(self.rungs):
            frm = self.rung.name
            self.rung_index += 1
            self.observer.count("service.degrade")
            self.observer.emit("rung-transition", scope="service",
                               frm=frm, to=self.rung.name, depth=depth)
        elif depth <= max(1, self.degrade_depth // 2) \
                and self.rung_index > 0:
            frm = self.rung.name
            self.rung_index -= 1
            self.observer.count("service.promote")
            self.observer.emit("rung-transition", scope="service",
                               frm=frm, to=self.rung.name, depth=depth)

    # -- the scheduling turn ------------------------------------------------------

    def step(self, now: float | None = None) -> int:
        """One scheduling turn: reclaim expired leases, adjust the
        rung, lease a batch, run it.  Returns the number of tasks
        completed this turn (0 when idle, backing off, or shedding)."""
        now = time.time() if now is None else now
        self._steps += 1
        expired = self.queue.requeue_expired(now)
        if expired:
            self.observer.count("service.lease.expired", len(expired))
            self.observer.emit("lease-expired", tasks=sorted(expired))
        self._apply_load_policy()
        if now < self._breaker_open_until \
                or now < self._restart_not_before:
            return 0
        batch = self.queue.lease(f"pool@{os.getpid()}",
                                 limit=self.jobs * 2,
                                 ttl=self.lease_ttl, now=now)
        if not batch:
            self._maybe_prune_cache()
            return 0

        tasks = []
        for item in batch:
            task_id, task = item["id"], item["task"]
            self._seq_by_id[task_id] = item["seq"]
            fault = None
            if self.fault_plan:
                fault = self.fault_plan.fault_for(
                    item["seq"], task_id, item["deliveries"] - 1)
            if fault == "queue-stall":
                # Take the lease and sit on it: the deadline must pass
                # and the task be redelivered — the at-least-once path.
                self.observer.count("service.fault.queue_stall")
                continue
            if fault == "db-torn-write":
                self._torn_tasks.add(task_id)
            payload = {key: task[key] for key in _TASK_KEYS
                       if key in task}
            payload.setdefault("max_steps", self.quotas.max_steps)
            tasks.append(WorkTask(task_id, payload,
                                  tool=self.rung.tool,
                                  options=self.rung.options,
                                  index=item["seq"]))
        if not tasks:
            return 0

        completed = [0]

        def on_complete(record: dict) -> None:
            if self._complete(record):
                completed[0] += 1

        pool = WorkerPool(
            jobs=self.jobs, timeout=self.timeout, retries=self.retries,
            backoff=self.backoff, use_ladder=True,
            fault_plan=self.fault_plan,
            on_tick=lambda ids: self.queue.renew(ids, self.lease_ttl))
        try:
            pool.run(tasks, on_complete=on_complete)
        except Exception as error:  # noqa: BLE001 — supervision point
            self._on_batch_failure(error)
            return completed[0]
        self._consecutive_failures = 0
        self.last_error = None
        self._maybe_prune_cache()
        return completed[0]

    def _on_batch_failure(self, error: BaseException) -> None:
        self._consecutive_failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        self.observer.count("service.restart")
        delay = min(self.restart_backoff_max, self.restart_backoff
                    * (2 ** (self._consecutive_failures - 1)))
        self._restart_not_before = time.time() + delay
        self.observer.emit("service-restart", error=self.last_error,
                           failures=self._consecutive_failures,
                           backoff_s=round(delay, 3))
        if self._consecutive_failures >= self.breaker_threshold:
            self._breaker_open_until = time.time() \
                + self.breaker_cooldown
            self.observer.count("service.breaker.open")
            self.observer.emit("breaker-open",
                               until=self._breaker_open_until)

    # -- completion plumbing ------------------------------------------------------

    def _complete(self, record: dict) -> bool:
        """Record one pool completion durably: bug database first, then
        the queue's done mark.  Returns True when this completion was
        fresh (not a redelivery replay)."""
        task_id = record["id"]
        seq = self._seq_by_id.get(task_id, 0)
        task = self.queue.tasks.get(task_id) or {}
        program = task.get("filename") or task.get("path") or task_id
        bugs = (record.get("result") or {}).get("bugs") or []
        db_args = dict(campaign=task.get("campaign") or self.campaign,
                       program=program,
                       engine=engine_version(), bugs=bugs)
        if task_id in self._torn_tasks:
            # db-torn-write: append the record, tear it mid-line (what
            # a crash during the append leaves), recover by re-folding
            # the WAL, and do NOT complete the queue entry — the lease
            # expires and redelivery repairs everything.
            self._torn_tasks.discard(task_id)
            self.bugdb.record_result(task_id, seq, **db_args)
            faults.torn_tail(self.bugdb.wal.active_path)
            self.bugdb.reload()
            self.observer.count("service.fault.db_torn")
            return False
        self.bugdb.record_result(task_id, seq, **db_args)
        faults.crash_point("serve-complete", task_id)
        fresh = self.queue.complete(task_id, record)
        if fresh:
            self.observer.count("service.complete")
            restarts = max(0, record.get("attempts", 1) - 1)
            if restarts:
                self.observer.count("service.worker.restart", restarts)
            if record.get("triage") == "bug":
                self.observer.count("service.bugs")
        return fresh

    def _maybe_prune_cache(self) -> None:
        if not self.cache_cap_bytes or self._steps % 50:
            return
        if not (self.config.cache_dir or self.config.use_cache):
            return
        from ..cache import resolve_cache
        cache = resolve_cache(self.config.cache_dir)
        if cache is not None:
            removed = cache.prune(self.cache_cap_bytes)
            if removed:
                self.observer.count("service.cache.pruned", removed)

    # -- service loop -------------------------------------------------------------

    def run_forever(self, stop: threading.Event,
                    idle_sleep: float = 0.2) -> None:
        while not stop.is_set():
            try:
                completed = self.step()
            except Exception as error:  # noqa: BLE001 — stay alive
                self._on_batch_failure(error)
                completed = 0
            if not completed:
                stop.wait(idle_sleep)

    # -- views --------------------------------------------------------------------

    def health(self, now: float | None = None) -> dict:
        now = time.time() if now is None else now
        counts = self.queue.counts()
        depth = counts["queued"] + counts["leased"]
        breaker = self.breaker_state(now)
        if breaker == "open":
            status = "breaker-open"
        elif depth >= self.max_depth:
            status = "overloaded"
        elif self.rung_index:
            status = "degraded"
        else:
            status = "ok"
        from ..obs.metrics import service_breakdown
        counters = {key: value for key, value
                    in sorted(self.observer.counters.items())
                    if key.startswith("service.")}
        return {
            "service": service_breakdown(self.observer.counters),
            "status": status,
            "queue": counts,
            "depth": depth,
            "max_depth": self.max_depth,
            "rung": self.rung.name,
            "rung_index": self.rung_index,
            "rungs": [rung.name for rung in self.rungs],
            "breaker": {"state": breaker,
                        "consecutive_failures":
                            self._consecutive_failures},
            "last_error": self.last_error,
            "engine": engine_version(),
            "bugdb": {"distinct_bugs": len(self.bugdb.sigs),
                      "recorded_tasks": len(self.bugdb.recorded)},
            "counters": counters,
        }


def engine_version() -> str:
    """The version string regression tracking keys on (re-exported via
    :mod:`repro.tools`)."""
    from ..tools import engine_version as tools_engine_version
    return tools_engine_version()
