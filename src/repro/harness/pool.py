"""Subprocess worker pool: isolation, watchdog, retries, degradation.

One worker process per program run (``--jobs N`` run concurrently).
The pool is the layer that survives what the engine cannot promise to:

* **watchdog** — every attempt gets a wall-clock deadline; a worker
  that outlives it is killed (SIGKILL) and reaped, and the job is
  triaged as a timeout;
* **retry with backoff** — a worker that dies without producing a
  well-formed result (crash, unparseable output) is retried up to
  ``retries`` times at the same rung, with exponential backoff, since
  transient failures (fork pressure, OOM-killer grazes) are expected at
  campaign scale;
* **degradation ladder** — a *persistent* worker failure, or an
  internal tool error the worker itself reports, re-runs the program
  one rung down (:meth:`EngineConfig.descend`).  Every rung runs with
  at least the checks of the rung above, so detection is preserved
  (see DESIGN.md).  The rung that produced the result is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from ..core.config import EngineConfig
from . import triage
from .faults import FaultPlan
from .quotas import DEFAULT_TIMEOUT

POLL_INTERVAL = 0.01

# How much of a timed-out worker's stdout/stderr is kept on the record
# (the tail is where a hang's last signs of life are).
TIMEOUT_TAIL_BYTES = 2048


def _tail(text: str, limit: int = TIMEOUT_TAIL_BYTES) -> str:
    return text if len(text) <= limit else text[-limit:]


class WorkTask:
    """One program to run: a worker job payload plus scheduling identity."""

    __slots__ = ("id", "index", "payload", "tool", "options")

    def __init__(self, id: str, payload: dict, tool: str = "safe-sulong",
                 options: dict | None = None, index: int = 0):
        self.id = id
        self.index = index
        self.payload = payload
        self.tool = tool
        self.options = options or {}


class Rung(NamedTuple):
    name: str
    tool: str
    options: dict  # the engine config's wire dict


def build_ladder(tool: str, options: dict | None,
                 enabled: bool = True) -> list[Rung]:
    """The degradation ladder for one tool configuration (``options``
    is the engine config's wire dict), strongest-checked last."""
    config = EngineConfig.from_json(options)
    rungs = [Rung("as-requested", tool, config.to_json())]
    if not enabled:
        return rungs
    if tool == "safe-sulong":
        rungs += [Rung(name, tool, lower.to_json())
                  for name, lower in config.descend()[1:]]
    elif tool.endswith("-O3"):
        # Baselines degrade by optimization level: -O3 is where the
        # optimizer deletes both bugs and checks (§4.1), so -O0 is the
        # stricter rung.
        rungs.append(Rung("O0", tool[:-len("-O3")] + "-O0",
                          config.to_json()))
    return rungs


class _TaskState:
    __slots__ = ("task", "rungs", "rung_index", "attempt_in_rung",
                 "total_attempts", "worker_failures", "not_before",
                 "first_start", "worker_seconds", "rung_transitions",
                 "last_fault")

    def __init__(self, task: WorkTask, rungs: list[Rung]):
        self.task = task
        self.rungs = rungs
        self.rung_index = 0
        self.attempt_in_rung = 0
        self.total_attempts = 0
        self.worker_failures: list[str] = []
        self.not_before = 0.0
        self.first_start: float | None = None
        # The fault injected into the most recent attempt, kept for the
        # record's replay manifest.
        self.last_fault = None
        # Cumulative wall-clock spent *inside* workers, summed over
        # attempts — distinct from elapsed time, which also contains
        # queueing and retry backoff.
        self.worker_seconds = 0.0
        self.rung_transitions: list[dict] = []

    @property
    def rung(self) -> Rung:
        return self.rungs[self.rung_index]


class _Active:
    __slots__ = ("state", "proc", "deadline", "out_path", "err_path",
                 "out_handle", "err_handle", "started")

    def __init__(self, state, proc, deadline, out_path, err_path,
                 out_handle, err_handle, started):
        self.state = state
        self.proc = proc
        self.deadline = deadline
        self.out_path = out_path
        self.err_path = err_path
        self.out_handle = out_handle
        self.err_handle = err_handle
        self.started = started


def _worker_env() -> dict:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root + os.pathsep + existing
                         if existing else src_root)
    return env


class WorkerPool:
    def __init__(self, jobs: int = 1, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = 2, backoff: float = 0.1,
                 use_ladder: bool = True,
                 fault_plan: FaultPlan | None = None,
                 on_tick=None, tick_interval: float = 0.5):
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.use_ladder = use_ladder
        self.fault_plan = fault_plan
        # Lease hook for the service layer: called with the ids of
        # every not-yet-finished task at most every ``tick_interval``
        # seconds while the pool is running, so a queue holding leases
        # on these tasks can renew them for as long as the work is
        # genuinely in progress.
        self.on_tick = on_tick
        self.tick_interval = tick_interval

    # -- lifecycle of one attempt -------------------------------------------------

    def _spawn(self, state: _TaskState, tmpdir: str,
               now: float) -> _Active:
        task = state.task
        rung = state.rung
        if state.first_start is None:
            state.first_start = now
        fault = None
        if self.fault_plan:
            fault = self.fault_plan.fault_for(task.index, task.id,
                                              state.total_attempts)
        payload = dict(task.payload)
        payload["id"] = task.id
        payload["tool"] = rung.tool
        payload["options"] = rung.options
        if fault:
            payload["fault"] = fault
        state.last_fault = fault
        stem = os.path.join(
            tmpdir, f"job-{task.index}-a{state.total_attempts}")
        job_path = stem + ".json"
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        out_path, err_path = stem + ".out", stem + ".err"
        # File-backed stdout/stderr: a pipe would deadlock the watchdog
        # if the worker filled it while the pool wasn't reading.
        out_handle = open(out_path, "wb")
        err_handle = open(err_path, "wb")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.worker", job_path],
            stdin=subprocess.DEVNULL, stdout=out_handle, stderr=err_handle,
            env=_worker_env(), cwd=tmpdir)
        state.total_attempts += 1
        return _Active(state, proc, now + self.timeout, out_path,
                       err_path, out_handle, err_handle, now)

    @staticmethod
    def _collect_output(active: _Active) -> tuple[str, str]:
        active.out_handle.close()
        active.err_handle.close()
        with open(active.out_path, "r", encoding="utf-8",
                  errors="replace") as handle:
            out = handle.read()
        with open(active.err_path, "r", encoding="utf-8",
                  errors="replace") as handle:
            err = handle.read()
        return out, err

    # -- outcome plumbing ---------------------------------------------------------

    def _record(self, state: _TaskState, *, result: dict | None = None,
                timed_out: bool = False,
                worker_error: str | None = None,
                stdout_tail: str | None = None,
                stderr_tail: str | None = None) -> dict:
        task, rung = state.task, state.rung
        now = time.monotonic()
        elapsed = now - (state.first_start or now)
        record = {
            "type": "result",
            "id": task.id,
            "path": task.payload.get("path"),
            "tool": rung.tool,
            "rung": rung.name,
            "rung_index": state.rung_index,
            "rung_transitions": state.rung_transitions,
            "attempts": state.total_attempts,
            "worker_failures": state.worker_failures,
            "timed_out": timed_out,
            "worker_error": worker_error,
            # duration_s is time spent *executing* (summed over worker
            # attempts); queue_s is everything else between first spawn
            # and completion — retry backoff and scheduler waits.
            "duration_s": round(state.worker_seconds, 3),
            "queue_s": round(max(0.0, elapsed - state.worker_seconds), 3),
            "elapsed_s": round(elapsed, 3),
            "result": result,
        }
        if timed_out:
            record["stdout_tail"] = stdout_tail or ""
            record["stderr_tail"] = stderr_tail or ""
        record["triage"] = triage.triage_result(
            result, timed_out=timed_out,
            worker_failed=worker_error is not None)
        record["detected"] = bool(result and result.get("detected"))
        record["signatures"] = triage.signatures(result)
        # Replay manifest (``repro explain``): everything that
        # determines re-execution of the rung that produced this
        # outcome.  Advisory — a record is never lost to manifest
        # trouble.
        from ..obs.replay import manifest_for_task
        record["manifest"] = manifest_for_task(
            task.payload, rung.tool, rung.options,
            fault=state.last_fault)
        return record

    def _handle_worker_failure(self, state: _TaskState, reason: str,
                               pending: list, now: float,
                               finish) -> None:
        """A worker died without a result: retry (with backoff) at this
        rung, then descend the ladder, then give up."""
        state.worker_failures.append(
            f"attempt {state.total_attempts} ({state.rung.name}): "
            f"{reason}")
        if state.attempt_in_rung < self.retries:
            state.attempt_in_rung += 1
            state.not_before = now + self.backoff * (
                2 ** (state.attempt_in_rung - 1))
            pending.append(state)
        elif state.rung_index + 1 < len(state.rungs):
            self._descend(state, f"persistent worker failure: {reason}",
                          now)
            pending.append(state)
        else:
            finish(self._record(
                state, worker_error=f"persistent worker failure: "
                                    f"{reason}"))

    def _handle_internal_error(self, state: _TaskState, error: str,
                               pending: list, now: float,
                               finish) -> None:
        """The worker ran but the tool failed internally: the failure is
        deterministic for this configuration, so skip same-rung retries
        and go straight down the ladder."""
        state.worker_failures.append(
            f"attempt {state.total_attempts} ({state.rung.name}): "
            f"internal error: {error.splitlines()[-1] if error else '?'}")
        if state.rung_index + 1 < len(state.rungs):
            self._descend(
                state,
                f"internal error: "
                f"{error.splitlines()[-1] if error else '?'}", now)
            pending.append(state)
        else:
            finish(self._record(state, worker_error=error))

    @staticmethod
    def _descend(state: _TaskState, reason: str, now: float) -> None:
        """Step one rung down the ladder, recording the transition (the
        harness-side analogue of an observer event)."""
        frm = state.rung.name
        state.rung_index += 1
        state.attempt_in_rung = 0
        state.not_before = now
        state.rung_transitions.append({
            "event": "rung-transition",
            "from": frm,
            "to": state.rung.name,
            "reason": reason,
            "attempts": state.total_attempts,
        })

    def _reap(self, active: _Active, pending: list, finish) -> None:
        state = active.state
        now = time.monotonic()
        state.worker_seconds += now - active.started
        returncode = active.proc.poll()
        if returncode is None:
            # Watchdog expiry: kill and reap.  SIGKILL cannot be caught,
            # so wait() terminates promptly.  The worker's output so far
            # is the only evidence of where it hung — keep the tail.
            active.proc.kill()
            active.proc.wait()
            out, err = self._collect_output(active)
            finish(self._record(state, timed_out=True,
                                stdout_tail=_tail(out),
                                stderr_tail=_tail(err)))
            return
        out, err = self._collect_output(active)
        if returncode != 0:
            detail = err.strip().splitlines()[-1] if err.strip() else ""
            reason = f"exit code {returncode}"
            if detail:
                reason += f" ({detail[:200]})"
            self._handle_worker_failure(state, reason, pending, now,
                                        finish)
            return
        try:
            payload = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self._handle_worker_failure(state, "unparseable worker output",
                                        pending, now, finish)
            return
        if payload.get("ok"):
            finish(self._record(state, result=payload.get("result")))
        else:
            error = (f"{payload.get('error_type', 'Error')}: "
                     f"{payload.get('error', '')}".strip())
            self._handle_internal_error(state, error, pending, now,
                                        finish)

    # -- scheduling ---------------------------------------------------------------

    def run(self, tasks: list[WorkTask], on_complete=None) -> list[dict]:
        """Run every task to completion; returns records in task order.

        ``on_complete(record)`` fires as each task finishes (in
        completion order) — the campaign uses it to stream the JSONL
        report and checkpoint."""
        records: dict[str, dict] = {}

        def finish(record: dict) -> None:
            records[record["id"]] = record
            if on_complete is not None:
                on_complete(record)

        tmpdir = tempfile.mkdtemp(prefix="repro-hunt-")
        pending: list[_TaskState] = [
            _TaskState(task, build_ladder(task.tool, task.options,
                                          self.use_ladder))
            for task in tasks]
        active: list[_Active] = []
        last_tick = time.monotonic()
        try:
            while pending or active:
                now = time.monotonic()
                if self.on_tick is not None \
                        and now - last_tick >= self.tick_interval:
                    last_tick = now
                    self.on_tick(
                        [entry.state.task.id for entry in active]
                        + [state.task.id for state in pending])
                index = 0
                while len(active) < self.jobs and index < len(pending):
                    if pending[index].not_before <= now:
                        state = pending.pop(index)
                        try:
                            active.append(self._spawn(state, tmpdir, now))
                        except OSError as error:
                            # Spawn failures (fork pressure, fd
                            # exhaustion) are transient worker failures:
                            # retry with backoff like any other.
                            self._handle_worker_failure(
                                state, f"spawn failed: {error}", pending,
                                now, finish)
                    else:
                        index += 1
                now = time.monotonic()
                for entry in list(active):
                    if entry.proc.poll() is not None \
                            or now >= entry.deadline:
                        active.remove(entry)
                        self._reap(entry, pending, finish)
                if pending or active:
                    time.sleep(POLL_INTERVAL)
        finally:
            for entry in active:  # interrupted: leave no orphans
                try:
                    entry.proc.kill()
                    entry.proc.wait()
                except OSError:
                    pass
            shutil.rmtree(tmpdir, ignore_errors=True)
        return [records[task.id] for task in tasks if task.id in records]


def run_one(payload: dict, *, tool: str = "safe-sulong",
            options: dict | None = None,
            timeout: float = DEFAULT_TIMEOUT, retries: int = 0,
            use_ladder: bool = False) -> dict:
    """Run a single program in an isolated, watchdogged worker (used by
    ``repro run --timeout``)."""
    task = WorkTask(payload.get("id") or "program", payload, tool=tool,
                    options=options)
    pool = WorkerPool(jobs=1, timeout=timeout, retries=retries,
                      use_ladder=use_ladder)
    return pool.run([task])[0]
