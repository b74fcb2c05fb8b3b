"""Workload ``serve-gen``: bug hunting as a service, from submission to
verdict.

A closed loop keeps two submissions outstanding, one per service
worker: it submits two generated programs, lets the supervisor run
them, then submits the next two.  Programs come from ``repro.gen`` with
plant mode ``mixed`` (half clean, half with a planted spatial or
temporal bug), seeded from the workload seed.  The service is built
in-process with its defaults (elision + JIT) over a fresh on-disk cache
that set-up warms with the libc only.  It is driven through
``JobQueue.submit`` and ``Supervisor.step``, not over HTTP, so the HTTP
loop's idle poll stays out of the numbers.  Each task is a fresh worker
process, so worker start-up, cache reads and writes, analysis on the
cached libc, and the WAL fsyncs dominate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict

import repro
from repro.cache import get_cache
from repro.gen import GenConfig, choose_plant, generate
from repro.harness.triage import signatures
from repro.libc import libc_module
from repro.obs.spans import span
from repro.service.api import build_service

from common import WALL_LIMIT, Clock, Result, median, peak_rss_mb
from tracing import Tracer, attribute, phase, self_times

OUTSTANDING = 2
WORKER_TIMEOUT = 60.0
# Set-up (libc build into a fresh cache, program generation, service
# stores) is cheap enough to repeat for a median.
SETUPS = 5
# Programs generated per second of measuring: more than a run submits
# at two verdicts per 1.0-1.7 s, plus the warm-up batch.
PROGRAMS_PER_SECOND = 4
SMOKE_PROGRAMS = 6
# Loop seconds that run exactly one batch.
WARM_UP = 1e-9
# A batch is calibrated by starting OUTSTANDING fresh interpreters at
# once, each importing these standard-library modules, the same shape of
# work as a batch's worker start-up, which is most of a verdict.  The
# in-process calibration loop tracks it poorly: over 8 minutes of
# batches, verdict times moved with the loop's time to the power 0.5
# only, and with this calibration's to the power 1.0.  The time is
# reported in units where it takes SPAWN_CALIBRATION_MS, its typical
# time on a shared 2-vCPU x86-64 host.
SPAWN_CALIBRATION = ("import argparse, asyncio, dataclasses, decimal, "
                     "email.mime.multipart, http.server, json, logging, "
                     "typing, unittest, xml.etree.ElementTree")
SPAWN_CALIBRATION_MS = 140.0
CACHE_CLASSES = ("frontend", "prepare", "jit", "analysis")
CACHE_OUTCOMES = ("hit", "miss", "reject", "store")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def scale(seconds: float, *calibrations: float) -> float:
    """Wall seconds in calibrated seconds, by spawn calibrations."""
    return Clock.scale(seconds, *calibrations,
                       reference_ms=SPAWN_CALIBRATION_MS)


class Service:
    """One in-process service over fresh state and cache directories,
    with the generated programs it will be sent."""

    def __init__(self, ctx, index: int, seeds):
        self.cache_dir = os.path.join(ctx.work, f"cache-{index}")
        with span("libc.bundle"):
            libc_module(force_reload=True, cache=get_cache(self.cache_dir))
        with span("gen.generate"):
            self.programs = [
                generate(seed, GenConfig(plant=choose_plant(seed, "mixed")))
                for seed in seeds]
        self.supervisor = build_service(
            os.path.join(ctx.work, f"state-{index}"), jobs=OUTSTANDING,
            timeout=WORKER_TIMEOUT,
            options={"cache_dir": self.cache_dir, "use_cache": True})
        self.next_program = 0
        self.spawn_samples: list[float] = []
        self.signatures: dict[str, set] = defaultdict(set)
        # Completion time of each task, taken where the supervisor marks
        # it done (after its findings are durably in the bug database).
        self.completed: dict[str, tuple[float, dict]] = {}
        queue = self.supervisor.queue
        complete = queue.complete

        def timed_complete(task_id, record):
            fresh = complete(task_id, record)
            self.completed.setdefault(task_id, (time.perf_counter(), record))
            return fresh

        queue.complete = timed_complete

    def close(self) -> None:
        self.supervisor.queue.close()
        self.supervisor.bugdb.close()

    def spawn_calibration(self) -> float:
        """Wall seconds for OUTSTANDING fresh interpreters, started at
        once, to import SPAWN_CALIBRATION and exit."""
        with span("bench.calibrate"):
            started = time.perf_counter()
            procs = []
            try:
                for _ in range(OUTSTANDING):
                    procs.append(subprocess.Popen(
                        [sys.executable, "-I", "-c", SPAWN_CALIBRATION]))
            finally:
                codes = [proc.wait() for proc in procs]
            elapsed = time.perf_counter() - started
        if any(codes):
            raise RuntimeError(f"calibration interpreters exited {codes}")
        self.spawn_samples.append(elapsed)
        return elapsed

    def loop(self, ctx, seconds: float):
        """Closed-loop batches until they have taken ``seconds`` in
        calibrated time.  A spawn calibration runs between batches, and
        a batch's times are calibrated by the ones on either side.
        Returns task -> [calibrated verdict seconds], the batches as
        (step wall seconds, [(program, record)]), and the batches'
        calibrated seconds."""
        samples: dict[str, list[float]] = {}
        batches = []
        busy = wall = 0.0
        before = self.spawn_calibration()
        while busy < seconds and wall < WALL_LIMIT * seconds:
            batch = self.programs[self.next_program:
                                  self.next_program + OUTSTANDING]
            if len(batch) < OUTSTANDING:
                ctx.check(False, "ran out of generated programs")
                break
            self.next_program += OUTSTANDING
            submitted = []
            for program in batch:
                at = time.perf_counter()
                with span("service.submit", of=program.filename):
                    task_id, _fresh = self.supervisor.queue.submit(
                        {"filename": program.filename,
                         "source": program.source})
                submitted.append((task_id, at, program))
            stepped = time.perf_counter()
            with span("service.step"):
                self.supervisor.step()
            ended = time.perf_counter()
            after = self.spawn_calibration()
            busy += scale(ended - submitted[0][1], before, after)
            wall += ended - submitted[0][1]
            done = []
            for task_id, at, program in submitted:
                completion = self.completed.get(task_id)
                if completion is None:
                    ctx.check(False, f"{program.filename}: no verdict "
                                     f"after one supervisor step")
                    continue
                samples[task_id] = [scale(completion[0] - at, before,
                                          after)]
                self.verify(ctx, program, completion[1])
                done.append((program, completion[1]))
            batches.append((ended - stepped, done))
            before = after
        return samples, batches, busy

    def verify(self, ctx, program, record: dict) -> None:
        result = record.get("result") or {}
        kinds = [bug.get("kind") for bug in result.get("bugs") or ()]
        planted = program.manifest["planted"]
        if not planted:
            ctx.check(record.get("triage") == "ok"
                      and result.get("status") == 0,
                      f"{program.filename}: clean program gave "
                      f"{record.get('triage')} {kinds}")
            return
        kind = planted[0]["kind"]
        if ctx.check(record.get("triage") == "bug" and kinds[:1] == [kind],
                     f"{program.filename}: planted {kind}, got "
                     f"{record.get('triage')} {kinds}"):
            self.signatures[kind].update(
                sig for sig in signatures(result)
                if sig.startswith(kind + "@"))

    def verify_database(self, ctx) -> None:
        """Each planted kind has one signature shared by every program
        and one bug-database row; nothing else is in the database."""
        rows = Counter(row["kind"] for row in self.supervisor.bugdb.rows())
        for kind, sigs in sorted(self.signatures.items()):
            ctx.check(len(sigs) == 1 and rows.get(kind) == 1,
                      f"{kind}: {len(sigs)} signatures and "
                      f"{rows.get(kind, 0)} database rows, expected one")
        extra = sorted(set(rows) - set(self.signatures))
        ctx.check(not extra, f"unexpected bug-database kinds {extra}")


def rerun_workers(ctx, service: Service, tasks, cache_dir: str,
                  result: Result) -> None:
    """Run each traced task's job again, one at a time, through the
    worker entry point with span tracing and counters on: the service's
    own workers return no spans.  A worker's wall time that no span
    covers is start-up (interpreter launch, imports, job I/O).  The
    re-runs use a copy of the cache as set-up left it, so the program
    misses and the libc hits as they did in the service."""
    supervisor = service.supervisor
    options = dict(supervisor.rungs[0].options, cache_dir=cache_dir)
    jobs = ctx.path("rerun")
    env = dict(os.environ, PYTHONPATH=SRC)
    counters: Counter = Counter()
    for index, (program, record) in enumerate(tasks):
        path = os.path.join(jobs, f"job-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"id": record["id"], "source": program.source,
                       "filename": program.filename,
                       "max_steps": supervisor.quotas.max_steps,
                       "tool": "safe-sulong", "options": options,
                       "trace_spans": True, "collect_metrics": True},
                      handle)
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.harness.worker", path],
                cwd=jobs, env=env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT)
            data = json.loads(proc.stdout.strip().splitlines()[-1])["result"]
        except (subprocess.TimeoutExpired, ValueError, IndexError,
                KeyError) as error:
            ctx.check(False, f"{program.filename}: traced worker re-run "
                             f"failed: {error!r}")
            continue
        wall_ms = (time.perf_counter() - started) * 1000.0
        own = self_times(data.get("spans") or ())
        result.add("harness.startup_ms", wall_ms - attribute(result, own))
        metrics = data.get("metrics") or {}
        counters.update(metrics.get("counters") or {})
        jit = metrics.get("jit") or {}
        result.add("core.steps", metrics.get("steps", 0))
        result.add("core.prepared_functions",
                   len(metrics.get("functions") or ()))
        result.add("core.compiled_functions", jit.get("compiled", 0))
        result.add("core.jit_bailouts", jit.get("bailouts", 0))
    for artifact in CACHE_CLASSES:
        for outcome in CACHE_OUTCOMES:
            key = f"cache.{artifact}.{outcome}"
            result.set(key, counters.get(key, 0))
    lookups = sum(counters.get(f"cache.{outcome}", 0)
                  for outcome in ("hit", "miss", "reject"))
    result.set("cache.hit_ratio",
               counters.get("cache.hit", 0) / lookups if lookups else 0.0)


def report_trace(ctx, service: Service, tracer: Tracer, untraced: dict,
                 traced: dict, batches, rerun_cache: str,
                 result: Result) -> None:
    def mean(samples):
        return sum(times[0] for times in samples.values()) / len(samples)

    result.set("obs.trace_overhead_frac", mean(traced) / mean(untraced) - 1)
    result.set("obs.ops", len(traced))
    records = [record for _step, done in batches for _program, record in done]
    critical_ms = 1000.0 * sum(
        max((record.get("duration_s", 0.0) for _program, record in done),
            default=0.0)
        for _step, done in batches)
    tracer.report(result)
    result.set("service.step_overhead_ms",
               result.metrics.pop("service.step_ms", 0.0) - critical_ms)
    result.set("harness.worker_ms",
               1000.0 * sum(r.get("duration_s", 0.0) for r in records))
    result.set("harness.queue_ms",
               1000.0 * sum(r.get("queue_s", 0.0) for r in records))
    result.set("harness.attempts", sum(r.get("attempts", 0) for r in records))
    result.set("harness.rung_descents",
               sum(len(r.get("rung_transitions") or ()) for r in records))
    supervisor = service.supervisor
    result.set("service.wal_bytes", supervisor.queue.wal.size_bytes()
               + supervisor.bugdb.wal.size_bytes())
    rerun_workers(ctx, service,
                  [task for _step, done in batches for task in done],
                  rerun_cache, result)
    tracer.write(ctx.trace_path())


def run(ctx) -> Result:
    count = SMOKE_PROGRAMS if ctx.smoke else \
        PROGRAMS_PER_SECOND * int(ctx.seconds + 1) + 2 * OUTSTANDING
    first = ctx.seed * 10_000
    seeds = range(first, first + count)
    result = Result()
    tracer = Tracer() if ctx.trace else None
    setup_times = []
    service = None

    def setup(index):
        with phase(tracer, "setup"):
            return Service(ctx, index, seeds)

    try:
        for index in range(1 if ctx.trace or ctx.smoke else SETUPS):
            if service is not None:
                service.close()
                service = None
            service, seconds = ctx.clock.set_up(lambda: setup(index))
            setup_times.append(seconds)
        # One untimed batch first: the first workers after set-up start
        # cold and take about twice as long.
        service.loop(ctx, WARM_UP)
        if tracer is None:
            samples, _batches, busy = service.loop(ctx, ctx.seconds)
            service.verify_database(ctx)
            result.report_verdicts(ctx.clock, setup_times, samples, busy,
                                   peak_rss_mb(include_children=True))
            result.note(f"spawn calibration: median "
                        f"{median(service.spawn_samples) * 1000.0:.1f} ms "
                        f"over {len(service.spawn_samples)} (calibrated "
                        f"times take it as {SPAWN_CALIBRATION_MS} ms)")
            return result
        rerun_cache = os.path.join(ctx.work, "cache-rerun")
        shutil.copytree(service.cache_dir, rerun_cache)
        untraced, _batches, _busy = service.loop(ctx, ctx.seconds / 2)
        with tracer.phase("timed"):
            traced, batches, _busy = service.loop(ctx, ctx.seconds / 2)
        service.verify_database(ctx)
        report_trace(ctx, service, tracer, untraced, traced, batches,
                     rerun_cache, result)
        return result
    finally:
        if service is not None:
            service.close()
