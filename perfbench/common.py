"""Shared plumbing for the pipeline benchmark: the run context (isolated
work directory, checked-operation log), host-speed calibration,
statistics, the timed loop and the result record every workload fills
in."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import time

from repro.obs.spans import span

# Host-speed calibration.  On a shared host the same work runs up to 2x
# slower for minutes at a time, and single operations vary more than
# that.  So every timing is divided by the time of a fixed pure-Python
# loop run right beside it, and reported in units where that loop takes
# CALIBRATION_MS: "calibrated" milliseconds or seconds.  That is the
# loop's median over forty runs on a shared 2-vCPU x86-64 host, so
# calibrated times read close to that host's typical wall-clock times.
# A change to the program moves its operations' times but not the
# loop's.
CALIBRATION_MS = 5.5
CALIBRATION_ROUNDS = 4000
# Calibration loops between service batches and around a set-up.
BURST = 5
# After a timed operation, calibration loops run for at least this share
# of its time (one loop at least), so that a long operation is not
# calibrated by a single noisy loop.
CALIBRATION_SHARE = 0.2
# A timed loop stops once its operations have taken the run's seconds
# in calibrated time, so that a run's sample count does not follow the
# host's speed; on a very slow host it stops once they have taken this
# many times the run's seconds of wall time instead.
WALL_LIMIT = 1.5


def geomean(values) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  With ten samples or fewer no percentile
    qualifies and the maximum is reported as the 100th."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reset_peak_rss() -> None:
    """Start the process's peak resident set size afresh (Linux), so
    that work before this point, such as building the checker's
    reference outputs, does not count.  Elsewhere this does nothing."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MB since the last ``reset_peak_rss``.
    With ``include_children`` the largest finished child is added
    (workers run beside the parent)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    kib = int(line.split()[1])
    except OSError:
        pass
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class _Cell:
    """A heap node of the calibration loop."""

    __slots__ = ("value", "next")

    def __init__(self, value, next_cell):
        self.value = value
        self.next = next_cell


# (opcode, argument) pairs of the calibration loop's stack machine.
_PROGRAM = ((0, 7), (1, 0), (2, 3), (3, 5), (4, 2), (1, 0), (5, 1), (6, 0))


def calibration_kernel(rounds: int = CALIBRATION_ROUNDS) -> int:
    """A fixed stack-machine loop: opcode dispatch, list and dict
    traffic and small-object churn, the kind of work the engine's
    interpreter does.  It uses nothing from the program under test."""
    stack: list[int] = []
    slots: dict[int, int] = {}
    chain = None
    acc = 1
    for step in range(rounds):
        for op, arg in _PROGRAM:
            if op == 0:
                stack.append(arg + step)
            elif op == 1:
                right = stack.pop() if stack else 1
                stack.append((acc + right) & 0xFFFF)
            elif op == 2:
                stack[-1] = (stack[-1] * arg) & 0xFFFF
            elif op == 3:
                slots[(step + arg) & 63] = stack[-1]
            elif op == 4:
                stack.append(slots.get((step + arg) & 63, 0))
            elif op == 5:
                if stack[-1] & arg:
                    chain = _Cell(stack.pop(), chain)
            else:
                acc = (acc * 33 + len(stack)) & 0xFFFFFFFF
                del stack[4:]
        if chain is not None and step & 15 == 0:
            while chain is not None:
                acc ^= chain.value
                chain = chain.next
    return acc


class Clock:
    """Calibrated timing: a wall time is scaled by CALIBRATION_MS over
    the calibration loop's time measured next to it."""

    def __init__(self):
        self.samples: list[float] = []
        self.set_up_samples: list[float] = []

    def calibrate(self) -> float:
        """Run the calibration loop once; returns its wall seconds."""
        with span("bench.calibrate"):
            started = time.perf_counter()
            calibration_kernel()
            elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def calibrate_for(self, seconds: float) -> float:
        """Calibration loops for CALIBRATION_SHARE of ``seconds``, one
        at least; returns their mean wall seconds."""
        loops = [self.calibrate()]
        while sum(loops) < CALIBRATION_SHARE * seconds:
            loops.append(self.calibrate())
        return sum(loops) / len(loops)

    def burst(self) -> float:
        """The median of BURST calibration loops, in wall seconds."""
        return statistics.median(self.calibrate() for _ in range(BURST))

    @staticmethod
    def scale(seconds: float, *calibrations: float,
              reference_ms: float = CALIBRATION_MS) -> float:
        """``seconds`` of wall time, taken where a calibration took the
        mean of ``calibrations`` seconds, in calibrated seconds: units
        where the calibration takes ``reference_ms``."""
        loop = sum(calibrations) / len(calibrations)
        return seconds * (reference_ms / 1000.0) / loop

    def set_up(self, work):
        """Run ``work()`` between two calibration bursts; returns its
        value and its wall seconds.  A set-up can last longer than the
        host keeps one speed, so set-ups are calibrated together, by
        the median of every loop around them (``set_up_scale``)."""
        first = len(self.samples)
        self.burst()
        started = time.perf_counter()
        value = work()
        elapsed = time.perf_counter() - started
        self.burst()
        self.set_up_samples += self.samples[first:]
        return value, elapsed

    def set_up_scale(self, seconds: float) -> float:
        """``seconds`` of set-up wall time in calibrated seconds."""
        return self.scale(seconds, median(self.set_up_samples))

    def loop_ms(self) -> float:
        """The calibration loop's median wall time in this run, in ms."""
        return median(self.samples) * 1000.0


def timed_rounds(clock: Clock, seconds: float,
                 operations) -> tuple[dict, float]:
    """Whole round-robin rounds over ``operations`` — ``(name, run)``
    pairs, ``run()`` returning one checked operation's wall seconds —
    until they have taken ``seconds`` in calibrated time.  Whole rounds
    keep the mix of operations the same in every run.  Calibration
    loops run after each operation, and an operation's time is
    calibrated by the loops just before and after it.  Returns name ->
    calibrated samples and their sum."""
    samples = {name: [] for name, _run in operations}
    busy = wall = 0.0
    before = clock.calibrate()
    while True:
        for name, run in operations:
            elapsed = run()
            after = clock.calibrate_for(elapsed)
            value = clock.scale(elapsed, before, after)
            samples[name].append(value)
            busy += value
            wall += elapsed
            before = after
        if busy >= seconds or wall >= WALL_LIMIT * seconds:
            return samples, busy


def per_op_ms(samples: dict) -> float:
    """Geomean over names of the median operation time, in ms."""
    return geomean(median(times) * 1000.0 for times in samples.values()
                   if times)


class Context:
    """One benchmark run: the checkout root, an isolated scratch
    directory inside it, the measuring budget, whether this is the
    traced run, and the checked operations so far."""

    def __init__(self, root: str, workload: str, seed: int,
                 seconds: float, trace: bool, smoke: bool = False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.attempted = 0
        self.failures: list[str] = []
        self.clock = Clock()
        self.base = os.path.join(root, ".perfbench")
        os.makedirs(self.base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"run-{workload}-",
                                     dir=self.base)

    def path(self, *parts: str) -> str:
        path = os.path.join(self.work, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def trace_path(self) -> str:
        """Where the traced run writes its spans (kept after the run)."""
        return os.path.join(self.base,
                            f"trace-{self.workload}-seed{self.seed}.json")

    def check(self, ok: bool, reason: str) -> bool:
        """Count one checked operation; record it as failed unless
        ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok

    def isolate_environment(self) -> None:
        """Keep the run off machine state: no caller cache settings, no
        user cache directory, temporary files inside the checkout.
        Worker processes inherit this environment."""
        for key in list(os.environ):
            if key.startswith("REPRO_"):
                del os.environ[key]
        tmp = self.path("tmp")
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
        os.environ["XDG_CACHE_HOME"] = self.path("xdg-cache")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Result:
    """Named metrics plus human-readable notes printed before the JSON
    line."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def set(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def add(self, name: str, value: float) -> None:
        self.metrics[name] = self.metrics.get(name, 0.0) + float(value)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def report_verdicts(self, clock: Clock, setup_times: list[float],
                        samples: dict, busy: float, rss_mb: float) -> None:
        """The end-to-end metrics, the same for every workload.
        ``setup_times`` are wall seconds; ``samples`` (program ->
        verdict times) and ``busy``, the seconds the verdicts took, are
        calibrated seconds."""
        verdicts_ms = [value * 1000.0 for times in samples.values()
                       for value in times]
        value, percentile = tail(verdicts_ms)
        self.set("setup_s", clock.set_up_scale(median(setup_times)))
        self.set("geomean_ms", per_op_ms(samples))
        self.set("verdict_p50_ms", median(verdicts_ms))
        self.set("verdict_tail_ms", value)
        self.set("verdicts_per_s", len(verdicts_ms) / busy)
        self.set("peak_rss_mb", rss_mb)
        loop_ms = clock.loop_ms()
        self.note(f"{len(verdicts_ms)} verdicts over {len(samples)} "
                  f"programs in {busy:.2f} calibrated s; tail is "
                  f"p{percentile:.1f}; set-ups "
                  + ", ".join(f"{s:.2f}" for s in setup_times)
                  + " wall s")
        self.note(f"calibration loop: median {loop_ms:.2f} ms over "
                  f"{len(clock.samples)} loops (calibrated times take it "
                  f"as {CALIBRATION_MS} ms; wall geomean "
                  f"{per_op_ms(samples) * loop_ms / CALIBRATION_MS:.1f} ms)")
