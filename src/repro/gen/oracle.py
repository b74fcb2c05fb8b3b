"""Five-way differential driver for generated programs.

Each program runs on five backends — the pure interpreter, the JIT
(forced on from the first call), the optimized tier (the safe-O2
clone, JIT-compiled from the first call), the simulated native
machine, and the ASan instrumentation — and the outcomes are compared
under the paper's model:

- a **clean** program (nothing planted) is well-defined, so all five
  executions must agree on exit status and output and none may report
  a bug.  Any disagreement is an engine bug: verdict ``divergence``.
- a **planted** program carries one known memory-safety fault.  The
  managed tiers must all detect it, with byte-identical pre-fault
  output and the same triage signature (the tiers promise identical
  reports): verdict ``planted-caught``.  If the full-check tier runs
  past the fault the detector has a hole: verdict ``planted-missed``.
  The native machine is *expected* to run off the rails silently —
  that is the paper's point — so its outcome is recorded but never
  compared for planted programs; ASan's catch rate is recorded too.
- everything agreeing is verdict ``agree``.

Verdicts are mechanical, so sweeps run unattended: any ``divergence``
or ``planted-missed`` is reduced to a minimal repro and filed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .generator import GenConfig, choose_plant, generate

TIER_NAMES = ("interp", "jit", "speculate", "native", "asan")
MANAGED_TIERS = ("interp", "jit", "speculate")

AGREE = "agree"
PLANTED_CAUGHT = "planted-caught"
PLANTED_MISSED = "planted-missed"
DIVERGENCE = "divergence"


def make_tiers(cache_dir: str | None = None) -> dict:
    """The five oracle backends.  A shared ``cache_dir`` keeps the
    compilation cache warm across a sweep."""
    from ..core.config import EngineConfig
    from ..tools import AsanRunner, NativeRunner, SafeSulongRunner
    cache = EngineConfig(cache_dir=cache_dir,
                         use_cache=cache_dir is not None)
    return {
        "interp": SafeSulongRunner(cache),
        "jit": SafeSulongRunner(cache, jit_threshold=1),
        "speculate": SafeSulongRunner(cache, speculate=True,
                                      jit_threshold=1),
        "native": NativeRunner(0),
        "asan": AsanRunner(0),
    }


def managed_tiers(cache_dir: str | None = None) -> dict:
    """The managed subset of the oracle matrix: the drivers ``repro
    explain`` runs its divergence bisection over.  Order matters — the
    first tier (the pure interpreter) is the reference the others are
    compared against.  The optimized tier compiles from the first call,
    as only compiled code speculates."""
    everything = make_tiers(cache_dir)
    return {name: everything[name] for name in MANAGED_TIERS}


@dataclass
class TierOutcome:
    tier: str
    status: int | None
    stdout: bytes
    detected: bool
    signatures: tuple[str, ...]
    crashed: bool
    crash_message: str | None
    internal_error: str | None
    limit_exceeded: bool
    timed_out: bool

    def comparable(self) -> tuple:
        """The fields two agreeing executions must share."""
        return (self.status, self.stdout, self.detected)


@dataclass
class OracleReport:
    verdict: str
    detail: str
    seed: int | None
    manifest: dict
    outcomes: dict[str, TierOutcome]
    asan_caught: bool = False

    @property
    def is_bug(self) -> bool:
        return self.verdict in (DIVERGENCE, PLANTED_MISSED)

    def summary_line(self) -> str:
        tag = f"seed {self.seed}" if self.seed is not None else "program"
        line = f"{tag}: {self.verdict}"
        if self.detail:
            line += f" ({self.detail})"
        return line


def run_tier(runner, source: str, filename: str,
             max_steps: int | None = 5_000_000) -> TierOutcome:
    from ..harness.triage import bug_signature
    from ..tools import detected as tool_detected
    result = runner.run(source, filename=filename, max_steps=max_steps)
    signatures = tuple(sorted({bug_signature(bug.to_dict())
                               for bug in result.bugs}))
    return TierOutcome(
        tier=getattr(runner, "name", "?"),
        status=result.status,
        stdout=bytes(result.stdout),
        detected=tool_detected(result),
        signatures=signatures,
        crashed=result.crashed,
        crash_message=result.crash_message,
        internal_error=getattr(result, "internal_error", None),
        limit_exceeded=bool(result.limit_exceeded),
        timed_out=bool(getattr(result, "timed_out", False)),
    )


def run_tiers(tiers: dict, source: str, filename: str,
              max_steps: int | None = 5_000_000) -> dict[str, TierOutcome]:
    """The outcome of ``source`` on each of ``tiers`` (name -> runner),
    in ``TIER_NAMES`` order.  A tier that raises gets the error as its
    ``internal_error``: a tier crashing is the finding."""
    outcomes = {}
    for name in TIER_NAMES:
        if name not in tiers:
            continue
        try:
            outcomes[name] = run_tier(tiers[name], source, filename,
                                      max_steps=max_steps)
        except Exception as error:
            outcomes[name] = TierOutcome(
                tier=name, status=None, stdout=b"", detected=False,
                signatures=(), crashed=False, crash_message=None,
                internal_error=f"{type(error).__name__}: {error}",
                limit_exceeded=False, timed_out=False)
    return outcomes


def run_oracle(source: str, manifest: dict | None = None,
               filename: str | None = None,
               tiers: dict | None = None,
               cache_dir: str | None = None,
               seed: int | None = None) -> OracleReport:
    """Run one program across all five tiers and classify."""
    manifest = manifest or {}
    filename = filename or manifest.get("filename") or "gen-program.c"
    if tiers is None:
        tiers = make_tiers(cache_dir)
    outcomes = run_tiers(tiers, source, filename)
    if seed is None:
        seed = manifest.get("seed")
    return classify(manifest, outcomes, seed=seed)


def classify(manifest: dict, outcomes: dict[str, TierOutcome],
             seed: int | None = None) -> OracleReport:
    planted = manifest.get("planted") or []
    asan = outcomes.get("asan")
    asan_caught = bool(asan and asan.detected)

    def report(verdict: str, detail: str = "") -> OracleReport:
        return OracleReport(verdict=verdict, detail=detail, seed=seed,
                            manifest=manifest, outcomes=outcomes,
                            asan_caught=asan_caught)

    # An internal engine error in any managed tier is always an engine
    # bug, planted or not.
    for name in MANAGED_TIERS:
        outcome = outcomes.get(name)
        if outcome is not None and outcome.internal_error:
            return report(DIVERGENCE,
                          f"{name} internal error: "
                          f"{outcome.internal_error}")

    managed = [outcomes[n] for n in MANAGED_TIERS if n in outcomes]
    if not managed:
        raise ValueError("oracle needs at least one managed tier")

    if planted:
        reference = managed[0]
        for outcome in managed[1:]:
            if outcome.comparable() != reference.comparable() or \
                    outcome.signatures != reference.signatures:
                return report(
                    DIVERGENCE,
                    f"managed tiers disagree on planted program: "
                    f"{reference.tier} vs {outcome.tier}")
        if not reference.detected:
            kinds = ", ".join(entry["kind"] for entry in planted)
            return report(PLANTED_MISSED,
                          f"planted {kinds} ran to completion undetected")
        expected_kinds = {entry["kind"] for entry in planted}
        seen_kinds = {sig.split("@", 1)[0] for sig in reference.signatures}
        if not expected_kinds & seen_kinds:
            return report(
                PLANTED_MISSED,
                f"detected {sorted(seen_kinds)} but planted "
                f"{sorted(expected_kinds)}")
        return report(PLANTED_CAUGHT,
                      "; ".join(reference.signatures))

    # Clean program: every tier must finish without a report and all
    # five executions must be indistinguishable.
    for name, outcome in outcomes.items():
        if outcome.detected:
            return report(
                DIVERGENCE,
                f"false positive on well-defined program: {name} "
                f"reported {outcome.signatures or outcome.crash_message}")
        if outcome.internal_error:
            return report(DIVERGENCE,
                          f"{name} internal error: "
                          f"{outcome.internal_error}")
        if outcome.limit_exceeded or outcome.timed_out:
            return report(
                DIVERGENCE,
                f"{name} hit a resource quota on a bounded program")
    reference = next(iter(outcomes.values()))
    for outcome in outcomes.values():
        if outcome.comparable() != reference.comparable():
            return report(
                DIVERGENCE,
                f"{reference.tier} and {outcome.tier} disagree: "
                f"status {reference.status} vs {outcome.status}, "
                f"stdout {reference.stdout[:64]!r} vs "
                f"{outcome.stdout[:64]!r}")
    return report(AGREE)


@dataclass
class SweepSummary:
    count: int = 0
    verdicts: dict = field(default_factory=dict)
    bugs: list = field(default_factory=list)
    asan_caught: int = 0
    asan_planted: int = 0

    def add(self, report: OracleReport) -> None:
        self.count += 1
        self.verdicts[report.verdict] = \
            self.verdicts.get(report.verdict, 0) + 1
        if report.manifest.get("planted"):
            self.asan_planted += 1
            if report.asan_caught:
                self.asan_caught += 1
        if report.is_bug:
            self.bugs.append(report)

    @property
    def ok(self) -> bool:
        return not self.bugs

    def table(self) -> str:
        lines = [f"programs: {self.count}"]
        for verdict in (AGREE, PLANTED_CAUGHT, PLANTED_MISSED,
                        DIVERGENCE):
            lines.append(f"  {verdict}: {self.verdicts.get(verdict, 0)}")
        if self.asan_planted:
            lines.append(f"  asan caught {self.asan_caught}/"
                         f"{self.asan_planted} planted")
        return "\n".join(lines)


def sweep(count: int, base_seed: int = 0,
          config: GenConfig | None = None, plant_mode: str = "mixed",
          cache_dir: str | None = None, tiers: dict | None = None,
          on_report=None) -> SweepSummary:
    """Generate ``count`` programs from consecutive seeds and run the
    oracle on each.  ``on_report`` (if given) sees every report as it
    lands; the returned summary keeps only the bug reports."""
    base_config = config or GenConfig()
    if tiers is None:
        tiers = make_tiers(cache_dir)
    summary = SweepSummary()
    for seed in range(base_seed, base_seed + count):
        plant = choose_plant(seed, plant_mode)
        program = generate(seed, _with_plant(base_config, plant))
        report = run_oracle(program.source, program.manifest,
                            tiers=tiers, seed=seed)
        summary.add(report)
        if on_report is not None:
            on_report(report)
    return summary


def _with_plant(config: GenConfig, plant: str) -> GenConfig:
    if config.plant == plant:
        return config
    from dataclasses import replace
    return replace(config, plant=plant)


def selftest(count: int = 200, base_seed: int = 0,
             cache_dir: str | None = None,
             verbose: bool = True) -> tuple[bool, list[str]]:
    """Fixed-seed acceptance sweep: ≥1 planted bug caught, zero
    divergences, zero planted misses."""
    import shutil
    import tempfile
    problems: list[str] = []
    own_cache = cache_dir is None
    if own_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-gen-selftest-")
    try:
        def progress(report):
            if verbose and report.is_bug:
                print("  " + report.summary_line())

        summary = sweep(count, base_seed=base_seed, cache_dir=cache_dir,
                        plant_mode="mixed", on_report=progress)
    finally:
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    caught = summary.verdicts.get(PLANTED_CAUGHT, 0)
    if caught < 1:
        problems.append("no planted bug was caught")
    for report in summary.bugs:
        problems.append(report.summary_line())
    if verbose:
        print(summary.table())
    return not problems, problems
