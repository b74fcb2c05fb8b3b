"""Runs the corpus through the §4.1 evaluation matrix."""

from __future__ import annotations

from ..core.engine import ExecutionResult
from ..tools import ToolRunner, all_runners, detected
from .manifest import ENTRIES, CorpusEntry


class MatrixResult:
    """Detection outcomes for the whole corpus × tool matrix."""

    def __init__(self, outcomes: dict[str, dict[str, bool]],
                 metrics: dict | None = None):
        self.outcomes = outcomes  # program -> tool -> detected?
        # Aggregated observability snapshot over the safe-sulong cells
        # (None unless the matrix ran with collect_metrics).
        self.metrics = metrics

    def found_by(self, tool: str) -> set[str]:
        return {name for name, row in self.outcomes.items() if row[tool]}

    def count(self, tool: str) -> int:
        return len(self.found_by(tool))

    def found_by_neither_baseline(self) -> set[str]:
        """Programs found by Safe Sulong but by neither ASan nor Valgrind
        at either optimization level (the paper's 8)."""
        missed = set()
        baselines = ["asan-O0", "asan-O3", "memcheck-O0", "memcheck-O3"]
        for name, row in self.outcomes.items():
            if row.get("safe-sulong") and not any(
                    row.get(b) for b in baselines):
                missed.add(name)
        return missed

    def format_table(self) -> str:
        tools = list(next(iter(self.outcomes.values())).keys())
        lines = [f"{'program':32}" + "".join(f"{t:>14}" for t in tools)]
        for name in sorted(self.outcomes):
            row = self.outcomes[name]
            lines.append(f"{name:32}" + "".join(
                f"{'FOUND' if row[t] else '-':>14}" for t in tools))
        lines.append(f"{'TOTAL':32}" + "".join(
            f"{self.count(t):>14}" for t in tools))
        return "\n".join(lines)


def run_entry(entry: CorpusEntry, runner: ToolRunner,
              max_steps: int = 2_000_000) -> ExecutionResult:
    return runner.run(entry.source(), argv=entry.argv, stdin=entry.stdin,
                      vfs=entry.vfs, max_steps=max_steps,
                      filename=entry.name + ".c")


def run_matrix(tools: dict[str, ToolRunner] | None = None,
               entries: list[CorpusEntry] | None = None,
               max_steps: int = 2_000_000,
               jobs: int | None = None,
               timeout: float | None = None,
               collect_metrics: bool = False,
               cache_dir: str | None = None) -> MatrixResult:
    """Run the corpus × tool matrix.

    With ``jobs`` set, every (program, tool) cell runs in its own
    watchdogged worker subprocess via the batch harness — a crashing or
    hanging cell costs that cell, not the campaign.  Isolated cells are
    reconstructed by *tool name* in the worker, so custom runner
    instances passed via ``tools`` must be registered names.

    With ``collect_metrics``, the safe-sulong cells run under an enabled
    observer and the result's ``metrics`` holds the aggregate snapshot
    (check counts, JIT activity, heap pressure across the corpus).

    ``cache_dir`` attaches the compilation cache to the safe-sulong
    cells (a shared store: isolated workers all open the same
    directory).
    """
    tools = tools or all_runners()
    entries = entries or ENTRIES
    if jobs:
        return _run_matrix_isolated(list(tools), entries, max_steps,
                                    jobs, timeout, collect_metrics,
                                    cache_dir)
    if cache_dir and "safe-sulong" in tools:
        from ..cache import resolve_cache
        tools = dict(tools)
        tools["safe-sulong"].cache = resolve_cache(cache_dir)
    observer = None
    if collect_metrics and "safe-sulong" in tools:
        from ..obs.observer import Observer
        observer = Observer(enabled=True)
        tools = dict(tools)
        tools["safe-sulong"].observer = observer
    outcomes: dict[str, dict[str, bool]] = {}
    for entry in entries:
        outcomes[entry.name] = {
            tool_name: detected(run_entry(entry, runner,
                                          max_steps=max_steps))
            for tool_name, runner in tools.items()}
    metrics = None
    if observer is not None:
        from ..obs.metrics import aggregate_metrics
        metrics = aggregate_metrics([observer.snapshot()])
        # One shared observer watched every entry in-process.
        metrics["programs_with_metrics"] = len(entries)
    return MatrixResult(outcomes, metrics=metrics)


def _run_matrix_isolated(tool_names: list[str],
                         entries: list[CorpusEntry], max_steps: int,
                         jobs: int, timeout: float | None,
                         collect_metrics: bool = False,
                         cache_dir: str | None = None) -> MatrixResult:
    from ..harness.pool import WorkerPool, WorkTask
    from ..harness.quotas import DEFAULT_TIMEOUT

    options = {"cache_dir": cache_dir} if cache_dir else None
    tasks = []
    index = 0
    for entry in entries:
        for tool_name in tool_names:
            payload = {"corpus_entry": entry.name, "max_steps": max_steps}
            if collect_metrics:
                payload["collect_metrics"] = True
            tasks.append(WorkTask(f"{entry.name}::{tool_name}", payload,
                                  tool=tool_name, options=options,
                                  index=index))
            index += 1
    # No degradation ladder here: the matrix is an *evaluation* — every
    # cell must report the configuration it was asked for.
    pool = WorkerPool(jobs=jobs, timeout=timeout or DEFAULT_TIMEOUT,
                      retries=1, use_ladder=False)
    records = {record["id"]: record for record in pool.run(tasks)}

    outcomes: dict[str, dict[str, bool]] = {}
    for entry in entries:
        outcomes[entry.name] = {}
        for tool_name in tool_names:
            record = records.get(f"{entry.name}::{tool_name}")
            outcomes[entry.name][tool_name] = bool(
                record and record.get("detected"))
    metrics = None
    if collect_metrics:
        from ..obs.metrics import aggregate_metrics
        metrics = aggregate_metrics(
            [(record.get("result") or {}).get("metrics")
             for record in records.values()])
    return MatrixResult(outcomes, metrics=metrics)
