"""Hardened batch bug-hunting harness (``repro hunt``).

The paper's campaign — thousands of GCC-torture/LLVM-suite programs
through Safe Sulong — needs the *tool* to out-survive its inputs.  This
package provides that discipline for any ToolRunner:

* :mod:`.pool` — subprocess worker pool: per-program isolation,
  wall-clock watchdog with kill-and-reap, bounded retry-with-backoff,
  and the degradation ladder (``EngineConfig.descend``);
* :mod:`.quotas` — per-run resource budgets (interpreter steps, heap
  bytes, call depth, output bytes) enforced inside the managed engine;
* :mod:`.triage` — program-bug vs tool-failure classification and
  bug-signature deduplication;
* :mod:`.report` — resumable JSONL report + checkpoint file;
* :mod:`.faults` — deterministic fault injection so every robustness
  path is testable in CI;
* :mod:`.campaign` — the orchestration glue and the ``--selftest``
  smoke;
* :mod:`.worker` — the ``python -m repro.harness.worker`` subprocess
  entry point.
"""

from .campaign import collect_programs, run_campaign, selftest
from .faults import (CRASH_EXIT_CODE, FaultPlan, crash_point,
                     parse_faults, torn_tail)
from .pool import WorkerPool, WorkTask, build_ladder, run_one
from .quotas import DEFAULT_TIMEOUT, Quotas
from .report import CampaignReport, campaign_fingerprint, read_report
from .triage import dedup_bugs, summarize, triage_result

__all__ = [
    "CRASH_EXIT_CODE", "CampaignReport", "DEFAULT_TIMEOUT", "FaultPlan",
    "Quotas", "WorkTask", "WorkerPool", "build_ladder",
    "campaign_fingerprint", "collect_programs", "crash_point",
    "dedup_bugs",
    "parse_faults", "read_report", "run_campaign", "run_one", "selftest",
    "summarize", "torn_tail", "triage_result",
]
