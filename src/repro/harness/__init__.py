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
