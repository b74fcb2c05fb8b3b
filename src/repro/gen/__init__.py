"""Generative differential oracle (ROADMAP item 5).

A seeded Csmith-lite generator of C programs that are well-defined by
construction (`generator`), a five-way differential driver comparing
interpreter / JIT / optimized / native / asan executions (`oracle`), and
a pass-based delta-debugging reducer that minimizes interesting
programs while re-checking an oracle predicate (`reduce`).

Any disagreement between tiers on a clean generated program is an
engine bug; any planted memory-safety bug the full-check tier misses
is a detection regression.  Both classifications are mechanical, so
the whole loop — generate, compare, reduce, file — runs unattended.
"""

from .generator import GenConfig, GeneratedProgram, choose_plant, generate
from .oracle import (OracleReport, SweepSummary, classify, run_oracle,
                     selftest, sweep)
from .reduce import ReduceResult, reduce_source

__all__ = [
    "GenConfig", "GeneratedProgram", "generate", "choose_plant",
    "OracleReport", "SweepSummary", "classify", "run_oracle", "sweep",
    "selftest", "ReduceResult", "reduce_source",
]
