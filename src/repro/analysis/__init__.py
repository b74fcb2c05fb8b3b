"""Static analyses over the IR (CFG utilities, dataflow solver, clients).

The dynamic engine (``core/``) finds bugs by *executing* IR under managed
semantics, with every check; this package finds a subset of them
*statically*, on all paths (``repro lint``), and proves some dynamic
checks redundant (``opt/elide.py``, whose marks no executor reads).
Everything here is deliberately must-information only: a fact is either
proven or absent, never guessed.
"""

from .cfg import ControlFlowGraph
from .dataflow import DataflowAnalysis, DataflowResult, solve
from .intervals import Interval, IntervalAnalysis
from .pointers import NONNULL, NULL, MAYBE, PointerAnalysis, PointerFact, Region
from .heapstate import HeapStateAnalysis, UninitAnalysis
from .lint import (DIAGNOSTIC_KINDS, SEVERITY, Diagnostic,
                   apply_baseline, lint_module, lint_source,
                   load_baseline, render_json, render_sarif,
                   render_text, write_baseline)

__all__ = [
    "ControlFlowGraph",
    "DataflowAnalysis", "DataflowResult", "solve",
    "Interval", "IntervalAnalysis",
    "NONNULL", "NULL", "MAYBE", "PointerAnalysis", "PointerFact", "Region",
    "HeapStateAnalysis", "UninitAnalysis",
    "DIAGNOSTIC_KINDS", "SEVERITY", "Diagnostic",
    "apply_baseline", "load_baseline", "write_baseline",
    "lint_module", "lint_source", "render_json", "render_sarif",
    "render_text",
]
