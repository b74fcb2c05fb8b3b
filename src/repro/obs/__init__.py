"""Runtime observability: counters, events, and their surfaces.

The engine itself stays silent by default — every hot-path hook is
behind a single ``observer is not None`` / ``observer.enabled`` branch
resolved at *prepare time* wherever possible, so a run without an
observer executes exactly the code it executed before this layer
existed (see DESIGN.md, "Observability" — the overhead contract is
measured by the ``obs`` contract of ``benchmarks/test_overhead.py`` into
``BENCH_obs.json``).
"""

# perfbench imports ``Observer`` from here; every other name is
# imported from the module that defines it, so importing the engine
# (which reaches ``obs.spans``) loads no renderer or replay code.
from .observer import Observer

__all__ = ["Observer"]
