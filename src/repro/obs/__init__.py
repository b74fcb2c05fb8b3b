"""Runtime observability: counters, events, and their surfaces.

The engine itself stays silent by default — every hot-path hook is
behind a single ``observer is not None`` / ``observer.enabled`` branch
resolved at *prepare time* wherever possible, so a run without an
observer executes exactly the code it executed before this layer
existed (see DESIGN.md, "Observability" — the overhead contract is
measured by the ``obs`` contract of ``benchmarks/test_overhead.py`` into
``BENCH_obs.json``).
"""

from .observer import Observer
from .metrics import (aggregate_metrics, check_breakdown,
                      service_breakdown)
from .profile import (hot_checks, profile_source, render_hot_checks,
                      render_profile)
from .provenance import (provenance_signature, render_bug_report,
                         render_heap_dump)
from .lines import collapsed_stacks, render_lines, write_flamegraph
from .spans import SpanRecorder, set_recorder, span
from .slices import (BlockRecorder, build_packet, canonical_packet_bytes,
                     render_text, validate_packet)
from .replay import (build_manifest, explain, explain_record,
                     manifest_for_task, replay)

__all__ = ["Observer", "aggregate_metrics", "check_breakdown",
           "service_breakdown",
           "profile_source", "render_profile",
           "hot_checks", "render_hot_checks",
           "render_bug_report", "render_heap_dump",
           "provenance_signature",
           "collapsed_stacks", "render_lines", "write_flamegraph",
           "SpanRecorder", "set_recorder", "span",
           "BlockRecorder", "build_packet", "canonical_packet_bytes",
           "render_text", "validate_packet",
           "build_manifest", "explain", "explain_record",
           "manifest_for_task", "replay"]
