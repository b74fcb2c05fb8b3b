"""The profile surface (``repro profile``) and metric aggregation."""

import json
import re

from repro.obs.metrics import aggregate_metrics, check_breakdown
from repro.obs.profile import hot_checks, profile_source, render_profile

HOT_PROGRAM = """
#include <stdio.h>
int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) acc = acc * 3 + i;
    return acc & 0xFF;
}
int main(void) {
    int total = 0;
    for (int r = 0; r < 12; r++) total += work(r);
    printf("%d\\n", total);
    return 0;
}
"""

BUG_PROGRAM = """
int main(void) {
    int values[4] = {0, 1, 2, 3};
    return values[4];
}
"""


class TestProfileSource:
    def test_returns_result_and_snapshot(self):
        result, snapshot = profile_source(HOT_PROGRAM, jit_threshold=2)
        assert result.status == 0
        assert snapshot["enabled"] is True
        assert snapshot["counters"]["instructions"] > 0
        assert snapshot["jit"]["compiled"] >= 1
        names = {entry["name"] for entry in snapshot["functions"]}
        assert {"main", "work"} <= names

    def test_observer_closed_even_on_bug(self, tmp_path):
        path = str(tmp_path / "bug.trace.jsonl")
        result, snapshot = profile_source(BUG_PROGRAM, trace_path=path)
        assert result.bugs
        # A closed sink means the trace file is complete and flushed.
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)


class TestRenderProfile:
    def test_sections_present(self):
        result, snapshot = profile_source(HOT_PROGRAM, jit_threshold=2)
        text = render_profile(result, snapshot, program="hot.c")
        assert "profile: hot.c" in text
        assert "outcome: exit 0" in text
        assert "safety checks" in text
        assert "hot functions" in text
        assert "JIT timeline" in text
        assert "compile work" in text.replace("  ", " ") \
            or "compile" in text
        assert "heap" in text
        assert "work" in text and "main" in text

    def test_bug_outcome_and_interp_only(self):
        result, snapshot = profile_source(BUG_PROGRAM, jit_threshold=None)
        text = render_profile(result, snapshot, program="bug.c")
        assert "outcome: BUG:" in text
        assert "interpreter only" in text


class TestHotChecks:
    def test_only_the_bug_line_fired(self):
        result, snapshot = profile_source(BUG_PROGRAM, lines=True)
        rows = hot_checks(snapshot, [result])
        assert [(filename, line) for filename, line, _checks, fired
                in rows if fired] == [("program.c", 4)]
        assert all(not fired for *_site, fired
                   in hot_checks(snapshot, []))


class TestCacheRows:
    def test_class_rows_add_up_to_the_totals(self, tmp_path):
        # A run consults the frontend class and the elision pass the
        # analysis class, both through the engine's observer; every
        # artifact class must get a row, or the rows undercount.
        from repro.cache import CompilationCache
        from repro.core import EngineConfig, SafeSulong
        from repro.obs.observer import Observer
        from repro.opt import elide
        observer = Observer(enabled=True)
        cache = CompilationCache(str(tmp_path))
        engine = SafeSulong(EngineConfig(jit_threshold=3),
                            observer=observer, cache=cache)
        module = engine.compile(HOT_PROGRAM, "hot.c")
        elide.run_module(module, cache=cache)
        result = engine.run_module(module)
        observer.close()
        snapshot = observer.snapshot()
        counters = snapshot["counters"]
        for artifact in ("frontend", "analysis"):
            assert counters.get(f"cache.{artifact}.miss", 0) > 0, artifact
        text = render_profile(result, snapshot, program="hot.c")
        section = text.split("-- compilation cache --\n", 1)[1]
        section = section.split("\n\n", 1)[0]
        number = r"([\d,]+)"
        totals = re.search(
            rf"hits: {number}\s+misses: {number}\s+"
            rf"rejected: {number}\s+stored: {number}", section)
        rows = re.findall(
            rf"^\s+\w+\s+hit {number} / miss {number} / "
            rf"reject {number} / store {number}$", section, re.MULTILINE)
        assert totals is not None and rows
        sums = [sum(int(row[k].replace(",", "")) for row in rows)
                for k in range(4)]
        assert sums == [int(value.replace(",", ""))
                        for value in totals.groups()]
        assert sums[1] > 0  # the cold store missed


class TestCheckBreakdown:
    def test_buckets(self):
        counters = {"check.load.full": 10, "check.store.full": 3,
                    "check.gep": 7}
        # NULL checks run on loads/stores and on gep dispatch; bounds/
        # lifetime checks on loads/stores.
        assert check_breakdown(counters) == {"null_checks": 10 + 3 + 7,
                                             "bounds_checks": 10 + 3}


class TestAggregateMetrics:
    def test_none_without_enabled_snapshots(self):
        assert aggregate_metrics([]) is None
        assert aggregate_metrics([None, {"enabled": False}]) is None

    def test_sums_and_maxima(self):
        def snap(instr, peak, compiled):
            return {
                "enabled": True,
                "counters": {"instructions": instr, "calls": 2,
                             "check.load.full": 4},
                "steps": instr,
                "heap": {"allocs": 1, "frees": 1, "live_bytes": 0,
                         "peak_bytes": peak},
                "jit": {"compiled": compiled, "bailouts": 0,
                        "compile_s": 0.001, "code_bytes": 100},
            }

        merged = aggregate_metrics([snap(10, 64, 1), snap(20, 32, 2),
                                    None])
        assert merged["programs_with_metrics"] == 2
        assert merged["instructions"] == 30
        assert merged["calls"] == 4
        assert merged["heap"]["allocs"] == 2
        assert merged["heap"]["peak_bytes_max"] == 64
        assert merged["jit"]["compiled"] == 3
        assert merged["counters"]["check.load.full"] == 8
        assert merged["checks"]["null_checks"] == 8
