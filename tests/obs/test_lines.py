"""Source-line attribution: exact per-line counters, the annotated
render, and the collapsed-stack flamegraph export."""

from repro.core import SafeSulong
from repro.obs.lines import collapsed_stacks, render_lines, write_flamegraph
from repro.obs.observer import Observer

LOOP = """\
#include <stdlib.h>

int sum(int *a, int n) {
    int total = 0;
    for (int i = 0; i < n; i++)
        total += a[i];
    return total;
}

int main(void) {
    int *a = malloc(16 * sizeof(int));
    for (int i = 0; i < 16; i++)
        a[i] = i;
    int total = sum(a, 16);
    free(a);
    return total == 120 ? 0 : 1;
}
"""


def _profile(source: str, filename: str = "lines.c"):
    observer = Observer(enabled=True, lines=True)
    engine = SafeSulong(observer=observer, jit_threshold=None)
    result = engine.run_source(source, filename=filename)
    return result, observer.snapshot()


class TestLineCounters:
    def test_loop_body_dominates(self):
        result, snapshot = _profile(LOOP)
        assert result.status == 0
        per_line = {line: (instr, checks, allocs)
                    for filename, line, instr, checks, allocs
                    in snapshot["lines"] if filename == "lines.c"}
        # The summation line (6) retires one instruction per element
        # per call and carries bounds/null checks.
        instr6, checks6, _ = per_line[6]
        assert instr6 >= 16
        assert checks6 > 0
        # The loop body beats the straight-line epilogue.
        assert instr6 > per_line[15][0]
        # malloc's line is charged exactly one heap allocation.
        assert per_line[11][2] >= 1

    def test_lines_mode_pins_to_interpreter(self):
        observer = Observer(enabled=True, lines=True)
        engine = SafeSulong(observer=observer, jit_threshold=1)
        result = engine.run_source(LOOP, filename="lines.c")
        assert result.status == 0
        # Every compile attempt must have bailed out: generated code
        # carries no per-line hooks, so compiling would lose counts.
        assert result.runtime.compiled_functions == 0

    def test_lines_off_records_nothing(self):
        observer = Observer(enabled=True)
        engine = SafeSulong(observer=observer, jit_threshold=None)
        engine.run_source(LOOP, filename="lines.c")
        snapshot = observer.snapshot()
        assert "lines" not in snapshot


class TestRender:
    def test_annotated_source_and_hot_lines(self):
        _, snapshot = _profile(LOOP)
        text = render_lines(snapshot, LOOP, "lines.c", program="lines.c")
        assert "== line profile: lines.c ==" in text
        assert "-- hottest lines --" in text
        # The hot loop-body line is annotated with its source text.
        assert "total += a[i];" in text

    def test_call_edges_feed_collapsed_stacks(self, tmp_path):
        _, snapshot = _profile(LOOP)
        stacks = collapsed_stacks(snapshot)
        assert any(line.startswith("main;sum ") for line in stacks)
        path = str(tmp_path / "fg.txt")
        count = write_flamegraph(path, snapshot)
        lines = open(path).read().splitlines()
        assert len(lines) == count == len(stacks)
        for line in lines:
            stack, cost = line.rsplit(" ", 1)
            assert stack and int(cost) > 0
