"""The `python -m repro` command-line interface."""

import io
import json
import sys

import pytest

from repro.__main__ import main

CLEAN = """
#include <stdio.h>
int main(void) { printf("fine\\n"); return 4; }
"""

BUGGY = """
int main(void) {
    int a[2];
    a[2] = 1;
    return 0;
}
"""

UAF = """
#include <stdlib.h>
int main(void) {
    int *p = malloc(16);
    free(p);
    return *p;
}
"""


@pytest.fixture
def program_file(tmp_path):
    def write(source):
        path = tmp_path / "program.c"
        path.write_text(source)
        return str(path)
    return write


class TestRunCommand:
    def test_clean_program_exit_status(self, program_file, capsys):
        status = main(["run", program_file(CLEAN)])
        assert status == 4
        assert capsys.readouterr().out == "fine\n"

    def test_bug_reported_with_exit_3(self, program_file, capsys):
        status = main(["run", program_file(BUGGY)])
        assert status == 3
        captured = capsys.readouterr()
        assert "out-of-bounds" in captured.err

    def test_native_tool_runs_silently(self, program_file):
        status = main(["run", "--tool", "clang-O0",
                       program_file(BUGGY)])
        assert status == 0  # the bug is silent natively

    def test_argv_forwarded(self, program_file, capsys):
        source = """
        #include <stdio.h>
        int main(int argc, char **argv) {
            printf("%d %s\\n", argc, argv[1]);
            return 0;
        }
        """
        main(["run", program_file(source), "hello"])
        assert capsys.readouterr().out.endswith("hello\n")

    def test_unknown_tool_rejected(self, program_file, capsys):
        status = main(["run", "--tool", "bogus", program_file(CLEAN)])
        assert status == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_max_steps(self, program_file, capsys):
        source = "int main(void) { for(;;){} }"
        status = main(["run", "--max-steps", "1000",
                       program_file(source)])
        assert status == 5

    def test_bug_gets_provenance_block(self, program_file, capsys):
        status = main(["run", "--no-cache", program_file(UAF)])
        assert status == 3
        err = capsys.readouterr().err
        assert "ERROR: use-after-free" in err
        assert "#0 main" in err
        assert "allocated at" in err
        assert "freed at" in err

    def test_heap_dump_on_bug(self, program_file, capsys):
        status = main(["run", "--no-cache", "--heap-dump",
                       program_file(UAF)])
        assert status == 3
        err = capsys.readouterr().err
        assert "-- heap dump:" in err
        assert "[freed]" in err

    def test_trace_spans_written(self, program_file, tmp_path, capsys):
        trace = str(tmp_path / "spans.json")
        status = main(["run", "--no-cache", "--trace-spans", trace,
                       program_file(CLEAN)])
        assert status == 4
        events = json.load(open(trace))
        names = {event["name"] for event in events}
        assert {"parse", "prepare", "execute"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert {"ts", "dur", "pid", "tid"} <= set(event)


class TestProfileLines:
    def test_lines_render(self, program_file, capsys):
        status = main(["profile", "--no-cache", "--lines", "--quiet",
                       program_file(CLEAN)])
        assert status == 0
        out = capsys.readouterr().out
        assert "== line profile:" in out
        assert "-- hottest lines --" in out

    def test_flamegraph_implies_lines(self, program_file, tmp_path,
                                      capsys):
        flame = str(tmp_path / "fg.txt")
        source = """
        int work(int n) { int t = 0; for (int i = 0; i < n; i++) t += i;
                          return t; }
        int main(void) { return work(50) == 1225 ? 0 : 1; }
        """
        status = main(["profile", "--no-cache", "--quiet",
                       "--flamegraph", flame, program_file(source)])
        assert status == 0
        stacks = open(flame).read().splitlines()
        assert any(line.startswith("main;work ") for line in stacks)


class TestBenchMerge:
    def test_merge_appends_and_is_idempotent(self, tmp_path, capsys):
        root = str(tmp_path)
        (tmp_path / "BENCH_demo.json").write_text('{"x": {"s": 1.0}}')
        assert main(["bench-merge", "--root", root]) == 0
        assert "appended run" in capsys.readouterr().out
        assert main(["bench-merge", "--root", root]) == 0
        assert "unchanged" in capsys.readouterr().out
        data = json.load(open(tmp_path / "BENCH_trajectory.json"))
        assert data["runs"][0]["benchmarks"]["demo"]["x"]["s"] == 1.0


class TestEmitIr:
    def test_prints_module(self, program_file, capsys):
        main(["emit-ir", program_file(CLEAN)])
        out = capsys.readouterr().out
        assert "define i32 @main()" in out
        assert "call i32 @printf" in out

    def test_optimized_output_differs(self, program_file, capsys):
        path = program_file("""
            int main(void) {
                int x = 21;
                return x + x;
            }
        """)
        main(["emit-ir", path])
        plain = capsys.readouterr().out
        main(["emit-ir", "-O3", path])
        optimized = capsys.readouterr().out
        assert "alloca" in plain
        assert "alloca" not in optimized  # mem2reg promoted everything
        assert "ret i32 42" in optimized  # and constants folded

    def test_native_mode_applies_backend_folds(self, program_file,
                                               capsys):
        path = program_file("""
            int zeros[4];
            int main(void) { return zeros[1]; }
        """)
        main(["emit-ir", "--native", path])
        out = capsys.readouterr().out
        assert "load" not in out  # folded to a constant


# Every option string of the engine-running subcommands with its
# default, recorded before their engine flags were declared from one
# table: a flag may not be added, dropped or re-defaulted.
CLI_SURFACE = {
    "run": {
        "--tool": "safe-sulong", "--stdin": False, "--max-steps": None,
        "--timeout": None, "--heap-quota": None, "--elide": False,
        "--speculate": False, "--metrics": None, "--heap-dump": False,
        "--trace-spans": None, "--manifest": None, "--cache-dir": None,
        "--no-cache": False,
    },
    "profile": {
        "--jit": None, "--elide": False, "--max-steps": None,
        "--stdin": False, "--quiet": False, "--metrics": None,
        "--trace": None, "--lines": False, "--flamegraph": None,
        "--hot-checks": 0, "--heap-dump": False, "--trace-spans": None,
        "--cache-dir": None, "--no-cache": False,
    },
    "hunt": {
        "--tool": "safe-sulong", "--jobs": 1, "--timeout": None,
        "--max-steps": 2000000, "--heap-quota": 67108864,
        "--call-depth": None, "--output-cap": 1048576, "--retries": 2,
        "--backoff": 0.1, "--no-ladder": False, "--jit": None,
        "--elide": False, "--speculate": False,
        "--report": "hunt-report.jsonl", "--fresh": False,
        "--faults": None, "--prescreen": False, "--gen": 0,
        "--gen-seed": 0, "--gen-plant": "mixed", "--selftest": False,
        "--quiet": False, "--no-metrics": False, "--trace-spans": None,
        "--cache-dir": None, "--no-cache": False,
    },
    "serve": {
        "--state-dir": None, "--host": "127.0.0.1", "--port": 0,
        "--tool": "safe-sulong", "--jobs": 2, "--timeout": None,
        "--retries": 2, "--max-depth": 256, "--degrade-depth": None,
        "--lease-ttl": None, "--max-steps": 2000000,
        "--heap-quota": 67108864, "--output-cap": 1048576, "--jit": None,
        "--elide": False, "--speculate": False, "--cache-cap": None,
        "--faults": None, "--selftest": False, "--quiet": False,
        "--cache-dir": None, "--no-cache": False,
    },
    "explain": {
        "--id": None, "--source": None, "--format": "json",
        "--budget": 65536, "--window": 32, "--max-steps": None,
        "--divergence": None, "--no-divergence": None, "--out": "-",
        "--selftest": False, "--quiet": False, "--cache-dir": None,
        "--no-cache": False,
    },
}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface(command):
    import argparse

    from repro.__main__ import build_parser
    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    surface = {option: action.default
               for action in subparsers.choices[command]._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
    assert surface == CLI_SURFACE[command]


class TestProfileJit:
    # three() is called three times and four() four times: the default
    # threshold of 3 compiles both, two() (called twice) stays
    # interpreted.
    SOURCE = """
    int two(int x) { return x + 2; }
    int three(int x) { return x + 3; }
    int four(int x) { return x + 4; }
    int main(void) {
        int s = 0;
        for (int i = 0; i < 2; i++) s += two(i);
        for (int i = 0; i < 3; i++) s += three(i);
        for (int i = 0; i < 4; i++) s += four(i);
        return s & 1;
    }
    """

    def _compiled(self, program_file, tmp_path, *flags):
        metrics = tmp_path / "metrics.json"
        status = main(["profile", "--no-cache", "--quiet", "--metrics",
                       str(metrics), *flags, program_file(self.SOURCE)])
        assert status == 0
        events = json.loads(metrics.read_text())["events"]
        return {event["function"] for event in events
                if event["event"] == "jit-compile"}

    def test_default_threshold_is_three(self, program_file, tmp_path,
                                        capsys):
        assert self._compiled(program_file, tmp_path) == {"three", "four"}

    def test_jit_zero_turns_the_jit_off(self, program_file, tmp_path,
                                        capsys):
        assert self._compiled(program_file, tmp_path, "--jit", "0") == set()
