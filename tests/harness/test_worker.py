"""The worker entry point: its start-up import set, and the one rule
(``locate_program``) for which program and inputs a job spec names."""

import os
import subprocess
import sys

import pytest

from repro.harness.worker import (ProgramError, ProgramMismatch,
                                  locate_program, run_job, source_digest)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

# What ``import repro.harness.worker`` loaded of repro when this test was
# written.  The service starts a fresh worker process for every attempt,
# so each module here is loaded (and, without bytecode caching, compiled)
# once per task: the worker may load fewer, never others.
STARTUP_MODULES = {
    "repro", "repro.cfront", "repro.cfront.ast", "repro.cfront.ctypes",
    "repro.cfront.driver", "repro.cfront.errors", "repro.cfront.irgen",
    "repro.cfront.lexer", "repro.cfront.parser",
    "repro.cfront.preprocessor", "repro.cfront.sema", "repro.core",
    "repro.core.bits", "repro.core.config", "repro.core.engine",
    "repro.core.errors", "repro.core.interpreter", "repro.core.intrinsics",
    "repro.core.leakcheck", "repro.core.objects", "repro.harness",
    "repro.harness.faults", "repro.harness.worker", "repro.ir",
    "repro.ir.builder", "repro.ir.clone", "repro.ir.instructions",
    "repro.ir.module", "repro.ir.printer", "repro.ir.types",
    "repro.ir.validate", "repro.ir.values", "repro.libc",
    "repro.libc.loader", "repro.obs", "repro.obs.observer",
    "repro.obs.spans", "repro.source",
}

LOADED = ("import sys, repro.harness.worker\n"
          "print(*sorted(m for m in sys.modules\n"
          "              if m.split('.')[0] == 'repro'))\n")


def test_worker_startup_loads_no_new_modules():
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = set(subprocess.run(
        [sys.executable, "-c", LOADED], env=env, check=True,
        capture_output=True, text=True).stdout.split())
    assert "repro.harness.worker" in loaded
    assert loaded <= STARTUP_MODULES, sorted(loaded - STARTUP_MODULES)


CLEAN = "int main(void) { return 0; }\n"


class TestLocateProgram:
    def test_name_is_filename_then_path_then_default(self, tmp_path):
        path = tmp_path / "p.c"
        path.write_text(CLEAN)
        assert locate_program({"path": str(path)}).filename == str(path)
        assert locate_program({"path": str(path),
                               "filename": "p.c"}).filename == "p.c"
        assert locate_program({"source": CLEAN}).filename == "program.c"

    def test_corpus_entry_brings_its_own_inputs(self):
        program = locate_program({"corpus_entry":
                                  "stack_getchar_fill_write",
                                  "filename": "ignored.c"})
        assert program.filename == "stack_getchar_fill_write.c"
        assert program.stdin

    def test_readable_file_is_never_regenerated(self, tmp_path):
        path = tmp_path / "gen-0.c"
        path.write_text(CLEAN)
        spec = {"path": str(path), "gen": {"seed": 0}}
        assert locate_program(spec).source == CLEAN
        path.unlink()
        regenerated = locate_program(spec).source
        assert regenerated != CLEAN
        # A recorded digest the file fails also sends it to the gen tuple.
        path.write_text(CLEAN)
        spec["source_sha256"] = source_digest(regenerated)
        assert locate_program(spec).source == regenerated
        with pytest.raises(ProgramMismatch):
            locate_program(dict(spec, gen=None))

    def test_unlocatable_job_is_a_compile_error(self, tmp_path):
        missing = str(tmp_path / "missing.c")
        with pytest.raises(ProgramError):
            locate_program({"path": missing})
        data = run_job({"path": missing})
        assert not data["detected"]
        assert missing in data["compile_error"]
        assert "unknown corpus entry" in run_job(
            {"corpus_entry": "no_such_entry"})["compile_error"]
