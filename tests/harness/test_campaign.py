"""Campaign orchestration: program collection, checkpoint resume after a
mid-campaign kill, and the CI selftest smoke."""

import json
import os

import pytest

from repro.harness.campaign import (collect_programs, run_campaign,
                                    selftest)
from repro.harness.quotas import Quotas
from repro.harness.report import read_report

CLEAN = "int main(void) { return %d; }\n"


def _write_corpus(tmp_path, names):
    for offset, name in enumerate(names):
        (tmp_path / f"{name}.c").write_text(CLEAN % offset)
    return tmp_path


class TestCollectPrograms:
    def test_directory_recursive_sorted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.c").write_text(CLEAN % 0)
        (tmp_path / "sub" / "a.c").write_text(CLEAN % 0)
        (tmp_path / "notes.txt").write_text("ignored")
        programs = collect_programs([str(tmp_path)])
        assert [job_id for job_id, _ in programs] == ["b", "a"]
        assert all(os.path.isabs(path) for _, path in programs)

    def test_duplicate_stems_get_suffixes(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        (tmp_path / "x" / "dup.c").write_text(CLEAN % 0)
        (tmp_path / "y" / "dup.c").write_text(CLEAN % 0)
        programs = collect_programs([str(tmp_path)])
        assert [job_id for job_id, _ in programs] == ["dup", "dup~2"]

    def test_explicit_files_kept_in_order(self, tmp_path):
        _write_corpus(tmp_path, ["z", "a"])
        programs = collect_programs([str(tmp_path / "z.c"),
                                     str(tmp_path / "a.c")])
        assert [job_id for job_id, _ in programs] == ["z", "a"]


class TestResume:
    def test_kill_and_resume_skips_completed(self, tmp_path):
        corpus = _write_corpus(tmp_path, ["p1", "p2", "p3"])
        programs = collect_programs([str(corpus)])
        report_path = str(tmp_path / "report.jsonl")
        kwargs = dict(quotas=Quotas(max_steps=100_000), jobs=1,
                      timeout=30.0, retries=0, progress=None,
                      report_path=report_path)

        summary = run_campaign(programs, **kwargs)
        assert summary["programs"] == 3
        assert summary["resumed"] is False

        # Re-invoking the identical campaign runs nothing new.
        ran = []
        summary = run_campaign(
            programs, **{**kwargs, "progress":
                         lambda done, total, record: ran.append(record)})
        assert summary["resumed"] is True
        assert summary["skipped_completed"] == 3
        assert ran == []

        # Simulate a kill -9 after the first completion: the report has
        # one result line and the checkpoint one id.
        with open(report_path, encoding="utf-8") as handle:
            first_result = handle.readline()
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(first_result)
        first_id = json.loads(first_result)["id"]
        ckpt = report_path + ".ckpt"
        with open(ckpt, encoding="utf-8") as handle:
            header = handle.readline()
        with open(ckpt, "w", encoding="utf-8") as handle:
            handle.write(header)
            handle.write(first_id + "\n")

        ran = []
        summary = run_campaign(
            programs, **{**kwargs, "progress":
                         lambda done, total, record: ran.append(record)})
        assert summary["resumed"] is True
        assert summary["skipped_completed"] == 1
        assert {record["id"] for record in ran} == \
            {job_id for job_id, _ in programs} - {first_id}
        records, final = read_report(report_path)
        assert {record["id"] for record in records} == {"p1", "p2", "p3"}
        assert final["programs"] == 3

    def test_changed_campaign_does_not_resume(self, tmp_path):
        corpus = _write_corpus(tmp_path, ["p1"])
        programs = collect_programs([str(corpus)])
        report_path = str(tmp_path / "report.jsonl")
        kwargs = dict(jobs=1, timeout=30.0, retries=0, progress=None,
                      report_path=report_path)
        run_campaign(programs, quotas=Quotas(max_steps=100_000),
                     **kwargs)
        # A different step budget is a different campaign: the stale
        # checkpoint must not suppress the re-run.
        summary = run_campaign(programs,
                               quotas=Quotas(max_steps=200_000), **kwargs)
        assert summary["resumed"] is False
        assert summary["skipped_completed"] == 0


class TestCampaignMetrics:
    MALLOC = ("#include <stdlib.h>\n"
              "int main(void) {\n"
              "    int *p = malloc(16);\n"
              "    p[0] = 7;\n"
              "    free(p);\n"
              "    return 0;\n"
              "}\n")

    def _campaign(self, tmp_path, **overrides):
        (tmp_path / "alloc.c").write_text(self.MALLOC)
        (tmp_path / "plain.c").write_text(CLEAN % 0)
        programs = collect_programs([str(tmp_path)])
        report_path = str(tmp_path / "report.jsonl")
        kwargs = dict(quotas=Quotas(max_steps=100_000), jobs=1,
                      timeout=30.0, retries=0, progress=None,
                      report_path=report_path, fresh=True)
        kwargs.update(overrides)
        return run_campaign(programs, **kwargs), report_path

    def test_summary_aggregates_worker_metrics(self, tmp_path):
        summary, report_path = self._campaign(tmp_path)
        metrics = summary["metrics"]
        assert metrics["programs_with_metrics"] == 2
        assert metrics["instructions"] > 0
        assert metrics["checks"]["null_checks"] > 0
        assert metrics["heap"]["allocs"] == 1
        assert metrics["heap"]["frees"] == 1
        # Every record shipped its own snapshot through the report.
        records, _ = read_report(report_path)
        assert all(record["result"]["metrics"]["enabled"]
                   for record in records)

    def test_summary_lines_render(self, tmp_path):
        from repro.harness.report import format_summary_metrics
        summary, _ = self._campaign(tmp_path)
        lines = format_summary_metrics(summary)
        assert any("metrics (2 programs observed)" in line
                   for line in lines)
        assert any(line.strip().startswith("checks:") for line in lines)
        assert any(line.strip().startswith("rungs:") for line in lines)

    def test_opt_out(self, tmp_path):
        summary, report_path = self._campaign(tmp_path,
                                              collect_metrics=False)
        assert "metrics" not in summary
        from repro.harness.report import format_summary_metrics
        assert format_summary_metrics(summary) == []
        records, _ = read_report(report_path)
        assert all("metrics" not in record["result"]
                   for record in records)


class TestSpeculateWatchdog:
    OOB_AFTER_PRINTF = ("#include <stdio.h>\n"
                        "#include <stdlib.h>\n"
                        "int main(void) {\n"
                        "    int *a = malloc(4 * sizeof(int));\n"
                        "    printf(\"%d\\n\", 4);\n"
                        "    a[4] = 1;\n"
                        "    return 0;\n"
                        "}\n")

    def test_speculate_after_printf_fits_default_watchdog(self, tmp_path):
        # `hunt --speculate --jit 3 oob.c`: each fresh worker builds the
        # safe-O2 clone of printf's core on first use, and that must fit
        # the default 10 s watchdog with room to find the bug.
        (tmp_path / "oob.c").write_text(self.OOB_AFTER_PRINTF)
        records = []
        summary = run_campaign(
            collect_programs([str(tmp_path / "oob.c")]),
            options={"speculate": True, "jit_threshold": 3},
            report_path=str(tmp_path / "report.jsonl"),
            progress=lambda done, total, record: records.append(record))
        assert summary["triage"]["bug"] == 1
        [record] = records
        assert record["triage"] == "bug"
        assert record["rung"] == "as-requested"
        assert record["attempts"] == 1
        [signature] = record["signatures"]
        assert signature.startswith("out-of-bounds@")
        assert "oob.c:6:" in signature


@pytest.mark.selftest
def test_harness_selftest_smoke():
    """The `repro hunt --selftest` path: a tiny corpus exercising clean
    exit, bug detection, watchdog kill, heap quota, an injected worker
    crash (retried), and an injected hang — asserting a complete,
    correctly triaged report."""
    ok, problems = selftest(timeout=2.0, jobs=2)
    assert ok, "; ".join(problems)
