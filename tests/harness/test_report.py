"""Resumable report + checkpoint semantics."""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.harness import campaign
from repro.harness.pool import build_ladder
from repro.harness.report import (CampaignReport, campaign_fingerprint,
                                  read_report)


def _record(job_id, triage="ok"):
    return {"type": "result", "id": job_id, "triage": triage,
            "result": None, "signatures": []}


FP = campaign_fingerprint("safe-sulong", {}, 1000, ["a", "b", "c"])


class TestFingerprint:
    def test_stable_under_job_order(self):
        assert campaign_fingerprint("t", {}, 1, ["b", "a"]) == \
            campaign_fingerprint("t", {}, 1, ["a", "b"])

    def test_sensitive_to_options_and_steps(self):
        base = campaign_fingerprint("t", {}, 1, ["a"])
        assert campaign_fingerprint("t", {"jit_threshold": 5}, 1,
                                    ["a"]) != base
        assert campaign_fingerprint("t", {}, 2, ["a"]) != base


class _Fingerprinted(Exception):
    """Stops a hunt at its fingerprint, before any worker starts."""


def _hunt_fingerprint_args(tmp_path, monkeypatch, *flags):
    """The (tool, options, max_steps) `repro hunt FLAGS a.c` computes
    its campaign fingerprint from."""
    def stop(tool, options, max_steps, job_ids):
        raise _Fingerprinted(tool, options, max_steps)

    monkeypatch.setattr(campaign, "campaign_fingerprint", stop)
    program = tmp_path / "a.c"
    program.write_text("int main(void) { return 0; }\n")
    with pytest.raises(_Fingerprinted) as stopped:
        main(["hunt", *flags, str(program)])
    return stopped.value.args


class TestHuntCompatibility:
    # Literals recorded before the engine options became one config,
    # with job ids ["a.c", "b.c"].  On a fingerprint mismatch the report
    # reopens in "w" mode, so an older checkpoint would lose its report.
    @pytest.mark.parametrize("flags, expected", [
        ((), "816b5271bf38e9fa"),
        (("--speculate", "--jit", "3"), "05f20bb5752ba005"),
        (("--elide", "--prescreen", "--no-cache"), "c44b0476e0269b30"),
    ])
    def test_fingerprint_resumes_older_checkpoints(self, tmp_path,
                                                   monkeypatch, flags,
                                                   expected):
        tool, options, max_steps = _hunt_fingerprint_args(
            tmp_path, monkeypatch, *flags)
        assert campaign_fingerprint(tool, options, max_steps,
                                    ["a.c", "b.c"]) == expected

    def test_speculate_rungs(self, tmp_path, monkeypatch):
        tool, options, _ = _hunt_fingerprint_args(
            tmp_path, monkeypatch, "--speculate", "--jit", "3")
        assert [rung.name for rung in build_ladder(tool, options)] == [
            "as-requested", "elide", "full-checks", "interpreter"]


class TestResume:
    def test_fresh_then_resume(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with CampaignReport(path, FP) as report:
            assert report.open() is False  # nothing to resume
            report.append(_record("a"))
            report.append(_record("b", "bug"))
        # Re-open the same campaign: both ids are already done.
        with CampaignReport(path, FP) as report:
            assert report.open() is True
            assert report.completed == {"a", "b"}
            assert {r["id"] for r in report.previous_records} == {"a", "b"}
            report.append(_record("c"))
            report.write_summary({"type": "summary", "programs": 3})
        records, summary = read_report(path)
        assert {r["id"] for r in records} == {"a", "b", "c"}
        assert summary["programs"] == 3

    def test_fingerprint_mismatch_starts_clean(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with CampaignReport(path, FP) as report:
            report.open()
            report.append(_record("a"))
        other = campaign_fingerprint("safe-sulong", {}, 999, ["a"])
        with CampaignReport(path, other) as report:
            assert report.open() is False
            assert report.completed == set()

    def test_fresh_flag_discards_checkpoint(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with CampaignReport(path, FP) as report:
            report.open()
            report.append(_record("a"))
        with CampaignReport(path, FP) as report:
            assert report.open(fresh=True) is False
            assert report.completed == set()

    def test_checkpointed_id_without_report_line_reruns(self, tmp_path):
        # A crash between the two appends can leave the checkpoint ahead
        # of the report; such ids must not be treated as completed.
        path = str(tmp_path / "report.jsonl")
        with CampaignReport(path, FP) as report:
            report.open()
            report.append(_record("a"))
        with open(path + ".ckpt", "a", encoding="utf-8") as handle:
            handle.write("b\n")
        with CampaignReport(path, FP) as report:
            report.open()
            assert report.completed == {"a"}

    def test_report_line_without_checkpoint_is_adopted(self, tmp_path):
        # The inverse window: the report append survived, the
        # checkpoint append did not.  The record is the durable fact —
        # resume adopts it and backfills the checkpoint line instead
        # of re-running (which would duplicate the result and
        # double-count it in the summary).
        path = str(tmp_path / "report.jsonl")
        with CampaignReport(path, FP) as report:
            report.open()
            report.append(_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_record("b", "bug")) + "\n")
        with CampaignReport(path, FP) as report:
            assert report.open() is True
            assert report.completed == {"a", "b"}
            assert {r["id"] for r in report.previous_records} == \
                {"a", "b"}
        with open(path + ".ckpt", "r", encoding="utf-8") as handle:
            ids = handle.read().splitlines()[1:]
        assert sorted(ids) == ["a", "b"]  # backfilled, no duplicates

    def test_reader_takes_last_record_per_id(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_record("a", "tool-error")) + "\n")
            handle.write(json.dumps(_record("a", "ok")) + "\n")
        records, _ = read_report(path)
        assert len(records) == 1
        assert records[0]["triage"] == "ok"

    def test_reader_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_record("a")) + "\n")
            handle.write("{truncated by a kill -9\n")
        records, summary = read_report(path)
        assert [r["id"] for r in records] == ["a"]
        assert summary is None


_WRITER_CHILD = """
import sys
from repro.harness.report import CampaignReport
report = CampaignReport(sys.argv[1], sys.argv[2])
report.open()
for job_id in sys.argv[3:]:
    report.append({"type": "result", "id": job_id, "triage": "ok",
                   "result": None, "signatures": []})
report.close()
"""


class TestCrashBetweenAppends:
    """The writer really dies (SIGKILL) between the report append and
    the checkpoint append — the window the resume reconciliation
    exists for."""

    def _run_writer(self, path, crash_point, *job_ids):
        src_root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep \
            + env.get("PYTHONPATH", "")
        if crash_point:
            env["REPRO_CRASH_POINT"] = crash_point
        else:
            env.pop("REPRO_CRASH_POINT", None)
        return subprocess.run(
            [sys.executable, "-c", _WRITER_CHILD, path, FP, *job_ids],
            env=env, capture_output=True, text=True, timeout=60.0)

    def test_killed_writer_does_not_double_count_on_resume(
            self, tmp_path):
        path = str(tmp_path / "report.jsonl")
        proc = self._run_writer(path, "report-append:b", "a", "b")
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # "b" hit the report but not the checkpoint.
        with open(path + ".ckpt", "r", encoding="utf-8") as handle:
            assert handle.read().splitlines()[1:] == ["a"]
        # Resume: both ids are complete — "b" is adopted, not re-run.
        with CampaignReport(path, FP) as report:
            assert report.open() is True
            assert report.completed == {"a", "b"}
            report.append(_record("c"))
        records, _ = read_report(path)
        ids = sorted(record["id"] for record in records)
        assert ids == ["a", "b", "c"]
        # Exactly one report line and one checkpoint line per id.
        with open(path, "r", encoding="utf-8") as handle:
            report_ids = [json.loads(line)["id"] for line in handle
                          if line.strip()]
        assert sorted(report_ids) == ids
        with open(path + ".ckpt", "r", encoding="utf-8") as handle:
            checkpoint_ids = handle.read().splitlines()[1:]
        assert sorted(checkpoint_ids) == ids

    def test_second_resume_after_clean_backfill(self, tmp_path):
        # The backfill itself must be idempotent across resumes.
        path = str(tmp_path / "report.jsonl")
        proc = self._run_writer(path, "report-append:a", "a")
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        for _ in range(2):
            with CampaignReport(path, FP) as report:
                assert report.open() is True
                assert report.completed == {"a"}
        with open(path + ".ckpt", "r", encoding="utf-8") as handle:
            assert handle.read().splitlines()[1:] == ["a"]
