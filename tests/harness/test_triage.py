"""Triage classification and bug-signature dedup (pure unit tests)."""

from repro.harness.triage import (bug_signature, dedup_bugs, signatures,
                                  summarize, triage_result)


def _result(**overrides):
    base = {"detector": "safe-sulong", "status": 0, "detected": False,
            "bugs": [], "crashed": False, "limit_exceeded": False,
            "timed_out": False, "internal_error": None}
    base.update(overrides)
    return base


OOB = {"kind": "out-of-bounds", "location": "a.c:3:5", "message": "read"}
UAF = {"kind": "use-after-free", "location": "b.c:9:1", "message": "read"}


class TestTriage:
    def test_clean_run_is_ok(self):
        assert triage_result(_result()) == "ok"

    def test_bug_beats_crash_and_limit(self):
        result = _result(bugs=[OOB], crashed=True, limit_exceeded=True)
        assert triage_result(result) == "bug"

    def test_crash_beats_limit(self):
        assert triage_result(_result(crashed=True,
                                     limit_exceeded=True)) == "crash"

    def test_limit(self):
        assert triage_result(_result(limit_exceeded=True)) == "limit"

    def test_timeout_wins_over_everything(self):
        assert triage_result(_result(bugs=[OOB]),
                             timed_out=True) == "timeout"

    def test_worker_failure_is_tool_error(self):
        assert triage_result(None, worker_failed=True) == "tool-error"
        assert triage_result(None) == "tool-error"

    def test_internal_error_is_tool_error(self):
        result = _result(internal_error="RecursionError: ...")
        assert triage_result(result) == "tool-error"

    def test_compile_error(self):
        assert triage_result({"compile_error": "no such type",
                              "detected": False}) == "compile-error"


class TestSignatures:
    def test_signature_is_kind_at_location(self):
        assert bug_signature(OOB) == "out-of-bounds@a.c:3:5"

    def test_missing_location_placeholder(self):
        assert bug_signature({"kind": "leak"}) == "leak@?"

    def test_alloc_site_splits_same_fault_line(self):
        # Two objects from different allocation sites faulting at the
        # same line are distinct bugs.
        fault = {"kind": "out-of-bounds", "location": "p.c:9:5"}
        a = bug_signature(dict(fault, alloc_site="p.c:3:14"))
        b = bug_signature(dict(fault, alloc_site="p.c:4:14"))
        assert a != b
        assert a.startswith("out-of-bounds@p.c:9:5#alloc@")

    def test_no_alloc_site_degrades_to_kind_at_location(self):
        assert bug_signature({"kind": "null-dereference",
                              "location": "p.c:2:3", "alloc_site": None}) \
            == "null-dereference@p.c:2:3"

    def test_signatures_deduped_within_result(self):
        result = _result(bugs=[OOB, dict(OOB), UAF])
        assert signatures(result) == ["out-of-bounds@a.c:3:5",
                                      "use-after-free@b.c:9:1"]

    def test_dedup_across_programs(self):
        records = [
            {"id": "p1", "result": _result(bugs=[OOB])},
            {"id": "p2", "result": _result(bugs=[OOB, UAF])},
            {"id": "p3", "result": _result(bugs=[OOB])},
        ]
        distinct = dedup_bugs(records)
        assert [entry["signature"] for entry in distinct] == [
            "out-of-bounds@a.c:3:5", "use-after-free@b.c:9:1"]
        assert distinct[0]["count"] == 3
        assert distinct[0]["programs"] == ["p1", "p2", "p3"]
        assert distinct[1]["programs"] == ["p2"]

    def test_summarize_histogram_and_rungs(self):
        records = [
            {"id": "a", "triage": "bug", "rung": "as-requested",
             "result": _result(bugs=[OOB])},
            {"id": "b", "triage": "timeout", "rung": "as-requested"},
            {"id": "c", "triage": "ok", "rung": "interpreter",
             "result": _result()},
        ]
        summary = summarize(records)
        assert summary["programs"] == 3
        assert summary["triage"]["bug"] == 1
        assert summary["triage"]["timeout"] == 1
        assert summary["triage"]["ok"] == 1
        assert summary["distinct_bugs"] == 1
        assert summary["rungs"] == {"as-requested": 2, "interpreter": 1}
