"""Span tracing: the no-op fast path, the Chrome trace_event schema,
streaming crash tolerance, and the kill-regression contract for both
JSON sinks (span stream and observer JSONL trace)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.spans import (SpanRecorder, get_recorder, merge_worker_spans,
                             set_recorder, span, write_chrome_trace)


@pytest.fixture(autouse=True)
def _no_global_recorder():
    previous = set_recorder(None)
    yield
    set_recorder(previous)


class TestSpanApi:
    def test_disabled_path_returns_shared_noop(self):
        first = span("parse")
        second = span("execute", anything=1)
        assert first is second  # one shared object, no allocation

    def test_span_records_complete_event(self):
        recorder = SpanRecorder(pid=42, tid=7)
        set_recorder(recorder)
        with span("parse", file="x.c"):
            pass
        [event] = recorder.snapshot()
        assert event["name"] == "parse"
        assert event["ph"] == "X"
        assert event["pid"] == 42 and event["tid"] == 7
        assert isinstance(event["ts"], float)
        assert event["dur"] >= 0
        assert event["args"] == {"file": "x.c"}

    def test_exception_annotates_and_propagates(self):
        recorder = SpanRecorder()
        set_recorder(recorder)
        with pytest.raises(ValueError):
            with span("jit-compile"):
                raise ValueError("boom")
        [event] = recorder.snapshot()
        assert event["args"]["error"] == "ValueError"

    def test_memory_bound_counts_dropped(self):
        recorder = SpanRecorder()
        set_recorder(recorder)
        for index in range(SpanRecorder.MAX_SPANS + 5):
            with span("tick", n=index):
                pass
        assert len(recorder.snapshot()) == SpanRecorder.MAX_SPANS
        assert recorder.spans_dropped == 5

    def test_non_json_args_are_stringified(self):
        recorder = SpanRecorder()
        set_recorder(recorder)
        with span("link", module=object()):
            pass
        [event] = recorder.snapshot()
        assert isinstance(event["args"]["module"], str)


class TestChromeTraceSchema:
    def test_engine_run_emits_pipeline_phases(self):
        from repro.core import SafeSulong
        recorder = SpanRecorder()
        set_recorder(recorder)
        SafeSulong().run_source(
            "int main(void){ return 0; }", filename="t.c")
        names = {event["name"] for event in recorder.snapshot()}
        assert {"preprocess", "parse", "typecheck", "irgen", "link",
                "prepare", "execute"} <= names

    def test_libc_load_is_not_timed_as_link(self, monkeypatch):
        from repro.core import SafeSulong
        from repro.libc import loader
        monkeypatch.setattr(loader, "_CACHED", None)
        recorder = SpanRecorder()
        set_recorder(recorder)
        SafeSulong().compile("int main(void){ return 0; }", filename="t.c")
        events = recorder.snapshot()
        [bundle] = [event for event in events
                    if event["name"] == "libc.bundle"]
        [link] = [event for event in events if event["name"] == "link"]
        assert bundle["ts"] + bundle["dur"] <= link["ts"]

    def test_worker_job_with_elision_returns_an_elide_span(self):
        from repro.harness.worker import run_job
        data = run_job({"tool": "safe-sulong", "trace_spans": True,
                        "source": "int main(void){ int x = 1; return x; }",
                        "filename": "elided.c",
                        "options": {"elide_checks": True}})
        elide_spans = [event for event in data["spans"]
                       if event["name"] == "opt.elide"]
        assert [event["args"]["of"] for event in elide_spans] == \
            ["elided.c"]
        execute = next(event for event in data["spans"]
                       if event["name"] == "execute")
        assert elide_spans[0]["ts"] < execute["ts"]

    def test_streamed_file_is_valid_json_after_close(self, tmp_path):
        path = str(tmp_path / "trace.json")
        recorder = SpanRecorder(path=path)
        set_recorder(recorder)
        with span("a"):
            pass
        with span("b"):
            pass
        set_recorder(None)
        recorder.close()
        events = json.load(open(path))
        assert [event["name"] for event in events] == ["a", "b"]

    def test_truncated_stream_stays_loadable(self, tmp_path):
        # The writer's contract: killing the process mid-run loses at
        # most the event being written.  Simulate by never closing.
        path = str(tmp_path / "trace.json")
        recorder = SpanRecorder(path=path)
        set_recorder(recorder)
        with span("survives"):
            pass
        set_recorder(None)
        recorder._handle.flush()
        recorder._handle = None  # drop without writing the ]
        text = open(path).read()
        # Perfetto/chrome accept the missing ]; emulate that repair.
        events = json.loads(text.rstrip().rstrip(",") + "]")
        assert events[0]["name"] == "survives"

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_chrome_trace(path, [{"name": "x", "ph": "X", "ts": 0,
                                   "dur": 1, "pid": 1, "tid": 0}])
        assert json.load(open(path))[0]["name"] == "x"

    def test_merge_worker_spans_rewrites_pid_and_labels(self):
        events = []
        merge_worker_spans(events, [{"name": "execute", "ph": "X",
                                     "ts": 0, "dur": 1, "pid": 999,
                                     "tid": 0}], pid=3, label="prog.c")
        assert events[0]["pid"] == 3
        assert events[0]["args"]["job"] == "prog.c"


KILL_VICTIM = r"""
import sys
sys.path.insert(0, {src!r})
from repro.core import SafeSulong
from repro.obs import Observer
from repro.obs.spans import SpanRecorder, set_recorder

set_recorder(SpanRecorder(path={span_path!r}))
observer = Observer(enabled=True, trace_path={trace_path!r})
source = '''
int main(void) {{
    volatile long total = 0;
    for (long i = 0; i < 100000000; i++) total += i;
    return 0;
}}
'''
print("READY", flush=True)
SafeSulong(observer=observer).run_source(source, filename="spin.c")
"""


class TestKillRegression:
    """Satellite contract: both streaming sinks flush per event, so a
    SIGKILL mid-run leaves files whose complete lines all parse."""

    def test_sigkill_leaves_parseable_sinks(self, tmp_path):
        span_path = str(tmp_path / "spans.json")
        trace_path = str(tmp_path / "events.jsonl")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "src")
        code = KILL_VICTIM.format(src=os.path.abspath(src),
                                  span_path=span_path,
                                  trace_path=trace_path)
        process = subprocess.Popen([sys.executable, "-c", code],
                                   stdout=subprocess.PIPE)
        try:
            assert process.stdout.readline().strip() == b"READY"
            # Let the frontend spans and first trace events land.
            deadline = time.time() + 20
            while time.time() < deadline:
                if os.path.exists(span_path) \
                        and os.path.getsize(span_path) > 2:
                    break
                time.sleep(0.05)
            time.sleep(0.2)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        # Observer JSONL: every complete line is one valid JSON object.
        with open(trace_path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        complete = lines[:-1] if lines and lines[-1] != "" else lines
        for line in complete:
            if line:
                assert isinstance(json.loads(line), dict)

        # Span stream: valid after the tolerant missing-] repair.
        text = open(span_path).read()
        assert text.startswith("[")
        events = json.loads(text.rstrip().rstrip(",") + "]"
                            if not text.rstrip().endswith("]") else text)
        assert {event["name"] for event in events} >= {"parse"}
