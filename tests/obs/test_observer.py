"""The Observer: counters, events, the trace sink, and the guarantee
that attaching a disabled observer changes nothing."""

import json

import pytest

from repro.core import SafeSulong
from repro.obs.observer import Observer
from repro.obs.observer import MAX_EVENTS

COUNT_PROGRAM = """
#include <stdlib.h>
#include <string.h>
int sum(int *values, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) total += values[i];
    return total;
}
int main(void) {
    int *values = malloc(8 * sizeof(int));
    memset(values, 0, 8 * sizeof(int));
    for (int i = 0; i < 8; i++) values[i] = i;
    int total = 0;
    for (int round = 0; round < 6; round++) total += sum(values, 8);
    free(values);
    return total == 6 * 28 ? 0 : 1;
}
"""


def _run(source: str, observer=None, **kwargs):
    engine = SafeSulong(observer=observer, **kwargs)
    return engine.run_source(source, filename="obs.c")


class TestCounters:
    def test_checks_instructions_calls_counted(self):
        observer = Observer(enabled=True)
        result = _run(COUNT_PROGRAM, observer)
        assert result.status == 0
        counters = observer.counters
        assert counters["check.load.full"] > 0
        assert counters["check.store.full"] > 0
        assert counters["check.gep"] > 0
        assert counters["instructions"] > 0
        # main + six sum activations at least.
        assert counters["calls"] >= 7
        # malloc/free resolve to intrinsics.
        assert counters["intrinsic.calls"] >= 2

    def test_heap_accounting(self):
        observer = Observer(enabled=True)
        _run(COUNT_PROGRAM, observer)
        assert observer.heap["allocs"] == 1
        assert observer.heap["frees"] == 1
        assert observer.heap["live_bytes"] == 0
        assert observer.heap["peak_bytes"] == 32

    def test_functions_table(self):
        observer = Observer(enabled=True)
        _run(COUNT_PROGRAM, observer)
        names = {entry["name"] for entry in observer.functions}
        assert "main" in names and "sum" in names
        for entry in observer.functions:
            assert entry["calls"] > 0
            assert entry["instructions"] > 0

    def test_record_run_accumulates_across_runs(self):
        observer = Observer(enabled=True)
        _run(COUNT_PROGRAM, observer)
        first = dict(observer.heap)
        first_main = dict(next(entry for entry in observer.functions
                               if entry["name"] == "main"))
        _run(COUNT_PROGRAM, observer)
        assert observer.heap["allocs"] == first["allocs"] * 2
        assert observer.heap["peak_bytes"] == first["peak_bytes"]
        second_main = next(entry for entry in observer.functions
                           if entry["name"] == "main")
        assert second_main["calls"] == first_main["calls"] * 2


class TestEvents:
    def test_jit_compile_event(self):
        observer = Observer(enabled=True)
        _run(COUNT_PROGRAM, observer, jit_threshold=2)
        compiles = [event for event in observer.events
                    if event["event"] == "jit-compile"]
        assert compiles, observer.events
        event = compiles[0]
        assert event["function"]
        assert event["compile_ms"] >= 0
        assert event["code_bytes"] > 0
        assert observer.jit_summary()["compiled"] == len(compiles)

    def test_quota_event_on_step_limit(self):
        observer = Observer(enabled=True)
        result = _run("int main(void) { for (;;) { } }", observer,
                      max_steps=1000)
        assert result.limit_exceeded
        quotas = [event for event in observer.events
                  if event["event"] == "quota"]
        assert quotas and "step" in quotas[0]["message"]

    def test_event_list_is_bounded(self):
        observer = Observer(enabled=True)
        for index in range(MAX_EVENTS + 50):
            observer.emit("test", index=index)
        assert len(observer.events) == MAX_EVENTS
        assert observer.events_dropped == 50
        assert observer.snapshot()["events_dropped"] == 50

    def test_trace_sink_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        observer = Observer(enabled=True, trace_path=path)
        _run(COUNT_PROGRAM, observer, jit_threshold=2)
        observer.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines
        assert {line["event"] for line in lines} >= {"jit-compile"}
        assert all("t" in line for line in lines)


class TestDisabled:
    @pytest.mark.parametrize("observer", [None, Observer(enabled=False)])
    def test_run_unperturbed(self, observer):
        result = _run(COUNT_PROGRAM, observer)
        assert result.status == 0
        if observer is not None:
            assert not observer.counters
            assert not observer.events
            assert not observer.functions

    def test_disabled_emit_and_count_are_noops(self):
        observer = Observer(enabled=False)
        observer.emit("test")
        observer.count("key")
        assert not observer.events and not observer.counters


def test_snapshot_is_json_safe():
    observer = Observer(enabled=True)
    _run(COUNT_PROGRAM, observer, jit_threshold=2)
    snapshot = observer.snapshot()
    round_tripped = json.loads(json.dumps(snapshot))
    assert round_tripped["enabled"] is True
    assert round_tripped["counters"]["instructions"] > 0
    assert round_tripped["jit"]["compiled"] >= 1
