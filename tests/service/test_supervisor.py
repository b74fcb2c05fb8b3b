"""Supervisor policy: admission control, circuit breaker, service-wide
degradation ladder, service fault recovery, lease→run→record→complete."""

import pytest

from repro.harness.faults import parse_faults
from repro.obs.observer import Observer
from repro.service.api import build_service
from repro.service.queue import DONE, LEASED, QUEUED

UAF_SOURCE = (
    "#include <stdlib.h>\n"
    "int main(void) {\n"
    "    int *p = malloc(sizeof(int));\n"
    "    *p = 1;\n"
    "    free(p);\n"
    "    return *p;\n"
    "}\n")
OK_SOURCE = "int main(void) { return 0; }\n"


def _service(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("timeout", 60.0)
    kwargs.setdefault("observer", Observer(enabled=True))
    return build_service(str(tmp_path / "state"), **kwargs)


@pytest.fixture()
def sup(tmp_path):
    supervisor = _service(tmp_path)
    yield supervisor
    supervisor.queue.close()
    supervisor.bugdb.close()


class TestAdmission:
    def test_admits_when_idle(self, sup):
        ok, retry_after = sup.admit(now=1000.0)
        assert ok and retry_after == 0.0

    def test_sheds_past_max_depth(self, tmp_path):
        sup = _service(tmp_path, max_depth=2)
        try:
            for n in range(2):
                sup.queue.submit({"source": f"p{n}"})
            ok, retry_after = sup.admit(now=1000.0)
            assert not ok and retry_after > 0
            assert sup.observer.counters["service.shed"] == 1
            assert sup.health(now=1000.0)["status"] == "overloaded"
        finally:
            sup.queue.close()
            sup.bugdb.close()

    def test_open_breaker_rejects_with_retry_after(self, tmp_path):
        sup = _service(tmp_path, breaker_threshold=1,
                       breaker_cooldown=30.0)
        try:
            sup._on_batch_failure(RuntimeError("boom"))
            ok, retry_after = sup.admit()
            assert not ok and retry_after > 0
            assert sup.health()["status"] == "breaker-open"
        finally:
            sup.queue.close()
            sup.bugdb.close()


class TestBreaker:
    def test_opens_after_consecutive_failures(self, tmp_path):
        sup = _service(tmp_path, breaker_threshold=3,
                       breaker_cooldown=30.0)
        try:
            for expected in ("closed", "closed", "open"):
                sup._on_batch_failure(RuntimeError("boom"))
                assert sup.breaker_state() == expected
            assert sup.observer.counters["service.breaker.open"] == 1
            assert sup.observer.counters["service.restart"] == 3
            # After the cooldown the breaker half-opens (a probe batch
            # may run); it stays half-open until a batch succeeds.
            after = sup._breaker_open_until + 1.0
            assert sup.breaker_state(now=after) == "half-open"
        finally:
            sup.queue.close()
            sup.bugdb.close()

    def test_restart_backoff_grows(self, sup):
        deadlines = []
        for _ in range(3):
            sup._on_batch_failure(RuntimeError("boom"))
            deadlines.append(sup._restart_not_before)
        assert deadlines == sorted(deadlines)
        assert sup.last_error == "RuntimeError: boom"

    def test_step_idles_while_backing_off(self, sup):
        sup.queue.submit({"source": OK_SOURCE})
        sup._restart_not_before = 10_000.0
        assert sup.step(now=9_999.0) == 0
        assert sup.queue.counts()[QUEUED] == 1  # nothing was leased


class TestDegradation:
    def test_service_ladder_has_rungs(self, sup):
        assert [rung.name for rung in sup.rungs] == \
            ["as-requested", "full-checks", "interpreter"]
        assert sup.rung.name == "as-requested"

    def test_descends_under_load_and_promotes_after_drain(
            self, tmp_path):
        sup = _service(tmp_path, degrade_depth=2)
        try:
            ids = [sup.queue.submit({"source": f"p{n}"})[0]
                   for n in range(2)]
            sup._apply_load_policy()
            assert sup.rung.name == "full-checks"
            sup._apply_load_policy()
            assert sup.rung.name == "interpreter"
            sup._apply_load_policy()  # ladder floor: no further descent
            assert sup.rung_index == 2
            assert sup.observer.counters["service.degrade"] == 2
            assert sup.health()["status"] == "degraded"
            # Drain the queue: the service climbs back one rung per
            # turn, back to as-requested.
            sup.queue.lease("w", 2)
            for task_id in ids:
                sup.queue.complete(task_id, {"id": task_id})
            sup._apply_load_policy()
            sup._apply_load_policy()
            assert sup.rung.name == "as-requested"
            assert sup.observer.counters["service.promote"] == 2
            assert sup.health()["status"] == "ok"
        finally:
            sup.queue.close()
            sup.bugdb.close()


class TestServiceFaults:
    def test_queue_stall_leads_to_redelivery(self, tmp_path):
        sup = _service(tmp_path, lease_ttl=5.0)
        try:
            task_id, _ = sup.queue.submit(
                {"source": OK_SOURCE, "filename": "ok.c"})
            sup.fault_plan = parse_faults(f"queue-stall@{task_id}")
            # First delivery: the supervisor takes the lease and sits
            # on it — nothing runs, nothing completes.
            assert sup.step(now=1000.0) == 0
            assert sup.observer.counters[
                "service.fault.queue_stall"] == 1
            assert sup.queue.status_of(task_id)["state"] == LEASED
            # The deadline passes: the task is requeued and the second
            # delivery (fault budget spent) runs cleanly.
            assert sup.step(now=1006.0) == 1
            entry = sup.queue.status_of(task_id)
            assert entry["state"] == DONE
            assert entry["deliveries"] == 2
            assert sup.observer.counters["service.lease.expired"] == 1
        finally:
            sup.queue.close()
            sup.bugdb.close()

    def test_db_torn_write_recovers_via_redelivery(self, tmp_path):
        import time as time_module
        sup = _service(tmp_path, lease_ttl=5.0)
        try:
            task_id, _ = sup.queue.submit(
                {"source": OK_SOURCE, "filename": "ok.c"})
            sup.fault_plan = parse_faults(f"db-torn-write@{task_id}")
            # First delivery: the bug-db append is torn mid-record and
            # the store re-folded — the update vanishes (it was never
            # acknowledged) and the queue entry is left incomplete.
            assert sup.step() == 0
            assert sup.observer.counters["service.fault.db_torn"] == 1
            assert task_id not in sup.bugdb.recorded
            assert sup.queue.status_of(task_id)["state"] == LEASED
            # Redelivery repairs everything (the pool renews leases at
            # wall-clock time while running, so expire in the future).
            assert sup.step(now=time_module.time() + 3600.0) == 1
            assert sup.queue.status_of(task_id)["state"] == DONE
            assert task_id in sup.bugdb.recorded
        finally:
            sup.queue.close()
            sup.bugdb.close()


class TestEndToEnd:
    def test_lease_run_record_complete(self, sup):
        task_id, fresh = sup.queue.submit(
            {"source": UAF_SOURCE, "filename": "uaf.c"})
        assert fresh
        assert sup.step() == 1
        entry = sup.queue.status_of(task_id)
        assert entry["state"] == DONE
        assert entry["record"]["triage"] == "bug"
        kinds = [row["kind"] for row in sup.bugdb.rows()]
        assert "use-after-free" in kinds
        assert sup.observer.counters["service.complete"] == 1
        assert sup.observer.counters["service.bugs"] == 1
        health = sup.health()
        assert health["status"] == "ok"
        assert health["service"]["completed"] == 1
        assert health["service"]["bugs"] == 1
        assert health["bugdb"]["distinct_bugs"] == len(kinds)

    def test_completed_resubmission_is_answered_not_rerun(self, sup):
        task = {"source": OK_SOURCE, "filename": "ok.c"}
        task_id, _ = sup.queue.submit(task)
        assert sup.step() == 1
        # Same content → same id → nothing new to run.
        again, fresh = sup.queue.submit(task)
        assert (again, fresh) == (task_id, False)
        assert sup.step() == 0
        assert sup.observer.counters["service.complete"] == 1
