"""HTTP surface: submission validation, admission control as 429,
job streaming, canonical /bugs body, health reporting."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.observer import Observer
from repro.service.api import ServiceServer, build_service
from repro.service.queue import DONE, QUEUED


def _request(method, url, body=None, timeout=10.0):
    """Returns (status, headers, parsed-json-of-last-line)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            raw = resp.read()
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        status, headers = error.code, dict(error.headers)
    lines = [line for line in raw.decode("utf-8").splitlines() if line]
    payload = json.loads(lines[-1]) if lines else None
    return status, headers, payload


class _Service:
    def __init__(self, tmp_path, **supervisor_kwargs):
        supervisor_kwargs.setdefault("observer", Observer(enabled=True))
        self.supervisor = build_service(str(tmp_path / "state"),
                                        **supervisor_kwargs)
        self.server = ServiceServer(("127.0.0.1", 0), self.supervisor)
        self.base = f"http://127.0.0.1:{self.server.server_address[1]}"
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5.0)
        self.supervisor.queue.close()
        self.supervisor.bugdb.close()


@pytest.fixture()
def service(tmp_path):
    svc = _Service(tmp_path)
    yield svc
    svc.close()


class TestSubmit:
    def test_accepts_a_task(self, service):
        status, _, body = _request(
            "POST", service.base + "/submit",
            {"source": "int main(void){return 0;}", "filename": "a.c"})
        assert status == 202
        assert body["fresh"] is True
        assert body["state"] == QUEUED
        assert service.supervisor.queue.status_of(body["id"])

    def test_resubmission_is_same_job(self, service):
        task = {"source": "int main(void){return 1;}"}
        _, _, first = _request("POST", service.base + "/submit", task)
        status, _, second = _request("POST", service.base + "/submit",
                                     task)
        assert status == 202
        assert second["id"] == first["id"]
        assert second["fresh"] is False
        assert service.supervisor.queue.counts()["total"] == 1

    def test_rejects_empty_body(self, service):
        status, _, body = _request("POST", service.base + "/submit")
        assert status == 400 and "error" in body

    def test_rejects_invalid_json(self, service):
        request = urllib.request.Request(
            service.base + "/submit", data=b"not json{", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_rejects_task_without_program(self, service):
        status, _, body = _request("POST", service.base + "/submit",
                                   {"filename": "a.c"})
        assert status == 400
        assert "source" in body["error"]

    def test_unknown_post_endpoint_is_404(self, service):
        status, _, _ = _request("POST", service.base + "/nope",
                                {"source": "x"})
        assert status == 404


class TestAdmissionControl:
    def test_sheds_with_429_and_retry_after(self, tmp_path):
        svc = _Service(tmp_path, max_depth=1)
        try:
            status, _, first = _request("POST", svc.base + "/submit",
                                        {"source": "p0"})
            assert status == 202
            status, headers, body = _request(
                "POST", svc.base + "/submit", {"source": "p1"})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "shedding" in body["error"]
            # Nothing was written for the rejected task.
            assert svc.supervisor.queue.counts()["total"] == 1
            # A known id bypasses admission: asking about existing
            # work is free even while shedding.
            status, _, again = _request("POST", svc.base + "/submit",
                                        {"source": "p0"})
            assert status == 202 and again["id"] == first["id"]
        finally:
            svc.close()


class TestJobStream:
    def test_unknown_job_is_404(self, service):
        status, _, body = _request("GET", service.base + "/job/nope")
        assert status == 404
        assert "nope" in body["error"]

    def test_snapshot_of_queued_job(self, service):
        _, _, accepted = _request("POST", service.base + "/submit",
                                  {"source": "p"})
        status, _, entry = _request(
            "GET", f"{service.base}/job/{accepted['id']}")
        assert status == 200
        assert entry["state"] == QUEUED
        assert entry["deliveries"] == 0

    def test_stream_follows_to_completion(self, service):
        _, _, accepted = _request("POST", service.base + "/submit",
                                  {"source": "p"})
        task_id = accepted["id"]
        queue = service.supervisor.queue

        def finish():
            queue.lease("w", 1)
            queue.complete(task_id, {"id": task_id, "triage": "ok"})

        timer = threading.Timer(0.4, finish)
        timer.start()
        try:
            status, _, last = _request(
                "GET", f"{service.base}/job/{task_id}?wait=10")
        finally:
            timer.cancel()
        assert status == 200
        assert last["state"] == DONE
        assert last["record"]["triage"] == "ok"


class TestViews:
    def test_bugs_is_the_canonical_snapshot(self, service):
        service.supervisor.bugdb.record_result(
            "t1", 1, campaign="c", program="a.c", engine="e",
            bugs=[{"kind": "use-after-free", "location": "a.c:6",
                   "alloc_site": "a.c:3", "free_site": "a.c:5",
                   "message": "uaf"}])
        status, _, body = _request("GET", service.base + "/bugs")
        assert status == 200
        canonical = json.loads(
            service.supervisor.bugdb.snapshot_bytes())
        assert body == canonical
        assert body["bugs"][0]["kind"] == "use-after-free"

    def test_healthz_ok(self, service):
        status, _, health = _request("GET", service.base + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["rungs"] == ["as-requested", "full-checks",
                                   "interpreter"]

    def test_healthz_503_while_breaker_open(self, tmp_path):
        svc = _Service(tmp_path, breaker_threshold=1,
                       breaker_cooldown=60.0)
        try:
            svc.supervisor._on_batch_failure(RuntimeError("boom"))
            status, _, health = _request("GET", svc.base + "/healthz")
            assert status == 503
            assert health["status"] == "breaker-open"
        finally:
            svc.close()

    def test_unknown_get_endpoint_is_404(self, service):
        status, _, _ = _request("GET", service.base + "/nope")
        assert status == 404
