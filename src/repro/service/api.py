"""JSON/HTTP face of the bug-hunting service (stdlib ``http.server``).

Five endpoints over one :class:`~.supervisor.Supervisor`:

``POST /submit``
    Body: a JSON job spec (one of ``source``, ``corpus_entry`` or
    ``path``, plus optional ``filename``, ``argv``, ``stdin_b64``,
    ``vfs_b64``, ``max_steps``; see
    :func:`~repro.harness.worker.locate_program`) and an optional
    ``campaign``.  Admission control first: a shedding service answers
    ``429`` with a ``Retry-After`` header and writes nothing.  Admitted
    submissions are durably enqueued before the ``202`` response — an
    acknowledged submission survives ``kill -9``.  Ids are
    content-addressed, so resubmitting the same program returns the
    same job (``"fresh": false``), possibly already completed.
``GET /job/<id>``
    Streams JSONL: one status line per poll interval, then the final
    completion record.  ``?wait=<seconds>`` bounds how long the request
    follows an unfinished job (default: one snapshot and close).  The
    body is close-delimited, so a consumer can follow it line by line.
``GET /bugs``
    The deduplicated bug database (:meth:`~.bugdb.BugDatabase.
    snapshot`), serialized canonically — byte-identical across crash
    rebuilds, which the crash-consistency tests pin.
``GET /healthz``
    :meth:`~.supervisor.Supervisor.health`; ``200`` while the service
    accepts work (including degraded rungs), ``503`` once it sheds.
``GET /explain/<id>``
    Deterministically replays a completed task from the manifest on its
    completion record and answers the failure-slice packet
    (:mod:`repro.obs.replay`).  ``<id>`` is a task id or a
    URL-encoded triage signature (the first completed task reporting
    it); ``409`` when the job is unfinished or its record predates
    manifests, ``404`` when nothing matches.

:func:`serve` wires the stores + supervisor + HTTP server together and
announces the bound port by atomically writing ``serve.json`` into the
state directory — how a supervising process (or :func:`selftest`) finds
a server started with ``--port 0``.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..harness.worker import PROGRAM_KEYS, SPEC_KEYS, ProgramError
from .bugdb import BugDatabase
from .queue import DONE, JobQueue, task_id_for
from .supervisor import Supervisor

# Submission schema: the job-spec keys a client may set (everything
# else — tool, options, faults — is the operator's, via the serve flags).
SUBMIT_KEYS = SPEC_KEYS + ("campaign",)
MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_WAIT_SECONDS = 60.0
POLL_INTERVAL = 0.25


def canonical_task(body: dict) -> dict:
    """The submitted task reduced to its admissible keys, sorted — the
    form the content-addressed id hashes."""
    return {key: body[key] for key in sorted(SUBMIT_KEYS)
            if key in body and body[key] is not None}


class ServiceServer(ThreadingHTTPServer):
    """One HTTP server bound to one supervisor and its stores."""

    daemon_threads = True
    # Close-delimited bodies make /job streaming trivial: no chunked
    # framing, the connection close is the end-of-stream marker.
    protocol_version = "HTTP/1.0"

    def __init__(self, address, supervisor: Supervisor,
                 verbose: bool = False):
        super().__init__(address, ServiceHandler)
        self.supervisor = supervisor
        self.queue = supervisor.queue
        self.bugdb = supervisor.bugdb
        self.verbose = verbose


class ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceServer

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send_json(self, status: int, payload,
                   headers: dict | None = None) -> None:
        body = payload if isinstance(payload, bytes) else \
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _error(self, status: int, message: str,
               headers: dict | None = None) -> None:
        self._send_json(status, {"error": message}, headers)

    # -- routes -------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — stdlib dispatch name
        if self.path.rstrip("/") != "/submit":
            self._error(404, "unknown endpoint")
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, "body required (JSON task, <= 4 MiB)")
            return
        try:
            body = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeError):
            self._error(400, "body is not valid JSON")
            return
        if not isinstance(body, dict):
            self._error(400, "task must be a JSON object")
            return
        task = canonical_task(body)
        if not any(key in task for key in PROGRAM_KEYS):
            self._error(400, "task needs one of "
                             + ", ".join(PROGRAM_KEYS))
            return
        task_id = task_id_for(task)
        # Known ids (duplicates, possibly already done) bypass
        # admission control: answering about existing work is free.
        existing = self.server.queue.status_of(task_id)
        if existing is None:
            ok, retry_after = self.server.supervisor.admit()
            if not ok:
                self._error(
                    429, "service is shedding load",
                    {"Retry-After": str(max(1, int(retry_after + 0.5)))})
                return
        task_id, fresh = self.server.queue.submit(task, task_id)
        status = self.server.queue.status_of(task_id) or {}
        self._send_json(202, {"id": task_id, "fresh": fresh,
                              "state": status.get("state")})

    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch name
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            health = self.server.supervisor.health()
            ok = health["status"] in ("ok", "degraded")
            self._send_json(200 if ok else 503, health)
        elif path == "/bugs":
            self._send_json(200, self.server.bugdb.snapshot_bytes()
                            + b"\n")
        elif path.startswith("/job/"):
            self._stream_job(path[len("/job/"):], query)
        elif path.startswith("/explain/"):
            self._explain(path[len("/explain/"):])
        else:
            self._error(404, "unknown endpoint")

    def _explain(self, ident: str) -> None:
        from urllib.parse import unquote
        ident = unquote(ident)
        queue = self.server.queue
        task_id = ident
        entry = queue.status_of(ident)
        if entry is not None:
            if entry.get("state") != DONE:
                self._error(409, f"job {ident} has not finished "
                            f"(state: {entry.get('state')})")
                return
            record = entry.get("record") or {}
        else:
            # Triage-signature lookup: the earliest completed task that
            # reported it (deterministic across restarts — seq order).
            record = None
            with queue._lock:
                for tid in sorted(queue.results,
                                  key=lambda t: queue.seq_of.get(t, 0)):
                    candidate = queue.results[tid]
                    if ident in (candidate.get("signatures") or ()):
                        task_id, record = tid, candidate
                        break
            if record is None:
                self._error(404,
                            f"unknown job or bug signature {ident!r}")
                return
        if not record.get("manifest"):
            self._error(409, f"record for {task_id} carries no replay "
                        "manifest (recorded by an older engine?)")
            return
        with queue._lock:
            task = dict(queue.tasks.get(task_id) or {})
        from ..obs.replay import explain_record
        try:
            packet = explain_record(record, task.get("source"))
        except ProgramError as error:
            self._error(409, f"replay failed: {error}")
            return
        except Exception as error:  # noqa: BLE001 — HTTP boundary
            self._error(500, f"explain failed: "
                        f"{type(error).__name__}: {error}")
            return
        self._send_json(200, packet)

    def _stream_job(self, task_id: str, query: str) -> None:
        wait = 0.0
        for part in query.split("&"):
            name, _, value = part.partition("=")
            if name == "wait":
                try:
                    wait = min(MAX_WAIT_SECONDS, max(0.0, float(value)))
                except ValueError:
                    pass
        entry = self.server.queue.status_of(task_id)
        if entry is None:
            self._error(404, f"unknown job {task_id}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.end_headers()
        deadline = time.time() + wait
        try:
            while True:
                entry = self.server.queue.status_of(task_id) or {}
                line = json.dumps(entry, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
                self.wfile.flush()
                if entry.get("state") == DONE \
                        or time.time() >= deadline:
                    return
                time.sleep(POLL_INTERVAL)
        except (BrokenPipeError, ConnectionResetError):
            return


# -- process wiring ---------------------------------------------------------------


def _announce(state_dir: str, payload: dict) -> str:
    """Atomically publish ``serve.json`` (port discovery for
    ``--port 0`` and for the selftest's restart)."""
    path = os.path.join(state_dir, "serve.json")
    fd, tmp = tempfile.mkstemp(dir=state_dir, prefix=".serve-")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)
    return path


def build_service(state_dir: str, **supervisor_kwargs):
    """The stores + supervisor for one state directory (shared by
    :func:`serve` and the in-process tests)."""
    os.makedirs(state_dir, exist_ok=True)
    queue = JobQueue(os.path.join(state_dir, "queue"))
    bugdb = BugDatabase(os.path.join(state_dir, "bugdb"))
    return Supervisor(queue, bugdb, **supervisor_kwargs)


def serve(state_dir: str, host: str = "127.0.0.1", port: int = 0,
          verbose: bool = False, ready=None, stop=None,
          **supervisor_kwargs) -> int:
    """Run the service until ``stop`` (or SIGTERM/SIGINT).  Returns an
    exit code.  ``ready(info)``, if given, fires after the port is
    bound and announced."""
    supervisor = build_service(state_dir, **supervisor_kwargs)
    stop = stop or threading.Event()
    server = ServiceServer((host, port), supervisor, verbose=verbose)
    info = {"host": host, "port": server.server_address[1],
            "pid": os.getpid(),
            "recovered_leases": supervisor.queue.recovered_leases}
    _announce(state_dir, info)

    # Only the main thread of a process may install signal handlers;
    # in-process tests drive `stop` directly instead.
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_args: stop.set())

    worker = threading.Thread(target=supervisor.run_forever,
                              args=(stop,), name="service-supervisor",
                              daemon=True)
    worker.start()
    listener = threading.Thread(target=server.serve_forever,
                                kwargs={"poll_interval": 0.2},
                                name="service-http", daemon=True)
    listener.start()
    if verbose:
        print(f"repro serve: listening on {host}:{info['port']} "
              f"(state: {state_dir})", flush=True)
    if ready is not None:
        ready(info)
    try:
        # Timeout-ed waits keep the main thread responsive to SIGTERM
        # (a bare Event.wait() can block signal delivery).
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        stop.set()
        server.shutdown()
        server.server_close()
        worker.join(timeout=5.0)
        listener.join(timeout=5.0)
        supervisor.queue.close()
        supervisor.bugdb.close()
    return 0


# -- selftest ---------------------------------------------------------------------

_SELFTEST_UAF = (
    "#include <stdlib.h>\n"
    "int main(void) {\n"
    "    int *p = malloc(sizeof(int));\n"
    "    *p = 1;\n"
    "    free(p);\n"
    "    return *p;\n"
    "}\n")


def _http_json(method: str, url: str, body: dict | None = None,
               timeout: float = 10.0):
    import urllib.request
    data = None if body is None else \
        json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _follow_job(url: str, timeout: float = 30.0):
    """Read a /job JSONL stream to its end; returns the last record."""
    import urllib.request
    last = None
    with urllib.request.urlopen(url, timeout=timeout) as response:
        for line in response:
            line = line.strip()
            if line:
                last = json.loads(line)
    return last


def _spawn_server(state_dir: str, verbose: bool):
    """``repro serve`` as a real child process (the selftest must be
    able to SIGKILL it), announced via serve.json."""
    import subprocess
    import sys
    announce = os.path.join(state_dir, "serve.json")
    try:
        os.unlink(announce)
    except FileNotFoundError:
        pass
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", state_dir, "--port", "0", "--jobs", "1",
         "--timeout", "20", "--lease-ttl", "4"],
        env=env,
        stdout=None if verbose else subprocess.DEVNULL,
        stderr=None if verbose else subprocess.DEVNULL)
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if child.poll() is not None:
            raise RuntimeError(
                f"serve exited early (rc={child.returncode})")
        try:
            with open(announce, "r", encoding="utf-8") as handle:
                info = json.load(handle)
            return child, f"http://127.0.0.1:{info['port']}"
        except (FileNotFoundError, ValueError):
            time.sleep(0.1)
    child.kill()
    raise RuntimeError("serve did not announce a port in 30s")


def selftest(verbose: bool = False) -> int:
    """End-to-end smoke for ``repro serve --selftest``: submit a known
    use-after-free, watch it complete, then SIGKILL the server and
    prove the bug database survived byte-identically."""

    def say(message: str) -> None:
        if verbose:
            print(f"serve-selftest: {message}", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as state:
        child, base = _spawn_server(state, verbose)
        try:
            accepted = _http_json("POST", base + "/submit",
                                  {"source": _SELFTEST_UAF,
                                   "filename": "uaf_selftest.c"})
            say(f"submitted job {accepted['id']} "
                f"(fresh={accepted['fresh']})")
            deadline = time.time() + 60.0
            entry = None
            while time.time() < deadline:
                entry = _follow_job(
                    f"{base}/job/{accepted['id']}?wait=5")
                if entry and entry.get("state") == DONE:
                    break
            if not entry or entry.get("state") != DONE:
                print("serve-selftest: FAIL — job never completed",
                      flush=True)
                return 1
            bugs = _http_json("GET", base + "/bugs")
            before = json.dumps(bugs, sort_keys=True)
            kinds = [row["kind"] for row in bugs["bugs"]]
            say(f"bug database: {bugs['distinct_bugs']} distinct "
                f"({', '.join(kinds) or 'none'})")
            if "use-after-free" not in kinds:
                print("serve-selftest: FAIL — use-after-free not in "
                      f"/bugs (got {kinds})", flush=True)
                return 1
            say("SIGKILL server, restarting from the WAL")
            child.kill()
            child.wait(timeout=10.0)
            child, base = _spawn_server(state, verbose)
            after = json.dumps(_http_json("GET", base + "/bugs"),
                               sort_keys=True)
            if before != after:
                print("serve-selftest: FAIL — bug database changed "
                      "across kill -9 + restart", flush=True)
                return 1
            health = _http_json("GET", base + "/healthz")
            say(f"restarted, health={health['status']}")
            print("serve-selftest: OK — submit, detect, kill -9, "
                  "recover byte-identical", flush=True)
            return 0
        finally:
            child.kill()
            try:
                child.wait(timeout=10.0)
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
