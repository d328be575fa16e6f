"""The stdlib HTTP layer of the scenario service.

Routes (see ``docs/service.md`` for the full reference):

========================  ====================================================
``GET  /health``          liveness probe: status, schema version, run counts
``GET  /schema``          the result-document JSON Schema (``result_schema``)
``POST /runs``            submit a run request; 202 with the new run id
``GET  /runs``            query the archive (``?preset=&status=&label=``)
``GET  /runs/{id}``       status envelope, embedding the document when done
``GET  /runs/{id}/document``  the canonical result document, exact bytes
``GET  /runs/{id}/events``    live progress snapshots as Server-Sent Events
========================  ====================================================

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is what lets an ``/events`` stream stay open while other
clients poll.  Run execution itself happens on the
:class:`~repro.service.jobs.JobManager` pool, never on request threads.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.experiments.options import RuntimeOptions
from repro.experiments.results import SCHEMA_VERSION, result_schema
from repro.registry import UnknownComponentError
from repro.service.archive import RunArchive
from repro.service.jobs import JobManager

#: Default bind address and port for ``python -m repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8757

#: Longest one SSE poll blocks before re-checking run liveness, seconds.
_STREAM_POLL_S = 0.5


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning :class:`ScenarioService` is on the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-scenario-service"
    # TCP_NODELAY: headers and body leave as separate sends, and on a
    # kept-alive connection Nagle would hold the body for the client's
    # delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # plumbing
    @property
    def service(self) -> "ScenarioService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.service.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload, status: HTTPStatus = HTTPStatus.OK) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._send_body(body, "application/json", status)

    def _send_text(self, text: str, content_type: str,
                   status: HTTPStatus = HTTPStatus.OK) -> None:
        self._send_body(text.encode("utf-8"), content_type, status)

    def _send_body(self, body: bytes, content_type: str,
                   status: HTTPStatus) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: HTTPStatus, message: str) -> None:
        self._send_json({"error": message, "status": int(status)}, status)

    # ------------------------------------------------------------------ #
    # routing
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["health"]:
                self._get_health()
            elif parts == ["schema"]:
                self._send_json(result_schema())
            elif parts == ["runs"]:
                self._get_runs(parse_qs(url.query))
            elif len(parts) == 2 and parts[0] == "runs":
                self._get_run(parts[1])
            elif (len(parts) == 3 and parts[0] == "runs"
                    and parts[2] == "document"):
                self._get_run_document(parts[1])
            elif (len(parts) == 3 and parts[0] == "runs"
                    and parts[2] == "events"):
                self._get_run_events(parts[1])
            else:
                self._send_error_json(HTTPStatus.NOT_FOUND,
                                      f"no such route: GET {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts != ["runs"]:
            self._send_error_json(HTTPStatus.NOT_FOUND,
                                  f"no such route: POST {url.path}")
            return
        try:
            header = self.headers.get("Content-Length") or "0"
            if not (header.isascii() and header.isdigit()):
                # The body's extent is unknown, so the connection cannot
                # carry another request.
                self.close_connection = True
                self._send_error_json(
                    HTTPStatus.BAD_REQUEST,
                    "Content-Length must be a non-negative integer, "
                    f"got {header!r}")
                return
            length = int(header)
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._send_error_json(HTTPStatus.BAD_REQUEST,
                                      f"request body is not JSON: {exc}")
                return
            try:
                state = self.service.jobs.submit(payload)
            except (UnknownComponentError, ValueError) as exc:
                self._send_error_json(HTTPStatus.BAD_REQUEST, str(exc))
                return
            self._send_json(
                {"run_id": state.run_id, "status": state.status,
                 "url": f"/runs/{state.run_id}"},
                HTTPStatus.ACCEPTED)
        except (BrokenPipeError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------ #
    # endpoints
    def _get_health(self) -> None:
        states = self.service.jobs.states()
        counts: dict[str, int] = {}
        for state in states:
            counts[state.status] = counts.get(state.status, 0) + 1
        self._send_json({"status": "ok", "schema_version": SCHEMA_VERSION,
                         "slots": self.service.jobs.slots, "runs": counts})

    def _get_runs(self, query: dict) -> None:
        def param(name: str) -> Optional[str]:
            values = query.get(name)
            return values[-1] if values else None

        unknown = sorted(set(query) - {"preset", "status", "label"})
        if unknown:
            self._send_error_json(
                HTTPStatus.BAD_REQUEST,
                f"unknown query parameter(s) {unknown}; "
                "supported: preset, status, label")
            return
        entries = self.service.archive.query(
            preset=param("preset"), status=param("status"),
            label=param("label"))
        self._send_json({"runs": entries, "count": len(entries)})

    def _run_or_404(self, run_id: str):
        state = self.service.jobs.get(run_id)
        if state is None:
            self._send_error_json(
                HTTPStatus.NOT_FOUND,
                f"no run {run_id!r} in this service process; the archive "
                "index (GET /runs) spans past service runs too")
        return state

    def _get_run(self, run_id: str) -> None:
        state = self._run_or_404(run_id)
        if state is None:
            return
        envelope = state.to_entry()
        envelope["snapshots"] = len(state.snapshots)
        if state.document is not None:
            envelope["document"] = json.loads(state.document)
        self._send_json(envelope)

    def _get_run_document(self, run_id: str) -> None:
        state = self.service.jobs.get(run_id)
        document = state.document if state is not None else None
        if document is None:
            # Fall back to the archive so documents survive a restart.
            document = self.service.archive.read_document(run_id)
        if document is None:
            status = "no finished document for run"
            if state is not None:
                status = f"run is {state.status}; no document for run"
            self._send_error_json(HTTPStatus.NOT_FOUND,
                                  f"{status} {run_id!r}")
            return
        # Exact canonical bytes: identical to the archive file and to
        # ``repro scenario --json`` for the same spec and seed.
        self._send_text(document, "application/json")

    def _get_run_events(self, run_id: str) -> None:
        state = self._run_or_404(run_id)
        if state is None:
            return
        self.send_response(HTTPStatus.OK)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream; close delimits it under HTTP/1.1.
        self.send_header("Connection", "close")
        self.end_headers()
        index = 0
        while True:
            if state.wait_snapshot(index, timeout=_STREAM_POLL_S):
                snapshot = state.snapshots[index]
                data = json.dumps(snapshot, sort_keys=True)
                self.wfile.write(f"id: {index}\nevent: {snapshot.get('kind', 'snapshot')}\n"
                                 f"data: {data}\n\n".encode("utf-8"))
                self.wfile.flush()
                index += 1
                continue
            if state.status in ("done", "failed"):
                final = {"run_id": run_id, "status": state.status,
                         "snapshots": len(state.snapshots)}
                if state.error is not None:
                    final["error"] = state.error
                self.wfile.write(
                    ("event: end\ndata: "
                     f"{json.dumps(final, sort_keys=True)}\n\n").encode())
                self.wfile.flush()
                self.close_connection = True
                return


class ScenarioService:
    """The long-lived service: archive + job manager + threading server.

    Usable embedded (tests start it on a daemon thread via
    :meth:`start_background`) or blocking (:meth:`serve_forever`, which is
    what ``python -m repro serve`` calls).
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 runs_dir: Optional[str] = None,
                 defaults: Optional[RuntimeOptions] = None,
                 max_runs: int = 1, verbose: bool = False,
                 progress_interval_s: float = 0.25) -> None:
        self.archive = RunArchive(runs_dir)
        self.jobs = JobManager(self.archive, defaults=defaults,
                               max_runs=max_runs,
                               progress_interval_s=progress_interval_s)
        self.verbose = verbose
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self._thread = None
        self._serving = False

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) — port 0 resolves here."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        self.jobs.start()
        self._serving = True
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self.close()

    def start_background(self) -> "ScenarioService":
        import threading

        self.jobs.start()
        self._serving = True
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        if self._serving:
            # shutdown() blocks on serve_forever's exit handshake, so it
            # must only run once a serve loop has actually started.
            self._serving = False
            self.httpd.shutdown()
        self.httpd.server_close()
        self.jobs.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          runs_dir: Optional[str] = None,
          defaults: Optional[RuntimeOptions] = None, max_runs: int = 1,
          verbose: bool = False,
          announce=None) -> None:
    """Boot the scenario service and block until interrupted."""
    service = ScenarioService(host=host, port=port, runs_dir=runs_dir,
                              defaults=defaults, max_runs=max_runs,
                              verbose=verbose)
    if announce is not None:
        announce(service)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.close()
