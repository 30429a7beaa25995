"""``repro serve``: the sweep queue over HTTP.

A thin, dependency-free (stdlib ``http.server``) front end for a
:class:`~repro.service.lease.SweepQueue`.  The server owns **no state**
— status, progress and results replay the journal, and submissions fold
it in under its lock — so it can be killed and restarted at any point,
run next to live workers, or run on a different host that mounts the
sweep directory.

Routes
------

``POST /submit``
    Body ``{"specs": [<spec dict>, ...]}`` (the JSON form produced by
    :func:`~repro.service.lease.spec_to_dict`).  Appends submit records
    (idempotent) and returns ``{"keys": [...]}`` in spec order.
``GET /status``
    The full sweep state: per-cell status, attempts, executed-run
    counts, last errors (see :func:`~repro.service.lease.asdict_state`).
``GET /result/<key>``
    The finished cell's :class:`RunResult` as lossless JSON
    (``result_to_full_dict``); 404 while the cell is unfinished or its
    result is not in the cache.
``GET /progress``
    A streaming ``application/x-ndjson`` body: one status-counts line
    per poll interval, ending (with ``"settled": true``) once every
    cell is done or terminally failed.

Shutdown is graceful: SIGTERM/SIGINT stop the accept loop, in-flight
requests finish, and the process exits 0.  Nothing is lost either way —
the journal already holds everything acknowledged.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict

from repro.core.batch import CacheArg, resolve_cache
from repro.core.export import result_to_full_dict
from repro.service.lease import DONE, SweepQueue, asdict_state

#: default poll cadence of the /progress stream, seconds
PROGRESS_INTERVAL = 0.25


class SweepServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the queue + cache for its handlers."""

    daemon_threads = True

    def __init__(
        self,
        address,
        queue: SweepQueue,
        cache: CacheArg = None,
        progress_interval: float = PROGRESS_INTERVAL,
    ) -> None:
        super().__init__(address, SweepRequestHandler)
        self.queue = queue
        self.cache = resolve_cache(cache)
        self.progress_interval = float(progress_interval)
        self.draining = threading.Event()


class SweepRequestHandler(BaseHTTPRequestHandler):
    server: SweepServer  # narrowed for type checkers

    protocol_version = "HTTP/1.1"

    # quiet by default; tests and `repro serve -v` can re-enable
    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        pass

    # ------------------------------------------------------------- plumbing
    def _send_json(self, obj: Any, status: int = 200) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # --------------------------------------------------------------- routes
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/submit":
            self._send_error_json(404, f"no such route: POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            specs = payload["specs"]
            if not isinstance(specs, list):
                raise ValueError("'specs' must be a list of spec objects")
            keys = self.server.queue.submit(specs)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"bad submission: {exc}")
            return
        self._send_json({"keys": keys})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        if path == "/status":
            self._send_json(asdict_state(self.server.queue.state()))
        elif path.startswith("/result/"):
            self._get_result(path[len("/result/") :])
        elif path == "/progress":
            self._stream_progress()
        else:
            self._send_error_json(404, f"no such route: GET {self.path}")

    def _get_result(self, key: str) -> None:
        state = self.server.queue.state()
        cell = state.cells.get(key)
        if cell is None:
            self._send_error_json(404, f"unknown cell {key}")
            return
        if cell.status != DONE:
            self._send_error_json(
                404, f"cell {key} is {cell.status}, not done"
            )
            return
        res = (
            self.server.cache.get(key)
            if self.server.cache is not None
            else None
        )
        if res is None:
            self._send_error_json(
                404, f"cell {key} is done but its result left the cache"
            )
            return
        self._send_json({"key": key, "result": result_to_full_dict(res)})

    def _stream_progress(self) -> None:
        """One counts line per poll until the sweep settles (ndjson)."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while True:
                state = self.server.queue.state()
                line = json.dumps(
                    {"counts": state.counts(), "settled": state.settled}
                ).encode("utf-8") + b"\n"
                self._write_chunk(line)
                if state.settled or self.server.draining.is_set():
                    break
                time.sleep(self.server.progress_interval)
            self._write_chunk(b"")  # terminal chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()


def make_sweep_server(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8642,
    cache: CacheArg = None,
    lease_duration: float = 60.0,
    retry_budget: int = 3,
) -> SweepServer:
    """Bind a :class:`SweepServer` without starting its accept loop.

    Pass ``port=0`` for an ephemeral port; the bound address is
    ``server.server_address``.  The caller runs ``serve_forever()``
    (tests do so on a thread and stop it with ``shutdown()``).
    """
    queue = SweepQueue(
        root, lease_duration=lease_duration, retry_budget=retry_budget
    )
    return SweepServer((host, port), queue, cache=cache)


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8642,
    cache: CacheArg = None,
    lease_duration: float = 60.0,
    retry_budget: int = 3,
    install_signals: bool = True,
) -> SweepServer:
    """Run the sweep HTTP server until SIGTERM/SIGINT (graceful).

    With ``install_signals=False`` the caller owns shutdown (call
    ``server.shutdown()`` from another thread).
    """
    server = make_sweep_server(
        root, host=host, port=port, cache=cache,
        lease_duration=lease_duration, retry_budget=retry_budget,
    )
    if install_signals:

        def _drain(signum, frame):
            server.draining.set()
            # shutdown() blocks until the accept loop exits; call it off
            # the signal-handling (main) thread to avoid deadlock
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return server


def summarize_status(status: Dict[str, Any]) -> str:
    """One-line human rendering of a /status payload (CLI helper)."""
    c = status["counts"]
    return (
        f"{c['done']} done, {c['failed']} failed, {c['leased']} leased, "
        f"{c['pending']} pending"
        + (" — settled" if status.get("settled") else "")
    )
