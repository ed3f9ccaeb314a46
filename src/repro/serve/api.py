"""Status/score surface of a serving run: in-process handle + HTTP.

Two layers, zero new runtime dependencies:

* :class:`StatusBoard` — a thread-safe, in-process view the serving
  loop keeps current (checkpoint phase + cursor, the four runbook
  counters, per-customer current score/flag, the run manifest).  Its
  :meth:`~StatusBoard.handle` method *is* the API: a socket-free
  ``(status_code, payload)`` router over the same paths the HTTP server
  exposes, so tests and embedders never need a port.
* :class:`StatusServer` — a stdlib :class:`~http.server.ThreadingHTTPServer`
  on a background thread translating ``GET`` requests into
  :meth:`StatusBoard.handle` calls.  Port 0 binds an ephemeral port
  (the CI smoke job and tests use this to avoid collisions).

Routes
------
``/status``
    Run phase, counters, checkpoint cursor, run parameters, customer
    count.
``/customers/<id>``
    One customer's current stability, flag and alarm windows.
``/manifest``
    The run manifest (404 until the loop has written one).
``/metrics``
    Prometheus text exposition 0.0.4 of the live telemetry plane
    (DESIGN.md §12); 503 until the publisher's first publish.
``/metrics.jsonl``
    The recent window snapshots (newest last) as JSON Lines — the same
    records the on-disk stream file carries, for `obs tail` pointed at
    a port instead of a file.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import TracebackType

from repro.obs.export import PROMETHEUS_CONTENT_TYPE

__all__ = ["StatusBoard", "StatusServer"]

logger = logging.getLogger(__name__)


class StatusBoard:
    """Thread-safe live view of one serving run.

    The serving loop is the only writer; any number of reader threads
    (the HTTP server's handlers, embedding code) may call the read
    methods concurrently.  All values returned are plain-JSON-safe
    copies — ``nan`` stabilities are surfaced as ``None``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phase = "starting"
        self._counters: dict[str, int] = {
            "ingested": 0,
            "scored": 0,
            "flagged": 0,
            "checkpointed": 0,
        }
        self._checkpoint: dict[str, object] = {}
        #: The served scores as :func:`~repro.core.streaming.monitor_scores`
        #: returns them; replaced whole, never changed in place.
        self._scores: tuple[
            dict[int, float], dict[int, bool], dict[int, tuple[tuple[int, float], ...]]
        ] = ({}, {}, {})
        self._manifest: dict | None = None
        self._run: dict[str, object] = {}
        self._metrics_text: str | None = None
        self._metrics_samples: deque[dict[str, object]] = deque(maxlen=256)

    # ------------------------------------------------------------------
    # Writers (called by the serving loop)
    # ------------------------------------------------------------------
    def set_run_info(self, **info: object) -> None:
        """Record run parameters (stream, shards, batch size); the loop
        refreshes ``stream_fingerprint``, the digest of the stream prefix
        served, at every commit."""
        with self._lock:
            self._run.update(info)

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self._phase = phase

    def set_counters(self, counters: dict[str, int]) -> None:
        with self._lock:
            self._counters.update(counters)

    def set_checkpoint(
        self,
        *,
        commit_index: int,
        day_batches_consumed: int,
        finished: bool,
    ) -> None:
        with self._lock:
            self._checkpoint = {
                "commit_index": commit_index,
                "day_batches_consumed": day_batches_consumed,
                "finished": finished,
            }

    def set_scores(
        self,
        scores: dict[int, float],
        flags: dict[int, bool],
        alarm_windows: dict[int, tuple[tuple[int, float], ...]],
    ) -> None:
        """Install the served scores: every scored customer's stability,
        flag and ``(window, stability)`` alarms, keyed alike (the result
        of :func:`~repro.core.streaming.monitor_scores`).  The board
        keeps the dicts as they are, so the caller must not change them
        afterwards."""
        with self._lock:
            self._scores = (scores, flags, alarm_windows)

    def set_manifest(self, manifest: dict) -> None:
        with self._lock:
            self._manifest = dict(manifest)

    def set_metrics_text(self, text: str) -> None:
        """Install the latest Prometheus exposition (publisher-rendered)."""
        with self._lock:
            self._metrics_text = text

    def push_metrics_sample(self, snapshot: dict[str, object]) -> None:
        """Append one window snapshot to the bounded recent-samples ring."""
        with self._lock:
            self._metrics_samples.append(dict(snapshot))

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        with self._lock:
            return self._phase

    def status(self) -> dict:
        """The ``/status`` document."""
        with self._lock:
            return {
                "phase": self._phase,
                "counters": dict(self._counters),
                "checkpoint": dict(self._checkpoint),
                "customers_tracked": len(self._scores[0]),
                "run": dict(self._run),
            }

    def customer(self, customer_id: int) -> dict | None:
        """One scored customer's stability, flag and alarm windows;
        ``None`` until a window closed on them."""
        with self._lock:
            scores, flags, alarm_windows = self._scores
        customer_id = int(customer_id)
        if customer_id not in scores:
            return None
        stability = scores[customer_id]
        return {
            "stability": None if math.isnan(stability) else float(stability),
            "flagged": bool(flags[customer_id]),
            "alarm_windows": [[w, s] for w, s in alarm_windows[customer_id]],
        }

    def handle(self, path: str) -> tuple[int, dict | str]:
        """Route one request path; returns ``(status_code, payload)``.

        This is the socket-free form of the API — the HTTP server is a
        thin adapter over exactly this method.  ``dict`` payloads are
        JSON documents; ``str`` payloads are served as plain text (the
        ``/metrics`` exposition and the ``/metrics.jsonl`` stream).
        """
        if path in ("/", "/status"):
            return 200, self.status()
        if path == "/metrics":
            with self._lock:
                text = self._metrics_text
            if text is None:
                return 503, {"error": "no metrics published yet"}
            return 200, text
        if path == "/metrics.jsonl":
            with self._lock:
                samples = list(self._metrics_samples)
            if not samples:
                return 503, {"error": "no metrics published yet"}
            return 200, "".join(
                json.dumps(s, sort_keys=True, default=str) + "\n" for s in samples
            )
        if path == "/manifest":
            with self._lock:
                manifest = self._manifest
            if manifest is None:
                return 404, {"error": "no run manifest written yet"}
            return 200, manifest
        if path.startswith("/customers/"):
            tail = path[len("/customers/") :]
            if not tail.isdigit():
                return 404, {"error": f"invalid customer id {tail!r}"}
            record = self.customer(int(tail))
            if record is None:
                return 404, {"error": f"customer {tail} not in the stream"}
            return 200, {"customer_id": int(tail), **record}
        return 404, {"error": f"unknown path {path!r}"}


class _BoardHandler(BaseHTTPRequestHandler):
    """GET-only JSON adapter from HTTP paths to :meth:`StatusBoard.handle`."""

    #: Bound per server instance (see :class:`StatusServer`).
    board: StatusBoard

    #: Per-request socket timeout (seconds).  ``http.server`` applies
    #: this to the connection in ``setup()``: a client that connects and
    #: never sends a request line cannot pin a handler thread forever,
    #: which is what lets :meth:`StatusServer.stop` return promptly
    #: under load.  Overridden per server instance (see
    #: :class:`StatusServer`'s ``request_timeout``).
    timeout: float | None = 5.0

    def do_GET(self) -> None:  # noqa: N802 — http.server's naming contract
        code, payload = self.board.handle(self.path)
        if isinstance(payload, str):
            body = payload.encode()
            content_type = (
                PROMETHEUS_CONTENT_TYPE
                if self.path == "/metrics"
                else "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload, sort_keys=True, default=str).encode()
            content_type = "application/json"
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError as exc:
            # The client hung up mid-response (common while the soak
            # harness hammers /status during shutdown); a dead socket is
            # the client's business, never the serving loop's.
            self.close_connection = True
            logger.debug("status api: client went away: %s", exc)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # Route http.server's stderr chatter into the library logger.
        logger.debug("status api: " + format, *args)


class StatusServer:
    """The :class:`StatusBoard` over HTTP, on a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction for the actual one.  Usable as a context manager::

        with StatusServer(board, port=0) as server:
            url = f"http://127.0.0.1:{server.port}/status"
    """

    def __init__(
        self,
        board: StatusBoard,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float | None = 5.0,
    ) -> None:
        handler = type(
            "_BoundHandler",
            (_BoardHandler,),
            {"board": board, "timeout": request_timeout},
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        # In-flight handler threads are daemons with a bounded request
        # timeout; ``server_close`` must not block on joining them, or a
        # slow client could hang a SIGTERM-initiated shutdown.
        self._server.block_on_close = False
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return int(self._server.server_address[1])

    def start(self) -> int:
        """Start serving on a daemon thread; returns the bound port."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-serve-status",
                daemon=True,
            )
            self._thread.start()
        return self.port

    def stop(self) -> None:
        """Stop the server and release the socket (idempotent).

        ``shutdown()`` blocks on the ``serve_forever`` loop having run,
        so it is only issued when the thread was actually started.
        """
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> StatusServer:
        self.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.stop()
        return False
