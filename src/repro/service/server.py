"""HTTP status API for a running sweep service (stdlib only).

Serves a service directory read-only; safe to run beside any number of
workers (every request opens a fresh read connection -- SQLite WAL lets
readers proceed during writer transactions, and the handler threads
never share a connection).

Routes::

    /healthz   -> "ok" (liveness probe)
    /status    -> queue + worker + cell state as JSON
    /metrics   -> OpenMetrics exposition (repro.obs.openmetrics)
    /ascii     -> the repro.analysis.top dashboard as text/plain
    /          -> the same dashboard wrapped in auto-refreshing HTML
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Tuple

from repro.service.queue import (
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    queue_path,
)

#: Cell states that will never change again on their own.
TERMINAL_STATES = ("done", "failed", "cached")


def _cell(job: Job, now: float) -> Dict[str, Any]:
    """One dashboard cell: the job row's state over its progress.

    A ``running`` row whose lease has lapsed has no live owner (its
    worker died or hangs): it is marked ``stalled``.
    """
    cell = dict(job.progress) if job.progress else {
        "started_at": job.started_at}
    state = job.state
    if state == QUEUED and job.attempts + job.expirations > 0:
        state = "retrying"
    error = (job.error or "").strip().splitlines()
    spec = json.loads(job.spec_json)
    cell.update(
        key=job.key[:16], label=job.label, workload=spec.get("workload"),
        policy=spec.get("policy"), seed=spec.get("seed"), state=state,
        resumed=bool(job.resumed or cell.get("resumed")),
        claims=job.claims, attempts=job.attempts,
        expirations=job.expirations,
        error=error[-1] if state == FAILED and error else None,
        enqueued_at=job.enqueued_at, finished_at=job.finished_at,
    )
    if state == RUNNING and (job.lease_expires_at or 0.0) < now:
        cell["stalled"] = True
    return cell


def build_status(directory: str) -> Dict[str, Any]:
    """One coherent JSON-safe snapshot of queue, workers and cells.

    Everything comes from the queue: each cell is its job row, carrying
    the progress (epoch, rate, ETA, ...) its worker last wrote there.
    ``stalled`` is true when work is left that no live lease or worker
    is doing (:meth:`JobQueue.stalled`).
    """
    with JobQueue(queue_path(directory)) as queue:
        status = queue.snapshot()
        jobs = queue.jobs()
    status["directory"] = directory
    status["cells"] = [_cell(job, status["now"]) for job in jobs]
    return status


def display_state(cell: Dict[str, Any]) -> str:
    """Dashboard state for one cell: terminal states win, then stall,
    then resume."""
    state = str(cell.get("state", "unknown"))
    if state in ("failed", "cached"):
        return state
    if cell.get("stalled") and state not in TERMINAL_STATES:
        return "stalled"
    if cell.get("resumed"):
        return "resumed"
    return state


def aggregate(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sweep-level tallies for the dashboard header / exporter."""
    states: Dict[str, int] = {}
    throughput = 0.0
    accesses = 0
    violations = 0
    for cell in cells:
        states[display_state(cell)] = states.get(display_state(cell), 0) + 1
        if cell.get("state") == "running" and not cell.get("stalled"):
            throughput += float(cell.get("accesses_per_sec") or 0.0)
        accesses += int(cell.get("accesses") or 0)
        violations += int(cell.get("violations") or 0)
    return {
        "cells": len(cells),
        "states": states,
        "running_accesses_per_sec": throughput,
        "total_accesses": accesses,
        "violations": violations,
    }


_HTML_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh}">
<title>repro service</title>
<style>body{{background:#111;color:#ddd;font:14px/1.4 monospace;
padding:1em}}pre{{white-space:pre}}</style>
</head><body><pre>{body}</pre></body></html>
"""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"

    # Quiet by default: the service CLI runs this in the foreground and
    # per-request stderr lines would bury the worker progress output.
    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        pass

    def _send(self, code: int, content_type: str, body: str) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        directory = self.server.service_directory  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send(200, "text/plain; charset=utf-8", "ok\n")
            elif path == "/status":
                status = build_status(directory)
                self._send(200, "application/json",
                           json.dumps(status) + "\n")
            elif path == "/metrics":
                from repro.obs.openmetrics import service_exposition

                status = build_status(directory)
                self._send(
                    200,
                    "application/openmetrics-text; version=1.0.0;"
                    " charset=utf-8",
                    service_exposition(status),
                )
            elif path == "/ascii":
                self._send(200, "text/plain; charset=utf-8",
                           self._dashboard() + "\n")
            elif path == "/":
                page = _HTML_PAGE.format(
                    refresh=2, body=html.escape(self._dashboard())
                )
                self._send(200, "text/html; charset=utf-8", page)
            else:
                self._send(404, "text/plain; charset=utf-8",
                           f"unknown path {path!r}\n")
        except BrokenPipeError:
            pass
        except Exception as exc:  # surface, don't kill the handler thread
            try:
                self._send(500, "text/plain; charset=utf-8", f"{exc!r}\n")
            except OSError:
                pass

    def _dashboard(self) -> str:
        from repro.analysis.top import render_service_dashboard

        directory = self.server.service_directory  # type: ignore[attr-defined]
        return render_service_dashboard(build_status(directory))


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service directory for handlers."""

    daemon_threads = True

    def __init__(self, directory: str, address: Tuple[str, int]):
        super().__init__(address, _Handler)
        self.service_directory = directory


def start_server(directory: str, host: str = "127.0.0.1", port: int = 0
                 ) -> Tuple[ServiceServer, threading.Thread]:
    """Serve ``directory`` in a daemon thread; returns (server, thread).

    ``port=0`` binds an ephemeral port -- read the real one back from
    ``server.server_address[1]``.  Call ``server.shutdown()`` to stop.
    """
    server = ServiceServer(directory, (host, port))
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-service-http")
    thread.start()
    return server, thread


def serve_in_child(directory: str, host: str = "127.0.0.1", port: int = 0):
    """Bind here, serve ``directory`` from a forked child process.

    For a caller that forks later (``repro service start`` under the
    worker supervisor): a status *thread* of that process could be
    inside SQLite at a fork and hand the new worker a held lock.  The
    socket is bound in the caller, so ``port=0`` still reports the real
    port; the caller's copy is closed once the child holds it.  Returns
    ``(process, (host, port))``; ``process.terminate()`` stops serving.
    """
    import multiprocessing

    server = ServiceServer(directory, (host, port))
    proc = multiprocessing.get_context("fork").Process(
        target=server.serve_forever, daemon=True, name="repro-service-http")
    proc.start()
    server.server_close()
    return proc, server.server_address[:2]
