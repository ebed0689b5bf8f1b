"""The campaign-service daemon: socket endpoint + scheduler thread.

``repro serve`` runs one :class:`ServiceDaemon` over a **spool
directory** holding everything the service owns::

    <spool>/queue.db      durable job queue (sqlite, WAL)
    <spool>/results.db    shared results database (``repro analyze``)
    <spool>/jobs/<id>/    per-job checkpoint dir, output, telemetry
    <spool>/daemon.sock   the local socket (or a short /tmp fallback)
    <spool>/socket.path   where the socket actually is
    <spool>/daemon.pid    the daemon's pid while it serves

The socket speaks a JSON-line protocol: the client sends one request
object per line, the daemon answers with one response object per line
(the streaming ``status`` mode answers with one line per poll until
the client disconnects or every job is terminal).

Failure matrix (what survives what):

===============  ====================================================
SIGTERM/SIGINT   Clean drain: children flush checkpoints and exit,
                 their jobs requeue with the attempt refunded, the
                 socket closes, the queue stays durable.
``kill -9``      Nothing runs; on the next start the daemon reclaims
                 every lease whose pid is dead, kills orphaned job
                 children, and re-runs each interrupted job from its
                 checkpoint — final results are bit-identical to an
                 uninterrupted run.
pool loss        Handled *inside* the job by the executor (respawn →
                 reduced width → serial); a child that dies anyway is
                 retried by the scheduler on the degradation ladder.
===============  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import threading
from typing import Any, Dict, Optional

from repro.errors import ServiceError
from repro.service.jobs import JobQueue
from repro.service.scheduler import (
    Scheduler,
    SchedulerConfig,
    job_progress,
    validate_spec,
)

__all__ = ["ServiceDaemon", "socket_path_for"]

#: portable AF_UNIX sun_path budget (the historical 104/108 minus
#: headroom); longer spool paths divert the socket to /tmp.
_MAX_SOCKET_PATH = 96


def socket_path_for(spool: str) -> str:
    """The socket path used for *spool* (short /tmp fallback when the
    spool path would overflow ``sun_path``)."""
    preferred = os.path.join(os.path.abspath(spool), "daemon.sock")
    if len(preferred) <= _MAX_SOCKET_PATH:
        return preferred
    digest = hashlib.sha256(preferred.encode("utf-8")).hexdigest()[:12]
    return os.path.join("/tmp", f"repro-{digest}.sock")


class ServiceDaemon:
    """One serving instance: queue + scheduler + socket endpoint."""

    def __init__(
        self,
        spool: str,
        config: Optional[SchedulerConfig] = None,
        max_queued: int = 64,
        drain_when_idle: bool = False,
        status_interval_s: float = 0.5,
        echo=print,
    ) -> None:
        self.spool = os.path.abspath(spool)
        os.makedirs(os.path.join(self.spool, "jobs"), exist_ok=True)
        self.queue = JobQueue(
            os.path.join(self.spool, "queue.db"), max_queued=max_queued
        )
        self.scheduler = Scheduler(self.spool, self.queue, config)
        self.drain_when_idle = drain_when_idle
        self.status_interval_s = status_interval_s
        self.echo = echo
        self._stop = threading.Event()
        self._server: Optional[socket.socket] = None
        self._conn_threads: list = []

    # -- status payloads ------------------------------------------------
    def status_payload(
        self, job_id: Optional[int] = None
    ) -> Dict[str, Any]:
        # the queue lock keeps the scheduler from forking a job child
        # while this thread is inside sqlite (see JobQueue.lock)
        with self.queue.lock:
            jobs = (
                [j for j in [self.queue.get(job_id)] if j is not None]
                if job_id is not None
                else self.queue.jobs()
            )
            rows = []
            for job in jobs:
                row = job.describe()
                row["progress"] = job_progress(self.spool, job)
                rows.append(row)
            return {
                "ok": True,
                "pid": os.getpid(),
                "draining": self._stop.is_set(),
                "queue": self.queue.depth(),
                "counters": self.queue.counters(),
                "jobs": rows,
            }

    def _all_terminal(self) -> bool:
        depth = self.queue.depth()
        return depth["queued"] == 0 and depth["running"] == 0

    # -- request handling -----------------------------------------------
    def _handle_request(
        self, request: Dict[str, Any], send_line
    ) -> None:
        op = request.get("op")
        if op == "ping":
            send_line({"ok": True, "pid": os.getpid()})
        elif op == "submit":
            try:
                spec = validate_spec(request.get("spec"))
                job_id = self.queue.submit(spec)
            except ServiceError as exc:
                send_line({"ok": False, "error": str(exc)})
            else:
                send_line({"ok": True, "job": job_id})
        elif op == "status":
            job_id = request.get("job")
            if not request.get("follow"):
                send_line(self.status_payload(job_id))
                return
            # streaming mode: one status line per poll until every
            # job is terminal (or the client hangs up / we drain).
            # The stop flag is sampled *before* the snapshot so the
            # last line a client sees reflects the post-drain state,
            # never a stale mid-run one.
            while True:
                stopping = self._stop.is_set()
                payload = self.status_payload(job_id)
                payload["final"] = self._all_terminal() or stopping
                send_line(payload)
                if payload["final"]:
                    return
                self._stop.wait(self.status_interval_s)
        elif op == "cancel":
            try:
                job_id = int(request.get("job"))
            except (TypeError, ValueError):
                send_line({"ok": False, "error": "cancel needs a job id"})
                return
            state = self.queue.request_cancel(job_id)
            send_line({"ok": True, "job": job_id, "state": state})
        elif op == "drain":
            send_line({"ok": True, "draining": True})
            self._stop.set()
        else:
            send_line({"ok": False, "error": f"unknown op {op!r}"})

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                reader = conn.makefile("r", encoding="utf-8")
                writer = conn.makefile("w", encoding="utf-8")

                def send_line(payload: Dict[str, Any]) -> None:
                    writer.write(
                        json.dumps(payload, separators=(",", ":")) + "\n"
                    )
                    writer.flush()

                line = reader.readline()
                if not line.strip():
                    return
                try:
                    request = json.loads(line)
                except ValueError:
                    send_line({"ok": False, "error": "not a JSON request"})
                    return
                self._handle_request(request, send_line)
        except (OSError, ValueError):
            pass  # client went away mid-reply; nothing to clean up

    # -- lifecycle ------------------------------------------------------
    def _install_signals(self) -> None:
        # signal handlers can only be installed from the main thread;
        # a daemon hosted in a worker thread (tests, embedding) leaves
        # signal handling to its host and drains via the drain op
        if threading.current_thread() is not threading.main_thread():
            return

        def initiate_drain(signum, frame):
            self._stop.set()

        signal.signal(signal.SIGTERM, initiate_drain)
        signal.signal(signal.SIGINT, initiate_drain)

    def serve(self) -> int:
        """Run until drained; returns a process exit code."""
        socket_path = socket_path_for(self.spool)
        with open(
            os.path.join(self.spool, "socket.path"), "w",
            encoding="utf-8",
        ) as handle:
            handle.write(socket_path + "\n")
        pid_path = os.path.join(self.spool, "daemon.pid")
        with open(pid_path, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        # startup recovery: anything still leased by a dead pid was
        # orphaned by a crash — reclaim it before accepting work
        reclaimed = self.queue.reclaim_stale(0.0)
        if reclaimed:
            self.echo(
                f"recovered {len(reclaimed)} interrupted job(s): "
                + ", ".join(f"#{job.id}" for job in reclaimed)
            )
        if os.path.exists(socket_path):
            os.remove(socket_path)  # stale socket of a dead daemon
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(socket_path)
        server.listen(16)
        server.settimeout(0.2)
        self._server = server
        self._install_signals()
        scheduler_thread = threading.Thread(
            target=self.scheduler.run, args=(self._stop,),
            name="repro-scheduler", daemon=False,
        )
        scheduler_thread.start()
        self.echo(
            f"serving on {socket_path} "
            f"(budget {self.scheduler.config.budget}, "
            f"max {self.scheduler.config.max_jobs} jobs)"
        )
        try:
            while not self._stop.is_set():
                if self.drain_when_idle and self._all_terminal():
                    depth = self.queue.depth()
                    if sum(depth.values()) > 0:
                        self._stop.set()
                        break
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                worker = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    daemon=True,
                )
                worker.start()
                self._conn_threads.append(worker)
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
        finally:
            self._stop.set()
            scheduler_thread.join()
            # streaming clients wake on the stop event and send one
            # final post-drain snapshot; give them a moment to do so
            # before the queue connection goes away beneath them
            for worker in self._conn_threads:
                worker.join(timeout=2.0)
            try:
                server.close()
            except OSError:
                pass
            for path in (socket_path, pid_path):
                try:
                    os.remove(path)
                except OSError:
                    pass
            self.queue.close()
        depth = self.queue.depth()
        self.echo(
            f"drained: {depth['done']} done, {depth['failed']} failed, "
            f"{depth['cancelled']} cancelled, {depth['queued']} requeued"
        )
        return 0
