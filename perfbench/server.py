"""A ``repro serve`` child process and the HTTP calls the benchmark makes.

The server is started exactly as a user would start it (``python -m
repro.cli serve``), on an ephemeral port, with its store, log and working
directory inside the benchmark's scratch directory.  CPU time and peak
RSS are read from ``/proc/<pid>`` so the benchmark can charge them to the
aligning process rather than to itself.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path

__all__ = ["Connection", "CpuSampler", "ServerProcess", "proc_age_s", "proc_cpu_s", "proc_peak_rss_mb"]

_READY = re.compile(r"serving alignments on http://[^:]+:(\d+)/v1")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may contain spaces; fields resume after ')'.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_age_s(pid: int) -> float:
    """Seconds since ``pid`` started (clock-tick resolution)."""
    with open(f"/proc/{pid}/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set size of ``pid`` in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class CpuSampler:
    """Samples a process's CPU seconds every ``interval`` on a thread.

    Use as a context manager around a measured window; :meth:`at` then
    interpolates the process's CPU time at any instant inside it, so the
    window can be cut into sub-windows after the fact.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.marks: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="cpu-sampler", daemon=True)

    def _sample(self) -> None:
        self.marks.append((time.perf_counter(), proc_cpu_s(self.pid)))

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "CpuSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def at(self, t: float) -> float:
        """CPU seconds at perf-counter time ``t`` (linear between samples)."""
        times = [m[0] for m in self.marks]
        i = min(max(bisect_left(times, t), 1), len(times) - 1)
        (t0, c0), (t1, c1) = self.marks[i - 1], self.marks[i]
        if t1 == t0:
            return c1
        return c0 + (c1 - c0) * min(max((t - t0) / (t1 - t0), 0.0), 1.0)


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """``TCP_NODELAY`` on every (re)connect, as curl and most clients set.

    ``http.client`` sends a request's headers and body in two writes;
    with Nagle's algorithm on, the body would wait for the server's
    delayed ACK of the headers, charging the client's own stall to the
    server.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self._conn = _NoDelayHTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        resp = self._conn.getresponse()
        return resp.status, resp.read()

    def json(self, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else None
        status, data = self.call(method, path, body)
        return status, json.loads(data)

    def close(self) -> None:
        self._conn.close()


class ServerProcess:
    """``repro serve`` on an ephemeral port; :meth:`stop` always reaps it."""

    def __init__(self, root: Path, workdir: Path, flags: list[str]) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
                cwd=workdir,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until ``/v1/healthz`` answers 200; returns requests made."""
        deadline = time.monotonic() + timeout
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{self.log_path.read_text()}")
            match = _READY.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.01)
        conn = Connection(self.port)
        try:
            sent = 1
            while conn.json("GET", "/v1/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
                sent += 1
            return sent
        finally:
            conn.close()

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
