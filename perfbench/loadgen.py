"""Closed-loop HTTP load over keep-alive connections.

The loop runs in the benchmark process on at most ``nproc`` threads, one
keep-alive connection each: a client sends its next request as soon as
the previous reply arrives, and each request is timed from send to
reply.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from .server import Connection

__all__ = ["Op", "closed_loop", "reply_rows"]


@dataclass
class Op:
    """One measured operation."""

    index: int
    bp: int
    sent: float
    done: float
    status: int
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        return self.status == 200


def reply_rows(body: bytes) -> list[tuple]:
    """Alignment rows of a ``/v1/align`` reply as comparable tuples."""
    return [
        (r["target_start"], r["target_end"], r["query_start"], r["query_end"], r["score"], r["cigar"])
        for r in json.loads(body)["alignments"]
    ]


def closed_loop(
    port: int,
    make_body: Callable[[int], tuple[bytes, int]],
    pool: int,
    clients: int,
    seconds: float,
) -> tuple[list[Op], float]:
    """``clients`` back-to-back senders for ``seconds``; returns ``(ops, t0)``.

    ``make_body(i)`` builds request ``i`` (before its clock starts); each
    index is sent once, in order, so at most ``pool`` requests go out.
    A transport error is recorded as a failed operation (status 0).
    """
    lock = threading.Lock()
    cursor = [0]
    ops: list[Op] = []
    errors: list[Exception] = []
    t0 = time.perf_counter()
    stop = t0 + seconds

    def client() -> None:
        conn = Connection(port)
        mine: list[Op] = []
        try:
            while time.perf_counter() < stop:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= pool:
                    return
                body, bp = make_body(i)
                sent = time.perf_counter()
                try:
                    status, data = conn.call("POST", "/v1/align", body)
                    error = None
                except (OSError, http.client.HTTPException) as exc:
                    status, data, error = 0, b"", f"{type(exc).__name__}: {exc}"
                mine.append(Op(i, bp, sent, time.perf_counter(), status, data, error))
        except Exception as exc:  # re-raised below, after every join
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                ops.extend(mine)

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    ops.sort(key=lambda op: op.index)
    return ops, t0
