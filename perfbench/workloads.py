"""The three workloads: set-up, measured window, output check, layer trace.

Each workload is driven from this one process.  ``pair.genome`` calls the
library directly; ``serve.reads`` and ``serve.upload`` drive a ``repro
serve --store`` child (the only other process) over at most ``nproc``
keep-alive connections.  A workload object is set up by :meth:`setup`
(called several times so set-up time has a median), measured once by
:meth:`measure`, checked against the ``scalar`` oracle engine by
:meth:`check`, and — in a traced run — broken into layers by
:meth:`layers`.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.align.extend import combine_alignment
from repro.core.options import SCALED_BIN_EDGES, FastzOptions
from repro.core.pipeline import extend_suffixes_shard, run_fastz
from repro.genome.alphabet import decode
from repro.seeding import build_seed_table
from repro.service import AlignmentService
from repro.store import ReferenceStore
from repro.workloads.profiles import bench_config

from .inputs import Size, inputs_digest, read_windows, synth_pair, upload_windows
from .layers import BINS, LayerSample, parse_prometheus, pipeline_op, result_rows, service_replay
from .loadgen import Op, closed_loop, reply_rows
from .report import Metric, median, percentile, samples_beyond
from .server import Connection, CpuSampler, ServerProcess, proc_peak_rss_mb

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "Context", "Slice", "Window", "end_to_end", "nproc"]

#: Distinct requests a served workload's pool holds per measured second
#: (well above capacity, so a closed loop never runs out of them).
POOL_PER_S = 60
#: Warm-up requests per server set-up, drawn after the pool so their
#: result-cache keys differ from every measured request's.
WARMUP_REQUESTS = 4
#: Equal sub-windows a served workload's measured window is cut into.
SUBWINDOWS = 3
#: Requests per served workload recomputed by the scalar oracle and
#: replayed layer by layer in a traced run.
SAMPLE_REQUESTS = 6
#: Leading successful requests the sample is drawn from.
SAMPLE_POOL = 48
#: Extra anchors of ``pair.genome`` recomputed by the scalar oracle
#: (besides up to eight from the long bins 2-4).
SAMPLE_ANCHORS = 16
#: Idle-server round trips behind each front-door probe.
HEALTHZ_PROBES = 40
NULL_ALIGN_PROBES = 20

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("align_bp_per_s", "bp/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("cpu_s_per_mbp", "s/Mbp"),
    ("peak_rss_mb", "MB"),
]

#: ``(layer, name, unit)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("seeding", "seeding.table_s", "s"),
    ("seeding", "seeding.anchor_s", "s"),
    ("seeding", "seeding.anchors", "count"),
    ("align", "align.extend_s", "s"),
    ("align", "align.inspector_s", "s"),
    *[("align", f"align.executor.bin{b}_s", "s") for b in BINS],
    *[("align", f"align.executor.bin{b}_tasks", "count") for b in BINS],
    ("align", "align.extend_self_s", "s"),
    ("align", "align.eager_frac", "ratio"),
    ("align", "align.fallbacks", "count"),
    ("align", "align.sweep_steps", "count"),
    ("align", "align.slab_cells", "count"),
    ("align", "align.live_cell_frac", "ratio"),
    ("core", "core.finish_s", "s"),
    ("frontdoor", "frontdoor.healthz_ms", "ms"),
    ("frontdoor", "frontdoor.null_align_ms", "ms"),
    ("frontdoor", "frontdoor.overhead_ms", "ms"),
    ("service", "service.server_lat_p50_ms", "ms"),
    ("service", "service.queue_wait_mean_ms", "ms"),
    ("service", "service.batch_mean", "count"),
    ("service", "service.cache_hit_frac", "ratio"),
    ("service", "service.shed", "count"),
    ("service", "service.rejected", "count"),
    ("service", "service.timed_out", "count"),
    ("service", "service.failed", "count"),
    ("service", "service.fuse_ms", "ms"),
    ("service", "service.extend_ms", "ms"),
    ("service", "service.resolve_ms", "ms"),
    ("loadgen", "loadgen.sent", "count"),
    ("trace", "trace.op_ms", "ms"),
    ("trace", "trace.untraced_op_ms", "ms"),
    ("trace", "trace.overhead_ms", "ms"),
    ("trace", "trace.unaccounted_ms", "ms"),
]
_UNITS = {name: unit for _, name, unit in PER_LAYER}


def default_engine() -> str:
    """The extension engine ``/v1/align`` runs when a request names none."""
    return inspect.signature(AlignmentService).parameters["options"].default.engine


@dataclass
class Context:
    """Run-wide settings and the per-phase request ledger."""

    root: Path
    scratch: Path
    seed: int
    size: Size
    seconds: float
    nproc: int
    #: phase -> [sent, ok, failed]
    phases: dict[str, list[int]] = field(
        default_factory=lambda: {p: [0, 0, 0] for p in ("setup", "warmup", "measured", "probe")}
    )

    def count(self, phase: str, ok: bool, n: int = 1) -> None:
        entry = self.phases[phase]
        entry[0] += n
        entry[1 if ok else 2] += n


@dataclass(frozen=True)
class Slice:
    """One sub-window: ``[start, end)`` on the perf counter and its CPU."""

    start: float
    end: float
    cpu_s: float


@dataclass
class Window:
    """The measured window of one run, cut into sub-windows.

    Rates and CPU per base are medians over ``slices``, so a transient
    stall of the shared machine moves one sub-window, not the result.
    ``pair.genome`` has one slice per whole-pair operation; the served
    workloads cut their window into ``SUBWINDOWS`` equal slices and, with
    ``latency_per_slice``, report the median of the slices' percentiles.
    """

    ops: list[Op]
    slices: list[Slice]
    peak_rss_mb: float
    latency_per_slice: bool
    #: Library layer samples (``pair.genome`` only; traced and untraced).
    samples: list[LayerSample] = field(default_factory=list)
    #: Server ``/v1/stats`` and ``/v1/metrics`` before and after (traced).
    stats: tuple = ()

    def slice_ops(self) -> list[list[Op]]:
        """Operations by the slice their reply arrived in (the last slice
        also takes replies that arrived after it ended)."""
        groups: list[list[Op]] = [[] for _ in self.slices]
        ends = [sl.end for sl in self.slices]
        for op in self.ops:
            groups[min(bisect_right(ends, op.done), len(ends) - 1)].append(op)
        return groups


def end_to_end(window: Window, bad: set[int], setups: list[float], checked: int) -> list[Metric]:
    """The eight end-to-end metrics of a measured window.

    A failed request, or one whose output check failed, counts against
    ``ok_frac`` and ``goodput_rps`` and as an infinite latency.
    """
    ops = window.ops
    n = len(ops)

    def good(op: Op) -> bool:
        return op.ok and op.index not in bad

    def lat_ms(op: Op) -> float:
        return 1e3 * op.latency if good(op) else math.inf

    rate, goodput, cpu = [], [], []
    for sl in window.slices:
        # Each operation counts in a slice by the share of its send-to-reply
        # interval that falls inside it, so slice rates are not quantised
        # by whole operations.
        bp = done = 0.0
        for op in ops:
            share = max(0.0, min(op.done, sl.end) - max(op.sent, sl.start)) / op.latency
            bp += op.bp * share
            done += good(op) * share
        dur = sl.end - sl.start
        rate.append(bp / dur)
        goodput.append(done / dur)
        cpu.append(sl.cpu_s / (bp / 1e6) if bp else math.inf)
    if window.latency_per_slice:
        groups = [[lat_ms(op) for op in g] for g in window.slice_ops() if g]
    else:
        groups = [[lat_ms(op) for op in ops]]
    p50 = median([percentile(g, 0.5) for g in groups])
    p90 = median([percentile(g, 0.9) for g in groups])
    beyond = min(samples_beyond(len(g), 0.9) for g in groups)
    k = len(window.slices)
    per = f"median of {len(groups)} sub-window percentiles" if window.latency_per_slice else f"over {n} operations"
    metrics = [
        Metric("setup_s", median(setups), "s", len(setups), "median set-up"),
        Metric("align_bp_per_s", median(rate), "bp/s", k, f"median of {k} sub-windows, {n} operations"),
        Metric("lat_p50_ms", p50, "ms", n, per),
        Metric(
            "lat_p90_ms",
            p90,
            "ms",
            n,
            f"{per}; min {beyond} beyond" + ("" if beyond >= 10 else ": fewer than ten, indicative only"),
        ),
        Metric("goodput_rps", median(goodput), "1/s", k, f"median of {k} sub-windows"),
        Metric("ok_frac", sum(map(good, ops)) / n, "ratio", n, f"{checked} checked against scalar"),
        Metric("cpu_s_per_mbp", median(cpu), "s/Mbp", k, f"median of {k} sub-windows"),
        Metric("peak_rss_mb", window.peak_rss_mb, "MB", 1),
    ]
    if [(m.name, m.unit) for m in metrics] != END_TO_END:
        raise RuntimeError("end-to-end metrics out of step with END_TO_END")
    return metrics


def _metric(name: str, value: float, n: int, note: str = "") -> Metric:
    return Metric(name, float(value), _UNITS[name], n, note)


def library_layers(traced: list[LayerSample], untraced: list[LayerSample], counts_per_op: bool) -> list[Metric]:
    """Seeding/align/core/trace metrics from traced library operations.

    Times are medians over ``traced``.  Counts are one operation's when
    ``counts_per_op`` (every traced operation aligned the same input, and
    a note flags it if their counts differ) and totals over ``traced``
    otherwise.
    """
    n = len(traced)

    def med(fn) -> float:
        return median([fn(s) for s in traced])

    if counts_per_op:
        base = traced[0]
        note = "" if all(s.counts == base.counts for s in traced) else "counts differ between operations"
        anchors, eager, fallbacks = base.anchors, base.eager, base.fallbacks
        tasks = base.executor_tasks
        steps, slab, live = base.sweep_steps, base.slab_cells, base.live_cells
    else:
        note = f"total over {n} requests"
        anchors = sum(s.anchors for s in traced)
        eager = sum(s.eager for s in traced)
        fallbacks = sum(s.fallbacks for s in traced)
        tasks = {b: sum(s.executor_tasks.get(b, 0) for s in traced) for b in BINS}
        steps = sum(s.sweep_steps for s in traced)
        slab = sum(s.slab_cells for s in traced)
        live = sum(s.live_cells for s in traced)
    traced_ms = 1e3 * med(lambda s: s.op_s)
    untraced_ms = 1e3 * median([s.op_s for s in untraced])
    layers_ms = 1e3 * sum(med(lambda s, k=k: getattr(s, k)) for k in ("table_s", "anchor_s", "extend_s", "finish_s"))
    return [
        _metric("seeding.table_s", med(lambda s: s.table_s), n),
        _metric("seeding.anchor_s", med(lambda s: s.anchor_s), n),
        _metric("seeding.anchors", anchors, n, note),
        _metric("align.extend_s", med(lambda s: s.extend_s), n),
        _metric("align.inspector_s", med(lambda s: s.inspector_s), n),
        *[_metric(f"align.executor.bin{b}_s", med(lambda s, b=b: s.executor_s.get(b, 0.0)), n) for b in BINS],
        *[_metric(f"align.executor.bin{b}_tasks", tasks.get(b, 0), n, note) for b in BINS],
        _metric(
            "align.extend_self_s",
            med(lambda s: s.extend_s - s.inspector_s - sum(s.executor_s.values())),
            n,
            "extend minus inspector and executor spans",
        ),
        _metric("align.eager_frac", eager / anchors if anchors else 0.0, n, "eager anchors / anchors"),
        _metric("align.fallbacks", fallbacks, n, "executor reruns"),
        _metric("align.sweep_steps", steps, n, note),
        _metric("align.slab_cells", slab, n, note),
        _metric("align.live_cell_frac", live / slab if slab else 0.0, n, "live / slab cells"),
        _metric("core.finish_s", med(lambda s: s.finish_s), n),
        _metric("trace.op_ms", traced_ms, n, "traced library operation p50"),
        _metric("trace.untraced_op_ms", untraced_ms, len(untraced), "untraced library operation p50"),
        _metric("trace.overhead_ms", traced_ms - untraced_ms, n, "traced minus untraced p50"),
        _metric("trace.unaccounted_ms", traced_ms - layers_ms, n, "traced p50 minus the sum of layer medians"),
    ]


def _absent(names: list[str], why: str) -> list[Metric]:
    return [_metric(name, 0.0, 0, why) for name in names]


def _scalar(options: FastzOptions) -> FastzOptions:
    return replace(options, engine="scalar")


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Which end-to-end share base the layer table uses.
    closes_over_http = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.config = bench_config()
        self.inputs_sha256 = ""

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, traced: bool) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> tuple[int, set[int]]:
        """``(operations checked, indices of operations found wrong)``."""
        raise NotImplementedError

    def layers(self, window: Window) -> list[Metric]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PairGenome(Workload):
    """Whole-pair alignment of a ``C1_5,5``-shaped pair, closed loop, one thread."""

    name = "pair.genome"

    def setup(self) -> None:
        ctx = self.ctx
        pair = synth_pair(self.name, "C1_5,5", ctx.seed, ctx.size)
        self.target, self.query = pair.target.codes, pair.query.codes
        self.options = FastzOptions(bin_edges=SCALED_BIN_EDGES, engine=default_engine())
        self.inputs_sha256 = inputs_digest(self.name, ctx.size, self.target, self.query)
        # Warm-up: the leading eighth of the pair, through the same calls.
        head_t, head_q = self.target[: len(self.target) // 8], self.query[: len(self.query) // 8]
        pipeline_op(head_t, head_q, self.config, self.options, lambda: self._table(head_t), traced=False)
        ctx.count("warmup", True)

    def _table(self, codes: np.ndarray):
        return build_seed_table(codes, k=self.config.seed_length, spaced_pattern=self.config.spaced_pattern)

    def measure(self, traced: bool) -> Window:
        """Back-to-back whole-pair alignments for ``seconds``.

        A traced run alternates untraced and traced operations (at least
        two of each) so tracing overhead is measured in the same window.
        """
        ctx = self.ctx
        bp = len(self.target) + len(self.query)
        ops: list[Op] = []
        slices: list[Slice] = []
        samples: list[LayerSample] = []
        t0 = time.perf_counter()
        while True:
            i = len(ops)
            cpu0 = time.process_time()
            start = time.perf_counter()
            sample, result, prep, records = pipeline_op(
                self.target,
                self.query,
                self.config,
                self.options,
                lambda: self._table(self.target),
                traced=traced and i % 2 == 1,
            )
            done = time.perf_counter()
            slices.append(Slice(start, done, time.process_time() - cpu0))
            rows = json.dumps(result_rows(result.alignments)).encode()
            ops.append(Op(i, bp, start, done, 200, rows))
            samples.append(sample)
            self.last = (result, prep, records)
            if done - t0 >= ctx.seconds and len(ops) >= (4 if traced else 1):
                break
        ctx.count("measured", True, len(ops))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Window(ops, slices, rss, latency_per_slice=False, samples=samples)

    def check(self, window: Window) -> tuple[int, set[int]]:
        """Every pair's rows equal the first's; sampled anchors match scalar.

        The sample takes up to eight anchors from bins 2-4 and
        ``SAMPLE_ANCHORS`` more at random, seeded by the run seed, and
        compares their alignment rows (coordinates, score, CIGAR) between
        the measured engine and the scalar oracle.
        """
        bad = {op.index for op in window.ops if op.body != window.ops[0].body}
        result, prep, records = self.last
        rng = np.random.default_rng([self.ctx.seed, 7])
        bins = np.array([task.bin_id for task in result.tasks], dtype=np.int64)
        long = np.flatnonzero(bins >= 2)
        rest = np.flatnonzero(bins < 2)
        pick = np.concatenate(
            [
                rng.choice(long, size=min(8, long.size), replace=False),
                rng.choice(rest, size=min(SAMPLE_ANCHORS, rest.size), replace=False),
            ]
        ).astype(np.int64)
        suffixes = prep.suffixes()
        sub = [suffixes[2 * k + side] for k in pick for side in (0, 1)]
        oracle = extend_suffixes_shard(sub, prep.scheme, _scalar(self.options), prep.tile)

        def row(k: int, rec) -> tuple:
            insp_l, insp_r, final_l, final_r, _ = rec
            a = combine_alignment(prep.t_pos[k], prep.q_pos[k], final_l, final_r, insp_l.score + insp_r.score)
            return result_rows([a])[0]

        if any(row(k, records[k]) != row(k, rec) for k, rec in zip(pick.tolist(), oracle)):
            bad = {op.index for op in window.ops}
        return len(window.ops), bad

    def layers(self, window: Window) -> list[Metric]:
        traced = [s for s in window.samples if s.traced]
        untraced = [s for s in window.samples if not s.traced]
        why = "no service stack in this workload"
        rest = [name for _, name, _ in PER_LAYER if name.split(".")[0] in ("frontdoor", "service", "loadgen")]
        return library_layers(traced, untraced, counts_per_op=True) + _absent(rest, why)


class _Served(Workload):
    """A workload served by a ``repro serve --store`` child process."""

    closes_over_http = True
    pair_name = ""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.server: ServerProcess | None = None
        self.options = FastzOptions(engine=default_engine())
        self._spawned = 0

    def _flags(self) -> list[str]:
        """Every ``repro serve`` flag at its default, except bench_config()'s scoring."""
        c, s = self.config, self.config.scheme
        return [
            "--store", "store",
            "--gap-open", str(s.gap_open),
            "--gap-extend", str(s.gap_extend),
            "--ydrop", str(s.ydrop),
            "--hsp-threshold", str(s.hsp_threshold),
            "--gapped-threshold", str(s.gapped_threshold),
            "--seed-length", str(c.seed_length),
            "--collapse-window", str(c.collapse_window),
            "--diag-band", str(c.diag_band),
        ]  # fmt: skip

    def _start_server(self) -> Connection:
        self._spawned += 1
        workdir = self.ctx.scratch / f"serve-{self._spawned}"
        self.server = ServerProcess(self.ctx.root, workdir, self._flags())
        self.ctx.count("setup", True, self.server.wait_ready())
        return Connection(self.server.port)

    def _post(self, conn: Connection, phase: str, path: str, payload: dict) -> dict:
        status, reply = conn.json("POST", path, payload)
        self.ctx.count(phase, status == 200)
        if status != 200:
            raise RuntimeError(f"{phase} request failed with {status}: {reply}")
        return reply

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- measured window ------------------------------------------------------

    def _snapshot(self) -> tuple[dict, dict]:
        conn = Connection(self.server.port)
        try:
            stats = conn.json("GET", "/v1/stats")[1]
            metrics = parse_prometheus(conn.call("GET", "/v1/metrics")[1].decode())
        finally:
            conn.close()
        self.ctx.count("probe", True, 2)
        return stats, metrics

    def measure(self, traced: bool) -> Window:
        """``nproc`` closed-loop clients for ``seconds``, cut into slices."""
        ctx = self.ctx
        before = self._snapshot() if traced else None
        with CpuSampler(self.server.pid) as cpu:
            ops, t0 = closed_loop(self.server.port, self._body, self.pool, ctx.nproc, ctx.seconds)
        rss = proc_peak_rss_mb(self.server.pid)
        after = self._snapshot() if traced else None
        for op in ops:
            ctx.count("measured", op.ok)
        step = ctx.seconds / SUBWINDOWS
        bounds = [t0 + k * step for k in range(SUBWINDOWS)] + [max(op.done for op in ops)]
        slices = [Slice(a, b, cpu.at(b) - cpu.at(a)) for a, b in zip(bounds, bounds[1:])]
        return Window(ops, slices, rss, latency_per_slice=True, stats=(before, after) if traced else ())

    def _body(self, index: int) -> tuple[bytes, int]:
        """Request ``index`` as a ``/v1/align`` body, and its bases."""
        raise NotImplementedError

    # -- output check ---------------------------------------------------------

    def _request_codes(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _oracle_rows(self, t_codes: np.ndarray, q_codes: np.ndarray) -> list[tuple]:
        raise NotImplementedError

    def _sample(self, window: Window) -> list[Op]:
        """A seeded sample of the first ``SAMPLE_POOL`` successful requests.

        Drawing from a fixed-size prefix (not from however many requests
        the window managed) keeps the sample, and so every count the
        traced run reports, the same from run to run for one seed.
        """
        ok = [op for op in window.ops if op.ok][:SAMPLE_POOL]
        rng = np.random.default_rng([self.ctx.seed, 7])
        pick = rng.choice(len(ok), size=min(SAMPLE_REQUESTS, len(ok)), replace=False)
        return [ok[i] for i in sorted(pick.tolist())]

    def check(self, window: Window) -> tuple[int, set[int]]:
        """Recompute a seeded sample of requests with the scalar engine.

        Compares the reply's alignment rows (coordinates, score, CIGAR)
        with ``run_fastz`` under the same configuration; a reply that does
        not parse, or differs, marks its operation failed.
        """
        bad: set[int] = set()
        sample = self._sample(window)
        for op in sample:
            t_codes, q_codes = self._request_codes(op.index)
            try:
                served = reply_rows(op.body)
            except (ValueError, KeyError):
                bad.add(op.index)
                continue
            if served != self._oracle_rows(t_codes, q_codes):
                bad.add(op.index)
        return len(sample), bad

    # -- traced layers --------------------------------------------------------

    def _library_table(self, t_codes: np.ndarray):
        raise NotImplementedError

    def _submission(self, t_codes: np.ndarray, q_codes: np.ndarray) -> dict:
        raise NotImplementedError

    def _make_service(self) -> AlignmentService:
        raise NotImplementedError

    def _probes(self) -> tuple[list[float], list[float]]:
        """Idle-server round trips: ``/v1/healthz`` and a zero-anchor align."""
        rng = np.random.default_rng([self.ctx.seed, 11])
        conn = Connection(self.server.port)
        health, null = [], []
        try:
            for _ in range(HEALTHZ_PROBES):
                t = time.perf_counter()
                status, _ = conn.call("GET", "/v1/healthz")
                health.append(1e3 * (time.perf_counter() - t))
                self.ctx.count("probe", status == 200)
            for _ in range(NULL_ALIGN_PROBES):
                # Shorter than one seed word: no anchors; distinct, so no cache hits.
                t_txt, q_txt = (decode(rng.integers(0, 4, size=12).astype(np.uint8)) for _ in range(2))
                body = json.dumps({"target": t_txt, "query": q_txt}).encode()
                t = time.perf_counter()
                status, _ = conn.call("POST", "/v1/align", body)
                null.append(1e3 * (time.perf_counter() - t))
                self.ctx.count("probe", status == 200)
        finally:
            conn.close()
        return health, null

    def layers(self, window: Window) -> list[Metric]:
        (stats0, prom0), (stats1, prom1) = window.stats
        health, null = self._probes()
        sample = self._sample(window)
        traced: list[LayerSample] = []
        untraced: list[LayerSample] = []
        submissions = []
        for op in sample:
            t_codes, q_codes = self._request_codes(op.index)
            for bucket, on in ((untraced, False), (traced, True)):
                s = pipeline_op(
                    t_codes, q_codes, self.config, self.options, lambda: self._library_table(t_codes), traced=on
                )[0]
                bucket.append(s)
            submissions.append(self._submission(t_codes, q_codes))
        stages = service_replay(self._make_service, submissions)
        self.ctx.count("probe", True, 2 * len(sample) + len(submissions))

        def delta(key: str) -> int:
            return int(stats1[key]) - int(stats0[key])

        def prom_delta(key: str) -> float:
            return prom1.get(key, 0.0) - prom0.get(key, 0.0)

        hist0, hist1 = stats0["batch_histogram"], stats1["batch_histogram"]
        batches = {k: v - hist0.get(k, 0) for k, v in hist1.items()}
        n_batches = sum(batches.values())
        waits = prom_delta("repro_service_queue_wait_seconds_count")
        hits = stats1["cache"]["hits"] - stats0["cache"]["hits"]
        lookups = hits + stats1["cache"]["misses"] - stats0["cache"]["misses"]
        ok = [op for op in window.ops if op.ok]
        completed = delta("completed")
        server_p50 = float(stats1["latency_p50_ms"])
        wire_p50 = 1e3 * median([op.done - op.sent for op in ok])
        n_ops = len(window.ops)
        return [
            *library_layers(traced, untraced, counts_per_op=False),
            _metric("frontdoor.healthz_ms", median(health), len(health), "idle server p50"),
            _metric("frontdoor.null_align_ms", median(null), len(null), "idle server p50, zero anchors"),
            _metric("frontdoor.overhead_ms", wire_p50 - server_p50, len(ok), "client send-to-reply p50 minus server p50"),
            _metric("service.server_lat_p50_ms", server_p50, completed, "/v1/stats window includes warm-up"),
            _metric("service.queue_wait_mean_ms", 1e3 * prom_delta("repro_service_queue_wait_seconds_sum") / waits if waits else 0.0, int(waits)),
            _metric("service.batch_mean", sum(int(k) * v for k, v in batches.items()) / n_batches if n_batches else 0.0, n_batches),
            _metric("service.cache_hit_frac", hits / lookups if lookups else 0.0, lookups, "every request is unique"),
            _metric("service.shed", delta("shed"), n_ops),
            _metric("service.rejected", delta("rejected"), n_ops),
            _metric("service.timed_out", delta("timed_out"), n_ops),
            _metric("service.failed", delta("failed"), n_ops),
            _metric("service.fuse_ms", median([s["fuse"] for s in stages]), len(stages), "in-process replay"),
            _metric("service.extend_ms", median([s["extend"] for s in stages]), len(stages), "in-process replay"),
            _metric("service.resolve_ms", median([s["resolve"] for s in stages]), len(stages), "in-process replay"),
            _metric("loadgen.sent", n_ops, n_ops),
        ]  # fmt: skip


class ServeReads(_Served):
    """By-reference read alignment against a registered target, closed loop."""

    name = "serve.reads"
    pair_name = "D1_2R,2"

    def setup(self) -> None:
        ctx = self.ctx
        pair = synth_pair(self.name, self.pair_name, ctx.seed, ctx.size)
        self.target, self.query = pair.target.codes, pair.query.codes
        self.pool = int(POOL_PER_S * ctx.seconds)
        self.starts = read_windows(len(self.query), ctx.seed, ctx.size, self.pool + WARMUP_REQUESTS)
        self.inputs_sha256 = inputs_digest(self.name, ctx.size, self.target, self.query, self.starts)
        conn = self._start_server()
        try:
            self.ref = self._post(conn, "setup", "/v1/references", {"sequence": decode(self.target), "name": "target"})["digest"]
            # The first by-reference request builds the store's seed table.
            for i in range(self.pool, self.pool + WARMUP_REQUESTS):
                self._post(conn, "warmup", "/v1/align", json.loads(self._body(i)[0]))
        finally:
            conn.close()

    def _body(self, index: int) -> tuple[bytes, int]:
        start = int(self.starts[index])
        query = decode(self.query[start : start + self.ctx.size.read_bp])
        return json.dumps({"target_ref": self.ref, "query": query}).encode(), len(query)

    def _request_codes(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        start = int(self.starts[index])
        return self.target, self.query[start : start + self.ctx.size.read_bp]

    def _oracle_rows(self, t_codes, q_codes) -> list[tuple]:
        if not hasattr(self, "_oracle_table"):
            self._oracle_table = build_seed_table(
                self.target, k=self.config.seed_length, spaced_pattern=self.config.spaced_pattern
            )
        result = run_fastz(t_codes, q_codes, self.config, _scalar(self.options), seed_table=self._oracle_table)
        return result_rows(result.unique_alignments())

    def _local_store(self) -> ReferenceStore:
        if not hasattr(self, "_store"):
            self._store = ReferenceStore(self.ctx.scratch / "local-store")
            if self._store.add(self.target, name="target") != self.ref:
                raise RuntimeError("local store digest differs from the server's")
        return self._store

    def _library_table(self, t_codes):
        # The store's cached table: what a by-reference request pays.
        return self._local_store().seed_table(
            self.ref, k=self.config.seed_length, spaced_pattern=self.config.spaced_pattern
        )

    def _submission(self, t_codes, q_codes) -> dict:
        return {"target_ref": self.ref, "query": q_codes}

    def _make_service(self) -> AlignmentService:
        return AlignmentService(config=self.config, store=self._local_store())


class ServeUpload(_Served):
    """Inline target+query windows around planted homologies, closed loop."""

    name = "serve.upload"
    pair_name = "C1_5,5"

    def setup(self) -> None:
        ctx = self.ctx
        pair = synth_pair(self.name, self.pair_name, ctx.seed, ctx.size)
        self.target, self.query = pair.target.codes, pair.query.codes
        self.t_text, self.q_text = decode(self.target), decode(self.query)
        self.pool = int(POOL_PER_S * ctx.seconds)
        self.windows = upload_windows(pair, ctx.seed, ctx.size, self.pool + WARMUP_REQUESTS)
        self.inputs_sha256 = inputs_digest(self.name, ctx.size, self.target, self.query, self.windows)
        conn = self._start_server()
        try:
            for i in range(self.pool, self.pool + WARMUP_REQUESTS):
                self._post(conn, "warmup", "/v1/align", json.loads(self._body(i)[0]))
        finally:
            conn.close()

    def _body(self, index: int) -> tuple[bytes, int]:
        t0, t1, q0, q1 = self.windows[index].tolist()
        body = json.dumps({"target": self.t_text[t0:t1], "query": self.q_text[q0:q1]}).encode()
        return body, (t1 - t0) + (q1 - q0)

    def _request_codes(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        t0, t1, q0, q1 = self.windows[index].tolist()
        return self.target[t0:t1], self.query[q0:q1]

    def _oracle_rows(self, t_codes, q_codes) -> list[tuple]:
        result = run_fastz(t_codes, q_codes, self.config, _scalar(self.options))
        return result_rows(result.unique_alignments())

    def _library_table(self, t_codes):
        return build_seed_table(t_codes, k=self.config.seed_length, spaced_pattern=self.config.spaced_pattern)

    def _submission(self, t_codes, q_codes) -> dict:
        return {"target": t_codes, "query": q_codes}

    def _make_service(self) -> AlignmentService:
        return AlignmentService(config=self.config)


WORKLOADS = {w.name: w for w in (PairGenome, ServeReads, ServeUpload)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
