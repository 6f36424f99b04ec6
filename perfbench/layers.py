"""Layer timing from outside: the pipeline's public calls, spans and counters.

:func:`pipeline_op` runs one alignment as the composition of the public
layer entry points — seed table, ``prepare_fastz(seed_table=)``, the
registry engine through ``extend_suffixes_shard``, ``finish_fastz`` — and
times each call with ``perf_counter`` from here.  With ``traced=True`` it
also installs a fresh :mod:`repro.obs` registry and tracer for the call
and reads what the program already emits: the ``fastz.inspector`` and
``fastz.executor`` spans and the ``repro_pipeline_*`` /
``repro_batch_sweep_*`` counters.  :func:`service_replay` does the same
for ``AlignmentService.submit`` and its ``service.*`` spans, and
:func:`parse_prometheus` reads a ``/v1/metrics`` scrape.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import obs
from repro.core.pipeline import extend_suffixes_shard, finish_fastz, prepare_fastz
from repro.obs import MetricsRegistry, Tracer

__all__ = [
    "BINS",
    "LayerSample",
    "parse_prometheus",
    "pipeline_op",
    "result_rows",
    "service_replay",
]

#: Executor length bins reported per layer (``SCALED_BIN_EDGES`` has four).
BINS = (1, 2, 3, 4)


@dataclass
class LayerSample:
    """One alignment's layer times (seconds) and, when traced, its counts."""

    op_s: float
    table_s: float
    anchor_s: float
    extend_s: float
    finish_s: float
    anchors: int
    traced: bool = False
    inspector_s: float = 0.0
    executor_s: dict[int, float] = field(default_factory=dict)
    executor_tasks: dict[int, int] = field(default_factory=dict)
    eager: int = 0
    fallbacks: int = 0
    sweep_steps: int = 0
    slab_cells: int = 0
    live_cells: int = 0

    @property
    def counts(self) -> tuple:
        """Every count the trace reads; equal inputs must repeat it exactly."""
        return (
            self.anchors,
            self.eager,
            self.fallbacks,
            tuple(self.executor_tasks.get(b, 0) for b in BINS),
            self.sweep_steps,
            self.slab_cells,
            self.live_cells,
        )


def result_rows(alignments) -> list[tuple]:
    """Alignments as ``(t0, t1, q0, q1, score, cigar)`` tuples."""
    return [
        (a.target_start, a.target_end, a.query_start, a.query_end, a.score, a.cigar())
        for a in alignments
    ]


def pipeline_op(target, query, config, options, seed_table: Callable[[], object], *, traced: bool):
    """Align one pair layer by layer; returns ``(sample, result, prep, records)``."""
    if traced:
        registry, tracer = obs.enable(MetricsRegistry(), Tracer(keep_roots=64))
    try:
        t0 = time.perf_counter()
        table = seed_table()
        t1 = time.perf_counter()
        prep = prepare_fastz(target, query, config, options, seed_table=table)
        t2 = time.perf_counter()
        records = extend_suffixes_shard(prep.suffixes(), prep.scheme, options, prep.tile)
        t3 = time.perf_counter()
        result = finish_fastz(prep, records)
        t4 = time.perf_counter()
    finally:
        if traced:
            obs.disable()
    sample = LayerSample(
        op_s=t4 - t0,
        table_s=t1 - t0,
        anchor_s=t2 - t1,
        extend_s=t3 - t2,
        finish_s=t4 - t3,
        anchors=prep.n_anchors,
    )
    if traced:
        _read_trace(sample, registry, tracer)
    return sample, result, prep, records


def _read_trace(sample: LayerSample, registry: MetricsRegistry, tracer: Tracer) -> None:
    sample.traced = True
    for root in tracer.roots:
        for span in root.find("fastz.inspector"):
            sample.inspector_s += span.wall_s
        for span in root.find("fastz.executor"):
            b = int(span.attributes["bin"])
            sample.executor_s[b] = sample.executor_s.get(b, 0.0) + span.wall_s
    tasks = registry.counter("repro_pipeline_executor_tasks_total")
    sample.executor_tasks = {b: int(tasks.value(bin=b)) for b in BINS}
    sample.eager = int(registry.counter("repro_pipeline_eager_total").value())
    sample.fallbacks = int(registry.counter("repro_pipeline_executor_fallbacks_total").value())
    sample.sweep_steps = int(registry.counter("repro_batch_sweep_steps_total").value())
    sample.slab_cells = int(registry.counter("repro_batch_sweep_slab_cells_total").value())
    sample.live_cells = int(registry.counter("repro_batch_sweep_live_cells_total").value())


def service_replay(make_service: Callable[[], object], submissions: list[dict]) -> list[dict[str, float]]:
    """Submit each request alone to a fresh traced service; ms per stage.

    Returns one ``{"fuse", "extend", "resolve"}`` mapping per request,
    read from the ``service.*`` spans under each ``service.dispatch``.
    The service is shut down (dispatcher joined) before the spans are
    read, so every dispatch span has closed.
    """
    _, tracer = obs.enable(MetricsRegistry(), Tracer(keep_roots=len(submissions) + 8))
    try:
        service = make_service()
        try:
            for kwargs in submissions:
                service.submit(**kwargs).result(timeout=300)
        finally:
            service.shutdown(drain=True)
    finally:
        obs.disable()
    out = []
    for root in tracer.roots:
        if root.name != "service.dispatch":
            continue
        out.append(
            {
                stage: 1e3 * sum(s.wall_s for s in root.find(f"service.{stage}"))
                for stage in ("fuse", "extend", "resolve")
            }
        )
    if len(out) != len(submissions):
        raise RuntimeError(f"{len(submissions)} submissions but {len(out)} dispatch spans")
    return out


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` -> value for every sample line of a scrape."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out
