"""Seeded input generation for the benchmark workloads.

Every input is a pure function of ``(workload, seed, size, seconds)``:
the genome pair is synthesised with the registry's segment classes for
the named benchmark pair, but from a generator seeded by the benchmark
``--seed`` (not the registry's fixed pair seed), so a held-out seed gives
a fresh pair of the same shape.  :func:`inputs_digest` hashes everything
the program will see, so two runs can prove they aligned the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.genome.evolve import GenomePair, build_pair
from repro.workloads.registry import GENOMES, get_benchmark

__all__ = [
    "FULL",
    "SIZES",
    "TINY",
    "Size",
    "inputs_digest",
    "read_windows",
    "synth_pair",
    "upload_windows",
]

#: One ``serve.upload`` request in this many centres on a long-bin segment.
LONG_EVERY = 32

#: Per-workload stream tags, so one ``--seed`` drives independent streams.
_TAGS = {"pair.genome": 1, "serve.reads": 2, "serve.upload": 3}


@dataclass(frozen=True)
class Size:
    """Input dimensions; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    name: str
    #: Chromosome length as a share of the registry's scale-1 length.
    genome_share: float
    #: Segment-class scale passed to ``BenchmarkSpec.classes``.
    class_scale: float
    #: Query window of one ``serve.reads`` request.
    read_bp: int
    #: Target and query window of one ``serve.upload`` request.
    upload_bp: int


FULL = Size("full", 1.0, 1.0, 5_000, 30_000)
TINY = Size("tiny", 0.08, 0.06, 2_000, 4_000)
SIZES = {s.name: s for s in (FULL, TINY)}


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload], *extra])


def synth_pair(workload: str, pair_name: str, seed: int, size: Size) -> GenomePair:
    """The named registry pair's shape, synthesised from ``seed``."""
    spec = get_benchmark(pair_name)
    return build_pair(
        spec.name,
        target_length=int(GENOMES[spec.target].scaled_basepairs * size.genome_share),
        query_length=int(GENOMES[spec.query].scaled_basepairs * size.genome_share),
        classes=spec.classes(size.class_scale),
        rng=_rng(workload, seed, 0),
    )


def read_windows(query_len: int, seed: int, size: Size, count: int) -> np.ndarray:
    """Start positions of ``count`` distinct ``serve.reads`` query windows.

    Distinct windows, in random order, so no two requests share a
    result-cache key.
    """
    n_windows = query_len - size.read_bp + 1
    if count > n_windows:
        raise ValueError("query too short for distinct read windows")
    return _rng("serve.reads", seed, 1).choice(n_windows, size=count, replace=False).astype(np.int64)


def upload_windows(pair: GenomePair, seed: int, size: Size, count: int) -> np.ndarray:
    """``(count, 4)`` int64 rows ``t0, t1, q0, q1`` for ``serve.upload``.

    Each window pair is placed, at a seeded offset, so that both windows
    contain one planted homology in full: the two sides share at least
    that segment.  Every
    ``LONG_EVERY``-th request centres on a long-bin segment (bins 2-4),
    taking them in turn, and the rest on random eager or bin-1 segments:
    a fixed share and mix of long-bin tails instead of a seed-dependent
    one, which keeps run-to-run spread down.  Rows are distinct, so no
    request is served from the result cache.
    """
    rng = _rng("serve.upload", seed, 1)
    short = [s for s in pair.segments if s.class_name in ("eager", "bin1")]
    long = [s for s in pair.segments if s.class_name not in ("eager", "bin1")]
    width = size.upload_bp

    def start(seg_start: int, seg_end: int, length: int) -> int:
        # Any window start that keeps the segment inside the sequence's window.
        lo = max(0, seg_end - width)
        hi = max(lo, min(seg_start, length - width))
        return int(rng.integers(lo, hi + 1))

    rows: set[tuple[int, int, int, int]] = set()
    out: list[tuple[int, int, int, int]] = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        if long and len(out) % LONG_EVERY == LONG_EVERY - 1:
            seg = long[(len(out) // LONG_EVERY) % len(long)]
        else:
            seg = short[int(rng.integers(len(short)))]
        t0 = start(seg.target_start, seg.target_end, len(pair.target))
        q0 = start(seg.query_start, seg.query_end, len(pair.query))
        row = (t0, min(len(pair.target), t0 + width), q0, min(len(pair.query), q0 + width))
        if row not in rows:
            rows.add(row)
            out.append(row)
    if len(out) < count:
        raise ValueError(f"only {len(out)} distinct upload windows, {count} wanted")
    return np.asarray(out, dtype=np.int64)


def inputs_digest(workload: str, size: Size, *arrays: np.ndarray) -> str:
    """SHA-256 over the workload name, size and every generated array."""
    h = hashlib.sha256(f"{workload}|{size.name}".encode())
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"|{arr.dtype.str}{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()
