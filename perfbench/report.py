"""Statistics, metric records, provenance and the plain-text layer table."""

from __future__ import annotations

import hashlib
import math
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Metric",
    "median",
    "percentile",
    "provenance",
    "render_layer_table",
    "render_metrics",
    "samples_beyond",
]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (rank ``ceil(q * n)``), as ``/v1/stats`` does."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` nearest-rank percentile."""
    return n - min(max(math.ceil(q * n), 1), n)


def median(values) -> float:
    return percentile(values, 0.5)


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit and how many samples it rests on."""

    name: str
    value: float
    unit: str
    n: int
    note: str = ""

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}


def render_metrics(title: str, metrics: list[Metric]) -> list[str]:
    lines = [f"# {title}", f"# {'metric':<32} {'value':>14} {'unit':<7} {'n':>6}  note"]
    for m in metrics:
        lines.append(f"# {m.name:<32} {m.value:>14.6g} {m.unit:<7} {m.n:>6}  {m.note}".rstrip())
    return lines


def render_layer_table(workload: str, rows: list[tuple[str, Metric, float | None]], footer: list[str]) -> list[str]:
    """One row per layer metric: value, unit, count and share of the base.

    ``rows`` holds ``(layer, metric, share)``; ``share`` is the metric's
    fraction of the workload's end-to-end base (None where it is not a
    time).  Plain text, so a committed copy diffs line by line.
    """
    lines = [
        f"| workload | layer | metric | value | unit | n | share |",
        "|---|---|---|---:|---|---:|---:|",
    ]
    for layer, m, share in rows:
        pct = "" if share is None else f"{100.0 * share:.1f}%"
        lines.append(f"| {workload} | {layer} | {m.name} | {m.value:.6g} | {m.unit} | {m.n} | {pct} |")
    return lines + footer


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # a plain checkout; git would search its parents
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def _tree_digest(src: Path) -> str:
    """SHA-256 of every ``.py`` file under ``src`` (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, nproc: int, seed: int, inputs: str, phases: dict[str, list[int]]) -> dict:
    """Machine, toolchain and source identity plus per-phase request counts.

    ``commit`` is the git HEAD where the checkout is a repository and
    ``"none"`` otherwise; ``src_sha256`` identifies the source either way.
    """
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "seed": seed,
        "inputs_sha256": inputs,
        "phases": {
            name: {"sent": c[0], "ok": c[1], "failed": c[2]} for name, c in phases.items()
        },
    }
