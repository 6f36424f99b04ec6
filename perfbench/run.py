"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pair.genome --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it repeat every metric with its unit and sample count, the run's
provenance and, for a traced run, the per-layer share table.  The exit
code is 0 when every checked output matched the scalar oracle, 1 on a
mismatch (after printing the result), and 2 without a result when the
checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Full set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pair.genome", "serve.reads", "serve.upload"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.inputs import SIZES
    from perfbench.report import provenance, render_layer_table, render_metrics
    from perfbench.server import proc_age_s
    from perfbench.workloads import PER_LAYER, WORKLOADS, Context, end_to_end, nproc

    import_s = proc_age_s(os.getpid())
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    ctx = Context(ROOT, scratch, args.seed, SIZES[args.size], args.seconds, nproc())
    workload = WORKLOADS[args.workload](ctx)
    setups: list[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        window = workload.measure(traced=bool(args.trace))
        checked, bad = workload.check(window)
        layer_metrics = workload.layers(window) if args.trace else []
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    e2e = end_to_end(window, bad, setups, checked)
    e2e_notes = f"process start to imports {import_s:.2f}s"
    head = f"{args.workload} seed={args.seed} seconds={args.seconds:g} size={args.size}"
    for line in render_metrics(f"end-to-end, {head} ({e2e_notes})", e2e):
        print(line)
    if args.trace:
        by_name = {m.name: m for m in layer_metrics}
        if set(by_name) != {name for _, name, _ in PER_LAYER} or len(by_name) != len(layer_metrics):
            raise RuntimeError(f"{args.workload} reported {sorted(by_name)}, not the PER_LAYER set")
        layer_metrics = [by_name[name] for _, name, _ in PER_LAYER]
        for line in render_metrics(f"per-layer, {head}", layer_metrics):
            print(line)
        # Shares are of the traced library operation for pair.genome and
        # of the client p50 under load for the served workloads.
        base_ms = by_name["trace.op_ms"].value if not workload.closes_over_http else e2e[2].value
        rows = []
        for layer, name, unit in PER_LAYER:
            m = by_name[name]
            scale = {"s": 1e3, "ms": 1.0}.get(unit)
            rows.append((layer, m, m.value * scale / base_ms if scale and base_ms else None))
        overhead = by_name["trace.overhead_ms"]
        layer_sum = 1e3 * sum(by_name[k].value for k in ("seeding.table_s", "seeding.anchor_s", "align.extend_s", "core.finish_s"))
        footer = [
            "",
            f"share base: {base_ms:.1f} ms ({'client lat_p50_ms' if workload.closes_over_http else 'traced operation p50'})",
            f"layers (table + anchor + extend + finish): {layer_sum:.1f} ms; "
            f"traced operation p50 {by_name['trace.op_ms'].value:.1f} ms; "
            f"untraced p50 {by_name['trace.untraced_op_ms'].value:.1f} ms",
            f"tracing overhead: {overhead.value:+.2f} ms (traced minus untraced p50, n={overhead.n})",
        ]
        print("\n".join(f"# {line}" for line in render_layer_table(args.workload, rows, footer)))

    print("# provenance " + json.dumps(provenance(ROOT, ctx.nproc, args.seed, workload.inputs_sha256, ctx.phases)))
    metrics = layer_metrics if args.trace else e2e
    correct = not bad
    failed = sum(1 for op in window.ops if not op.ok or op.index in bad)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(window.ops),
                "failed": failed,
                "metrics": {m.name: m.as_json() for m in metrics},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
