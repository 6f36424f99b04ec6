"""The repository benchmark: three seeded workloads, timed from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end set of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer set.  Every line before it is a
human-readable table of the same metrics with unit and sample count,
the run's provenance, and (traced runs) the per-layer share table.

Workloads (see :mod:`perfbench.workloads`):

* ``pair.genome`` — whole-pair alignment of a ``C1_5,5``-shaped
  chromosome pair through the library, closed loop, one thread;
* ``serve.reads`` — 5 kbp by-reference reads against a registered
  ``D1_2R,2``-shaped target on a ``repro serve --store`` child;
* ``serve.upload`` — inline 30 kbp target+query windows around planted
  homologies on the same server.

The served workloads are closed loops with ``nproc`` keep-alive clients.
Every rate, and CPU per base, is the median over sub-windows of the
measured window (one per whole pair for ``pair.genome``), so a transient
stall of a shared machine moves one sub-window rather than the result.

The package imports ``repro`` from the ``src/`` directory next to it and
touches nothing outside the checkout it runs in.
"""
