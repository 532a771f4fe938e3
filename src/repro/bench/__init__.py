"""Benchmark harness: timing, tables, baselines, the suite registry.

The ``benchmarks/`` directory holds one pytest-benchmark module per paper
table/figure; this package provides their shared machinery so each bench
stays a thin declaration of workload + sweep + printed series.
:mod:`repro.bench.harness` is the one harness, :mod:`repro.bench.suites`
the suites behind the committed baselines, ``python -m repro.bench``
their CLI, and :mod:`repro.bench.datasets` / :mod:`repro.bench.studies`
the shared workloads of the figure benches.
"""
