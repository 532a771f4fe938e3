#!/usr/bin/env python3
"""Wall-clock benchmark of the default clustering path, one workload per process.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload rmat16 --seed 1
    python3 benchmarks/perf/run.py --workload serve --seed 1 --trace 1 --out res.jsonl
    python3 benchmarks/perf/run.py --all --runs 10 --out set.jsonl

One run sets its workload up ``SETUP_REPEATS`` times from ``--seed``
(``setup_s`` is the import time plus the median set-up), measures for
about ``--seconds``, checks the outputs and prints every metric with its
unit and clock.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or
its per-layer metrics (``--trace 1``).  The exit code is 1 when an output
check fails and 2 when the package cannot be imported.  ``--out`` appends
the full record (every metric, its clock and sample count, the checks)
as one JSON line, and a traced run also writes its spans to
``<out>.<workload>-<seed>.trace.json``.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# One BLAS/OpenMP thread: the host has two CPUs and only ``serve`` may use
# both (client thread + commit thread).  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCHMARK_JSON = REPO / "BENCHMARK.json"
WORKLOAD_NAMES = ("rmat16", "knn", "updates", "serve")
SETUP_REPEATS = 3
DEFAULT_SECONDS = 15.0


def _import_workloads():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    return workloads


def declared_metrics(trace: bool) -> list:
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(
    name: str,
    seed: int,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    smoke: bool = False,
    import_s: float = 0.0,
    trace_path: Optional[str] = None,
) -> dict:
    """Set up, measure and check one workload; returns the full record.

    A traced run writes its spans to ``trace_path`` when one is given.
    """
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[name]
    size = "smoke" if smoke else "full"
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        inputs = workload.build(seed, seconds, size)
        setups.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    outcome = workload.measure(inputs, seconds, tracer)

    metrics = {
        "setup_s": workloads.metric(
            import_s + statistics.median(setups), "s", "wall", len(setups)
        ),
        "peak_rss_mb": workloads.metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    metrics.update(outcome.metrics)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": all(passed for _, passed, _ in outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in outcome.checks
        ],
        "metrics": metrics,
        "samples_ms": outcome.samples_ms,
        "layers": None,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["trace_summary"] = tracer.summary()
        if trace_path:
            tracer.write(trace_path)
    return record


def result_line(record: dict, declared: list) -> dict:
    """The result line: the declared metrics only, value and unit."""
    source = record["layers"] if record["trace"] else record["metrics"]
    metrics = {
        spec["name"]: {"value": source[spec["name"]]["value"], "unit": spec["unit"]}
        for spec in declared
    }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_report(record: dict, declared: list) -> None:
    gated = {spec["name"]: spec for spec in declared}
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({'traced' if record['trace'] else 'untraced'})")
    for check in record["checks"]:
        mark = "ok  " if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  check {mark} {check['name']}{detail}")
    print(f"  attempted {record['attempted']} failed {record['failed']} "
          f"fail_frac {record['failed'] / max(1, record['attempted']):.4g}")
    for name, m in record["metrics"].items():
        samples = f" n={m['samples']}" if "samples" in m else ""
        bound = (
            f" bound {gated[name]['bound']:.1%}"
            if not record["trace"] and name in gated
            else ""
        )
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<7} "
              f"clock={m['clock']}{samples}{bound}")
    if record["layers"] is not None:
        for name, m in record["layers"].items():
            shown = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<28} {shown:>14} {m['unit']:<6} clock={m['clock']}")


def run_all(args) -> int:
    """Every workload for each seed, each in its own process, in sequence."""
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOAD_NAMES:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
            ]
            if args.out:
                cmd += ["--out", args.out]
            if args.smoke:
                cmd.append("--smoke")
            code = subprocess.run(cmd).returncode
            if code:
                print(f"{name} seed {seed}: exit {code}", file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 (or bare --trace): wrap the layers and report per-layer metrics",
    )
    parser.add_argument("--out", help="append the full record to this JSONL file")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    parser.add_argument("--runs", type=int, default=1, help="--all: seeds seed..seed+runs-1")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)

    try:
        _import_workloads()
        declared = declared_metrics(bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the benchmark: {exc!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    trace_path = f"{args.out}.{args.workload}-{args.seed}.trace.json" if args.out else None
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        import_s, trace_path,
    )
    print_report(record, declared)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record, declared)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
