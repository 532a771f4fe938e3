#!/usr/bin/env python3
"""Compare two result sets of the perf benchmark against its own bounds.

    python3 benchmarks/perf/agree.py A.jsonl B.jsonl

``A`` and ``B`` are files written by ``run.py --out``, usually ten seeds
per workload each.  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints each side's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance over
median), the change of B's median against A's, and a verdict:

* ``within-bound`` -- B's median is not worse than A's by more than the
  metric's bound and both spreads are within it;
* ``worse`` -- B's median is worse by more than the bound;
* ``unresolved`` -- a spread exceeds the bound, unless every run of B
  reads better than every run of A.

Exit status 0 when every metric of every workload is within bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path) -> dict:
    """``{workload: {metric: [values]}}`` from the untraced records at ``path``."""
    values = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, m in record["metrics"].items():
                values[record["workload"]][name].append(m["value"])
    return values


def quartiles(values: list) -> tuple:
    """``(q1, median, q3, spread)``; spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / abs(median) if median else float("inf")


def verdict(spec: dict, a: list, b: list) -> dict:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("inf")
    bound = spec["bound"]
    if max(qa[3], qb[3]) > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        status = "unresolved"
    elif sign * change > bound:
        status = "worse"
    else:
        status = "within-bound"
    return {"a": qa, "b": qb, "change": change, "status": status}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=str(BENCHMARK_JSON))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    a, b = load(args.a), load(args.b)

    ok = True
    header = (
        f"{'workload':<8} {'metric':<12} {'n':>5} {'A median':>11} {'A q1..q3':>23} "
        f"{'A spr':>6} {'B median':>11} {'B q1..q3':>23} {'B spr':>6} "
        f"{'change':>7} {'bound':>6}  verdict"
    )
    print(header)
    for wl in spec["workloads"]:
        name = wl["name"]
        for metric in spec["end_to_end"]:
            va = a.get(name, {}).get(metric["name"], [])
            vb = b.get(name, {}).get(metric["name"], [])
            if not va or not vb:
                print(f"{name:<8} {metric['name']:<12} missing in {'A' if not va else 'B'}")
                ok = False
                continue
            v = verdict(metric, va, vb)
            ok &= v["status"] == "within-bound"
            (a1, am, a3, asp), (b1, bm, b3, bsp) = v["a"], v["b"]
            print(
                f"{name:<8} {metric['name']:<12} {len(va):>2}/{len(vb):<2} "
                f"{am:>11.5g} {a1:>11.5g}..{a3:<10.5g} {asp:>6.1%} "
                f"{bm:>11.5g} {b1:>11.5g}..{b3:<10.5g} {bsp:>6.1%} "
                f"{v['change']:>+7.1%} {metric['bound']:>6.1%}  {v['status']}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
