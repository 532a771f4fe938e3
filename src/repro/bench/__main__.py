"""``python -m repro.bench`` — emit and compare the committed baselines.

* ``emit NAME... --out DIR [--repeats N]`` runs the named suites from
  :data:`repro.bench.suites.SUITES` and writes ``DIR/BENCH_<NAME>.json``;
* ``compare BASE CUR [--tolerance T]`` exits 1 when ``CUR`` regressed
  against ``BASE`` beyond the tolerance.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.harness import DEFAULT_TOLERANCE, compare_files
from repro.bench.suites import SUITES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description="bench baselines: emit and compare"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emit", help="run suites and write their baselines")
    p.add_argument("names", nargs="+", choices=sorted(SUITES), metavar="NAME",
                   help=f"suite to run: {', '.join(sorted(SUITES))}")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory (the committed baselines live "
                        "in benchmarks/baselines)")
    p.add_argument("--repeats", type=int, default=None, metavar="N",
                   help="timed repeats per measurement (default: each "
                        "suite's own)")

    p = sub.add_parser("compare", help="flag regressions between two baselines")
    p.add_argument("baseline", help="BENCH_*.json to compare against")
    p.add_argument("current", help="BENCH_*.json from the current run")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="relative worsening that counts as a regression "
                        "(default 0.10)")

    args = parser.parse_args(argv)
    if args.command == "compare":
        report = compare_files(args.baseline, args.current, args.tolerance)
        print(report.describe())
        return 0 if report.ok else 1
    kwargs = {} if args.repeats is None else {"repeats": args.repeats}
    for name in args.names:
        print(f"wrote {SUITES[name](**kwargs).write(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
