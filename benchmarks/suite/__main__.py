"""``python -m benchmarks.suite run|trace|compare|check`` (see README.md)."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _run_args(p: argparse.ArgumentParser, trace_default: int) -> None:
    p.add_argument("--workload", help="one workload (default: all six)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="nominal length of the timed region (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=trace_default)
    p.add_argument("--runs", type=int, default=1, help="runs per workload, on seeds seed..")
    p.add_argument("--quick", action="store_true", help="toy sizes: checks on, numbers off")
    p.add_argument("--out", help="write the set of runs here (default: nothing is kept)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="cmd", required=True)
    _run_args(sub.add_parser("run", help="end-to-end metrics, tracing off"), 0)
    _run_args(sub.add_parser("trace", help="per-layer metrics from the traced run"), 1)
    p = sub.add_parser("compare", help="apply the bounds to two sets written by run --out")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("check", help="validate BENCHMARK.json against the registry")
    p.add_argument("--write", action="store_true", help="regenerate BENCHMARK.json first")
    p = sub.add_parser("child")  # internal: one run in this process
    p.add_argument("spec")
    args = parser.parse_args(argv)

    if args.cmd == "child":
        from . import child

        return child.main([args.spec])

    # Fail before any run if this checkout has no program to measure.
    from . import registry, runner

    if not (runner.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {runner.ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    if args.cmd == "check":
        from . import check

        if args.write:
            check.write()
        found = check.problems()
        for line in found:
            print(line)
        print("BENCHMARK.json: " + ("ok" if not found else f"{len(found)} problem(s)"))
        return 1 if found else 0

    if args.cmd == "compare":
        from . import compare

        lines, bad = compare.compare(args.base, args.new)
        print("\n".join(lines))
        return 1 if bad else 0

    names = [args.workload] if args.workload else registry.workload_names()
    if args.workload and args.workload not in registry.workload_names():
        parser.error(f"unknown workload {args.workload!r}")
    seconds = registry.RUN_SECONDS if args.seconds is None else args.seconds
    try:
        runs = runner.run_set(
            names, [args.seed + i for i in range(args.runs)], seconds,
            bool(args.trace), args.quick, args.out)
    except runner.ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 3
    if len(names) == 1:
        print(runner.result_line(runs[-1]))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
