"""A/A check: does the benchmark agree with itself?

Runs two sets of N runs per workload of the *same* checkout, interleaved
(A1 B1 A2 B2 ...), run i of both sets on seed ``--seed + i``.  For every
end-to-end metric it prints both medians, how much worse B's is than A's,
each set's quartiles and spread (distance between the quartiles as a share
of the median), and PASS or FAIL against the bound in ``BENCHMARK.json``:
a metric passes when neither median is worse than the other by more than
the bound and -- ``setup_s`` aside -- both spreads stay within it.  Exits
non-zero on any FAIL.

    python3 benchmarks/e2e/aa.py [--runs 5] [--workload frames_f ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import contract
from conditions import ROOT


def one_run(declared: dict, workload: str, seed: int) -> dict[str, float]:
    argv = [*declared["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(declared["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(done.stdout.decode().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread."""
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, low, high, (high - low) / median


def main(argv: list[str] | None = None) -> int:
    declared = contract.load()
    known = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (the driver uses 10)")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all")
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workload or known:
        sets: tuple[list, list] = ([], [])
        for index in range(args.runs):
            for side in sets:
                side.append(one_run(declared, workload, args.seed + index))
                print(f"# {workload}: {len(sets[0]) + len(sets[1])} of "
                      f"{2 * args.runs} runs", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs a set, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}")
        print(f"{'metric':18}{'median A':>12}{'median B':>12}{'B worse':>9}"
              f"{'bound':>7}{'A q1..q3':>24}{'spread':>8}"
              f"{'B q1..q3':>24}{'spread':>8}")
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([run[name] for run in sets[0]])
            b = summary([run[name] for run in sets[1]])
            worse = (b[0] - a[0]) / a[0]
            if metric["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= bound and (
                name == "setup_s" or max(a[3], b[3]) <= bound)
            failures += not ok
            print(f"{name:18}{a[0]:>12.4f}{b[0]:>12.4f}{worse:>+9.2%}"
                  f"{bound:>7.1%}"
                  f"{f'{a[1]:.4f}..{a[2]:.4f}':>24}{a[3]:>8.2%}"
                  f"{f'{b[1]:.4f}..{b[2]:.4f}':>24}{b[3]:>8.2%}"
                  f"  {'PASS' if ok else 'FAIL'}")
    print(f"\n{'FAIL' if failures else 'PASS'}: {failures} metric(s) outside "
          f"their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
