#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds of BENCHMARK.json.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds copies of ``bench/out/result-<workload>-seed<N>-trace0.json``,
as ``bench/run.py --trace 0`` writes them; a run of the parent and a run of
the change with the same workload and seed form a pair.  For each workload
and each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the ratio of the change's median to the parent's, the
change's wins out of the pairs (ties count for neither), the bound and a
verdict, then the ratio of each pair in seed order.  The verdicts:

  worse than bound  the change's median is worse than the parent's by more
                    than the bound
  unresolved        otherwise, when the parent's quartile spread is wider
                    than the bound, unless every run of the change reads
                    better than every run of the parent
  within bound      otherwise

It also prints the operations attempted and failed on each side and every
run whose output was not correct.  Exit status: 0, or 1 when some metric is
worse than its bound or some run was not correct, or 2 on a usage error.
It reads the files and ``BENCHMARK.json`` and writes nothing.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(directory: Path) -> dict:
    """{(workload, seed): result} for every untraced result file in the directory."""
    runs = {}
    for path in sorted(directory.iterdir()):
        match = RESULT.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict on one metric of one workload; see the module docstring."""
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    p1, pm, p3 = quartiles(parent)
    if sign * (statistics.median(change) - pm) / pm > bound:
        return "worse than bound"
    beats_every_run = max(sign * v for v in change) < min(sign * v for v in parent)
    if (p3 - p1) / pm > bound and not beats_every_run:
        return "unresolved"
    return "within bound"


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print the comparison of the paired runs; the exit status ``main`` returns."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    pairs = sorted(parent.keys() & change.keys())
    if not pairs:
        print(f"bench_compare: no paired result files in {parent_dir} and {change_dir}",
              file=sys.stderr)
        return 2
    status = 0
    for key in sorted(parent.keys() ^ change.keys()):
        side = "parent" if key in parent else "change"
        print(f"unpaired: {key[0]} seed {key[1]} only in {side}, ignored")
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        print(f"{workload}: {len(keys)} pairs, seeds {', '.join(str(s) for _, s in keys)}")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
              f" {'ratio':>6} {'wins':>6} {'bound':>6}  verdict")
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            before = [parent[k]["metrics"][name]["value"] for k in keys]
            after = [change[k]["metrics"][name]["value"] for k in keys]
            wins = sum(a < b if better == "lower" else a > b for a, b in zip(after, before))
            said = verdict(before, after, better, bound)
            if said == "worse than bound":
                status = 1
            (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
            print(f"  {name:<12} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<34}"
                  f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<34} {cm / pm:>6.3f}"
                  f" {f'{wins}/{len(keys)}':>6} {bound:>6.2f}  {said}")
            print("    change/parent by pair: "
                  + " ".join(f"{a / b:.3f}" for a, b in zip(after, before)))
        for side, runs in (("parent", parent), ("change", change)):
            attempted = sum(runs[k]["attempted"] for k in keys)
            failed = sum(runs[k]["failed"] for k in keys)
            print(f"  {side}: attempted {attempted}, failed {failed}")
            for k in keys:
                if not runs[k]["correct"]:
                    status = 1
                    print(f"  {side}: seed {k[1]} not correct")
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
