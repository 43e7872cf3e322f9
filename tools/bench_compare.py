#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds of BENCHMARK.json.

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR [--json OUT]

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
It reads the files and ``BENCHMARK.json``, and writes nothing unless given
``--json OUT``: then it also writes what it prints to OUT as one JSON
document, with the exit status, the git revision of the checkout holding
this tool, the Python, numpy and scipy versions and the CPU count.  It
imports neither numpy nor scipy, nor anything outside the standard library.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
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


def summarize(parent: dict, change: dict) -> dict:
    """The comparison of the paired runs of two ``load_runs`` results, as data.

    {"status", "unpaired": [{workload, seed, side}], "workloads": {workload:
    {"seeds", "metrics": {metric: {"parent" and "change": {q1, median, q3},
    "ratio", "wins", "pairs", "bound", "verdict", "by_pair"}}, "parent" and
    "change": {attempted, failed, not_correct: [seed]}}}}; "status" is the
    exit status ``compare`` returns.
    """
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    pairs = sorted(parent.keys() & change.keys())
    summary = {
        "status": 0,
        "unpaired": [
            {"workload": w, "seed": s, "side": "parent" if (w, s) in parent else "change"}
            for w, s in sorted(parent.keys() ^ change.keys())
        ],
        "workloads": {},
    }
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        rows = {}
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            before = [parent[k]["metrics"][name]["value"] for k in keys]
            after = [change[k]["metrics"][name]["value"] for k in keys]
            said = verdict(before, after, better, bound)
            if said == "worse than bound":
                summary["status"] = 1
            (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
            rows[name] = {
                "parent": {"q1": p1, "median": pm, "q3": p3},
                "change": {"q1": c1, "median": cm, "q3": c3},
                "ratio": cm / pm,
                "wins": sum(a < b if better == "lower" else a > b
                            for a, b in zip(after, before)),
                "pairs": len(keys),
                "bound": bound,
                "verdict": said,
                "by_pair": [a / b for a, b in zip(after, before)],
            }
        sides = {}
        for side, runs in (("parent", parent), ("change", change)):
            not_correct = [k[1] for k in keys if not runs[k]["correct"]]
            if not_correct:
                summary["status"] = 1
            sides[side] = {
                "attempted": sum(runs[k]["attempted"] for k in keys),
                "failed": sum(runs[k]["failed"] for k in keys),
                "not_correct": not_correct,
            }
        summary["workloads"][workload] = {"seeds": [s for _, s in keys], "metrics": rows, **sides}
    return summary


def print_summary(summary: dict) -> None:
    """Print a ``summarize`` result as the table the module docstring describes."""
    for run in summary["unpaired"]:
        print(f"unpaired: {run['workload']} seed {run['seed']} only in {run['side']}, ignored")
    for workload, result in summary["workloads"].items():
        seeds = result["seeds"]
        print(f"{workload}: {len(seeds)} pairs, seeds {', '.join(str(s) for s in seeds)}")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
              f" {'ratio':>6} {'wins':>6} {'bound':>6}  verdict")
        for name, row in result["metrics"].items():
            before, after = ("{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**row[side])
                             for side in ("parent", "change"))
            wins = f"{row['wins']}/{row['pairs']}"
            print(f"  {name:<12} {before:<34} {after:<34} {row['ratio']:>6.3f} {wins:>6}"
                  f" {row['bound']:>6.2f}  {row['verdict']}")
            print("    change/parent by pair: " + " ".join(f"{r:.3f}" for r in row["by_pair"]))
        for side in ("parent", "change"):
            print(f"  {side}: attempted {result[side]['attempted']},"
                  f" failed {result[side]['failed']}")
            for seed in result[side]["not_correct"]:
                print(f"  {side}: seed {seed} not correct")


def revision(tree: Path) -> str | None:
    """``git describe --always --dirty`` of the checkout holding ``tree``, or
    None when git cannot tell."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=tree, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    """The git revision of this tool's checkout, the Python, numpy and scipy
    versions and the CPU count; a version that cannot be read is None."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"revision": revision(BENCHMARK.parent), "python": platform.python_version(),
            **versions, "cpu_count": os.cpu_count()}


def compare(parent_dir: Path, change_dir: Path, json_out: Path | None = None) -> int:
    """Print the comparison of the paired runs, and write it to ``json_out``
    when given; the exit status ``main`` returns."""
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    if not parent.keys() & change.keys():
        print(f"bench_compare: no paired result files in {parent_dir} and {change_dir}",
              file=sys.stderr)
        return 2
    summary = summarize(parent, change)
    print_summary(summary)
    if json_out is not None:
        json_out.write_text(json.dumps({**environment(), **summary}, indent=1) + "\n")
    return summary["status"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    json_out = None
    if len(args) == 4 and args[2] == "--json":
        json_out = Path(args.pop())
        args.pop()
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]), json_out)


if __name__ == "__main__":
    sys.exit(main())
