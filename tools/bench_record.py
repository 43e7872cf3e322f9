#!/usr/bin/env python3
"""Record paired benchmark runs of two checkouts and compare them.

    python3 tools/bench_record.py PARENT_TREE CHANGE_TREE --seeds A-B --out DIR

For every seed from A to B and every workload of ``BENCHMARK.json``, it
runs the benchmark's command (``python3 bench/run.py``) in each tree with
``--workload W --seed N --seconds S --trace 0``, S being the benchmark's
``run_seconds``.  The parent runs first on the first seed, the change on
the next, and so on, so neither side always meets the machine first.  Each
tree runs its own ``bench/run.py``, unchanged, and its result file,
``bench/out/result-<W>-seed<N>-trace0.json`` in that tree, is copied into
``DIR/parent`` or ``DIR/change``.  It then compares them as
``tools/bench_compare.py DIR/parent DIR/change --json DIR/compare.json``
does, printing the same table, and adds to that document the seeds, the
run length and each tree's own ``git describe --always --dirty`` (None
outside a git checkout) in place of this tool's revision.

Exit status: that of bench_compare, or 1 when some run wrote no result
file (its output is printed and the other runs go on), or 2 on a usage
error.  Besides ``tools/bench_compare.py``, found beside it when run as a
script, it imports nothing outside the standard library.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from bench_compare import BENCHMARK, compare, revision

SEEDS = re.compile(r"(\d+)(?:-(\d+))?")
SIDES = ("parent", "change")


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float,
             dest: Path) -> bool:
    """One untraced benchmark run in ``tree``; copies its result file into
    ``dest`` and says whether there was one."""
    result = tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    result.unlink(missing_ok=True)  # a stale file must not pass for this run
    start = time.monotonic()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    took = time.monotonic() - start
    if not result.is_file():
        print(f"bench_record: {tree} {workload} seed {seed} wrote no result"
              f" (exit {proc.returncode})\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        return False
    shutil.copy2(result, dest / result.name)
    print(f"{dest.name} {workload} seed {seed}: exit {proc.returncode}, {took:.1f} s", flush=True)
    return True


def record(trees: dict, seeds: range, out: Path) -> int:
    """Run every pair, then compare them; the exit status ``main`` returns."""
    benchmark = json.loads(BENCHMARK.read_text())
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    for side in SIDES:
        (out / side).mkdir(parents=True, exist_ok=True)
    missing = 0
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                missing += not run_once(trees[side], command, workload, seed, seconds,
                                        out / side)
    compare_json = out / "compare.json"
    compare_json.unlink(missing_ok=True)  # bench_compare writes none without pairs
    status = compare(out / "parent", out / "change", compare_json)
    if compare_json.is_file():
        document = json.loads(compare_json.read_text())
        del document["revision"]  # the tool's checkout, not a measured tree
        document = {
            **{f"{side}_revision": revision(trees[side]) for side in SIDES},
            "seeds": [seeds.start, seeds.stop - 1], "run_seconds": seconds, **document,
        }
        compare_json.write_text(json.dumps(document, indent=1) + "\n")
    return 1 if missing else status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    seeds = None
    if len(args) == 6 and args[2::2] == ["--seeds", "--out"]:
        seeds = SEEDS.fullmatch(args[3])
    if seeds:
        first, last = int(seeds[1]), int(seeds[2] or seeds[1])
    if not (seeds and first <= last and all(Path(a).is_dir() for a in args[:2])):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return record(dict(zip(SIDES, map(Path, args[:2]))), range(first, last + 1), Path(args[5]))


if __name__ == "__main__":
    sys.exit(main())
