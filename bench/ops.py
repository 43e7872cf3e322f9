"""One operation of each workload, in the warm loop and in a fresh process.

``python bench/ops.py SPEC`` is the fresh process: it loads the inputs the
spec file names, runs one operation and prints one JSON line with the
operation's outputs, its peak resident memory, the memory its inputs hold
and the intervals it spent on the benchmark's own work (loading inputs and
probing the machine's speed between commands).  It imports nothing beyond
pixtopo and numpy, so the rest of its time and memory is what one pixtopo
command costs.

The functions reach pixtopo only through module attributes looked up at call
time, so the traced run sees every call through the wrappers it installs.
They return raw outputs; checking them is the caller's job and is never
timed.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from typing import Dict, List, Sequence, Tuple

import numpy as np

from pixtopo import cli, incremental, invariants

REPORT_FIELDS = ("p", "v", "c0", "c1", "h", "b", "t_direct", "t_formula", "consistent")


def _nothing() -> None:
    pass


def cli_pass(argvs: Sequence[Sequence[str]], mark=_nothing) -> List[Tuple[int, str]]:
    """Run pixtopo's CLI in process once per argv; exit codes and stdout.

    ``mark`` is called between commands; the benchmark uses it to time the
    commands as separate segments.
    """
    results = []
    for i, argv in enumerate(argvs):
        if i:
            mark()
        out = StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        results.append((code, out.getvalue()))
    return results


def grow(xs: List[int], ys: List[int], plan: Dict[str, list],
         mark=_nothing) -> Dict[str, list]:
    """Grow one Tracker through xs/ys in order, reading as it goes.

    After each prefix ``plan["stops"]`` it takes a snapshot and asks the
    membership of that stop's query pixels; at each stop listed in
    ``plan["checkpoints"]`` it also analyzes ``as_object()``, and after each
    stop in ``plan["marks"]`` it calls ``mark``.
    """
    tracker = incremental.Tracker()
    add = tracker.add_pixel
    snapshots = []
    members = []
    checkpoints = []
    wanted = set(plan["checkpoints"])
    marks = set(plan["marks"])
    start = 0
    for stop, queries in zip(plan["stops"], plan["queries"]):
        for pixel in zip(xs[start:stop], ys[start:stop]):
            add(pixel)
        start = stop
        snapshots.append(tracker.snapshot())
        members.append([q in tracker for q in queries])
        if stop in wanted:
            checkpoints.append((tracker.snapshot(), invariants.analyze(tracker.as_object())))
        if stop in marks:
            mark()
    return {"snapshots": snapshots, "members": members, "checkpoints": checkpoints}


def fields(report) -> Dict[str, object]:
    return {key: getattr(report, key) for key in REPORT_FIELDS}


def load(spec: dict) -> dict:
    """The arguments of one operation, read from what a spec file names."""
    if spec["kind"] == "cli":
        return {"argvs": spec["argvs"]}
    order = np.load(spec["order"])
    plan = dict(spec["plan"])
    plan["queries"] = [[tuple(q) for q in qs] for qs in plan["queries"]]
    return {"xs": order[0].tolist(), "ys": order[1].tolist(), "plan": plan}


def run(kind: str, args: dict, mark=_nothing):
    if kind == "cli":
        return cli_pass(args["argvs"], mark)
    return grow(args["xs"], args["ys"], args["plan"], mark)


def plain(kind: str, raw) -> object:
    """Outputs of one operation as JSON-ready values."""
    if kind == "cli":
        return [list(r) for r in raw]
    return {
        "snapshots": [fields(s) for s in raw["snapshots"]],
        "members": raw["members"],
        "checkpoints": [[fields(s), fields(a)] for s, a in raw["checkpoints"]],
    }


_probe_pixels: List[Tuple[int, int]] = []


def probe_pixels() -> List[Tuple[int, int]]:
    """The probe's fixed input, built on first use."""
    if not _probe_pixels:
        _probe_pixels.extend((i * 7919 % 1000, i * 104_729 % 997) for i in range(100_000))
    return _probe_pixels


def probe() -> float:
    """Best of three wall times of hashing 100k pixel tuples into a set and scanning it.

    The benchmark's measure of the machine's speed.  The slow phases hit
    memory traffic and hashing far harder than plain interpreter loops, and
    so do the workloads; a probe of pure arithmetic followed them much
    worse.  The best of three drops blips shorter than one pass.
    """
    pixels = probe_pixels()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        cells = frozenset(pixels)
        max(x for x, _ in cells)
        best = min(best, time.perf_counter() - t0)
    return best


def marked_probe() -> Tuple[float, float, float]:
    """(start, end, probe) of one probe run, on the clock perf_counter reads."""
    t0 = time.perf_counter()
    p = probe()
    return t0, time.perf_counter(), p


def _status_kb(field: str) -> int:
    """A memory figure of this process from /proc/self/status, in kB.

    VmHWM is the peak of this program image alone; getrusage's ru_maxrss
    would also count the parent's memory at the time it spawned us.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    before = _status_kb("VmRSS")
    start = time.perf_counter()
    args = load(spec)
    probe_pixels()
    # loading the inputs and the probe's table is the benchmark's work, in
    # time and in memory; no probe runs before the operation, so none adds
    # to the peak of an operation that needs little memory
    excluded = [(start, time.perf_counter(), None)]
    inputs_kb = _status_kb("VmRSS") - before
    raw = run(spec["kind"], args, lambda: excluded.append(marked_probe()))
    peak_kb = _status_kb("VmHWM")
    print(json.dumps({"outputs": plain(spec["kind"], raw), "peak_kb": peak_kb,
                      "inputs_kb": inputs_kb, "excluded": excluded}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
