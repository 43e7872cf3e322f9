#!/usr/bin/env python3
"""pixtopo benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload image --seed 1 --seconds 15 --trace 0

Run from the root of a pixtopo checkout; pixtopo is imported from ``src``.
Workloads (see README.md for why each exists):

  image   one CLI pass: ``analyze --json`` on each of two 1000x1000 P4 images, then
          ``classify --json`` on a large simple closed curve and on a
          mid-size non-curve; an item is one image cell read
  verify  one ``pixtopo verify`` call: exhaustive 4x3 sweep plus a seeded
          random sweep of 48x48 grids; an item is one object checked
  grow    one Tracker grown to a 150k-pixel object on a 1000x1000 grid in
          shuffled order, with interleaved snapshots, membership queries and
          three as_object()/analyze() checkpoints; an item is one insert

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (one
fresh interpreter importing pixtopo and pixtopo.cli), ``cold_s`` and
``peak_rss_mb`` (fresh processes doing one operation each, run one at a
time), then ``op_s`` and ``items_per_s`` from a warm loop of ``--seconds``.
With ``--trace 1`` it alternates untraced and traced operations for
``--seconds`` and reports per-module self time and calls per operation.
Every operation's output is checked against the reference counter, which
runs before any timing.  Raw samples go to ``bench/out/``.
"""

from __future__ import annotations

import os

# One thread per numeric library, here and in every child process.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)


def run_child(argv) -> str:
    """Run a fresh interpreter to its exit; its stdout."""
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# workloads: inputs, reference outputs and checks; never timed

class Workload:
    kind = "cli"
    items = 0
    # Fresh processes per run.  Interpreter start and import vary more than
    # the probe can follow, so workloads whose operation is short need more.
    cold_samples = 3

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.spec: dict = {}

    def check(self, outputs) -> list:
        raise NotImplementedError


def _json_docs(text: str) -> list:
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    text = text.strip()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


class Image(Workload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        masks = {
            "noise": inputs.bernoulli(seed, inputs.NOISE, 1000, 1000, 0.5),
            "smooth": inputs.smoothed(seed, inputs.SMOOTH, 1000, 1000, 6.0, 0.5),
            "curve": inputs.closed_curve(seed, inputs.CURVE),
            "noncurve": inputs.non_curve(seed, inputs.NONCURVE),
        }
        self.paths = {}
        for name, mask in masks.items():
            self.paths[name] = str(workdir / f"{name}.pbm")
            inputs.write_pbm(Path(self.paths[name]), mask)
        self.expected = {name: reference.expected_report(mask) for name, mask in masks.items()}
        self.items = sum(mask.size for mask in masks.values())
        self.spec = {"kind": "cli", "argvs": [
            ["analyze", self.paths["noise"], "--json"],
            ["analyze", self.paths["smooth"], "--json"],
            ["classify", self.paths["curve"], "--adjacency", "1", "--json"],
            ["classify", self.paths["noncurve"], "--adjacency", "0", "--json"],
        ]}

    def check(self, outputs) -> list:
        errors = [f"exit code {code} of {argv}" for (code, _), argv in zip(outputs, self.spec["argvs"]) if code]
        docs = [_json_docs(text) for _, text in outputs]
        if [len(d) for d in docs] != [1, 1, 1, 1]:
            return errors + [f"expected one JSON report per command, got {[len(d) for d in docs]}"]
        (noise,), (smooth,), (curve,), (noncurve,) = docs
        for name, doc in zip(("noise", "smooth", "curve", "noncurve"), (noise, smooth, curve, noncurve)):
            errors += [f"{name}: {e}" for e in reference.report_errors(doc, self.expected[name])]
            if doc["source"] != self.paths[name]:
                errors.append(f"{name}: source {doc['source']!r}")
        verdict = curve["curve"]["1"]
        if not verdict["is_simple_closed_curve"] or not all(i["holds"] for i in verdict["identities"]):
            errors.append(f"curve: not a simple closed curve with every identity: {verdict}")
        verdict = noncurve["curve"]["0"]
        if any(verdict[k] for k in ("is_simple_closed_curve", "is_simple_arc", "is_general_curve")):
            errors.append(f"noncurve: classified as a curve: {verdict}")
        return errors


class Verify(Workload):
    cold_samples = 7
    EXHAUSTIVE = (4, 3)
    GRID = (48, 48)
    DENSITY = 0.5
    RUNS = 24

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        verify_seed = int(inputs.rng(seed, inputs.VERIFY_SEEDS).integers(0, 2**63))
        (ew, eh), (w, h) = self.EXHAUSTIVE, self.GRID
        self.spec = {"kind": "cli", "argvs": [[
            "verify", "--exhaustive", f"{ew}x{eh}", "--grid", f"{w}x{h}",
            "--density", str(self.DENSITY), "--runs", str(self.RUNS), "--seed", str(verify_seed),
        ]]}
        self.expected_lines = [
            f"exhaustive {ew}x{eh}: {2 ** (ew * eh)} subsets checked, 0 inconsistent",
            f"insertions classified: "
            f"{inputs.verify_pixel_total(verify_seed, self.RUNS, w, h, self.DENSITY)}",
            "failures: 0",
        ]
        self.items = 2 ** (ew * eh) + self.RUNS

    def check(self, outputs) -> list:
        (code, text), = outputs
        lines = text.splitlines()
        errors = [f"exit code {code}"] if code else []
        return errors + [f"missing line {want!r}" for want in self.expected_lines if want not in lines]


class Grow(Workload):
    kind = "grow"
    SIZE = 1000
    FILL = 0.15
    SNAPSHOT_EVERY = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        mask = inputs.smoothed(seed, inputs.GROW_OBJECT, self.SIZE, self.SIZE, 6.0, self.FILL)
        g = inputs.rng(seed, inputs.GROW_ORDER)
        ys, xs = np.nonzero(mask)
        order = g.permutation(xs.size)
        xs, ys = xs[order], ys[order]
        n = self.items = int(xs.size)
        outside = np.flatnonzero(~mask)
        stops = list(range(self.SNAPSHOT_EVERY, n, self.SNAPSHOT_EVERY)) + [n]
        queries, answers = [], []
        for stop in stops:
            # two inserted pixels, then one not yet inserted and one never inserted
            picks = [int(g.integers(0, stop)), int(g.integers(0, stop))]
            qs = [(int(xs[i]), int(ys[i])) for i in picks]
            if stop < n:
                i = int(g.integers(stop, n))
                qs.append((int(xs[i]), int(ys[i])))
            cell = int(outside[g.integers(0, outside.size)])
            qs.append((cell % self.SIZE, cell // self.SIZE))
            queries.append(qs)
            answers.append([True, True] + [False] * (len(qs) - 2))
        self.answers = answers
        self.stops = stops
        self.expected = reference.expected_report(mask)

        def quarter(k):
            return stops[len(stops) * k // 4 - 1]

        order_path = workdir / "grow_order.npy"
        np.save(order_path, np.stack([xs, ys]).astype(np.int32))
        self.spec = {"kind": "grow", "order": str(order_path), "plan": {
            "stops": stops, "queries": queries,
            "checkpoints": [quarter(1), quarter(2), n],
            "marks": [quarter(1), quarter(2), quarter(3)],
        }}

    def check(self, outputs) -> list:
        errors = []
        snaps = outputs["snapshots"]
        if [s["p"] for s in snaps] != self.stops:
            errors.append("snapshot pixel counts differ from the stops")
        errors += [f"final snapshot: {e}" for e in
                   reference.report_errors(snaps[-1], self.expected, skip=("c1",))]
        if outputs["members"] != self.answers:
            errors.append("membership answers differ")
        if len(outputs["checkpoints"]) != len(self.spec["plan"]["checkpoints"]):
            errors.append("missing checkpoints")
        for snap, rep in outputs["checkpoints"]:
            want = dict(rep, c1=None)
            errors += [f"checkpoint p={rep['p']}: {e}" for e in reference.report_errors(snap, want)]
        return errors


WORKLOADS = {"image": Image, "verify": Verify, "grow": Grow}


# ---------------------------------------------------------------------------
# measurement
#
# This machine's speed swings between about 1.1x and 1.8x of its best in
# phases of 5 to 50 seconds (README.md, "Steadiness").  So a timed span is
# cut into segments at runs of a fixed probe loop (ops.probe), each segment
# is scaled by NOMINAL_PROBE_S over the mean of the probes on either side of
# it, and the probes themselves are not timed: the result is the seconds the
# span takes when the machine runs the probe at its nominal speed.  Fresh
# processes probe between their commands too and report when, on the
# system-wide monotonic clock that perf_counter reads.  Raw wall times and
# probe times go to the result file beside the scaled values.

NOMINAL_PROBE_S = 0.040


def segments(start: float, end: float, before: float, after: float, excluded) -> list:
    """(wall, probe before, probe after) of each part of [start, end].

    ``excluded`` holds the (t0, t1, probe) intervals that are not timed; one
    with a probe ends a part, one without (probe None) only drops its time.
    """
    parts, wall = [], 0.0
    for t0, t1, p in excluded:
        wall += t0 - start
        start = t1
        if p is not None:
            parts.append((wall, before, p))
            wall, before = 0.0, p
    parts.append((wall + end - start, before, after))
    return parts


class Clock:
    """Times spans and scales them to the nominal machine speed."""

    def __init__(self):
        self.last_probe = ops.probe()
        self.log: list = []

    def _close(self, start: float, excluded: list) -> float:
        end = time.perf_counter()
        before, self.last_probe = self.last_probe, ops.probe()
        parts = segments(start, end, before, self.last_probe, excluded)
        self.log.append(parts)
        return sum(w * NOMINAL_PROBE_S / ((a + b) / 2) for w, a, b in parts)

    def time(self, fn):
        """fn(mark)'s result and its scaled duration.

        fn may call mark() between parts of its work: that runs a probe, which
        is not timed, so a long operation is scaled by the speed of each part.
        """
        excluded: list = []
        start = time.perf_counter()
        try:
            result = fn(lambda: excluded.append(ops.marked_probe()))
        finally:
            duration = self._close(start, excluded)
        return result, duration

    def time_child(self, argv) -> tuple:
        """A fresh process's stdout and its scaled time from spawn to exit,
        less the probes and input loading that it reports as excluded."""
        start = time.perf_counter()
        excluded: list = []
        try:
            out = run_child(argv)
            if out.strip():
                excluded = json.loads(out.strip().splitlines()[-1])["excluded"]
        finally:
            duration = self._close(start, excluded)
        return out, duration

    def last_wall(self) -> float:
        return sum(w for w, _, _ in self.log[-1])


class Tally:
    """Operations attempted, failed (raised or crashed) and wrong (bad output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.wrong: list = []

    def record(self, errors: list, failed: bool = False) -> bool:
        self.attempted += 1
        if failed:
            self.failed += 1
            self.failures += errors[:1]
        else:
            self.wrong += errors[:5]
        return not failed and not errors


def cold_samples(wl: Workload, tally: Tally, clock: Clock) -> dict:
    """Fresh processes, one after another, each doing one operation."""
    spec_path = wl.workdir / "spec.json"
    spec_path.write_text(json.dumps(wl.spec))
    walls, rss = [], []
    for _ in range(wl.cold_samples):
        try:
            out, wall = clock.time_child([str(HERE / "ops.py"), str(spec_path)])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            tally.record([f"cold: {exc}"], failed=True)
            continue
        result = json.loads(out.strip().splitlines()[-1])
        if tally.record(wl.check(result["outputs"])):
            walls.append(wall)
            rss.append((result["peak_kb"] - result["inputs_kb"]) / 1024)
    return {"cold_s": walls, "peak_rss_mb": rss}


def one_op(wl: Workload, args, tally: Tally, clock: Clock):
    """Run, time and then check one operation; its scaled duration, or None."""
    try:
        raw, duration = clock.time(lambda mark: ops.run(wl.kind, args, mark))
    except Exception as exc:  # an operation that raises is counted, not fatal
        tally.record([f"{type(exc).__name__}: {exc}"], failed=True)
        return None
    return duration if tally.record(wl.check(ops.plain(wl.kind, raw))) else None


def summarize(samples: list) -> dict:
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
    }


def measure(wl: Workload, seconds: float, tally: Tally, clock: Clock) -> dict:
    setup = clock.time_child(["-c", "import pixtopo, pixtopo.cli"])[1]
    cold = cold_samples(wl, tally, clock)
    args = ops.load(wl.spec)
    one_op(wl, args, tally, clock)  # warm-up: caches, lazy imports, first-call costs
    durations = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        d = one_op(wl, args, tally, clock)
        if d is not None:
            durations.append(d)
    if not durations or not cold["cold_s"]:
        return {}
    metrics = {
        "setup_s": (setup, "s"),
        "cold_s": (statistics.median(cold["cold_s"]), "s"),
        "op_s": (statistics.median(durations), "s"),
        "items_per_s": (wl.items * len(durations) / sum(durations), "1/s"),
        "peak_rss_mb": (statistics.median(cold["peak_rss_mb"]), "MB"),
    }
    raw = {"setup_s": [setup], "op_s": durations, **cold}
    return {"metrics": metrics, "raw": raw}


def measure_traced(wl: Workload, seconds: float, tally: Tally, clock: Clock,
                   trace_path: Path) -> dict:
    from spans import PER_LAYER, Tracer

    tracer = Tracer()
    args = ops.load(wl.spec)
    one_op(wl, args, tally, clock)
    plain_s, traced_s, scales = [], [], []
    end = time.perf_counter() + seconds
    # alternate untraced and traced operations; always finish on a traced one
    while time.perf_counter() < end or len(traced_s) < len(plain_s):
        traced = len(traced_s) < len(plain_s)
        if traced:
            tracer.op = len(traced_s)
            tracer.install()
        try:
            d = one_op(wl, args, tally, clock)
        finally:
            tracer.uninstall()
        if d is None:
            break
        (traced_s if traced else plain_s).append(d)
        if traced:
            scales.append(d / clock.last_wall())
    if not plain_s or not traced_s:
        return {}
    tracer.save(trace_path)
    summary = tracer.summary(len(traced_s))
    scale = statistics.fmean(scales)
    metrics = {}
    for metric, span, what in PER_LAYER:
        self_s, calls = summary[span]
        metrics[metric] = (self_s * scale, "s") if what == "self" else (calls, "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    return {"metrics": metrics, "raw": {"plain_s": plain_s, "traced_s": traced_s}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The probe only tells the speed of the CPU it runs on, so this process
    # and its children share one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up

    if not (SRC / "pixtopo" / "__init__.py").is_file():
        print(f"bench: no pixtopo sources under {SRC}; run from a pixtopo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global ops
    import ops

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        clock = Clock()
        if args.trace:
            result = measure_traced(wl, args.seconds, tally, clock, OUT / f"trace-{tag}.npz")
        else:
            result = measure(wl, args.seconds, tally, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in tally.failures + tally.wrong:
        print(f"ERROR: {err}", file=sys.stderr)
    if not result:
        print("bench: no operation succeeded", file=sys.stderr)
        return 1
    line = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(line, failures=tally.failures, wrong=tally.wrong, raw=result["raw"],
             segments=clock.log), indent=1))
    for name, samples in result["raw"].items():
        stats = summarize(samples)
        print(f"{name}: " + ", ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
