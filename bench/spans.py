"""Span recorder for the traced run: one span per call into a pixtopo module.

``Tracer.install`` replaces the public functions of each module, and the
names ``cli`` and ``curves`` imported from the others, with wrappers that
record the span's name, start, end, parent span and operation; ``uninstall``
puts the originals back, so untraced operations run the untouched code.
Spans stay in flat arrays in memory until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from pixtopo import cli, curves, generate, grid, incremental, invariants
from pixtopo import io as pio


class _LabelProxy:
    """Stands in for ``invariants.ndi`` so only pixtopo's own label calls are traced."""

    def __init__(self, module, label):
        self._module = module
        self.label = label

    def __getattr__(self, name):
        return getattr(self._module, name)


# span name -> the (owner, attribute) pairs that all reach the same function
TARGETS: Dict[str, List[Tuple[object, str]]] = {
    "cli.main": [(cli, "main")],
    "io.parse_pbm": [(pio, "parse_pbm"), (cli, "parse_pbm")],
    "io.emit_report": [(pio, "emit_report"), (cli, "emit_report")],
    "grid.object_build": [(grid.DigitalObject, "__init__")],
    "grid.bounding_box": [(grid.DigitalObject, "bounding_box")],
    "invariants.analyze": [(invariants, "analyze"), (cli, "analyze"), (curves, "analyze")],
    "invariants.rasterize": [(invariants, "rasterize")],
    "curves.curve_report": [(curves, "curve_report"), (cli, "curve_report")],
    "curves.count_blocks": [(invariants, "count_blocks"), (curves, "count_blocks")],
    "generate.generate_random": [(generate, "generate_random"), (cli, "generate_random")],
    "incremental.add_pixel": [(incremental.Tracker, "add_pixel")],
    "incremental.classify_case": [(incremental, "classify_case"), (cli, "classify_case")],
    "incremental.snapshot": [(incremental.Tracker, "snapshot")],
    "incremental.contains": [(incremental.Tracker, "__contains__")],
    "incremental.as_object": [(incremental.Tracker, "as_object")],
}
LABEL = "invariants.label"
NAMES = tuple(TARGETS) + (LABEL,)

# Reported per-layer metrics: (metric, span name, self time or call count),
# each per traced operation.  trace.overhead_s comes from the run itself.
PER_LAYER = (
    ("io.parse_pbm_s", "io.parse_pbm", "self"),
    ("grid.object_build_s", "grid.object_build", "self"),
    ("grid.bounding_box_s", "grid.bounding_box", "self"),
    ("grid.bounding_box_calls", "grid.bounding_box", "calls"),
    ("invariants.analyze_s", "invariants.analyze", "self"),
    ("invariants.rasterize_s", "invariants.rasterize", "self"),
    ("invariants.rasterize_calls", "invariants.rasterize", "calls"),
    ("invariants.label_s", LABEL, "self"),
    ("invariants.label_calls", LABEL, "calls"),
    ("curves.curve_report_s", "curves.curve_report", "self"),
    ("curves.count_blocks_calls", "curves.count_blocks", "calls"),
    ("generate.generate_random_s", "generate.generate_random", "self"),
    ("incremental.add_pixel_s", "incremental.add_pixel", "self"),
    ("incremental.add_pixel_calls", "incremental.add_pixel", "calls"),
    ("incremental.classify_case_s", "incremental.classify_case", "self"),
    ("incremental.snapshot_s", "incremental.snapshot", "self"),
    ("incremental.contains_s", "incremental.contains", "self"),
    ("incremental.as_object_s", "incremental.as_object", "self"),
    ("io.emit_report_s", "io.emit_report", "self"),
    ("cli.main_s", "cli.main", "self"),
)


class Tracer:
    def __init__(self):
        self.names = array("H")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.op = -1
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        for name_id, name in enumerate(NAMES):
            if name == LABEL:
                pairs = [(invariants, "ndi")]
                fn = invariants.ndi
                replacement = _LabelProxy(fn, self._wrap(fn.label, name_id))
            else:
                pairs = TARGETS[name]
                fn = getattr(*pairs[0])
                replacement = self._wrap(fn, name_id)
            for owner, attr in pairs:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, n_ops: int) -> Dict[str, Tuple[float, float]]:
        """Per span name: (self time, calls), each per operation.

        Self time is a span's duration less the durations of its children.
        """
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        names = np.frombuffer(self.names, dtype=np.uint16)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = np.bincount(names, weights=dur - child, minlength=len(NAMES))
        calls = np.bincount(names, minlength=len(NAMES))
        return {
            name: (float(self_time[i]) / n_ops, float(calls[i]) / n_ops)
            for i, name in enumerate(NAMES)
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(NAMES),
            name=np.frombuffer(self.names, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
