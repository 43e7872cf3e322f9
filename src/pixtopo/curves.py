"""Digital curve predicates and the counter identities they imply.

A simple closed curve (under adjacency alpha) is a connected, block-free set
in which every pixel touches exactly two others; a simple arc additionally
has two endpoints of degree one.  Block-freedom stands in for the curve
being one-dimensional: a one-dimensional object never contains a full 2x2
square, and that is precisely the property the identity derivations consume.
The predicates are operational definitions, and ``curve_report`` re-checks
the identities numerically instead of assuming them, so a leak in the
operationalization would surface as a failed check rather than stay hidden.

``curve_report`` is the one classifier: it rasterizes and analyzes the
object once, reads the degrees from that same raster, returns the report
with the verdict, and ``is_general_curve``, ``is_simple_arc``
and ``is_simple_closed_curve`` are views of its flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import invariants
from .grid import Adjacency, DigitalObject
# bench/spans.py traces curves.analyze and curves.count_blocks, so both names
# stay imported here
from .invariants import InvariantReport, _analyze_raster, analyze, count_blocks

MIN_CLOSED_CURVE_SIZE = 4


@dataclass(frozen=True)
class IdentityCheck:
    """One counter identity evaluated on both sides."""

    name: str
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class CurveVerdict:
    """Curve classification of an object under one adjacency."""

    alpha: Adjacency
    is_simple_closed: bool
    is_simple_arc: bool
    is_general_curve: bool
    identity_checks: Tuple[IdentityCheck, ...]
    report: InvariantReport  # the counters the identity checks were evaluated on

    @property
    def all_identities_hold(self) -> bool:
        return all(check.holds for check in self.identity_checks)


def _degree_histogram(mask: np.ndarray, alpha: Adjacency) -> Dict[int, int]:
    """How many pixels have each number of alpha-neighbours in the object.

    Read from the object's padded raster ``mask``: a squeezed gap still
    keeps non-adjacent pixels apart, so the degrees equal those of the
    pixels themselves.
    """
    m = mask.view(np.uint8)
    rows, cols = m.shape
    degree = sum(m[1 + dy : rows - 1 + dy, 1 + dx : cols - 1 + dx] for dx, dy in alpha.offsets)
    counts = np.bincount(degree[mask[1:-1, 1:-1]])
    return {d: int(n) for d, n in enumerate(counts) if n}


def curve_report(obj: DigitalObject, alpha: Adjacency) -> CurveVerdict:
    """Classify the object and evaluate every identity its class implies.

    Identity names record the equation; lhs/rhs are the evaluated sides.
    The checks are evaluated, never assumed, so any gap between the
    operational predicates and the identities is surfaced as a failed check.
    Two such gaps are real, both under 1-adjacency and both at a diagonal
    self-contact, which is a tunnel point: a path that brushes itself
    diagonally can seal a complement cell (h = 1), and then the arc
    identities, which presume h = 0, do not hold even though the degree test
    passes; and a closed 1-curve that touches itself diagonally encloses two
    4-holes (h = 2), and then the closed-curve identities, which presume
    h = 1, do not hold.  The general-curve identity holds in both.
    ``alpha`` may be 0 or 1; any other value raises ValueError.
    """
    alpha = Adjacency(alpha)
    # looked up on its module, so wrappers installed there see the call
    mask = invariants.rasterize(obj)
    rep = _analyze_raster(len(obj), mask)
    components = rep.c0 if alpha is Adjacency.ZERO else rep.c1
    general = rep.b == 0 and components == 1
    closed = arc = False
    checks = []
    if general:
        p, v, h, t = rep.p, rep.v, rep.h, rep.t_direct
        hist = _degree_histogram(mask, alpha)
        closed = p >= MIN_CLOSED_CURVE_SIZE and hist == {2: p}
        arc = p == 1 or (hist.get(1, 0) == 2 and hist.get(2, 0) == p - 2 and len(hist) <= 2)
        checks.append(("general curve: t = v - 2(p + 1 - h)", t, v - 2 * (p + 1 - h)))
        if t == 0:
            checks.append(("tunnel-free curve: v = 2(p + 1 - h)", v, 2 * (p + 1 - h)))
        if arc:
            checks.append(("simple arc: t = v - 2(p + 1)", t, v - 2 * (p + 1)))
            if t == 0:
                checks.append(("tunnel-free simple arc: v = 2(p + 1)", v, 2 * (p + 1)))
        if closed:
            checks.append(("simple closed curve: t = v - 2p", t, v - 2 * p))
            if t == 0:
                checks.append(("tunnel-free simple closed curve: v = 2p", v, 2 * p))
    return CurveVerdict(
        alpha=alpha,
        is_simple_closed=closed,
        is_simple_arc=arc,
        is_general_curve=general,
        identity_checks=tuple(
            IdentityCheck(name, lhs, rhs, lhs == rhs) for name, lhs, rhs in checks
        ),
        report=rep,
    )


def is_general_curve(obj: DigitalObject, alpha: Adjacency) -> bool:
    """Nonempty, alpha-connected and free of 2x2 blocks."""
    return curve_report(obj, alpha).is_general_curve


def is_simple_closed_curve(obj: DigitalObject, alpha: Adjacency) -> bool:
    """A cycle: every pixel has exactly two alpha-neighbors in the object.

    Requires at least 4 pixels; below that a cycle would need some pair to
    be adjacent twice over.
    """
    return curve_report(obj, alpha).is_simple_closed


def is_simple_arc(obj: DigitalObject, alpha: Adjacency) -> bool:
    """A path: two endpoints of degree one, interior pixels of degree two.

    A single pixel is the degenerate arc; two adjacent pixels are the
    smallest proper one.
    """
    return curve_report(obj, alpha).is_simple_arc
