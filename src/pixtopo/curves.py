"""Digital curve predicates and the counter identities they imply.

A simple closed curve (under adjacency alpha) is a connected, block-free set
in which every pixel touches exactly two others; a simple arc additionally
has two endpoints of degree one.  Block-freedom stands in for the curve
being one-dimensional: a one-dimensional object never contains a full 2x2
square, and that is precisely the property the identity derivations consume.
The predicates are operational definitions, and ``curve_report`` re-checks
the identities numerically instead of assuming them, so a leak in the
operationalization would surface as a failed check rather than stay hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .grid import Adjacency, DigitalObject
from .invariants import analyze, count_blocks, count_components

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

    @property
    def all_identities_hold(self) -> bool:
        return all(check.holds for check in self.identity_checks)


def _degree_histogram(obj: DigitalObject, alpha: Adjacency) -> Dict[int, int]:
    pixels = obj.pixels
    offsets = alpha.offsets
    hist: Dict[int, int] = {}
    for x, y in pixels:
        d = sum((x + dx, y + dy) in pixels for dx, dy in offsets)
        hist[d] = hist.get(d, 0) + 1
    return hist


def _is_cycle(hist: Dict[int, int], n: int) -> bool:
    """Degree test of a simple closed curve with n pixels."""
    return n >= MIN_CLOSED_CURVE_SIZE and hist == {2: n}


def _is_path(hist: Dict[int, int], n: int) -> bool:
    """Degree test of a simple arc with n pixels."""
    if n == 1:
        return True
    return hist.get(1, 0) == 2 and hist.get(2, 0) == n - 2 and len(hist) <= 2


def is_general_curve(obj: DigitalObject, alpha: Adjacency) -> bool:
    """Nonempty, alpha-connected and free of 2x2 blocks."""
    if not obj:
        return False
    return count_blocks(obj) == 0 and count_components(obj, alpha) == 1


def is_simple_closed_curve(obj: DigitalObject, alpha: Adjacency) -> bool:
    """A cycle: every pixel has exactly two alpha-neighbors in the object.

    Requires at least 4 pixels; below that a cycle would need some pair to
    be adjacent twice over.
    """
    if len(obj) < MIN_CLOSED_CURVE_SIZE:
        return False
    if not is_general_curve(obj, alpha):
        return False
    return _is_cycle(_degree_histogram(obj, alpha), len(obj))


def is_simple_arc(obj: DigitalObject, alpha: Adjacency) -> bool:
    """A path: two endpoints of degree one, interior pixels of degree two.

    A single pixel is the degenerate arc; two adjacent pixels are the
    smallest proper one.
    """
    if not is_general_curve(obj, alpha):
        return False
    return _is_path(_degree_histogram(obj, alpha), len(obj))


def curve_report(obj: DigitalObject, alpha: Adjacency) -> CurveVerdict:
    """Classify the object and evaluate every identity its class implies.

    Identity names record the equation; lhs/rhs are the evaluated sides.
    The checks are evaluated, never assumed, so any gap between the
    operational predicates and the identities is surfaced as a failed check.
    One such gap is real: a 1-adjacency path that brushes itself diagonally
    can seal a complement cell (h = 1), and then the arc identities, which
    presume h = 0, do not hold even though the degree test passes.
    """
    general = is_general_curve(obj, alpha)
    closed = arc = False
    checks = []
    if general:
        hist = _degree_histogram(obj, alpha)
        closed = _is_cycle(hist, len(obj))
        arc = _is_path(hist, len(obj))
        rep = analyze(obj)
        p, v, h, t = rep.p, rep.v, rep.h, rep.t_direct
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
    )
