from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DIAMOND, DIAGONAL_PAIR, DOMINO, RING8, SQUARE2, stretched
from pixtopo import (
    Adjacency,
    DigitalObject,
    InvariantReport,
    analyze,
    curve_report,
    is_general_curve,
    is_simple_arc,
    is_simple_closed_curve,
)
from pixtopo import invariants
from pixtopo.verify import subset_reports

STAIRCASE = [(0, 0), (1, 1), (2, 2)]
# two square rings sharing exactly the pixel (2, 2)
FIGURE_EIGHT = sorted(
    {(x, y) for x in range(3) for y in range(3) if x in (0, 2) or y in (0, 2)}
    | {(x, y) for x in range(2, 5) for y in range(2, 5) if x in (2, 4) or y in (2, 4)}
)
# a closed 1-curve touching itself diagonally at one tunnel point, so it
# encloses two 4-holes; rows from the top
TOUCHING_RING = DigitalObject(
    (x, -y)
    for y, row in enumerate([".###", "##.#", "#.##", "###."])
    for x, cell in enumerate(row)
    if cell == "#"
)

small_objects = st.builds(
    DigitalObject,
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
)
adjacencies = st.sampled_from([Adjacency.ZERO, Adjacency.ONE])


def test_diamond_is_simple_closed_zero_curve():
    assert is_simple_closed_curve(DigitalObject(DIAMOND), Adjacency.ZERO)
    assert not is_simple_closed_curve(DigitalObject(DIAMOND), Adjacency.ONE)


def test_ring8_is_simple_closed_one_curve():
    assert is_simple_closed_curve(DigitalObject(RING8), Adjacency.ONE)
    # under 0-adjacency the corner pixels have degree 4
    assert not is_simple_closed_curve(DigitalObject(RING8), Adjacency.ZERO)


def test_full_square_is_no_curve():
    sq = DigitalObject(SQUARE2)
    assert not is_simple_closed_curve(sq, Adjacency.ONE)
    assert not is_simple_arc(sq, Adjacency.ONE)
    assert not is_general_curve(sq, Adjacency.ONE)


def test_single_pixel_is_degenerate_arc():
    single = DigitalObject([(0, 0)])
    for alpha in (Adjacency.ZERO, Adjacency.ONE):
        assert is_simple_arc(single, alpha)
        assert is_general_curve(single, alpha)
        assert not is_simple_closed_curve(single, alpha)


def test_staircase_is_zero_arc():
    stair = DigitalObject(STAIRCASE)
    assert is_simple_arc(stair, Adjacency.ZERO)
    assert not is_simple_arc(stair, Adjacency.ONE)  # not even connected


def test_domino_is_arc_under_both():
    dom = DigitalObject(DOMINO)
    assert is_simple_arc(dom, Adjacency.ZERO)
    assert is_simple_arc(dom, Adjacency.ONE)


def test_diamond_is_not_an_arc():
    assert not is_simple_arc(DigitalObject(DIAMOND), Adjacency.ZERO)


def test_figure_eight_is_general_but_not_simple():
    fig8 = DigitalObject(FIGURE_EIGHT)
    assert is_general_curve(fig8, Adjacency.ONE)
    assert not is_simple_closed_curve(fig8, Adjacency.ONE)
    assert not is_simple_arc(fig8, Adjacency.ONE)


def test_empty_object_is_no_curve():
    empty = DigitalObject([])
    verdict = curve_report(empty, Adjacency.ZERO)
    assert not verdict.is_general_curve
    assert verdict.identity_checks == ()


def test_tiny_cycles_are_rejected():
    # 0-connected, block-free, every pixel of degree 2, but too small
    tri = DigitalObject([(0, 0), (1, 1), (0, 1)])
    assert not is_simple_closed_curve(tri, Adjacency.ZERO)


def test_curve_report_diamond():
    verdict = curve_report(DigitalObject(DIAMOND), Adjacency.ZERO)
    assert verdict.is_simple_closed and verdict.is_general_curve
    assert not verdict.is_simple_arc
    names = {c.name: c for c in verdict.identity_checks}
    closed = names["simple closed curve: t = v - 2p"]
    assert (closed.lhs, closed.rhs, closed.holds) == (4, 4, True)
    assert verdict.all_identities_hold


def test_curve_report_rasterizes_once(monkeypatch):
    calls = []
    rasterize = invariants.rasterize

    def counting(obj):
        calls.append(obj)
        return rasterize(obj)

    monkeypatch.setattr(invariants, "rasterize", counting)
    verdict = curve_report(DigitalObject(RING8), Adjacency.ONE)
    # a general curve: the report and the degree histogram share one raster
    assert verdict.is_simple_closed and len(calls) == 1
    assert verdict.report == analyze(DigitalObject(RING8))


def test_curve_report_ring8():
    rep = analyze(DigitalObject(RING8))
    assert (rep.t_direct, rep.v, rep.p) == (0, 16, 8)
    verdict = curve_report(DigitalObject(RING8), Adjacency.ONE)
    names = {c.name for c in verdict.identity_checks}
    assert "tunnel-free simple closed curve: v = 2p" in names
    assert verdict.all_identities_hold


def test_curve_report_domino_arc():
    rep = analyze(DigitalObject(DOMINO))
    assert (rep.v, rep.p, rep.t_direct) == (6, 2, 0)
    verdict = curve_report(DigitalObject(DOMINO), Adjacency.ONE)
    names = {c.name for c in verdict.identity_checks}
    assert "tunnel-free simple arc: v = 2(p + 1)" in names
    assert verdict.all_identities_hold


def test_curve_report_diagonal_pair_arc_with_tunnel():
    verdict = curve_report(DigitalObject(DIAGONAL_PAIR), Adjacency.ZERO)
    assert verdict.is_simple_arc
    names = {c.name: c for c in verdict.identity_checks}
    arc = names["simple arc: t = v - 2(p + 1)"]
    assert (arc.lhs, arc.rhs, arc.holds) == (1, 1, True)


@given(small_objects, adjacencies)
@settings(max_examples=300)
def test_predicate_hierarchy(o, alpha):
    closed = is_simple_closed_curve(o, alpha)
    arc = is_simple_arc(o, alpha)
    general = is_general_curve(o, alpha)
    if closed or arc:
        assert general
    if len(o) >= 3:
        assert not (closed and arc)
    if general:
        assert analyze(o).b == 0


@given(small_objects, adjacencies)
@example(DigitalObject(DIAMOND), Adjacency.ZERO)
@example(DigitalObject(RING8), Adjacency.ONE)
@example(DigitalObject(FIGURE_EIGHT), Adjacency.ONE)
@example(DigitalObject([(0, 0)]), Adjacency.ZERO)
@settings(max_examples=300)
def test_curve_report_flags_match_the_predicates(o, alpha):
    verdict = curve_report(o, alpha)
    assert (verdict.is_simple_closed, verdict.is_simple_arc, verdict.is_general_curve) == (
        is_simple_closed_curve(o, alpha),
        is_simple_arc(o, alpha),
        is_general_curve(o, alpha),
    )


def _reference_classes(pixels, alpha):
    """(closed, arc, general) from the definitions, on the pixel set itself."""
    n = len(pixels)
    degrees = Counter(
        sum((x + dx, y + dy) in pixels for dx, dy in alpha.offsets) for x, y in pixels
    )
    general = (
        n > 0
        and oracles.blocks(pixels) == 0
        and oracles.components(pixels, diagonal=alpha is Adjacency.ZERO) == 1
    )
    closed = general and n >= 4 and degrees == {2: n}
    arc = general and (n == 1 or (degrees[1] == 2 and degrees[2] == n - 2 and len(degrees) <= 2))
    return closed, arc, general


@given(stretched(small_objects), adjacencies)
@example((DigitalObject(RING8), DigitalObject(RING8)), Adjacency.ONE)
@example((DigitalObject(STAIRCASE), DigitalObject(STAIRCASE)), Adjacency.ZERO)
@settings(max_examples=300)
def test_curve_classes_match_the_definitions_far_apart(pair, alpha):
    o, far = pair
    verdict = curve_report(far, alpha)
    assert (verdict.is_simple_closed, verdict.is_simple_arc, verdict.is_general_curve) == (
        _reference_classes(o.pixels, alpha)
    )
    assert verdict == curve_report(o, alpha)


@given(small_objects, adjacencies)
@example(TOUCHING_RING, Adjacency.ONE)
@settings(max_examples=300)
def test_identities_hold_up_to_the_known_arc_leak(o, alpha):
    """Every identity holds, except on 1-curves that touch themselves
    diagonally (t > 0) and so enclose a hole (h > 0): an arc that seals a
    complement cell fails the arc identities, a closed curve that encloses
    two holes the closed-curve one.  The verdict is designed to surface
    exactly these leaks rather than hide them.
    """
    verdict = curve_report(o, alpha)
    rep = analyze(o)
    for check in verdict.identity_checks:
        if not check.holds:
            assert alpha is Adjacency.ONE and rep.h > 0 and rep.t_direct > 0


@given(small_objects, adjacencies)
@example(TOUCHING_RING, Adjacency.ONE)
@settings(max_examples=300)
def test_hole_counts_by_curve_class(o, alpha):
    rep = analyze(o)
    if is_simple_closed_curve(o, alpha):
        if alpha is Adjacency.ZERO or rep.t_direct == 0:
            assert rep.h == 1
        else:
            assert rep.h >= 2
    if is_simple_arc(o, alpha) and alpha is Adjacency.ZERO:
        assert rep.h == 0


def test_closed_one_curve_touching_itself_encloses_two_holes():
    rep = analyze(TOUCHING_RING)
    assert rep == InvariantReport(p=12, v=23, c0=1, c1=1, h=2, b=0, t_direct=1,
                                  t_formula=1, consistent=True)
    assert is_simple_closed_curve(TOUCHING_RING, Adjacency.ONE)
    names = {c.name: c for c in curve_report(TOUCHING_RING, Adjacency.ONE).identity_checks}
    closed = names["simple closed curve: t = v - 2p"]
    assert (closed.lhs, closed.rhs, closed.holds) == (1, -1, False)
    assert names["general curve: t = v - 2(p + 1 - h)"].holds


@lru_cache(maxsize=None)
def _census_4x4():
    """Every subset of the 4x4 grid, in ``subset_reports``' mask order: the
    subsets' padded masks and their (p, v, c0, c1, h, b, t) columns."""
    bits = np.arange(16)
    masks = (np.arange(1 << 16)[:, None] >> bits & 1).astype(bool).reshape(-1, 4, 4)
    padded = np.zeros((len(masks), 6, 6), dtype=bool)
    padded[:, 1:-1, 1:-1] = masks
    fields = ("p", "v", "c0", "c1", "h", "b", "t_direct")
    reports = np.array([[getattr(r, f) for f in fields] for r in subset_reports(4, 4)])
    return padded, dict(zip(fields, reports.T))


@pytest.mark.parametrize("alpha, table", [
    (Adjacency.ZERO, (20_002, 13, 736, 0, 0, 0)),
    (Adjacency.ONE, (3_755, 15, 1_020, 0, 2, 144)),
])
def test_census_of_the_4x4_curves(alpha, table):
    """Every subset of the 4x4 grid classified by ``curve_report``'s rules,
    with degrees from shifted sums: general curves, closed curves, arcs,
    and how many of each fail their identity."""
    padded, r = _census_4x4()
    inner = padded[:, 1:-1, 1:-1]
    m = padded.view(np.uint8)
    degree = sum(m[:, 1 + dy : 5 + dy, 1 + dx : 5 + dx] for dx, dy in alpha.offsets)
    ones = np.count_nonzero(inner & (degree == 1), axis=(1, 2))
    twos = np.count_nonzero(inner & (degree == 2), axis=(1, 2))
    p, v, h, t = r["p"], r["v"], r["h"], r["t_direct"]
    general = (r["b"] == 0) & (r["c0" if alpha is Adjacency.ZERO else "c1"] == 1)
    closed = general & (p >= 4) & (twos == p)
    arc = general & ((p == 1) | ((ones == 2) & (twos == p - 2)))
    general_fails = general & (t != v - 2 * (p + 1 - h))
    closed_fails = closed & (t != v - 2 * p)
    arc_fails = arc & (t != v - 2 * (p + 1))
    classes = (general, closed, arc, general_fails, closed_fails, arc_fails)
    assert tuple(int(np.count_nonzero(c)) for c in classes) == table
    if alpha is Adjacency.ONE:
        # a simple 1-curve fails a check exactly when it has a tunnel
        assert np.array_equal(closed_fails | arc_fails, (closed | arc) & (t > 0))
    fails = general_fails | closed_fails | arc_fails
    rng = np.random.default_rng(22)
    for i in rng.choice(np.flatnonzero(general), 200, replace=False):
        verdict = curve_report(DigitalObject.from_mask(padded[i]), alpha)
        assert (verdict.is_simple_closed, verdict.is_simple_arc, verdict.is_general_curve,
                verdict.all_identities_hold) == (closed[i], arc[i], True, not fails[i])


def test_hook_arc_surfaces_the_identity_leak():
    """A 1-adjacency path that seals a cell by diagonal contact: the arc
    predicate passes but the arc identity fails, and the verdict says so.
    """
    hook = DigitalObject([(0, 0), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1)])
    assert is_simple_arc(hook, Adjacency.ONE)
    rep = analyze(hook)
    assert (rep.p, rep.v, rep.h, rep.t_direct) == (7, 15, 1, 1)
    verdict = curve_report(hook, Adjacency.ONE)
    names = {c.name: c for c in verdict.identity_checks}
    assert not names["simple arc: t = v - 2(p + 1)"].holds
    assert names["general curve: t = v - 2(p + 1 - h)"].holds
    assert not verdict.all_identities_hold
