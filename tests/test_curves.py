from collections import Counter

from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DIAMOND, DIAGONAL_PAIR, DOMINO, RING8, SQUARE2, stretched
from pixtopo import (
    Adjacency,
    DigitalObject,
    analyze,
    curve_report,
    is_general_curve,
    is_simple_arc,
    is_simple_closed_curve,
)
from pixtopo import invariants

STAIRCASE = [(0, 0), (1, 1), (2, 2)]
# two square rings sharing exactly the pixel (2, 2)
FIGURE_EIGHT = sorted(
    {(x, y) for x in range(3) for y in range(3) if x in (0, 2) or y in (0, 2)}
    | {(x, y) for x in range(2, 5) for y in range(2, 5) if x in (2, 4) or y in (2, 4)}
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
@settings(max_examples=300)
def test_identities_hold_up_to_the_known_arc_leak(o, alpha):
    """Every identity holds, except the arc ones on 1-adjacency paths that
    brush themselves diagonally and seal a complement cell (h > 0); the
    verdict is designed to surface exactly that leak rather than hide it.
    """
    verdict = curve_report(o, alpha)
    h = analyze(o).h
    for check in verdict.identity_checks:
        if not check.holds:
            assert alpha is Adjacency.ONE and "arc" in check.name and h > 0


@given(small_objects, adjacencies)
@settings(max_examples=300)
def test_hole_counts_by_curve_class(o, alpha):
    if is_simple_closed_curve(o, alpha):
        assert analyze(o).h == 1
    if is_simple_arc(o, alpha) and alpha is Adjacency.ZERO:
        assert analyze(o).h == 0


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
