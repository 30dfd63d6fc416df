"""Pairwise contact classification against the recomputed reference."""

import pytest
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactgeom import incidence
from contactgeom.errors import DegeneracyError
from contactgeom.geometry import Curve, CurveFamily, Point, pt
from contactgeom.generators import GeneratorSpec, generate, rational_circle
from contactgeom.incidence import (compute_incidences, curve_pair_incidences,
                                   is_touching_pair,
                                   validate_general_position)

import oracles

F = Fraction


def square(cid, x, y, r=2, closed=True):
    return Curve(id=cid, points=(pt(x - r, y - r), pt(x + r, y - r),
                                 pt(x + r, y + r), pt(x - r, y + r)),
                 closed=closed)


def diamond(cid, x, y, r=2):
    return Curve(id=cid, points=(pt(x - r, y), pt(x, y - r),
                                 pt(x + r, y), pt(x, y + r)), closed=True)


def test_crossing_pair_two_proper_points():
    a = square(1, 0, 0)
    b = square(2, 2, 2)
    incs = curve_pair_incidences(a, b)
    assert len(incs) == 2
    assert all(x.kind == "crossing" for x in incs)
    assert {x.point for x in incs} == {pt(0, 2), pt(2, 0)}


def test_tangency_at_shared_vertex():
    # diamonds meeting tip to tip: one common point, same side wedges
    a = diamond(1, 0, 0)
    b = diamond(2, 4, 0)
    incs = curve_pair_incidences(a, b)
    assert len(incs) == 1
    assert incs[0].kind == "tangency"
    assert incs[0].point == pt(2, 0)
    assert is_touching_pair(a, b)


def test_vertex_resting_on_edge_interior_rejected():
    # contacts must be proper interior crossings or shared vertices
    a = square(1, 0, 0)
    b = diamond(2, 4, 0)
    with pytest.raises(DegeneracyError):
        curve_pair_incidences(a, b)


def test_open_arc_crossing_and_tangency():
    base = Curve(id=1, points=(pt(-4, 0), pt(0, 0), pt(4, 1)), closed=False)
    vee = Curve(id=2, points=(pt(-2, 2), pt(0, 0), pt(2, 2)), closed=False)
    incs = curve_pair_incidences(base, vee)
    assert [x.kind for x in incs] == ["tangency"]
    slash = Curve(id=3, points=(pt(1, -1), pt(3, 1)), closed=False)
    incs = curve_pair_incidences(base, slash)
    assert [x.kind for x in incs] == ["crossing"]
    assert incs[0].point == pt("8/3", "2/3")


def test_incidence_pattern_only_at_shared_vertices():
    a = square(1, 0, 0)
    b = square(2, 2, 2)
    for x in curve_pair_incidences(a, b):
        assert {x.a, x.b} == {1, 2}
        assert x.pattern is None         # interior crossings carry no rays
    tip = curve_pair_incidences(diamond(1, 0, 0), diamond(2, 4, 0))[0]
    assert sorted(tip.pattern) == ["A", "A", "B", "B"]


def test_overlapping_edges_rejected_in_strict_mode():
    a = square(1, 0, 0)
    shifted = Curve(id=2, points=(pt(0, -2), pt(4, -2), pt(4, 2), pt(0, 2)),
                    closed=True)
    with pytest.raises(DegeneracyError):
        curve_pair_incidences(a, shifted)


def test_endpoint_contact_rejected_in_strict_mode():
    base = Curve(id=1, points=(pt(-4, 0), pt(4, 0)), closed=False)
    stub = Curve(id=2, points=(pt(0, 0), pt(0, 3)), closed=False)
    with pytest.raises(DegeneracyError):
        curve_pair_incidences(base, stub)


def test_family_incidences_totals():
    fam = CurveFamily(curves=(diamond(1, 0, 0), diamond(2, 4, 0),
                              diamond(3, 8, 0), square(4, 2, 6)), m=2)
    fi = compute_incidences(fam)
    table = oracles.family_contacts(fam)
    want_T = sum(1 for v in table.values()
                 if len(v) == 1 and v[0][1] == "tangency")
    want_X = sum(len(v) for v in table.values())
    assert fi.T == want_T
    assert fi.X == want_X
    assert fi.crossing_count == sum(
        1 for v in table.values() for _, kind in v if kind == "crossing")


@pytest.mark.parametrize("kind,n,seed", [
    ("UnitCirclesGrid", 9, 1),
    ("TangentChain", 6, 2),
    ("RandomCircles", 7, 3),
    ("PseudoParabolas", 6, 4),
    ("PerturbedPencil", 5, 5),
])
def test_generated_families_match_reference(kind, n, seed):
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
    assert contact_table(fam) == oracles.family_contacts(fam)


def test_on_curve_matches_a_scan_of_every_pair():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=30, m=2, seed=4))
    fi = compute_incidences(fam)
    assert fi.X > 30
    for c in fam:
        scan = [inc for incs in fi.pairs.values() for inc in incs
                if c.id in (inc.a, inc.b)]
        scan.sort(key=lambda inc: (inc.s_on(c.id), inc.other(c.id)))
        assert fi.on_curve(c.id) == tuple(scan)
    assert fi.on_curve(max(fi.curve_ids) + 1) == ()


def contact_table(fam):
    """compute_incidences in the shape of oracles.family_contacts."""
    return {pair: sorted(((x.point.x, x.point.y), x.kind) for x in incs)
            for pair, incs in compute_incidences(fam).pairs.items()}


# lattice offsets: zero keeps a circle on the tangency lattice
_OFFSETS = (0, 0, 0, F(1, 5), F(8, 7), F(1, 2), F(-1, 3), F(2, 3))


@st.composite
def rational_circle_families(draw):
    cells = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from(_OFFSETS), st.sampled_from(_OFFSETS)),
        min_size=2, max_size=7,
        unique_by=lambda c: (2 * c[0] + c[2], 2 * c[1] + c[3])))
    resolution = draw(st.sampled_from((8, 12)))
    curves = tuple(
        Curve(id=k + 1, closed=True, points=rational_circle(
            Point(F(2 * a + u), F(2 * b + v)), resolution))
        for k, (a, b, u, v) in enumerate(cells))
    return CurveFamily(curves=curves, m=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_circle_families())
def test_random_circle_families_match_reference(fam):
    assume(validate_general_position(fam).ok)
    assert contact_table(fam) == oracles.family_contacts(fam)


def boxes_from(corner_and_size):
    return [(x, y, x + w, y + h) for x, y, w, h in corner_and_size]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, 3), st.integers(0, 3)),
                max_size=12).map(boxes_from))
# zero size, a shared edge, corner-only contact, equal left edges
@example([(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 2, 2), (1, -1, 3, 0),
          (-2, -2, -1, 0), (1, 0, 1, 3)])
def test_meeting_pairs_are_the_pairs_whose_boxes_meet(boxes):
    want = [(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
            if incidence._boxes_meet(boxes[i], boxes[j])]
    assert incidence._meeting_pairs(boxes) == want


def test_validate_general_position_accepts_generated():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=6, m=2, seed=11))
    rep = validate_general_position(fam)
    assert rep.ok and not rep.violations


def test_validate_flags_triple_point():
    # three lines through the origin
    fam = CurveFamily(curves=(
        Curve(id=1, points=(pt(-3, 0), pt(3, 0)), closed=False),
        Curve(id=2, points=(pt(0, -3), pt(0, 3)), closed=False),
        Curve(id=3, points=(pt(-3, -3), pt(3, 3)), closed=False)), m=3)
    rep = validate_general_position(fam)
    assert not rep.ok
    assert any(v.kind == "triple_point" for v in rep.violations)


def test_two_passages_through_one_crossing_point_are_one_event():
    # curve 1 crosses itself at (3, 3), at 1/3 of its first segment and 1/2
    # of its third; curve 2 passes through that point, so both passages
    # must land on one grid point key
    loop = Curve(id=1, points=(pt(0, 0), pt(9, 9), pt(6, 0), pt(0, 6)),
                 closed=False)
    line = Curve(id=2, points=(pt(3, -1), pt(3, 8)), closed=False)
    rep = validate_general_position(CurveFamily(curves=(loop, line), m=5))
    assert [(v.kind, v.point) for v in rep.violations] == [
        ("self_intersection", pt(3, 3)), ("degenerate_contact", pt(3, 3))]


def test_validate_flags_intersection_budget():
    # two squares crossing twice exceed an m=1 budget
    fam = CurveFamily(curves=(square(1, 0, 0), square(2, 2, 2)), m=1)
    rep = validate_general_position(fam)
    assert not rep.ok
    assert any(v.kind == "intersection_budget" for v in rep.violations)
