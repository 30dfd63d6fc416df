"""Pairwise contact classification against the recomputed reference."""

import math

import pytest
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactgeom import incidence
from contactgeom.errors import (DegeneracyError, InvariantError,
                                PreconditionError, ValidationError)
from contactgeom.geometry import (Curve, CurveFamily, Point, coordinate_scale,
                                  grid_point, pt, seg_events, unlift)
from contactgeom.generators import GeneratorSpec, generate, rational_circle
from contactgeom.incidence import (catalogue, compute_incidences,
                                   curve_pair_incidences, keep_catalogue,
                                   mixed_contacts, validate_general_position)

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


def _point_at(curve, s):
    """The point at chain parameter s along curve, in Fractions."""
    k = math.floor(s)
    if s == k:
        return curve.points[k]
    (a, b), t = curve.segment(k), s - k
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def assert_written_exactly(fi, curves):
    """Every incidence holds Fraction chain parameters and a Point of
    Fractions, and each parameter locates the point on its curve."""
    by_id = {c.id: c for c in curves}
    incs = fi.all_incidences()
    for inc in incs:
        assert type(inc.s_a) is Fraction and type(inc.s_b) is Fraction
        assert type(inc.point.x) is Fraction and type(inc.point.y) is Fraction
        assert _point_at(by_id[inc.a], inc.s_a) == inc.point
        assert _point_at(by_id[inc.b], inc.s_b) == inc.point
    return incs


def int_curve(cid, coords, closed=True):
    return Curve(cid, tuple(Point(x, y) for x, y in coords), closed)


def test_incidences_hold_fractions_from_int_coordinates():
    curves = (int_curve(1, [(-2, -2), (2, -2), (2, 2), (-2, 2)]),
              int_curve(2, [(1, 1), (5, 1), (5, 5), (1, 5)]),
              int_curve(3, [(-2, 20), (0, 18), (2, 20), (0, 22)]),
              int_curve(4, [(2, 20), (4, 18), (6, 20), (4, 22)]),
              int_curve(5, [(-4, 40), (0, 40), (4, 41)], closed=False),
              int_curve(6, [(-2, 42), (0, 40), (2, 42)], closed=False))
    incs = assert_written_exactly(compute_incidences(CurveFamily(curves, 2)),
                                  curves)
    assert [(i.a, i.b, i.kind, i.s_a, i.s_b) for i in incs] == [
        (1, 2, "crossing", F(9, 4), F(15, 4)),
        (1, 2, "crossing", F(7, 4), F(1, 4)),
        (3, 4, "tangency", F(2), F(0)),
        (5, 6, "tangency", F(1), F(1))]


def test_joints_hold_fractions_from_int_coordinates():
    arcs = (int_curve(10, [(-4, 0), (4, 0)], closed=False),
            int_curve(11, [(0, 0), (0, 3)], closed=False),
            int_curve(12, [(4, 0), (6, 2), (8, 0)], closed=False),
            int_curve(13, [(6, 2), (6, 5)], closed=False))
    incs = assert_written_exactly(mixed_contacts(arcs), arcs)
    assert [(i.a, i.b, i.kind, i.s_a, i.s_b) for i in incs] == [
        (10, 11, "tjoint", F(1, 2), F(0)),
        (10, 12, "joint", F(1), F(0)),
        (12, 13, "tjoint", F(1), F(0))]


def _halves(curve):
    """The closed curve cut at vertices 1 and n/2 + 1 into two arcs, ids
    2 * id and 2 * id + 1; no contact of a valid circle family lies there."""
    pts, h = curve.points, len(curve.points) // 2 + 1
    return (Curve(2 * curve.id, pts[1:h + 1], False),
            Curve(2 * curve.id + 1, pts[h:] + pts[:2], False))


_ORACLE_KIND = {"tjoint": "endpoint", "joint": "endpoint"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_circle_families())
def test_random_circle_families_match_reference(fam):
    """The catalogue, and the arrangement-mode one of the circles cut into
    arcs, equal the reference; every incidence holds exact parameters."""
    assume(validate_general_position(fam).ok)
    assert contact_table(fam) == oracles.family_contacts(fam)
    assert_written_exactly(compute_incidences(fam), fam.curves)
    arcs = tuple(arc for c in fam for arc in _halves(c))
    fi = mixed_contacts(arcs)
    assert_written_exactly(fi, arcs)
    got = {pair: sorted(((x.point.x, x.point.y), _ORACLE_KIND.get(x.kind, x.kind))
                        for x in incs) for pair, incs in fi.pairs.items()}
    assert got == oracles.family_contacts(CurveFamily(arcs, 1))


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
            if oracles._boxes_meet(boxes[i], boxes[j])]
    assert incidence._meeting_pairs(boxes) == want


def unfiltered_self_violations(sc, scale):
    # every non-adjacent segment pair of one curve goes to seg_events
    n = len(sc.segs)
    out = []
    for i in range(n):
        for j in range(i + 2, n):
            if sc.closed and i == 0 and j == n - 1:
                continue
            res = seg_events(*sc.seg(i), *sc.seg(j))
            if res[0] == "none":
                continue
            key = (grid_point(sc.seg(i), res[1]) if res[0] == "proper"
                   else (*res[1], 1))
            out.append(incidence.Violation(
                "self_intersection", (sc.curve.id,), unlift(key, scale),
                f"segments {i} and {j} meet"))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=2, max_size=9),
       st.booleans(), st.sampled_from([1, 2]))
# a closed bow tie (proper self-crossing)
@example([(0, 0), (2, 2), (2, 0), (0, 2)], True, 1)
# a vertex resting on an earlier segment, and a vertex revisited
@example([(0, 0), (2, 0), (2, 2), (1, 0), (1, -1)], False, 1)
@example([(0, 0), (2, 0), (2, 2), (0, 2), (2, 0), (3, 1)], False, 2)
# collinear overlaps along a zero-height and a zero-width box
@example([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (4, 0), (4, 3)], False, 1)
@example([(0, 0), (0, 3), (1, 3), (1, 2), (0, 2), (0, 4)], False, 1)
# segment boxes that meet only at a corner, with no meeting
@example([(0, 0), (1, 1), (2, 0), (3, 1), (1, 3), (0, 2)], True, 1)
def test_self_violations_skip_only_boxes_that_miss(coords, closed, den):
    try:
        curve = Curve(7, [pt(Fraction(x, den), Fraction(y, den))
                          for x, y in coords], closed)
    except ValidationError:
        assume(False)
    scale = coordinate_scale([curve])
    sc = incidence._ScaledCurve(curve, scale)
    assert (incidence._self_violations(sc, scale)
            == unfiltered_self_violations(sc, scale))


def test_validate_general_position_accepts_generated():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=6, m=2, seed=11))
    rep = validate_general_position(fam)
    assert rep.ok and not rep.violations
    assert rep.incidences == compute_incidences(fam)


def test_catalogue_is_computed_once_per_family(monkeypatch):
    gen = generate(GeneratorSpec(kind="RandomCircles", n=6, m=2, seed=11))
    fam = CurveFamily(gen.curves, gen.m)
    runs = []
    engine = incidence._run_engine
    monkeypatch.setattr(incidence, "_run_engine",
                        lambda *args: runs.append(args) or engine(*args))
    fi = catalogue(fam)
    assert catalogue(fam) is fi and fam.incidences is fi
    assert len(runs) == 1 and fi == compute_incidences(fam)
    # a generated family carries the catalogue its validation computed
    assert catalogue(gen) is gen.incidences and gen.incidences == fi
    assert len(runs) == 2
    # the catalogue takes no part in equality, hashing or repr
    bare = CurveFamily(gen.curves, gen.m)
    assert bare.incidences is None
    assert bare == fam and hash(bare) == hash(fam) and repr(bare) == repr(fam)
    # replace makes a family that computes its own
    for other in (replace(fam, m=3), replace(fam, curves=fam.curves[:4]),
                  replace(fam)):
        assert other.incidences is None
        assert (catalogue(other).m, catalogue(other).curve_ids) == (
            other.m, tuple(c.id for c in other))
    assert len(runs) == 5


def test_a_family_keeps_only_its_own_catalogue():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=6, m=2, seed=11))
    for other in (CurveFamily(fam.curves[:4], fam.m),
                  CurveFamily(fam.curves, fam.m + 1)):
        with pytest.raises(InvariantError):
            keep_catalogue(other, fam.incidences)
        assert other.incidences is None


@pytest.mark.parametrize("kind,n,m", [
    ("TangentChain", 8, 1), ("UnitCirclesGrid", 9, 1),
    ("RandomCircles", 10, 2), ("PseudoParabolas", 8, 2),
    ("PerturbedPencil", 5, 1)])
def test_between_is_the_pair_engine(kind, n, m):
    # a pair's contacts read from the family's catalogue are the ones the
    # engine finds on the pair alone, in the same order
    fam = generate(GeneratorSpec(kind=kind, n=n, m=m, seed=1))
    fi = catalogue(fam)
    for a in fam:
        for b in fam:
            if a.id == b.id:
                continue
            want = curve_pair_incidences(a, b)
            got = fi.between(a.id, b.id)
            assert ([(i.point, i.kind, i.s_on(a.id), i.s_on(b.id))
                     for i in got]
                    == [(i.point, i.kind, i.s_on(a.id), i.s_on(b.id))
                        for i in want])


def test_validate_flags_triple_point():
    # three lines through the origin
    fam = CurveFamily(curves=(
        Curve(id=1, points=(pt(-3, 0), pt(3, 0)), closed=False),
        Curve(id=2, points=(pt(0, -3), pt(0, 3)), closed=False),
        Curve(id=3, points=(pt(-3, -3), pt(3, 3)), closed=False)), m=3)
    rep = validate_general_position(fam)
    assert not rep.ok and rep.incidences is None
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


# ------------------------------------------- catalogues of sub-families

_RESTRICT_SPECS = (("UnitCirclesGrid", 12, 2), ("RandomCircles", 10, 2),
                   ("TangentChain", 7, 1), ("PseudoParabolas", 6, 1),
                   ("PerturbedPencil", 5, 1))


@lru_cache(maxsize=None)
def _generated(spec):
    kind, n, m = spec
    return generate(GeneratorSpec(kind=kind, n=n, m=m, seed=3))


def _outcome(fn, family):
    """The catalogue fn gives, or the type and message of what it raises."""
    try:
        return fn(family)
    except ValidationError as e:
        return type(e), str(e)


@st.composite
def families_and_subsets(draw):
    """A generated family with its curves listed in a drawn order, and a
    subset of them in another drawn order, with the family's budget or 1."""
    fam = _generated(draw(st.sampled_from(_RESTRICT_SPECS)))
    curves = tuple(draw(st.permutations(fam.curves)))
    sub = draw(st.lists(st.sampled_from(curves), unique=True))
    m = draw(st.sampled_from((fam.m, 1)))
    return CurveFamily(curves, fam.m), CurveFamily(tuple(sub), m)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(families_and_subsets())
def test_restrict_equals_the_engine_on_the_sub_family(fam_and_sub):
    fam, sub = fam_and_sub
    fi = compute_incidences(fam)
    got = _outcome(fi.restrict, sub)
    want = _outcome(compute_incidences, sub)
    assert got == want
    if not isinstance(want, tuple):
        # same keys, key orientation, dict order and Incidence objects
        assert list(got.pairs.items()) == list(want.pairs.items())
        assert (got.m, got.curve_ids) == (want.m, want.curve_ids)


def test_restrict_swaps_the_sides_of_a_flipped_pair():
    fam = generate(GeneratorSpec(kind="TangentChain", n=3, m=1, seed=0))
    flipped = CurveFamily(tuple(reversed(fam.curves)), 1)
    got = compute_incidences(fam).restrict(flipped)
    assert list(got.pairs) == [(3, 2), (2, 1)]
    assert got.pairs == compute_incidences(flipped).pairs
    inc = got.pairs[3, 2][0]
    assert inc.pattern == "ABBA" and (inc.a, inc.b) == (3, 2)


def test_restrict_rejects_a_curve_the_catalogue_lacks():
    fam = generate(GeneratorSpec(kind="TangentChain", n=4, m=1, seed=0))
    fi = compute_incidences(CurveFamily(fam.curves[:3], 1))
    with pytest.raises(PreconditionError):
        fi.restrict(fam)
