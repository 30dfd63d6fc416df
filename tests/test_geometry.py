"""Exact geometric predicates against recomputed references."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactgeom.errors import ValidationError
from contactgeom.geometry import (Curve, Point, angle_cmp, angle_key,
                                  ccw_between, coordinate_scale, frac, germs,
                                  lift, lift_point, midpoint, on_polyline,
                                  orientation, pt, seg_events,
                                  segment_intersection, signed_area2,
                                  winding_parity)

import oracles

F = Fraction


def test_orientation_signs():
    o, a = pt(0, 0), pt(1, 0)
    assert orientation(o, a, pt(2, 1)) == 1
    assert orientation(o, a, pt(2, -1)) == -1
    assert orientation(o, a, pt(2, 0)) == 0


def test_cross_dot_midpoint():
    o = pt(1, 1)
    assert orientation(o, pt(2, 1), pt(1, 2)) == 1
    assert midpoint(pt(0, 0), pt(1, 3)) == Point(F(1, 2), F(3, 2))
    # integer coordinates give exact halves, not floats
    m = midpoint(Point(0, 0), Point(1, 3))
    assert isinstance(m.x, F) and isinstance(m.y, F)


def test_frac_accepts_strings_and_ints():
    assert frac("3/7") == F(3, 7)
    assert frac(2) == 2
    assert pt(1, "1/2") == Point(F(1), F(1, 2))


def test_segment_intersection_kinds():
    kind, p = segment_intersection(pt(0, 0), pt(4, 4), pt(0, 4), pt(4, 0))
    assert kind == "proper" and p == pt(2, 2)
    kind, p = segment_intersection(pt(0, 0), pt(4, 4), pt(2, 2), pt(5, 2))
    assert kind == "endpoint" and p == pt(2, 2)
    kind, seg = segment_intersection(pt(0, 0), pt(4, 4), pt(1, 1), pt(3, 3))
    assert kind == "overlap" and seg == (pt(1, 1), pt(3, 3))
    kind, _ = segment_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    assert kind == "none"


def test_segment_intersection_exact_rational_point():
    # denominators survive; nothing is rounded
    kind, p = segment_intersection(pt(0, 0), pt(3, 1), pt(1, 1), pt(2, 0))
    assert kind == "proper"
    assert (p.x.denominator, p.y.denominator) != (1, 1)
    assert p.y == p.x / 3
    assert p.x + p.y == 2          # on the second segment's line


def _random_quadruple(rng, dens):
    """Four grid points with denominators drawn from dens. About a third of
    the draws put cd on the line through ab, and a third make c an endpoint
    of ab."""
    def coord():
        return F(rng.randrange(-6, 7), rng.choice(dens))

    a, b, c, d = (Point(coord(), coord()) for _ in range(4))
    shape = rng.randrange(3)
    if shape == 1:
        def param():
            k = rng.choice(dens)
            return F(rng.randrange(-2 * k, 3 * k + 1), k)

        c, d = (Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
                for s in (param(), param()))
    elif shape == 2:
        c = rng.choice((a, b))
    return a, b, c, d


@pytest.mark.parametrize("dens", [(1,), (1, 2, 3, 7)],
                         ids=["integer", "rational"])
def test_segment_intersection_matches_reference_on_random_grid(dens):
    rng = random.Random(9)
    seen = set()
    for _ in range(400):
        a, b, c, d = _random_quadruple(rng, dens)
        kind, data = segment_intersection(a, b, c, d)
        seen.add(kind)
        ref_kind, ref = oracles.seg_meet(a, b, c, d)
        if ref_kind == "none":
            assert kind == "none"
        elif ref_kind == "overlap":
            assert kind == "overlap"
            assert set(data) == {Point(a.x + t * (b.x - a.x),
                                       a.y + t * (b.y - a.y)) for t in ref}
        else:
            assert data == ref
            assert kind == ("endpoint" if ref in (a, b, c, d) else "proper")
    assert seen == {"none", "proper", "endpoint", "overlap"}


_SMALL = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(p=_SMALL, c=_SMALL, d=_SMALL)
@example(p=(0, 0), c=(1, 0), d=(1, 0))       # two points at one height
@example(p=(0, 0), c=(0, 2), d=(0, 2))       # two points on one vertical
@example(p=(1, 0), c=(0, 0), d=(2, 0))       # a point inside a segment
def test_point_segment_meets_what_it_lies_on(p, c, d):
    # direct rule: p is on the closed segment cd, or equals it when c = d
    cross_ = (d[0] - c[0]) * (p[1] - c[1]) - (d[1] - c[1]) * (p[0] - c[0])
    on = (cross_ == 0 and min(c[0], d[0]) <= p[0] <= max(c[0], d[0])
          and min(c[1], d[1]) <= p[1] <= max(c[1], d[1]))
    want = ("touch", p) if on else ("none",)
    assert seg_events(p, p, c, d) == want
    assert seg_events(c, d, p, p) == want
    kind, _ = oracles.seg_meet(*(Point(*q) for q in (p, p, c, d)))
    assert kind == ("point" if on else "none")


def _collinear_events_by_axis(pa, pb, pc, pd):
    """seg_events' all-collinear branch as it was first written: sort along
    x unless all four points share it, then along y."""
    axis = 0 if pa[0] != pb[0] or pc[0] != pd[0] or pa[0] != pc[0] else 1
    s1 = sorted((pa, pb), key=lambda p: p[axis])
    s2 = sorted((pc, pd), key=lambda p: p[axis])
    lo = max(s1[0], s2[0], key=lambda p: p[axis])
    hi = min(s1[1], s2[1], key=lambda p: p[axis])
    if lo[axis] > hi[axis]:
        return ("none",)
    if lo == hi:
        return ("touch", lo)
    return ("overlap", lo, hi)


def test_collinear_branch_matches_the_axis_sort():
    rng = random.Random(11)
    seen = set()
    for _ in range(2000):
        # four points at integer steps along one lattice direction, vertical
        # and horizontal included, so zero-length, touching, overlapping
        # and disjoint pairs all occur
        ux, uy = rng.choice([(0, 1), (1, 0), (1, 1), (2, -3), (-1, 2)])
        ox, oy = rng.randint(-5, 5), rng.randint(-5, 5)
        a, b, c, d = [(ox + k * ux, oy + k * uy)
                      for k in (rng.randint(-4, 4) for _ in range(4))]
        if rng.random() < 0.1:
            b = a
        got = seg_events(a, b, c, d)
        assert got == _collinear_events_by_axis(a, b, c, d)
        seen.add(got[0])
    # two zero-length segments apart: any two points are collinear
    for a, c in (((0, 0), (1, 0)), ((0, 0), (0, 2)), ((0, 0), (3, -1))):
        assert seg_events(a, a, c, c) == ("none",)
        assert seg_events(a, a, c, c) == _collinear_events_by_axis(a, a, c, c)
    assert seen == {"none", "touch", "overlap"}


def test_angle_order_is_counterclockwise():
    dirs = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 0),
            (-2, -1), (0, -1), (1, -1)]
    shuffled = dirs[::-1]
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled, key=angle_key) == dirs
    assert all(angle_cmp(u, v) == -1 for u, v in zip(dirs, dirs[1:]))
    # positive multiples share an angle, opposite directions do not
    assert angle_cmp((2, 2), (4, 4)) == 0
    assert angle_cmp((2, 2), (2, 3)) != 0
    assert angle_cmp((2, 2), (-2, -2)) != 0


def _directions(r):
    return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if x or y]


def test_angle_cmp_matches_the_ray_order():
    dirs = _directions(4)
    for u in dirs:
        for v in dirs:
            assert angle_cmp(u, v) == oracles._ray_cmp(u, v), (u, v)


def test_ccw_between_is_the_left_of_a_kink():
    # the face side of a boundary kink, incoming u and outgoing v: w lies
    # strictly counterclockwise after v and before -u. A spike (v a
    # positive multiple of -u) is left out: Curve rejects it as a collinear
    # triple.
    dirs = _directions(3)
    for u in dirs:
        back = (-u[0], -u[1])
        for v in dirs:
            if angle_cmp(v, back) == 0:
                continue
            for w in dirs:
                assert (ccw_between(v, w, back)
                        == oracles.left_of_wedge(u, v, w)), (u, v, w)


def test_germs_are_the_existing_neighbour_directions():
    pts = ((0, 0), (3, 1), (4, 5), (-1, 2))
    assert germs(pts, 1, False) == ((1, 4), (-3, -1))
    assert germs(pts, 0, False) == ((3, 1),)
    assert germs(pts, 3, False) == ((5, 3),)
    assert germs(pts, 0, True) == ((3, 1), (-1, 2))
    assert germs(pts, 3, True) == ((1, -2), (5, 3))


def test_signed_area_and_winding():
    sq = ((0, 0), (4, 0), (4, 4), (0, 4))
    assert signed_area2(sq) == 32
    assert signed_area2(tuple(reversed(sq))) == -32
    assert winding_parity((2, 2, 1), sq)
    assert not winding_parity((9, 2, 1), sq)
    assert not winding_parity((4, 2, 1), sq)  # on the boundary
    assert winding_parity((7, 1, 2), sq)      # (7/2, 1/2)
    assert not winding_parity((9, 1, 2), sq)  # (9/2, 1/2)
    # concave polygon: notch interior vs pocket
    notch = ((0, 0), (6, 0), (6, 6), (3, 2), (0, 6))
    assert winding_parity((1, 1, 1), notch)
    assert not winding_parity((3, 5, 1), notch)


def test_winding_parity_is_exact_on_integer_points():
    # a huge integer triangle probed half a unit and one unit beside the
    # middle of each edge: the verdict must be the Fraction reference's
    rng = random.Random(11)
    for _ in range(500):
        tri = [(rng.randrange(2 ** 60), rng.randrange(2 ** 60))
               for _ in range(3)]
        (ax, ay), (bx, by) = tri[0], tri[1]
        ref_tri = [Point(x, y) for x, y in tri]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            for d in (1, 2):
                p = ((ax + bx) // 2 * d + dx, (ay + by) // 2 * d + dy, d)
                assert winding_parity(p, tri) == oracles.winding_parity(
                    Point(F(p[0], d), F(p[1], d)), ref_tri)


def test_lift_puts_points_on_one_grid():
    pts = (pt("1/2", "-2/3"), pt(3, "5/7"), pt("-9/14", 0))
    scale = 42
    assert lift(pts, scale) == [(21, -28), (126, 30), (-27, 0)]
    # a point off the grid becomes (X, Y, D) with (X/D, Y/D) = p * scale
    for p in pts + (pt("1/4", "3/5"), pt(-7, "1/9")):
        X, Y, D = lift_point(p, scale)
        assert D > 0 and (F(X, D), F(Y, D)) == (p.x * scale, p.y * scale)


_COORD = st.one_of(st.integers(-9, 9),
                   st.builds(F, st.integers(-30, 30), st.integers(1, 12)))


@settings(max_examples=200, deadline=None)
@given(pts=st.lists(st.builds(Point, _COORD, _COORD), min_size=3, max_size=6),
       closed=st.booleans(), k=st.integers(1, 6))
def test_lifted_is_the_lift_of_the_points(pts, closed, k):
    try:
        c = Curve(id=1, points=tuple(pts), closed=closed)
    except ValidationError:
        assume(False)
    scale = c.grid_scale * k
    assert c.lifted(scale) == tuple(lift(c.points, scale))
    if k == 1:
        assert c.lifted(scale) is c.grid


def test_on_polyline_matches_on_segment():
    rng = random.Random(5)
    pts = [pt(0, 0), pt(4, 1), pt(3, 5), pt(-1, 3)]
    ip = lift(pts, 1)
    for _ in range(400):
        p = pt(F(rng.randrange(-8, 40), 8), F(rng.randrange(-8, 48), 8))
        q = lift_point(p, 1)
        for closed in (False, True):
            n = len(pts) if closed else len(pts) - 1
            ref = any(oracles.on_segment(p, pts[i], pts[(i + 1) % len(pts)])
                      for i in range(n))
            assert on_polyline(q, ip, closed) == ref


def test_coordinate_scale_clears_denominators():
    c = Curve(id=1, points=(pt("1/2", 0), pt(1, "2/3"), pt(0, 1)),
              closed=True)
    scale = coordinate_scale([c])
    for p in c.points:
        assert (p.x * scale).denominator == 1
        assert (p.y * scale).denominator == 1
    assert scale % 6 == 0


def test_curve_accessors():
    c = Curve(id=3, points=(pt(0, 0), pt(2, 0), pt(2, 2)), closed=False)
    assert c.n_vertices == 3 and c.n_segments == 2
    assert c.endpoints == (pt(0, 0), pt(2, 2))
    segs = list(c.segments())
    assert [s[0] for s in segs] == [0, 1]
    closed = Curve(id=4, points=c.points, closed=True)
    assert closed.n_segments == 3
    assert closed.reversed().points[0] == pt(2, 2)


def test_curve_rejects_degenerate_input():
    with pytest.raises(Exception):
        Curve(id=1, points=(pt(0, 0),), closed=False)
    with pytest.raises(Exception):
        Curve(id=1, points=(pt(0, 0), pt(1, 0)), closed=True)
    with pytest.raises(Exception):
        # collinear vertex triples are not representable
        Curve(id=1, points=(pt(0, 0), pt(1, 0), pt(2, 0)), closed=False)


def test_curve_rejects_collinear_triple_with_mixed_denominators():
    # on the line y = x / 2; the numerators alone are not collinear
    a, b, c = pt("1/2", "1/4"), pt("2/3", "1/3"), pt("6/5", "3/5")
    with pytest.raises(ValidationError, match="collinear vertex triple at 0"):
        Curve(id=1, points=(a, b, c), closed=False)
    with pytest.raises(ValidationError, match="collinear vertex triple at 1"):
        Curve(id=2, points=(pt(0, 1), a, b, c), closed=False)
    # closed: the triple wraps around the seam
    with pytest.raises(ValidationError, match="collinear vertex triple at 2"):
        Curve(id=3, points=(c, pt(0, 1), a, b), closed=True)
    Curve(id=4, points=(a, b, pt("6/5", "4/5")), closed=False)


def test_point_rejects_inexact_coordinates():
    for x, y in ((1.5, 0), (0, 1.5), (2.0, 1)):
        with pytest.raises(TypeError):
            Point(x, y)
        with pytest.raises(TypeError):
            Curve(id=1, points=(Point(0, 0), Point(x, y), Point(3, 7)),
                  closed=True)
    assert Point(1, F(1, 2)) == pt(1, "1/2")
