"""Exact geometric predicates against recomputed references."""

import random
from fractions import Fraction

import pytest

from contactgeom.geometry import (Curve, Point, coordinate_scale, cross,
                                  direction_key, exact_orientation, frac,
                                  midpoint, on_segment, orientation,
                                  point_segment_position, pseudo_angle_key,
                                  pt, segment_intersection, signed_area2,
                                  winding_parity)

import oracles

F = Fraction


def test_orientation_signs():
    o, a = pt(0, 0), pt(1, 0)
    assert orientation(o, a, pt(2, 1)) == 1
    assert orientation(o, a, pt(2, -1)) == -1
    assert orientation(o, a, pt(2, 0)) == 0
    assert exact_orientation(o, a, pt(2, 1)) == "left"
    assert exact_orientation(o, a, pt(2, -1)) == "right"
    assert exact_orientation(o, a, pt(2, 0)) == "collinear"


def test_cross_dot_midpoint():
    o = pt(1, 1)
    assert cross(o, pt(2, 1), pt(1, 2)) == 1
    assert midpoint(pt(0, 0), pt(1, 3)) == Point(F(1, 2), F(3, 2))
    # integer coordinates give exact halves, not floats
    m = midpoint(Point(0, 0), Point(1, 3))
    assert isinstance(m.x, F) and isinstance(m.y, F)


def test_frac_accepts_strings_and_ints():
    assert frac("3/7") == F(3, 7)
    assert frac(2) == 2
    assert pt(1, "1/2") == Point(F(1), F(1, 2))


def test_on_segment_boundaries():
    a, b = pt(0, 0), pt(4, 4)
    assert on_segment(pt(2, 2), a, b)
    assert on_segment(a, a, b) and on_segment(b, a, b)
    assert not on_segment(pt(5, 5), a, b)
    assert not on_segment(pt(2, 3), a, b)


def test_point_segment_position_classes():
    a, b = pt(0, 0), pt(4, 4)
    assert point_segment_position(pt(2, 2), a, b) == "interior"
    assert point_segment_position(a, a, b) == "vertex"
    assert point_segment_position(pt(2, 3), a, b) == "off"
    assert point_segment_position(pt(5, 5), a, b) == "off"


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
        if a == b or c == d:
            continue
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


def test_pseudo_angle_key_orders_counterclockwise():
    dirs = [(F(1), F(0)), (F(2), F(1)), (F(1), F(1)), (F(1), F(2)),
            (F(0), F(1)), (F(-1), F(2)), (F(-1), F(0)), (F(-2), F(-1)),
            (F(0), F(-1)), (F(1), F(-1))]
    keys = [pseudo_angle_key(dx, dy) for dx, dy in dirs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_direction_key_parallel_segments_share_key():
    assert direction_key(pt(0, 0), pt(2, 2)) == direction_key(pt(5, 1),
                                                              pt(9, 5))
    assert direction_key(pt(0, 0), pt(2, 2)) != direction_key(pt(0, 0),
                                                              pt(2, 3))


def test_signed_area_and_winding():
    sq = (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
    assert signed_area2(sq) == 32
    assert signed_area2(tuple(reversed(sq))) == -32
    assert winding_parity(pt(2, 2), sq)
    assert not winding_parity(pt(9, 2), sq)
    # concave polygon: notch interior vs pocket
    notch = (pt(0, 0), pt(6, 0), pt(6, 6), pt(3, 2), pt(0, 6))
    assert winding_parity(pt(1, 1), notch)
    assert not winding_parity(pt(3, 5), notch)


def test_winding_parity_is_exact_on_integer_points():
    # a huge integer triangle probed one unit beside the middle of each edge:
    # the int inputs must give the verdict of the same inputs as Fractions
    rng = random.Random(11)
    as_fractions = lambda q: Point(F(q.x), F(q.y))
    for _ in range(500):
        tri = [Point(rng.randrange(2 ** 60), rng.randrange(2 ** 60))
               for _ in range(3)]
        a, b = tri[0], tri[1]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            p = Point((a.x + b.x) // 2 + dx, (a.y + b.y) // 2 + dy)
            assert winding_parity(p, tri) == winding_parity(
                as_fractions(p), [as_fractions(q) for q in tri])


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
