"""Exact planar primitives: rational points, polyline curves, predicates.

All coordinates are ``fractions.Fraction``; every predicate below is decided
by integer sign computations, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Tuple

from .errors import ValidationError

Frac = Fraction


def frac(value) -> Fraction:
    """Coerce ints, strings like '3/7', and Fractions. Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact coordinate required, got {type(value).__name__}")


@dataclass(frozen=True, order=True)
class Point:
    x: Fraction
    y: Fraction

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)


def pt(x, y) -> Point:
    return Point(frac(x), frac(y))


def midpoint(a: Point, b: Point) -> Point:
    return Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area x2 of triangle o,a,b."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(o: Point, a: Point, b: Point) -> int:
    """+1 counterclockwise, -1 clockwise, 0 collinear."""
    c = cross(o, a, b)
    if c > 0:
        return 1
    if c < 0:
        return -1
    return 0


def exact_orientation(p: Point, q: Point, r: Point) -> str:
    """'left', 'right', or 'collinear' for the turn p -> q -> r."""
    s = orientation(p, q, r)
    if s > 0:
        return "left"
    if s < 0:
        return "right"
    return "collinear"


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment ab (collinearity included)."""
    if orientation(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def pseudo_angle_key(dx: Fraction, dy: Fraction) -> Tuple[int, Fraction]:
    """Total order on directions matching counterclockwise angle from +x.

    Exact: the key is (quadrant index, monotone rational within quadrant).
    Two directions compare equal iff they are positive multiples of each
    other.
    """
    if dx == 0 and dy == 0:
        raise ValueError("zero direction has no angle")
    if dx > 0 and dy >= 0:
        return (0, dy / dx)
    if dx <= 0 and dy > 0:
        return (1, -dx / dy)
    if dx < 0 and dy <= 0:
        return (2, dy / dx)
    return (3, -dx / dy)


def direction_key(a: Point, b: Point) -> Tuple[int, Fraction]:
    return pseudo_angle_key(b.x - a.x, b.y - a.y)


def _between(p, u, v) -> bool:
    """p collinear with uv assumed; closed bbox membership."""
    return (min(u[0], v[0]) <= p[0] <= max(u[0], v[0])
            and min(u[1], v[1]) <= p[1] <= max(u[1], v[1]))


def seg_events(pa, pb, pc, pd):
    """Classify closed integer segments ab and cd.

    Returns ("none",), ("proper", t, u), ("touch", point) with the point an
    integer pair, or ("overlap", lo, hi) for a collinear shared piece.
    This is the package's one segment-vs-segment predicate.
    """
    ax, ay = pa
    bx, by = pb
    cx, cy = pc
    dx, dy = pd
    d1 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d2 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    d3 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d4 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    if d1 or d2 or d3 or d4:
        if d1 and d2 and d3 and d4 and (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
            denom = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
            t = Fraction((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx), denom)
            u = Fraction((cx - ax) * (by - ay) - (cy - ay) * (bx - ax), denom)
            return ("proper", t, u)
        if d1 == 0 and _between(pa, pc, pd):
            return ("touch", pa)
        if d2 == 0 and _between(pb, pc, pd):
            return ("touch", pb)
        if d3 == 0 and _between(pc, pa, pb):
            return ("touch", pc)
        if d4 == 0 and _between(pd, pa, pb):
            return ("touch", pd)
        return ("none",)
    # a zero-length ab still has a direction to sort along when cd has one
    axis = 0 if ax != bx or cx != dx else 1
    s1 = sorted((pa, pb), key=lambda p: p[axis])
    s2 = sorted((pc, pd), key=lambda p: p[axis])
    lo = max(s1[0], s2[0], key=lambda p: p[axis])
    hi = min(s1[1], s2[1], key=lambda p: p[axis])
    if lo[axis] > hi[axis]:
        return ("none",)
    if lo == hi:
        return ("touch", lo)
    return ("overlap", lo, hi)


def segment_intersection(a: Point, b: Point, c: Point, d: Point):
    """Classify how closed segments ab and cd meet.

    Returns one of:
      ("none", None)
      ("proper", Point)       interiors cross at one point
      ("endpoint", Point)     meet at exactly one point that is an endpoint
                              of at least one segment
      ("overlap", (Point, Point))  collinear with a shared sub-segment
                              (the two points bound it; equal points mean a
                              single-point collinear touch, still reported
                              as "endpoint")

    The four points are lifted onto one integer grid and decided by
    seg_events.
    """
    coords = (a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)
    scale = lcm(*(v.denominator for v in coords))
    ax, ay, bx, by, cx, cy, dx, dy = (
        v.numerator * (scale // v.denominator) for v in coords)
    res = seg_events((ax, ay), (bx, by), (cx, cy), (dx, dy))
    tag = res[0]
    if tag == "none":
        return ("none", None)
    if tag == "proper":
        t = res[1]
        return ("proper", Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))

    def unlift(q) -> Point:
        return Point(Fraction(q[0], scale), Fraction(q[1], scale))

    if tag == "touch":
        return ("endpoint", unlift(res[1]))
    return ("overlap", (unlift(res[1]), unlift(res[2])))


def point_segment_position(p: Point, a: Point, b: Point) -> str:
    """'off', 'interior', or 'vertex' (p coincides with a or b)."""
    if p == a or p == b:
        return "vertex"
    return "interior" if on_segment(p, a, b) else "off"


@dataclass(frozen=True)
class Curve:
    """A simple polyline curve, open (arc) or closed (Jordan curve).

    For closed curves the vertex list does NOT repeat the first point; the
    closing segment points[-1] -> points[0] is implicit.
    """
    id: int
    points: Tuple[Point, ...]
    closed: bool

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if self.closed and n < 3:
            raise ValidationError(f"curve {self.id}: closed curve needs >= 3 vertices")
        if not self.closed and n < 2:
            raise ValidationError(f"curve {self.id}: open curve needs >= 2 vertices")
        if self.closed and pts[0] == pts[-1]:
            raise ValidationError(
                f"curve {self.id}: closed curve must not repeat its first vertex")
        for i in range(n - 1 if not self.closed else n):
            a = pts[i]
            b = pts[(i + 1) % n]
            if a == b:
                raise ValidationError(f"curve {self.id}: zero-length segment at {i}")
        # Collinear triples are canonicalization errors: the middle vertex
        # carries no geometry and breaks vertex-degree reasoning.
        limit = n if self.closed else n - 2
        for i in range(limit):
            a = pts[i]
            b = pts[(i + 1) % n]
            c = pts[(i + 2) % n]
            if orientation(a, b, c) == 0:
                raise ValidationError(
                    f"curve {self.id}: collinear vertex triple at {i}")

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_segments(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    def segment(self, i: int) -> Tuple[Point, Point]:
        pts = self.points
        return (pts[i], pts[(i + 1) % len(pts)])

    def segments(self) -> Iterable[Tuple[int, Point, Point]]:
        for i in range(self.n_segments):
            a, b = self.segment(i)
            yield (i, a, b)

    @property
    def endpoints(self) -> Tuple[Point, ...]:
        if self.closed:
            return ()
        return (self.points[0], self.points[-1])

    def point_at(self, seg: int, t: Fraction) -> Point:
        a, b = self.segment(seg)
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def contains_point(self, p: Point) -> bool:
        return any(on_segment(p, a, b) for _, a, b in self.segments())

    def bbox(self):
        xs = [p.x for p in self.points]
        ys = [p.y for p in self.points]
        return (min(xs), min(ys), max(xs), max(ys))

    def reversed(self) -> "Curve":
        return Curve(self.id, tuple(reversed(self.points)), self.closed)


@dataclass(frozen=True)
class CurveFamily:
    """Curves with a declared pairwise intersection budget m."""
    curves: Tuple[Curve, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        ids = [c.id for c in self.curves]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate curve ids")

    @property
    def n(self) -> int:
        return len(self.curves)

    def curve(self, cid: int) -> Curve:
        for c in self.curves:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def __iter__(self):
        return iter(self.curves)


def coordinate_scale(curves: Sequence[Curve]) -> int:
    """LCM of all coordinate denominators: multiplying by it makes every
    coordinate an integer, enabling pure-int predicate evaluation."""
    return lcm(*(v.denominator for c in curves for p in c.points
                 for v in (p.x, p.y)))


def winding_parity(p: Point, polygon: Sequence[Point]) -> bool:
    """Exact even-odd test: True when p is strictly inside the closed
    polygon (vertex list without repeated first point).

    Raises OnCurveError via caller convention: here, a boundary hit simply
    returns False; callers that must distinguish use contains_point first.
    """
    n = len(polygon)
    inside = False
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if on_segment(p, a, b):
            return False
        # Count crossings of the rightward ray from p. The edge meets height
        # p.y at xcross = a.x + (p.y - a.y) * (b.x - a.x) / dy; the test
        # xcross > p.x is multiplied through by dy * dy > 0, so no division.
        if (a.y > p.y) != (b.y > p.y):
            dy = b.y - a.y
            if ((p.y - a.y) * (b.x - a.x) - (p.x - a.x) * dy) * dy > 0:
                inside = not inside
    return inside


def signed_area2(polygon: Sequence[Point]) -> Fraction:
    """Twice the signed area of the closed polygon (CCW positive)."""
    total = Fraction(0)
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total
