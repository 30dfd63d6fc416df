"""Exact planar primitives: rational points, polyline curves, predicates.

Coordinates are ints or ``fractions.Fraction``s; floats are rejected. A
curve set is lifted once onto one integer grid (``coordinate_scale`` and
``lift``), and the predicates that take integer pairs run there, so every
sign is decided by integer arithmetic, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError

if TYPE_CHECKING:
    from .incidence import FamilyIncidences


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
    """A rational point; int coordinates are kept as Fractions."""
    x: Fraction
    y: Fraction

    def __post_init__(self):
        for name, v in (("x", self.x), ("y", self.y)):
            if type(v) is not Fraction:
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"exact coordinate required, got {type(v).__name__}")
                object.__setattr__(self, name, Fraction(v))


def pt(x, y) -> Point:
    return Point(frac(x), frac(y))


def midpoint(a: Point, b: Point) -> Point:
    return Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


def orientation(o: Point, a: Point, b: Point) -> int:
    """+1 counterclockwise, -1 clockwise, 0 collinear."""
    c = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    return (c > 0) - (c < 0)


def _quadrant(d) -> int:
    dx, dy = d
    if dx > 0 and dy >= 0:
        return 0
    if dx <= 0 and dy > 0:
        return 1
    if dx < 0 and dy <= 0:
        return 2
    return 3


def angle_cmp(u, v) -> int:
    """Compare integer directions u and v by counterclockwise angle from +x.

    Exact: quadrants first, then the sign of one cross product. Two
    directions compare equal iff they are positive multiples of each other.
    """
    qu, qv = _quadrant(u), _quadrant(v)
    if qu != qv:
        return -1 if qu < qv else 1
    c = u[0] * v[1] - u[1] * v[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


angle_key = cmp_to_key(angle_cmp)


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
    # the four points lie on one line (or ab or cd is a point): sort along
    # x unless all four share it, so two points apart never "touch"
    axis = 0 if ax != bx or cx != dx or ax != cx else 1
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
    scale = lcm(*(v.denominator for p in (a, b, c, d) for v in (p.x, p.y)))
    ab = lift((a, b), scale)
    res = seg_events(*ab, *lift((c, d), scale))
    tag = res[0]
    if tag == "none":
        return ("none", None)
    if tag == "proper":
        return ("proper", unlift(grid_point(ab, res[1]), scale))
    if tag == "touch":
        return ("endpoint", unlift((*res[1], 1), scale))
    return ("overlap", (unlift((*res[1], 1), scale),
                        unlift((*res[2], 1), scale)))


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
        # every test runs on the integer vertices of the curve's own grid
        ip = lift(pts, lcm(*(v.denominator for p in pts for v in (p.x, p.y))))
        if self.closed and ip[0] == ip[-1]:
            raise ValidationError(
                f"curve {self.id}: closed curve must not repeat its first vertex")
        for i in range(n - 1 if not self.closed else n):
            if ip[i] == ip[(i + 1) % n]:
                raise ValidationError(f"curve {self.id}: zero-length segment at {i}")
        # Collinear triples are canonicalization errors: the middle vertex
        # carries no geometry and breaks vertex-degree reasoning.
        limit = n if self.closed else n - 2
        for i in range(limit):
            (ax, ay), (bx, by), (cx, cy) = ip[i], ip[(i + 1) % n], ip[(i + 2) % n]
            if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
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

    def reversed(self) -> "Curve":
        return Curve(self.id, tuple(reversed(self.points)), self.closed)


@dataclass(frozen=True)
class CurveFamily:
    """Curves with a declared pairwise intersection budget m.

    incidences is the strict contact catalogue once a reader has computed
    or kept it (incidence.catalogue, incidence.keep_catalogue). It takes no
    part in eq, hash or repr, and dataclasses.replace does not copy it.
    """
    curves: Tuple[Curve, ...]
    m: int
    incidences: Optional[FamilyIncidences] = field(
        default=None, init=False, compare=False, repr=False)

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


def lift(points: Iterable[Point], scale: int) -> List[Tuple[int, int]]:
    """The points as integer pairs on the grid of step 1/scale; scale must
    clear every denominator (see coordinate_scale)."""
    return [(p.x.numerator * (scale // p.x.denominator),
             p.y.numerator * (scale // p.y.denominator)) for p in points]


def lift_point(p: Point, scale: int) -> Tuple[int, int, int]:
    """Any rational point on the grid of step 1/scale, as (X, Y, D) with
    D > 0: the lifted point is (X / D, Y / D)."""
    d = lcm(p.x.denominator, p.y.denominator)
    return (*lift((p,), scale * d)[0], d)


def grid_point(seg, t: Fraction) -> Tuple[int, int, int]:
    """The point at parameter t on the integer segment seg, as a reduced
    (X, Y, D) with D > 0: the point is (X / D, Y / D)."""
    (ax, ay), (bx, by) = seg
    n, d = t.numerator, t.denominator
    x, y = ax * d + n * (bx - ax), ay * d + n * (by - ay)
    g = gcd(x, y, d)
    return (x // g, y // g, d // g)


def unlift(key: Tuple[int, int, int], scale: int) -> Point:
    """The rational point of a lifted (X, Y, D) on the grid of step
    1/scale."""
    d = key[2] * scale
    return Point(Fraction(key[0], d), Fraction(key[1], d))


class Polyline:
    """An integer polyline on a lifted grid: its vertices pts, whether a
    closing segment pts[-1] -> pts[0] follows, each segment as
    (a, b, xmin, ymin, xmax, ymax) with its closed box, and the closed box
    (xmin, ymin, xmax, ymax) of the whole. Boxes are closed, so a shared
    edge or corner still reaches seg_events."""

    __slots__ = ("pts", "closed", "segs", "box")

    def __init__(self, pts: List[Tuple[int, int]], closed: bool = False):
        self.pts = pts
        self.closed = closed
        ring = pts + pts[:1] if closed else pts
        self.segs = segs = []
        for a, b in zip(ring, ring[1:]):
            (ax, ay), (bx, by) = a, b
            x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
            y0, y1 = (ay, by) if ay <= by else (by, ay)
            segs.append((a, b, x0, y0, x1, y1))
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        self.box = (min(xs), min(ys), max(xs), max(ys))

    def seg(self, i: int):
        return self.segs[i][:2]

    def hits(self, a, b):
        """seg_events of the integer segment ab against each segment, in
        segment order, skipping "none"; the whole box is tested first."""
        x0, x1 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        y0, y1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
        bx0, by0, bx1, by1 = self.box
        if bx1 < x0 or bx0 > x1 or by1 < y0 or by0 > y1:
            return
        for c, d, sx0, sy0, sx1, sy1 in self.segs:
            if sx1 < x0 or sx0 > x1 or sy1 < y0 or sy0 > y1:
                continue
            ev = seg_events(a, b, c, d)
            if ev[0] != "none":
                yield ev


def meetings(p: Polyline, q: Polyline) -> List[tuple]:
    """(i, j, event) for every segment i of p and j of q that meet, in
    segment order of p then q, event being their seg_events result. Each
    segment of p is tested against q's whole box first."""
    out = []
    qx0, qy0, qx1, qy1 = q.box
    qsegs = q.segs
    for i, (a, b, x0, y0, x1, y1) in enumerate(p.segs):
        if qx1 < x0 or qx0 > x1 or qy1 < y0 or qy0 > y1:
            continue
        for j, (c, d, sx0, sy0, sx1, sy1) in enumerate(qsegs):
            if sx1 < x0 or sx0 > x1 or sy1 < y0 or sy0 > y1:
                continue
            ev = seg_events(a, b, c, d)
            if ev[0] != "none":
                out.append((i, j, ev))
    return out


def on_polyline(p: Tuple[int, int, int], pts: Sequence[Tuple[int, int]],
                closed: bool) -> bool:
    """Does the lifted point p = (X, Y, D) lie on the integer polyline pts
    (with its closing segment when closed)?"""
    X, Y, D = p
    ax, ay = pts[-1] if closed else pts[0]
    for k in range(0 if closed else 1, len(pts)):
        bx, by = pts[k]
        if ((ax * D <= X <= bx * D or bx * D <= X <= ax * D)
                and (ay * D <= Y <= by * D or by * D <= Y <= ay * D)
                and (bx - ax) * (Y - ay * D) == (by - ay) * (X - ax * D)):
            return True
        ax, ay = bx, by
    return False


def chain_param(p: Tuple[int, int, int],
                pts: Sequence[Tuple[int, int]]) -> Optional[Fraction]:
    """Chain parameter (segment index + in-segment fraction) of the lifted
    point p = (X, Y, D) along the open integer polyline pts, read on the
    first segment that holds p, or None when p is off pts."""
    for k in range(len(pts) - 1):
        if on_polyline(p, pts[k:k + 2], False):
            X, Y, D = p
            (ax, ay), (bx, by) = pts[k], pts[k + 1]
            return k + (Fraction(X - ax * D, (bx - ax) * D) if bx != ax
                        else Fraction(Y - ay * D, (by - ay) * D))
    return None


def winding_parity(p: Tuple[int, int, int],
                   polygon: Sequence[Tuple[int, int]]) -> bool:
    """Exact even-odd test: True when the lifted point p = (X, Y, D) is
    strictly inside the closed integer polygon (vertex list without repeated
    first point). A point on the boundary gives False; callers that must
    tell the two apart test on_polyline first.
    """
    if on_polyline(p, polygon, True):
        return False
    X, Y, D = p
    inside = False
    ax, ay = polygon[-1]
    for bx, by in polygon:
        # Count crossings of the rightward ray from p. The edge meets height
        # Y/D at xcross = ax + (Y/D - ay) * (bx - ax) / dy; the test
        # xcross > X/D is multiplied through by D * dy * dy > 0.
        if (ay * D > Y) != (by * D > Y):
            dy = by - ay
            if ((Y - ay * D) * (bx - ax) - (X - ax * D) * dy) * dy > 0:
                inside = not inside
        ax, ay = bx, by
    return inside


def signed_area2(polygon: Sequence[Tuple[int, int]]) -> int:
    """Twice the signed area of the closed integer polygon (CCW positive)."""
    total = 0
    ax, ay = polygon[-1]
    for bx, by in polygon:
        total += ax * by - bx * ay
        ax, ay = bx, by
    return total
