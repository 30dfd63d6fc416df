"""Exact planar primitives: rational points, polyline curves, predicates.

Coordinates are ints or ``fractions.Fraction``s; floats are rejected. A
curve set is lifted once onto one integer grid (``coordinate_scale`` and
``Curve.lifted``), and the predicates that take integer pairs run there, so
every sign is decided by integer arithmetic, never by floating point. A
meeting off the grid is keyed as a reduced (X, Y, D) by ``meeting_key``.
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


def frac(value, what: str = "exact coordinate") -> Fraction:
    """Coerce ints, strings like '3/7', and Fractions. Floats are rejected
    with TypeError(f"{what} required, got float")."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"{what} required, got {type(value).__name__}")


@dataclass(frozen=True, order=True)
class Point:
    """A rational point; int coordinates are kept as Fractions."""
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if type(self.x) is Fraction and type(self.y) is Fraction:
            return
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


def angle_cmp(u, v) -> int:
    """Compare nonzero integer directions u and v by counterclockwise angle
    from +x.

    Exact: half planes first (angle in [0, pi) before [pi, 2 pi)), then
    the sign of one cross product. Two directions compare equal iff they
    are positive multiples of each other. This is the package's one
    angular predicate.
    """
    ux, uy = u
    vx, vy = v
    lu = uy < 0 or (uy == 0 and ux < 0)
    if lu != (vy < 0 or (vy == 0 and vx < 0)):
        return 1 if lu else -1
    c = ux * vy - uy * vx
    return -1 if c > 0 else (1 if c < 0 else 0)


angle_key = cmp_to_key(angle_cmp)


def ccw_between(a, w, b) -> bool:
    """Does direction w lie strictly counterclockwise after a and before b?

    Of the three linear comparisons a < w, w < b and b < a (angle_cmp),
    exactly two hold when a, w, b are distinct and in counterclockwise
    cyclic order; fewer hold otherwise.
    """
    return ((angle_cmp(a, w) < 0) + (angle_cmp(w, b) < 0)
            + (angle_cmp(b, a) < 0)) >= 2


def germs(pts: Sequence[Tuple[int, int]], k: int, closed: bool):
    """The integer directions from vertex k of the polyline pts to its next
    and previous vertices, in that order, only those that exist: an open
    polyline's end vertex has one."""
    x, y = pts[k]
    n = len(pts)
    if closed or 0 < k < n - 1:
        (fx, fy), (bx, by) = pts[(k + 1) % n], pts[k - 1]
        return (fx - x, fy - y), (bx - x, by - y)
    qx, qy = pts[1] if k == 0 else pts[k - 1]
    return ((qx - x, qy - y),)


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
    ux, uy = bx - ax, by - ay   # ab
    vx, vy = dx - cx, dy - cy   # cd
    wx, wy = cx - ax, cy - ay   # ac
    # the side of a and of b from cd, and of c and of d from ab
    d1 = vy * wx - vx * wy
    d2 = vx * (by - cy) - vy * (bx - cx)
    d3 = ux * wy - uy * wx
    d4 = ux * (dy - ay) - uy * (dx - ax)
    if d1 or d2 or d3 or d4:
        if d1 and d2 and d3 and d4 and (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
            denom = ux * vy - uy * vx
            return ("proper", Fraction(d1, denom), Fraction(-d3, denom))
        # a point collinear with a segment touches it when it lies in the
        # segment's closed box
        if (d1 == 0 and (cx <= ax <= dx or dx <= ax <= cx)
                and (cy <= ay <= dy or dy <= ay <= cy)):
            return ("touch", pa)
        if (d2 == 0 and (cx <= bx <= dx or dx <= bx <= cx)
                and (cy <= by <= dy or dy <= by <= cy)):
            return ("touch", pb)
        if (d3 == 0 and (ax <= cx <= bx or bx <= cx <= ax)
                and (ay <= cy <= by or by <= cy <= ay)):
            return ("touch", pc)
        if (d4 == 0 and (ax <= dx <= bx or bx <= dx <= ax)
                and (ay <= dy <= by or by <= dy <= ay)):
            return ("touch", pd)
        return ("none",)
    # the four points lie on one line (or both segments are points): on a
    # line, (x, y) order is the order along it, so two points apart never
    # "touch"
    a0, a1 = (pa, pb) if pa <= pb else (pb, pa)
    c0, c1 = (pc, pd) if pc <= pd else (pd, pc)
    lo = a0 if a0 >= c0 else c0
    hi = a1 if a1 <= c1 else c1
    if lo > hi:
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
    p = unlift(meeting_key(ab, res), scale)
    if tag == "proper":
        return ("proper", p)
    if tag == "touch":
        return ("endpoint", p)
    return ("overlap", (p, unlift((*res[2], 1), scale)))


@dataclass(frozen=True)
class Curve:
    """A simple polyline curve, open (arc) or closed (Jordan curve).

    For closed curves the vertex list does NOT repeat the first point; the
    closing segment points[-1] -> points[0] is implicit. grid holds the
    vertices lifted onto the curve's own grid of step 1/grid_scale (the LCM
    of its denominators); neither takes part in eq, hash or repr.
    """
    id: int
    points: Tuple[Point, ...]
    closed: bool
    grid: Tuple[Tuple[int, int], ...] = field(
        init=False, compare=False, repr=False)
    grid_scale: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if self.closed and n < 3:
            raise ValidationError(f"curve {self.id}: closed curve needs >= 3 vertices")
        if not self.closed and n < 2:
            raise ValidationError(f"curve {self.id}: open curve needs >= 2 vertices")
        # every test runs on the integer vertices of the curve's own grid
        ratios = [(p.x.as_integer_ratio(), p.y.as_integer_ratio())
                  for p in pts]
        scale = lcm(*[d for (_, d), _ in ratios], *[d for _, (_, d) in ratios])
        ip = tuple([(xn * (scale // xd), yn * (scale // yd))
                    for (xn, xd), (yn, yd) in ratios])
        object.__setattr__(self, "grid", ip)
        object.__setattr__(self, "grid_scale", scale)
        if self.closed and ip[0] == ip[-1]:
            raise ValidationError(
                f"curve {self.id}: closed curve must not repeat its first vertex")
        # One pass over the vertex triples (a, b, c) checks segment ab for
        # zero length and the triple for collinearity; a zero-length segment
        # anywhere is reported before the first collinear triple. Collinear
        # triples are canonicalization errors: the middle vertex carries no
        # geometry and breaks vertex-degree reasoning.
        ring = ip + ip[:2] if self.closed else ip
        bent = None
        for i, ((ax, ay), (bx, by), (cx, cy)) in enumerate(
                zip(ring, ring[1:], ring[2:])):
            if ax == bx and ay == by:
                raise ValidationError(f"curve {self.id}: zero-length segment at {i}")
            if bent is None and (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
                bent = i
        if not self.closed and ip[-2] == ip[-1]:
            raise ValidationError(
                f"curve {self.id}: zero-length segment at {n - 2}")
        if bent is not None:
            raise ValidationError(
                f"curve {self.id}: collinear vertex triple at {bent}")

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

    def lifted(self, scale: int) -> Tuple[Tuple[int, int], ...]:
        """The vertices on the grid of step 1/scale, scale a multiple of
        grid_scale: grid itself at grid_scale, else grid scaled up, so no
        Fraction is read again."""
        f = scale // self.grid_scale
        return (self.grid if f == 1
                else tuple([(x * f, y * f) for x, y in self.grid]))

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
    """LCM of all coordinate denominators (of the curves' grid scales):
    multiplying by it makes every coordinate an integer, enabling pure-int
    predicate evaluation."""
    return lcm(*(c.grid_scale for c in curves))


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
    (X, Y, D) with D > 0: the point is (X / D, Y / D). seg's integer ends
    come first, so a Polyline segment record will do."""
    (ax, ay), (bx, by) = seg[0], seg[1]
    n, d = t.numerator, t.denominator
    x, y = ax * d + n * (bx - ax), ay * d + n * (by - ay)
    g = gcd(x, y, d)
    return (x // g, y // g, d // g)


def meeting_key(seg, ev) -> Tuple[int, int, int]:
    """The reduced (X, Y, D) key of the seg_events result ev of the integer
    segment seg against another: a proper crossing's grid_point on seg, or
    a touch's point, or an overlap's low end, with D = 1."""
    if ev[0] == "proper":
        return grid_point(seg, ev[1])
    x, y = ev[1]
    return (x, y, 1)


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

    def __init__(self, pts: Sequence[Tuple[int, int]], closed: bool = False):
        self.pts = pts
        self.closed = closed
        ring = pts + pts[:1] if closed else pts
        # each end is read twice: as a point, and unpacked for the box
        self.segs = [(a, b, ax if ax <= bx else bx, ay if ay <= by else by,
                      bx if ax <= bx else ax, by if ay <= by else ay)
                     for a, b, (ax, ay), (bx, by)
                     in zip(ring, ring[1:], ring, ring[1:])]
        xs, ys = zip(*pts)
        self.box = (min(xs), min(ys), max(xs), max(ys))

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
    segment order of p then q, event being their seg_events result. A
    meeting lies in both curves' boxes, so only the segments that meet the
    overlap of the two boxes are paired."""
    px0, py0, px1, py1 = p.box
    qx0, qy0, qx1, qy1 = q.box
    ox0, oy0 = (px0 if px0 >= qx0 else qx0), (py0 if py0 >= qy0 else qy0)
    ox1, oy1 = (px1 if px1 <= qx1 else qx1), (py1 if py1 <= qy1 else qy1)
    qsegs = [(j, s) for j, s in enumerate(q.segs)
             if not (s[4] < ox0 or s[2] > ox1 or s[5] < oy0 or s[3] > oy1)]
    out = []
    if not qsegs:
        return out
    for i, (a, b, x0, y0, x1, y1) in enumerate(p.segs):
        if x1 < ox0 or x0 > ox1 or y1 < oy0 or y0 > oy1:
            continue
        for j, (c, d, sx0, sy0, sx1, sy1) in qsegs:
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


def segment_param(seg, p, seg_index: int) -> Fraction:
    """Chain parameter of the integer point p inside segment seg_index,
    seg being that segment's integer ends (a Polyline segment will do)."""
    (ax, ay), (bx, by) = seg[0], seg[1]
    if bx != ax:
        return seg_index + Fraction(p[0] - ax, bx - ax)
    return seg_index + Fraction(p[1] - ay, by - ay)


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
