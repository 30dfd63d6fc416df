"""Planar arrangement of a curve set as a half-edge structure.

Vertices are contact points, arc endpoints, and one anchor per otherwise
vertex-free closed curve. Edges are the curve portions between consecutive
vertices along each curve. Face cycles keep their face on the LEFT of the
walk direction; the boundary_edge_cycle query re-orients walks so the face
interior is on the right, matching the tracing convention the signature
machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import DegeneracyError, OnCurveError, PreconditionError, check
from .geometry import (Curve, CurveFamily, Point, angle_cmp, angle_key,
                       coordinate_scale, lift, lift_point, on_polyline,
                       on_segment, signed_area2, winding_parity)
from .incidence import (FamilyIncidences, compute_incidences,
                        curve_pair_incidences, mixed_contacts)

# the unbounded face's id in every Arrangement
UNBOUNDED_FACE = 0


def chain_point(c: Curve, s: Fraction) -> Point:
    """Point at chain parameter s (segment index + in-segment fraction)."""
    n = c.n_segments
    if c.closed:
        s = s % n
    elif s == n:
        return c.points[-1]
    k = int(s)
    a, b = c.segment(k)
    if s == k:  # a vertex, typed as a + 0 * (b - a) would be
        return Point(Fraction(a.x), Fraction(a.y))
    t = s - k
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def chain_param(g: Sequence[Point], p: Point) -> Optional[Fraction]:
    """Chain parameter of p along the polyline g, read on the first segment
    that holds p, or None when p is off g. The inverse of chain_point."""
    for k in range(len(g) - 1):
        a, b = g[k], g[k + 1]
        if on_segment(p, a, b):
            if b.x != a.x:
                return k + Fraction(p.x - a.x) / (b.x - a.x)
            return k + Fraction(p.y - a.y) / (b.y - a.y)
    return None


def curve_portion(c: Curve, s0: Fraction, s1: Fraction) -> Tuple[Point, ...]:
    """Polyline of c from parameter s0 to s1 (s0 < s1; for closed curves s1
    may wrap past the segment count by at most one full turn)."""
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    pts = [chain_point(c, s0)]
    nv = len(c.points)
    k = int(s0) + 1
    while k < s1:
        pts.append(c.points[k % nv] if c.closed else c.points[k])
        k += 1
    pts.append(chain_point(c, s1))
    return tuple(pts)


def split_curve_at(c: Curve, params: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Chain-parameter intervals of the pieces of c cut at params.

    Open: pieces cover [0, n_seg]. Closed with k >= 1 cuts: k wrap-around
    intervals; the piece spanning the seam has hi = lo' + n_seg.
    """
    ps = sorted(set(params))
    n = Fraction(c.n_segments)
    if c.closed:
        if not ps:
            return [(Fraction(0), n)]
        out = []
        for i, lo in enumerate(ps):
            hi = ps[i + 1] if i + 1 < len(ps) else ps[0] + n
            out.append((lo, hi))
        return out
    bounds = [Fraction(0)] + [p for p in ps if 0 < p < n] + [n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


@dataclass(frozen=True)
class ArrVertex:
    id: int
    point: Point
    out: Tuple[int, ...]  # outgoing half-edge ids, CCW by exact angle (angle_cmp)


@dataclass
class HalfEdge:
    id: int
    origin: int
    target: int
    twin: int
    curve: int
    geometry: Tuple[Point, ...]  # oriented origin -> target
    next: int = -1
    face: int = -1


@dataclass(frozen=True)
class Face:
    id: int
    cycles: Tuple[Tuple[int, ...], ...]  # half-edge cycles, face on left
    outer_index: Optional[int]  # which cycle is the outer one; None if unbounded
    depth: int
    interior: Optional[Point] = None  # a point strictly inside (bounded faces)


class Arrangement:
    """Immutable after construction; all queries are read-only.

    Point location runs on the integer view: every curve and face cycle
    lifted onto the grid of step 1/scale, where each vertex is a lattice
    point.
    """

    def __init__(self, curves, vertices, half_edges, faces, components,
                 scale, curve_pts, cycle_polygons):
        self.curves: Tuple[Curve, ...] = tuple(curves)
        self.vertices: List[ArrVertex] = vertices
        self.half_edges: List[HalfEdge] = half_edges
        self.faces: List[Face] = faces
        self.unbounded_face_id = UNBOUNDED_FACE
        self.components = components
        self.scale: int = scale
        self._curve_pts: List[List[Tuple[int, int]]] = curve_pts
        self._cycle_polygons: Dict[Tuple[int, ...], List[Tuple[int, int]]] = cycle_polygons

    @property
    def V(self) -> int:
        return len(self.vertices)

    @property
    def E(self) -> int:
        return len(self.half_edges) // 2

    @property
    def F(self) -> int:
        return len(self.faces)


def _assemble(curves: Sequence[Curve], fi: FamilyIncidences) -> Arrangement:
    curves = tuple(curves)

    # chain parameters carrying a vertex, per curve
    param_points: Dict[int, Dict[Fraction, Point]] = {}
    for c in curves:
        got: Dict[Fraction, Point] = {}
        for inc in fi.on_curve(c.id):
            got[inc.s_on(c.id)] = inc.point
        if not c.closed:
            got.setdefault(Fraction(0), c.points[0])
            got.setdefault(Fraction(c.n_segments), c.points[-1])
        elif not got:
            got[Fraction(0)] = c.points[0]  # anchor for a free-floating loop
        param_points[c.id] = got

    # the integer view: a grid fine enough that every curve vertex and every
    # arrangement vertex is a lattice point
    scale = lcm(coordinate_scale(curves),
                *(v.denominator for got in param_points.values()
                  for p in got.values() for v in (p.x, p.y)))
    curve_pts = [lift(c.points, scale) for c in curves]

    # vertex table, ordered by point for determinism; the first point object
    # seen at a place stands for it
    at: Dict[Tuple[int, int], Point] = {}
    vkey: Dict[int, Dict[Fraction, Tuple[int, int]]] = {}
    for cid, got in param_points.items():
        keys = lift(got.values(), scale)
        vkey[cid] = dict(zip(got, keys))
        for key, p in zip(keys, got.values()):
            at.setdefault(key, p)
    grid = sorted(at)
    vid_of: Dict[Tuple[int, int], int] = {key: i for i, key in enumerate(grid)}

    half_edges: List[HalfEdge] = []
    igeo: List[List[Tuple[int, int]]] = []  # integer geometry per half-edge
    for c, ipts in zip(curves, curve_pts):
        keys = vkey[c.id]
        for s0, s1 in split_curve_at(c, list(keys)):
            geom = curve_portion(c, s0, s1)
            # a closed curve's last piece ends past the seam
            ka, kb = keys[s0], keys[s1 % c.n_segments if c.closed else s1]
            a, b = vid_of[ka], vid_of[kb]
            hf = HalfEdge(id=len(half_edges), origin=a, target=b,
                          twin=len(half_edges) + 1, curve=c.id, geometry=geom)
            hb = HalfEdge(id=len(half_edges) + 1, origin=b, target=a,
                          twin=len(half_edges), curve=c.id,
                          geometry=tuple(reversed(geom)))
            half_edges.extend([hf, hb])
            # the vertices of c strictly between s0 and s1, as curve_portion
            ig = [ka] + [ipts[k % len(ipts)] for k in range(int(s0) + 1, ceil(s1))] + [kb]
            igeo.extend([ig, ig[::-1]])

    # rotation order at each vertex
    out_at: Dict[int, List[int]] = {i: [] for i in range(len(grid))}
    for h in half_edges:
        out_at[h.origin].append(h.id)
    vertices: List[ArrVertex] = []
    for vid, key in enumerate(grid):
        p = at[key]
        x, y = key
        dirs = sorted((((igeo[hid][1][0] - x, igeo[hid][1][1] - y), hid)
                       for hid in out_at[vid]),
                      key=lambda item: angle_key(item[0]))
        for k in range(1, len(dirs)):
            if angle_cmp(dirs[k - 1][0], dirs[k][0]) == 0:
                raise DegeneracyError(
                    f"coincident edge directions at vertex {p}")
        vertices.append(ArrVertex(id=vid, point=p,
                                  out=tuple(hid for _, hid in dirs)))

    # next pointers: continue the face-on-left walk
    for h in half_edges:
        v = vertices[h.target]
        idx = v.out.index(h.twin)
        h.next = v.out[idx - 1]

    # face cycles
    cycles: List[Tuple[int, ...]] = []
    seen = [False] * len(half_edges)
    for h in half_edges:
        if seen[h.id]:
            continue
        cyc = []
        cur = h.id
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = half_edges[cur].next
        cycles.append(tuple(cyc))

    polygons: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    areas: Dict[Tuple[int, ...], int] = {}
    for cyc in cycles:
        poly: List[Tuple[int, int]] = []
        for hid in cyc:
            poly.extend(igeo[hid][:-1])
        polygons[cyc] = poly
        areas[cyc] = signed_area2(poly)

    outers = [cyc for cyc in cycles if areas[cyc] > 0]
    inners = [cyc for cyc in cycles if areas[cyc] <= 0]

    # attach every inner cycle to the smallest outer cycle strictly around
    # the midpoint of its first edge
    holes_of: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {o: [] for o in outers}
    orphan: List[Tuple[int, ...]] = []
    for cyc in inners:
        poly = polygons[cyc]
        (ax, ay), (bx, by) = poly[0], poly[1 % len(poly)]
        q = (ax + bx, ay + by, 2)
        best = None
        for o in outers:
            if winding_parity(q, polygons[o]):
                if best is None or areas[o] < areas[best]:
                    best = o
        if best is None:
            orphan.append(cyc)
        else:
            holes_of[best].append(cyc)

    faces: List[Face] = []
    orphan.sort(key=min)
    faces.append(Face(id=UNBOUNDED_FACE, cycles=tuple(orphan), outer_index=None,
                      depth=0))
    for o in sorted(outers, key=min):
        holes = sorted(holes_of[o], key=min)
        # interior probe: the midpoint of the first edge pushed along its left
        # normal, where the face lies, by 2^-k of the normal for k = 1, 2, ...
        (ax, ay), (bx, by) = igeo[o[0]][0], igeo[o[0]][1]
        for k in range(1, 257):
            q = (((ax + bx) << (k - 1)) + ay - by, ((ay + by) << (k - 1)) + bx - ax,
                 1 << k)
            if (not any(on_polyline(q, pts, c.closed)
                        for c, pts in zip(curves, curve_pts))
                    and winding_parity(q, polygons[o])
                    and not any(winding_parity(q, polygons[h]) for h in holes)):
                break
        else:
            raise AssertionError("interior probe did not converge")
        depth = 1 + sum(1 for o2 in outers
                        if o2 is not o and winding_parity(q, polygons[o2]))
        d = q[2] * scale
        faces.append(Face(id=len(faces), cycles=(o,) + tuple(holes),
                          outer_index=0, depth=depth,
                          interior=Point(Fraction(q[0], d), Fraction(q[1], d))))

    for f in faces:
        for cyc in f.cycles:
            for hid in cyc:
                half_edges[hid].face = f.id

    # connected components of the curve union
    root: Dict[int, int] = {c.id: c.id for c in curves}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for v in vertices:  # the curves through a vertex are joined there
        for hid in v.out[1:]:
            root[find(half_edges[v.out[0]].curve)] = find(half_edges[hid].curve)
    components = len({find(c.id) for c in curves})

    return Arrangement(curves, vertices, half_edges, faces, components,
                       scale, curve_pts, polygons)


def build_arrangement(family: CurveFamily) -> Arrangement:
    """Arrangement of a validated family (strict contact model)."""
    return _assemble(family.curves, compute_incidences(family))


def build_mixed_arrangement(curves: Sequence[Curve]) -> Arrangement:
    """Arrangement of an ad-hoc curve set; open-arc endpoints may rest on
    other curves (T-joints become degree-3 vertices)."""
    return _assemble(curves, mixed_contacts(curves))


def pair_arrangement(family: CurveFamily, i: int, j: int,
                     fi: Optional[FamilyIncidences] = None) -> Arrangement:
    """Arrangement of curves i and j of the family. `fi`, the family's
    contact catalogue, spares running the engine on the pair; only its
    contacts between i and j are read."""
    a, b = family.curve(i), family.curve(j)
    if fi is None:
        return _assemble((a, b), compute_incidences(
            CurveFamily(curves=(a, b), m=family.m)))
    incs = fi.between(i, j)
    return _assemble((a, b), FamilyIncidences(
        m=fi.m, curve_ids=(i, j), pairs={(i, j): incs} if incs else {}))


def cells_of_pair(family: CurveFamily, i: int, j: int) -> List[Face]:
    """Faces of the two-curve arrangement. For a closed-closed pair the count
    is at most m+2; open-arc pairs are measured, not constrained."""
    arr = pair_arrangement(family, i, j)
    a, b = family.curve(i), family.curve(j)
    if a.closed and b.closed:
        check(arr.F <= family.m + 2,
              f"pair ({i},{j}): {arr.F} cells exceeds m+2={family.m + 2}")
    return list(arr.faces)


def locate_cell(arr: Arrangement, p: Point) -> int:
    """Face id containing p; OnCurveError when p lies on a curve."""
    q = lift_point(p, arr.scale)
    for c, pts in zip(arr.curves, arr._curve_pts):
        if on_polyline(q, pts, c.closed):
            raise OnCurveError(f"point {p} lies on curve {c.id}")
    polygons = arr._cycle_polygons
    hit = None
    for f in arr.faces:
        if f.outer_index is None:
            continue
        outer = f.cycles[f.outer_index]
        if not winding_parity(q, polygons[outer]):
            continue
        if any(winding_parity(q, polygons[cyc])
               for k, cyc in enumerate(f.cycles) if k != f.outer_index):
            continue
        check(hit is None, "point claimed by two faces")
        hit = f.id
    return arr.unbounded_face_id if hit is None else hit


def boundary_edge_cycle(arr: Arrangement, face_id: int) -> Tuple[Tuple[int, ...], ...]:
    """Boundary walks of a face with the interior kept on the RIGHT.

    Labels are the face's own half-edge ids; an edge bordering the face on
    both sides contributes two labels. One tuple per boundary component
    (simply bounded faces yield exactly one).
    """
    f = arr.faces[face_id]
    return tuple(tuple(reversed(cyc)) for cyc in f.cycles)


@dataclass(frozen=True)
class SubArc:
    """A contiguous piece of a parent curve cut at its contacts with the
    ground pair. endpoint_kinds matches geometry.endpoints ('on_boundary'
    or 'free'); a closed-loop piece has no endpoints and records its single
    boundary contact in cut_points."""
    parent: int
    geometry: Curve
    endpoint_kinds: Tuple[str, ...]
    cut_points: Tuple[Point, ...]
    interval: Tuple[Fraction, Fraction]


def split_arcs_by_pair(family: CurveFamily, i: int, j: int,
                       A: Set[int], B: Set[int], cell: int) -> List[SubArc]:
    """Cut every curve of A and B at its contacts with the ground pair and
    keep the pieces lying inside the closure of the given cell."""
    gi, gj = family.curve(i), family.curve(j)
    arr = pair_arrangement(family, i, j)
    if cell < 0 or cell >= arr.F:
        raise PreconditionError(f"no face {cell} in the pair arrangement")

    out: List[SubArc] = []
    next_id = 0
    for cid in sorted(set(A) | set(B)):
        if cid in (i, j):
            raise PreconditionError("ground curves cannot be split members")
        c = family.curve(cid)
        ground = gi if cid in A else gj
        incs_g = curve_pair_incidences(c, ground)
        if not (len(incs_g) == 1 and incs_g[0].kind == "tangency"):
            raise PreconditionError(
                f"curve {cid} does not touch its ground curve {ground.id}")
        cuts: Dict[Fraction, Point] = {}
        for g in (gi, gj):
            for inc in curve_pair_incidences(c, g):
                cuts[inc.s_on(cid)] = inc.point
        for lo, hi in split_curve_at(c, list(cuts)):
            loop = c.closed and hi - lo == c.n_segments
            mid = (lo + hi) / 2
            probe = chain_point(c, mid)
            try:
                where = locate_cell(arr, probe)
            except OnCurveError:
                raise DegeneracyError(
                    f"curve {cid} runs along the ground pair") from None
            if where != cell:
                continue
            if loop:
                shift = int(lo)
                check(lo == shift, "loop piece must start at a polyline vertex")
                pts = c.points[shift:] + c.points[:shift]
                geom = Curve(id=next_id, points=pts, closed=True)
                kinds: Tuple[str, ...] = ()
                cut_pts = (cuts[lo],) if lo in cuts else ()
            else:
                geom = Curve(id=next_id, points=curve_portion(c, lo, hi),
                             closed=False)
                hi_n = hi % c.n_segments if c.closed else hi
                kinds = tuple("on_boundary" if s in cuts else "free"
                              for s in (lo, hi_n))
                cut_pts = tuple(cuts[s] for s in (lo, hi_n) if s in cuts)
            out.append(SubArc(parent=cid, geometry=geom, endpoint_kinds=kinds,
                              cut_points=cut_pts, interval=(lo, hi)))
            next_id += 1
    return out

