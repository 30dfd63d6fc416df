"""Planar arrangement of a curve set as a half-edge structure.

Vertices are contact points (crossings and tangencies), arc endpoints,
which rest on no other curve, and one anchor per otherwise vertex-free
closed curve. Edges are the curve portions between consecutive vertices
along each curve. Face cycles keep their face on the LEFT of the walk
direction; the boundary_edge_cycle query re-orients walks so the face
interior is on the right, matching the tracing convention the signature
machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegeneracyError, OnCurveError, PreconditionError, check
from .geometry import (Curve, CurveFamily, Point, angle_cmp, angle_key,
                       coordinate_scale, lift, lift_point, on_polyline,
                       signed_area2, winding_parity)
from .incidence import (FamilyIncidences, catalogue, mixed_contacts,
                        sub_family)

# the unbounded face's id in every Arrangement
UNBOUNDED_FACE = 0


def chain_point(c: Curve, s: Fraction) -> Point:
    """Point at chain parameter s (segment index + in-segment fraction),
    read on c's own grid g: k + p/q lies at (g[k] q + p (g[k+1] - g[k]))
    / (q grid_scale)."""
    q = s.denominator
    k, p = divmod(s.numerator, q)
    if c.closed:
        k %= c.n_segments
    elif k == c.n_segments:
        return c.points[-1]
    g, d = c.grid, q * c.grid_scale
    (x0, y0), (x1, y1) = g[k], g[(k + 1) % len(g)]
    return Point(Fraction(x0 * q + p * (x1 - x0), d),
                 Fraction(y0 * q + p * (y1 - y0), d))


def curve_portion(c: Curve, s0: Fraction, s1: Fraction) -> Tuple[Point, ...]:
    """Polyline of c from parameter s0 to s1 (s0 < s1; a closed curve reads
    both modulo its segment count, and s1 - s0 is at most one full turn)."""
    hn, hd = s1.numerator, s1.denominator
    if not s0.numerator * hd < hn * s0.denominator:
        raise ValueError("need s0 < s1")
    pts = c.points
    inner = range(s0.numerator // s0.denominator + 1, -(-hn // hd))
    return (chain_point(c, s0), *(pts[k % len(pts)] for k in inner),
            chain_point(c, s1))


def split_curve_at(c: Curve, params: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Chain-parameter intervals of the pieces of c cut at params.

    Open: pieces cover [0, n_seg]. Closed with k >= 1 cuts: k wrap-around
    intervals; the piece spanning the seam has hi = lo' + n_seg.
    """
    ps = sorted(set(params))
    n = Fraction(c.n_segments)
    if not c.closed:
        ps = [Fraction(0)] + [p for p in ps if 0 < p < n] + [n]
        return list(zip(ps, ps[1:]))
    return list(zip(ps, ps[1:] + [ps[0] + n])) if ps else [(Fraction(0), n)]


@dataclass(frozen=True)
class Face:
    id: int
    cycles: Tuple[Tuple[int, ...], ...]  # face on left; bounded: outer first
    interior: Optional[Point] = None  # a point strictly inside (bounded faces)


class Arrangement:
    """Immutable after construction; all queries are read-only.

    Point location runs on the integer view: every curve (Curve.lifted) and
    face cycle lifted onto the grid of step 1/scale, where each vertex is a
    lattice point. half_edges is the half-edge table on that grid:
    half_edges[h] is half-edge h's chain of lattice points, origin first,
    and half-edges 2i and 2i + 1 are twins, one chain the other reversed.
    """

    def __init__(self, curves, half_edges, faces, scale, cycle_polygons):
        self.curves: Tuple[Curve, ...] = tuple(curves)
        self.half_edges: List[List[Tuple[int, int]]] = half_edges
        self.faces: List[Face] = faces
        self.scale: int = scale
        self._cycle_polygons: Dict[Tuple[int, ...], List[Tuple[int, int]]] = cycle_polygons

    @property
    def F(self) -> int:
        return len(self.faces)


def rotation_order(origins: Sequence[int], dirs: Sequence[Tuple[int, int]],
                   nv: int) -> List[List[int]]:
    """The rotation system of a graph drawn on vertices 0..nv-1, half-edge
    h leaving origins[h] in integer direction dirs[h]: each vertex's
    half-edges counterclockwise from +x (angle_key). DegeneracyError when
    two leave a vertex in one direction."""
    out: List[List[int]] = [[] for _ in range(nv)]
    for h, v in enumerate(origins):
        out[v].append(h)
    for v, hs in enumerate(out):
        hs.sort(key=lambda h: angle_key(dirs[h]))
        if any(angle_cmp(dirs[a], dirs[b]) == 0 for a, b in zip(hs, hs[1:])):
            raise DegeneracyError(f"coincident edge directions at vertex {v}")
    return out


def face_walk(out: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The face cycles of a rotation system, its half-edges in twin pairs
    2i, 2i + 1 and out[v] v's half-edges counterclockwise: the orbits, by
    first half-edge, of the walk with its face on the left."""
    nxt = [0] * sum(map(len, out))
    for hs in out:
        for k, h in enumerate(hs):
            nxt[h ^ 1] = hs[k - 1]   # in along h's twin, out clockwise of h
    cycles: List[Tuple[int, ...]] = []
    seen = [False] * len(nxt)
    for h in range(len(nxt)):
        cyc = []
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = nxt[h]
        if cyc:
            cycles.append(tuple(cyc))
    return cycles


def _assemble(curves: Sequence[Curve], contacts: FamilyIncidences) -> Arrangement:
    curves = tuple(curves)

    # chain parameters carrying a vertex, per curve
    param_points: Dict[int, Dict[Fraction, Point]] = {}
    for c in curves:
        got: Dict[Fraction, Point] = {}
        for inc in contacts.on_curve(c.id):
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
    curve_pts = [c.lifted(scale) for c in curves]

    # the vertices' lattice points, numbered in sorted order for determinism
    at = set()
    vkey: Dict[int, Dict[Fraction, Tuple[int, int]]] = {}
    for cid, got in param_points.items():
        keys = lift(got.values(), scale)
        vkey[cid] = dict(zip(got, keys))
        at.update(keys)
    vid_of: Dict[Tuple[int, int], int] = {key: i for i, key in enumerate(sorted(at))}

    half_edges: List[List[Tuple[int, int]]] = []
    for c, ipts in zip(curves, curve_pts):
        keys = vkey[c.id]
        for s0, s1 in split_curve_at(c, list(keys)):
            # a closed curve's last piece ends past the seam
            ka, kb = keys[s0], keys[s1 % c.n_segments if c.closed else s1]
            # the vertices of c strictly between s0 and s1
            inner = [k % len(ipts) for k in range(int(s0) + 1, ceil(s1))]
            chain = [ka, *(ipts[k] for k in inner), kb]
            half_edges.extend([chain, chain[::-1]])

    out = rotation_order([vid_of[g[0]] for g in half_edges],
                         [(g[1][0] - g[0][0], g[1][1] - g[0][1])
                          for g in half_edges], len(vid_of))
    cycles = face_walk(out)

    polygons: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    areas: Dict[Tuple[int, ...], int] = {}
    for cyc in cycles:
        poly: List[Tuple[int, int]] = []
        for hid in cyc:
            poly.extend(half_edges[hid][:-1])
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
    faces.append(Face(id=UNBOUNDED_FACE, cycles=tuple(orphan)))
    for o in sorted(outers, key=min):
        holes = sorted(holes_of[o], key=min)
        # interior probe: the midpoint of the first edge pushed along its left
        # normal, where the face lies, by 2^-k of the normal for k = 1, 2, ...
        (ax, ay), (bx, by) = half_edges[o[0]][0], half_edges[o[0]][1]
        for k in range(1, 257):
            q = (((ax + bx) << (k - 1)) + ay - by, ((ay + by) << (k - 1)) + bx - ax,
                 1 << k)
            inside = (not any(on_polyline(q, pts, c.closed)
                              for c, pts in zip(curves, curve_pts))
                      and winding_parity(q, polygons[o])
                      and not any(winding_parity(q, polygons[h])
                                  for h in holes))
            if inside:
                break
        check(inside, "interior probe did not converge")
        d = q[2] * scale
        faces.append(Face(id=len(faces), cycles=(o,) + tuple(holes),
                          interior=Point(Fraction(q[0], d), Fraction(q[1], d))))

    return Arrangement(curves, half_edges, faces, scale, polygons)


def build_arrangement(family: CurveFamily) -> Arrangement:
    """Arrangement of a validated family (strict contact model)."""
    return _assemble(family.curves, catalogue(family))


def build_mixed_arrangement(curves: Sequence[Curve]) -> Arrangement:
    """Arrangement of an ad-hoc set of open and closed curves, from their
    catalogue (incidence.mixed_contacts)."""
    if len({c.id for c in curves}) != len(curves):
        raise PreconditionError("curves must have distinct ids")
    return _assemble(curves, mixed_contacts(curves))


def pair_arrangement(family: CurveFamily, i: int, j: int) -> Arrangement:
    """Arrangement of curves i and j of the family, from the contacts
    between them in the family's catalogue."""
    pair = sub_family(family, (i, j))
    return _assemble(pair.curves, pair.incidences)


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
    for c in arr.curves:
        if on_polyline(q, c.lifted(arr.scale), c.closed):
            raise OnCurveError(f"point {p} lies on curve {c.id}")
    polygons = arr._cycle_polygons
    hit = None
    for f in arr.faces[1:]:  # the bounded faces: the unbounded one is first
        outer, *holes = f.cycles
        if (winding_parity(q, polygons[outer])
                and not any(winding_parity(q, polygons[h]) for h in holes)):
            check(hit is None, "point claimed by two faces")
            hit = f.id
    return UNBOUNDED_FACE if hit is None else hit


def boundary_edge_cycle(arr: Arrangement, face_id: int) -> Tuple[Tuple[int, ...], ...]:
    """Boundary walks of a face with the interior kept on the RIGHT.

    Labels are the face's own half-edge ids; an edge bordering the face on
    both sides contributes two labels. One tuple per boundary component
    (simply bounded faces yield exactly one).
    """
    f = arr.faces[face_id]
    return tuple(tuple(reversed(cyc)) for cyc in f.cycles)
