"""Planar arrangement of a curve set as a half-edge structure, built on
the plane skeleton (plane_skeleton) that the separator graph shares.

Vertices are contact points (crossings and tangencies), arc endpoints,
which rest on no other curve, and one anchor per otherwise vertex-free
closed curve. Edges are the curve portions between consecutive vertices
along each curve. Face cycles keep their face on the LEFT of the walk
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegeneracyError, OnCurveError, PreconditionError, check
from .geometry import (Curve, CurveFamily, Point, angle_cmp, angle_key,
                       coordinate_scale, germs, lift, lift_point, on_polyline,
                       signed_area2, winding_parity)
from .incidence import (FamilyIncidences, catalogue, mixed_contacts,
                        sub_family)

# the unbounded face's id in every Arrangement
UNBOUNDED_FACE = 0


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


def _germs(c: Curve, s: Fraction):
    """The integer directions, on c's grid, in which c leaves the point at
    chain parameter s, forward and backward: inside a segment, plus and
    minus its direction; at a vertex, toward the next and previous one. An
    arc's end reads its one segment, of which one direction is real."""
    g = c.grid
    k, r = divmod(s.numerator, s.denominator)
    if not r and (c.closed or 0 < k < c.n_segments):
        return germs(g, k, c.closed)
    k -= k == c.n_segments
    (x, y), (fx, fy) = g[k], g[(k + 1) % len(g)]
    return (fx - x, fy - y), (x - fx, y - fy)


def plane_skeleton(curves: Sequence[Curve], contacts: FamilyIncidences,
                   anchored: bool):
    """The plane graph the curves draw: vertex ids, each curve's chain of
    them, and the rotation system.

    A curve stops at its contacts in chain order. With anchored (the
    separator graph) it also carries a virtual anchor first in its chain;
    without (the arrangement) an arc also stops at its ends, and a closed
    curve with no contact at 0. Vertices are the anchors by curve id, then
    the stop points as first met on the curves by id, each in chain order:
    a contact is numbered by (smaller curve id, parameter on it), not by
    its coordinates, so a map that keeps the catalogue keeps the
    numbering, and with anchored a sub-family's is its parent's, filtered.
    Edge i joins consecutive stops, cyclically on a closed curve, and
    half-edge 2i runs forward along it. Returns the stops as (parameter,
    point) pairs, the chains, the half-edge origins, and each vertex's
    half-edges counterclockwise (angle_key) by the curves' germs, an
    anchor's by any two; DegeneracyError when two leave a vertex in one
    direction."""
    stops = []
    for c in curves:
        got = [(inc.s_on(c.id), inc.point) for inc in contacts.on_curve(c.id)]
        if not (anchored or c.closed):
            got = [(Fraction(0), c.points[0]), *got,
                   (Fraction(c.n_segments), c.points[-1])]
        elif not (anchored or got):
            got = [(Fraction(0), c.points[0])]
        stops.append(got)
    base = len(curves) if anchored else 0
    index: Dict[Point, int] = {}
    for _, got in sorted(zip((c.id for c in curves), stops)):
        for _, p in got:
            index.setdefault(p, base + len(index))
    anchor = {cid: k for k, cid in enumerate(sorted(c.id for c in curves))}
    chains, origins, dirs = [], [], []
    for c, got in zip(curves, stops):
        chain = [index[p] for _, p in got]
        gs = [_germs(c, s) for s, _ in got]
        if anchored:
            chain.insert(0, anchor[c.id])
            gs.insert(0, ((1, 0), (-1, 0)))
        chains.append(tuple(chain))
        for k in range(len(chain) if c.closed and got else len(chain) - 1):
            k1 = (k + 1) % len(chain)
            origins += (chain[k], chain[k1])
            dirs += (gs[k][0], gs[k1][1])
    out: List[List[int]] = [[] for _ in range(base + len(index))]
    for h, v in enumerate(origins):
        out[v].append(h)
    for v, hs in enumerate(out):
        hs.sort(key=lambda h: angle_key(dirs[h]))
        if any(angle_cmp(dirs[a], dirs[b]) == 0 for a, b in zip(hs, hs[1:])):
            raise DegeneracyError(f"coincident edge directions at vertex {v}")
    return stops, tuple(chains), origins, out


def _assemble(curves: Sequence[Curve], contacts: FamilyIncidences) -> Arrangement:
    stops, _, _, out = plane_skeleton(curves, contacts, anchored=False)

    # the integer view: a grid fine enough that every curve vertex and every
    # arrangement vertex is a lattice point
    scale = lcm(coordinate_scale(curves),
                *(v.denominator for got in stops for _, p in got
                  for v in (p.x, p.y)))
    curve_pts = [c.lifted(scale) for c in curves]

    # half-edges in the skeleton's order, each a chain of lattice points
    half_edges: List[List[Tuple[int, int]]] = []
    for c, ipts, got in zip(curves, curve_pts, stops):
        keys = lift((p for _, p in got), scale)
        ss = [s for s, _ in got]
        # a closed curve's last span runs across the seam
        ends = ss[1:] + [ss[0] + c.n_segments] if c.closed else ss[1:]
        for s0, s1, ka, kb in zip(ss, ends, keys, keys[1:] + keys[:1]):
            # the vertices of c strictly between s0 and s1
            inner = [k % len(ipts) for k in range(int(s0) + 1, ceil(s1))]
            chain = [ka, *(ipts[k] for k in inner), kb]
            half_edges.extend([chain, chain[::-1]])

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
    between them in the family's catalogue. Two closed curves make at most
    m + 2 faces; open-arc pairs are measured, not constrained."""
    pair = sub_family(family, (i, j))
    arr = _assemble(pair.curves, pair.incidences)
    check(not all(c.closed for c in pair.curves) or arr.F <= family.m + 2,
          f"pair ({i},{j}): {arr.F} cells exceeds m+2={family.m + 2}")
    return arr


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
