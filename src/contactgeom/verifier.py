"""Ground-pair sampling, boundary signatures, and the charging argument.

The sampling side draws a random pair of curves, partitions the arcs
touching them, and measures how many cross-touchings land in the richest
cell of the two-curve arrangement. The signature side works inside a face
of an arrangement of a small arc set: each surrounding arc is fingerprinted
by the cyclic list of boundary edges where its touchings sit, and two arcs
with an identical fingerprint are driven through the alternating/hat edge
charging that certifies a quota of genuine intersections between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import ConstructionError, PreconditionError, check
from .geometry import Curve, CurveFamily, Point, midpoint, segment_intersection
from .graphs import SimpleGraph, max_common_neighborhood
from .incidence import (FamilyIncidences, compute_incidences,
                        curve_pair_incidences, is_touching_pair)
from .arrangement import (UNBOUNDED_FACE, Arrangement, SubArc,
                          boundary_edge_cycle, build_mixed_arrangement,
                          chain_param, curve_portion, locate_cell,
                          pair_arrangement, split_arcs_by_pair)


# ---------------------------------------------------------------- sampling

@dataclass(frozen=True)
class RichPoorReport:
    threshold: Fraction
    poor_arcs: frozenset
    T_poor: int
    T_rich: int


def rich_poor_partition(family: CurveFamily,
                        fi: Optional[FamilyIncidences] = None) -> RichPoorReport:
    """Split arcs by whether they carry at least T/(1000n) touchings."""
    if fi is None:
        fi = compute_incidences(family)
    touching = fi.touching_pairs()
    T = len(touching)
    if T < 1:
        raise PreconditionError("rich/poor split needs at least one touching")
    per_arc: Dict[int, int] = {c.id: 0 for c in family}
    for a, b in touching:
        per_arc[a] += 1
        per_arc[b] += 1
    threshold = Fraction(T, 1000 * family.n)
    poor = frozenset(cid for cid, k in per_arc.items() if k < threshold)
    T_poor = sum(1 for a, b in touching if a in poor or b in poor)
    T_rich = T - T_poor
    check(T_poor + T_rich == T, "rich and poor touchings do not sum to T")
    check(1000 * T_poor <= T, "poor arcs carry too many touchings")
    return RichPoorReport(threshold=threshold, poor_arcs=poor,
                          T_poor=T_poor, T_rich=T_rich)


@dataclass(frozen=True)
class GroundPairSample:
    gamma1: int
    gamma2: int
    A: frozenset
    B: frozenset
    X_shared: frozenset
    delta: int
    t_star: int
    t_star_in_delta: int
    t_prime: int


def _ground_pairs(family: CurveFamily, fi: Optional[FamilyIncidences]):
    """(catalogue, touching adjacency, candidate ground pairs) of a family:
    the adjacency maps a curve id to the ids it touches, and the catalogue
    is computed when fi is None."""
    if family.n < 2:
        raise PreconditionError("need at least two curves")
    if fi is None:
        fi = compute_incidences(family)
    touching: Dict[int, Set[int]] = {}
    for a, b in fi.touching_pairs():
        touching.setdefault(a, set()).add(b)
        touching.setdefault(b, set()).add(a)
    return fi, touching, list(combinations(sorted(c.id for c in family), 2))


class _PairContext:
    """Per-ground-pair data reused across coin assignments; `touching` is
    the adjacency from _ground_pairs, built once per call. The pair
    arrangement is built only when a touching of T* has to be located."""

    def __init__(self, family: CurveFamily, fi: FamilyIncidences,
                 touching: Dict[int, Set[int]], g1: int, g2: int):
        self.family, self.fi = family, fi
        self.g1, self.g2 = g1, g2
        A = self.A_prime = frozenset(touching.get(g1, ())) - {g2}
        B = self.B_prime = frozenset(touching.get(g2, ())) - {g1}
        self.shared = tuple(sorted(A & B))
        self.t_prime_pairs = tuple(
            (a, b) for a in sorted(A | B) for b in sorted(touching[a])
            if a < b and ((a in A and b in B) or (a in B and b in A)))
        self._touch_point = {pair: fi.between(*pair)[0].point
                             for pair in self.t_prime_pairs}
        self._arr: Optional[Arrangement] = None
        self._face_of: Dict[Point, int] = {}

    def face_of_touch(self, pair: Tuple[int, int]) -> int:
        p = self._touch_point[pair]
        if p not in self._face_of:
            if self._arr is None:
                self._arr = pair_arrangement(self.family, self.g1, self.g2,
                                             self.fi)
            self._face_of[p] = locate_cell(self._arr, p)
        return self._face_of[p]

    def resolve(self, to_A: Set[int]) -> GroundPairSample:
        """Finish the sample for one assignment of the doubly-touching arcs."""
        A = frozenset((self.A_prime - self.B_prime) | to_A)
        B = frozenset((self.B_prime - self.A_prime)
                      | (set(self.shared) - to_A))
        star = [pair for pair in self.t_prime_pairs
                if ((pair[0] in A and pair[1] in B)
                    or (pair[0] in B and pair[1] in A))]
        counts: Dict[int, int] = {}
        for pair in star:
            f = self.face_of_touch(pair)
            counts[f] = counts.get(f, 0) + 1
        if counts:
            best = max(counts.values())
            delta = min(f for f, k in counts.items() if k == best)
            in_delta = best
        else:
            delta = UNBOUNDED_FACE
            in_delta = 0
        sample = GroundPairSample(
            gamma1=self.g1, gamma2=self.g2, A=A, B=B,
            X_shared=frozenset(self.shared), delta=delta,
            t_star=len(star), t_star_in_delta=in_delta,
            t_prime=len(self.t_prime_pairs))
        check(not (sample.A & sample.B), "A and B share an arc")
        check(sample.A <= self.A_prime and sample.B <= self.B_prime,
              "A or B holds an arc touching neither ground curve")
        check(sample.A | sample.B == self.A_prime | self.B_prime,
              "A and B miss an arc touching a ground curve")
        check(sample.t_star_in_delta <= sample.t_prime,
              "more touchings in delta than in T'")
        return sample


def sample_ground_pair(family: CurveFamily, seed: int,
                       fi: Optional[FamilyIncidences] = None) -> GroundPairSample:
    """One random draw: uniform pair, fair coin per doubly-touching arc."""
    fi, touching, pairs = _ground_pairs(family, fi)
    rng = random.Random(seed)
    g1, g2 = pairs[rng.randrange(len(pairs))]
    ctx = _PairContext(family, fi, touching, g1, g2)
    to_A = {c for c in ctx.shared if rng.randrange(2) == 0}
    return ctx.resolve(to_A)


@dataclass(frozen=True)
class ExhaustiveGroundReport:
    samples: int
    mean_t_star: Fraction
    mean_t_star_in_delta: Fraction
    mean_t_prime: Fraction


def enumerate_ground_pairs(family: CurveFamily) -> ExhaustiveGroundReport:
    """Exact expectations over every pair choice and every coin vector.

    Each pair contributes the average over its 2^s coin assignments, then
    pairs are averaged uniformly, matching the two-stage random draw.
    """
    fi, touching, pairs = _ground_pairs(family, None)
    pair_stars: List[Fraction] = []
    pair_deltas: List[Fraction] = []
    pair_primes: List[Fraction] = []
    for g1, g2 in pairs:
        ctx = _PairContext(family, fi, touching, g1, g2)
        stars = 0
        deltas = 0
        s = len(ctx.shared)
        for mask in range(1 << s):
            to_A = {ctx.shared[i] for i in range(s) if mask >> i & 1}
            sample = ctx.resolve(to_A)
            stars += sample.t_star
            deltas += sample.t_star_in_delta
        pair_stars.append(Fraction(stars, 1 << s))
        pair_deltas.append(Fraction(deltas, 1 << s))
        pair_primes.append(Fraction(len(ctx.t_prime_pairs)))
    k = len(pair_stars)
    return ExhaustiveGroundReport(
        samples=k,
        mean_t_star=sum(pair_stars) / k,
        mean_t_star_in_delta=sum(pair_deltas) / k,
        mean_t_prime=sum(pair_primes) / k)


def monte_carlo_ground(family: CurveFamily, trials: int, seed: int,
                       fi: Optional[FamilyIncidences] = None) -> dict:
    """Repeated random draws, summarized for the JSON report."""
    if trials < 1:
        raise PreconditionError("need at least one trial")
    fi, touching, pairs = _ground_pairs(family, fi)
    ctxs: Dict[Tuple[int, int], _PairContext] = {}
    rng = random.Random(seed)
    seen: Dict[str, List[int]] = {"t_star": [], "t_star_in_delta": [],
                                  "t_prime": []}
    for _ in range(trials):
        g = pairs[rng.randrange(len(pairs))]
        if g not in ctxs:
            ctxs[g] = _PairContext(family, fi, touching, g[0], g[1])
        ctx = ctxs[g]
        to_A = {c for c in ctx.shared if rng.randrange(2) == 0}
        sample = ctx.resolve(to_A)
        seen["t_star"].append(sample.t_star)
        seen["t_star_in_delta"].append(sample.t_star_in_delta)
        seen["t_prime"].append(sample.t_prime)

    def stat(xs: List[int]) -> dict:
        mean = Fraction(sum(xs), len(xs))
        return {"mean": float(mean), "mean_exact": str(mean),
                "min": min(xs), "max": max(xs)}

    return {"seed": seed, "trials": trials,
            "t_star": stat(seen["t_star"]),
            "t_star_in_delta": stat(seen["t_star_in_delta"]),
            "t_prime": stat(seen["t_prime"])}


# ------------------------------------------------------------- signatures

def free_arc(arc_id: int, points: Sequence[Point],
             closed: bool = False) -> SubArc:
    """Wrap a bare polyline as an arc with unconstrained endpoints."""
    geom = Curve(id=arc_id, points=tuple(points), closed=closed)
    kinds = () if closed else ("free", "free")
    return SubArc(parent=arc_id, geometry=geom, endpoint_kinds=kinds,
                  cut_points=(),
                  interval=(Fraction(0), Fraction(geom.n_segments)))


@dataclass(frozen=True)
class CircularSignature:
    arc: int
    sequence: Tuple[int, ...]

    def rotations(self) -> Tuple[Tuple[int, ...], ...]:
        s = self.sequence
        return tuple(s[i:] + s[:i] for i in range(len(s)))


def _canon(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def _vec(a: Point, b: Point) -> Point:
    return Point(b.x - a.x, b.y - a.y)


def _left_of_wedge(u: Point, v: Point, w: Point) -> bool:
    """Is displacement w strictly on the left of the oriented kink (u, v)?

    u is the incoming and v the outgoing direction; a straight angle reduces
    to one half-plane test, a convex left kink to an intersection of two, a
    reflex one to a union.
    """
    cu = u.x * w.y - u.y * w.x
    cv = v.x * w.y - v.y * w.x
    turn = u.x * v.y - u.y * v.x
    if turn > 0:
        return cu > 0 and cv > 0
    if turn < 0:
        return cu > 0 or cv > 0
    return cu > 0


def _polyline_position(g: Tuple[Point, ...], p: Point):
    """(chain param, incoming dir, outgoing dir) of p on polyline g, or None.

    A missing direction (p at the polyline's first or last point) is None.
    """
    s = chain_param(g, p)
    if s is None:
        return None
    k = int(s)
    if s != k:
        d = _vec(g[k], g[k + 1])
        return s, d, d
    u = None if k == 0 else _vec(g[k - 1], g[k])
    v = None if k == len(g) - 1 else _vec(g[k], g[k + 1])
    return s, u, v


class FaceContext:
    """A face of the arrangement of a small arc set, with its boundary walk
    oriented so that the face interior stays on the right.

    The input arcs are ordered by geometry id before assembly, so half-edge
    labels do not depend on the caller's input order.
    """

    def __init__(self, lambda1: Sequence[SubArc], face: int):
        self.lambda1 = tuple(sorted(lambda1, key=lambda sa: sa.geometry.id))
        if len({sa.geometry.id for sa in self.lambda1}) != len(self.lambda1):
            raise PreconditionError("surrounding arcs must have distinct ids")
        self.arrangement = build_mixed_arrangement(
            [sa.geometry for sa in self.lambda1])
        if face < 0 or face >= self.arrangement.F:
            raise PreconditionError(f"no face {face} in the arrangement")
        self.face = face
        walks = boundary_edge_cycle(self.arrangement, face)
        if len(walks) != 1:
            raise PreconditionError(
                f"face {face} has {len(walks)} boundary components; need one")
        self.walk: Tuple[int, ...] = walks[0]
        self._step: Dict[int, int] = {h: i for i, h in enumerate(self.walk)}

    def boundary_position(self, p: Point, approach: Sequence[Point]):
        """(walk step, within-step order, label) of boundary point p.

        approach holds the polyline neighbours of p on the touching arc;
        they pick the side label when both sides of an edge border the face.
        The stored half-edge geometry keeps the face on its left, so the
        arc must sit strictly left of the stored wedge at p. An arc leaving
        p collinearly with the boundary cannot be sided and is rejected.
        """
        if not approach:
            raise PreconditionError(f"no approach directions at {p}")
        candidates = []
        for label in self.walk:
            g = self.arrangement.half_edges[label].geometry
            pos = _polyline_position(g, p)
            if pos is None:
                continue
            s_stored, u, v = pos
            if u is None or v is None:
                raise PreconditionError(
                    f"touching at arrangement vertex {p} is not supported")
            if all(_left_of_wedge(u, v, _vec(p, q)) for q in approach):
                candidates.append((label, s_stored))
        if not candidates:
            raise PreconditionError(
                f"touch point {p} is not on the face-side boundary")
        if len(candidates) > 1:
            raise PreconditionError(
                f"touch point {p} is ambiguous between boundary sides")
        label, s_stored = candidates[0]
        # the walk traverses stored geometry backwards: larger params first
        return (self._step[label], -s_stored, label)


def _touch_points_on(lam: SubArc,
                     lambda1: Sequence[SubArc]) -> Dict[int, Point]:
    """Surrounding arc id -> the single touching point with lam."""
    out = {}
    for mu in lambda1:
        incs = curve_pair_incidences(lam.geometry, mu.geometry)
        if len(incs) != 1 or incs[0].kind != "tangency":
            raise PreconditionError(
                f"arc {lam.geometry.id} does not touch arc {mu.geometry.id}")
        out[mu.geometry.id] = incs[0].point
    return out


def _approach_points(c: Curve, p: Point) -> List[Point]:
    """Polyline neighbours of p on c; p must be a vertex of c."""
    pts = c.points
    n = len(pts)
    for i, q in enumerate(pts):
        if q != p:
            continue
        if c.closed:
            return [pts[(i - 1) % n], pts[(i + 1) % n]]
        out = []
        if i > 0:
            out.append(pts[i - 1])
        if i + 1 < n:
            out.append(pts[i + 1])
        return out
    raise PreconditionError(f"{p} is not a vertex of curve {c.id}")


def _signature_keyed(ctx: FaceContext, lam: SubArc):
    """Canonical label sequence plus per-label walk keys and touch points."""
    touches = _touch_points_on(lam, ctx.lambda1)
    keyed = []
    point_of: Dict[int, Point] = {}
    for mu_id, p in touches.items():
        key = ctx.boundary_position(p, _approach_points(lam.geometry, p))
        keyed.append(key)
        point_of[key[2]] = p
    keyed.sort()
    seq = tuple(key[2] for key in keyed)
    if len(set(seq)) != len(seq):
        raise PreconditionError(
            f"arc {lam.geometry.id} touches one boundary edge twice")
    pos = {key[2]: key for key in keyed}
    return _canon(seq), pos, point_of


def circular_signature(F: int, lambda1: Sequence[SubArc], lam: SubArc,
                       context: Optional[FaceContext] = None
                       ) -> CircularSignature:
    """Cyclic list of the face-boundary edges carrying lam's touchings, in
    walk order, rotated to start at the least label."""
    ctx = context if context is not None else FaceContext(lambda1, F)
    check(ctx.face == F, f"context is for face {ctx.face}, not {F}")
    seq, _, _ = _signature_keyed(ctx, lam)
    return CircularSignature(arc=lam.geometry.id, sequence=seq)


@dataclass(frozen=True)
class UniquenessReport:
    distinct: bool
    colliding: Tuple[Tuple[int, int], ...]
    reflection_colliding: Tuple[Tuple[int, int], ...]


def verify_signature_uniqueness(F: int, lambda1: Sequence[SubArc],
                                lambdaF: Sequence[SubArc],
                                context: Optional[FaceContext] = None
                                ) -> UniquenessReport:
    """Pairwise-compare signatures up to rotation; reflection matches are
    reported on the side, not counted as collisions."""
    ctx = context if context is not None else FaceContext(lambda1, F)
    sigs = [circular_signature(F, lambda1, lam, context=ctx)
            for lam in lambdaF]
    colliding = []
    reflecting = []
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            # canonical forms make rotation equality plain equality
            if sigs[i].sequence == sigs[j].sequence:
                colliding.append((sigs[i].arc, sigs[j].arc))
            elif _canon(tuple(reversed(sigs[i].sequence))) == sigs[j].sequence:
                reflecting.append((sigs[i].arc, sigs[j].arc))
    return UniquenessReport(distinct=not colliding,
                            colliding=tuple(colliding),
                            reflection_colliding=tuple(reflecting))


# ---------------------------------------------------------------- charging

def _polyline(c: Curve) -> Tuple[Point, ...]:
    """Vertices of c in order; a closed curve repeats its first vertex."""
    return c.points + c.points[:1] if c.closed else c.points


def _meetings(g1: Sequence[Point], g2: Sequence[Point]):
    """segment_intersection of every segment of polyline g1 with every
    segment of polyline g2, g1's segments in the outer loop."""
    for i in range(len(g1) - 1):
        for j in range(len(g2) - 1):
            yield segment_intersection(g1[i], g1[i + 1], g2[j], g2[j + 1])


def _segment_hits(a: Point, b: Point, c: Curve) -> Optional[List[Point]]:
    """Proper crossings of segment ab with curve c; None on dirty contact
    (endpoint touch or collinear overlap)."""
    out = []
    for kind, data in _meetings((a, b), _polyline(c)):
        if kind == "proper":
            out.append(data)
        elif kind != "none":
            return None
    return out


def _route_candidates(ctx: FaceContext, q1: Point, q2: Point):
    """Deterministic via-point menu for the imaginary closing arc, coarse
    routes first, then blends pulled toward the face interior."""
    yield ()
    f = ctx.arrangement.faces[ctx.face]
    pull = f.interior if f.interior is not None else midpoint(q1, q2)
    anchors: List[Point] = [pull, midpoint(q1, q2)]
    for label in ctx.walk:
        g = ctx.arrangement.half_edges[label].geometry
        anchors.append(midpoint(g[0], g[1]))
    for shrink in (Fraction(1), Fraction(1, 2), Fraction(1, 4),
                   Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)):
        for w in anchors:
            yield (Point(w.x + (pull.x - w.x) * (1 - shrink),
                         w.y + (pull.y - w.y) * (1 - shrink)),)
    for shrink in (Fraction(1, 2), Fraction(1, 8)):
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                blend = []
                for w in (anchors[i], anchors[j]):
                    blend.append(Point(w.x + (pull.x - w.x) * (1 - shrink),
                                       w.y + (pull.y - w.y) * (1 - shrink)))
                yield tuple(blend)
                yield tuple(reversed(blend))
    if f.interior is None:
        # the unbounded face also admits detours outside the drawing's bounds
        xs = [q1.x, q2.x]
        ys = [q1.y, q2.y]
        for sa in ctx.lambda1:
            for p in sa.geometry.points:
                xs.append(p.x)
                ys.append(p.y)
        margin = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
        for level in (min(ys) - margin, max(ys) + margin):
            yield (Point(q1.x, level),)
            yield (Point(q2.x, level),)
            yield (Point(q1.x, level), Point(q2.x, level))
        for level in (min(xs) - margin, max(xs) + margin):
            yield (Point(level, q1.y),)
            yield (Point(level, q2.y),)
            yield (Point(level, q1.y), Point(level, q2.y))


def _close_arc(ctx: FaceContext, lam: SubArc, other: Curve,
               forbidden: Set[Point]):
    """Join lam's free endpoints by an imaginary polyline inside the face.

    Returns (closed curve, imaginary chain-parameter interval); an already
    closed arc comes back unchanged with interval None. The imaginary part
    must not meet the surrounding arcs, may meet lam's own real part only
    at the two junctions, and must cross `other` transversally while
    avoiding every point in `forbidden`.
    """
    g = lam.geometry
    if g.closed:
        return g, None
    q_end, q_start = g.points[-1], g.points[0]
    lam1_curves = [sa.geometry for sa in ctx.lambda1]

    def crossings_with_other(path) -> Optional[List[Point]]:
        """Proper crossings of path with `other`; None when the path leaves
        the face, grazes its boundary, touches `other` or meets lam away
        from the two junctions."""
        out: List[Point] = []
        for a, b in zip(path, path[1:]):
            if any(_segment_hits(a, b, mu) != [] for mu in lam1_curves):
                return None
            hits = _segment_hits(a, b, other)
            if hits is None:
                return None
            out.extend(hits)
            if any(kind != "none"
                   and not (kind == "endpoint" and data in (q_end, q_start))
                   for kind, data in _meetings((a, b), g.points)):
                return None
        return out

    for via in _route_candidates(ctx, q_end, q_start):
        path = (q_end,) + tuple(via) + (q_start,)
        if any(path[i] == path[i + 1] for i in range(len(path) - 1)):
            continue
        crossings = crossings_with_other(path)
        if crossings is None or any(p in forbidden for p in crossings):
            continue
        try:
            closed = Curve(id=g.id, points=g.points + tuple(via), closed=True)
        except Exception:
            continue
        return closed, (Fraction(g.n_segments), Fraction(closed.n_segments))
    raise ConstructionError(
        f"no valid imaginary closure for arc {g.id} at any routing refinement")


def _piece_intersections(c1: Curve, lo1: Fraction, hi1: Fraction,
                         c2: Curve, lo2: Fraction, hi2: Fraction
                         ) -> List[Point]:
    """Intersection points interior to two chain-parameter portions."""
    poly1 = curve_portion(c1, lo1, hi1)
    poly2 = curve_portion(c2, lo2, hi2)
    pts = {data for kind, data in _meetings(poly1, poly2)
           if kind in ("proper", "endpoint")}
    return sorted(pts - {poly1[0], poly1[-1], poly2[0], poly2[-1]})


@dataclass(frozen=True)
class ChargeReport:
    sequence: Tuple[int, ...]
    alt_edges: Tuple[int, ...]
    hat_edges: Tuple[int, ...]
    charges: Tuple[Tuple[int, Point, bool], ...]  # (edge label, point, real)
    real_count: int
    imaginary_count: int


def alt_hat_charging(F: int, lam1: SubArc, lam2: SubArc,
                     sig: CircularSignature,
                     lambda1: Optional[Sequence[SubArc]] = None,
                     context: Optional[FaceContext] = None) -> ChargeReport:
    """Charge every edge of the shared signature to a distinct intersection
    of the two closed-up arcs and count the genuine ones.

    An edge whose two contacts keep the same within-edge order as on the
    next edge is an alt edge and charges the piece pair (k, k); a flipped
    order makes a hat edge, charging against the previous piece of
    whichever arc comes second.
    """
    if context is None:
        if lambda1 is None:
            raise PreconditionError(
                "need the surrounding arcs or a prebuilt context")
        context = FaceContext(lambda1, F)
    ctx = context
    seq = _canon(sig.sequence)
    L = len(seq)
    if L < 2:
        raise PreconditionError("need a shared signature of length >= 2")
    sig1, pos1, pt1 = _signature_keyed(ctx, lam1)
    sig2, pos2, pt2 = _signature_keyed(ctx, lam2)
    if sig1 != seq or sig2 != seq:
        raise PreconditionError("arcs do not share the given signature")

    existing: Set[Point] = set()
    for kind, data in _meetings(_polyline(lam1.geometry),
                                _polyline(lam2.geometry)):
        if kind == "overlap":
            existing.update(data)
        elif kind != "none":
            existing.add(data)
    closed1, imag1 = _close_arc(ctx, lam1, lam2.geometry, existing)
    closed2, imag2 = _close_arc(ctx, lam2, closed1, existing)

    def alignment(closed: Curve, point_of: Dict[int, Point]):
        """Contact params on the closed curve; fails unless the contact
        cycle realizes the signature forwards or backwards."""
        ring = _polyline(closed)
        params = {}
        for lbl, p in point_of.items():
            params[lbl] = chain_param(ring, p)
            if params[lbl] is None:
                raise PreconditionError(f"{p} not on curve {closed.id}")
        cyc = tuple(lbl for _, lbl in sorted(
            (s, lbl) for lbl, s in params.items()))
        if seq in tuple(cyc[i:] + cyc[:i] for i in range(L)):
            return params, True
        rev = tuple(reversed(cyc))
        if seq in tuple(rev[i:] + rev[:i] for i in range(L)):
            return params, False
        raise PreconditionError(
            f"contact order along arc {closed.id} does not realize the "
            "shared signature in either direction")

    params1, fwd1 = alignment(closed1, pt1)
    params2, fwd2 = alignment(closed2, pt2)

    def eta(closed: Curve, params: Dict[int, Fraction], fwd: bool, k: int):
        """Chain interval of the piece between the contacts on seq[k] and
        seq[k+1] that carries no other contact."""
        a, b = params[seq[k]], params[seq[(k + 1) % L]]
        lo, hi = (a, b) if fwd else (b, a)
        if hi <= lo:
            hi += closed.n_segments
        return lo, hi

    def piece_has_imag(interval, imag, nseg) -> bool:
        if imag is None:
            return False
        lo, hi = interval
        for shift in (0, nseg):
            if imag[0] + shift < hi and imag[1] + shift > lo:
                return True
        return False

    # True when lam1's contact comes first along the walk on that edge
    first1 = {lbl: pos1[lbl] < pos2[lbl] for lbl in seq}
    if L == 2 and first1[seq[0]] != first1[seq[1]]:
        # both flipped edges would charge the same complementary piece pair,
        # so the two charges could not be distinct; refuse rather than lie
        raise PreconditionError(
            "length-2 signature with opposite contact orders is not chargeable")

    alt_edges = []
    hat_edges = []
    charges: List[Tuple[int, Point, bool]] = []
    for k in range(L):
        lbl, nxt = seq[k], seq[(k + 1) % L]
        if first1[lbl] == first1[nxt]:
            alt_edges.append(lbl)
            k1 = k2 = k
        else:
            hat_edges.append(lbl)
            if first1[lbl]:
                k1, k2 = k, (k - 1) % L
            else:
                k1, k2 = (k - 1) % L, k
        i1 = eta(closed1, params1, fwd1, k1)
        i2 = eta(closed2, params2, fwd2, k2)
        pts = _piece_intersections(closed1, i1[0], i1[1],
                                   closed2, i2[0], i2[1])
        if not pts:
            raise ConstructionError(
                f"edge {lbl}: piece {k1} of arc {lam1.geometry.id} misses "
                f"piece {k2} of arc {lam2.geometry.id}")
        p = pts[0]
        real = (chain_param(_polyline(lam1.geometry), p) is not None
                and chain_param(_polyline(lam2.geometry), p) is not None)
        if not real:
            check(piece_has_imag(i1, imag1, closed1.n_segments)
                  or piece_has_imag(i2, imag2, closed2.n_segments),
                  "non-real charge on fully real pieces")
        charges.append((lbl, p, real))

    check(len({p for _, p, _ in charges}) == L, "a point was charged twice")
    real_count = sum(1 for _, _, r in charges if r)
    imaginary_count = L - real_count
    check(imaginary_count <= 4, f"{imaginary_count} imaginary charges")
    check(real_count >= L - 4, f"{real_count} real charges of {L}")
    return ChargeReport(sequence=seq, alt_edges=tuple(alt_edges),
                        hat_edges=tuple(hat_edges), charges=tuple(charges),
                        real_count=real_count,
                        imaginary_count=imaginary_count)


# ------------------------------------------------------- biclique absence

@dataclass(frozen=True)
class BicliqueAbsenceReport:
    s: int
    l_observed: int
    biclique_found: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def subarc_contact_graph(arcs: Sequence[SubArc]) -> SimpleGraph:
    ids = tuple(sa.geometry.id for sa in arcs)
    edges = set()
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if is_touching_pair(arcs[i].geometry, arcs[j].geometry):
                edges.add(tuple(sorted((ids[i], ids[j]))))
    return SimpleGraph(vertices=ids, edges=frozenset(edges))


def check_lemma8(family: CurveFamily, delta_context: GroundPairSample,
                 budget: int = 5_000_000) -> BicliqueAbsenceReport:
    """Largest t carried by a complete bipartite contact pattern with m+5
    left arcs, over the pieces clipped to the sampled cell."""
    arcs = split_arcs_by_pair(
        family, delta_context.gamma1, delta_context.gamma2,
        set(delta_context.A), set(delta_context.B), delta_context.delta)
    g = subarc_contact_graph(arcs)
    s = family.m + 5
    t, witness = max_common_neighborhood(g, s, budget=budget)
    return BicliqueAbsenceReport(s=s, l_observed=t, biclique_found=witness)
