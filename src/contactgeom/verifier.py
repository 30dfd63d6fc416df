"""Ground-pair sampling, boundary signatures, and the charging argument.

The sampling side draws a random pair of curves, partitions the arcs
touching them, and measures how many cross-touchings land in the richest
cell of the two-curve arrangement. The signature side works in a face of
the caller's arrangement of surrounding arcs, a FaceContext: each arc in
the face is fingerprinted by the cyclic list of boundary edges where its
touchings sit, and two arcs with an identical fingerprint are driven through
the alternating/hat edge charging that certifies a quota of genuine
intersections between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, islice
from math import isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import (ConstructionError, PreconditionError, ValidationError,
                     check)
from .geometry import (Curve, CurveFamily, Point, Polyline, ccw_between,
                       coordinate_scale, germs, grid_point, lift, lift_point,
                       meeting_key, meetings, on_polyline, segment_param,
                       unlift)
from .graphs import SimpleGraph, contact_graph_from
from .incidence import FamilyIncidences, catalogue, curve_pair_incidences
from .arrangement import (Arrangement, boundary_edge_cycle, locate_cell,
                          pair_arrangement)


# ---------------------------------------------------------------- sampling

@dataclass(frozen=True)
class RichPoorReport:
    threshold: Fraction
    poor_arcs: frozenset
    T_poor: int
    T_rich: int


def rich_poor_partition(family: CurveFamily) -> RichPoorReport:
    """Split arcs by whether they carry at least T/(1000n) touchings."""
    touching = catalogue(family).touching_pairs()
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
    """t_star_in_delta: most touchings of T* in one pair-arrangement face."""
    gamma1: int
    gamma2: int
    A: frozenset
    B: frozenset
    t_star: int
    t_star_in_delta: int
    t_prime: int


def _ground_pairs(family: CurveFamily) -> SimpleGraph:
    """The family's touching graph. The candidate ground pairs are
    combinations(vertices, 2), drawn by rank with _draw_pair."""
    if family.n < 2:
        raise PreconditionError("need at least two curves")
    return contact_graph_from(catalogue(family))


def _pair_at(ids: Sequence[int], k: int) -> Tuple[int, int]:
    """list(combinations(ids, 2))[k] without the list. Row i holds the
    pairs (ids[i], ids[j]), j > i, so the last t rows hold t(t + 1)/2
    pairs; with r pairs after k, k lies in the row just before the last t
    rows for the largest t with t(t + 1)/2 <= r, which isqrt finds."""
    n = len(ids)
    r = n * (n - 1) // 2 - 1 - k
    i = n - 2 - (isqrt(8 * r + 1) - 1) // 2
    return ids[i], ids[k - i * (2 * n - i - 1) // 2 + i + 1]


def _draw_pair(rng: random.Random, ids: Sequence[int]) -> Tuple[int, int]:
    """A uniform ground pair: one rng.randrange over the pair ranks."""
    n = len(ids)
    return _pair_at(ids, rng.randrange(n * (n - 1) // 2))


class _PairContext:
    """Per-ground-pair data reused across coin assignments; `touching` is
    the graph from _ground_pairs, built once per call. The pair
    arrangement is built only when a touching of T* has to be located."""

    def __init__(self, family: CurveFamily, touching: SimpleGraph,
                 g1: int, g2: int):
        self.family = family
        self.g1, self.g2 = g1, g2
        A = self.A_prime = touching.neighbors(g1) - {g2}
        B = self.B_prime = touching.neighbors(g2) - {g1}
        self.shared = tuple(sorted(A & B))
        self.t_prime_pairs = tuple(
            (a, b) for a in sorted(A | B)
            for b in sorted(touching.neighbors(a))
            if a < b and ((a in A and b in B) or (a in B and b in A)))
        fi = catalogue(family)
        self._touch_point = {pair: fi.between(*pair)[0].point
                             for pair in self.t_prime_pairs}
        self._arr: Optional[Arrangement] = None
        self._face_of: Dict[Point, int] = {}

    def face_of_touch(self, pair: Tuple[int, int]) -> int:
        p = self._touch_point[pair]
        if p not in self._face_of:
            if self._arr is None:
                self._arr = pair_arrangement(self.family, self.g1, self.g2)
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
        sample = GroundPairSample(
            gamma1=self.g1, gamma2=self.g2, A=A, B=B,
            t_star=len(star), t_star_in_delta=max(counts.values(), default=0),
            t_prime=len(self.t_prime_pairs))
        check(not (sample.A & sample.B), "A and B share an arc")
        check(sample.A <= self.A_prime and sample.B <= self.B_prime,
              "A or B holds an arc touching neither ground curve")
        check(sample.A | sample.B == self.A_prime | self.B_prime,
              "A and B miss an arc touching a ground curve")
        check(sample.t_star_in_delta <= sample.t_prime,
              "more touchings in delta than in T'")
        return sample


def _ground_draws(family: CurveFamily,
                  seed: int) -> Iterator[GroundPairSample]:
    """The random draws of one seed, each a uniform pair by rank, then a
    fair coin per doubly-touching arc; each pair's context is built once."""
    touching = _ground_pairs(family)
    ctxs: Dict[Tuple[int, int], _PairContext] = {}
    rng = random.Random(seed)
    while True:
        g = _draw_pair(rng, touching.vertices)
        if g not in ctxs:
            ctxs[g] = _PairContext(family, touching, g[0], g[1])
        ctx = ctxs[g]
        yield ctx.resolve({c for c in ctx.shared if rng.randrange(2) == 0})


def sample_ground_pair(family: CurveFamily, seed: int) -> GroundPairSample:
    """One random draw: uniform pair, fair coin per doubly-touching arc."""
    return next(_ground_draws(family, seed))


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
    touching = _ground_pairs(family)
    pair_stars: List[Fraction] = []
    pair_deltas: List[Fraction] = []
    pair_primes: List[Fraction] = []
    for g1, g2 in combinations(touching.vertices, 2):
        ctx = _PairContext(family, touching, g1, g2)
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


def monte_carlo_ground(family: CurveFamily, trials: int, seed: int) -> dict:
    """Repeated random draws, summarized for the JSON report."""
    if trials < 1:
        raise PreconditionError("need at least one trial")
    seen: Dict[str, List[int]] = {"t_star": [], "t_star_in_delta": [],
                                  "t_prime": []}
    for sample in islice(_ground_draws(family, seed), trials):
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

@dataclass(frozen=True)
class SubArc:
    """An arc inside a face of the caller's arrangement."""
    geometry: Curve


def free_arc(arc_id: int, points: Sequence[Point],
             closed: bool = False) -> SubArc:
    """Wrap a bare polyline as an arc with unconstrained endpoints."""
    return SubArc(Curve(id=arc_id, points=tuple(points), closed=closed))


@dataclass(frozen=True)
class CircularSignature:
    arc: int
    sequence: Tuple[int, ...]


def _canon(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


class FaceContext:
    """A face of an arrangement of surrounding arcs (the arrangement's
    curves), with its boundary walk oriented so that the face interior stays
    on the right.

    The walk's half-edge ids are the signature labels, so callers build the
    arrangement from the arcs in id order to keep labels independent of
    their input order. The walk is read as the lifted half-edge chains the
    arrangement keeps on its grid of step 1/scale, indexed once: each
    lattice point maps to the (walk step, label, vertex index) of every
    chain vertex there, in walk order. Each arc's signature is computed
    once and kept, keyed by the arc's geometry.

    contacts, when given, is the catalogue the arcs' contacts with the
    arrangement's curves are read from: a family's, holding the arcs and
    the surrounding curves under their ids. Without it each arc is run
    through the incidence engine against each surrounding curve.
    """

    def __init__(self, arrangement: Arrangement, face: int,
                 contacts: Optional[FamilyIncidences] = None):
        if face < 0 or face >= arrangement.F:
            raise PreconditionError(f"no face {face} in the arrangement")
        self.arrangement = arrangement
        self.face = face
        walks = boundary_edge_cycle(arrangement, face)
        if len(walks) != 1:
            raise PreconditionError(
                f"face {face} has {len(walks)} boundary components; need one")
        self.walk: Tuple[int, ...] = walks[0]
        self._at: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for step, label in enumerate(self.walk):
            for k, q in enumerate(arrangement.half_edges[label]):
                self._at.setdefault(q, []).append((step, label, k))
        self.scale = arrangement.scale
        self.contacts = contacts
        self._signatures: Dict[Curve, tuple] = {}

    def boundary_position(self, p: Point, away: Sequence[Tuple[int, int]]):
        """(walk step, within-step order, label) of boundary point p.

        p is a touch point, which the engine only finds at a vertex of both
        curves, so it is a chain vertex of the walk or off the walk. away
        holds the integer directions from p to its polyline neighbours on
        the touching arc; they pick the side label when both sides of an
        edge border the face. The stored half-edge geometry keeps the face
        on its left, so each of them must lie strictly counterclockwise
        after the stored chain's forward germ at p and before its backward
        one (geometry.ccw_between). An arc leaving p collinearly with the
        boundary cannot be sided and is rejected.
        """
        X, Y, D = lift_point(p, self.scale)
        on_walk = (self._at.get((X // D, Y // D), ())
                   if X % D == 0 and Y % D == 0 else ())
        candidates = []
        for step, label, k in on_walk:
            g = self.arrangement.half_edges[label]
            if not 0 < k < len(g) - 1:
                raise PreconditionError(
                    f"touching at arrangement vertex {p} is not supported")
            fwd, back = germs(g, k, False)
            if all(ccw_between(fwd, w, back) for w in away):
                # the walk reads stored geometry backwards: larger k first
                candidates.append((step, -k, label))
        if not candidates:
            raise PreconditionError(
                f"touch point {p} is not on the face-side boundary")
        if len(candidates) > 1:
            raise PreconditionError(
                f"touch point {p} is ambiguous between boundary sides")
        return candidates[0]


def _signature_keyed(ctx: FaceContext, lam: SubArc):
    """Canonical label sequence plus per-label walk keys and lam's vertex
    indices of the touchings, computed once per context and arc geometry."""
    memo = ctx._signatures.get(lam.geometry)
    if memo is not None:
        return memo
    g = lam.geometry
    keyed, index_of = [], {}
    for mu in ctx.arrangement.curves:
        incs = (curve_pair_incidences(g, mu) if ctx.contacts is None
                else ctx.contacts.between(g.id, mu.id))
        if len(incs) != 1 or incs[0].kind != "tangency":
            raise PreconditionError(f"arc {g.id} does not touch arc {mu.id}")
        # a tangency sits at a vertex of both curves: s is lam's index
        s = incs[0].s_on(g.id)
        key = ctx.boundary_position(
            incs[0].point, germs(g.grid, int(s), g.closed))
        keyed.append(key)
        index_of[key[2]] = s
    keyed.sort()
    seq = tuple(key[2] for key in keyed)
    if len(set(seq)) != len(seq):
        raise PreconditionError(
            f"arc {lam.geometry.id} touches one boundary edge twice")
    pos = {key[2]: key for key in keyed}
    memo = ctx._signatures[lam.geometry] = (_canon(seq), pos, index_of)
    return memo


def circular_signature(ctx: FaceContext, lam: SubArc) -> CircularSignature:
    """Cyclic list of the face-boundary edges carrying lam's touchings, in
    walk order, rotated to start at the least label."""
    seq, _, _ = _signature_keyed(ctx, lam)
    return CircularSignature(arc=lam.geometry.id, sequence=seq)


@dataclass(frozen=True)
class UniquenessReport:
    distinct: bool
    colliding: Tuple[Tuple[int, int], ...]
    reflection_colliding: Tuple[Tuple[int, int], ...]


def verify_signature_uniqueness(ctx: FaceContext, lambdaF: Sequence[SubArc]
                                ) -> UniquenessReport:
    """Pairwise-compare signatures up to rotation; reflection matches are
    reported on the side, not counted as collisions."""
    sigs = [circular_signature(ctx, lam) for lam in lambdaF]
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

def _route_candidates(ctx: FaceContext, ends, walls: Sequence[Polyline],
                      scale: int):
    """Deterministic via-point menu for an imaginary arc from ends[0] to
    ends[1], coarse routes first, then blends pulled toward the face interior.

    Via points come lazily, as integer pairs on the grid of step 1/scale of
    the ends and the lifted surrounding arcs `walls`: each is an anchor w, a
    midpoint, pulled to w + (pull - w)(1 - 2^-k), k <= 6, or a detour of the
    unbounded face past the walls' boxes. So scale is 128 (2 for a midpoint,
    64 for the pull) times a multiple of ctx.scale, the face interior's and
    the ends' denominators.
    """
    yield ()
    f = ctx.arrangement.faces[ctx.face]
    (x1, y1), (x2, y2) = ends
    mid = ((x1 + x2) // 2, (y1 + y2) // 2)
    pull = mid if f.interior is None else lift((f.interior,), scale)[0]
    up = scale // ctx.scale
    ws = [pull, mid] + [((ax + bx) * up // 2, (ay + by) * up // 2)
                        for (ax, ay), (bx, by) in (
                            ctx.arrangement.half_edges[h][:2] for h in ctx.walk)]
    px, py = pull

    def toward(w, k):
        # exact: pull - w is a multiple of 64 on this grid
        return (w[0] + (px - w[0]) * (k - 1) // k,
                w[1] + (py - w[1]) * (k - 1) // k)

    for k in (1, 2, 4, 8, 16, 64):
        yield from ((toward(w, k),) for w in ws)
    for k in (2, 8):
        for w1, w2 in combinations(ws, 2):
            blend = (toward(w1, k), toward(w2, k))
            yield from (blend, blend[::-1])
    if f.interior is None:
        # the unbounded face also admits detours outside the drawing's bounds
        xs = [x1, x2] + [v for w in walls for v in w.box[::2]]
        ys = [y1, y2] + [v for w in walls for v in w.box[1::2]]
        margin = max(max(xs) - min(xs), max(ys) - min(ys), scale)
        for lv in (min(ys) - margin, max(ys) + margin):
            yield from (((x1, lv),), ((x2, lv),), ((x1, lv), (x2, lv)))
        for lv in (min(xs) - margin, max(xs) + margin):
            yield from (((lv, y1),), ((lv, y2),), ((lv, y1), (lv, y2)))


def _close_arc(ctx: FaceContext, lam: SubArc, own: Polyline, other: Polyline,
               forbidden: Set[tuple], walls: Sequence[Polyline], scale: int):
    """Join lam's free endpoints by an imaginary polyline inside the face.

    Returns (closed curve, imaginary chain-parameter interval, closed curve
    lifted); an already closed arc comes back unchanged with interval None.
    The imaginary part must not meet the surrounding arcs `walls`, may meet
    lam's real part `own` only at the two junctions, and must cross `other`
    transversally off `forbidden`, reduced lifted points (X, Y, D). All lie
    on the grid of step 1/scale that _route_candidates asks for.
    """
    g = lam.geometry
    if g.closed:
        return g, None, own
    ends = (own.pts[-1], own.pts[0])

    @cache   # routes share segments, so each is tested once per call
    def passes(a, b) -> bool:
        """False when segment ab leaves the face, grazes its boundary, meets
        lam away from the two junctions, or meets `other` other than by a
        proper crossing off `forbidden`."""
        for wall in walls:
            for _ in wall.hits(a, b):
                return False
        for ev in own.hits(a, b):
            if ev[0] != "touch" or ev[1] not in ends:
                return False
        for ev in other.hits(a, b):
            if ev[0] != "proper" or meeting_key((a, b), ev) in forbidden:
                return False
        return True

    for via in _route_candidates(ctx, ends, walls, scale):
        # the first segment's verdict, cached, rejects most candidates
        # before their path is built; the tests below start with it
        first = via[0] if via else ends[1]
        if first == ends[0] or not passes(ends[0], first):
            continue
        path = (ends[0],) + via + (ends[1],)
        if (any(path[i] == path[i + 1] for i in range(len(path) - 1))
                or not all(map(passes, path, path[1:]))):
            continue
        try:
            closed = Curve(id=g.id, points=g.points + tuple(
                Point(Fraction(x, scale), Fraction(y, scale)) for x, y in via),
                closed=True)
        except ValidationError:
            continue
        return (closed, (Fraction(g.n_segments), Fraction(closed.n_segments)),
                Polyline([*own.pts, *via], True))
    raise ConstructionError(
        f"no valid imaginary closure for arc {g.id} at any routing refinement")


def _piece_intersections(crossings, c1: Curve, lo1: Fraction, hi1: Fraction,
                         c2: Curve, lo2: Fraction, hi2: Fraction
                         ) -> List[Point]:
    """Intersection points interior to two chain-parameter portions of the
    closed curves c1 and c2, kept from crossings: (c1 lifted, c2 lifted,
    (reduced lifted point, point, param on c1, on c2) per scanned meeting)."""
    ring1, ring2, events = crossings
    n1, n2 = c1.n_segments, c2.n_segments
    piece_ends = {grid_point(ring.segs[int(s) % n], s - int(s))
                  for ring, n, s in ((ring1, n1, lo1), (ring1, n1, hi1),
                                     (ring2, n2, lo2), (ring2, n2, hi2))}
    return sorted({p for key, p, s1, s2 in events
                   if (lo1 <= s1 <= hi1 or lo1 <= s1 + n1 <= hi1)
                   and (lo2 <= s2 <= hi2 or lo2 <= s2 + n2 <= hi2)
                   and key not in piece_ends})


@dataclass(frozen=True)
class ChargeReport:
    sequence: Tuple[int, ...]
    alt_edges: Tuple[int, ...]
    hat_edges: Tuple[int, ...]
    charges: Tuple[Tuple[int, Point, bool], ...]  # (edge label, point, real)
    real_count: int
    imaginary_count: int


def alt_hat_charging(ctx: FaceContext, lam1: SubArc, lam2: SubArc,
                     sig: CircularSignature) -> ChargeReport:
    """Charge every edge of the shared signature to a distinct intersection
    of the two closed-up arcs and count the genuine ones.

    An edge whose two contacts keep the same within-edge order as on the
    next edge is an alt edge and charges the piece pair (k, k); a flipped
    order makes a hat edge, charging against the previous piece of
    whichever arc comes second.
    """
    seq = _canon(sig.sequence)
    L = len(seq)
    if L < 2:
        raise PreconditionError("need a shared signature of length >= 2")
    sig1, pos1, params1 = _signature_keyed(ctx, lam1)
    sig2, pos2, params2 = _signature_keyed(ctx, lam2)
    if sig1 != seq or sig2 != seq:
        raise PreconditionError("arcs do not share the given signature")

    # one grid for the whole charging, the one _route_candidates asks for:
    # it also holds closure 1's via points, which closure 2 must cross
    g1, g2 = lam1.geometry, lam2.geometry
    arr = ctx.arrangement
    inner = arr.faces[ctx.face].interior
    scale = 128 * lcm(ctx.scale, coordinate_scale((g1, g2)),
                      *((inner.x.denominator, inner.y.denominator)
                        if inner is not None else ()))
    walls = [Polyline(c.lifted(scale), c.closed) for c in arr.curves]
    real1, real2 = (Polyline(g.lifted(scale), g.closed) for g in (g1, g2))
    # pieces of a valid family's curves meet in crossings and touches only
    existing = {meeting_key(real1.segs[i], ev)
                for i, _, ev in meetings(real1, real2)}
    closed1, imag1, ring1 = _close_arc(ctx, lam1, real1, real2, existing,
                                       walls, scale)
    closed2, imag2, ring2 = _close_arc(ctx, lam2, real2, ring1, existing,
                                       walls, scale)

    def alignment(params: Dict[int, Fraction], cid: int):
        """Fails unless the contact cycle realizes the signature forwards or
        backwards. The closed ring starts with the arc's own vertices, so a
        contact's vertex index is its parameter on the ring."""
        cyc = tuple(lbl for _, lbl in sorted(
            (s, lbl) for lbl, s in params.items()))
        # seq is canonical and its labels are distinct
        if seq not in (_canon(cyc), _canon(cyc[::-1])):
            raise PreconditionError(
                f"contact order along arc {cid} does not realize the "
                "shared signature in either direction")
        return seq == _canon(cyc)

    fwd1, fwd2 = alignment(params1, g1.id), alignment(params2, g2.id)

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

    # every crossing of the closed-up arcs, from one scan
    n1, n2 = closed1.n_segments, closed2.n_segments
    events = []
    for i, j, ev in meetings(ring1, ring2):
        if ev[0] == "proper":
            s1, s2 = i + ev[1], j + ev[2]
        elif ev[0] == "touch":
            s1 = segment_param(ring1.segs[i], ev[1], i)
            s2 = segment_param(ring2.segs[j], ev[1], j)
        else:
            continue
        key = meeting_key(ring1.segs[i], ev)
        events.append((key, unlift(key, scale), s1 % n1, s2 % n2))
    crossings = (ring1, ring2, events)
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
        pts = _piece_intersections(crossings, closed1, i1[0], i1[1],
                                   closed2, i2[0], i2[1])
        if not pts:
            raise ConstructionError(
                f"edge {lbl}: piece {k1} of arc {lam1.geometry.id} misses "
                f"piece {k2} of arc {lam2.geometry.id}")
        p = pts[0]
        q = lift_point(p, scale)
        real = all(on_polyline(q, r.pts, r.closed) for r in (real1, real2))
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
