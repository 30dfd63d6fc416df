"""Pairwise contact detection, classification, and family validation.

Two operating modes share one engine:

* ``strict``: the family model. Curves meet only in proper crossings of
  segment interiors or at shared polyline vertices where the four outgoing
  directions alternate (crossing) or do not (tangency). Everything else is
  a violation.
* ``arrangement``: additionally admits open-curve endpoints resting on
  another curve (``tjoint``) and shared endpoints of two open curves
  (``joint``). Needed when sub-arcs cut from family curves are assembled
  into an arrangement together with intact curves.

All computation happens on integer-scaled coordinates, so every predicate
is an exact integer sign test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegeneracyError, EndpointError, ValidationError
from .geometry import (Curve, CurveFamily, Point, angle_cmp, angle_key,
                       coordinate_scale, lift, seg_events)


@dataclass(frozen=True)
class Incidence:
    """One contact point between two curves.

    kind is "crossing" or "tangency" in the strict model; arrangement mode
    adds "tjoint" and "joint". s_a and s_b are chain parameters along each
    curve: segment index plus in-segment fraction, so integral values are
    polyline vertices.
    """
    kind: str
    point: Point
    a: int
    b: int
    s_a: Fraction
    s_b: Fraction
    pattern: Optional[str] = None

    def s_on(self, cid: int) -> Fraction:
        if cid == self.a:
            return self.s_a
        if cid == self.b:
            return self.s_b
        raise KeyError(cid)

    def other(self, cid: int) -> int:
        if cid == self.a:
            return self.b
        if cid == self.b:
            return self.a
        raise KeyError(cid)


@dataclass(frozen=True)
class Violation:
    kind: str
    curves: Tuple[int, ...]
    point: Optional[Point]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    n: int
    m: int
    violations: Tuple[Violation, ...]

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({v.kind for v in self.violations}))


class _ScaledCurve:
    """Integer-coordinate view of a curve plus lookup tables."""

    __slots__ = ("curve", "pts", "nseg", "closed", "vmap", "segbox", "box")

    def __init__(self, curve: Curve, scale: int):
        self.curve = curve
        self.pts = pts = lift(curve.points, scale)
        self.closed = curve.closed
        self.nseg = curve.n_segments
        vmap: Dict[Tuple[int, int], int] = {}
        for k, q in enumerate(pts):
            vmap.setdefault(q, k)
        self.vmap = vmap
        boxes = []
        for i in range(self.nseg):
            (ax, ay), (bx, by) = self.seg(i)
            boxes.append((min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)))
        self.segbox = boxes
        self.box = (
            min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes),
        )

    def seg(self, i: int):
        pts = self.pts
        return pts[i], pts[(i + 1) % len(pts)]

    def is_endpoint_vertex(self, k: int) -> bool:
        return (not self.closed) and (k == 0 or k == len(self.pts) - 1)

    def vertex_directions(self, k: int):
        """Outgoing integer directions at vertex k (1 for open endpoints,
        2 for interior vertices)."""
        pts = self.pts
        if self.closed:
            nbrs = [pts[(k + 1) % len(pts)], pts[k - 1]]
        else:  # at k = 0, pts[k - 1:k] is empty
            nbrs = pts[k + 1:k + 2] + pts[k - 1:k]
        vx, vy = pts[k]
        return [(nx - vx, ny - vy) for nx, ny in nbrs]


def _locate_on(sc: _ScaledCurve, seg_index: int, p) -> Fraction:
    """Chain parameter of integer point p, known to lie on segment seg_index."""
    k = sc.vmap.get(p)
    if k is not None:
        return Fraction(k)
    (ax, ay), (bx, by) = sc.seg(seg_index)
    if bx != ax:
        t = Fraction(p[0] - ax, bx - ax)
    else:
        t = Fraction(p[1] - ay, by - ay)
    return seg_index + t


def _boxes_meet(b1, b2) -> bool:
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


def _meeting_pairs(boxes) -> List[Tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, whose closed boxes meet, by a
    sort-and-sweep along x: O(n log n) plus the pairs whose x ranges meet."""
    n = len(boxes)
    order = sorted(range(n), key=lambda k: boxes[k][0])
    out = []
    for s, i in enumerate(order):
        _, y0, x1, y1 = boxes[i]
        for t in range(s + 1, n):
            j = order[t]
            b = boxes[j]
            if b[0] > x1:
                break
            if b[1] <= y1 and y0 <= b[3]:
                out.append((i, j) if i < j else (j, i))
    out.sort()
    return out


def _crossing_key(seg, t: Fraction) -> Tuple[int, int, int]:
    """Grid point at parameter t on the integer segment seg, as a reduced
    (X, Y, D) with D > 0: the point is (X / D, Y / D)."""
    (ax, ay), (bx, by) = seg
    n, d = t.numerator, t.denominator
    x, y = ax * d + n * (bx - ax), ay * d + n * (by - ay)
    g = gcd(x, y, d)
    return (x // g, y // g, d // g)


def _pair_events(sa: _ScaledCurve, sb: _ScaledCurve):
    """All meeting points of two scaled curves, grouped by point.

    Returns (events, overlaps): events maps a grid point key (X, Y, D), see
    _crossing_key, to {"proper": count, "sa": set of chain params, "sb":
    set}, and overlaps lists collinear shared pieces as (lo, hi) integer
    pairs.
    """
    events: Dict[Tuple[int, int, int], dict] = {}
    overlaps: List[tuple] = []
    for i in range(sa.nseg):
        ib = sa.segbox[i]
        if not _boxes_meet(ib, sb.box):
            continue
        for j in range(sb.nseg):
            if not _boxes_meet(ib, sb.segbox[j]):
                continue
            res = seg_events(*sa.seg(i), *sb.seg(j))
            tag = res[0]
            if tag == "none":
                continue
            if tag == "overlap":
                overlaps.append((res[1], res[2]))
                continue
            if tag == "proper":
                t, u = res[1], res[2]
                key, s_a, s_b = _crossing_key(sa.seg(i), t), i + t, j + u
            else:
                p = res[1]
                key, s_a, s_b = (p[0], p[1], 1), _locate_on(sa, i, p), _locate_on(sb, j, p)
            ev = events.setdefault(key, {"proper": 0, "sa": set(), "sb": set()})
            ev["proper"] += tag == "proper"
            ev["sa"].add(s_a)
            ev["sb"].add(s_b)
    return events, overlaps


def _unscale(key, scale: int) -> Point:
    """The Fraction point of a grid key (X, Y, D) on the grid of 1/scale."""
    d = key[2] * scale
    return Point(Fraction(key[0], d), Fraction(key[1], d))


def _classify_pair(sa: _ScaledCurve, sb: _ScaledCurve, events, overlaps,
                   scale: int, mode: str):
    """Turn one pair's grouped events (from _pair_events) into incidences
    and violations."""
    ida, idb = sa.curve.id, sb.curve.id
    incidences: List[Incidence] = []
    violations: List[Violation] = []

    for lo, hi in overlaps:
        violations.append(Violation(
            "overlap", (ida, idb), _unscale((lo[0], lo[1], 1), scale),
            "curves share a collinear piece"))

    for point, key in sorted((_unscale(key, scale), key) for key in events):
        ev = events[key]
        if len(ev["sa"]) > 1 or len(ev["sb"]) > 1:
            violations.append(Violation(
                "degenerate_contact", (ida, idb), point,
                "multiple passages through one contact point"))
            continue
        s_a = next(iter(ev["sa"]))
        s_b = next(iter(ev["sb"]))
        a_vertex = s_a.denominator == 1
        b_vertex = s_b.denominator == 1

        if not a_vertex and not b_vertex:
            if ev["proper"] >= 1:
                incidences.append(Incidence("crossing", point, ida, idb, s_a, s_b))
            else:
                violations.append(Violation(
                    "degenerate_contact", (ida, idb), point,
                    "interior contact without a proper crossing"))
            continue

        if a_vertex != b_vertex:
            vc, other_id = (sa, idb) if a_vertex else (sb, ida)
            k = int(s_a if a_vertex else s_b)
            if vc.is_endpoint_vertex(k):
                if mode == "arrangement":
                    incidences.append(Incidence("tjoint", point, ida, idb, s_a, s_b))
                else:
                    violations.append(Violation(
                        "endpoint_contact", (ida, idb), point,
                        "arc endpoint rests on another curve"))
            else:
                violations.append(Violation(
                    "degenerate_contact", (ida, idb), point,
                    "polyline vertex rests on another curve interior"))
            continue

        ka, kb = int(s_a), int(s_b)
        a_end = sa.is_endpoint_vertex(ka)
        b_end = sb.is_endpoint_vertex(kb)
        if a_end or b_end:
            if mode == "arrangement":
                kind = "joint" if (a_end and b_end) else "tjoint"
                incidences.append(Incidence(kind, point, ida, idb, s_a, s_b))
            else:
                violations.append(Violation(
                    "endpoint_contact", (ida, idb), point,
                    "arc endpoint meets another curve at a vertex"))
            continue

        dirs = sorted([(d, "A") for d in sa.vertex_directions(ka)]
                      + [(d, "B") for d in sb.vertex_directions(kb)],
                      key=lambda item: angle_key(item[0]))
        if any(angle_cmp(dirs[k - 1][0], dirs[k][0]) == 0 for k in range(1, 4)):
            violations.append(Violation(
                "overlap", (ida, idb), point,
                "parallel germs at a shared vertex"))
            continue
        owners = "".join(owner for _, owner in dirs)
        alternating = owners in ("ABAB", "BABA")
        incidences.append(Incidence(
            "crossing" if alternating else "tangency",
            point, ida, idb, s_a, s_b, pattern=owners))

    return incidences, violations


def _self_violations(sc: _ScaledCurve, scale: int) -> List[Violation]:
    viols: List[Violation] = []
    n = sc.nseg
    cid = sc.curve.id
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (sc.closed and i == 0 and j == n - 1):
                continue
            res = seg_events(*sc.seg(i), *sc.seg(j))
            tag = res[0]
            if tag == "none":
                continue
            if tag == "proper":
                pkey = _crossing_key(sc.seg(i), res[1])
            else:
                pkey = (res[1][0], res[1][1], 1)
            viols.append(Violation(
                "self_intersection", (cid,), _unscale(pkey, scale),
                f"segments {i} and {j} meet"))
    return viols


def _run_engine(curves: Sequence[Curve], m: Optional[int], mode: str):
    """Shared core: returns (pair incidence dict, violations)."""
    scale = coordinate_scale(curves)
    scaled = [_ScaledCurve(c, scale) for c in curves]
    violations: List[Violation] = []
    for sc in scaled:
        violations.extend(_self_violations(sc, scale))

    pairs: Dict[Tuple[int, int], Tuple[Incidence, ...]] = {}
    point_owners: Dict[Tuple[int, int, int], set] = {}
    for i, j in _meeting_pairs([sc.box for sc in scaled]):
        sa, sb = scaled[i], scaled[j]
        events, overlaps = _pair_events(sa, sb)
        for key in events:
            point_owners.setdefault(key, set()).update(
                (sa.curve.id, sb.curve.id))
        incs, viols = _classify_pair(sa, sb, events, overlaps, scale, mode)
        violations.extend(viols)
        if incs:
            pairs[(sa.curve.id, sb.curve.id)] = tuple(incs)
        if m is not None and len(incs) > m:
            violations.append(Violation(
                "intersection_budget",
                (sa.curve.id, sb.curve.id), incs[0].point,
                f"{len(incs)} contacts exceed budget {m}"))

    triples = sorted((_unscale(key, scale), tuple(sorted(owners)))
                     for key, owners in point_owners.items() if len(owners) >= 3)
    for point, owners in triples:
        violations.append(Violation(
            "triple_point", owners, point,
            "three or more curves through one point"))
    return pairs, violations


_RAISE_MAP = {
    "endpoint_contact": EndpointError,
    "intersection_budget": ValidationError,
}


def _raise_first(violations: Sequence[Violation]):
    if not violations:
        return
    v = violations[0]
    exc = _RAISE_MAP.get(v.kind, DegeneracyError)
    raise exc(f"{v.kind} involving curves {v.curves}: {v.detail}")


def curve_pair_incidences(a: Curve, b: Curve, mode: str = "strict") -> Tuple[Incidence, ...]:
    """Contacts between two individually simple curves, ordered by point.

    Raises on any configuration outside the chosen mode's model.
    """
    pairs, violations = _run_engine([a, b], None, mode)
    _raise_first(violations)
    incs = pairs.get((a.id, b.id), ())
    return tuple(sorted(incs, key=lambda inc: (inc.point.x, inc.point.y)))


def is_touching_pair(a: Curve, b: Curve) -> bool:
    """True iff the pair meets exactly once and that contact is a tangency."""
    incs = curve_pair_incidences(a, b)
    return len(incs) == 1 and incs[0].kind == "tangency"


@dataclass(frozen=True)
class FamilyIncidences:
    """All pairwise contacts of a family plus the headline counts."""
    m: int
    curve_ids: Tuple[int, ...]
    pairs: Dict[Tuple[int, int], Tuple[Incidence, ...]] = field(hash=False)

    @property
    def T(self) -> int:
        """Number of touching pairs: exactly one contact and it is a tangency."""
        return len(self.touching_pairs())

    @property
    def X(self) -> int:
        """Total number of contact points over all pairs, tangencies included."""
        return sum(len(incs) for incs in self.pairs.values())

    @property
    def crossing_count(self) -> int:
        return sum(1 for incs in self.pairs.values()
                   for inc in incs if inc.kind == "crossing")

    def touching_pairs(self) -> Tuple[Tuple[int, int], ...]:
        out = [pair for pair, incs in sorted(self.pairs.items())
               if len(incs) == 1 and incs[0].kind == "tangency"]
        return tuple(out)

    def all_incidences(self) -> Tuple[Incidence, ...]:
        out: List[Incidence] = []
        for pair in sorted(self.pairs):
            out.extend(self.pairs[pair])
        return tuple(out)

    @cached_property
    def _by_curve(self) -> Dict[int, Tuple[Incidence, ...]]:
        lists: Dict[int, List[Incidence]] = {}
        for incs in self.pairs.values():
            for inc in incs:
                for cid in (inc.a, inc.b):
                    lists.setdefault(cid, []).append(inc)
        return {cid: tuple(sorted(out, key=lambda inc: (inc.s_on(cid),
                                                        inc.other(cid))))
                for cid, out in lists.items()}

    def on_curve(self, cid: int) -> Tuple[Incidence, ...]:
        """Contacts involving cid, ordered by chain parameter along cid;
        the per-curve lists are built once per catalogue."""
        return self._by_curve.get(cid, ())

    def between(self, a: int, b: int) -> Tuple[Incidence, ...]:
        key = (a, b) if (a, b) in self.pairs else (b, a)
        return self.pairs.get(key, ())


def validate_general_position(family: CurveFamily) -> ValidationReport:
    """Check the whole strict family model, collecting every violation."""
    _, violations = _run_engine(family.curves, family.m, "strict")
    return ValidationReport(
        ok=not violations, n=family.n, m=family.m, violations=tuple(violations))


def compute_incidences(family: CurveFamily, mode: str = "strict") -> FamilyIncidences:
    """Contact catalog of a family; raises if the model is violated."""
    budget = family.m if mode == "strict" else None
    pairs, violations = _run_engine(family.curves, budget, mode)
    _raise_first(violations)
    return FamilyIncidences(
        m=family.m,
        curve_ids=tuple(c.id for c in family.curves),
        pairs=pairs)


def mixed_contacts(curves: Sequence[Curve]) -> FamilyIncidences:
    """Arrangement-mode catalog for an ad-hoc curve set (sub-arcs allowed)."""
    pairs, violations = _run_engine(curves, None, "arrangement")
    _raise_first(violations)
    return FamilyIncidences(
        m=0, curve_ids=tuple(c.id for c in curves), pairs=pairs)
