"""Pairwise contact detection, classification, and family validation.

One engine reads the family model: curves meet only in proper crossings of
segment interiors or at shared polyline vertices where the four outgoing
directions alternate (crossing) or do not (tangency). Everything else,
an open-arc endpoint on another curve included, is a violation.

All computation happens on integer-scaled coordinates, so every predicate
is an exact integer sign test.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegeneracyError, ValidationError, check
from .geometry import (Curve, CurveFamily, Point, Polyline, angle_cmp,
                       coordinate_scale, germs, meeting_key, meetings,
                       seg_events, segment_param, unlift)


@dataclass(frozen=True)
class Incidence:
    """One contact point between two curves.

    kind is "crossing" or "tangency". s_a and s_b are chain parameters
    along each curve: segment index plus in-segment fraction, so integral
    values are polyline vertices.
    """
    kind: str
    point: Point
    a: int
    b: int
    s_a: Fraction
    s_b: Fraction

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
    """incidences: a valid family's catalogue, not part of eq or repr."""
    ok: bool
    n: int
    m: int
    violations: Tuple[Violation, ...]
    incidences: Optional[FamilyIncidences] = field(
        default=None, compare=False, repr=False)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({v.kind for v in self.violations}))


class _ScaledCurve(Polyline):
    """A curve lifted to an integer Polyline (Curve.lifted), plus its
    vertex lookups: vmap maps each vertex to its first index, and ends
    holds the endpoint indices of an open curve."""

    __slots__ = ("curve", "vmap", "ends")

    def __init__(self, curve: Curve, scale: int):
        pts = curve.lifted(scale)
        super().__init__(pts, curve.closed)
        self.curve = curve
        n = len(pts)
        # built backwards, so a repeated vertex keeps its first index
        self.vmap = dict(zip(pts[::-1], range(n - 1, -1, -1)))
        self.ends = () if curve.closed else (0, n - 1)


def _meeting_pairs(boxes) -> List[Tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, whose closed boxes meet, by a
    sort-and-sweep along x: O(n log n) plus the pairs whose x ranges meet."""
    order = sorted(range(len(boxes)), key=lambda k: boxes[k][0])
    lefts = [boxes[k][0] for k in order]
    out = []
    for s, i in enumerate(order):
        _, y0, x1, y1 = boxes[i]
        for j in order[s + 1:bisect_right(lefts, x1, s + 1)]:
            b = boxes[j]
            if b[1] <= y1 and y0 <= b[3]:
                out.append((i, j) if i < j else (j, i))
    out.sort()
    return out


def _pair_events(sa: _ScaledCurve, sb: _ScaledCurve, hits):
    """The meetings of two scaled curves, hits = meetings(sa, sb), grouped
    by point.

    Returns (events, overlaps): events maps a point's meeting_key to
    [proper count, s_a, s_b, multi]: the first chain params, an int at a
    vertex, and whether any other met there. overlaps lists the meeting_key
    of each collinear shared piece.
    """
    events: Dict[Tuple[int, int, int], list] = {}
    overlaps: List[tuple] = []
    vmap_a, vmap_b = sa.vmap, sb.vmap
    for i, j, res in hits:
        tag = res[0]
        key = meeting_key(sa.segs[i], res)
        if tag == "touch":
            p = res[1]
            proper = 0
            s_a = vmap_a.get(p)
            if s_a is None:
                s_a = segment_param(sa.segs[i], p, i)
            s_b = vmap_b.get(p)
            if s_b is None:
                s_b = segment_param(sb.segs[j], p, j)
        elif tag == "proper":
            s_a, s_b, proper = i + res[1], j + res[2], 1
        else:
            overlaps.append(key)
            continue
        ev = events.get(key)
        if ev is None:
            events[key] = [proper, s_a, s_b, False]
        else:
            ev[0] += proper
            if ev[1] != s_a or ev[2] != s_b:
                ev[3] = True
    return events, overlaps


def _shared_vertex_kind(sa: _ScaledCurve, ka: int,
                        sb: _ScaledCurve, kb: int) -> Optional[str]:
    """"crossing" or "tangency" at a shared interior vertex, vertex ka of A
    and kb of B, from the four directions toward each curve's next and
    previous vertex: a crossing iff exactly one of B's lies strictly inside
    A's wedge, counterclockwise from A's next to its previous
    (geometry.ccw_between); None when two of them are parallel."""
    a, c = germs(sa.pts, ka, sa.closed)
    b, d = germs(sb.pts, kb, sb.closed)
    ac, ab, ad = angle_cmp(a, c), angle_cmp(a, b), angle_cmp(a, d)
    cb, cd, bd = angle_cmp(c, b), angle_cmp(c, d), angle_cmp(b, d)
    if not (ac and ab and ad and cb and cd and bd):
        return None
    # w is inside iff two of a < w, w < c and c < a hold
    b_in = (ab < 0) + (cb > 0) + (ac > 0) >= 2
    d_in = (ad < 0) + (cd > 0) + (ac > 0) >= 2
    return "crossing" if b_in != d_in else "tangency"


def _classify_pair(sa: _ScaledCurve, sb: _ScaledCurve, events, overlaps,
                   scale: int, fracs: Sequence[Fraction],
                   violations: List[Violation]) -> List[Incidence]:
    """Turn one pair's grouped events (from _pair_events) into incidences,
    returned, and violations, appended to violations. A vertex contact
    takes that curve's Point, and its int chain parameter k becomes
    fracs[k], Fraction(k), as its Incidence is written."""
    ida, idb = sa.curve.id, sb.curve.id
    incidences: List[Incidence] = []

    for key in overlaps:
        violations.append(Violation(
            "overlap", (ida, idb), unlift(key, scale),
            "curves share a collinear piece"))

    found = [(sa.curve.points[ev[1]] if type(ev[1]) is int
              else sb.curve.points[ev[2]] if type(ev[2]) is int
              else unlift(key, scale), ev) for key, ev in events.items()]
    # distinct keys are distinct points, so the sort never compares records
    found.sort()
    for point, (proper, s_a, s_b, multi) in found:
        if multi:
            violations.append(Violation(
                "degenerate_contact", (ida, idb), point,
                "multiple passages through one contact point"))
            continue
        a_vertex = type(s_a) is int
        b_vertex = type(s_b) is int
        kind = None

        if not a_vertex and not b_vertex:
            # seg_events puts every touch on a segment end, that is a vertex
            check(proper, "interior contact without a proper crossing")
            kind = "crossing"
        elif a_vertex != b_vertex:
            if s_a in sa.ends if a_vertex else s_b in sb.ends:
                violations.append(Violation(
                    "endpoint_contact", (ida, idb), point,
                    "arc endpoint rests on another curve"))
            else:
                violations.append(Violation(
                    "degenerate_contact", (ida, idb), point,
                    "polyline vertex rests on another curve interior"))
        elif s_a in sa.ends or s_b in sb.ends:
            violations.append(Violation(
                "endpoint_contact", (ida, idb), point,
                "arc endpoint meets another curve at a vertex"))
        else:
            kind = _shared_vertex_kind(sa, s_a, sb, s_b)
            if kind is None:
                violations.append(Violation(
                    "overlap", (ida, idb), point,
                    "parallel germs at a shared vertex"))
        if kind is not None:
            incidences.append(Incidence(
                kind, point, ida, idb,
                fracs[s_a] if a_vertex else s_a,
                fracs[s_b] if b_vertex else s_b))
    return incidences


def _self_violations(sc: _ScaledCurve, scale: int) -> List[Violation]:
    """Every meeting of two non-adjacent segments of one curve, in segment
    order; a pair whose closed segment boxes miss each other is skipped."""
    viols: List[Violation] = []
    segs = sc.segs
    n = len(segs)
    cid = sc.curve.id
    for i, (a, b, x0, y0, x1, y1) in enumerate(segs):
        # the closing segment n - 1 is adjacent to segment 0
        for j in range(i + 2, n - 1 if sc.closed and i == 0 else n):
            c, d, sx0, sy0, sx1, sy1 = segs[j]
            if sx1 < x0 or sx0 > x1 or sy1 < y0 or sy0 > y1:
                continue
            res = seg_events(a, b, c, d)
            if res[0] == "none":
                continue
            viols.append(Violation(
                "self_intersection", (cid,),
                unlift(meeting_key((a, b), res), scale),
                f"segments {i} and {j} meet"))
    return viols


def _run_engine(curves: Sequence[Curve], m: Optional[int]):
    """Shared core: returns (pair incidence dict, violations)."""
    scale = coordinate_scale(curves)
    scaled = [_ScaledCurve(c, scale) for c in curves]
    violations: List[Violation] = []
    for sc in scaled:
        violations.extend(_self_violations(sc, scale))
    # vertex chain parameters, one Fraction per index, shared by incidences
    fracs = [Fraction(k)
             for k in range(max((len(sc.pts) for sc in scaled), default=0))]

    pairs: Dict[Tuple[int, int], Tuple[Incidence, ...]] = {}
    # the first pair through each event point, and every curve through a
    # point that more than one pair meets at
    first_pair: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    shared: Dict[Tuple[int, int, int], set] = {}
    for i, j in _meeting_pairs([sc.box for sc in scaled]):
        sa, sb = scaled[i], scaled[j]
        hits = meetings(sa, sb)
        if not hits:
            continue
        events, overlaps = _pair_events(sa, sb, hits)
        ids = (sa.curve.id, sb.curve.id)
        for key in events:
            seen = first_pair.setdefault(key, ids)
            if seen is not ids:
                shared.setdefault(key, set(seen)).update(ids)
        incs = _classify_pair(sa, sb, events, overlaps, scale, fracs,
                              violations)
        if incs:
            pairs[ids] = tuple(incs)
        if m is not None and len(incs) > m:
            violations.append(Violation(
                "intersection_budget", ids, incs[0].point,
                f"{len(incs)} contacts exceed budget {m}"))

    triples = sorted((unlift(key, scale), tuple(sorted(owners)))
                     for key, owners in shared.items() if len(owners) >= 3)
    for point, owners in triples:
        violations.append(Violation(
            "triple_point", owners, point,
            "three or more curves through one point"))
    return pairs, violations


def _raise_first(violations: Sequence[Violation]):
    if not violations:
        return
    v = violations[0]
    exc = (ValidationError if v.kind == "intersection_budget"
           else DegeneracyError)
    raise exc(f"{v.kind} involving curves {v.curves}: {v.detail}")


def curve_pair_incidences(a: Curve, b: Curve) -> Tuple[Incidence, ...]:
    """Contacts between two individually simple curves, ordered by point.

    Raises on any configuration outside the strict model.
    """
    pairs, violations = _run_engine([a, b], None)
    _raise_first(violations)
    # _classify_pair writes a pair's incidences in point order
    return pairs.get((a.id, b.id), ())


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

    @cached_property
    def _touching(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(pair for pair, incs in sorted(self.pairs.items())
                     if len(incs) == 1 and incs[0].kind == "tangency")

    def touching_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The touching pairs in sorted order, found once per catalogue."""
        return self._touching

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
    """Check the whole strict family model, collecting every violation; a
    valid family's report keeps the catalogue compute_incidences would give."""
    pairs, violations = _run_engine(family.curves, family.m)
    fi = None if violations else FamilyIncidences(
        family.m, tuple(c.id for c in family.curves), pairs)
    return ValidationReport(ok=not violations, n=family.n, m=family.m,
                            violations=tuple(violations), incidences=fi)


def compute_incidences(family: CurveFamily) -> FamilyIncidences:
    """Contact catalog of a family; raises if the model is violated. Layers
    read a family's catalogue through catalogue(family), which runs this
    once per family."""
    pairs, violations = _run_engine(family.curves, family.m)
    _raise_first(violations)
    return FamilyIncidences(
        m=family.m,
        curve_ids=tuple(c.id for c in family.curves),
        pairs=pairs)


def catalogue(family: CurveFamily) -> FamilyIncidences:
    """The family's strict contact catalogue: the one it carries, else
    compute_incidences(family), kept on the family for the next reader.
    Raises, as compute_incidences does, on a family outside the model."""
    if family.incidences is None:
        keep_catalogue(family, compute_incidences(family))
    return family.incidences


def keep_catalogue(family: CurveFamily,
                   incidences: FamilyIncidences) -> CurveFamily:
    """Keep the family's catalogue, computed elsewhere, on the family, and
    return the family."""
    check(incidences.m == family.m
          and incidences.curve_ids == tuple(c.id for c in family),
          "a catalogue kept on a family must be its own")
    object.__setattr__(family, "incidences", incidences)
    return family


def sub_family(family: CurveFamily, ids: Sequence[int]) -> CurveFamily:
    """The family's curves with the given ids, in that order, carrying the
    contacts among them: one pass over the family catalogue's pairs keeps
    each pair of two ids, keyed and listed in the order of ids, as
    combinations(ids, 2) lists them. With ids in family order this is the
    catalogue compute_incidences gives the sub-family."""
    fi = catalogue(family)
    by_id = {c.id: c for c in family}
    sub = CurveFamily(tuple(by_id[i] for i in ids), family.m)
    rank = {cid: k for k, cid in enumerate(ids)}
    # distinct pairs sort on their positions alone, never on contacts
    kept = sorted((sorted((rank[a], rank[b])), incs)
                  for (a, b), incs in fi.pairs.items()
                  if a in rank and b in rank)
    pairs = {(ids[i], ids[j]): incs for (i, j), incs in kept}
    return keep_catalogue(sub, FamilyIncidences(family.m, tuple(ids), pairs))


def mixed_contacts(curves: Sequence[Curve]) -> FamilyIncidences:
    """Catalogue of an ad-hoc set of open and closed curves, with no budget
    (m = 0); raises, as compute_incidences does, outside the model."""
    pairs, violations = _run_engine(curves, None)
    _raise_first(violations)
    return FamilyIncidences(
        m=0, curve_ids=tuple(c.id for c in curves), pairs=pairs)
