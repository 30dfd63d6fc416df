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

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (DegeneracyError, EndpointError, PreconditionError,
                     ValidationError, check)
from .geometry import (Curve, CurveFamily, Point, Polyline, angle_cmp,
                       angle_key, coordinate_scale, grid_point, lift, meetings,
                       seg_events, unlift)


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
    """A curve lifted to an integer Polyline, plus its vertex lookups."""

    __slots__ = ("curve", "vmap")

    def __init__(self, curve: Curve, scale: int):
        super().__init__(lift(curve.points, scale), curve.closed)
        self.curve = curve
        vmap: Dict[Tuple[int, int], int] = {}
        for k, q in enumerate(self.pts):
            vmap.setdefault(q, k)
        self.vmap = vmap

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


def _locate_on(sc: _ScaledCurve, seg_index: int, p):
    """Chain parameter of integer point p on segment seg_index; an int at a vertex."""
    k = sc.vmap.get(p)
    if k is not None:
        return k
    (ax, ay), (bx, by) = sc.seg(seg_index)
    if bx != ax:
        t = Fraction(p[0] - ax, bx - ax)
    else:
        t = Fraction(p[1] - ay, by - ay)
    return seg_index + t


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


def _pair_events(sa: _ScaledCurve, sb: _ScaledCurve):
    """All meeting points of two scaled curves, grouped by point.

    Returns (events, overlaps): events maps a grid point key (X, Y, D), see
    grid_point, to [proper count, s_a, s_b, multi]: the first chain params,
    and whether any other met there. overlaps lists collinear shared pieces
    as (lo, hi) integer pairs.
    """
    events: Dict[Tuple[int, int, int], list] = {}
    overlaps: List[tuple] = []
    for i, j, res in meetings(sa, sb):
        tag = res[0]
        if tag == "overlap":
            overlaps.append((res[1], res[2]))
            continue
        if tag == "proper":
            t, u = res[1], res[2]
            key, s_a, s_b = grid_point(sa.seg(i), t), i + t, j + u
        else:
            p = res[1]
            key, s_a, s_b = (p[0], p[1], 1), _locate_on(sa, i, p), _locate_on(sb, j, p)
        ev = events.setdefault(key, [0, s_a, s_b, False])
        ev[0] += tag == "proper"
        ev[3] = ev[3] or ev[1] != s_a or ev[2] != s_b
    return events, overlaps


def _classify_pair(sa: _ScaledCurve, sb: _ScaledCurve, events, overlaps,
                   scale: int, mode: str):
    """Turn one pair's grouped events (from _pair_events) into incidences
    and violations; a vertex contact takes that curve's Point, and its
    int chain parameters become Fractions as its Incidence is written."""
    ida, idb = sa.curve.id, sb.curve.id
    incidences: List[Incidence] = []
    violations: List[Violation] = []

    for lo, hi in overlaps:
        violations.append(Violation(
            "overlap", (ida, idb), unlift((lo[0], lo[1], 1), scale),
            "curves share a collinear piece"))

    def write(kind: str, pattern: Optional[str] = None):
        incidences.append(Incidence(kind, point, ida, idb, Fraction(s_a),
                                    Fraction(s_b), pattern))

    # distinct keys are distinct points, so the sort never compares records
    for point, (proper, s_a, s_b, multi) in sorted(
            (sa.curve.points[ev[1]] if type(ev[1]) is int
             else sb.curve.points[ev[2]] if type(ev[2]) is int
             else unlift(key, scale), ev) for key, ev in events.items()):
        if multi:
            violations.append(Violation(
                "degenerate_contact", (ida, idb), point,
                "multiple passages through one contact point"))
            continue
        a_vertex = type(s_a) is int
        b_vertex = type(s_b) is int

        if not a_vertex and not b_vertex:
            if proper:
                write("crossing")
            else:
                violations.append(Violation(
                    "degenerate_contact", (ida, idb), point,
                    "interior contact without a proper crossing"))
            continue

        if a_vertex != b_vertex:
            vc, k = (sa, s_a) if a_vertex else (sb, s_b)
            if vc.is_endpoint_vertex(k):
                if mode == "arrangement":
                    write("tjoint")
                else:
                    violations.append(Violation(
                        "endpoint_contact", (ida, idb), point,
                        "arc endpoint rests on another curve"))
            else:
                violations.append(Violation(
                    "degenerate_contact", (ida, idb), point,
                    "polyline vertex rests on another curve interior"))
            continue

        a_end = sa.is_endpoint_vertex(s_a)
        b_end = sb.is_endpoint_vertex(s_b)
        if a_end or b_end:
            if mode == "arrangement":
                write("joint" if (a_end and b_end) else "tjoint")
            else:
                violations.append(Violation(
                    "endpoint_contact", (ida, idb), point,
                    "arc endpoint meets another curve at a vertex"))
            continue

        dirs = sorted([(d, "A") for d in sa.vertex_directions(s_a)]
                      + [(d, "B") for d in sb.vertex_directions(s_b)],
                      key=lambda item: angle_key(item[0]))
        if any(angle_cmp(dirs[k - 1][0], dirs[k][0]) == 0 for k in range(1, 4)):
            violations.append(Violation(
                "overlap", (ida, idb), point,
                "parallel germs at a shared vertex"))
            continue
        owners = "".join(owner for _, owner in dirs)
        write("crossing" if owners in ("ABAB", "BABA") else "tangency", owners)

    return incidences, violations


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
            tag = res[0]
            if tag == "none":
                continue
            if tag == "proper":
                pkey = grid_point((a, b), res[1])
            else:
                pkey = (res[1][0], res[1][1], 1)
            viols.append(Violation(
                "self_intersection", (cid,), unlift(pkey, scale),
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
    point_owners: Dict[Tuple[int, int, int], set] = defaultdict(set)
    for i, j in _meeting_pairs([sc.box for sc in scaled]):
        sa, sb = scaled[i], scaled[j]
        events, overlaps = _pair_events(sa, sb)
        for key in events:
            point_owners[key].update((sa.curve.id, sb.curve.id))
        incs, viols = _classify_pair(sa, sb, events, overlaps, scale, mode)
        violations.extend(viols)
        if incs:
            pairs[(sa.curve.id, sb.curve.id)] = tuple(incs)
        if m is not None and len(incs) > m:
            violations.append(Violation(
                "intersection_budget",
                (sa.curve.id, sb.curve.id), incs[0].point,
                f"{len(incs)} contacts exceed budget {m}"))

    triples = sorted((unlift(key, scale), tuple(sorted(owners)))
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


def curve_pair_incidences(a: Curve, b: Curve) -> Tuple[Incidence, ...]:
    """Contacts between two individually simple curves, ordered by point.

    Raises on any configuration outside the strict model.
    """
    pairs, violations = _run_engine([a, b], None, "strict")
    _raise_first(violations)
    incs = pairs.get((a.id, b.id), ())
    return tuple(sorted(incs, key=lambda inc: (inc.point.x, inc.point.y)))


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

    def restrict(self, sub_family: CurveFamily) -> "FamilyIncidences":
        """compute_incidences(sub_family), read from this strict catalogue
        of a family holding every curve of sub_family: of the violations, a
        sub-family can only add an exceeded smaller budget. Pairs are keyed
        and ordered by position in sub_family; a flipped pair swaps sides."""
        pos = {c.id: k for k, c in enumerate(sub_family.curves)}
        if not pos.keys() <= set(self.curve_ids):
            raise PreconditionError("restrict needs a sub-family")
        pairs = {}
        kept = (p for p in self.pairs if p[0] in pos and p[1] in pos)
        for a, b in sorted(kept, key=lambda p: sorted((pos[p[0]], pos[p[1]]))):
            incs = self.pairs[a, b]
            if pos[a] > pos[b]:
                a, b, incs = b, a, tuple(map(_swap_sides, incs))
            if len(incs) > sub_family.m:
                raise ValidationError(
                    f"intersection_budget involving curves {(a, b)}: "
                    f"{len(incs)} contacts exceed budget {sub_family.m}")
            pairs[a, b] = incs
        return FamilyIncidences(sub_family.m, tuple(pos), pairs)


_AB_SWAP = str.maketrans("AB", "BA")


def _swap_sides(inc: Incidence) -> Incidence:
    """The incidence as the engine reports it with its two curves swapped."""
    return replace(inc, a=inc.b, b=inc.a, s_a=inc.s_b, s_b=inc.s_a,
                   pattern=inc.pattern and inc.pattern.translate(_AB_SWAP))


def validate_general_position(family: CurveFamily) -> ValidationReport:
    """Check the whole strict family model, collecting every violation; a
    valid family's report keeps the catalogue compute_incidences would give."""
    pairs, violations = _run_engine(family.curves, family.m, "strict")
    fi = None if violations else FamilyIncidences(
        family.m, tuple(c.id for c in family.curves), pairs)
    return ValidationReport(ok=not violations, n=family.n, m=family.m,
                            violations=tuple(violations), incidences=fi)


def compute_incidences(family: CurveFamily) -> FamilyIncidences:
    """Contact catalog of a family; raises if the model is violated. Layers
    read a family's catalogue through catalogue(family), which runs this
    once per family."""
    pairs, violations = _run_engine(family.curves, family.m, "strict")
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


def mixed_contacts(curves: Sequence[Curve]) -> FamilyIncidences:
    """Arrangement-mode catalog for an ad-hoc curve set (sub-arcs allowed)."""
    pairs, violations = _run_engine(curves, None, "arrangement")
    _raise_first(violations)
    return FamilyIncidences(
        m=0, curve_ids=tuple(c.id for c in curves), pairs=pairs)
