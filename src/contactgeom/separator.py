"""Degree reduction, planar/string separators, and recursive decomposition.

The pipeline: cut curves into low-degree sub-curves without disturbing any
contact point, weigh the arrangement's plane skeleton, extract a balanced
vertex separator, lift it to a curve separator, and recurse until every
remaining piece is smaller than the threshold M = C n^2 d^3 / T^2.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .arrangement import (curve_portion, face_walk, plane_skeleton,
                          split_curve_at)
from .errors import DegenerateError, PreconditionError, check
from .geometry import Curve, CurveFamily, frac
from .graphs import intersection_graph_from
from .incidence import (catalogue, compute_incidences, keep_catalogue,
                        sub_family)

VertexId = Tuple


@dataclass(frozen=True)
class ReducedFamily(CurveFamily):
    """A family of sub-curves produced by reduce_degree.

    parent_of maps each piece id to the id of the curve it was cut from.
    Its incidences are the pieces' catalogue from reduce_degree's post-check.
    """
    parent_pairs: Tuple[Tuple[int, int], ...] = field(kw_only=True)

    @property
    def parent_of(self) -> Dict[int, int]:
        return dict(self.parent_pairs)


def _piece_intervals(c: Curve, params: Sequence[Fraction], d: int):
    """Chain-parameter intervals holding d contact params each (last may hold
    fewer), separated by open slivers cut out of the contact-free gaps: a
    gap (a/b, e/f) is cut at (2af + eb) / 3bf and (af + 2eb) / 3bf."""
    n = c.n_segments
    ps = [(s.numerator, s.denominator) for s in params]
    gaps = [(ps[k - 1], ps[k]) for k in range(d, len(ps), d)]
    if c.closed:
        e, f = ps[0]
        gaps.append((ps[-1], (e + n * f, f)))
    cuts = [Fraction(x, 3 * b * f) for (a, b), (e, f) in gaps
            for x in (2 * a * f + e * b, a * f + 2 * e * b)]
    # every other piece of the split; a closed curve's seam piece comes last
    pieces = split_curve_at(c, cuts)
    return pieces[1::2] if c.closed else pieces[::2]


def reduce_degree(family: CurveFamily) -> CurveFamily:
    """Cut every curve into sub-curves carrying at most d = X // n contact
    points each, where X is the family's total contact count.

    The cuts land strictly inside contact-free parameter gaps, two per gap at
    the one-third and two-thirds positions, so the pieces of one curve are
    pairwise disjoint and every contact point survives on exactly one piece.
    Cut parameters are formed in integers from the contacts' chain
    parameters, and cut points are read on each curve's own grid
    (arrangement.curve_portion). Returns the input unchanged when d would
    be 0. The pieces' catalogue is computed afresh, as a check that every
    contact survived, and kept on the result.
    """
    if family.n == 0:
        raise PreconditionError("reduce_degree needs at least one curve")
    fi = catalogue(family)
    d = fi.X // family.n
    if d == 0:
        return family
    pieces: List[Curve] = []
    parent: List[Tuple[int, int]] = []
    for c in family.curves:
        incs = fi.on_curve(c.id)
        parts = ([(c.points, c.closed)] if len(incs) <= d else
                 [(curve_portion(c, lo, hi), False) for lo, hi in
                  _piece_intervals(c, [inc.s_on(c.id) for inc in incs], d)])
        for points, closed in parts:
            parent.append((len(pieces), c.id))
            pieces.append(Curve(len(pieces), points, closed=closed))
    out = ReducedFamily(tuple(pieces), family.m, parent_pairs=tuple(parent))
    fo = compute_incidences(out)
    check(fo.X == fi.X and fo.T == fi.T, "degree reduction changed the stats")
    check({i.point for i in fo.all_incidences()}
          == {i.point for i in fi.all_incidences()},
          "degree reduction moved a contact point")
    return keep_catalogue(out, fo)


@dataclass(frozen=True)
class WeightedPlanarGraph:
    """A plane graph with nonnegative rational vertex weights, in the dense
    form the separator search reads: position k stands for the k-th label
    of `vertices` in sorted order, nbrs[k] holds its neighbours' positions
    in order, and its weight is scaled[k] / scale."""
    vertices: Tuple[VertexId, ...]
    nbrs: Tuple[Tuple[int, ...], ...]
    scaled: Tuple[int, ...]
    scale: int

    @property
    def edges(self) -> FrozenSet[Tuple[VertexId, VertexId]]:
        vs = self.vertices
        return frozenset((vs[u], vs[v]) for u, nb in enumerate(self.nbrs)
                         for v in nb if u < v)

    @property
    def weights(self) -> Dict[VertexId, Fraction]:
        return {v: Fraction(x, self.scale)
                for v, x in zip(self.vertices, self.scaled)}


def _plane_graph(vertices, out, origins, scaled, scale):
    """The graph of sorted labels, integer weights over one scale, and the
    rotation system `out` on positions, half-edge h leaving origins[h] (as
    face_walk reads it); None unless it is plane: V - E + F = 2 on each
    component with an edge, parallel edges counted."""
    g = WeightedPlanarGraph(
        tuple(vertices),
        tuple(tuple(sorted({origins[h ^ 1] for h in hs})) for hs in out),
        tuple(scaled), scale)
    components = sum(len(comp) > 1 for comp in _components(g.nbrs)[0])
    return g if (sum(map(bool, out)) - len(origins) // 2 + len(face_walk(out))
                 == 2 * components) else None


def weighted_graph(rotation: Mapping[VertexId, Sequence[VertexId]],
                   weights: Optional[Mapping[VertexId, Fraction]] = None,
                   ) -> WeightedPlanarGraph:
    """Build a WeightedPlanarGraph from a rotation system: each vertex
    label maps to its neighbours in counterclockwise order; loops are
    dropped. Weights are exact (geometry.frac; TypeError names a vertex
    whose weight is not), by default 1/|V| each.
    PreconditionError names a vertex without a weight >= 0 or listing a
    neighbour twice, or one that is no vertex or does not list it back,
    and is raised unless the rotation is plane (_plane_graph). The search
    reads positions and integer weights, ordered as labels and weights."""
    vs = tuple(sorted(rotation))
    darts = Counter((v, u) for v in vs for u in rotation[v] if u != v)
    half: Dict[Tuple, int] = {}     # twin half-edges 2i, 2i + 1, in order
    for (v, u), k in darts.items():
        if k > 1 or (u, v) not in darts:
            raise PreconditionError(f"vertex {v!r} lists {u!r}" + (
                " twice" if k > 1 else ", which does not list it"
                if u in rotation else ", which is not a vertex"))
        if (v, u) not in half:
            half[v, u], half[u, v] = len(half), len(half) + 1
    if weights is None:
        weights = {v: Fraction(1, len(vs)) for v in vs}
    ws = []
    for v in vs:
        # a missing weight fails the sign test
        ws.append(frac(weights.get(v, -1), f"vertex {v!r}: exact weight"))
        if ws[-1] < 0:
            raise PreconditionError(f"vertex {v!r} needs a weight >= 0")
    index = {v: k for k, v in enumerate(vs)}
    scale = math.lcm(*(x.denominator for x in ws))
    g = _plane_graph(vs, [[half[v, u] for u in rotation[v] if u != v]
                          for v in vs], [index[v] for v, _ in half],
                     [int(x * scale) for x in ws], scale)
    if g is None:
        raise PreconditionError("the rotation system is not plane")
    return g


@dataclass(frozen=True)
class ArrangementGraph(WeightedPlanarGraph):
    """The arrangement graph of a family, with each curve's chain of vertex
    positions along it, anchor first, in family order (plane_skeleton)."""
    chains: Tuple[Tuple[int, ...], ...] = field(kw_only=True)


def arrangement_to_planar_graph(family: CurveFamily) -> ArrangementGraph:
    """Convert the family's arrangement into a weighted planar graph.

    Vertices 0..V-1 are one anchor per curve by id, then the contact
    points by (smaller curve id, chain parameter on it), read off the
    catalogue and never the coordinates (arrangement.plane_skeleton,
    anchored); edges join vertices consecutive along a curve, and the
    result keeps each curve's chain of them. Each curve's weight is spread
    evenly over the vertices lying on it. Planarity is certified by the
    drawing: the skeleton's rotation, from the curves' germs, is checked
    by _plane_graph, else InvariantError. That count cannot see a reversed
    rotation at a cut vertex, where every contact of a degree-reduced
    family lies; the arrangement's faces, on the same rotation, can."""
    _, chains, origins, out = plane_skeleton(
        family.curves, catalogue(family), anchored=True)
    # curve weight 1/n over a chain of length k is L // k over scale n L
    L = math.lcm(*{len(chain) for chain in chains})
    vw = [0] * len(out)
    for chain in chains:
        share = L // len(chain)
        for v in chain:
            vw[v] += share
    g = _plane_graph(range(len(out)), out, origins, vw, family.n * L)
    check(g is not None, "arrangement graph's drawing is not plane")
    return ArrangementGraph(g.vertices, g.nbrs, g.scaled, g.scale,
                            chains=chains)


@dataclass(frozen=True)
class SeparatorResult:
    """A balanced vertex separator: no remaining component weighs more than
    two thirds of the total."""
    separator: FrozenSet
    components: Tuple[FrozenSet, ...]
    c_measured: float


# the search tries the first _CYCLE_CAP fundamental cycles of each component
# and the first _CUT_CAP articulation points as candidates
_CYCLE_CAP = 200
_CUT_CAP = 1024


def _components(nbrs: Sequence[Sequence[int]], removed: Sequence[int] = (),
                w: Sequence[int] = (), bound: Optional[int] = None):
    """Components of the graph on 0..V-1 (sorted neighbour lists) minus
    `removed`, and the breadth-first parent of every vertex reached.

    Each component is a BFS order from its smallest vertex, and components
    come in order of that vertex. A root is its own parent, and a removed
    vertex has parent -2. Given vertex weights w and a bound, the walk
    returns None as soon as a component is heavy (3 * weight > bound).
    """
    parent = [-1] * len(nbrs)
    for v in removed:
        parent[v] = -2
    out = []
    for root in range(len(nbrs)):
        if parent[root] != -1:
            continue
        parent[root] = root
        comp, cw = [root], 0
        for u in comp:
            for v in nbrs[u]:
                if parent[v] == -1:
                    parent[v] = u
                    comp.append(v)
            if bound is not None:
                cw += w[u]
                if 3 * cw > bound:
                    return None
        out.append(comp)
    return out, parent


def _articulation_points(nbrs: Sequence[Sequence[int]]) -> List[int]:
    """The cut vertices of the graph on 0..V-1, in order, by an iterative
    depth-first low-link search (components can be thousands deep)."""
    nv = len(nbrs)
    disc, low, splits = [-1] * nv, [0] * nv, [0] * nv
    clock = 0
    for root in range(nv):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            u, p, it = stack[-1]
            for v in it:
                if disc[v] < 0:
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append((v, u, iter(nbrs[v])))
                    break
                if v != p:
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if p >= 0:  # p splits off u's subtree unless it reaches above
                    low[p] = min(low[p], low[u])
                    splits[p] += low[u] >= disc[p]
        splits[root] -= 1   # a root cuts only with two depth-first children
    return [v for v in range(nv) if splits[v] > 0]


def _fundamental_cycles(nbrs, comp, parent, depth) -> List[Tuple[int, set]]:
    """(shallowest vertex, vertex set) of the fundamental cycles of one
    component's BFS tree, by smaller then larger endpoint of the closing
    edge, at most _CYCLE_CAP."""
    cycles = []
    for u in sorted(comp):
        for v in nbrs[u]:
            if v <= u or parent[v] == u or parent[u] == v:
                continue
            a, b, cyc = u, v, {u, v}
            while depth[a] > depth[b]:
                a = parent[a]
                cyc.add(a)
            while depth[b] > depth[a]:
                b = parent[b]
                cyc.add(b)
            while a != b:
                a, b = parent[a], parent[b]
                cyc.add(a)
                cyc.add(b)
            cycles.append((a, cyc))
            if len(cycles) >= _CYCLE_CAP:
                return cycles
    return cycles


def planar_separator(g: WeightedPlanarGraph) -> SeparatorResult:
    """Find a small vertex set whose removal leaves components of weight at
    most 2/3 of the total.

    Candidates come from BFS levels and fundamental cycles of a BFS tree of
    each component, articulation points, and a greedy fallback; the smallest
    candidate that passes the exact balance test wins (ties by balance, then
    lexicographically). A BFS level or cycle that leaves a heavy part of
    its component joined to the root is dropped unwalked, any other
    candidate's walk stops at its first heavy component, and the greedy
    peel, tried last, stops once it is longer than the best candidate. The
    search runs on g's positions and scaled integer weights.
    """
    nbrs, w, nv = g.nbrs, g.scaled, len(g.vertices)
    labels = lambda vs: frozenset(g.vertices[i] for i in vs)
    if nv <= 1:
        return SeparatorResult(frozenset(),
                               tuple(map(labels, _components(nbrs)[0])), 0.0)
    bound = 2 * sum(w)       # a component is heavy when 3 * weight > bound

    comps, parent = _components(nbrs)
    depth = [0] * nv
    below = list(w)          # the weight of each vertex's BFS subtree
    candidates: List = [()]
    for comp in comps:
        levels = [[comp[0]]]
        for u in comp[1:]:
            depth[u] = depth[parent[u]] + 1
            if depth[u] == len(levels):
                levels.append([])
            levels[-1].append(u)
        for u in reversed(comp[1:]):
            below[parent[u]] += below[u]
        # Removing a level or a cycle leaves every vertex outside the BFS
        # subtree of its shallowest vertex joined to the root, so a
        # candidate whose outside is heavy fails unwalked.
        outside = 0
        for level in levels:
            if 3 * outside <= bound:
                candidates.append(level)
            outside += sum(w[v] for v in level)
        candidates += [cyc for top, cyc in
                       _fundamental_cycles(nbrs, comp, parent, depth)
                       if 3 * (below[comp[0]] - below[top]) <= bound]
    candidates += [(v,) for v in _articulation_points(nbrs)[:_CUT_CAP]]
    best = None
    for cand in candidates:
        if best is not None and len(cand) > best[0]:
            continue             # its key loses on length alone
        walk = _components(nbrs, cand, w, bound)
        if walk is not None:
            heaviest = max((sum(w[v] for v in c) for c in walk[0]), default=0)
            key = (len(cand), heaviest, sorted(cand))
            if best is None or key < best:
                best = key
    # greedy fallback: peel the heaviest vertex out of the heaviest
    # component; a peel longer than the best candidate loses on length.
    # Only the heavy component is peeled: no worse than removing it whole.
    greedy: List[int] = []
    while best is None or len(greedy) <= best[0]:
        comps = _components(nbrs, greedy)[0]
        cw = [sum(w[v] for v in c) for c in comps]
        if 3 * max(cw, default=0) <= bound:
            key = (len(greedy), max(cw, default=0), sorted(greedy))
            if best is None or key < best:
                best = key
            break
        worst = comps[cw.index(max(cw))]
        greedy.append(max(worst, key=lambda v: (w[v], v)))
    check(best is not None, "greedy fallback did not validate")
    sep = best[2]
    return SeparatorResult(labels(sep),
                           tuple(map(labels, _components(nbrs, sep)[0])),
                           len(sep) / math.sqrt(nv))


@dataclass(frozen=True)
class StringSeparatorResult:
    """A curve separator: removing it splits the intersection graph into
    components of at most 2n/3 curves."""
    separator: FrozenSet[int]
    components: Tuple[FrozenSet[int], ...]
    c_measured: float


def _curve_components(family: CurveFamily):
    """The components of the family's intersection graph minus a removed
    curve set, as a function of that set; the adjacency is built once."""
    g = intersection_graph_from(catalogue(family))
    ids = tuple(g)
    index = {cid: i for i, cid in enumerate(ids)}
    nbrs = [sorted(map(index.__getitem__, g[cid])) for cid in ids]

    def components(removed=()) -> Tuple[FrozenSet[int], ...]:
        comps = _components(nbrs, [index[cid] for cid in removed])[0]
        return tuple(frozenset(ids[i] for i in c) for c in comps)
    return components


def string_separator(family: CurveFamily) -> StringSeparatorResult:
    """Lift a planar separator of the arrangement graph to a curve set.

    Curves weigh 1/n each, spread over their graph vertices; a curve joins
    the separator when any of its vertices does. Disjoint families return an
    empty separator before any planar machinery runs.
    """
    fi = catalogue(family)
    n = family.n
    components = _curve_components(family)
    if fi.X == 0:
        return StringSeparatorResult(frozenset(), components(), 0.0)
    g = arrangement_to_planar_graph(family)
    res = planar_separator(g)
    sep = {c.id for c, chain in zip(family.curves, g.chains)
           if not res.separator.isdisjoint(chain)}
    # the vertex-level lift can be wasteful (one contact vertex drags in two
    # curves); drop members that the balance guarantee does not need
    for cid in sorted(sep):
        if all(3 * len(c) <= 2 * n for c in components(sep - {cid})):
            sep.discard(cid)
    comps = components(sep)
    check(n <= 1 or all(3 * len(c) <= 2 * n for c in comps),
          "lifted separator lost the balance guarantee")
    return StringSeparatorResult(frozenset(sep), comps,
                                 len(sep) / math.sqrt(fi.X))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the recursive decomposition.

    separator holds every curve removed at any level; pieces are the terminal
    subsets, pairwise disjoint and pairwise non-intersecting, each smaller
    than the threshold M (or of size at most 2, the hard recursion floor).
    """
    d: int
    M: Fraction
    C_const: Fraction
    separator: FrozenSet[int]
    pieces: Tuple[FrozenSet[int], ...]
    touchings_surviving: int
    touchings_total: int
    per_level: Tuple[int, ...]

    @property
    def separator_ratio(self) -> Optional[Fraction]:
        """|S| * d / T when defined; the paper predicts a bounded ratio."""
        if self.touchings_total == 0:
            return None
        return Fraction(len(self.separator) * self.d, self.touchings_total)


def _bucket_index(k: int, M: Fraction) -> int:
    # largest i with (3/2)^i * M <= k, negative when k < M
    i = 0
    ratio = Fraction(k) / M
    if ratio >= 1:
        while ratio >= Fraction(3, 2):
            ratio = ratio * Fraction(2, 3)
            i += 1
        return i
    while ratio < 1:
        ratio = ratio * Fraction(3, 2)
        i -= 1
    return i


def recursive_decompose(family: CurveFamily,
                        C_const: Fraction = Fraction(8),
                        ) -> DecompositionReport:
    """Repeatedly separate the family until every piece has size < M.

    M = C_const * n^2 * d^3 / T^2, with d the average contact degree X // n
    of the (degree-reduced) input. Every touching pair either loses a curve
    to the separator or survives inside a single terminal piece. Families
    with d = 0 degenerate to intersection-graph components. DegenerateError
    is raised when the threshold formula does not apply: for d >= 1 with
    no touching pair (T = 0), and for M <= 1, which no nonempty piece could
    satisfy. Each recursion node is sub_family of its ids in family order.
    C_const is read exactly (geometry.frac): a float raises TypeError, and
    C_const <= 0 raises PreconditionError, on every family.
    """
    n = family.n
    if n == 0:
        raise PreconditionError("decomposition needs at least one curve")
    C_const = frac(C_const, "exact C_const")
    if C_const <= 0:
        raise PreconditionError(f"C_const = {C_const} is not positive")
    fi = catalogue(family)
    T = fi.T
    d = fi.X // n
    if d == 0:
        # too sparse for the threshold formula: fall back to the connected
        # components of the intersection graph, which nothing can separate
        pieces = tuple(sorted(_curve_components(family)(), key=min))
        return DecompositionReport(0, Fraction(0), C_const, frozenset(),
                                   pieces, T, T, ())
    if T == 0:
        raise DegenerateError("decomposition needs a touching pair")
    M = C_const * n * n * d ** 3 / (T * T)
    if M <= 1:
        raise DegenerateError(f"threshold M = {M} admits no nonempty piece")

    all_ids = frozenset(c.id for c in family.curves)
    pieces: List[FrozenSet[int]] = []
    sep: set = set()
    level_sizes: Dict[int, int] = {}
    nodes: List[FrozenSet[int]] = []

    def rec(ids: FrozenSet[int], depth: int) -> None:
        nodes.append(ids)
        if len(ids) < M or len(ids) <= 2:
            pieces.append(ids)
            return
        res = string_separator(
            sub_family(family, [c.id for c in family if c.id in ids]))
        sep.update(res.separator)
        level_sizes[depth] = level_sizes.get(depth, 0) + len(res.separator)
        for comp in sorted(res.components, key=min):
            rec(comp, depth + 1)

    rec(all_ids, 0)
    pieces.sort(key=min)

    check(sum(map(len, pieces)) == len(set().union(*pieces)),
          "pieces overlap")
    check(all(len(p) < M or len(p) <= 2 for p in pieces), "oversized piece")
    where = {cid: k for k, p in enumerate(pieces) for cid in p}
    check(all(where[a] == where[b] for (a, b), incs in fi.pairs.items()
              if incs and a in where and b in where),
          "contact between distinct pieces")
    check(all(nodes), "empty recursion node")
    buckets: Dict[int, List[FrozenSet[int]]] = {}
    for node in nodes:
        buckets.setdefault(_bucket_index(len(node), M), []).append(node)
    check(all(sum(map(len, group)) == len(set().union(*group))
              for group in buckets.values()),
          "same-bucket subsets share a curve")

    surviving = sum(1 for (a, b) in fi.touching_pairs()
                    if a in where and b in where)
    check(surviving == sum(1 for (a, b) in fi.touching_pairs()
                           if a not in sep and b not in sep),
          "surviving touchings miscounted")
    per_level = tuple(level_sizes[k] for k in sorted(level_sizes))
    return DecompositionReport(d, M, C_const, frozenset(sep), tuple(pieces),
                               surviving, T, per_level)
