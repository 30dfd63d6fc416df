"""Degree reduction, planar/string separators, and recursive decomposition.

The pipeline: cut curves into low-degree sub-curves without disturbing any
contact point, convert the arrangement into a weighted planar graph, extract
a balanced vertex separator, lift it to a curve separator, and recurse until
every remaining piece is smaller than the threshold M = C n^2 d^3 / T^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import networkx

from .arrangement import curve_portion
from .errors import DegenerateError, PreconditionError
from .geometry import Curve, CurveFamily
from .incidence import FamilyIncidences, compute_incidences

VertexId = Tuple


@dataclass(frozen=True)
class ReducedFamily(CurveFamily):
    """A family of sub-curves produced by reduce_degree.

    parent_of maps each piece id to the id of the curve it was cut from.
    """
    parent_pairs: Tuple[Tuple[int, int], ...]

    @property
    def parent_of(self) -> Dict[int, int]:
        return dict(self.parent_pairs)


def _piece_intervals(c: Curve, params: Sequence[Fraction], d: int):
    """Chain-parameter intervals holding d contact params each (last may hold
    fewer), separated by open slivers cut out of the contact-free gaps."""
    deg = len(params)
    q = -(-deg // d)
    gaps = []
    for k in range(1, q):
        gaps.append((params[k * d - 1], params[k * d]))
    n = Fraction(c.n_segments)
    if c.closed:
        gaps.append((params[-1], params[0] + n))
        cuts = [(u + (v - u) / 3, u + 2 * (v - u) / 3) for u, v in gaps]
        out = []
        for k in range(len(cuts)):
            lo = cuts[k][1] % n
            hi = cuts[(k + 1) % len(cuts)][0]
            if hi <= lo:
                hi += n
            out.append((lo, hi))
        return out
    cuts = [(u + (v - u) / 3, u + 2 * (v - u) / 3) for u, v in gaps]
    bounds_lo = [Fraction(0)] + [c2 for _, c2 in cuts]
    bounds_hi = [c1 for c1, _ in cuts] + [n]
    return list(zip(bounds_lo, bounds_hi))


def reduce_degree(family: CurveFamily) -> CurveFamily:
    """Cut every curve into sub-curves carrying at most d = X // n contact
    points each, where X is the family's total contact count.

    The cuts land strictly inside contact-free parameter gaps, two per gap at
    the one-third and two-thirds positions, so the pieces of one curve are
    pairwise disjoint and every contact point survives on exactly one piece.
    Returns the input unchanged when d would be 0.
    """
    if family.n == 0:
        raise PreconditionError("reduce_degree needs at least one curve")
    fi = compute_incidences(family)
    d = fi.X // family.n
    if d == 0:
        return family
    pieces: List[Curve] = []
    parent: List[Tuple[int, int]] = []
    next_id = 0
    for c in family.curves:
        incs = fi.on_curve(c.id)
        if len(incs) <= d:
            pieces.append(Curve(next_id, c.points, closed=c.closed))
            parent.append((next_id, c.id))
            next_id += 1
            continue
        params = [inc.s_on(c.id) for inc in incs]
        for lo, hi in _piece_intervals(c, params, d):
            pieces.append(Curve(next_id, curve_portion(c, lo, hi), closed=False))
            parent.append((next_id, c.id))
            next_id += 1
    out = ReducedFamily(tuple(pieces), family.m, tuple(parent))
    fo = compute_incidences(out)
    assert fo.X == fi.X and fo.T == fi.T, "degree reduction changed the stats"
    assert ({i.point for i in fo.all_incidences()}
            == {i.point for i in fi.all_incidences()}), \
        "degree reduction moved a contact point"
    return out


@dataclass(frozen=True)
class WeightedPlanarGraph:
    """A planar graph with nonnegative rational vertex weights."""
    vertices: Tuple[VertexId, ...]
    weight_items: Tuple[Tuple[VertexId, Fraction], ...]
    edges: FrozenSet[Tuple[VertexId, VertexId]]
    planar: bool

    @property
    def weights(self) -> Dict[VertexId, Fraction]:
        return dict(self.weight_items)

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.weight_items), Fraction(0))

    def adjacency(self) -> Dict[VertexId, Tuple[VertexId, ...]]:
        adj: Dict[VertexId, List[VertexId]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}


def weighted_graph(vertices: Sequence[VertexId],
                   edges: Sequence[Tuple[VertexId, VertexId]],
                   weights: Optional[Mapping[VertexId, Fraction]] = None,
                   ) -> WeightedPlanarGraph:
    """Build a WeightedPlanarGraph from explicit data, certifying planarity.

    Default weights are uniform 1/|V|.
    """
    vs = tuple(sorted(set(vertices)))
    if weights is None:
        w = Fraction(1, len(vs)) if vs else Fraction(0)
        wmap = {v: w for v in vs}
    else:
        wmap = {v: Fraction(weights[v]) for v in vs}
        if any(x < 0 for x in wmap.values()):
            raise PreconditionError("vertex weights must be nonnegative")
    es = frozenset(tuple(sorted((u, v))) for u, v in edges if u != v)
    g = networkx.Graph()
    g.add_nodes_from(vs)
    g.add_edges_from(es)
    planar, _ = networkx.check_planarity(g)
    return WeightedPlanarGraph(vs, tuple(sorted(wmap.items())),
                               es, bool(planar))


def arrangement_to_planar_graph(family: CurveFamily,
                                weights: Optional[Mapping[int, Fraction]] = None,
                                fi: Optional[FamilyIncidences] = None,
                                ) -> WeightedPlanarGraph:
    """Convert the family's arrangement into a weighted planar graph.

    Vertices are the contact points plus one anchor per curve; edges join
    vertices consecutive along a curve. Each curve's weight is spread evenly
    over the vertices lying on it; contact vertices collect a share from both
    curves through them. Planarity is certified, not assumed: the graph ships
    through check_planarity.
    """
    if fi is None:
        fi = compute_incidences(family)
    n = family.n
    if weights is None:
        weights = {c.id: Fraction(1, n) for c in family.curves}
    verts: Dict[VertexId, Fraction] = {}
    edges: List[Tuple[VertexId, VertexId]] = []
    for c in family.curves:
        chain: List[VertexId] = [("a", c.id)]
        for inc in fi.on_curve(c.id):
            chain.append(("p", inc.point.x, inc.point.y))
        share = Fraction(weights[c.id]) / len(chain)
        for v in chain:
            verts[v] = verts.get(v, Fraction(0)) + share
        for i in range(1, len(chain)):
            edges.append((chain[i - 1], chain[i]))
        if c.closed and len(chain) > 1:
            edges.append((chain[-1], chain[0]))
    g = weighted_graph(tuple(verts), edges, verts)
    assert g.planar, "arrangement graph failed the planarity check"
    return g


@dataclass(frozen=True)
class SeparatorResult:
    """A balanced vertex separator: no remaining component weighs more than
    two thirds of the total."""
    separator: FrozenSet
    components: Tuple[FrozenSet, ...]
    c_measured: float


def _components(adj: Mapping[VertexId, Tuple[VertexId, ...]],
                removed: FrozenSet) -> List[FrozenSet]:
    seen = set(removed)
    out = []
    for root in sorted(adj):
        if root in seen:
            continue
        comp = {root}
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        out.append(frozenset(comp))
    return out


def _bfs_levels(adj, root) -> List[List[VertexId]]:
    levels = [[root]]
    seen = {root}
    while True:
        nxt = []
        for u in levels[-1]:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            return levels
        levels.append(sorted(nxt))


def _bfs_tree(adj, root):
    parent = {root: None}
    order = [root]
    for u in order:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    return parent


def _fundamental_cycles(adj, root, cap: int = 200):
    """Vertex sets of fundamental cycles of a BFS tree, largest first capped."""
    parent = _bfs_tree(adj, root)
    depth = {}
    for v in parent:
        d, u = 0, v
        while parent[u] is not None:
            u = parent[u]
            d += 1
        depth[v] = d
    tree_edges = {tuple(sorted((v, p)))
                  for v, p in parent.items() if p is not None}
    cycles = []
    for u in sorted(parent):
        for v in adj[u]:
            if v <= u or v not in parent:
                continue
            if tuple(sorted((u, v))) in tree_edges:
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
            cycles.append(frozenset(cyc))
            if len(cycles) >= cap:
                return cycles
    return cycles


def planar_separator(g: WeightedPlanarGraph) -> SeparatorResult:
    """Find a small vertex set whose removal leaves components of weight at
    most 2/3 of the total.

    Candidates come from BFS levels and fundamental cycles of a BFS tree of
    each component, plus a greedy fallback; every candidate is validated
    exactly with rational arithmetic and the smallest valid one wins (ties by
    balance, then lexicographically).
    """
    if not g.planar:
        raise PreconditionError("separator needs a planar graph")
    adj = g.adjacency()
    nv = len(g.vertices)
    if nv <= 1:
        comps = tuple(_components(adj, frozenset()))
        return SeparatorResult(frozenset(), comps, 0.0)
    wmap = g.weights
    total = g.total_weight
    bound = Fraction(2, 3) * total

    def weight(vs) -> Fraction:
        return sum((wmap[v] for v in vs), Fraction(0))

    candidates: List[FrozenSet] = [frozenset()]
    for comp in _components(adj, frozenset()):
        root = min(comp)
        levels = _bfs_levels(adj, root)
        for lev in levels:
            candidates.append(frozenset(lev))
        candidates.extend(_fundamental_cycles(adj, root))
        candidates.append(frozenset(comp))
    nxg = networkx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    cuts = sorted(networkx.articulation_points(nxg))
    candidates.extend(frozenset((v,)) for v in cuts[:1024])
    # greedy fallback: peel heaviest vertices out of overweight components
    greedy: set = set()
    while True:
        comps = _components(adj, frozenset(greedy))
        heavy = [c for c in comps if weight(c) > bound]
        if not heavy:
            break
        worst = max(heavy, key=weight)
        greedy.add(max(worst, key=lambda v: (wmap[v], v)))
    candidates.append(frozenset(greedy))

    best = None
    for cand in candidates:
        comps = _components(adj, cand)
        if any(weight(c) > bound for c in comps):
            continue
        key = (len(cand), max((weight(c) for c in comps), default=Fraction(0)),
               sorted(cand))
        if best is None or key < best[0]:
            best = (key, cand, tuple(comps))
    assert best is not None, "greedy fallback should always validate"
    _, sep, comps = best
    return SeparatorResult(sep, comps, len(sep) / math.sqrt(nv))


@dataclass(frozen=True)
class StringSeparatorResult:
    """A curve separator: removing it splits the intersection graph into
    components of at most 2n/3 curves."""
    separator: FrozenSet[int]
    components: Tuple[FrozenSet[int], ...]
    c_measured: float


def _curve_components(family: CurveFamily, fi: FamilyIncidences,
                      removed: FrozenSet[int]) -> Tuple[FrozenSet[int], ...]:
    adj: Dict[int, List[int]] = {c.id: [] for c in family.curves
                                 if c.id not in removed}
    for (a, b), incs in fi.pairs.items():
        if incs and a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    return tuple(_components({k: tuple(v) for k, v in adj.items()},
                             frozenset()))


def string_separator(family: CurveFamily) -> StringSeparatorResult:
    """Lift a planar separator of the arrangement graph to a curve set.

    Curves weigh 1/n each, spread over their graph vertices; a curve joins
    the separator when any of its vertices does. Disjoint families return an
    empty separator before any planar machinery runs.
    """
    fi = compute_incidences(family)
    n = family.n
    if fi.X == 0:
        comps = _curve_components(family, fi, frozenset())
        return StringSeparatorResult(frozenset(), comps, 0.0)
    g = arrangement_to_planar_graph(family, fi=fi)
    res = planar_separator(g)
    on_point: Dict[VertexId, List[int]] = {}
    for (a, b), incs in fi.pairs.items():
        for inc in incs:
            on_point.setdefault(("p", inc.point.x, inc.point.y), []).extend((a, b))
    sep: set = set()
    for v in res.separator:
        if v[0] == "a":
            sep.add(v[1])
        else:
            sep.update(on_point[v])
    # the vertex-level lift can be wasteful (one contact vertex drags in two
    # curves); drop members that the balance guarantee does not need
    for cid in sorted(sep):
        trial = frozenset(sep - {cid})
        if all(3 * len(c) <= 2 * n
               for c in _curve_components(family, fi, trial)):
            sep.discard(cid)
    comps = _curve_components(family, fi, frozenset(sep))
    if n > 1:
        assert all(3 * len(c) <= 2 * n for c in comps), \
            "lifted separator lost the balance guarantee"
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
    with d = 0 degenerate to intersection-graph components; M <= 1 raises
    DegenerateError because no nonempty piece could satisfy the threshold.
    """
    n = family.n
    if n == 0:
        raise PreconditionError("decomposition needs at least one curve")
    C_const = Fraction(C_const)
    fi = compute_incidences(family)
    T = fi.T
    d = fi.X // n
    if d == 0:
        # too sparse for the threshold formula: fall back to the connected
        # components of the intersection graph, which nothing can separate
        pieces = tuple(sorted(_curve_components(family, fi, frozenset()),
                              key=min))
        return DecompositionReport(0, Fraction(0), C_const, frozenset(),
                                   pieces, T, T, ())
    if T == 0:
        raise PreconditionError("decomposition needs a touching pair")
    M = C_const * n * n * d ** 3 / (T * T)
    if M <= 1:
        raise DegenerateError(f"threshold M = {M} admits no nonempty piece")

    all_ids = frozenset(c.id for c in family.curves)
    by_id = {c.id: c for c in family.curves}
    pieces: List[FrozenSet[int]] = []
    sep: set = set()
    level_sizes: Dict[int, int] = {}
    nodes: List[FrozenSet[int]] = []

    def rec(ids: FrozenSet[int], depth: int) -> None:
        nodes.append(ids)
        if len(ids) < M or len(ids) <= 2:
            pieces.append(ids)
            return
        sub = CurveFamily(tuple(by_id[i] for i in sorted(ids)), family.m)
        res = string_separator(sub)
        sep.update(res.separator)
        level_sizes[depth] = level_sizes.get(depth, 0) + len(res.separator)
        for comp in sorted(res.components, key=min):
            rec(comp, depth + 1)

    rec(all_ids, 0)
    pieces.sort(key=min)

    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert not (pieces[i] & pieces[j]), "pieces overlap"
    assert all(len(p) < M or len(p) <= 2 for p in pieces), "oversized piece"
    where = {cid: k for k, p in enumerate(pieces) for cid in p}
    for (a, b), incs in fi.pairs.items():
        if incs and a in where and b in where:
            assert where[a] == where[b], "contact between distinct pieces"
    buckets: Dict[int, List[FrozenSet[int]]] = {}
    for node in nodes:
        assert node, "empty recursion node"
        buckets.setdefault(_bucket_index(len(node), M), []).append(node)
    for group in buckets.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert not (group[i] & group[j]), \
                    "same-bucket subsets share a curve"

    surviving = sum(1 for (a, b) in fi.touching_pairs()
                    if a in where and b in where)
    assert surviving == sum(1 for (a, b) in fi.touching_pairs()
                            if a not in sep and b not in sep)
    per_level = tuple(level_sizes[k] for k in sorted(level_sizes))
    return DecompositionReport(d, M, C_const, frozenset(sep), tuple(pieces),
                               surviving, T, per_level)
