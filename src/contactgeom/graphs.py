"""Intersection and contact graphs of a catalogue, biclique search,
planarity."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import (Collection, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from .errors import ResourceError, check
from .incidence import FamilyIncidences


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on integer vertex ids; no loops, no multi-edges."""
    vertices: Tuple[int, ...]
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        vs = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", vs)
        vset = set(vs)
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("loop edge")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) endpoint not a vertex")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm))
        adj: Dict[int, set] = {v: set() for v in vs}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", {v: frozenset(s) for v, s in adj.items()})

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> FrozenSet[int]:
        return self._adj[v]


def intersection_graph_from(incidences: FamilyIncidences) -> SimpleGraph:
    """Edge {i,j} iff curves i and j meet at least once."""
    return SimpleGraph(
        vertices=incidences.curve_ids,
        edges=frozenset(pair for pair, incs in incidences.pairs.items() if incs))


def contact_graph_from(incidences: FamilyIncidences) -> SimpleGraph:
    """Edge {i,j} iff i and j form a touching pair."""
    return SimpleGraph(vertices=incidences.curve_ids,
                       edges=frozenset(incidences.touching_pairs()))


def max_common_neighborhood(g: SimpleGraph, s: int,
                            budget: int = 5_000_000) -> Tuple[int, Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """Largest t with K_{s,t} in g, plus one witness; (0, None) when none.

    Exhaustive over s-subsets of the vertex set in order, pruning a branch
    whose common neighbourhood cannot beat the best right side so far.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if comb(g.n, s) > budget:
        raise ResourceError(f"C({g.n},{s}) exceeds biclique budget {budget}")
    order = g.vertices
    best: List = [0, None]

    def extend(start: int, chosen: List[int], common: Optional[FrozenSet[int]]):
        if len(chosen) == s:
            rest = sorted(common - set(chosen))
            if len(rest) > best[0]:
                best[0] = len(rest)
                best[1] = (tuple(chosen), tuple(rest))
            return
        need = s - len(chosen)
        for idx in range(start, len(order) - need + 1):
            v = order[idx]
            nxt = g.neighbors(v) if common is None else (common & g.neighbors(v))
            if len(nxt) <= best[0]:
                continue
            chosen.append(v)
            extend(idx + 1, chosen, nxt)
            chosen.pop()

    extend(0, [], None)
    return best[0], best[1]


def _reduced(vertices: Sequence[int],
             edges: Collection[Tuple[int, int]]) -> Dict[int, set]:
    """Adjacency of the graph with every vertex of degree 0 or 1 deleted
    and every vertex of degree 2 suppressed (its two edges joined into
    one, a parallel edge dropped), repeated until every vertex left has
    degree 3 or more. Neither step changes planarity."""
    adj: Dict[int, set] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    low = [v for v, ns in adj.items() if len(ns) <= 2]
    while low:
        v = low.pop()
        ns = adj.get(v)
        if ns is None or len(ns) > 2:
            continue
        del adj[v]
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            u, x = ns
            adj[u].add(x)
            adj[x].add(u)
        low += [u for u in ns if len(adj[u]) <= 2]
    return adj


def is_planar(vertices: Sequence[int],
              edges: Collection[Tuple[int, int]]) -> bool:
    """True iff the graph on integer `vertices` with these distinct,
    loop-free `edges` is planar. The graph is reduced first (see _reduced);
    an Euler count rejects E > 3V - 6, then networkx certifies the rest;
    the two must agree on the rejection side."""
    adj = _reduced(vertices, edges)
    nv = len(adj)
    ne = sum(map(len, adj.values())) // 2
    if nv >= 3 and ne > 3 * nv - 6:
        return False
    import networkx  # loaded at the first certificate, not at start-up
    g = networkx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u, ns in adj.items() for v in ns if u < v)
    ok, _ = networkx.check_planarity(g)
    check(not ok or nv < 3 or ne <= 3 * nv - 6,
          "planar graph exceeds 3n - 6 edges")
    return bool(ok)


def check_planarity(g: SimpleGraph) -> bool:
    """True iff g is planar, by the certificate `is_planar`."""
    return is_planar(g.vertices, g.edges)
