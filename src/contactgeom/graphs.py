"""Intersection and contact graphs of a catalogue, biclique search,
planarity."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import ResourceError
from .incidence import FamilyIncidences


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on integer vertex ids; no loops, no multi-edges."""
    vertices: Tuple[int, ...]
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        vs = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", vs)
        adj: Dict[int, set] = {v: set() for v in vs}
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("loop edge")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) endpoint not a vertex")
            norm.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "edges", frozenset(norm))
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


def check_planarity(g: SimpleGraph) -> bool:
    """True iff g is planar, by networkx (in the `test` extra)."""
    import networkx
    nxg = networkx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return bool(networkx.check_planarity(nxg)[0])
