"""Intersection and contact graphs of a catalogue, planarity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

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


def check_planarity(g: SimpleGraph) -> bool:
    """True iff g is planar, by networkx (in the `test` extra)."""
    import networkx
    nxg = networkx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return bool(networkx.check_planarity(nxg)[0])
