"""Intersection and contact graphs of a catalogue, planarity.

A curve graph maps each curve id, in sorted id order, to the frozenset of
its neighbours' ids; the catalogue's pairs are distinct ids of the family.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from .incidence import FamilyIncidences

CurveGraph = Dict[int, FrozenSet[int]]


def _adjacency(ids: Sequence[int],
               pairs: Iterable[Tuple[int, int]]) -> CurveGraph:
    adj: Dict[int, list] = {v: [] for v in sorted(ids)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return {v: frozenset(nb) for v, nb in adj.items()}


def intersection_graph_from(incidences: FamilyIncidences) -> CurveGraph:
    """Edge {i,j} iff curves i and j meet at least once."""
    return _adjacency(incidences.curve_ids, incidences.pairs)


def contact_graph_from(incidences: FamilyIncidences) -> CurveGraph:
    """Edge {i,j} iff i and j form a touching pair."""
    return _adjacency(incidences.curve_ids, incidences.touching_pairs())


def check_planarity(g: CurveGraph) -> bool:
    """True iff g is planar, by networkx (in the `test` extra)."""
    import networkx
    nxg = networkx.Graph()
    nxg.add_nodes_from(g)
    nxg.add_edges_from((u, v) for u, nb in g.items() for v in nb)
    return bool(networkx.check_planarity(nxg)[0])
