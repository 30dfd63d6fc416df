"""Graph layer: contact/intersection graphs, planarity."""

from itertools import combinations

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import Curve, CurveFamily
from contactgeom.graphs import (check_planarity, contact_graph_from,
                                intersection_graph_from)
from contactgeom.incidence import catalogue

import oracles


_K5 = list(combinations(range(5), 2))
_K33 = [(i, j) for i in range(3) for j in range(3, 6)]


def complete(n):
    return oracles.adjacency(range(n), combinations(range(n), 2))


def test_planarity_on_known_graphs():
    assert check_planarity(complete(4))
    assert not check_planarity(complete(5))
    assert not check_planarity(oracles.adjacency(range(6), _K33))
    # K5 minus one edge embeds fine
    assert check_planarity(oracles.adjacency(range(5), _K5[1:]))


@st.composite
def subdivided_graphs(draw):
    """(vertex count, edges): K5, K3,3, K4 or a random graph, with edges
    subdivided into paths, parallel paths added between vertices, pendant
    paths hung off vertices, and isolated vertices; every step but the
    random base leaves planarity as it was."""
    base = draw(st.sampled_from(("K5", "K33", "K4", "random")))
    if base == "random":
        n = draw(st.integers(0, 8))
        pairs = list(combinations(range(n), 2))
        edges = (draw(st.lists(st.sampled_from(pairs), unique=True))
                 if pairs else [])
    else:
        n, edges = {"K5": (5, _K5), "K33": (6, _K33),
                    "K4": (4, list(combinations(range(4), 2)))}[base]
    out = []
    for u, v in edges:       # each edge becomes a path of k + 1 edges
        k = draw(st.integers(0, 3))
        path = [u] + list(range(n, n + k)) + [v]
        n += k
        out += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 3))) if n >= 2 else ():
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        k = draw(st.integers(1, 3))          # a parallel path of k + 1 edges
        path = [u] + list(range(n, n + k)) + [v]
        n += k
        out += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 2))) if n else ():
        u = draw(st.integers(0, n - 1))
        k = draw(st.integers(1, 3))          # a pendant path of k edges
        path = [u] + list(range(n, n + k))
        n += k
        out += zip(path, path[1:])
    n += draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))   # labels in any order
    return n, [(perm[u], perm[v]) for u, v in out]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(subdivided_graphs())
def test_certificate_matches_networkx_on_subdivided_graphs(graph):
    # networkx's embedding of a planar graph is certified; sorted
    # neighbours are refused on any other
    n, edges = graph
    g = networkx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    want, _ = networkx.check_planarity(g)
    assert oracles.is_plane(oracles.rotation(range(n), edges)) == want


def test_subdivided_kuratowski_graphs_stay_nonplanar():
    # K5 and K3,3 with every edge subdivided twice, plus a tail and a
    # path parallel to the branch vertices 0 and 1: still not planar
    for n, edges in ((5, _K5), (6, _K33)):
        out, m = [], n
        for u, v in edges:
            out += [(u, m), (m, m + 1), (m + 1, v)]
            m += 2
        out += [(0, m), (m, m + 1), (0, m + 2), (m + 2, 1)]
        assert not check_planarity(oracles.adjacency(range(m + 3), out))
        assert not oracles.is_plane(oracles.rotation(range(m + 3), out))


def test_contact_graph_of_chain_is_a_path():
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=0))
    g = contact_graph_from(catalogue(fam))
    degrees = sorted(map(len, g.values()))
    assert len(g) == 6 and sum(degrees) // 2 == 5
    assert degrees == [1, 1, 2, 2, 2, 2]
    assert check_planarity(g)


def test_intersection_graph_includes_crossings():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=7, m=2, seed=5))
    fi = catalogue(fam)
    gi = intersection_graph_from(fi)
    gc = contact_graph_from(fi)
    assert sum(map(len, gi.values())) // 2 == len(fi.pairs)
    assert sum(map(len, gc.values())) // 2 == fi.T
    assert all(gc[v] <= gi[v] for v in gi)


def _family(name):
    if name == "chain":
        return generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=0))
    if name.startswith("rc-"):
        return generate(GeneratorSpec(kind="RandomCircles", n=7, m=2,
                                      seed=int(name[3:])))
    grid = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=1, seed=0))
    # ids 34, 29, ..., -6: gapped, negative, against the curve order
    return CurveFamily([Curve(id=34 - 5 * c.id, points=c.points,
                              closed=c.closed) for c in grid], grid.m)


@pytest.mark.parametrize("name", ["chain", "rc-3", "rc-5", "grid-relabelled"])
def test_curve_graphs_match_the_oracle(name):
    # the intersection graph holds every meeting pair, the contact graph
    # the pairs whose one contact is a tangency, keyed in sorted id order
    family = _family(name)
    ids = [c.id for c in family]
    table = oracles.family_contacts(family)
    fi = catalogue(family)
    gi = intersection_graph_from(fi)
    gc = contact_graph_from(fi)
    assert gi == oracles.adjacency(ids, table)
    assert gc == oracles.adjacency(
        ids, [pair for pair, got in table.items()
              if len(got) == 1 and got[0][1] == "tangency"])
    assert list(gi) == list(gc) == sorted(ids)
