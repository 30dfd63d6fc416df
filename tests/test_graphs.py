"""Graph layer: contact/intersection graphs, planarity."""

from itertools import combinations

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom.generators import GeneratorSpec, generate
from contactgeom.graphs import (SimpleGraph, check_planarity,
                                contact_graph_from, intersection_graph_from)
from contactgeom.incidence import catalogue

import oracles


def complete(n):
    return SimpleGraph(tuple(range(n)), frozenset(combinations(range(n), 2)))


def test_simple_graph_accessors():
    g = SimpleGraph((3, 1, 2, 1), frozenset({(2, 1), (2, 3)}))
    assert g.vertices == (1, 2, 3) and g.edges == {(1, 2), (2, 3)}
    assert len(g.vertices) == 3 and len(g.edges) == 2
    assert 1 in g.neighbors(2) and 3 not in g.neighbors(1)
    assert set(g.neighbors(2)) == {1, 3} and g.neighbors(1) == {2}
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph((1,), frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="not a vertex"):
        SimpleGraph((1,), frozenset({(1, 2)}))


def test_planarity_on_known_graphs():
    assert check_planarity(complete(4))
    assert not check_planarity(complete(5))
    k33 = SimpleGraph(tuple(range(6)), frozenset(
        (i, j + 3) for i in range(3) for j in range(3)))
    assert not check_planarity(k33)
    # K5 minus one edge embeds fine
    k5 = complete(5)
    assert check_planarity(SimpleGraph(k5.vertices, k5.edges - {(0, 1)}))


_K5 = list(combinations(range(5), 2))
_K33 = [(i, j) for i in range(3) for j in range(3, 6)]


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
        assert not check_planarity(SimpleGraph(tuple(range(m + 3)),
                                               frozenset(out)))
        assert not oracles.is_plane(oracles.rotation(range(m + 3), out))


def test_contact_graph_of_chain_is_a_path():
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=0))
    g = contact_graph_from(catalogue(fam))
    assert len(g.vertices) == 6 and len(g.edges) == 5
    degrees = sorted(len(g.neighbors(v)) for v in g.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2]
    assert check_planarity(g)


def test_intersection_graph_includes_crossings():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=7, m=2, seed=5))
    fi = catalogue(fam)
    gi = intersection_graph_from(fi)
    gc = contact_graph_from(fi)
    assert len(gi.edges) == len(fi.pairs)
    assert len(gc.edges) == fi.T
    assert set(gc.edges) <= set(gi.edges)
