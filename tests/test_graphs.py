"""Graph layer: contact/intersection graphs, planarity, biclique search."""

import random
from itertools import combinations

from contactgeom.generators import GeneratorSpec, generate
from contactgeom.graphs import (check_planarity, contact_graph_from,
                                graph_from_edges, intersection_graph_from,
                                max_common_neighborhood)
from contactgeom.incidence import catalogue


def complete(n):
    return graph_from_edges([(i, j) for i in range(n)
                             for j in range(i + 1, n)])


def brute_max_common(g, s):
    best = 0
    for left in combinations(g.vertices, s):
        common = set(g.vertices)
        for v in left:
            common &= set(g.neighbors(v))
        common -= set(left)
        best = max(best, len(common))
    return best


def test_simple_graph_accessors():
    g = graph_from_edges([(1, 2), (2, 3)])
    assert g.n == 3 and g.n_edges == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.degree(2) == 2
    assert set(g.neighbors(2)) == {1, 3}
    sub = g.subgraph({1, 2})
    assert sub.n == 2 and sub.n_edges == 1


def test_planarity_on_known_graphs():
    assert check_planarity(complete(4))
    assert not check_planarity(complete(5))
    k33 = graph_from_edges([(i, j + 3) for i in range(3) for j in range(3)])
    assert not check_planarity(k33)
    # K5 minus one edge embeds fine
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)][1:]
    assert check_planarity(graph_from_edges(edges))


def test_contact_graph_of_chain_is_a_path():
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=0))
    g = contact_graph_from(catalogue(fam))
    assert g.n == 6 and g.n_edges == 5
    degrees = sorted(g.degree(v) for v in g.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2]
    assert check_planarity(g)


def test_intersection_graph_includes_crossings():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=7, m=2, seed=5))
    fi = catalogue(fam)
    gi = intersection_graph_from(fi)
    gc = contact_graph_from(fi)
    assert gi.n_edges == len(fi.pairs)
    assert gc.n_edges == fi.T
    assert set(gc.edges) <= set(gi.edges)


def test_max_common_neighborhood_against_exhaustive_search():
    rng = random.Random(4)
    for trial in range(12):
        n = rng.randrange(6, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        g = graph_from_edges(edges, vertices=range(n))
        for s in (1, 2, 3):
            want = brute_max_common(g, s)
            got, witness = max_common_neighborhood(g, s)
            assert got == want, (trial, s, edges)
            if witness is not None:
                left, right = witness
                assert len(left) == s and len(right) == got
                for v in left:
                    for u in right:
                        assert g.has_edge(v, u)


def test_biclique_budget_exhaustion_is_reported():
    g = complete(14)
    try:
        max_common_neighborhood(g, 5, budget=3)
    except Exception as e:
        assert "budget" in str(e).lower()
    else:
        raise AssertionError("tiny budget should not complete on K14")

