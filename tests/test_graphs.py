"""Graph layer: contact/intersection graphs, planarity, biclique search."""

import random
from itertools import combinations

import pytest

from contactgeom.generators import GeneratorSpec, generate
from contactgeom.graphs import (SimpleGraph, check_planarity,
                                contact_graph_from, intersection_graph_from,
                                max_common_neighborhood)
from contactgeom.incidence import catalogue


def complete(n):
    return SimpleGraph(tuple(range(n)), frozenset(combinations(range(n), 2)))


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
    g = SimpleGraph((3, 1, 2, 1), frozenset({(2, 1), (2, 3)}))
    assert g.vertices == (1, 2, 3) and g.edges == {(1, 2), (2, 3)}
    assert g.n == 3 and g.n_edges == 2
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


def test_contact_graph_of_chain_is_a_path():
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=0))
    g = contact_graph_from(catalogue(fam))
    assert g.n == 6 and g.n_edges == 5
    degrees = sorted(len(g.neighbors(v)) for v in g.vertices)
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
        g = SimpleGraph(tuple(range(n)), frozenset(edges))
        for s in (1, 2, 3):
            want = brute_max_common(g, s)
            got, witness = max_common_neighborhood(g, s)
            assert got == want, (trial, s, edges)
            if witness is not None:
                left, right = witness
                assert len(left) == s and len(right) == got
                for v in left:
                    for u in right:
                        assert u in g.neighbors(v)


def test_biclique_budget_exhaustion_is_reported():
    g = complete(14)
    try:
        max_common_neighborhood(g, 5, budget=3)
    except Exception as e:
        assert "budget" in str(e).lower()
    else:
        raise AssertionError("tiny budget should not complete on K14")

