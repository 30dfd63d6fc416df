"""Degree reduction, planar separators, and the recursive decomposition."""

import random
from dataclasses import replace
from fractions import Fraction

import networkx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactgeom import incidence, separator
from contactgeom.errors import (DegenerateError, InvariantError,
                                PreconditionError)
from contactgeom.generators import KINDS, GeneratorSpec, generate
from contactgeom.graphs import SimpleGraph, check_planarity
from contactgeom.geometry import Curve, CurveFamily, pt
from contactgeom.incidence import FamilyIncidences, compute_incidences
from contactgeom.separator import (ReducedFamily, SeparatorResult,
                                   StringSeparatorResult,
                                   arrangement_to_planar_graph,
                                   planar_separator, recursive_decompose,
                                   reduce_degree, string_separator,
                                   weighted_graph)

import instances
import oracles

F = Fraction


def grid9():
    return generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=2, seed=1))


def chain9():
    return generate(GeneratorSpec(kind="TangentChain", n=9, m=2, seed=1))


# -------------------------------------------------------- degree reduction

def test_reduce_degree_preserves_contacts():
    fam = grid9()
    fi = compute_incidences(fam)
    d = fi.X // fam.n
    red = reduce_degree(fam)
    assert isinstance(red, ReducedFamily)
    assert red.n >= fam.n
    assert set(red.parent_of.values()) == {c.id for c in fam}
    fo = compute_incidences(red)
    assert fo.X == fi.X and fo.T == fi.T
    assert ({i.point for i in fo.all_incidences()}
            == {i.point for i in fi.all_incidences()})
    for c in red:
        assert len(fo.on_curve(c.id)) <= d


def test_reduce_degree_same_parent_pieces_are_disjoint():
    red = reduce_degree(grid9())
    fo = compute_incidences(red)
    par = red.parent_of
    for (a, b), incs in fo.pairs.items():
        if incs:
            assert par[a] != par[b]


def test_reduced_family_carries_its_catalogue():
    fam = grid9()
    red = reduce_degree(fam)
    fo = compute_incidences(red)
    assert red.incidences == fo
    assert list(red.incidences.pairs.items()) == list(fo.pairs.items())
    # the catalogue takes no part in equality, hashing or repr
    bare = ReducedFamily(red.curves, red.m, parent_pairs=red.parent_pairs)
    assert bare.incidences is None
    assert bare == red and hash(bare) == hash(red) and repr(bare) == repr(red)
    assert reduce_degree(fam) == red


def test_reduce_degree_identity_when_sparse():
    fam = chain9()           # X = 8 < n, so the per-curve budget is zero
    assert reduce_degree(fam) is fam


def test_reduce_degree_post_check_raises_invariant_error(monkeypatch):
    calls = []

    def lossy(family):
        # the generated family carries its catalogue, so the one call is
        # the post-check on the pieces: drop one pair
        fi = compute_incidences(family)
        calls.append(family)
        pairs = dict(fi.pairs)
        pairs.pop(min(pairs))
        return FamilyIncidences(fi.m, fi.curve_ids, pairs)

    monkeypatch.setattr(separator, "compute_incidences", lossy)
    with pytest.raises(InvariantError, match="changed the stats"):
        reduce_degree(grid9())
    assert len(calls) == 1


def test_reduce_degree_post_check_catches_a_moved_point(monkeypatch):
    def moved(family):
        # keep every count and kind, and shift one contact point
        fi = compute_incidences(family)
        pairs = dict(fi.pairs)
        key = min(k for k, incs in pairs.items() if incs)
        inc = pairs[key][0]
        shifted = replace(inc, point=pt(inc.point.x + F(1, 7), inc.point.y))
        pairs[key] = (shifted,) + pairs[key][1:]
        return FamilyIncidences(fi.m, fi.curve_ids, pairs)

    monkeypatch.setattr(separator, "compute_incidences", moved)
    with pytest.raises(InvariantError, match="moved a contact point"):
        reduce_degree(grid9())


def fence_families():
    """The fence families of the charging benchmark, m = 40: nested open
    combs with 2, 3 and 4 pickets, the hat variant (spot order flipped on
    picket 2) with 3, closed nested combs and distinct combs with 6."""
    comb = instances.comb_subarc
    out = []
    for s, shape in ((2, "nested"), (3, "nested"), (4, "nested"), (3, "hat"),
                     (6, "closed"), (6, "distinct")):
        if shape == "distinct":
            combs = (comb(101, s, ("elbow",) * s, 0),
                     comb(102, s, ("sh1e",) * s, 0))
        elif shape == "hat":
            combs = (comb(101, s, ("elbow", "elbow", "el3"), 0),
                     comb(102, s, ("el2", "el2", "elbow"), 1))
        else:
            closed = shape == "closed"
            combs = (comb(101, s, ("elbow",) * s, 0, closed),
                     comb(102, s, ("el2",) * s, 1, closed))
        out.append(CurveFamily(
            tuple(sa.geometry for sa in instances.fence_subarcs(s))
            + tuple(c.geometry for c in combs), 40))
    return out


@pytest.mark.parametrize("families", [
    lambda: [generate(GeneratorSpec(kind=kind, n=12, m=m, seed=m))
             for kind in KINDS for m in (1, 2, 3)],
    fence_families], ids=["generators", "fences"])
def test_reduce_degree_matches_the_fraction_pieces(families):
    # each set cuts open arcs, and closed curves whose piece across the
    # seam holds the first vertex or starts past it
    cut = set()
    for fam in families():
        fi = compute_incidences(fam)
        want = oracles.reduced_pieces(fam, fi)
        red = reduce_degree(fam)
        if want is None:
            assert red is fam
            continue
        assert [(c.id, c.points, c.closed) for c in red.curves] == [
            (k, pts, closed) for k, (pts, closed, _) in enumerate(want)]
        assert red.parent_pairs == tuple(
            (k, parent) for k, (_, _, parent) in enumerate(want))
        last = {parent: red.curves[k] for k, parent in red.parent_pairs}
        for c in fam.curves:
            if last[c.id].points != c.points:
                cut.add("open" if not c.closed else "across"
                        if c.points[0] in last[c.id].points[1:-1] else "past")
    assert cut == {"open", "across", "past"}


# ----------------------------------------------------------- planar graphs

def test_weighted_graph_defaults_and_certificate():
    k4 = ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4))
    g = weighted_graph(oracles.rotation((1, 2, 3, 4), k4))
    assert g.edges == {tuple(sorted(e)) for e in k4}  # K4 embeds
    assert sum(g.weights.values()) == 1
    assert all(w == F(1, 4) for w in g.weights.values())
    k5_edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(PreconditionError, match="not plane"):
        weighted_graph(oracles.rotation(range(5), k5_edges))
    assert weighted_graph({}).vertices == ()


def test_weighted_graph_rejects_negative_weight():
    with pytest.raises(PreconditionError, match="vertex 1 "):
        weighted_graph({1: [2], 2: [1]}, {1: F(-1), 2: F(2)})


def test_weighted_graph_drops_self_loops():
    g = weighted_graph({1: [1, 2], 2: [1], 3: [3]})
    assert g.edges == frozenset({(1, 2)}) and g.vertices == (1, 2, 3)


def test_weighted_graph_weights_are_exact():
    with pytest.raises(TypeError,
                       match="^vertex 1: exact weight required, got float$"):
        weighted_graph({1: [2], 2: [1]}, {1: 0.1, 2: 0.2})


@pytest.mark.parametrize("rotation,weights,message", [
    ({1: [2], 2: [1]}, {1: 1}, "vertex 2 needs a weight"),
    ({1: [2, 3], 2: [1]}, None, "vertex 1 lists 3, which is not a vertex"),
    ({1: [2], 2: [1, 3], 3: []}, None,
     "vertex 2 lists 3, which does not list it"),
    ({1: [2, 3, 2], 2: [1], 3: [1]}, None, "vertex 1 lists 2 twice")],
    ids=["no-weight", "not-a-vertex", "one-sided", "twice"])
def test_weighted_graph_rejects_a_bad_rotation(rotation, weights, message):
    with pytest.raises(PreconditionError, match=message):
        weighted_graph(rotation, weights)


def _labelled(edges, kind):
    """The integer edge list with ("a", id) or ("p", x, y) labels."""
    label = {"a": lambda v: ("a", 10 - v),
             "p": lambda v: ("p", F(v, 3), F(-v * v, 7))}[kind]
    return [(label(u), label(v)) for u, v in edges]


@pytest.mark.parametrize("kind", ["a", "p"])
@pytest.mark.parametrize("name,edges", [
    ("K5", [(i, j) for i in range(5) for j in range(i + 1, 5)]),
    ("K33", [(i, j) for i in range(3) for j in range(3, 6)]),
    ("grid", [(4 * i + j, 4 * i + j + 1) for i in range(4) for j in range(3)]
     + [(4 * i + j, 4 * i + j + 4) for i in range(3) for j in range(4)])])
def test_weighted_graph_planarity_matches_networkx_on_labels(kind, name,
                                                             edges):
    es = _labelled(edges, kind)
    g = networkx.Graph(es)
    want, _ = networkx.check_planarity(g)
    assert want == (name == "grid")
    rotation = oracles.rotation(list(g.nodes), es)
    assert oracles.is_plane(rotation) == want
    if want:
        got = weighted_graph(rotation)
        assert set(got.vertices) == set(g.nodes)
        assert got.edges == {tuple(sorted(e)) for e in es}


def test_arrangement_graph_shape():
    fam = grid9()
    fi = compute_incidences(fam)
    g = arrangement_to_planar_graph(fam)
    points = {i.point for i in fi.all_incidences()}
    # anchors 0..n-1 in curve-id order, then the contact points
    assert g.vertices == tuple(range(fam.n + len(points)))
    ids = sorted(c.id for c in fam)
    for k, cid in enumerate(ids):
        # an anchor only meets the contacts of its own curve
        assert all(v >= fam.n for e in g.edges if k in e for v in e if v != k)
        assert g.weights[k] == F(1, fam.n) / (1 + len(fi.on_curve(cid)))
    assert all(u < v for u, v in g.edges)
    assert check_planarity(SimpleGraph(g.vertices, g.edges))
    assert sum(g.weights.values()) == 1


def test_string_separator_lifts_through_the_graph_chains(monkeypatch):
    # the arrangement graph keeps each curve's chain, anchor first, then its
    # contacts along it, and string_separator builds the chains only there
    fam = grid9()
    fi = compute_incidences(fam)
    g = arrangement_to_planar_graph(fam)
    ids = sorted(c.id for c in fam)
    for c, chain in zip(fam.curves, g.chains):
        assert chain[0] == ids.index(c.id)
        assert len(chain) == 1 + len(fi.on_curve(c.id))
        assert all(tuple(sorted(e)) in g.edges for e in zip(chain, chain[1:]))
    built, real = [], separator._vertex_chains
    monkeypatch.setattr(separator, "_vertex_chains",
                        lambda f: built.append(f) or real(f))
    string_separator(fam)
    assert len(built) == 1


ARRANGEMENT_FAMILIES = [
    ("UnitCirclesGrid", 16, 1), ("UnitCirclesGrid", 30, 2),
    ("RandomCircles", 12, 3), ("RandomCircles", 40, 4),
    ("TangentChain", 9, 1)]


@pytest.mark.parametrize("kind,n,seed", ARRANGEMENT_FAMILIES)
def test_integer_graph_is_the_tuple_graph_relabelled(kind, n, seed):
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
    fi = compute_incidences(fam)
    verts, edges, weights = oracles.tuple_arrangement_graph(fam, fi)
    pos = {v: k for k, v in enumerate(sorted(verts))}
    g = arrangement_to_planar_graph(fam)
    assert g.vertices == tuple(range(len(verts)))
    assert g.edges == {tuple(sorted((pos[u], pos[v]))) for u, v in edges}
    assert g.weights == {pos[v]: w for v, w in weights.items()}
    assert string_separator(fam) == StringSeparatorResult(
        *oracles.tuple_string_separator(fam, fi))


@pytest.mark.parametrize("reduced", [False, True], ids=["raw", "reduced"])
@pytest.mark.parametrize("kind,n,seed", ARRANGEMENT_FAMILIES)
def test_face_walk_certificate_agrees_with_networkx(monkeypatch, kind, n,
                                                    seed, reduced):
    # the arrangement graph is certified by its drawing alone: networkx is
    # not asked, and networkx, the oracle, agrees
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
    if reduced:
        fam = reduce_degree(fam)
    _, edges, _ = oracles.tuple_arrangement_graph(fam, compute_incidences(fam))
    want, _ = networkx.check_planarity(networkx.Graph(edges))

    def asked(*args):
        raise AssertionError("the arrangement graph asked a general test")
    monkeypatch.setattr(networkx, "check_planarity", asked)
    try:
        arrangement_to_planar_graph(fam)
        got = True
    except InvariantError:
        got = False
    assert got == want


def test_face_walk_certificate_counts_parallel_edges(monkeypatch):
    # two squares touching at a corner each join their anchor to the
    # contact by two parallel edges; a free square and a free arc add an
    # anchor each and no edge
    sq = lambda cid, x, y: Curve(cid, (pt(x, y), pt(x + 2, y),
                                       pt(x + 2, y + 2), pt(x, y + 2)), True)
    fam = CurveFamily((sq(1, 0, 0), sq(2, 2, 2), sq(3, 10, 0),
                       Curve(4, (pt(20, 0), pt(21, 1), pt(22, 0)), False)), 1)
    walked = []
    real = separator.face_walk
    monkeypatch.setattr(separator, "face_walk", lambda out:
                        walked.append(sum(map(len, out))) or real(out))
    g = arrangement_to_planar_graph(fam)
    assert g.edges == {(0, 4), (1, 4)}
    assert walked == [8]


def test_reversed_rotation_at_a_contact_fails_the_certificate(monkeypatch):
    # mirroring the germs at one contact vertex reverses its rotation; on a
    # grid of touching circles no contact is a cut vertex, so every such
    # drawing has the wrong Euler count
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=16, m=2, seed=1))
    nv = len(arrangement_to_planar_graph(fam).vertices)
    real = separator.rotation_order
    for v in range(fam.n, nv):      # the contact vertices follow the anchors
        monkeypatch.setattr(
            separator, "rotation_order", lambda origins, dirs, k:
            real(origins, [(x, -y) if o == v else (x, y)
                           for o, (x, y) in zip(origins, dirs)], k))
        with pytest.raises(InvariantError, match="not plane"):
            arrangement_to_planar_graph(fam)


# -------------------------------------------------------- planar separator

def test_path_graph_splits_at_the_middle():
    g = weighted_graph(oracles.rotation(range(9),
                                        [(i, i + 1) for i in range(8)]))
    res = planar_separator(g)
    assert res.separator == frozenset({4})
    assert sorted(len(c) for c in res.components) == [4, 4]
    assert res.c_measured == pytest.approx(1 / 3)


def test_balanced_graph_needs_no_separator():
    tri = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    res = planar_separator(weighted_graph(oracles.rotation(range(6), tri)))
    assert res.separator == frozenset()
    assert len(res.components) == 2


def test_grid_graph_separator_is_small_and_balanced():
    vs = [(i, j) for i in range(4) for j in range(4)]
    es = [((i, j), (i + 1, j)) for i in range(3) for j in range(4)]
    es += [((i, j), (i, j + 1)) for i in range(4) for j in range(3)]
    g = weighted_graph(oracles.rotation(vs, es))
    res = planar_separator(g)
    assert len(res.separator) <= 4
    w = g.weights
    for comp in res.components:
        assert sum(w[v] for v in comp) <= F(2, 3)


def test_separator_requires_planarity():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(PreconditionError):
        planar_separator(weighted_graph(oracles.rotation(range(5), k5)))


def test_single_vertex_graph():
    res = planar_separator(weighted_graph({7: []}))
    assert res.separator == frozenset()
    assert res.components == (frozenset({7}),)


def _planar_parts(draw):
    """Edges of a disjoint union of grids with deleted edges, trees, cycles
    and single vertices, on vertices 0..V-1."""
    edges, nv = [], 0
    for kind in draw(st.lists(st.sampled_from(
            ("grid", "tree", "cycle", "single")), min_size=1, max_size=4)):
        if kind == "grid":
            r, c = draw(st.integers(1, 5)), draw(st.integers(1, 6))
            cell = lambda i, j: nv + i * c + j
            grid = [(cell(i, j), cell(i + 1, j))
                    for i in range(r - 1) for j in range(c)]
            grid += [(cell(i, j), cell(i, j + 1))
                     for i in range(r) for j in range(c - 1)]
            keep = draw(st.lists(st.booleans(), min_size=len(grid),
                                 max_size=len(grid)))
            edges += [e for e, k in zip(grid, keep) if k]
            size = r * c
        elif kind == "tree":
            size = draw(st.integers(1, 15))
            edges += [(nv + draw(st.integers(0, k - 1)), nv + k)
                      for k in range(1, size)]
        elif kind == "cycle":
            size = draw(st.integers(3, 12))
            edges += [(nv + k, nv + (k + 1) % size) for k in range(size)]
        else:
            size = 1
        nv += size
    return nv, edges


@st.composite
def planar_graph_inputs(draw):
    """(labels, edges, weights or None) of a planar graph."""
    nv, edges = _planar_parts(draw)
    # mixed anchor and point labels, in an order unrelated to 0..V-1
    perm = draw(st.permutations(range(nv)))
    label = [("a", perm[i]) if draw(st.booleans())
             else ("p", F(perm[i], 3), F(-perm[i], 7)) for i in range(nv)]
    weights = draw(st.one_of(
        st.none(), st.just([0] * nv),
        st.lists(st.sampled_from((0, 1, 3, F(1, 2), F(2, 3), F(5, 7),
                                  F(11, 12))), min_size=nv, max_size=nv)))
    return (label, [(label[u], label[v]) for u, v in edges],
            None if weights is None else dict(zip(label, weights)))


def planar_graphs():
    return planar_graph_inputs().map(lambda args: weighted_graph(
        oracles.rotation(args[0], args[1]), args[2]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(planar_graph_inputs(), st.data())
def test_weighted_graph_views_are_its_input(inputs, data):
    label, edges, weights = inputs
    rotation = oracles.rotation(label, edges)
    # loops are dropped wherever they stand in a vertex's rotation
    for v in data.draw(st.lists(st.sampled_from(label), max_size=3)):
        rotation[v].insert(data.draw(st.integers(0, len(rotation[v]))), v)
    g = weighted_graph(rotation, weights)
    assert g.vertices == tuple(sorted(label))
    assert g.edges == {tuple(sorted(e)) for e in edges}
    assert g.weights == {v: F(1, len(label)) if weights is None
                         else F(weights[v]) for v in label}
    # the dense form the search reads: positions, sorted neighbour tuples,
    # integer weights over one scale
    pos = {v: k for k, v in enumerate(g.vertices)}
    assert g.nbrs == tuple(
        tuple(sorted(pos[u] for e in g.edges if v in e for u in e if u != v))
        for v in g.vertices)
    assert [F(x, g.scale) for x in g.scaled] == [g.weights[v]
                                                  for v in g.vertices]


@st.composite
def weighted_trees(draw):
    """Stars and random trees with a few heavy vertices: there the greedy
    peel often wins, sometimes tied in length with a BFS level."""
    nv = draw(st.integers(2, 14))
    if draw(st.booleans()):
        edges = [(0, k) for k in range(1, nv)]
    else:
        edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, nv)]
    weights = draw(st.lists(st.sampled_from((0, 1, 1, 2, 3, 7, 20)),
                            min_size=nv, max_size=nv))
    return weighted_graph(oracles.rotation(range(nv), edges),
                          dict(enumerate(weights)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weighted_trees())
@example(weighted_graph(oracles.rotation(range(4),
                                         [(0, 1), (0, 2), (0, 3)]),
                        {0: 1, 1: 7, 2: 1, 3: 2}))
@example(weighted_graph(oracles.rotation(range(5),
                                         [(0, 1), (0, 2), (2, 3), (3, 4)]),
                        {0: 7, 1: 20, 2: 1, 3: 0, 4: 7}))
def test_planar_separator_matches_reference_on_weighted_trees(g):
    assert planar_separator(g) == SeparatorResult(*oracles.planar_separator(g))


def test_greedy_peel_wins_a_length_tie():
    # the cut vertex 0 balances this spider, but the peeled heavy leaf 1,
    # neither a cut vertex nor a BFS level, leaves a lighter heaviest part
    g = weighted_graph(oracles.rotation(range(5),
                                        [(0, 1), (0, 2), (2, 3), (3, 4)]),
                       {0: 7, 1: 20, 2: 1, 3: 0, 4: 7})
    res = planar_separator(g)
    assert res == SeparatorResult(*oracles.planar_separator(g))
    assert res.separator == frozenset({1})
    assert res.components == (frozenset({0, 2, 3, 4}),)


def test_component_of_exactly_two_thirds_is_balanced():
    g = weighted_graph(oracles.rotation(range(3), [(0, 1)]),
                       {0: 1, 1: 1, 2: 1})
    res = planar_separator(g)
    assert res.separator == frozenset()
    assert res.components == (frozenset({0, 1}), frozenset({2}))
    # in a triangle every vertex leaves an edge of weight 2/3; the root's
    # BFS level wins the tie, where the greedy peel would take vertex 2
    res = planar_separator(weighted_graph(
        oracles.rotation(range(3), [(0, 1), (1, 2), (2, 0)])))
    assert res.separator == frozenset({0})
    assert res.components == (frozenset({1, 2}),)


@st.composite
def plain_graphs(draw):
    """(V, edges) on 0..V-1: the planar parts above, or a random graph on
    up to 12 vertices, often non-planar."""
    if draw(st.booleans()):
        return _planar_parts(draw)
    nv = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return nv, [e for e, k in zip(pairs, keep) if k]


def _adjacency(nv, edges):
    nbrs = [set() for _ in range(nv)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(vs) for vs in nbrs]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(plain_graphs())
def test_articulation_points_match_networkx(graph):
    nv, edges = graph
    g = networkx.Graph()
    g.add_nodes_from(range(nv))
    g.add_edges_from(edges)
    assert (separator._articulation_points(_adjacency(nv, edges))
            == sorted(networkx.articulation_points(g)))
    # the plane certificate accepts networkx's embedding of a planar graph
    # and refuses sorted neighbours on any other
    want, _ = networkx.check_planarity(g)
    assert oracles.is_plane(oracles.rotation(range(nv), edges)) == want


def test_articulation_points_of_a_long_path():
    # deeper than the recursion limit: the search must not recurse
    nv = 5000
    path = _adjacency(nv, [(k, k + 1) for k in range(nv - 1)])
    assert separator._articulation_points(path) == list(range(1, nv - 1))


def apollonian_network(n, shuffled):
    """A random stacked triangulation on n >= 3 vertices (Andrade et al.,
    PRL 94, 2005): each new vertex goes into a face drawn uniformly and is
    joined to its three corners. Labels follow insertion, or are shuffled."""
    rng = random.Random(n)
    edges = apollonian_edges(n, rng)
    label = list(range(n))
    if shuffled:
        rng.shuffle(label)
    return weighted_graph(oracles.rotation(
        label, [(label[u], label[v]) for u, v in edges]))


def apollonian_edges(n, rng):
    """The 3n - 6 edges of a stacked triangulation on 0..n-1."""
    edges, faces = [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def _k(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


_APOLLONIAN = apollonian_edges(30, random.Random(30))


@pytest.mark.parametrize("nv,edges", [
    (4, _k(4)),                                          # E = 3V - 6
    (5, _k(5)),                                          # E = 3V - 5
    (5, _k(5)[1:]),                                      # E = 3V - 6
    (6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K3,3
    (30, _APOLLONIAN),                                   # E = 3V - 6
    (30, _APOLLONIAN + [next(e for e in _k(30) if e not in _APOLLONIAN)])],
    ids=["K4", "K5", "K5-e", "K33", "apollonian", "apollonian+e"])
def test_certificate_agrees_with_networkx_at_the_euler_bound(nv, edges):
    want, _ = networkx.check_planarity(networkx.Graph(edges))
    assert check_planarity(SimpleGraph(tuple(range(nv)),
                                       frozenset(edges))) == want
    rotation = oracles.rotation(range(nv), edges)
    assert oracles.is_plane(rotation) == want
    # each planar case is a triangulation, so mirroring any one vertex's
    # rotation leaves no plane embedding
    for v in range(nv) if want else ():
        assert not oracles.is_plane({**rotation, v: rotation[v][::-1]})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planar_graphs())
# on triangulations the fundamental-cycle candidates carry the result
@example(apollonian_network(30, shuffled=False))
@example(apollonian_network(30, shuffled=True))
@example(apollonian_network(60, shuffled=False))
@example(apollonian_network(60, shuffled=True))
@example(apollonian_network(120, shuffled=False))
@example(apollonian_network(120, shuffled=True))
@example(apollonian_network(250, shuffled=False))
@example(apollonian_network(250, shuffled=True))
def test_planar_separator_matches_reference(g):
    assert check_planarity(SimpleGraph(g.vertices, g.edges))
    assert planar_separator(g) == SeparatorResult(*oracles.planar_separator(g))


def test_separator_drops_levels_whose_root_side_is_heavy(monkeypatch):
    # on a path searched from vertex 0, removing level k leaves the k
    # vertices above it joined to the root, so the levels with 3k > 2n
    # cannot balance and are never walked; their vertices are still walked
    # once, as articulation points
    n = 30
    g = weighted_graph(oracles.rotation(
        range(n), [(i, i + 1) for i in range(n - 1)]))
    walks = []
    components = separator._components

    def recording(nbrs, removed=(), w=(), bound=None):
        if bound is not None:
            walks.append(tuple(removed))
        return components(nbrs, removed, w, bound)

    monkeypatch.setattr(separator, "_components", recording)
    assert planar_separator(g) == SeparatorResult(*oracles.planar_separator(g))
    assert [walks.count((k,)) for k in range(n)] == (
        [1] + [2] * 20 + [1] * 8 + [0])


@pytest.mark.parametrize("kind,n,seed", ARRANGEMENT_FAMILIES)
def test_planar_separator_matches_reference_on_arrangements(kind, n, seed):
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
    g = arrangement_to_planar_graph(fam)
    assert planar_separator(g) == SeparatorResult(*oracles.planar_separator(g))


# -------------------------------------------------------- string separator

def far_squares():
    sq = lambda cid, x: Curve(cid, (pt(x, 0), pt(x + 2, 0), pt(x + 2, 2),
                                    pt(x, 2)), closed=True)
    return CurveFamily((sq(1, 0), sq(2, 10), sq(3, 20)), 1)


def test_disjoint_family_has_empty_separator():
    res = string_separator(far_squares())
    assert res.separator == frozenset()
    assert sorted(map(len, res.components)) == [1, 1, 1]
    assert res.c_measured == 0.0


def test_chain_separator_balance():
    fam = chain9()
    res = string_separator(fam)
    assert len(res.separator) <= 2
    for comp in res.components:
        assert 3 * len(comp) <= 2 * fam.n


@pytest.mark.parametrize("kind,n", [("UnitCirclesGrid", 16),
                                    ("RandomCircles", 12)])
def test_generated_family_separator(kind, n):
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=3))
    res = string_separator(fam)
    for comp in res.components:
        assert 3 * len(comp) <= 2 * fam.n
    assert res.c_measured <= 10
    # removing the separator really disconnects the listed components
    ids = {c.id for c in fam}
    assert res.separator <= ids
    covered = set(res.separator)
    for comp in res.components:
        assert not (comp & covered)
        covered |= comp
    assert covered == ids


# --------------------------------------------------------- decomposition

def test_decompose_grid_family():
    fam = grid9()
    fi = compute_incidences(fam)
    rep = recursive_decompose(fam)
    assert rep.d == 1 and rep.M == F(9, 2) and rep.C_const == 8
    for p in rep.pieces:
        assert len(p) < rep.M or len(p) <= 2
    flat = [cid for p in rep.pieces for cid in p]
    assert len(flat) == len(set(flat))
    where = {cid: k for k, p in enumerate(rep.pieces) for cid in p}
    for (a, b), incs in fi.pairs.items():
        if incs and a in where and b in where:
            assert where[a] == where[b]
    outside = lambda pair: all(c not in rep.separator for c in pair)
    assert rep.touchings_surviving == sum(
        1 for pr in fi.touching_pairs() if outside(pr))
    assert rep.touchings_total == fi.T
    assert sum(rep.per_level) == len(rep.separator)
    assert rep.separator_ratio == F(len(rep.separator) * rep.d, fi.T)


def test_decompose_runs_the_engine_once_per_family(monkeypatch):
    fam = grid9()
    want = recursive_decompose(CurveFamily(fam.curves, fam.m))
    assert want.per_level                # the recursion splits
    red = reduce_degree(fam)
    want_red = recursive_decompose(CurveFamily(red.curves, red.m))
    runs = []
    engine = incidence._run_engine
    monkeypatch.setattr(incidence, "_run_engine",
                        lambda *args: runs.append(args) or engine(*args))
    # the recursion nodes read the family's catalogue filtered to them, and
    # the family keeps the one it computed
    bare = CurveFamily(fam.curves, fam.m)
    assert recursive_decompose(bare) == want
    assert recursive_decompose(bare) == want
    assert len(runs) == 1
    # generated and reduced families read the catalogue they carry
    assert recursive_decompose(fam) == want
    assert recursive_decompose(red) == want_red
    assert len(runs) == 1


def test_decompose_is_independent_of_curve_order():
    fam = grid9()
    want = recursive_decompose(CurveFamily(fam.curves, fam.m))
    assert want.per_level                # the recursion splits
    orders = [fam.curves[::-1]]
    for seed in range(3):
        curves = list(fam.curves)
        random.Random(seed).shuffle(curves)
        orders.append(tuple(curves))
    for curves in orders:
        got = recursive_decompose(CurveFamily(curves, fam.m))
        assert got == want and repr(got) == repr(want)


def test_decompose_sparse_family_uses_components():
    fam = chain9()           # average contact degree rounds down to zero
    rep = recursive_decompose(fam)
    assert rep.d == 0 and rep.M == 0
    assert rep.separator == frozenset()
    assert rep.pieces == (frozenset(c.id for c in fam),)
    assert rep.touchings_surviving == rep.touchings_total == 8
    assert rep.per_level == ()
    assert rep.separator_ratio == 0


def test_decompose_needs_touchings_when_dense():
    fam = generate(GeneratorSpec(kind="PerturbedPencil", n=6, m=1, seed=1))
    fi = compute_incidences(fam)
    assert fi.X // fam.n >= 1 and fi.T == 0
    with pytest.raises(DegenerateError, match="needs a touching pair"):
        recursive_decompose(fam)


def test_decompose_rejects_vanishing_threshold():
    with pytest.raises(DegenerateError):
        recursive_decompose(grid9(), C_const=F(1, 100))


@pytest.mark.parametrize("c", [0, -1, "0/3", "-1/4"])
def test_decompose_rejects_a_constant_that_is_not_positive(c):
    # the d = 0 fallback never reads the constant, so the check comes first
    red = reduce_degree(grid9())
    assert compute_incidences(red).X // red.n == 0
    for fam in (grid9(), red):
        with pytest.raises(PreconditionError, match="not positive"):
            recursive_decompose(fam, C_const=c)


def test_decompose_rejects_empty_family():
    with pytest.raises(PreconditionError):
        recursive_decompose(CurveFamily((), 1))


def test_decompose_reads_c_const_exactly():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        recursive_decompose(chain9(), C_const=0.1)
    for c in (F(1, 4), "1/4"):
        assert recursive_decompose(chain9(), C_const=c).C_const == F(1, 4)
    assert recursive_decompose(grid9(), C_const=8) == recursive_decompose(
        grid9())
