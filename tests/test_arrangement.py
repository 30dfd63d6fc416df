"""Arrangement construction, face topology, and point location."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from contactgeom.arrangement import (UNBOUNDED_FACE, _assemble,
                                     boundary_edge_cycle, build_arrangement,
                                     build_mixed_arrangement, cells_of_pair,
                                     chain_param, chain_point, curve_portion,
                                     locate_cell, pair_arrangement,
                                     split_arcs_by_pair, split_curve_at)
from contactgeom.errors import ContactGeomError, OnCurveError
from contactgeom.geometry import Curve, CurveFamily, Point, pt
from contactgeom.generators import GeneratorSpec, generate, rational_circle
from contactgeom.incidence import compute_incidences, mixed_contacts

import oracles

F = Fraction


def sq(cid, x, y, r=2):
    return Curve(id=cid, points=(pt(x - r, y - r), pt(x + r, y - r),
                                 pt(x + r, y + r), pt(x - r, y + r)),
                 closed=True)


def components(curves):
    """Connected components of the union, from the reference contacts."""
    fam = CurveFamily(curves=tuple(curves), m=50)
    parent = {c.id: c.id for c in curves}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in oracles.family_contacts(fam):
        parent[find(i)] = find(j)
    return len({find(c.id) for c in curves})


def euler_holds(arr, curves):
    return arr.V - arr.E + arr.F == 1 + components(curves)


def test_single_closed_curve_topology():
    arr = build_mixed_arrangement([sq(1, 0, 0)])
    assert (arr.V, arr.E, arr.F) == (1, 1, 2)
    assert euler_holds(arr, [sq(1, 0, 0)])
    assert locate_cell(arr, pt(0, 0)) != locate_cell(arr, pt(9, 9))
    assert locate_cell(arr, pt(9, 9)) == arr.unbounded_face_id


def test_two_crossing_squares_topology():
    curves = [sq(1, 0, 0), sq(2, 2, 2)]
    arr = build_mixed_arrangement(curves)
    assert (arr.V, arr.E, arr.F) == (2, 4, 4)
    assert euler_holds(arr, curves)
    lens = locate_cell(arr, pt(1, 1))
    assert arr.faces[lens].interior is not None
    assert arr.faces[lens].depth > 0
    # four faces, four distinct probe answers
    probes = [pt(1, 1), pt(-1, -1), pt(3, 3), pt(9, 9)]
    assert len({locate_cell(arr, p) for p in probes}) == 4


def test_disjoint_curves_topology():
    curves = [sq(1, 0, 0), sq(2, 20, 0)]
    arr = build_mixed_arrangement(curves)
    assert arr.F == 3
    assert euler_holds(arr, curves)


def test_locate_cell_rejects_boundary_points():
    arr = build_mixed_arrangement([sq(1, 0, 0)])
    with pytest.raises(OnCurveError):
        locate_cell(arr, pt(2, 0))
    with pytest.raises(OnCurveError):
        locate_cell(arr, pt(2, 2))       # vertex


def test_boundary_walks_cover_every_half_edge_once():
    curves = [sq(1, 0, 0), sq(2, 2, 2), sq(3, 30, 0)]
    arr = build_mixed_arrangement(curves)
    seen = []
    for f in range(arr.F):
        for walk in boundary_edge_cycle(arr, f):
            seen.extend(walk)
    assert sorted(seen) == sorted(h.id for h in arr.half_edges)
    assert len(seen) == len(set(seen))


def test_twins_are_involutive_and_opposite():
    arr = build_mixed_arrangement([sq(1, 0, 0), sq(2, 2, 2)])
    for h in arr.half_edges:
        tw = arr.half_edges[h.twin]
        assert tw.twin == h.id
        assert (h.origin, h.target) == (tw.target, tw.origin)
        assert h.curve == tw.curve


def test_euler_on_generated_families():
    for kind, n, seed in (("UnitCirclesGrid", 9, 1), ("TangentChain", 7, 2),
                          ("RandomCircles", 8, 3), ("PseudoParabolas", 6, 4)):
        fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
        arr = build_arrangement(fam)
        assert euler_holds(arr, fam.curves), (kind, n, seed)


def test_locate_cell_constant_on_raster_regions():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=5, m=2, seed=6))
    arr = build_arrangement(fam)
    raster = oracles.Raster(fam.curves, k=20)
    region_face = {}
    checked = 0
    for p, region in raster.probes(300):
        try:
            f = locate_cell(arr, p)
        except OnCurveError:
            continue
        checked += 1
        if region in region_face:
            assert region_face[region] == f
        else:
            region_face[region] = f
    assert checked >= 100
    assert len(region_face) >= 2


def test_cells_of_pair_counts():
    fam = CurveFamily(curves=(sq(1, 0, 0), sq(2, 2, 2)), m=2)
    cells = cells_of_pair(fam, 1, 2)
    assert len(cells) == 4               # lens, two crescents, outside
    fam2 = generate(GeneratorSpec(kind="TangentChain", n=4, m=1, seed=1))
    cells = cells_of_pair(fam2, 1, 2)
    assert len(cells) <= fam2.m + 2


def test_chain_point_and_portion():
    c = sq(1, 0, 0)
    assert chain_point(c, F(0)) == pt(-2, -2)
    assert chain_point(c, F(1, 2)) == pt(0, -2)
    assert chain_point(c, F(3)) == pt(-2, 2)
    portion = curve_portion(c, F(1, 2), F(2))
    assert portion[0] == pt(0, -2) and portion[-1] == pt(2, 2)
    assert split_curve_at(c, [F(1, 2), F(2)]) == [
        (F(1, 2), F(2)), (F(2), F(9, 2))]


def test_chain_param_is_exact_on_integer_points():
    assert chain_param((Point(0, 0), Point(2, 0)), Point(1, 0)) == F(1, 2)
    assert type(chain_param((Point(0, 0), Point(2, 0)), Point(1, 0))) is F
    rng = random.Random(7)
    for _ in range(300):
        # a vertical or sloped segment with an integer point strictly inside
        ax, ay = (rng.randrange(-2 ** 60, 2 ** 60) for _ in range(2))
        dx, dy = rng.choice((0, 1, 3)), rng.randrange(1, 9)
        k = rng.randrange(1, 2 ** 40)
        g = (Point(ax, ay), Point(ax + dx * k * 7, ay + dy * k * 7))
        p = Point(ax + dx * k * 3, ay + dy * k * 3)
        exact = chain_param(tuple(Point(F(q.x), F(q.y)) for q in g),
                            Point(F(p.x), F(p.y)))
        got = chain_param(g, p)
        assert exact == F(3, 7) and type(got) is F and got == exact


def test_split_arcs_by_pair_on_chain():
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=1))
    arr = pair_arrangement(fam, 2, 5)
    subs = split_arcs_by_pair(fam, 2, 5, {1, 3}, {4, 6},
                              arr.unbounded_face_id)
    assert {sa.parent for sa in subs} == {1, 3, 4, 6}
    # chain neighbours never cross the ground pair, so arcs stay whole
    for sa in subs:
        assert sa.geometry.closed
        assert sa.endpoint_kinds == ()
    # sub-arc ids are renumbered densely
    assert sorted(sa.geometry.id for sa in subs) == list(range(len(subs)))


# ------------------------------------------ integer view against Fractions

_COORDS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5)))
_POINTS = st.builds(Point, _COORDS, _COORDS)


@st.composite
def rational_curve_sets(draw):
    """Two to four curves: rational circles, open polylines and closed
    triangles or quadrilaterals, with ids in a drawn order."""
    curves = []
    for cid in draw(st.permutations(range(1, draw(st.integers(2, 4)) + 1))):
        shape = draw(st.sampled_from(("circle", "arc", "polygon")))
        try:
            if shape == "circle":
                c = draw(_POINTS)
                r = draw(st.sampled_from((F(1, 2), 2, 7)))
                pts = rational_circle(Point(0, 0), draw(st.sampled_from((4, 8))))
                curves.append(Curve(cid, tuple(Point(c.x + r * p.x, c.y + r * p.y)
                                               for p in pts), closed=True))
            else:
                size = (2, 5) if shape == "arc" else (3, 4)
                pts = draw(st.lists(_POINTS, min_size=size[0],
                                    max_size=size[1], unique=True))
                curves.append(Curve(cid, tuple(pts), closed=shape != "arc"))
        except ContactGeomError:
            assume(False)
    return curves


def _probes(curves):
    """Raster cell centres, and some vertices and segment midpoints of each
    curve."""
    out = [p for p, _ in oracles.Raster(curves, k=12).probes(40)]
    for c in curves:
        for _, a, b in list(c.segments())[:3]:
            out.extend((a, Point(F(a.x + b.x, 2), F(a.y + b.y, 2))))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(rational_curve_sets())
def test_assemble_matches_fraction_reference(curves):
    try:
        fi = mixed_contacts(curves)
    except ContactGeomError:
        assume(False)
    try:
        arr = _assemble(curves, fi)
    except ContactGeomError:
        with pytest.raises(ContactGeomError):
            oracles.ArrangementRef(curves, fi)
        return
    ref = oracles.ArrangementRef(curves, fi)
    assert [v.point for v in arr.vertices] == ref.points
    assert [v.out for v in arr.vertices] == ref.rotation
    assert [(h.origin, h.target, h.curve, h.geometry)
            for h in arr.half_edges] == ref.edges
    assert [(f.cycles, f.outer_index, f.depth, f.interior)
            for f in arr.faces] == ref.faces
    assert arr.unbounded_face_id == UNBOUNDED_FACE
    for p in _probes(curves):
        try:
            got = locate_cell(arr, p)
        except OnCurveError:
            got = None
        assert got == ref.locate(p), p


def test_pair_arrangement_reads_the_given_catalogue(monkeypatch):
    from contactgeom import arrangement

    fam = generate(GeneratorSpec(kind="RandomCircles", n=7, m=2, seed=3))
    fi = compute_incidences(fam)
    ids = sorted(c.id for c in fam)
    pairs = [(i, j) for i in ids for j in ids if i != j]
    built = {pair: pair_arrangement(fam, *pair) for pair in pairs}

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran again")

    monkeypatch.setattr(arrangement, "compute_incidences", no_engine)
    for pair in pairs:
        got, want = pair_arrangement(fam, *pair, fi), built[pair]
        assert [v.point for v in got.vertices] == [v.point for v in want.vertices]
        assert [v.out for v in got.vertices] == [v.out for v in want.vertices]
        assert [(f.cycles, f.depth, f.interior) for f in got.faces] == [
            (f.cycles, f.depth, f.interior) for f in want.faces]
