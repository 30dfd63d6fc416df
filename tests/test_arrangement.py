"""Arrangement construction, face topology, and point location."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from contactgeom.arrangement import (UNBOUNDED_FACE, _assemble,
                                     build_arrangement,
                                     build_mixed_arrangement, chain_point,
                                     curve_portion, locate_cell,
                                     pair_arrangement, split_curve_at)
from contactgeom.errors import ContactGeomError, DegeneracyError, OnCurveError
from contactgeom.geometry import Curve, CurveFamily, Point, pt
from contactgeom.generators import GeneratorSpec, generate, rational_circle
from contactgeom import incidence
from contactgeom.incidence import compute_incidences, mixed_contacts
from contactgeom.separator import reduce_degree

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


def vef(arr):
    """(V, E, F): V the distinct chain origins, E the twin pairs."""
    return (len({g[0] for g in arr.half_edges}), len(arr.half_edges) // 2,
            arr.F)


def euler_holds(arr, curves):
    v, e, f = vef(arr)
    return v - e + f == 1 + components(curves)


def test_single_closed_curve_topology():
    arr = build_mixed_arrangement([sq(1, 0, 0)])
    assert vef(arr) == (1, 1, 2)
    assert euler_holds(arr, [sq(1, 0, 0)])
    assert locate_cell(arr, pt(0, 0)) != locate_cell(arr, pt(9, 9))
    assert locate_cell(arr, pt(9, 9)) == UNBOUNDED_FACE


def test_two_crossing_squares_topology():
    curves = [sq(1, 0, 0), sq(2, 2, 2)]
    arr = build_mixed_arrangement(curves)
    assert vef(arr) == (2, 4, 4)
    assert euler_holds(arr, curves)
    lens = locate_cell(arr, pt(1, 1))
    assert arr.faces[lens].interior is not None
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
        for walk in arr.faces[f].cycles:
            seen.extend(walk)
    assert sorted(seen) == list(range(len(arr.half_edges)))
    assert len(seen) == len(set(seen))


def test_twins_are_involutive_and_opposite():
    arr = build_mixed_arrangement([sq(1, 0, 0), sq(2, 2, 2)])
    for h, chain in enumerate(arr.half_edges):
        assert arr.half_edges[h ^ 1] == chain[::-1]


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
    cells = pair_arrangement(fam, 1, 2).F
    assert cells == 4                    # lens, two crescents, outside
    fam2 = generate(GeneratorSpec(kind="TangentChain", n=4, m=1, seed=1))
    cells = pair_arrangement(fam2, 1, 2).F
    assert cells <= fam2.m + 2


def test_pair_queries_read_the_whole_family():
    # curves 1 and 2 are a valid pair, but 3 shares an edge with 2: the
    # family's catalogue, and so every pair query on it, raises
    fam = CurveFamily(curves=(sq(1, 0, 0), sq(2, 2, 2), sq(3, 6, 2)), m=2)
    assert pair_arrangement(CurveFamily(fam.curves[:2], 2), 1, 2).F == 4
    with pytest.raises(DegeneracyError, match="overlap"):
        pair_arrangement(fam, 1, 2)


def test_chain_point_and_portion():
    c = sq(1, 0, 0)
    assert chain_point(c, F(0)) == pt(-2, -2)
    assert chain_point(c, F(1, 2)) == pt(0, -2)
    assert chain_point(c, F(3)) == pt(-2, 2)
    portion = curve_portion(c, F(1, 2), F(2))
    assert portion[0] == pt(0, -2) and portion[-1] == pt(2, 2)
    for s0, s1 in ((F(2), F(2)), (F(5, 2), F(7, 3))):
        with pytest.raises(ValueError, match="s0 < s1"):
            curve_portion(c, s0, s1)
    assert split_curve_at(c, [F(1, 2), F(2)]) == [
        (F(1, 2), F(2)), (F(2), F(9, 2))]


@settings(max_examples=200, deadline=None)
@given(cx=st.fractions(-5, 5, max_denominator=12),
       cy=st.fractions(-5, 5, max_denominator=12),
       resolution=st.sampled_from((8, 12)), keep=st.integers(2, 12),
       closed=st.booleans(), den=st.integers(1, 12), data=st.data())
def test_chain_point_matches_fraction_arithmetic(cx, cy, resolution, keep,
                                                 closed, den, data):
    pts = rational_circle(Point(cx, cy), resolution)
    c = Curve(1, pts if closed else pts[:keep], closed=closed)
    turns = 2 if closed else 1      # closed curves wrap their parameter
    s = F(data.draw(st.integers(0, turns * c.n_segments * den)), den)
    got = chain_point(c, s)
    assert got == oracles._chain_point(c, s)
    assert type(got.x) is F and type(got.y) is F


def _chain_point_by_fractions(c, s):
    """The point at chain parameter s as one fraction per coordinate over
    the segment ends' denominators, without a lift."""
    k, p = divmod(s.numerator, s.denominator)
    q = s.denominator
    if c.closed:
        k %= c.n_segments
    elif k == c.n_segments:
        return c.points[-1]
    a, b = c.segment(k)

    def at(u, v):
        du, dv = u.denominator, v.denominator
        return Fraction(u.numerator * dv * (q - p) + v.numerator * du * p,
                        du * dv * q)
    return Point(at(a.x, b.x), at(a.y, b.y))


def test_chain_point_matches_the_fraction_formula():
    rng = random.Random(5)
    seen = set()
    for _ in range(1500):
        # vertices on a parabola are in convex position, so in x order they
        # make a simple curve, open or closed, with no collinear triple
        xs = sorted({F(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 12)))
                     for _ in range(rng.randint(3, 7))})
        if len(xs) < 3:
            continue
        dx, dy = F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 4)
        closed = rng.random() < 0.5
        c = Curve(1, tuple(Point(x + dx, x * x + dy) for x in xs), closed)
        n = c.n_segments
        kind = rng.choice(("vertex", "inside", "end", "seam"))
        if kind == "end" and closed or kind == "seam" and not closed:
            kind = "inside"
        k = rng.randrange(n, 2 * n) if kind == "seam" else rng.randrange(n)
        q = rng.randint(2, 13)
        s = {"vertex": F(k), "end": F(n),
             "inside": k + F(rng.randint(1, q - 1), q),
             "seam": k + F(rng.randint(0, q - 1), q)}[kind]
        got = chain_point(c, s)
        assert got == _chain_point_by_fractions(c, s), (c, s)
        assert type(got.x) is F and type(got.y) is F
        seen.add((kind, closed))
        # the portion ending at s starts at most one turn before it
        lo = max(s - n, F(0))
        s0 = lo + (s - lo) * F(rng.randint(0, 7), 8)
        if s0 < s:
            assert curve_portion(c, s0, s) == oracles._portion(c, s0, s)
    assert seen == {("vertex", False), ("vertex", True), ("inside", False),
                    ("inside", True), ("end", False), ("seam", True)}


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


def _reduced(kind, n, seed):
    """The pieces of a degree-reduced generated family. Every contact is
    a cut vertex of its separator graph, so the Euler certificate cannot
    see a mirrored rotation there; the faces, on the same rotation, can."""
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=seed))
    return list(reduce_degree(fam).curves)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(rational_curve_sets())
@example(_reduced("UnitCirclesGrid", 9, 1))
@example(_reduced("RandomCircles", 8, 3))
@example(_reduced("TangentChain", 9, 1))
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
    # the chains unlifted; the face cycles below check the rotation
    origins = sorted({g[0] for g in arr.half_edges})
    vid = {q: k for k, q in enumerate(origins)}
    point = lambda q: Point(F(q[0], arr.scale), F(q[1], arr.scale))
    assert [point(q) for q in origins] == ref.points
    assert [(vid[g[0]], vid[g[-1]], tuple(map(point, g)))
            for g in arr.half_edges] == [(a, b, geom)
                                         for a, b, _, geom in ref.edges]
    assert [(f.cycles, f.interior) for f in arr.faces] == [
        (cycles, interior) for cycles, _, _, interior in ref.faces]
    for p in _probes(curves):
        try:
            got = locate_cell(arr, p)
        except OnCurveError:
            got = None
        assert got == ref.locate(p), p


def test_pair_arrangement_reads_the_given_catalogue(monkeypatch):
    fam = generate(GeneratorSpec(kind="RandomCircles", n=7, m=2, seed=3))
    ids = sorted(c.id for c in fam)
    pairs = [(i, j) for i in ids for j in ids if i != j]
    # the arrangement of the pair as a family of its own
    built = {(i, j): _assemble((fam.curve(i), fam.curve(j)),
                               compute_incidences(CurveFamily(
                                   (fam.curve(i), fam.curve(j)), fam.m)))
             for i, j in pairs}

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran again")

    monkeypatch.setattr(incidence, "_run_engine", no_engine)
    for pair in pairs:
        got, want = pair_arrangement(fam, *pair), built[pair]
        assert got.half_edges == want.half_edges
        assert [(f.cycles, f.interior) for f in got.faces] == [
            (f.cycles, f.interior) for f in want.faces]
