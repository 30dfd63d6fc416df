"""Generated families: model compliance, determinism, kind peculiarities."""

import pytest

from contactgeom import generators
from contactgeom.errors import GenerationError
from contactgeom.familyio import dumps_family
from contactgeom.generators import KINDS, GeneratorSpec, generate
from contactgeom.geometry import Curve, CurveFamily, pt
from contactgeom.incidence import compute_incidences, validate_general_position


def test_kind_catalog():
    assert set(KINDS) == {"UnitCirclesGrid", "TangentChain", "RandomCircles",
                          "PseudoParabolas", "PerturbedPencil"}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_respects_the_model(kind):
    n = 6 if kind == "PerturbedPencil" else 10
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=3))
    assert fam.n == n
    rep = validate_general_position(fam)
    assert rep.ok, (kind, rep.violations)
    ids = [c.id for c in fam.curves]
    assert len(set(ids)) == n


@pytest.mark.parametrize("kind", KINDS)
def test_generate_validates_each_family_once(kind, monkeypatch):
    calls = []

    def counted(family):
        calls.append(family)
        return validate_general_position(family)

    monkeypatch.setattr(generators, "validate_general_position", counted)
    n = 6 if kind == "PerturbedPencil" else 10
    fam = generate(GeneratorSpec(kind=kind, n=n, m=2, seed=3))
    assert len(calls) == 1 and calls[0] == fam
    # the family carries the catalogue of that one validation
    fi = compute_incidences(fam)
    assert fam.incidences == fi
    assert list(fam.incidences.pairs.items()) == list(fi.pairs.items())
    assert fam.incidences.curve_ids == fi.curve_ids


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_same_family(kind):
    n = 5 if kind == "PerturbedPencil" else 8
    a = generate(GeneratorSpec(kind=kind, n=n, m=1, seed=9))
    b = generate(GeneratorSpec(kind=kind, n=n, m=1, seed=9))
    assert dumps_family(a) == dumps_family(b)


def test_different_seeds_differ_for_random_kinds():
    a = generate(GeneratorSpec(kind="RandomCircles", n=8, m=1, seed=1))
    b = generate(GeneratorSpec(kind="RandomCircles", n=8, m=1, seed=2))
    assert dumps_family(a) != dumps_family(b)


def test_closedness_per_kind():
    for kind in ("UnitCirclesGrid", "TangentChain", "RandomCircles"):
        fam = generate(GeneratorSpec(kind=kind, n=6, m=1, seed=4))
        assert all(c.closed for c in fam.curves), kind
    for kind in ("PseudoParabolas", "PerturbedPencil"):
        fam = generate(GeneratorSpec(kind=kind, n=5, m=1, seed=4))
        assert all(not c.closed for c in fam.curves), kind


def test_tangent_chain_touches_in_a_path():
    fam = generate(GeneratorSpec(kind="TangentChain", n=7, m=1, seed=0))
    fi = compute_incidences(fam)
    assert fi.T == 6
    assert fi.crossing_count == 0


def test_unit_circles_grid_touching_count():
    # a 3x3 grid of unit circles touches along grid lines
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=1, seed=0))
    fi = compute_incidences(fam)
    assert fi.T == 12                    # 2 * 3 * (3-1)
    assert fi.crossing_count == 0


def test_resolution_changes_vertex_count():
    lo = generate(GeneratorSpec(kind="RandomCircles", n=4, m=1, seed=5,
                                resolution=8))
    hi = generate(GeneratorSpec(kind="RandomCircles", n=4, m=1, seed=5,
                                resolution=16))
    assert lo.curves[0].n_vertices < hi.curves[0].n_vertices


def test_resolution_floor_enforced():
    from contactgeom.errors import PreconditionError
    with pytest.raises(PreconditionError):
        generate(GeneratorSpec(kind="RandomCircles", n=4, m=1, seed=5,
                               resolution=6))


def test_unknown_kind_raises():
    with pytest.raises(Exception):
        generate(GeneratorSpec(kind="NoSuchKind", n=4, m=1, seed=0))


def test_impossible_spec_raises_generation_error(monkeypatch):
    # a builder whose every candidate breaks the model: two equal triangles
    tri = (pt(0, 0), pt(2, 0), pt(0, 2))

    def invalid(spec):
        while True:
            yield CurveFamily((Curve(1, tri, True), Curve(2, tri, True)),
                              spec.m)

    monkeypatch.setitem(generators._BUILDERS, "PerturbedPencil", invalid)
    with pytest.raises(GenerationError, match="20 attempt"):
        generate(GeneratorSpec(kind="PerturbedPencil", n=30, m=1, seed=0))


def test_perturbed_pencil_generates_at_any_n():
    # every pair crosses once, at its own point, on the first candidate
    for n in (10, 40, 100):
        fi = generate(GeneratorSpec(kind="PerturbedPencil", n=n, m=1)
                      ).incidences
        assert fi.X == fi.crossing_count == n * (n - 1) // 2
        assert fi.T == 0


def test_random_circles_with_free_circles_generate_at_large_n(monkeypatch):
    # n // 5 free circles, on hosts that share no site and are not
    # edge-adjacent, so the first candidate has no triple point
    calls = []

    def counted(family):
        calls.append(family)
        return validate_general_position(family)

    monkeypatch.setattr(generators, "validate_general_position", counted)
    fam = generate(GeneratorSpec(kind="RandomCircles", n=800, m=2, seed=42))
    assert fam.n == 800 and len({c.id for c in fam.curves}) == 800
    assert len(calls) == 1 and fam.incidences.m == 2
