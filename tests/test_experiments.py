"""Bound-ratio rows, exponent fitting, and sweep serialization."""

import json
import math
from fractions import Fraction

import pytest

from contactgeom import experiments, incidence
from contactgeom.errors import FitError
from contactgeom.experiments import (BoundCheckRow, check_thm4,
                                     fit_exponent, run_sweep, sweep_csv,
                                     sweep_summary, thm3_exponent,
                                     thm4_exponent)
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import CurveFamily
from contactgeom.incidence import compute_incidences

F = Fraction


def test_exponent_constants_are_exact():
    assert thm3_exponent(1) == F(35, 18)
    assert thm3_exponent(2) == F(41, 21)
    assert thm3_exponent(3) == F(47, 24)
    assert thm4_exponent(1) == F(1, 54)
    assert thm4_exponent(2) == F(1, 63)


def test_touching_ratio_row():
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=2, seed=1))
    row = check_thm4(fam)
    assert (row.n, row.m, row.T, row.X) == (9, 2, 12, 12)
    assert row.thm3_ratio == 12 / 9 ** float(thm3_exponent(2))


def test_intersection_ratio_defined_when_touching_heavy():
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=2, seed=1))
    fi = compute_incidences(fam)
    row = check_thm4(fam)
    assert fi.T >= fam.n
    assert row.thm4_ratio == fi.X / (fi.T * (fi.T / fam.n)
                                     ** float(thm4_exponent(2)))
    assert row.X >= row.T


def test_intersection_ratio_absent_when_sparse():
    fam = generate(GeneratorSpec(kind="TangentChain", n=9, m=1, seed=1))
    row = check_thm4(fam)
    assert row.T == 8 and row.T < row.n
    assert row.thm4_ratio is None


def synthetic(pairs, m=1):
    return [BoundCheckRow(n=n, m=m, T=T, X=T, thm3_ratio=0.0,
                          thm4_ratio=None) for n, T in pairs]


def test_fit_recovers_a_power_law():
    rows = synthetic([(4, 16), (8, 64), (16, 256), (32, 1024)])
    fit = fit_exponent(rows)
    assert fit["alpha"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_slope_through_noise():
    rows = synthetic([(10, 30), (20, 85), (40, 240), (80, 680)])
    fit = fit_exponent(rows)
    assert 1.4 < fit["alpha"] < 1.6
    assert fit["r2"] > 0.99


def test_fit_preconditions():
    with pytest.raises(FitError):
        fit_exponent(synthetic([(4, 16), (8, 64)]))
    with pytest.raises(FitError):
        fit_exponent(synthetic([(4, 0), (8, 64), (16, 256)]))
    with pytest.raises(FitError):
        fit_exponent(synthetic([(8, 16), (8, 64), (8, 256)]))


def test_sweep_orders_and_dedupes():
    rows = run_sweep("TangentChain", [12, 6, 6, 9], m=1, seed=5)
    assert [r.n for r in rows] == [6, 9, 12]
    for r in rows:
        assert r.T == r.X == r.n - 1
        assert r.d == 0 and r.f == 1.0
        assert r.thm4_ratio is None
        assert r.pieces == 1          # sparse fallback: one component


def test_sweep_leaves_pieces_empty_without_touchings():
    # pseudo-parabolas and perturbed pencils only cross (T = 0, d > 0), so
    # the decomposition does not apply
    for kind in ("PseudoParabolas", "PerturbedPencil"):
        rows = run_sweep(kind, [10, 20, 40], m=2, seed=42)
        assert [r.n for r in rows] == [10, 20, 40]
        for r in rows:
            assert r.T == 0 and r.d > 0
            assert r.f is None and r.pieces is None
        # the pieces column is the last one, and empty
        assert all(line.endswith(",")
                   for line in sweep_csv(rows).splitlines()[1:])


def test_sweep_is_deterministic():
    a = run_sweep("UnitCirclesGrid", [9, 16], m=2, seed=7)
    b = run_sweep("UnitCirclesGrid", [9, 16], m=2, seed=7)
    assert a == b


def test_csv_layout():
    rows = run_sweep("TangentChain", [6, 9], m=1, seed=5)
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,m,T,X,d,f,thm3_ratio,thm4_ratio,sep_size,pieces"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "6" and first[2] == "5"
    assert first[7] == ""               # undefined ratio stays blank
    assert float(first[6]) == rows[0].thm3_ratio


def test_summary_includes_fit_when_possible():
    rows = run_sweep("UnitCirclesGrid", [9, 16, 25], m=1, seed=2)
    data = json.loads(sweep_summary("UnitCirclesGrid", rows))
    assert data["kind"] == "UnitCirclesGrid"
    assert data["rows"] == 3
    assert data["n_values"] == [9, 16, 25]
    assert data["alpha"] is not None
    assert 0 < data["alpha"] < 2.5
    assert "fit_error" not in data


def test_summary_reports_fit_failure():
    rows = run_sweep("TangentChain", [6, 9], m=1, seed=5)
    data = json.loads(sweep_summary("TangentChain", rows))
    assert data["alpha"] is None and data["r2"] is None
    assert "at least three rows" in data["fit_error"]


def test_sweep_row_runs_the_engine_once_per_curve_set(monkeypatch):
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=50, m=1, seed=42))
    assert fam.incidences == compute_incidences(fam)
    want = experiments._sweep_row(fam)
    seen = []
    engine = incidence._run_engine

    def counted(curves, *args):
        seen.append(len(curves))
        return engine(curves, *args)

    monkeypatch.setattr(incidence, "_run_engine", counted)
    # a generated family carries the catalogue its validation computed, so
    # only the degree-reduced family runs the engine
    assert experiments._sweep_row(fam) == want
    assert len(seen) == 1 and seen[0] > fam.n
    # a family without one runs it once more
    bare = CurveFamily(fam.curves, fam.m)
    assert experiments._sweep_row(bare) == want
    assert seen[1:] == [fam.n, seen[0]]


def test_run_sweep_runs_the_engine_twice_per_row(monkeypatch):
    want = run_sweep("UnitCirclesGrid", [9, 16, 25], m=1, seed=42)
    assert all(r.d >= 1 for r in want)   # every row reduces its degree
    seen = []
    engine = incidence._run_engine

    def counted(curves, *args):
        seen.append(len(curves))
        return engine(curves, *args)

    monkeypatch.setattr(incidence, "_run_engine", counted)
    assert run_sweep("UnitCirclesGrid", [9, 16, 25], m=1, seed=42) == want
    # per row: the validation inside generate, then the post-check of
    # reduce_degree on the pieces
    assert seen[::2] == [9, 16, 25]
    assert len(seen) == 6 and all(p > n for n, p in zip(seen[::2], seen[1::2]))
