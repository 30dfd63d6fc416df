"""Empirical bound checks over generated families.

Rows pair each family's touching and intersection counts with the two
normalized ratios the sweep tracks: touchings against n^(2 - 1/(3m+15)) and
intersections against T * (T/n)^(1/(9m+45)). A log-log fit across a sweep
estimates the observed growth exponent of T. Floating point lives only in
the ratios and the fit; every geometric quantity stays exact upstream.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateError, FitError, check
from .generators import GeneratorSpec, generate
from .geometry import CurveFamily
from .incidence import catalogue
from .separator import recursive_decompose, reduce_degree, string_separator


def thm3_exponent(m: int) -> Fraction:
    """Exponent bounding touching growth: 2 - 1/(3m+15)."""
    return Fraction(2) - Fraction(1, 3 * m + 15)


def thm4_exponent(m: int) -> Fraction:
    """Exponent in the intersection lower bound: 1/(9m+45)."""
    return Fraction(1, 9 * m + 45)


@dataclass(frozen=True)
class BoundCheckRow:
    n: int
    m: int
    T: int
    X: int
    thm3_ratio: float
    thm4_ratio: Optional[float]  # None when T < n


def check_thm4(family: CurveFamily) -> BoundCheckRow:
    """The family's row: the touching count normalized by the predicted
    growth (logged, not judged: the bound's constant is unknown), and the
    intersection count normalized by the predicted lower bound, defined
    only for touching-heavy families (T >= n)."""
    fi = catalogue(family)
    n, m = family.n, family.m
    T, X = fi.T, fi.X
    check(X >= T, "intersections cannot undercount touchings")
    thm3 = T / n ** float(thm3_exponent(m))
    if T >= n:
        thm4 = X / (T * (T / n) ** float(thm4_exponent(m)))
    else:
        thm4 = None
    return BoundCheckRow(n=n, m=m, T=T, X=X, thm3_ratio=thm3, thm4_ratio=thm4)


def fit_exponent(rows: Sequence[BoundCheckRow]) -> Dict[str, float]:
    """Least-squares slope of log T against log n across a sweep."""
    if len(rows) < 3:
        raise FitError("exponent fit needs at least three rows")
    rs = sorted(rows, key=lambda r: r.n)
    if any(r.T < 1 for r in rs):
        raise FitError("exponent fit needs T >= 1 in every row")
    xs = [math.log(r.n) for r in rs]
    ys = [math.log(r.T) for r in rs]
    k = len(rs)
    mx, my = sum(xs) / k, sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise FitError("exponent fit needs at least two distinct n")
    alpha = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    beta = my - alpha * mx
    ss_res = sum((y - alpha * x - beta) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"alpha": alpha, "r2": r2}


@dataclass(frozen=True)
class SweepRow(BoundCheckRow):
    """One family of a sweep: its bound check row, with the separator and
    decomposition columns."""
    d: int
    f: Optional[float]  # X/T, None when T = 0
    sep_size: int
    pieces: Optional[int]  # None when the decomposition does not apply


def _sweep_row(family: CurveFamily) -> SweepRow:
    row = check_thm4(family)
    sep = string_separator(family)
    d = row.X // family.n
    pieces: Optional[int] = None
    # past the d = 0 fallback to components, decomposing needs a touching
    if row.T or not d:
        try:
            pieces = len(recursive_decompose(reduce_degree(family)).pieces)
        except DegenerateError:
            pass
    return SweepRow(**vars(row), d=d,
                    f=None if row.T == 0 else row.X / row.T,
                    sep_size=len(sep.separator), pieces=pieces)


def run_sweep(kind: str, ns: Sequence[int], m: int = 1, seed: int = 42,
              resolution: int = 8) -> Tuple[SweepRow, ...]:
    """Generate one family per n and measure it; rows come back ordered by n."""
    rows: List[SweepRow] = []
    for n in sorted(set(ns)):
        family = generate(GeneratorSpec(kind=kind, n=n, m=m,
                                        resolution=resolution, seed=seed))
        rows.append(_sweep_row(family))
    return tuple(rows)


CSV_COLUMNS = ("n", "m", "T", "X", "d", "f",
               "thm3_ratio", "thm4_ratio", "sep_size", "pieces")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([_cell(getattr(r, c)) for c in CSV_COLUMNS])
    return out.getvalue()


def sweep_summary(kind: str, rows: Sequence[SweepRow]) -> str:
    """JSON text summarizing a sweep, including the fitted exponent when the
    rows support a fit."""
    summary: Dict[str, object] = {
        "kind": kind,
        "rows": len(rows),
        "m": rows[0].m if rows else None,
        "n_values": [r.n for r in rows],
        "T_values": [r.T for r in rows],
        "X_values": [r.X for r in rows],
    }
    try:
        fit = fit_exponent(rows)
        summary["alpha"] = fit["alpha"]
        summary["r2"] = fit["r2"]
    except FitError as e:
        summary["alpha"] = None
        summary["r2"] = None
        summary["fit_error"] = str(e)
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"
