"""Command-line surface: validate, analyze, generate, decompose, verify-prop9,
sample-lemma, experiment.

Exit codes: 0 on success, 1 when the input file fails to parse or violates
the family model, 2 on any other failure. All reports are deterministic:
equal inputs and seeds produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from .arrangement import Arrangement, build_arrangement, locate_cell
from .errors import (ConstructionError, ContactGeomError, DegenerateError,
                     DegeneracyError, ParseError, PreconditionError,
                     ValidationError)
from .experiments import run_sweep, sweep_csv, sweep_summary
from .familyio import parse_integer, parse_rational, read_family, write_family
from .generators import KINDS, GeneratorSpec, generate
from .geometry import CurveFamily, midpoint
from .graphs import contact_graph_from
from .incidence import catalogue, sub_family, validate_general_position
from .separator import ReducedFamily, recursive_decompose, reduce_degree
from .verifier import (FaceContext, alt_hat_charging, circular_signature,
                       free_arc, monte_carlo_ground, rich_poor_partition,
                       verify_signature_uniqueness)

# numbering used by the validator's report, in model order
_VIOLATION_TAGS = {
    "triple_point": "(i)",
    "overlap": "(ii)",
    "endpoint_contact": "(iii)",
    "intersection_budget": "(iv)",
    "self_intersection": "(v)",
    "degenerate_contact": "(vi)",
}

DEFAULT_SEED = 42


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _cmd_validate(ns: argparse.Namespace) -> int:
    family = read_family(ns.family)
    report = validate_general_position(family)
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        tag = _VIOLATION_TAGS.get(v.kind, "(?)")
        where = f" at {v.point}" if v.point is not None else ""
        print(f"violation {tag} {v.kind} curves={list(v.curves)}{where}: "
              f"{v.detail}", file=sys.stderr)
    return 1


def _cmd_analyze(ns: argparse.Namespace) -> int:
    family = read_family(ns.family)
    fi = catalogue(family)
    parts = [f"n={family.n}", f"m={family.m}", f"T={fi.T}", f"X={fi.X}",
             f"crossings={fi.crossing_count}"]
    if fi.T > 0:
        parts.append(f"f={Fraction(fi.X, fi.T)}")
    print(" ".join(parts))
    if ns.graphs is not None:
        lines = [f"{a} {b}" for a, b in fi.touching_pairs()]
        _write_text(ns.graphs, "\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {ns.graphs}")
    return 0


def _cmd_generate(ns: argparse.Namespace) -> int:
    spec = GeneratorSpec(kind=ns.kind, n=ns.n, m=ns.m,
                         resolution=ns.resolution, seed=ns.seed)
    # the catalogue generate keeps is dropped before the write: held
    # through it, it raised the process's peak memory
    family = CurveFamily(generate(spec).curves, spec.m)
    write_family(ns.output, family)
    print(f"wrote {ns.output}")
    return 0


def _cmd_decompose(ns: argparse.Namespace) -> int:
    try:
        c_const = parse_rational(ns.cconst)
    except ParseError as e:
        raise PreconditionError(f"--cconst: {e}")
    if c_const <= 0:
        raise PreconditionError(f"--cconst: {ns.cconst!r} is not positive")
    family = read_family(ns.family)
    reduced = reduce_degree(family)
    data: Dict[str, object] = {
        "input_n": family.n,
        "m": family.m,
        "reduced_n": reduced.n,
        "C_const": str(c_const),
    }
    try:
        report = recursive_decompose(reduced, C_const=c_const)
    except DegenerateError as e:
        data.update({"degenerate": True, "reason": str(e)})
        _write_text(ns.report, _json_text(data))
        print(f"degenerate: {e}")
        print(f"wrote {ns.report}")
        return 0
    ratio = report.separator_ratio
    data.update({
        "degenerate": False,
        "d": report.d,
        "M": str(report.M),
        "separator": sorted(report.separator),
        "separator_size": len(report.separator),
        "pieces": [sorted(p) for p in report.pieces],
        "piece_count": len(report.pieces),
        "per_level": list(report.per_level),
        "touchings_total": report.touchings_total,
        "touchings_surviving": report.touchings_surviving,
        "separator_ratio": None if ratio is None else str(ratio),
    })
    if isinstance(reduced, ReducedFamily):
        parent = reduced.parent_of
        data["parent_pieces"] = [sorted({parent[i] for i in p})
                                 for p in report.pieces]
    _write_text(ns.report, _json_text(data))
    print(f"pieces={len(report.pieces)} separator={len(report.separator)} "
          f"surviving={report.touchings_surviving}/{report.touchings_total}")
    print(f"wrote {ns.report}")
    return 0


def _instance_sides(family: CurveFamily) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Split the ids into two sides that touch completely across and never
    within; None when the touching graph has no such shape."""
    g = contact_graph_from(catalogue(family))
    active = [cid for cid in g.vertices if g.neighbors(cid)]
    if not active:
        return None
    side_a = g.neighbors(active[0])
    side_b = frozenset(cid for cid in active if g.neighbors(cid) == side_a)
    if side_a & side_b or side_a | side_b != set(active):
        return None
    if any(g.neighbors(cid) != side_b for cid in side_a):
        return None
    return tuple(sorted(side_a)), tuple(sorted(side_b))


def _pick_face(family: CurveFamily, lambda1_ids: Sequence[int],
               lambdaF_ids: Sequence[int]
               ) -> Optional[Tuple[Arrangement, int]]:
    """(arrangement of the lambda1 curves in the given order, its face
    holding every candidate arc), or None when the arcs do not share one.

    The arrangement reads the contacts of the lambda1 curves from the
    family's catalogue."""
    arr = build_arrangement(sub_family(family, lambda1_ids))
    face: Optional[int] = None
    for lid in lambdaF_ids:
        c = family.curve(lid)
        probe = midpoint(c.points[0], c.points[1])
        try:
            f = locate_cell(arr, probe)
        except ContactGeomError:
            return None
        if face is None:
            face = f
        elif f != face:
            return None
    return arr, face


def _cmd_verify_prop9(ns: argparse.Namespace) -> int:
    family = read_family(ns.family)
    m = family.m
    data: Dict[str, object] = {"m": m, "n": family.n, "expected_lambda1": m + 5}

    def bail(reason: str) -> int:
        data.update({"applicable": False, "reason": reason})
        _write_text(ns.report, _json_text(data))
        print(f"not applicable: {reason}")
        print(f"wrote {ns.report}")
        return 0

    sides = _instance_sides(family)
    if sides is None:
        return bail("touching graph is not complete bipartite")
    # orient the split: the surrounding side hosts an arrangement with one
    # face holding every arc of the other side; the preferred orientation
    # is tried first, and the other only when it has no such face
    for lam1_ids, lamF_ids in sorted(
            (sides, sides[::-1]),
            key=lambda o: (len(o[0]) != m + 5, len(o[0]) < len(o[1]), o[0])):
        picked = _pick_face(family, lam1_ids, lamF_ids)
        if picked is not None:
            break
    else:
        return bail("no face of either side holds all arcs of the other")
    arr, face = picked
    by_id = {c.id: c for c in family}
    lambdaF = [free_arc(i, by_id[i].points, by_id[i].closed) for i in lamF_ids]
    try:
        ctx = FaceContext(arr, face, catalogue(family))
    except PreconditionError as e:
        return bail(f"face {face}: {e}")

    data.update({"applicable": True, "lambda1": list(lam1_ids),
                 "lambdaF": list(lamF_ids), "face": face})
    signatures = {}
    sig_of = {}
    for lam in lambdaF:
        try:
            sig = circular_signature(ctx, lam)
            sig_of[lam.geometry.id] = sig
            signatures[str(lam.geometry.id)] = list(sig.sequence)
        except PreconditionError as e:
            signatures[str(lam.geometry.id)] = {"error": str(e)}
    data["signatures"] = signatures
    ok_arcs = [lam for lam in lambdaF if lam.geometry.id in sig_of]
    rep = verify_signature_uniqueness(ctx, ok_arcs)
    data.update({
        "distinct": rep.distinct,
        "colliding": [list(p) for p in rep.colliding],
        "reflection_colliding": [list(p) for p in rep.reflection_colliding],
    })
    charging: List[Dict[str, object]] = []
    arcs_by_id = {lam.geometry.id: lam for lam in lambdaF}
    for i, j in rep.colliding:
        entry: Dict[str, object] = {"pair": [i, j]}
        try:
            ch = alt_hat_charging(ctx, arcs_by_id[i], arcs_by_id[j],
                                  sig_of[i])
            entry.update({
                "alt_edges": list(ch.alt_edges),
                "hat_edges": list(ch.hat_edges),
                "real": ch.real_count,
                "imaginary": ch.imaginary_count,
                "charges": [[lbl, [str(p.x), str(p.y)], real]
                            for lbl, p, real in ch.charges],
            })
        except (ConstructionError, PreconditionError) as e:
            entry["error"] = str(e)
        charging.append(entry)
    data["charging"] = charging
    _write_text(ns.report, _json_text(data))
    print(f"lambda1={len(lam1_ids)} lambdaF={len(lamF_ids)} face={face} "
          f"distinct={rep.distinct} collisions={len(rep.colliding)}")
    print(f"wrote {ns.report}")
    return 0


def _cmd_sample_lemma(ns: argparse.Namespace) -> int:
    family = read_family(ns.family)
    fi = catalogue(family)
    data: Dict[str, object] = {"n": family.n, "m": family.m,
                               "T": fi.T, "X": fi.X}
    if fi.T >= 1:
        rp = rich_poor_partition(family)
        data["rich_poor"] = {
            "threshold": str(rp.threshold),
            "poor_arcs": sorted(rp.poor_arcs),
            "T_poor": rp.T_poor,
            "T_rich": rp.T_rich,
        }
    else:
        data["rich_poor"] = None
    data["monte_carlo"] = monte_carlo_ground(family, ns.trials, ns.seed)
    _write_text(ns.report, _json_text(data))
    mc = data["monte_carlo"]
    print(f"trials={ns.trials} seed={ns.seed} "
          f"mean_t_star={mc['t_star']['mean']} "
          f"mean_in_delta={mc['t_star_in_delta']['mean']}")
    print(f"wrote {ns.report}")
    return 0


def _cmd_experiment(ns: argparse.Namespace) -> int:
    try:
        sweep = [parse_integer(tok) for tok in ns.sweep.split(",")]
    except ValueError:
        raise PreconditionError(f"bad sweep list {ns.sweep!r}")
    rows = run_sweep(ns.kind, sweep, m=ns.m, seed=ns.seed,
                     resolution=ns.resolution)
    _write_text(ns.out, sweep_csv(rows))
    stem = os.path.splitext(ns.out)[0]
    summary_path = stem + ".summary.json"
    _write_text(summary_path, sweep_summary(ns.kind, rows))
    print(f"wrote {ns.out}")
    print(f"wrote {summary_path}")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "decompose": _cmd_decompose,
    "verify-prop9": _cmd_verify_prop9,
    "sample-lemma": _cmd_sample_lemma,
    "experiment": _cmd_experiment,
}


def integer(tok: str) -> int:
    """parse_integer, under the name argparse prints in a usage error."""
    return parse_integer(tok)


@cache   # built on the first call, then shared: parse_args leaves it as is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactgeom",
        description="Curve family validation, analysis, and experiments.")
    ap.add_argument("-v", "--verbose", action="count", default=0)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a family file against the model")
    p.add_argument("family")

    p = sub.add_parser("analyze", help="count contacts and export the graph")
    p.add_argument("family")
    p.add_argument("--graphs", metavar="OUT.edges")

    p = sub.add_parser("generate", help="write a generated family file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--m", type=integer, default=1)
    p.add_argument("--resolution", type=integer, default=8)
    p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("decompose",
                       help="reduce degree and decompose recursively")
    p.add_argument("family")
    p.add_argument("--cconst", default="8", metavar="RATIONAL",
                   help="an integer or num/den, as in family files")
    p.add_argument("--report", required=True)

    p = sub.add_parser("verify-prop9",
                       help="signatures and charging inside one face")
    p.add_argument("family")
    p.add_argument("--report", required=True)

    p = sub.add_parser("sample-lemma",
                       help="rich/poor split and ground-pair sampling")
    p.add_argument("family")
    p.add_argument("--trials", type=integer, default=100)
    p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
    p.add_argument("--report", required=True)

    p = sub.add_parser("experiment", help="sweep a generator and emit CSV")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--sweep", required=True,
                   help="comma-separated family sizes")
    p.add_argument("--m", type=integer, default=1)
    p.add_argument("--resolution", type=integer, default=8)
    p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _HANDLERS[ns.subcommand](ns)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (ValidationError, DegeneracyError) as e:
        print(f"validation: {e}", file=sys.stderr)
        return 1
    except (ContactGeomError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a bug, not bad input: still one line and exit 2, no traceback
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
