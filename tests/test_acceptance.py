"""Whole-suite guarantees, one test per shipped claim.

Each test prints a single verdict line so a log scan shows the state of
every guarantee at a glance. Shared fixtures (the generated corpus, the
large sweep, the face contexts) are built lazily and reused across tests.
"""

import math
import time
from fractions import Fraction

from contactgeom.arrangement import (build_mixed_arrangement, locate_cell,
                                     pair_arrangement)
from contactgeom.errors import GenerationError
from contactgeom.experiments import check_thm4, fit_exponent, thm3_exponent
from contactgeom.cli import main as cli_main
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.graphs import check_planarity, contact_graph_from
from contactgeom.incidence import (catalogue, compute_incidences,
                                   curve_pair_incidences)
from contactgeom.separator import (recursive_decompose, reduce_degree,
                                   string_separator)
from contactgeom.verifier import (circular_signature, enumerate_ground_pairs,
                                  rich_poor_partition,
                                  verify_signature_uniqueness)

import instances
import oracles

F = Fraction

CLOSED_KINDS = ("UnitCirclesGrid", "TangentChain", "RandomCircles")


def _verdict(num, ok, detail):
    print(f"criterion {num} {'pass' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ------------------------------------------------------------------ corpus

_CORPUS = None


def _corpus_specs():
    """Distinct families only: TangentChain, PseudoParabolas and
    PerturbedPencil read no seed, so each n is built once."""
    specs = []
    for n in (*range(3, 23), 24, 26, 28, 30, 32, 40):
        specs.append(("TangentChain", n, 1, 1))
    for n in (4, 5, 6, 7, 8):
        specs.append(("UnitCirclesGrid", n, 1, 1))
    for n in (4, 5, 6, 7, 8):
        # at n = 4, seeds 2, 15 and 18 repeat the families of seeds 1, 4, 14
        seeds = range(1, 21) if n > 4 else (1, *range(3, 15), 16, 17,
                                            *range(19, 24))
        for seed in seeds:
            specs.append(("RandomCircles", n, 2, seed))
    for n in range(4, 21):
        specs.append(("PseudoParabolas", n, 2, 1))
    for n in range(4, 16):
        specs.append(("PerturbedPencil", n, 1, 1))
    for n in (9, 10, 12, 13, 14, 15, 16, 20, 25, 30, 36, 40):
        specs.append(("UnitCirclesGrid", n, 1, 1))
    for n in (10, 14, 18, 22, 26, 30, 34, 38):
        for seed in (1, 2, 3):
            specs.append(("RandomCircles", n, 2, seed))
    for n in range(9, 32, 2):
        specs.append(("RandomCircles", n, 2, 1))
    return specs


def corpus():
    global _CORPUS
    if _CORPUS is None:
        records = []
        for kind, n, m, seed in _corpus_specs():
            try:
                fam = generate(GeneratorSpec(kind=kind, n=n, m=m, seed=seed))
            except GenerationError:
                continue
            records.append({"kind": kind, "seed": seed, "family": fam,
                            "fi": compute_incidences(fam),
                            "oracle": oracles.family_contacts(fam)})
        _CORPUS = records
    return _CORPUS


def test_criterion_1_incidences_match_reference():
    t0 = time.time()
    recs = corpus()
    mismatched = 0
    for rec in recs:
        got = {}
        for pair, incs in rec["fi"].pairs.items():
            if incs:
                got[pair] = sorted(((i.point.x, i.point.y), i.kind)
                                   for i in incs)
        if got != rec["oracle"]:
            mismatched += 1
    elapsed = time.time() - t0
    kinds = {rec["kind"] for rec in recs}
    ok = (len(recs) >= 200 and mismatched == 0 and elapsed < 60
          and len(kinds) == 5 and all(r["family"].n <= 40 for r in recs))
    _verdict(1, ok, f"{len(recs)} families over {len(kinds)} kinds, "
                    f"{mismatched} mismatches vs reference, "
                    f"{elapsed:.1f}s < 60s")


def test_corpus_holds_each_family_once():
    # after criterion 1, whose time gate covers building the corpus
    keys = [(r["kind"], r["family"].curves, r["family"].m) for r in corpus()]
    assert len(set(keys)) == len(keys) == len(_corpus_specs())


def test_criterion_2_closed_pair_parity():
    checked = violations = 0
    for rec in corpus():
        fam = rec["family"]
        closed = {c.id for c in fam if c.closed}
        for (a, b), incs in rec["fi"].pairs.items():
            if not incs or a not in closed or b not in closed:
                continue
            checked += 1
            crossings = sum(1 for i in incs if i.kind == "crossing")
            if crossings % 2 != 0:
                violations += 1
            if len(incs) == 1 and incs[0].kind != "tangency":
                violations += 1
    _verdict(2, checked > 0 and violations == 0,
             f"{checked} closed-curve pairs, even crossing counts, "
             f"single contacts all tangencies, {violations} violations")


def test_criterion_3_euler_and_cell_location():
    built = defects = 0
    small = [rec for rec in corpus() if rec["family"].n <= 8]
    for rec in small:
        fam = rec["family"]
        arr = build_mixed_arrangement(list(fam.curves))
        built += 1
        parent = {c.id: c.id for c in fam}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j) in rec["oracle"]:
            parent[find(i)] = find(j)
        comps = len({find(c.id) for c in fam})
        nv = len({g[0] for g in arr.half_edges})
        if nv - len(arr.half_edges) // 2 + arr.F != 1 + comps:
            defects += 1
        rec["_arr"] = arr
    probes = disagreements = 0
    for rec in small:
        if probes >= 1200:
            break
        curves = list(rec["family"].curves)
        raster = oracles.Raster(curves, k=24)
        got = raster.probes(120)
        if len({region for _, region in got}) < 2:
            continue
        face_of = {}
        for p, region in got:
            face = locate_cell(rec["_arr"], p)
            if face_of.setdefault(region, face) != face:
                disagreements += 1
        probes += len(got)
    ok = built >= 100 and defects == 0 and probes >= 1000 and disagreements == 0
    _verdict(3, ok, f"{built} arrangements all satisfy V-E+F=1+C, "
                    f"{probes} probes agree with the flood-fill reference "
                    f"({disagreements} disagreements)")


def test_criterion_4_contact_graph_planarity():
    families = non_planar = 0
    for rec in corpus():
        if rec["kind"] not in CLOSED_KINDS:
            continue
        families += 1
        if not check_planarity(contact_graph_from(rec["fi"])):
            non_planar += 1
    _verdict(4, families > 0 and non_planar == 0,
             f"{families} closed-curve families, every contact graph "
             f"planar ({non_planar} failures)")


def test_criterion_5_pair_cell_counts():
    closed_pairs = open_pairs = violations = 0
    worst = 0
    for rec in corpus():
        fam = rec["family"]
        ids = sorted(c.id for c in fam)
        closed = {c.id for c in fam if c.closed}
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                if a in closed and b in closed:
                    closed_pairs += 1
                    cells = pair_arrangement(fam, a, b).F
                    worst = max(worst, cells - fam.m)
                    if cells > fam.m + 2:
                        violations += 1
                else:
                    open_pairs += 1
    _verdict(5, closed_pairs > 0 and violations == 0,
             f"{closed_pairs} closed pairs all within m+2 cells "
             f"(max observed m+{worst}), {violations} violations; "
             f"{open_pairs} open-arc pairs logged only")


def test_criterion_6_ground_pair_expectations():
    by_key = {(r["kind"], r["family"].n, r["seed"]): r["family"]
              for r in corpus()}
    keys = ([("TangentChain", n, 1) for n in (3, 4, 5, 6, 7, 8)]
            + [("UnitCirclesGrid", n, 1) for n in (4, 6, 8)]
            + [("RandomCircles", n, s) for n in (5, 6, 7, 8) for s in (1, 2)]
            + [("PerturbedPencil", 5, 1)])
    families = split_checked = 0
    for key in keys:
        fam = by_key[key]
        families += 1
        rep = enumerate_ground_pairs(fam)
        assert 2 * rep.mean_t_star >= rep.mean_t_prime
        assert (fam.m + 2) * rep.mean_t_star_in_delta >= rep.mean_t_star
        assert isinstance(rep.mean_t_star, F)
        fi = catalogue(fam)
        if fi.T >= 1:
            rp = rich_poor_partition(fam)
            assert 1000 * rp.T_poor <= fi.T
            split_checked += 1
    _verdict(6, families >= 10 and split_checked >= 8,
             f"{families} families swept over every pair and coin vector "
             f"in exact rationals; rich/poor split held on {split_checked}")


def test_criterion_7_face_signatures_and_charging():
    fences = {m: instances.fence_subarcs(m + 5) for m in (1, 2, 3)}
    contexts = {m: instances.face_context(fences[m], 0) for m in fences}
    distinct_ok = 0
    cases = instances.uniqueness_instances()
    for m, fence, lams, note in cases:
        rep = verify_signature_uniqueness(contexts[m], lams)
        assert rep.distinct, note
        assert len(fence) == m + 5
        distinct_ok += 1
    pairs = [(m, lam1, lam2) for m, _, lam1, lam2, _
             in instances.violator_pairs()]
    pairs += [(m, *instances.hat_variant_pair(m)[1:]) for m in (1, 2, 3)]
    charged = 0
    for m, lam1, lam2 in pairs:
        _, sig, ch = instances.fence_charging(fences[m], lam1, lam2)
        sig2 = circular_signature(contexts[m], lam2)
        assert sig.sequence == sig2.sequence
        assert ch.real_count >= m + 1
        assert ch.imaginary_count <= 4
        pts = [p for _, p, _ in ch.charges]
        assert len(set(pts)) == len(pts)
        assert len(ch.charges) == len(sig.sequence)
        hits = {i.point for i in curve_pair_incidences(lam1.geometry,
                                                       lam2.geometry)}
        assert all((p in hits) == real for _, p, real in ch.charges)
        charged += 1
    _verdict(7, distinct_ok >= 20 and charged >= 5,
             f"{distinct_ok} face instances with distinct signatures, "
             f"{charged} colliding pairs charged to >= m+1 genuine "
             f"intersections with an injective ledger")


# ------------------------------------------------------------------- sweep

_SWEEP = None
SWEEP_NS = (50, 100, 200, 400, 800)


def sweep():
    global _SWEEP
    if _SWEEP is None:
        t0 = time.time()
        runs = []
        for kind in ("UnitCirclesGrid", "RandomCircles"):
            for n in SWEEP_NS:
                # every step reads the catalogues fam and red carry, so
                # the engine runs once per family: reduce_degree's check
                fam = generate(GeneratorSpec(kind=kind, n=n, m=1, seed=42))
                sep = string_separator(fam)
                red = reduce_degree(fam)
                dec = recursive_decompose(red, C_const=F(8))
                runs.append({"kind": kind, "n": n, "family": fam,
                             "fi": catalogue(fam), "sep": sep, "red": red,
                             "dec": dec, "fo": catalogue(red),
                             "row": check_thm4(fam)})
        _SWEEP = {"runs": runs, "elapsed": time.time() - t0}
    return _SWEEP


def test_criterion_8_separator_contract():
    data = sweep()
    passing = 0
    fallbacks = []
    failures = []
    for run in data["runs"]:
        n = run["family"].n
        sep = run["sep"]
        assert all(len(c) <= math.ceil(2 * n / 3) for c in sep.components)
        assert sep.c_measured <= 10
        dec, fo = run["dec"], run["fo"]
        flat = [cid for p in dec.pieces for cid in p]
        assert len(flat) == len(set(flat))
        where = {cid: k for k, p in enumerate(dec.pieces) for cid in p}
        assert not any(incs and a in where and b in where
                       and where[a] != where[b]
                       for (a, b), incs in fo.pairs.items())
        if dec.d >= 1:
            assert all(len(p) < dec.M or len(p) <= 2 for p in dec.pieces)
        else:
            fallbacks.append(f"{run['kind']} n={n}")
        if 2 * dec.touchings_surviving >= dec.touchings_total:
            passing += 1
        else:
            minimal = None
            for c in (16, 32, 64, 128, 256, 512, 1024):
                trial = recursive_decompose(run["red"], C_const=F(c))
                if 2 * trial.touchings_surviving >= trial.touchings_total:
                    minimal = c
                    break
            failures.append(f"{run['kind']} n={n} needs C_const={minimal}")
    total = len(data["runs"])
    note = f"; component fallback on {len(fallbacks)}" if fallbacks else ""
    note += f"; {failures}" if failures else ""
    ok = (10 * passing >= 9 * total and data["elapsed"] < 300)
    _verdict(8, ok, f"{passing}/{total} sweep runs kept >= T/2 touchings at "
                    f"C_const=8, balance and |S|/sqrt(x) <= 10 on every "
                    f"run{note}; sweep {data['elapsed']:.0f}s < 300s")


def test_criterion_9_touching_growth_exponent():
    assert thm3_exponent(1) == F(35, 18)
    assert thm3_exponent(2) == F(41, 21)
    data = sweep()
    fits = []
    for kind in ("UnitCirclesGrid", "RandomCircles"):
        rows = [r["row"] for r in data["runs"] if r["kind"] == kind]
        m = rows[0].m
        alpha = fit_exponent(rows)["alpha"]
        bound = float(thm3_exponent(m)) + 0.05
        assert alpha <= bound
        fits.append(f"{kind} alpha={alpha:.3f} <= {bound:.3f}")
    chain_rows = [check_thm4(generate(GeneratorSpec(
        kind="TangentChain", n=n, m=1, seed=42))) for n in SWEEP_NS]
    alpha = fit_exponent(chain_rows)["alpha"]
    assert alpha <= float(thm3_exponent(1)) + 0.05
    fits.append(f"TangentChain alpha={alpha:.3f}")
    _verdict(9, True, "fitted exponents below the predicted growth on every "
                      "generator sweep (" + "; ".join(fits) + "); "
                      "m=1 -> 35/18 and m=2 -> 41/21 exactly")


def test_criterion_10_intersection_ratio_sentinel():
    data = sweep()
    logged = []
    for run in data["runs"]:
        row = run["row"]
        if row.T >= row.n:
            assert row.X >= row.T
            assert row.thm4_ratio is not None
            assert math.isfinite(row.thm4_ratio)
            logged.append((run["kind"], row.n, row.thm4_ratio))
    for kind in ("UnitCirclesGrid", "RandomCircles"):
        ratios = {n: r for k, n, r in logged if k == kind}
        for n in SWEEP_NS:
            if n in ratios and 2 * n in ratios:
                assert ratios[2 * n] >= ratios[n] / 10
    shown = ", ".join(f"{k} n={n}: {r:.3f}" for k, n, r in logged)
    _verdict(10, len(logged) > 0,
             f"X >= T and finite thm4_ratio on all {len(logged)} "
             f"touching-heavy rows, no 10x drop across any doubling "
             f"({shown})")


def test_criterion_11_reports_reproducible(tmp_path):
    fam = generate(GeneratorSpec(kind="TangentChain", n=6, m=1, seed=1))
    from contactgeom.familyio import write_family
    family_path = tmp_path / "chain.family"
    write_family(family_path, fam)
    outputs = []
    for tag in ("one", "two"):
        gen = tmp_path / f"gen-{tag}.family"
        cli_main(["generate", "--kind", "RandomCircles", "--n", "10",
                  "--seed", "7", "-o", str(gen)])
        sample = tmp_path / f"sample-{tag}.json"
        cli_main(["sample-lemma", str(family_path), "--trials", "60",
                  "--seed", "5", "--report", str(sample)])
        csv_out = tmp_path / f"sweep-{tag}.csv"
        cli_main(["experiment", "--kind", "TangentChain", "--sweep", "6,9,12",
                  "--seed", "3", "--out", str(csv_out)])
        outputs.append([gen.read_bytes(), sample.read_bytes(),
                        csv_out.read_bytes(),
                        (tmp_path / f"sweep-{tag}.summary.json").read_bytes()])
    same = outputs[0] == outputs[1]
    _verdict(11, same, "generate, sample-lemma, and experiment reports are "
                       "byte-identical across reruns with equal seeds")
