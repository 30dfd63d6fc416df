"""Boundary fingerprints, the charging argument, and ground-pair sampling."""

from fractions import Fraction

import pytest

from contactgeom import verifier
from contactgeom.arrangement import build_mixed_arrangement
from contactgeom.errors import ConstructionError, PreconditionError
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import Curve, pt
from contactgeom.incidence import compute_incidences, curve_pair_incidences
from contactgeom.verifier import (FaceContext, alt_hat_charging, check_lemma8,
                                  circular_signature, enumerate_ground_pairs,
                                  free_arc, monte_carlo_ground,
                                  rich_poor_partition, sample_ground_pair,
                                  verify_signature_uniqueness)

import instances

F = Fraction


# ------------------------------------------------------------- face context

def test_free_arc_wraps_polyline():
    sa = free_arc(9, (pt(0, 0), pt(2, 1), pt(4, 0)))
    assert sa.parent == 9
    assert sa.endpoint_kinds == ("free", "free")
    assert not sa.geometry.closed
    closed = free_arc(9, (pt(0, 0), pt(2, 1), pt(4, 0), pt(2, -1)),
                      closed=True)
    assert closed.endpoint_kinds == ()


def test_face_context_rejects_bad_faces():
    fence = instances.fence_subarcs(6)
    with pytest.raises(PreconditionError):
        FaceContext(fence, 7)
    two = (free_arc(1, (pt(-2, -2), pt(2, -2), pt(2, 2), pt(-2, 2)),
                    closed=True),
           free_arc(2, (pt(10, -2), pt(14, -2), pt(14, 2), pt(10, 2)),
                    closed=True))
    # the unbounded face of two disjoint loops has two boundary pieces
    with pytest.raises(PreconditionError):
        FaceContext(two, 0)


def test_face_context_rejects_duplicate_ids():
    a = free_arc(1, (pt(0, 0), pt(2, 1), pt(4, 0)))
    b = free_arc(1, (pt(0, 4), pt(2, 5), pt(4, 4)))
    with pytest.raises(PreconditionError):
        FaceContext((a, b), 0)


def test_fence_arrangement_is_one_face():
    for s in (6, 7, 8):
        ctx = FaceContext(instances.fence_subarcs(s), 0)
        assert ctx.arrangement.F == 1
        # one walk covering both sides of every edge
        assert len(ctx.walk) == 2 * ctx.arrangement.E


def test_combs_touch_each_picket_once():
    fence = instances.fence_subarcs(6)
    for tokens in (("elbow",) * 6, ("el3",) * 6, ("sh1e",) * 6,
                   ("sh2w",) * 6):
        lam = instances.comb_subarc(101, 6, tokens)
        for sa in fence:
            incs = curve_pair_incidences(lam.geometry, sa.geometry)
            assert [x.kind for x in incs] == ["tangency"]


# -------------------------------------------------------------- signatures

def test_same_side_spots_share_a_signature():
    fence = instances.fence_subarcs(6)
    ctx = FaceContext(fence, 0)
    seqs = {tokens: circular_signature(
                0, fence, instances.comb_subarc(101, 6, (tokens,) * 6),
                context=ctx).sequence
            for tokens in ("elbow", "el2", "el3", "sh1e", "sh2w")}
    assert seqs["elbow"] == seqs["el2"] == seqs["el3"]
    assert len({seqs["elbow"], seqs["sh1e"], seqs["sh2w"]}) == 3
    for seq in seqs.values():
        assert len(seq) == 6
        assert len(set(seq)) == 6


def test_signature_is_rotation_invariant_by_canon():
    fence = instances.fence_subarcs(6)
    ctx = FaceContext(fence, 0)
    lam = instances.comb_subarc(101, 6, ("elbow",) * 6)
    sig = circular_signature(0, fence, lam, context=ctx)
    assert sig.sequence == min(sig.rotations())
    assert sig.sequence[0] == min(sig.sequence)


def test_uniqueness_across_comb_shapes():
    for m, fence, lams, note in instances.uniqueness_instances(ms=(1,)):
        rep = verify_signature_uniqueness(0, fence, lams)
        assert rep.distinct, note
        assert rep.colliding == ()


def test_collision_detected_for_same_side_combs():
    m, fence, lam1, lam2, _ = instances.violator_pairs(ms=(1,))[0]
    rep = verify_signature_uniqueness(0, fence, (lam1, lam2))
    assert not rep.distinct
    assert rep.colliding == ((101, 102),)


# ---------------------------------------------------------------- charging

def test_open_violators_charge_with_one_imaginary():
    m, fence, lam1, lam2, note = instances.violator_pairs(ms=(2,))[0]
    assert "open" in note
    _, sig, ch = instances.fence_charging(fence, lam1, lam2)
    L = len(sig.sequence)
    assert len(ch.alt_edges) == L and not ch.hat_edges
    assert ch.real_count == L - 1 and ch.imaginary_count == 1
    assert ch.real_count >= m + 1
    pts = [p for _, p, _ in ch.charges]
    assert len(set(pts)) == len(pts)     # the ledger is injective
    # every real charge is an actual intersection of the two arcs
    hits = {x.point for x in curve_pair_incidences(lam1.geometry,
                                                   lam2.geometry)}
    for _, p, real in ch.charges:
        assert (p in hits) == real


def test_closed_violators_charge_fully_real():
    for m, fence, lam1, lam2, note in instances.violator_pairs():
        if "closed" not in note:
            continue
        _, _, ch = instances.fence_charging(fence, lam1, lam2)
        assert ch.real_count == m + 5
        assert ch.imaginary_count == 0


def test_spot_order_flip_produces_hat_edges():
    fence, lam1, lam2 = instances.hat_variant_pair(2)
    ctx, sig, ch = instances.fence_charging(fence, lam1, lam2)
    sig2 = circular_signature(0, fence, lam2, context=ctx)
    assert sig.sequence == sig2.sequence
    assert len(ch.hat_edges) == 2
    assert len(ch.alt_edges) == len(sig.sequence) - 2
    assert ch.real_count >= 3


def test_two_label_flip_pair_is_rejected():
    a, b = instances.lens_arcs()
    arr = build_mixed_arrangement([a.geometry, b.geometry])
    lens = next(i for i in range(arr.F) if arr.faces[i].interior is not None)
    ctx = FaceContext((a, b), lens)
    lam7, lam8 = instances.lens_flank_pair()
    sig = circular_signature(lens, (a, b), lam7, context=ctx)
    sig8 = circular_signature(lens, (a, b), lam8, context=ctx)
    assert sig.sequence == sig8.sequence
    with pytest.raises(PreconditionError):
        alt_hat_charging(lens, lam7, lam8, sig, context=ctx)


def test_unroutable_closure_is_reported():
    a, b = instances.lens_arcs()
    arr = build_mixed_arrangement([a.geometry, b.geometry])
    lens = next(i for i in range(arr.F) if arr.faces[i].interior is not None)
    ctx = FaceContext((a, b), lens)
    lam1, lam2 = instances.lens_diagonal_pair()
    sig = circular_signature(lens, (a, b), lam1, context=ctx)
    with pytest.raises(ConstructionError):
        alt_hat_charging(lens, lam1, lam2, sig, context=ctx)


# ----------------------------------------------------------------- sampling

def chain(n, seed=1):
    return generate(GeneratorSpec(kind="TangentChain", n=n, m=1, seed=seed))


def test_sample_ground_pair_is_deterministic():
    fam = chain(6)
    a = sample_ground_pair(fam, seed=17)
    b = sample_ground_pair(fam, seed=17)
    assert a == b
    assert not (a.A & a.B)
    assert a.t_star <= a.t_prime


def test_exhaustive_ground_report_on_chain():
    fam = chain(5)
    rep = enumerate_ground_pairs(fam)
    assert rep.samples == 10             # all pairs of five curves
    assert rep.mean_t_star * 2 >= rep.mean_t_prime
    assert rep.mean_t_star_in_delta >= rep.mean_t_star / (fam.m + 2)
    assert rep.mean_t_star.denominator >= 1     # exact rationals throughout


def test_monte_carlo_agrees_with_exhaustive_bounds():
    fam = chain(5)
    mc = monte_carlo_ground(fam, trials=64, seed=3)
    assert mc["trials"] == 64 and mc["seed"] == 3
    assert 0 <= mc["t_star_in_delta"]["mean"] <= mc["t_star"]["mean"] + 1e-9
    again = monte_carlo_ground(fam, trials=64, seed=3)
    assert mc == again


def test_monte_carlo_reuses_the_given_catalogue(monkeypatch):
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=9, m=1, seed=0))
    fi = compute_incidences(fam)
    fresh = monte_carlo_ground(fam, trials=64, seed=3)

    def recompute(family):
        raise AssertionError("catalogue computed again")

    monkeypatch.setattr(verifier, "compute_incidences", recompute)
    assert monte_carlo_ground(fam, trials=64, seed=3, fi=fi) == fresh


def test_rich_poor_partition_thresholds():
    fam = chain(7)
    rp = rich_poor_partition(fam)
    fi = compute_incidences(fam)
    T = fi.T
    assert rp.threshold == F(T, 1000 * fam.n)
    assert rp.T_poor + rp.T_rich == T
    assert 1000 * rp.T_poor <= T
    # every chain curve carries a touching, so nobody is poor
    assert rp.poor_arcs == frozenset()


def test_rich_poor_needs_a_touching():
    fam = generate(GeneratorSpec(kind="PerturbedPencil", n=4, m=1, seed=1))
    fi = compute_incidences(fam)
    if fi.T == 0:
        with pytest.raises(PreconditionError):
            rich_poor_partition(fam)
    else:
        rp = rich_poor_partition(fam)
        assert 1000 * rp.T_poor <= fi.T


def test_check_lemma8_reports_shape():
    fam = chain(6)
    sample = sample_ground_pair(fam, seed=5)
    rep = check_lemma8(fam, sample)
    assert rep.s == fam.m + 5
    assert rep.l_observed >= 0
    if rep.biclique_found is not None:
        left, right = rep.biclique_found
        assert len(left) == rep.s
