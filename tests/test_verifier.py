"""Boundary fingerprints, the charging argument, and ground-pair sampling."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactgeom import incidence, verifier
from contactgeom.arrangement import (build_arrangement,
                                     build_mixed_arrangement, locate_cell)
from contactgeom.errors import ConstructionError, PreconditionError
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import (Curve, CurveFamily, Point, Polyline, lift,
                                  meetings, pt, seg_events, unlift)
from contactgeom.incidence import (catalogue, compute_incidences,
                                   curve_pair_incidences, sub_family)
from contactgeom.verifier import (FaceContext, alt_hat_charging,
                                  circular_signature, enumerate_ground_pairs,
                                  free_arc, monte_carlo_ground,
                                  rich_poor_partition, sample_ground_pair,
                                  verify_signature_uniqueness)

import instances
import oracles

F = Fraction


# ------------------------------------------------------------- face context

def test_free_arc_wraps_polyline():
    sa = free_arc(9, (pt(0, 0), pt(2, 1), pt(4, 0)))
    assert sa.geometry == Curve(id=9, points=(pt(0, 0), pt(2, 1), pt(4, 0)),
                                closed=False)
    closed = free_arc(9, (pt(0, 0), pt(2, 1), pt(4, 0), pt(2, -1)),
                      closed=True)
    assert closed.geometry.closed


def test_face_context_rejects_bad_faces():
    fence = instances.fence_subarcs(6)
    with pytest.raises(PreconditionError):
        instances.face_context(fence, 7)
    two = (free_arc(1, (pt(-2, -2), pt(2, -2), pt(2, 2), pt(-2, 2)),
                    closed=True),
           free_arc(2, (pt(10, -2), pt(14, -2), pt(14, 2), pt(10, 2)),
                    closed=True))
    # the unbounded face of two disjoint loops has two boundary pieces
    with pytest.raises(PreconditionError):
        instances.face_context(two, 0)


def test_face_context_rejects_duplicate_ids():
    # the arrangement the context is built on refuses them
    a = free_arc(1, (pt(0, 0), pt(2, 1), pt(4, 0)))
    b = free_arc(1, (pt(0, 4), pt(2, 5), pt(4, 4)))
    with pytest.raises(PreconditionError):
        instances.face_context((a, b), 0)


def test_fence_arrangement_is_one_face():
    for s in (6, 7, 8):
        ctx = instances.face_context(instances.fence_subarcs(s), 0)
        assert ctx.arrangement.F == 1
        # one walk covering both sides of every edge
        assert len(ctx.walk) == len(ctx.arrangement.half_edges)


def test_face_context_reads_the_arrangement_grid():
    a, b = instances.lens_arcs()
    lens = build_mixed_arrangement([a.geometry, b.geometry])
    face = next(f.id for f in lens.faces if f.interior is not None)
    ctxs = [FaceContext(lens, face)]
    assert ctxs[0].scale == lens.scale == 8
    ctxs += [instances.face_context(instances.fence_subarcs(s), 0)
             for s in (6, 7, 8)]
    for ctx in ctxs:
        arr = ctx.arrangement
        assert ctx.scale == arr.scale


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
    ctx = instances.face_context(fence, 0)
    seqs = {tokens: circular_signature(
                ctx, instances.comb_subarc(101, 6, (tokens,) * 6)).sequence
            for tokens in ("elbow", "el2", "el3", "sh1e", "sh2w")}
    assert seqs["elbow"] == seqs["el2"] == seqs["el3"]
    assert len({seqs["elbow"], seqs["sh1e"], seqs["sh2w"]}) == 3
    for seq in seqs.values():
        assert len(seq) == 6
        assert len(set(seq)) == 6


def test_signature_is_rotation_invariant_by_canon():
    fence = instances.fence_subarcs(6)
    ctx = instances.face_context(fence, 0)
    lam = instances.comb_subarc(101, 6, ("elbow",) * 6)
    sig = circular_signature(ctx, lam)
    seq = sig.sequence
    assert seq == min(seq[i:] + seq[:i] for i in range(len(seq)))
    assert sig.sequence[0] == min(sig.sequence)


def test_uniqueness_across_comb_shapes():
    for m, fence, lams, note in instances.uniqueness_instances(ms=(1,)):
        rep = verify_signature_uniqueness(instances.face_context(fence, 0),
                                          lams)
        assert rep.distinct, note
        assert rep.colliding == ()


def test_collision_detected_for_same_side_combs():
    m, fence, lam1, lam2, _ = instances.violator_pairs(ms=(1,))[0]
    rep = verify_signature_uniqueness(instances.face_context(fence, 0),
                                      (lam1, lam2))
    assert not rep.distinct
    assert rep.colliding == ((101, 102),)


def _square(cid, x0, y0, side=4):
    return free_arc(cid, (pt(x0, y0), pt(x0 + side, y0),
                          pt(x0 + side, y0 + side), pt(x0, y0 + side)),
                    closed=True)


def _face_holding(arcs, p):
    arr = build_mixed_arrangement([sa.geometry for sa in arcs])
    return FaceContext(arr, locate_cell(arr, p))


@pytest.mark.parametrize("surround,inside,lam,message", [
    # a loop with no contact is anchored at its first vertex
    ((_square(1, 0, 0),), pt(9, 9),
     ((-2, 1), (0, 0), (1, -2)), "arrangement vertex"),
    # a kiss from outside, read in the bounded face
    ((_square(1, 0, 0),), pt(2, 2),
     ((6, -1), (4, 0), (5, 2)), "not on the face-side boundary"),
    # a kiss at a corner that the overlap of two squares does not reach
    ((_square(1, 0, 0), _square(2, 2, 2)), pt(3, 3),
     ((-2, 1), (0, 0), (1, -2), (8, 0), (6, 6), (5, 8)),
     "not on the face-side boundary")],
    ids=["anchor", "wrong-side", "off-the-walk"])
def test_signature_refuses_a_touching_it_cannot_side(surround, inside, lam,
                                                     message):
    # the third refusal, two sides that both pass the strict wedge test,
    # needs an arc with no neighbour at its touch point, which no touching
    # arc has
    ctx = _face_holding(surround, inside)
    arc = free_arc(9, tuple(pt(x, y) for x, y in lam))
    for mu in surround:
        incs = curve_pair_incidences(arc.geometry, mu.geometry)
        assert [inc.kind for inc in incs] == ["tangency"]
    with pytest.raises(PreconditionError, match=message):
        circular_signature(ctx, arc)


def test_a_kiss_from_each_side_of_a_dangling_edge_has_its_own_label():
    # one open arc: its only face meets both sides of its one edge
    ctx = _face_holding((free_arc(1, (pt(0, 0), pt(4, 2), pt(8, 0))),),
                        pt(9, 9))
    assert len(ctx.walk) == 2
    above = free_arc(8, (pt(2, 5), pt(4, 2), pt(6, 5)))
    below = free_arc(9, (pt(2, -1), pt(4, 2), pt(6, -1)))
    labels = [circular_signature(ctx, lam).sequence for lam in (above, below)]
    assert sorted(labels) == [(h,) for h in sorted(ctx.walk)]
    # with no direction to read, both sides pass: only a direct call can
    # reach this refusal
    with pytest.raises(PreconditionError, match="ambiguous"):
        ctx.boundary_position(pt(4, 2), ())


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
    sig2 = circular_signature(ctx, lam2)
    assert sig.sequence == sig2.sequence
    assert len(ch.hat_edges) == 2
    assert len(ch.alt_edges) == len(sig.sequence) - 2
    assert ch.real_count >= 3


def test_two_label_flip_pair_is_rejected():
    a, b = instances.lens_arcs()
    arr = build_mixed_arrangement([a.geometry, b.geometry])
    lens = next(i for i in range(arr.F) if arr.faces[i].interior is not None)
    ctx = FaceContext(arr, lens)
    lam7, lam8 = instances.lens_flank_pair()
    sig = circular_signature(ctx, lam7)
    sig8 = circular_signature(ctx, lam8)
    assert sig.sequence == sig8.sequence
    with pytest.raises(PreconditionError):
        alt_hat_charging(ctx, lam7, lam8, sig)


def test_unroutable_closure_is_reported():
    a, b = instances.lens_arcs()
    arr = build_mixed_arrangement([a.geometry, b.geometry])
    lens = next(i for i in range(arr.F) if arr.faces[i].interior is not None)
    ctx = FaceContext(arr, lens)
    lam1, lam2 = instances.lens_diagonal_pair()
    sig = circular_signature(ctx, lam1)
    with pytest.raises(ConstructionError):
        alt_hat_charging(ctx, lam1, lam2, sig)


# ------------------------------------------- catalogue against the engine

# (pickets, comb shape) of the benchmark's fence families
FENCE_SHAPES = ((2, "nested"), (3, "nested"), (4, "nested"), (3, "hat"),
                (6, "closed"), (6, "distinct"))


def _fence_combs(s, shape):
    comb = instances.comb_subarc
    if shape == "distinct":
        return (comb(101, s, ("elbow",) * s, 0),
                comb(102, s, ("sh1e",) * s, 0))
    if shape == "hat":
        return (comb(101, s, tuple("el3" if k == 2 else "elbow"
                                   for k in range(s)), 0),
                comb(102, s, tuple("elbow" if k == 2 else "el2"
                                   for k in range(s)), 1))
    closed = shape == "closed"
    return (comb(101, s, ("elbow",) * s, 0, closed),
            comb(102, s, ("el2",) * s, 1, closed))


def _face_results(ctx, lams):
    sigs = [circular_signature(ctx, lam) for lam in lams]
    rep = verify_signature_uniqueness(ctx, lams)
    charges = [alt_hat_charging(ctx, lams[0], lams[1], sigs[0])
               for _ in rep.colliding]
    return sigs, rep, charges


@pytest.mark.parametrize("s,shape", FENCE_SHAPES)
def test_catalogue_face_matches_the_per_pair_engine(s, shape, monkeypatch):
    # verify-prop9 reads the surrounding arrangement and the arcs' contacts
    # from the family's catalogue; the per-pair engine and the mixed-mode
    # arrangement of the same curves are the reference
    lams = _fence_combs(s, shape)
    fam = CurveFamily(tuple(sa.geometry for sa in instances.fence_subarcs(s))
                      + tuple(lam.geometry for lam in lams), 40)
    pickets = tuple(range(1, s + 1))
    fi = catalogue(fam)
    arr = build_arrangement(sub_family(fam, pickets))
    ref = build_mixed_arrangement([fam.curve(i) for i in pickets])
    assert arr.curves == ref.curves and arr.scale == ref.scale
    assert arr.half_edges == ref.half_edges
    assert arr.faces == ref.faces
    want = _face_results(FaceContext(arr, 0), lams)
    runs = []
    run_engine = incidence._run_engine
    monkeypatch.setattr(incidence, "_run_engine",
                        lambda *a: runs.append(a) or run_engine(*a))
    got = _face_results(FaceContext(arr, 0, fi), lams)
    assert runs == []
    assert got == want
    assert bool(want[2]) == (shape != "distinct")


# ------------------------------------------------------------ box rejection

_GRID = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=400, deadline=None)
@given(a=_GRID, b=_GRID, pts=st.lists(_GRID, min_size=2, max_size=6),
       closed=st.booleans())
# corner only, zero width, zero height, overlap, shared end, closing segment
@example(a=(0, 0), b=(2, 2), pts=[(2, 2), (4, 4)], closed=False)
@example(a=(1, -2), b=(1, 2), pts=[(-1, 0), (1, 0), (1, 3)], closed=False)
@example(a=(-3, 1), b=(3, 1), pts=[(0, 1), (0, 4)], closed=False)
@example(a=(-3, 0), b=(1, 0), pts=[(0, 0), (3, 0), (3, -2)], closed=False)
@example(a=(-4, -4), b=(-1, -1), pts=[(-1, -1), (-1, -3)], closed=False)
@example(a=(-2, 0), b=(2, 0), pts=[(0, -1), (1, 1), (-1, 1)], closed=True)
def test_box_rejection_keeps_every_event(a, b, pts, closed):
    # curves and routes have no zero-length segment
    ring = pts + pts[:1] if closed else pts
    assume(a != b and all(c != d for c, d in zip(ring, ring[1:])))
    want = [(j, ev) for j, (c, d) in enumerate(zip(ring, ring[1:]))
            if (ev := seg_events(a, b, c, d))[0] != "none"]
    line = Polyline(pts, closed)
    assert list(line.hits(a, b)) == [ev for _, ev in want]
    assert meetings(Polyline([a, b]), line) == [(0, j, ev) for j, ev in want]


# ------------------------------------- closure against the Fraction search

def _charging_cases():
    """(note, surrounding arcs, face, lam1, lam2) for every violator, hat
    and lens fixture."""
    cases = [(note, fence, 0, lam1, lam2)
             for _, fence, lam1, lam2, note in instances.violator_pairs()]
    for m in (1, 2, 3):
        fence, lam1, lam2 = instances.hat_variant_pair(m)
        cases.append((f"hat m={m}", fence, 0, lam1, lam2))
    lens = instances.lens_arcs()
    cases += [("lens flank", lens, None, *instances.lens_flank_pair()),
              ("lens diagonal", lens, None, *instances.lens_diagonal_pair())]
    return cases


def _mapped(sa, a, bx, by):
    """The arc under the exact map (x, y) -> (a*x + bx, a*y + by)."""
    g = sa.geometry
    return free_arc(g.id, tuple(Point(a * p.x + bx, a * p.y + by)
                                for p in g.points), closed=g.closed)


def _outcome(run):
    try:
        return run()
    except (ConstructionError, PreconditionError) as e:
        return type(e).__name__


def _charging_face(surround, face, lam1):
    """(face context, lam1's signature) of a charging case."""
    arr = build_mixed_arrangement([sa.geometry for sa in surround])
    if face is None:
        # the bounded face between the two lens arcs
        face = next(i for i in range(arr.F)
                    if arr.faces[i].interior is not None)
    ctx = FaceContext(arr, face)
    return ctx, circular_signature(ctx, lam1)


def _unlifted(pts, scale):
    return tuple(Point(F(x, scale), F(y, scale)) for x, y in pts)


def _check_closure_against_fraction_search(surround, face, lam1, lam2):
    ctx, sig = _charging_face(surround, face, lam1)
    close, menu = verifier._close_arc, verifier._route_candidates
    calls, menus = [], []

    def recording(ctx_, lam, own, other, forbidden, walls, scale):
        calls.append([lam, other, forbidden, scale])
        calls[-1].append(close(ctx_, lam, own, other, forbidden, walls,
                               scale))
        return calls[-1][-1]

    def recording_menu(*args):
        menus.append(args)
        return menu(*args)

    def charge():
        return _outcome(lambda: alt_hat_charging(ctx, lam1, lam2, sig))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_close_arc", recording)
        mp.setattr(verifier, "_route_candidates", recording_menu)
        got = charge()
    assert calls
    # both closures and their menus work on one grid
    assert len({call[3] for call in calls} | {m[-1] for m in menus}) == 1
    # the whole menu, not only the winning route, is the one of the search
    for ctx_, ends, walls, scale in menus:
        lifted = [_unlifted(via, scale)
                  for via in menu(ctx_, ends, walls, scale)]
        ref = list(oracles.route_candidates(ctx_, *_unlifted(ends, scale)))
        differ = [i for i, (u, v) in enumerate(zip(lifted, ref)) if u != v]
        assert (len(lifted), differ[:1]) == (len(ref), [])
    _, _, forbidden, scale = calls[0][:4]
    assert {unlift(key, scale) for key in forbidden} == (
        oracles.meeting_points(lam1.geometry, lam2.geometry))
    want = {}
    for lam, other, forbidden, scale, *result in calls:
        other = Curve(id=-1, points=_unlifted(other.pts, scale),
                      closed=other.closed)
        ref = want[lam.geometry] = oracles.close_arc(
            ctx, lam, other, {unlift(key, scale) for key in forbidden})
        if ref is None:
            assert result == []        # ConstructionError on both sides
            continue
        closed, interval, ring = result[0]
        assert (closed.id, closed.closed) == (lam.geometry.id, True)
        assert (closed.points, interval) == ref
        assert (_unlifted(ring.pts, scale), ring.closed) == (ref[0], True)

    def fraction_close(ctx_, lam, own, other, forbidden, walls, scale):
        ref = want[lam.geometry]
        if ref is None:
            raise ConstructionError("no route")
        return (Curve(id=lam.geometry.id, points=ref[0], closed=True), ref[1],
                Polyline(lift(ref[0], scale), True))

    def fraction_pieces(crossings, *pieces):
        return oracles.piece_intersections(*pieces)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_close_arc", fraction_close)
        mp.setattr(verifier, "_piece_intersections", fraction_pieces)
        assert charge() == got
    return got


def test_closure_matches_fraction_search_on_fixtures():
    outcomes = {}
    for note, surround, face, lam1, lam2 in _charging_cases():
        got = _check_closure_against_fraction_search(surround, face,
                                                     lam1, lam2)
        outcomes[note] = got if isinstance(got, str) else "report"
    assert outcomes["lens diagonal"] == "ConstructionError"
    assert outcomes["lens flank"] == "PreconditionError"
    assert list(outcomes.values()).count("report") == 9


_DENOMS = st.integers(1, 12)


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(range(11)),
       a=st.builds(F, st.integers(1, 48), _DENOMS),
       bx=st.builds(F, st.integers(-60, 60), _DENOMS),
       by=st.builds(F, st.integers(-60, 60), _DENOMS))
def test_closure_matches_fraction_search_on_mapped_fixtures(case, a, bx, by):
    # a rational map moves the grid scale of every lifted curve set
    _, surround, face, lam1, lam2 = _charging_cases()[case]
    _check_closure_against_fraction_search(
        tuple(_mapped(sa, a, bx, by) for sa in surround), face,
        _mapped(lam1, a, bx, by), _mapped(lam2, a, bx, by))


def test_charging_scans_the_arcs_twice_whatever_the_signature_length():
    # one scan finds the points both closures must avoid, one finds every
    # piece crossing of the closed-up arcs, however many edges are charged
    lengths = set()
    for note, surround, face, lam1, lam2 in _charging_cases():
        ctx, sig = _charging_face(surround, face, lam1)
        scans = []

        def counting(p, q):
            scans.append((p, q))
            return meetings(p, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "meetings", counting)
            got = _outcome(lambda: alt_hat_charging(ctx, lam1, lam2, sig))
        if isinstance(got, str):
            continue
        lengths.add(len(got.sequence))
        assert len(scans) == 2, note
    assert len(lengths) >= 3


def _reversed(sa):
    g = sa.geometry
    return free_arc(g.id, tuple(reversed(g.points)), closed=g.closed)


def test_second_arc_charges_the_same_either_way_along_it():
    # its contacts then run against the signature, so alignment must read
    # the pieces backwards; on these fixtures both closures keep their route
    for note, surround, face, lam1, lam2 in _charging_cases():
        ctx, sig = _charging_face(surround, face, lam1)
        assert _outcome(lambda: alt_hat_charging(ctx, lam1, lam2, sig)) == (
            _outcome(lambda: alt_hat_charging(ctx, lam1, _reversed(lam2),
                                              sig))), note


def test_piece_crossings_match_fraction_portions():
    # pieces that start or end on a crossing or hold one past the seam,
    # which no charged piece of these fixtures does
    rng = random.Random(5)
    checked = 0
    for note, surround, face, lam1, lam2 in _charging_cases():
        ctx, sig = _charging_face(surround, face, lam1)
        scans = []

        def recording(crossings, *pieces):
            scans.append((crossings, pieces[0], pieces[3]))
            return piece(crossings, *pieces)

        piece = verifier._piece_intersections
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "_piece_intersections", recording)
            _outcome(lambda: alt_hat_charging(ctx, lam1, lam2, sig))
        if not scans:
            continue
        crossings, c1, c2 = scans[0]
        on1 = sorted({s for _, _, s, _ in crossings[2]} | set(range(3)))
        on2 = sorted({s for _, _, _, s in crossings[2]} | set(range(3)))

        def interval(on, n):
            lo, hi = rng.choice(on), rng.choice(on)
            return lo, hi + n if hi <= lo else hi

        for _ in range(30):
            (lo1, hi1), (lo2, hi2) = (interval(on1, c1.n_segments),
                                      interval(on2, c2.n_segments))
            assert piece(crossings, c1, lo1, hi1, c2, lo2, hi2) == (
                oracles.piece_intersections(c1, lo1, hi1, c2, lo2, hi2)), note
            checked += 1
    assert checked == 9 * 30     # the nine fixtures that charge


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
    bare = CurveFamily(fam.curves, fam.m)
    fresh = monte_carlo_ground(bare, trials=64, seed=3)

    def recompute(*args):
        raise AssertionError("catalogue computed again")

    # both families now carry their catalogue
    monkeypatch.setattr(incidence, "_run_engine", recompute)
    assert monte_carlo_ground(fam, trials=64, seed=3) == fresh
    assert monte_carlo_ground(bare, trials=64, seed=3) == fresh


def test_monte_carlo_builds_arrangements_only_to_locate_touchings(
        monkeypatch):
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=36, m=1, seed=0))
    built, located = [], set()
    build, resolve = verifier.pair_arrangement, verifier._PairContext.resolve

    def counting_build(family, i, j):
        built.append((i, j))
        return build(family, i, j)

    def recording_resolve(ctx, to_A):
        sample = resolve(ctx, to_A)
        if sample.t_star:
            located.add((ctx.g1, ctx.g2))
        return sample

    monkeypatch.setattr(verifier, "pair_arrangement", counting_build)
    monkeypatch.setattr(verifier._PairContext, "resolve", recording_resolve)
    report = monte_carlo_ground(fam, trials=400, seed=11)
    assert len(built) == len(set(built)) == len(located) > 0
    assert set(built) == located
    monkeypatch.undo()
    assert report == oracles.monte_carlo_ground(fam, 400, 11)
    assert report["t_star_in_delta"]["max"] > 0


def test_pair_at_is_the_kth_combination():
    for n in range(2, 41):
        ids = [k * k - 30 for k in range(n)]     # gapped, negative at first
        assert ([verifier._pair_at(ids, k) for k in range(n * (n - 1) // 2)]
                == list(combinations(ids, 2)))


def test_ground_pairs_are_drawn_by_rank_over_gapped_ids():
    fam = generate(GeneratorSpec(kind="UnitCirclesGrid", n=36, m=1, seed=0))
    # ids 66, 62, ..., -74: gapped, negative, against the curve order
    fam = CurveFamily([Curve(id=70 - 4 * c.id, points=c.points,
                             closed=c.closed) for c in fam], fam.m)
    pairs = list(combinations(sorted(c.id for c in fam), 2))
    for seed in range(10):
        s = sample_ground_pair(fam, seed)
        k = random.Random(seed).randrange(len(pairs))
        assert (s.gamma1, s.gamma2) == pairs[k]
    report = monte_carlo_ground(fam, trials=300, seed=5)
    assert report == oracles.monte_carlo_ground(fam, 300, 5)
    assert report["t_star_in_delta"]["max"] > 0


def test_monte_carlo_keeps_no_list_of_ground_pairs():
    # 1,500 disjoint triangles: an empty catalogue and 1,124,250 ground
    # pairs, which as a list of tuples take about 70 MB
    fam = CurveFamily([Curve(id=k, points=(pt(3 * x, 3 * y),
                                           pt(3 * x + 1, 3 * y),
                                           pt(3 * x, 3 * y + 1)), closed=True)
                       for k in range(1500) for x, y in [divmod(k, 40)]], 1)
    incidence.catalogue(fam)     # the engine's memory is not measured here
    tracemalloc.start()
    try:
        report = monte_carlo_ground(fam, trials=50, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["t_prime"]["max"] == 0
    assert peak < 2 * 2**20


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
