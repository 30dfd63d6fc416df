"""Hand-built geometric fixtures shared across the test modules.

The main family is the picket fence: a chain of open arcs whose arrangement
has a single face, so every boundary edge borders that face from both sides.
Comb-shaped probe arcs kiss each picket exactly once, from below or from
above, which gives full control over their boundary fingerprints: combs that
dip to different spots on the same edge side collide, combs that change side
on any picket do not.

All coordinates are exact rationals picked so that every contact is a clean
one-point tangency or a transversal crossing, nothing collinear.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from contactgeom import Point
from contactgeom.verifier import (FaceContext, alt_hat_charging,
                                  circular_signature, free_arc)

F = Fraction

# one picket, relative to its base x: a tall hook with a long rising arm.
# the top stretch carries the two shoulder spots, the lower stretch the
# elbow spots; consecutive pickets cross once, arm against next shoulder.
_PICKET = (
    (F(0), F(8)),          # top
    (F(1, 2), F(6)),       # sh1
    (F(5, 16), F(5)),      # sh2
    (F(0), F(2)),          # elbow
    (F(2), F(29, 10)),     # el2
    (F(3), F(17, 5)),      # el3
    (F(5), F(5)),          # tip
)

_SPACING = 4

# below-side kiss spots (offset from base x, height)
BELOW_SPOTS = {
    "elbow": (F(0), F(2)),
    "el2": (F(2), F(29, 10)),
    "el3": (F(3), F(17, 5)),
}
ABOVE_TOKENS = ("sh1e", "sh2w")


def picket_points(k):
    x0 = _SPACING * k
    return tuple(Point(x0 + dx, y) for dx, y in _PICKET)


def fence_subarcs(s):
    """s pickets as free arcs with ids 1..s."""
    return tuple(free_arc(k + 1, picket_points(k)) for k in range(s))


def comb_points(s, tokens, level=0, closed=False):
    """Polyline of a comb kissing picket k at tokens[k].

    Below tokens are visited west to east along a low run, above tokens east
    to west along a high run; a mix is joined by one vertical wrap east of
    the fence. Distinct levels nest combs without endpoint collisions.
    Closed combs must be below-only; they return through a deep rectangle.
    """
    assert len(tokens) == s
    lvl = F(level)
    run_lo = F(-2) - lvl
    run_hi = F(9) + lvl
    half = F(1, 4)
    fe = _SPACING * (s - 1) + 5            # east edge of the fence
    x_west = F(-1) - lvl
    x_east = fe + 1 + lvl
    below = [(k, t) for k, t in enumerate(tokens) if t in BELOW_SPOTS]
    above = [(k, t) for k, t in enumerate(tokens) if t in ABOVE_TOKENS]
    assert len(below) + len(above) == s, "unknown token"
    if closed:
        assert below and not above, "closed combs are below-only"
    pts = []
    if below:
        pts.append(Point(x_west, run_lo))
        for k, t in below:
            dx, y = BELOW_SPOTS[t]
            sx = _SPACING * k + dx
            pts += [Point(sx - half, run_lo), Point(sx, y),
                    Point(sx + half, run_lo)]
        pts.append(Point(x_east, run_lo))
    if above:
        pts.append(Point(x_east if below else fe + 2 + lvl, run_hi))
        west = None
        for k, t in reversed(above):
            x0 = _SPACING * k
            if t == "sh1e":
                # hairpin into the gap east of the shoulder
                pts += [Point(x0 + F(9, 8), run_hi), Point(x0 + F(1, 2), F(6)),
                        Point(x0 + 1, run_hi)]
                west = x0 + 1
            else:
                # pocket visiting the lower shoulder from the west
                pts += [Point(x0 - F(1, 2), run_hi),
                        Point(x0 - F(1, 2), F(53, 10)),
                        Point(x0 + F(5, 16), F(5)),
                        Point(x0 - 2, F(26, 5)),
                        Point(x0 - 2, run_hi)]
                west = x0 - 2
        pts.append(Point(west - 1 - lvl, run_hi))
    if closed:
        deep = run_lo - 8 - 2 * lvl
        pts += [Point(x_east, deep), Point(x_west - 1, deep)]
    return tuple(pts)


def comb_subarc(cid, s, tokens, level=0, closed=False):
    return free_arc(cid, comb_points(s, tokens, level, closed), closed=closed)


def _cycle(parts, s):
    return tuple(parts[k % len(parts)] for k in range(s))


def uniqueness_instances(ms=(1, 2, 3)):
    """(m, fence, combs, note) fixtures whose fingerprints must all differ.

    A fence face tolerates at most one below comb and one above comb before
    combs are forced to cross each other, so instances hold one or two.
    """
    out = []
    for m in ms:
        s = m + 5
        fence = fence_subarcs(s)
        mixed = tuple("elbow" if k < s // 2 else "sh1e" for k in range(s))
        catalog = (
            ([(("elbow",) * s, 0, False)], "single low comb"),
            ([(_cycle(("elbow", "el2", "el3"), s), 0, True)],
             "single closed low comb, varied spots"),
            ([(("sh1e",) * s, 0, False)], "single high comb, east kisses"),
            ([(("sh2w",) * s, 0, False)], "single high comb, west kisses"),
            ([(("el2",) * s, 0, False),
              (_cycle(("sh1e", "sh2w"), s), 0, False)],
             "low comb plus alternating high comb"),
            ([(_cycle(("el3", "elbow"), s), 0, True),
              (_cycle(("sh2w", "sh1e"), s), 0, False)],
             "closed low comb plus alternating high comb"),
            ([(mixed, 0, False)], "one comb switching side mid-fence"),
        )
        for combs, note in catalog:
            lams = tuple(comb_subarc(101 + i, s, tokens, level, closed)
                         for i, (tokens, level, closed) in enumerate(combs))
            out.append((m, fence, lams, note))
    return out


def violator_pairs(ms=(1, 2, 3)):
    """(m, fence, lam1, lam2, note) fixtures with colliding fingerprints.

    Both combs kiss the same side of every picket, at different spots so no
    point is shared; the nesting forces the deeper comb's teeth through the
    shallower comb's run, so the pair really does intersect a lot.
    """
    out = []
    for m in ms:
        s = m + 5
        fence = fence_subarcs(s)
        for closed in (False, True):
            lam1 = comb_subarc(101, s, ("elbow",) * s, 0, closed)
            lam2 = comb_subarc(102, s, ("el2",) * s, 1, closed)
            note = f"{'closed' if closed else 'open'} nested combs, s={s}"
            out.append((m, fence, lam1, lam2, note))
    return out


def hat_variant_pair(m, j=2):
    """Colliding pair whose spot order flips on picket j only."""
    s = m + 5
    fence = fence_subarcs(s)
    t1 = tuple("el3" if k == j else "elbow" for k in range(s))
    t2 = tuple("elbow" if k == j else "el2" for k in range(s))
    lam1 = comb_subarc(101, s, t1, 0)
    lam2 = comb_subarc(102, s, t2, 1)
    return fence, lam1, lam2


@lru_cache(maxsize=None)
def fence_charging(fence, lam1, lam2):
    """(context, lam1's signature, charge report) for a colliding pair in
    the single face of a fence.

    The imaginary-closure route search is the costliest step of a charging,
    so test modules that check the same pair share one run.
    """
    ctx = FaceContext(fence, 0)
    sig = circular_signature(0, fence, lam1, context=ctx)
    return ctx, sig, alt_hat_charging(0, lam1, lam2, sig, context=ctx)


# ------------------------------------------------------------ lens fixtures

def lens_arcs():
    """Two open arcs crossing twice; the bounded face between them is the
    lens. Returns (a, b) as free arcs with ids 1 and 2."""
    a = free_arc(1, (Point(-12, -2), Point(-4, 5), Point(4, 6),
                     Point(12, -1)))
    b = free_arc(2, (Point(-12, 2), Point(-4, 1), Point(4, 1),
                     Point(12, 2)))
    return a, b


def lens_flank_pair():
    """Arcs kissing the lens roof and floor once each, on opposite flanks.
    Their two-label fingerprints collide."""
    lam7 = free_arc(7, (Point(-6, 3), Point(-4, 5), Point(-2, 3),
                        Point(-4, 1), Point(-6, 2)))
    lam8 = free_arc(8, (Point(6, 3), Point(4, 6), Point(2, 3),
                        Point(4, 1), Point(6, F(3, 2))))
    return lam7, lam8


def lens_diagonal_pair():
    """Colliding pair whose closures are blocked by the lens geometry."""
    lam1 = free_arc(7, (Point(-6, 3), Point(-4, 5), Point(0, F(5, 2)),
                        Point(4, 1), Point(6, 2)))
    lam2 = free_arc(8, (Point(6, 4), Point(4, 6), Point(0, 4),
                        Point(-4, 1), Point(-6, 2)))
    return lam1, lam2
