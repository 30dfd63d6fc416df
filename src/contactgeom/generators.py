"""Seeded constructions of valid curve families.

Tangencies are synthesised exactly: the contact point is placed as a shared
polyline vertex of both curves, so the four local directions split into the
side-separated pattern the incidence engine classifies as a tangency. Each
builder yields candidate families; `generate` checks each with the full
validator and returns the first valid one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Tuple

from .errors import GenerationError, PreconditionError
from .geometry import Curve, CurveFamily, Point, pt
from .incidence import keep_catalogue, validate_general_position

KINDS = ("UnitCirclesGrid", "TangentChain", "RandomCircles",
         "PseudoParabolas", "PerturbedPencil")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    m: int
    resolution: int = 8
    seed: int = 42

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or self.m < 1:
            raise PreconditionError("need n >= 1 and m >= 1")
        if self.resolution < 8:
            raise PreconditionError("resolution must be at least 8")


@lru_cache(maxsize=None)   # rational_circle's offsets, once per resolution
def _unit_polygon(resolution: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    q = (resolution + 3) // 4
    quadrant = []
    for j in range(q):
        t = Fraction(j, q)
        den = 1 + t * t
        quadrant.append(((1 - t * t) / den, 2 * t / den))
    pts = list(quadrant)
    pts += [(-y, x) for x, y in quadrant]
    pts += [(-x, -y) for x, y in quadrant]
    pts += [(y, -x) for x, y in quadrant]
    return tuple(pts)


def rational_circle(center: Point, resolution: int) -> Tuple[Point, ...]:
    """Vertices of a convex polygon inscribed in the unit circle at center.

    Quarter-symmetric, so (+-1, 0) and (0, +-1) offsets are always vertices;
    those are the only spots where grid-aligned tangencies land. The vertex
    count is resolution rounded up to a multiple of 4.
    """
    return tuple(Point(center.x + x, center.y + y)
                 for x, y in _unit_polygon(resolution))


def _circle(cid: int, center: Point, resolution: int) -> Curve:
    return Curve(id=cid, points=rational_circle(center, resolution), closed=True)


def _unit_circles_grid(spec: GeneratorSpec) -> Iterator[CurveFamily]:
    k = 1
    while k * k < spec.n:
        k += 1
    curves = []
    for t in range(spec.n):
        i, j = t % k, t // k
        curves.append(_circle(t + 1, pt(2 * i, 2 * j), spec.resolution))
    yield CurveFamily(curves=tuple(curves), m=spec.m)


def _tangent_chain(spec: GeneratorSpec) -> Iterator[CurveFamily]:
    curves = [_circle(i + 1, pt(2 * i, 0), spec.resolution)
              for i in range(spec.n)]
    yield CurveFamily(curves=tuple(curves), m=spec.m)


# center offsets for the unanchored circles; each lands deep inside a
# neighbour (center distance well clear of 2) so polygon crossings are
# transversal at any supported resolution
_FREE_OFFSETS = tuple(
    (Fraction(sx * 8, 7), Fraction(sy, 5)) for sx in (1, -1) for sy in (1, -1)
) + tuple(
    (Fraction(sx, 5), Fraction(sy * 8, 7)) for sx in (1, -1) for sy in (1, -1)
)


def _random_circles(spec: GeneratorSpec) -> Iterator[CurveFamily]:
    rng = random.Random(spec.seed)
    n_free = 0 if spec.m < 2 else spec.n // 5
    n_lat = spec.n - n_free
    k = 1
    while k * k * 4 < n_lat * 5:  # occupancy about 4/5
        k += 1
    sites = sorted(rng.sample([(a, b) for a in range(k) for b in range(k)],
                              n_lat))
    while True:
        curves: List[Curve] = []
        for idx, (a, b) in enumerate(sites):
            curves.append(_circle(idx + 1, pt(2 * a, 2 * b), spec.resolution))
        for j in range(n_free):
            a, b = sites[rng.randrange(len(sites))]
            ux, uy = _FREE_OFFSETS[rng.randrange(len(_FREE_OFFSETS))]
            center = Point(2 * a + ux, 2 * b + uy)
            curves.append(_circle(n_lat + j + 1, center, spec.resolution))
        yield CurveFamily(curves=tuple(curves), m=spec.m)


def _pseudo_parabolas(spec: GeneratorSpec) -> Iterator[CurveFamily]:
    q = (spec.resolution + 1) // 2
    curves = []
    for i in range(spec.n):
        c = i - spec.n // 2
        base = Fraction(c, 3)
        pts = tuple(Point(Fraction(x), Fraction((x - c) ** 2) + base)
                    for x in range(-q, q + 1))
        curves.append(Curve(id=i + 1, points=pts, closed=False))
    yield CurveFamily(curves=tuple(curves), m=spec.m)


def _perturbed_pencil(spec: GeneratorSpec) -> Iterator[CurveFamily]:
    # Curves i and j differ by a linear function, so with slopes i and
    # shifts i^3 / 2^k they cross once, at x = -(i^2 + ij + j^2) / 2^k in
    # (-1, 0) since 2^k > 3n^2: a dyadic, never an odd-denominator vertex
    # abscissa. Pairs (i, j) and (i, l) cross at one x only if i + j + l = 0,
    # so there are no triple points.
    r = spec.resolution + (0 if spec.resolution % 2 else 1)
    bend = Fraction(1, 4)
    scale = 1 << (3 * spec.n * spec.n).bit_length()
    curves = []
    for i in range(1, spec.n + 1):
        shift = Fraction(i ** 3, scale)
        pts = []
        for kk in range(r + 1):
            x = Fraction(2 * kk, r) - 1
            pts.append(Point(x, bend * x * x + i * x + shift))
        curves.append(Curve(id=i, points=tuple(pts), closed=False))
    yield CurveFamily(curves=tuple(curves), m=spec.m)


_BUILDERS = {
    "UnitCirclesGrid": _unit_circles_grid,
    "TangentChain": _tangent_chain,
    "RandomCircles": _random_circles,
    "PseudoParabolas": _pseudo_parabolas,
    "PerturbedPencil": _perturbed_pencil,
}


def generate(spec: GeneratorSpec) -> CurveFamily:
    """The first valid candidate of the spec's builder, carrying the
    catalogue its validation computed; the seeded builders draw a fresh
    placement per candidate, up to 20 of them."""
    candidates = islice(_BUILDERS[spec.kind](spec), 20)
    for tried, family in enumerate(candidates, 1):
        report = validate_general_position(family)
        if report.ok:
            return keep_catalogue(family, report.incidences)
    raise GenerationError(
        f"{spec.kind} n={spec.n} seed={spec.seed}: no valid family in "
        f"{tried} attempt(s); last violations: {', '.join(report.kinds())}")
