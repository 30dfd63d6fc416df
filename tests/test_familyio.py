"""Round trips and error paths of the family file format."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactgeom.errors import ParseError, ValidationError
from contactgeom.familyio import (dumps_family, loads_family, read_family,
                                  write_family)
from contactgeom.generators import GeneratorSpec, generate
from contactgeom.geometry import Curve, CurveFamily, Point


def test_roundtrip_preserves_everything():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=5, m=2, seed=7))
    again = loads_family(dumps_family(fam))
    assert again.m == fam.m
    assert again.n == fam.n
    for a, b in zip(fam.curves, again.curves):
        assert a.id == b.id and a.closed == b.closed
        assert a.points == b.points


def test_roundtrip_open_arcs():
    fam = generate(GeneratorSpec(kind="PseudoParabolas", n=4, m=1, seed=3))
    assert any(not c.closed for c in fam.curves)
    again = loads_family(dumps_family(fam))
    assert [c.closed for c in again.curves] == [c.closed for c in fam.curves]


# negative coordinates and mixed denominators, integers among them
_COORDS = st.builds(Fraction, st.integers(-60, 60),
                    st.sampled_from((1, 2, 3, 5, 12)))


@st.composite
def families(draw):
    """Open and closed polylines with distinct ids, in a drawn order."""
    curves = []
    for cid in draw(st.lists(st.integers(-3, 10**6), unique=True,
                             max_size=5)):
        closed = draw(st.booleans())
        pts = draw(st.lists(st.builds(Point, _COORDS, _COORDS),
                            min_size=3 if closed else 2, max_size=6))
        try:
            curves.append(Curve(id=cid, points=tuple(pts), closed=closed))
        except ValidationError:      # a zero-length segment or collinear
            assume(False)
    return CurveFamily(tuple(curves), draw(st.integers(1, 50)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(families())
def test_roundtrip_property(fam):
    text = dumps_family(fam)
    again = loads_family(text)
    assert again == fam
    assert dumps_family(again) == text


def test_file_roundtrip(tmp_path):
    fam = generate(GeneratorSpec(kind="TangentChain", n=4, m=1, seed=5))
    path = tmp_path / "fam.txt"
    write_family(path, fam)
    again = read_family(path)
    assert dumps_family(again) == dumps_family(fam)


def test_exact_fractions_survive():
    fam = generate(GeneratorSpec(kind="RandomCircles", n=4, m=1, seed=2))
    text = dumps_family(fam)
    assert "/" in text                   # rational coordinates stay rational
    again = loads_family(text)
    assert again.curves[0].points == fam.curves[0].points


@pytest.mark.parametrize("text", [
    "",
    "family\ncurve id=1 closed=1 nv=3\n0 0\n1 0\n0 1\n",
    "family m=1\ncurve id=1 closed=1 nv=4\n0 0\n1 0\n0 1\n",
    "family m=1\ncurve id=1 closed=1 nv=3\n0 0\nx 0\n0 1\n",
    "family m=0\ncurve id=1 closed=1 nv=3\n0 0\n1 0\n0 1\n",
] + [
    # coordinates outside the written grammar -?\d+(/\d+)?, refused from the
    # token alone: 1e999999999 would ask for an integer of about 415 MB
    f"family m=1\ncurve id=1 closed=1 nv=3\n{tok} 0\n4 0\n0 4\n"
    for tok in ("1e999999999", "1.5", "+1", "1_000", "1/0", "-1/-2", "٣")
])
def test_malformed_inputs_raise(text):
    with pytest.raises(ParseError):
        loads_family(text)


def test_duplicate_ids_rejected():
    good = "family m=1\ncurve id=1 closed=1 nv=3\n0 0\n4 0\n0 4\n"
    dup = good + "curve id=1 closed=1 nv=3\n10 0\n14 0\n10 4\n"
    loads_family(good)
    with pytest.raises(ParseError):
        loads_family(dup)
