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


def test_equal_tokens_share_one_fraction():
    fam = loads_family("family m=1\ncurve id=1 closed=1 nv=3\n"
                       "0 0\n4 0\n0 4\ncurve id=2 closed=0 nv=2\n4 1/2\n0 1/2\n")
    (a0, a1, a2), (b0, b1) = (c.points for c in fam.curves)
    assert a0.x is a0.y is a1.y is a2.x is b1.x
    assert a1.x is a2.y is b0.x
    assert b0.y is b1.y == Fraction(1, 2)


def test_unreduced_tokens_read_as_their_value():
    fam = loads_family("family m=1\ncurve id=1 closed=0 nv=3\n"
                       "2/4 0\n1/2 1\n3/2 -6/3\n")
    xs = [p.x for p in fam.curves[0].points]
    assert xs[0] == xs[1] == Fraction(1, 2) and xs[2] == Fraction(3, 2)
    assert fam.curves[0].points[2].y == -2
    assert dumps_family(fam).splitlines()[2:] == ["1/2 0", "1/2 1", "3/2 -2"]


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5"])
def test_a_bad_token_after_repeats_reports_its_own_line(bad):
    head = "family m=1\ncurve id=1 closed=0 nv=4\n1/2 0\n1/2 4\n"
    text = head + f"1/2 {bad}\n0 0\n"
    with pytest.raises(ParseError) as info:
        loads_family(text)
    assert (info.value.line, info.value.offset) == (5, len(head))
    # the same bad token twice: the first one is reported
    with pytest.raises(ParseError) as info:
        loads_family(head + f"{bad} 3\n{bad} 0\n")
    assert (info.value.line, info.value.offset) == (5, len(head))


def test_zero_length_segment_spelled_two_ways_is_refused():
    text = "family m=1\ncurve id=1 closed=0 nv=3\n1/2 0\n2/4 0\n3 3\n"
    with pytest.raises(ParseError, match="zero-length segment at 0"):
        loads_family(text)
    closed = "family m=1\ncurve id=1 closed=1 nv=3\n1/2 0\n4 0\n2/4 0\n"
    with pytest.raises(ParseError, match="must not repeat its first vertex"):
        loads_family(closed)
