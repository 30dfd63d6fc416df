"""The contact engine's full output on one small family per violation
kind and detail: every pair in order, with each incidence's kind, point
and chain parameters, and every violation in order. The expected values
were recorded from the engine before its per-contact steps were rewritten
and must not change.

There is no third degenerate-contact detail for an interior contact
without a proper crossing: every touch seg_events reports lies on a
segment end, that is on a vertex of one of the two curves, so an event
with no proper crossing always has a vertex side, and the engine checks
this as an invariant instead of reporting it as a violation.
"""

from fractions import Fraction as F

import pytest

from contactgeom import incidence
from contactgeom.arrangement import build_mixed_arrangement
from contactgeom.errors import DegeneracyError
from contactgeom.geometry import Curve, pt


def line(cid, *xys, closed=False):
    return Curve(cid, tuple(pt(x, y) for x, y in xys), closed)


# name -> (curves, m): one small family per violation kind and detail
FIXTURES = {
    # a closed bow tie crosses itself; a square crosses it twice
    "self_intersection": (
        (line(1, (0, 0), (4, 4), (4, 0), (0, 4), closed=True),
         line(2, (-1, 1), (5, 1), (5, 3), (-1, 3), closed=True)), 8),
    # two open arcs share the piece from (1, 0) to (2, 0)
    "overlap_piece": ((line(1, (0, 0), (2, 0), (2, 2)),
                       line(2, (1, 0), (3, 0), (3, -2))), 1),
    # a shared vertex where both curves leave along +x
    "parallel_germs": ((line(1, (-2, 1), (0, 0), (2, 0), (2, 3)),
                        line(2, (-2, -1), (0, 0), (3, 0), (3, -3))), 1),
    # curve 1 passes (3, 3) twice; curve 2 passes through that point
    "multiple_passages": ((line(1, (0, 0), (9, 9), (6, 0), (0, 6)),
                           line(2, (3, -1), (3, 8))), 5),
    # a vertex of curve 2 rests on the inside of a segment of curve 1
    "vertex_on_interior": (
        (line(1, (-3, 0), (3, 0), (3, 3), (-3, 3), closed=True),
         line(2, (-1, -2), (0, 0), (1, -2))), 2),
    # the endpoint of arc 2 rests on the inside of a segment of curve 1
    "endpoint_on_interior": (
        (line(1, (-3, 0), (3, 0), (3, 3), (-3, 3), closed=True),
         line(2, (0, 0), (1, -2), (3, -3))), 1),
    # arcs meeting at vertices: 1 and 2 end at one point, and the end of 3
    # is an interior vertex of 1
    "endpoint_at_vertex": ((line(1, (0, 0), (2, 1), (4, 0)),
                            line(2, (4, 0), (5, 2), (6, 0)),
                            line(3, (2, 1), (2, 4), (1, 5))), 1),
    # two squares cross twice; an arc touches the first square at its
    # corner (0, 0) and another crosses it through its corner (4, 0)
    "intersection_budget": (
        (line(1, (0, 0), (4, 0), (4, 4), (0, 4), closed=True),
         line(2, (2, 2), (6, 2), (6, 6), (2, 6), closed=True),
         line(3, (-2, -1), (0, 0), (-1, -2)),
         line(4, (3, 1), (4, 0), (6, -1))), 1),
    # three lines through the origin, and a fourth crossing two of them
    "triple_point": ((line(1, (-3, 0), (3, 0)),
                      line(2, (0, -3), (0, 3)),
                      line(3, (-3, -3), (3, 3)),
                      line(4, (-3, F(1, 2)), (3, F(3, 2)))), 3),
}


def plain(pairs, violations):
    """_run_engine output as plain data, with every Fraction spelled out,
    in the engine's own order."""
    def p(q):
        return None if q is None else (str(q.x), str(q.y))
    return ([(key, [(i.kind, p(i.point), i.a, i.b, str(i.s_a), str(i.s_b))
                    for i in incs])
             for key, incs in pairs.items()],
            [(v.kind, v.curves, p(v.point), v.detail) for v in violations])


EXPECTED = {
    "self_intersection": (
        [
            ((1, 2), [
                ("crossing", ("0", "1"), 1, 2, "15/4", "1/6"),
                ("crossing", ("0", "3"), 1, 2, "13/4", "17/6"),
                ("crossing", ("1", "1"), 1, 2, "1/4", "1/3"),
                ("crossing", ("1", "3"), 1, 2, "11/4", "8/3"),
                ("crossing", ("3", "1"), 1, 2, "9/4", "2/3"),
                ("crossing", ("3", "3"), 1, 2, "3/4", "7/3"),
                ("crossing", ("4", "1"), 1, 2, "7/4", "5/6"),
                ("crossing", ("4", "3"), 1, 2, "5/4", "13/6"),
            ]),
        ],
        [
            ("self_intersection", (1,), ("2", "2"),
             "segments 0 and 2 meet"),
        ]),
    "overlap_piece": (
        [],
        [
            ("overlap", (1, 2), ("1", "0"),
             "curves share a collinear piece"),
            ("degenerate_contact", (1, 2), ("2", "0"),
             "polyline vertex rests on another curve interior"),
        ]),
    "parallel_germs": (
        [],
        [
            ("overlap", (1, 2), ("0", "0"),
             "curves share a collinear piece"),
            ("overlap", (1, 2), ("0", "0"),
             "parallel germs at a shared vertex"),
            ("degenerate_contact", (1, 2), ("2", "0"),
             "polyline vertex rests on another curve interior"),
        ]),
    "multiple_passages": (
        [],
        [
            ("self_intersection", (1,), ("3", "3"),
             "segments 0 and 2 meet"),
            ("degenerate_contact", (1, 2), ("3", "3"),
             "multiple passages through one contact point"),
        ]),
    "vertex_on_interior": (
        [],
        [
            ("degenerate_contact", (1, 2), ("0", "0"),
             "polyline vertex rests on another curve interior"),
        ]),
    "endpoint_on_interior": (
        [],
        [
            ("endpoint_contact", (1, 2), ("0", "0"),
             "arc endpoint rests on another curve"),
        ]),
    "endpoint_at_vertex": (
        [],
        [
            ("endpoint_contact", (1, 2), ("4", "0"),
             "arc endpoint meets another curve at a vertex"),
            ("endpoint_contact", (1, 3), ("2", "1"),
             "arc endpoint meets another curve at a vertex"),
        ]),
    "intersection_budget": (
        [
            ((1, 2), [
                ("crossing", ("2", "4"), 1, 2, "5/2", "7/2"),
                ("crossing", ("4", "2"), 1, 2, "3/2", "1/2"),
            ]),
            ((1, 3), [
                ("tangency", ("0", "0"), 1, 3, "0", "1"),
            ]),
            ((1, 4), [
                ("crossing", ("4", "0"), 1, 4, "1", "1"),
            ]),
        ],
        [
            ("intersection_budget", (1, 2), ("2", "4"),
             "2 contacts exceed budget 1"),
        ]),
    "triple_point": (
        [
            ((1, 2), [
                ("crossing", ("0", "0"), 1, 2, "1/2", "1/2"),
            ]),
            ((1, 3), [
                ("crossing", ("0", "0"), 1, 3, "1/2", "1/2"),
            ]),
            ((2, 3), [
                ("crossing", ("0", "0"), 2, 3, "1/2", "1/2"),
            ]),
            ((2, 4), [
                ("crossing", ("0", "1"), 2, 4, "2/3", "1/2"),
            ]),
            ((3, 4), [
                ("crossing", ("6/5", "6/5"), 3, 4, "7/10", "7/10"),
            ]),
        ],
        [
            ("triple_point", (1, 2, 3), ("0", "0"),
             "three or more curves through one point"),
        ]),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_engine_output_is_unchanged(name):
    curves, m = FIXTURES[name]
    got = plain(*incidence._run_engine(curves, m))
    assert got == EXPECTED[name]


@pytest.mark.parametrize("name", ["endpoint_on_interior",
                                  "endpoint_at_vertex"])
def test_mixed_arrangement_rejects_endpoint_contacts(name):
    # an arc endpoint on another curve is outside the model for an ad-hoc
    # curve set too, and raises the plain DegeneracyError
    curves, _ = FIXTURES[name]
    with pytest.raises(DegeneracyError, match="endpoint_contact") as exc:
        build_mixed_arrangement(curves)
    assert type(exc.value) is DegeneracyError


def test_every_violation_detail_but_one_is_covered():
    details = {(v[0], v[3]) for _, viols in EXPECTED.values() for v in viols}
    assert details == {
        ("self_intersection", "segments 0 and 2 meet"),
        ("overlap", "curves share a collinear piece"),
        ("overlap", "parallel germs at a shared vertex"),
        ("degenerate_contact", "multiple passages through one contact point"),
        ("degenerate_contact",
         "polyline vertex rests on another curve interior"),
        ("endpoint_contact", "arc endpoint rests on another curve"),
        ("endpoint_contact", "arc endpoint meets another curve at a vertex"),
        ("intersection_budget", "2 contacts exceed budget 1"),
        ("triple_point", "three or more curves through one point"),
    }
    kinds = {i[0] for pairs, _ in EXPECTED.values() for _, incs in pairs
             for i in incs}
    assert kinds == {"crossing", "tangency"}
