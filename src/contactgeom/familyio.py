"""Plain-text family files.

Layout::

    # optional comments and blank lines anywhere
    family m=<int>
    curve id=<int> closed=<0|1> nv=<int>
    <x> <y>            one line per vertex, exact rationals
    ...

Coordinates are written as reduced fractions, ``num/den`` with the
denominator omitted when it is 1, so writing and re-reading a family is
byte-identical. The reader takes exactly that grammar, ``-?[0-9]+`` with an
optional ``/[0-9]+``; decimals, exponents and ``+`` signs are parse errors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import List

from .errors import ParseError
from .geometry import Curve, CurveFamily, Point


def _fmt(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def dumps_family(family: CurveFamily) -> str:
    lines = [f"family m={family.m}"]
    for c in family.curves:
        lines.append(f"curve id={c.id} closed={1 if c.closed else 0} nv={c.n_vertices}")
        for p in c.points:
            lines.append(f"{_fmt(p.x)} {_fmt(p.y)}")
    return "\n".join(lines) + "\n"


_INTEGER = r"-?[0-9]+"
_RATIONAL = re.compile(rf"({_INTEGER})(?:/([0-9]+))?")


def parse_rational(tok: str) -> Fraction:
    """A rational token of the written grammar; anything else, such as an
    exponent that would ask for a huge integer, is refused unevaluated."""
    match = _RATIONAL.fullmatch(tok)
    if match is not None:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            pass   # a zero denominator, or more digits than int() reads
    raise ParseError(f"bad rational {tok!r}")


class _Malformed(Exception):
    """(line number, message) of a parse error whose byte offset
    loads_family has yet to count."""


def _parse_kv(tok: str, key: str, line_no: int) -> int:
    prefix = key + "="
    if not tok.startswith(prefix):
        raise _Malformed(line_no, f"expected {key}=<int>, got {tok!r}")
    value = tok[len(prefix):]
    if re.fullmatch(_INTEGER, value):
        try:
            return int(value)
        except ValueError:
            pass   # more digits than int() reads
    raise _Malformed(line_no, f"bad integer in {tok!r}")


def _token(tok: str, line_no: int) -> Fraction:
    try:
        return parse_rational(tok)
    except ParseError as exc:
        raise _Malformed(line_no, str(exc)) from None


def loads_family(text: str) -> CurveFamily:
    lines = text.split("\n")
    try:
        return _parse(lines)
    except _Malformed as bad:
        line_no, message = bad.args
        offset = sum(len(raw.encode("utf8")) + 1
                     for raw in lines[:line_no - 1])
        raise ParseError(message, line=line_no, offset=offset) from None


def _parse(lines: List[str]) -> CurveFamily:
    # (line number, content) of every meaningful line, read as it is needed
    rows = ((line_no, stripped) for line_no, raw in enumerate(lines, start=1)
            if (stripped := raw.partition("#")[0].strip()))
    first = next(rows, None)
    if first is None:
        raise _Malformed(1, "empty input")
    line_no, header = first
    parts = header.split()
    if len(parts) != 2 or parts[0] != "family":
        raise _Malformed(line_no, "expected 'family m=<int>' header")
    m = _parse_kv(parts[1], "m", line_no)

    curves = []
    memo = {}   # token -> Fraction: equal tokens share one object
    seen = {}   # vertex line -> Point: a shared vertex is read once
    for line_no, head in rows:
        parts = head.split()
        if len(parts) != 4 or parts[0] != "curve":
            raise _Malformed(line_no, "expected 'curve id=.. closed=.. nv=..'")
        cid = _parse_kv(parts[1], "id", line_no)
        closed = _parse_kv(parts[2], "closed", line_no)
        nv = _parse_kv(parts[3], "nv", line_no)
        if closed not in (0, 1):
            raise _Malformed(line_no, "closed must be 0 or 1")
        if nv < 2:
            raise _Malformed(line_no, "nv must be >= 2")
        pts = []
        for vline_no, vline in islice(rows, nv):
            p = seen.get(vline)
            if p is None:
                toks = vline.split()
                if len(toks) != 2:
                    raise _Malformed(vline_no, "expected '<x> <y>'")
                tx, ty = toks
                x = memo.get(tx)
                if x is None:
                    x = memo[tx] = _token(tx, vline_no)
                y = memo.get(ty)
                if y is None:
                    y = memo[ty] = _token(ty, vline_no)
                p = seen[vline] = Point(x, y)
            pts.append(p)
        if len(pts) < nv:
            raise _Malformed(line_no,
                             f"curve id={cid}: expected {nv} vertices")
        try:
            curves.append(Curve(id=cid, points=tuple(pts), closed=bool(closed)))
        except Exception as exc:
            raise _Malformed(line_no, f"curve id={cid}: {exc}")

    try:
        return CurveFamily(curves=tuple(curves), m=m)
    except Exception as exc:
        raise _Malformed(first[0], str(exc))


def write_family(path, family: CurveFamily) -> None:
    with open(path, "w", encoding="utf8") as fh:
        fh.write(dumps_family(family))


def read_family(path) -> CurveFamily:
    with open(path, "r", encoding="utf8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})") from None
    return loads_family(text)
