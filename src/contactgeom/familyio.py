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
from typing import List, Optional, Tuple

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


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


def parse_rational(tok: str, line_no: Optional[int] = None,
                   offset: Optional[int] = None) -> Fraction:
    """A rational token of the written grammar; anything else, such as an
    exponent that would ask for a huge integer, is refused unevaluated."""
    match = _RATIONAL.fullmatch(tok)
    if match is not None:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            pass   # a zero denominator, or more digits than int() reads
    raise ParseError(f"bad rational {tok!r}", line=line_no, offset=offset)


def _parse_kv(tok: str, key: str, line_no: int, offset: int) -> int:
    prefix = key + "="
    if not tok.startswith(prefix):
        raise ParseError(f"expected {key}=<int>, got {tok!r}", line=line_no, offset=offset)
    try:
        return int(tok[len(prefix):])
    except ValueError:
        raise ParseError(f"bad integer in {tok!r}", line=line_no, offset=offset)


def loads_family(text: str) -> CurveFamily:
    # (line number, byte offset, content) for every meaningful line
    rows: List[Tuple[int, int, str]] = []
    offset = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((line_no, offset, stripped))
        offset += len(raw.encode("utf8")) + 1

    if not rows:
        raise ParseError("empty input", line=1, offset=0)

    pos = 0
    line_no, off, header = rows[pos]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "family":
        raise ParseError("expected 'family m=<int>' header", line=line_no, offset=off)
    m = _parse_kv(parts[1], "m", line_no, off)
    pos += 1

    curves = []
    memo = {}   # token -> Fraction: equal tokens share one object
    while pos < len(rows):
        line_no, off, head = rows[pos]
        parts = head.split()
        if len(parts) != 4 or parts[0] != "curve":
            raise ParseError("expected 'curve id=.. closed=.. nv=..'",
                             line=line_no, offset=off)
        cid = _parse_kv(parts[1], "id", line_no, off)
        closed = _parse_kv(parts[2], "closed", line_no, off)
        nv = _parse_kv(parts[3], "nv", line_no, off)
        if closed not in (0, 1):
            raise ParseError("closed must be 0 or 1", line=line_no, offset=off)
        if nv < 2:
            raise ParseError("nv must be >= 2", line=line_no, offset=off)
        pos += 1
        pts = []
        for _ in range(nv):
            if pos >= len(rows):
                raise ParseError(f"curve id={cid}: expected {nv} vertices",
                                 line=line_no, offset=off)
            vline_no, voff, vline = rows[pos]
            toks = vline.split()
            if len(toks) != 2:
                raise ParseError("expected '<x> <y>'", line=vline_no, offset=voff)
            for tok in toks:
                if tok not in memo:
                    memo[tok] = parse_rational(tok, vline_no, voff)
            pts.append(Point(memo[toks[0]], memo[toks[1]]))
            pos += 1
        try:
            curves.append(Curve(id=cid, points=tuple(pts), closed=bool(closed)))
        except Exception as exc:
            raise ParseError(f"curve id={cid}: {exc}", line=line_no, offset=off)

    try:
        return CurveFamily(curves=tuple(curves), m=m)
    except Exception as exc:
        raise ParseError(str(exc), line=rows[0][0], offset=rows[0][1])


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
