"""The parsers' error surface: each faulty input and the exception type,
message and line number it ends in.

Every case names exactly what the parser reports, so a change to where or
in which order the parsers check their input shows here first.  A message
is the exception's text without its "line N: " prefix; the line is None
where the fault belongs to no one line.
"""

import pytest

from strongodd import ParseError, from_dimacs, parse_coloring

DIMACS_CASES = {
    # malformed lines
    "malformed edge": ("p edge 3 1\ne 1 x\n", "malformed edge line 'e 1 x'", 2),
    "edge with three endpoints": ("p edge 3 1\ne 1 2 3\n", "malformed edge line 'e 1 2 3'", 2),
    "edge with one endpoint": ("p edge 3 1\n  e 1  \n", "malformed edge line 'e 1'", 2),
    "malformed header": ("p edge three 3\n", "malformed header 'p edge three 3'", 1),
    "header of another kind": ("c x\np col 3 3\n", "malformed header 'p col 3 3'", 2),
    "short header": ("p edge 3\n", "malformed header 'p edge 3'", 1),
    "negative header count": ("p edge 3 -1\n", "header counts must be nonnegative", 1),
    "second header": ("p edge 2 0\nc x\np edge 2 0\n", "duplicate problem header", 3),
    "edge before header": ("c x\ne 1 2\np edge 2 1\n", "edge before problem header", 2),
    "label before header": ("l 1 x\np edge 1 0\n", "label before problem header", 1),
    "malformed label": ("p edge 2 0\nl 1\n", "malformed label line 'l 1'", 2),
    "label with two roles": ("p edge 2 0\nl 1 a b\n", "malformed label line 'l 1 a b'", 2),
    "label on a name": ("p edge 2 0\nl one hub\n", "malformed label line 'l one hub'", 2),
    "unknown line type": ("p edge 2 0\nx 1 2\n", "unknown line type 'x'", 2),
    "missing header": ("c only a comment\n", "missing problem header", None),
    "empty file": ("", "missing problem header", None),
    # out of range
    "endpoint above n": ("p edge 4 1\ne 1 5\n", "edge endpoints (1, 5) must satisfy 1 <= u < v <= 4", 2),
    "endpoint zero": ("p edge 4 1\ne 0 1\n", "edge endpoints (0, 1) must satisfy 1 <= u < v <= 4", 2),
    "unordered endpoints": ("p edge 4 1\ne 3 2\n", "edge endpoints (3, 2) must satisfy 1 <= u < v <= 4", 2),
    "self-loop": ("p edge 4 1\ne 2 2\n", "edge endpoints (2, 2) must satisfy 1 <= u < v <= 4", 2),
    "edge in an empty graph": ("p edge 0 1\ne 1 2\n", "edge endpoints (1, 2) must satisfy 1 <= u < v <= 0", 2),
    "label above n": ("p edge 2 0\nl 3 x\n", "label vertex 3 out of range", 2),
    "label zero": ("p edge 2 0\nl 0 x\n", "label vertex 0 out of range", 2),
    # duplicates
    "duplicate edge": ("p edge 3 3\ne 1 2\ne 1 2\ne 2 3\n", "duplicate edge (1, 2)", 3),
    "duplicate edge past other lines": (
        "p edge 3 3\ne 1 2\nc between\nl 1 hub\n  \ne 2 3\nc again\ne 1 2\n", "duplicate edge (1, 2)", 8),
    "duplicate edge written differently": ("p edge 3 2\ne 1 2\ne 01  2\n", "duplicate edge (1, 2)", 3),
    "duplicate edge beside a count mismatch": (
        "c first\np edge 4 2\ne 3 4\nl 3 x\ne 3  4\ne 1 2\n", "duplicate edge (3, 4)", 5),
    "malformed line after a duplicate edge": (
        "p edge 3 2\ne 1 2\ne 1 2\ne 1 x\n", "malformed edge line 'e 1 x'", 4),
    "duplicate label": ("p edge 2 0\nl 1 a\nl 1 b\n", "duplicate label for vertex 1", 3),
    # header count mismatch, reported at the header
    "fewer edges than announced": ("p edge 3 2\ne 1 2\n", "header announced 2 edges but 1 were given", 1),
    "more edges than announced": (
        "c x\np edge 3 0\ne 1 2\nl 1 hub\n", "header announced 0 edges but 1 were given", 2),
}

COLORING_CASES = {
    "one token": ("1\n", 1, "expected '<vertex> <color>', got '1'", 1),
    "three tokens": ("1 1 # ok\n2 2 2\n", 2, "expected '<vertex> <color>', got '2 2 2'", 2),
    "not integers": ("1 a\n", 1, "expected integers, got '1 a'", 1),
    "vertex above n": ("3 1\n", 2, "vertex 3 out of range 1..2", 1),
    "vertex zero": ("# c\n0 1\n", 1, "vertex 0 out of range 1..1", 2),
    "color zero": ("1 0\n", 1, "color 0 must be positive", 1),
    "negative color": ("1 -3\n", 1, "color -3 must be positive", 1),
    "colored twice": ("1 1\n\n1 2\n", 1, "vertex 1 colored twice", 3),
    "colored twice before a missing vertex": ("2 1\n2 1\n", 3, "vertex 2 colored twice", 2),
    "malformed line after a missing vertex": ("1 1\n3 x\n", 3, "expected integers, got '3 x'", 2),
    "missing vertex": ("1 1\n", 2, "vertex 2 has no color (1 of 2 uncolored)", None),
    "missing vertices": ("# only\n\n2 5 # inline\n", 4, "vertex 1 has no color (3 of 4 uncolored)", None),
    "empty file": ("", 2, "vertex 1 has no color (2 of 2 uncolored)", None),
    # counted, not listed: one short message for three million vertices
    "missing millions": ("1 1", 3_000_000, "vertex 2 has no color (2999999 of 3000000 uncolored)", None),
}


def _report(exc: ParseError) -> tuple[str, str, int | None]:
    prefix = f"line {exc.line}: " if exc.line is not None else ""
    text = str(exc)
    assert text.startswith(prefix)
    return type(exc).__name__, text[len(prefix):], exc.line


@pytest.mark.parametrize("text,message,line", DIMACS_CASES.values(), ids=DIMACS_CASES.keys())
def test_from_dimacs_error(text, message, line):
    with pytest.raises(ParseError) as e:
        from_dimacs(text)
    assert _report(e.value) == ("ParseError", message, line)


@pytest.mark.parametrize("text,n,message,line", COLORING_CASES.values(), ids=COLORING_CASES.keys())
def test_parse_coloring_error(text, n, message, line):
    with pytest.raises(ParseError) as e:
        parse_coloring(text, n)
    assert _report(e.value) == ("ParseError", message, line)
