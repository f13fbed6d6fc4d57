"""Coloring verifiers: proper, odd, and strong odd, plus parity diagnostics.

All checkers are total: they assume nothing about how a coloring was
produced and recount every neighborhood from scratch.  This keeps them
usable as independent judges of both the solver and the closed-form
constructions.

Every verdict reads one scan, ``_faults``, which tallies each vertex's
neighborhood once and yields the vertices at fault: those that see their
own color, or see some color an even number of times.  A vertex not at
fault breaks no rule: no neighbor has its color, every color around it
appears an odd number of times, and so, unless it is isolated, some color
does.  So each verdict need only look at the faulty vertices: strong odd
means there are none, proper that none sees its own color, odd that each
sees some color oddly and not its own, and the parity report lists their
even counts.  ``proper_violations`` lists the monochromatic edges
themselves.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InvalidColoringError, ParseError
# the block reader through its module: the benchmark's tracer wraps what a
# layer imports by name, and a span on a generator times only its creation
from . import graphs
from .graphs import Graph


class Coloring:
    """A total assignment of positive integer colors to vertices 0..n-1."""

    __slots__ = ("colors",)

    def __init__(self, colors: Iterable[int]):
        tup = tuple(colors)
        # the common case in C: exact ints, the least at least 1; anything
        # else is walked for the first color at fault, and an int subclass
        # other than bool passes there
        if not (set(map(type, tup)) <= {int} and min(tup, default=1) >= 1):
            for c in tup:
                if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                    raise InvalidColoringError(f"colors must be positive integers, got {c!r}")
        self.colors = tup

    @property
    def palette(self) -> frozenset[int]:
        return frozenset(self.colors)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        return f"Coloring({list(self.colors)!r})"


ColoringLike = Union[Coloring, Sequence[int]]


def as_coloring(c: ColoringLike) -> Coloring:
    return c if isinstance(c, Coloring) else Coloring(c)


def _total_on(g: "Graph", c: Coloring) -> Coloring:
    if len(c) != g.n:
        raise InvalidColoringError(f"coloring covers {len(c)} vertices, graph has {g.n}")
    return c


class ParityEntry(NamedTuple):
    """An even positive count of one color in one vertex's neighborhood."""

    vertex: int
    color: int
    count: int


def proper_violations(g: "Graph", c: ColoringLike) -> list[tuple[int, int]]:
    """All monochromatic edges, as (u, v) with u < v."""
    col = _total_on(g, as_coloring(c))
    return [(u, v) for u, v in g.edges() if col.colors[u] == col.colors[v]]


def _faults(g: "Graph", c: ColoringLike) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The vertices at fault, by vertex: (u, u's color, color -> count over
    N(u)) for each u that sees its own color or some color evenly."""
    colors = _total_on(g, as_coloring(c)).colors
    for u, nbrs in enumerate(g.adj):
        counts: dict[int, int] = {}
        for v in nbrs:
            cv = colors[v]
            counts[cv] = counts.get(cv, 0) + 1
        cu = colors[u]
        if cu in counts:
            yield u, cu, counts
            continue
        for k in counts.values():
            if not k & 1:
                yield u, cu, counts
                break


def is_proper(g: "Graph", c: ColoringLike) -> bool:
    return all(cu not in counts for _, cu, counts in _faults(g, c))


def is_odd_coloring(g: "Graph", c: ColoringLike) -> bool:
    """Proper, and every non-isolated vertex sees some color an odd number of times."""
    return all(cu not in counts and any(k & 1 for k in counts.values())
               for _, cu, counts in _faults(g, c))


def is_strong_odd(g: "Graph", c: ColoringLike) -> bool:
    """Proper, and every color present in any neighborhood appears there oddly."""
    for _ in _faults(g, c):
        return False
    return True


def parity_report(g: "Graph", c: ColoringLike) -> list[ParityEntry]:
    """Every even positive neighborhood color count, by vertex then color.

    Zero counts are never listed: an absent color is not a violation.
    Properness is a separate concern; see ``proper_violations``.
    """
    return [ParityEntry(u, color, k) for u, _, counts in _faults(g, c)
            for color, k in sorted(counts.items()) if not k & 1]


# ---------------------------------------------------------------------------
# Coloring file format: lines "<vertex> <color>", 1-based vertices, positive
# colors, "#" comments; every vertex appears exactly once.
# ---------------------------------------------------------------------------

def format_coloring(c: ColoringLike) -> str:
    col = as_coloring(c)
    return "".join(f"{v + 1} {col.colors[v]}\n" for v in range(len(col)))


def parse_coloring(text: str, n: int) -> Coloring:
    """The coloring of the n vertices in ``text``, raising ParseError on
    anything else.

    A text laid out exactly as ``format_coloring`` writes it is read in
    bulk (``_read_layout``); any other text, and any writer-shaped text
    that fails a check there, is read line by line (``_walk``), which is
    the one place an error is named, by its line as before.
    """
    colors = _read_layout(text, n)
    return _walk(text, n) if colors is None else Coloring(colors)


# the writer's line, single-spaced and ending in LF
_COLOR_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")


def _read_layout(text: str, n: int) -> list[int] | None:
    """The colors of a text in the writer's layout, or None: the lines
    name the vertices "1" to "n" in order, each with a positive color."""
    names: list[str] = []
    colors: list[int] = []
    try:
        for tokens in graphs._blocks(text, 0, len(text), _COLOR_LINES):
            names += tokens[0::2]
            colors += map(int, tokens[1::2])
    except ValueError:  # a line off the layout, or a color too long to convert
        return None
    # the count first, so the names compared are no more than the text holds
    if len(names) != n or names != list(map(str, range(1, n + 1))) or min(colors, default=1) < 1:
        return None
    return colors


def _walk(text: str, n: int) -> Coloring:
    """Read ``text`` line by line, checking each line where it is read."""
    # colors[v] is 0 until vertex v + 1 is colored; every color read is >= 1
    colors = [0] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected '<vertex> <color>', got {raw!r}", lineno)
        try:
            v, color = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"expected integers, got {raw!r}", lineno) from None
        if not (1 <= v <= n):
            raise ParseError(f"vertex {v} out of range 1..{n}", lineno)
        if color < 1:
            raise ParseError(f"color {color} must be positive", lineno)
        if colors[v - 1]:
            raise ParseError(f"vertex {v} colored twice", lineno)
        colors[v - 1] = color
    if 0 in colors:
        # named by the first and counted, since the list can be millions long
        raise ParseError(f"vertex {colors.index(0) + 1} has no color ({colors.count(0)} of {n} uncolored)")
    return Coloring(colors)
