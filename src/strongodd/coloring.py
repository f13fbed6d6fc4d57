"""Coloring verifiers: proper, odd, and strong odd, plus parity diagnostics.

All checkers are total: they assume nothing about how a coloring was
produced and recount every neighborhood from scratch.  This keeps them
usable as independent judges of both the solver and the closed-form
constructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .errors import InvalidColoringError, ParseError

if TYPE_CHECKING:
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


def is_proper(g: "Graph", c: ColoringLike) -> bool:
    col = _total_on(g, as_coloring(c))
    colors = col.colors
    for u in range(g.n):
        cu = colors[u]
        for v in g.adj[u]:
            if colors[v] == cu:
                return False
    return True


def is_odd_coloring(g: "Graph", c: ColoringLike) -> bool:
    """Proper, and every non-isolated vertex sees some color an odd number of times."""
    col = _total_on(g, as_coloring(c))
    colors = col.colors
    for u in range(g.n):
        nbrs = g.adj[u]
        if not nbrs:
            continue
        cu = colors[u]
        counts: dict[int, int] = {}
        for v in nbrs:
            cv = colors[v]
            if cv == cu:
                return False
            counts[cv] = counts.get(cv, 0) + 1
        if not any(k % 2 == 1 for k in counts.values()):
            return False
    return True


def is_strong_odd(g: "Graph", c: ColoringLike) -> bool:
    """Proper, and every color present in any neighborhood appears there oddly."""
    col = _total_on(g, as_coloring(c))
    colors = col.colors
    for u in range(g.n):
        cu = colors[u]
        counts: dict[int, int] = {}
        for v in g.adj[u]:
            cv = colors[v]
            if cv == cu:
                return False
            counts[cv] = counts.get(cv, 0) + 1
        for k in counts.values():
            if k % 2 == 0:
                return False
    return True


def parity_report(g: "Graph", c: ColoringLike) -> list[ParityEntry]:
    """Every even positive neighborhood color count, by vertex then color.

    Zero counts are never listed: an absent color is not a violation.
    Properness is a separate concern; see ``proper_violations``.
    """
    col = _total_on(g, as_coloring(c))
    colors = col.colors
    violations: list[ParityEntry] = []
    for u in range(g.n):
        counts: dict[int, int] = {}
        for v in g.adj[u]:
            cv = colors[v]
            counts[cv] = counts.get(cv, 0) + 1
        for color in sorted(counts):
            if counts[color] % 2 == 0:
                violations.append(ParityEntry(u, color, counts[color]))
    return violations


# ---------------------------------------------------------------------------
# Coloring file format: lines "<vertex> <color>", 1-based vertices, positive
# colors, "#" comments; every vertex appears exactly once.
# ---------------------------------------------------------------------------

def format_coloring(c: ColoringLike) -> str:
    col = as_coloring(c)
    return "".join(f"{v + 1} {col.colors[v]}\n" for v in range(len(col)))


def parse_coloring(text: str, n: int) -> Coloring:
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
        missing = [v + 1 for v, c in enumerate(colors) if not c]
        raise ParseError(f"vertices {missing} have no color")
    return Coloring(colors)
