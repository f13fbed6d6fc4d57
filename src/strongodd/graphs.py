"""Simple undirected graphs, family constructors, and DIMACS-style file io.

Vertices are 0-based integers in memory and 1-based on the wire.  All graph
objects are immutable after construction and safe to share between threads.

Each check runs once, where its data enters.  ``Graph(n, edges, labels)``
checks every edge and label it is given; ``from_dimacs`` checks the text
it reads, in bulk when the text is laid out exactly as ``to_dimacs``
writes it and line by line otherwise; ``build`` takes its sizes from a
spec that has checked them; ``one_point_union`` takes the rows of graphs
that have passed these checks.  The first two collect their checked edges
and fill per-vertex neighbor rows from them with ``_rows``, the other two
fill their rows directly, and all four end in the same construction tail,
whose duplicate-edge check every graph passes.  The rows ``build`` fills for
Cycle, Wheel, Bipyramid and BipyramidUnion come in the cyclic order of a
planar embedding, the rotation system that ``embedding.embed_family``
returns.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass, fields
from itertools import repeat
from operator import lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvalidParameterError, ParseError


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Adjacency is stored as a tuple of sorted neighbor tuples.  An optional
    label map attaches a role string to a vertex ("hub", "x", "cycle:3", ...);
    labels are carried by the DIMACS ``l`` lines, in a graph file and in a
    certificate's ``graph_dimacs`` text alike, and take part in ``==``.

    Vertex ids, in edges and labels alike, are ints, and a role is one
    token without whitespace, so every graph that constructs reads back
    from its ``to_dimacs`` text as an equal graph.  The constructor checks
    each edge (a pair of int endpoints in range, no self-loop) and each
    label (an int vertex in range, a one-token role), and fills its rows
    from the checked edges with ``_rows``, as ``from_dimacs`` does.
    ``from_dimacs`` and ``build`` bound their edges and labels themselves,
    ``one_point_union`` takes them from checked graphs, and each hands
    per-vertex neighbor rows to ``_from_rows``.  All four end in
    ``_freeze``, which runs the one duplicate-edge check every graph passes.
    """

    __slots__ = ("n", "adj", "edge_count", "_labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Mapping[int, str] | None = None,
    ):
        if type(n) is not int or n < 0:
            raise InvalidParameterError(f"vertex count must be an int >= 0, got {n!r}")
        us: list[int] = []
        vs: list[int] = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edge {e!r} must be a pair of vertices") from None
            # a bool is an int but would be stored as a bool in the rows
            if not (u.__class__ is int is v.__class__):
                raise InvalidParameterError(f"edge ({u!r}, {v!r}) must join two int vertices")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            us.append(u)
            vs.append(v)
        lab = dict(labels) if labels else {}
        # a duplicate edge is named before a bad label
        self._freeze(_rows(n, us, vs), lab)
        for v, role in lab.items():
            if type(v) is not int or not 0 <= v < n:
                raise InvalidParameterError(f"label on nonexistent vertex {v!r}")
            if not isinstance(role, str) or role.split() != [role]:
                raise InvalidParameterError(
                    f"label for vertex {v} must be one token without whitespace, got {role!r}")

    @classmethod
    def _from_rows(cls, rows: list, labels: dict[int, str]) -> "Graph":
        """The graph whose vertex v has the neighbors ``rows[v]``, which the
        caller has bounded: ints in ``0..len(rows)-1``, each edge in both
        rows, no self-loop.  The labels are stored as given, unchecked."""
        g = cls.__new__(cls)
        g._freeze(rows, labels)
        return g

    def _freeze(self, rows: list, labels: dict[int, str]) -> None:
        """The construction tail: sort and freeze the rows, check them for
        duplicate edges, and set the edge count and the labels.  The rows
        are sorted in place; a vertex with no neighbor may share the empty
        tuple."""
        for row in rows:
            if row:
                row.sort()
        adj = tuple(map(tuple, rows))
        # the one duplicate-edge check: a repeated edge repeats a neighbor,
        # which a set of the row drops
        ends = sum(map(len, adj))
        if sum(map(len, map(set, adj))) != ends:
            u, row = next((u, row) for u, row in enumerate(adj) if len(set(row)) != len(row))
            v = next(a for a, b in zip(row, row[1:]) if a == b)
            raise InvalidParameterError(f"duplicate edge ({u}, {v})")
        self.n = len(adj)
        self.adj: tuple[tuple[int, ...], ...] = adj
        self.edge_count = ends // 2
        self._labels = labels

    @property
    def labels(self) -> Mapping[int, str]:
        return MappingProxyType(self._labels)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj and self._labels == other._labels

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def _cone(n: int, hubs: Sequence[int] = (), off: int = 0, step: int = 1) -> list[list[int]]:
    """Neighbor rows of the n-cycle on the vertices ``off..off+n-1`` joined
    with the hubs, then one row per hub, in rotation order.  A cycle vertex
    lists the vertex ``step`` ahead, the first hub, the vertex ``step``
    behind and the other hubs; the first hub's row runs along the cycle, the
    others' against it."""
    cycle = range(off, off + n)
    ahead, behind = [*cycle[step:], *cycle[:step]], [*cycle[-step:], *cycle[:-step]]
    spokes = list(map(repeat, hubs))
    return [*map(list, zip(ahead, *spokes[:1], behind, *spokes[1:])),
            *(list(cycle[::step]) for _ in hubs[:1]), *(list(cycle[::-step]) for _ in hubs[1:])]


def one_point_union(parts: Sequence[tuple[Graph, int]]) -> Graph:
    """Glue the designated vertex of every part into a single vertex.

    The first part keeps its vertex indices and the glued vertex takes the
    index of the first part's designated vertex; later parts occupy the
    following contiguous index blocks.  The glued vertex is labeled "x".
    Each part is an induced subgraph of the result, and distinct parts meet
    only at the glued vertex.  The parts' rows are glued as they are: each
    later part's rows are renumbered and appended, and the glued vertex's
    rows are joined in part order.
    """
    if not parts:
        raise InvalidParameterError("one_point_union needs at least one part")
    for g, v in parts:
        if type(v) is not int or not 0 <= v < g.n:
            raise InvalidParameterError(f"designated vertex {v!r} out of range for a {g.n}-vertex part")
    g0, v0 = parts[0]
    rows = list(map(list, g0.adj))
    labels = {v: r for v, r in g0.labels.items() if v != v0}
    for g, v in parts[1:]:
        # the part's vertex w becomes ids[w]: v the glued vertex, the others
        # the next free indices in order
        total = len(rows)
        ids = [*range(total, total + v), v0, *range(total + v, total + g.n - 1)]
        glued = [[ids[w] for w in row] for row in g.adj]
        rows[v0] += glued.pop(v)
        rows += glued
        labels.update({ids[w]: r for w, r in g.labels.items() if w != v})
    labels[v0] = "x"
    return Graph._from_rows(rows, labels)


# ---------------------------------------------------------------------------
# Family specs
# ---------------------------------------------------------------------------

class _Spec:
    """Base of the family specs: field i must be an int (not a bool) of at least ``_least[i]``."""

    _least: tuple[int, ...]

    def __post_init__(self):
        for f, least in zip(fields(self), self._least, strict=True):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise InvalidParameterError(f"{type(self).__name__} needs an int {f.name}, got {value!r}")
            if value < least:
                raise InvalidParameterError(f"{type(self).__name__} needs {f.name} >= {least}, got {value}")


@dataclass(frozen=True)
class Cycle(_Spec):
    n: int
    _least = (3,)


@dataclass(frozen=True)
class Empty(_Spec):
    m: int
    _least = (1,)


@dataclass(frozen=True)
class Complete(_Spec):
    k: int
    _least = (1,)


@dataclass(frozen=True)
class Wheel(_Spec):
    """Cycle on n vertices joined with one universal hub vertex."""

    n: int
    _least = (3,)


@dataclass(frozen=True)
class JoinCycleEmpty(_Spec):
    """Cycle on n vertices joined with m pairwise nonadjacent hub vertices."""

    n: int
    m: int
    _least = (3, 1)


@dataclass(frozen=True)
class Bipyramid(_Spec):
    """Cycle on n vertices joined with two nonadjacent apexes labeled x and y."""

    n: int
    _least = (3,)


@dataclass(frozen=True)
class BipyramidUnion(_Spec):
    """Two bipyramids (sizes m and n) glued at their y apex; planar for all m, n."""

    m: int
    n: int
    _least = (3, 3)


FamilySpec = Union[Cycle, Empty, Complete, Wheel, JoinCycleEmpty, Bipyramid, BipyramidUnion]
# the specs whose rows ``_layout`` lists in rotation order
_EMBEDDED = (Cycle, Wheel, Bipyramid, BipyramidUnion)


def _layout(spec: FamilySpec) -> tuple[list[list[int]], list[tuple[int, int]], dict[int, str]]:
    """The neighbor rows of a family spec, its cycles as (length, first
    vertex) pairs, and the roles of its other vertices.

    The rows of the ``_EMBEDDED`` specs (Cycle, Wheel, Bipyramid and
    BipyramidUnion) list each vertex's neighbors in the cyclic order of a
    planar embedding: a cycle on a circle, its first hub inside and its
    second outside.  Cycle and the second cycle of BipyramidUnion run
    backwards, so the glued apex y lists the first cycle in reverse and
    then the second forward.
    """
    if isinstance(spec, Cycle):
        return _cone(spec.n, step=-1), [(spec.n, 0)], {}
    if isinstance(spec, Empty):
        return [[] for _ in range(spec.m)], [], {}
    if isinstance(spec, Complete):
        k = spec.k
        return [[*range(u), *range(u + 1, k)] for u in range(k)], [], {}
    if isinstance(spec, Wheel):
        n = spec.n
        return _cone(n, [n]), [(n, 0)], {n: "hub"}
    if isinstance(spec, JoinCycleEmpty):
        n, m = spec.n, spec.m
        return _cone(n, range(n, n + m)), [(n, 0)], {n + j: f"hub:{j}" for j in range(m)}
    if isinstance(spec, Bipyramid):
        n = spec.n
        return _cone(n, [n, n + 1]), [(n, 0)], {n: "x", n + 1: "y"}
    if isinstance(spec, BipyramidUnion):
        m, n = spec.m, spec.n
        x1, y, x2 = m, m + 1, m + n + 2
        rows, second = _cone(m, [x1, y]), _cone(n, [x2, y], m + 2, -1)
        # y's row in the second bipyramid runs along the second cycle and
        # follows its row in the first
        rows[y] += second.pop()
        return rows + second, [(m, 0), (n, m + 2)], {x1: "x", y: "y", x2: "x"}
    raise InvalidParameterError(f"unknown family spec {spec!r}")


def build(spec: FamilySpec) -> Graph:
    """Construct the graph described by a family spec.

    Every spec is built as one ``Graph`` from the neighbor rows of
    ``_layout`` and its label map, with no intermediate graphs or edge
    lists; the spec has already bounded its sizes, so only the
    duplicate-edge check runs.  For Cycle, Wheel, Bipyramid and
    BipyramidUnion the rows come in the rotation order that
    ``embed_family`` returns.  The tests pin the result by digests of its
    DIMACS text and against ``Graph(n, edges, labels)``, which checks
    every edge and label.

    Index layout is deterministic: cycle vertices come first in cycle order,
    then hub/apex vertices.  For BipyramidUnion(m, n) the first bipyramid
    occupies 0..m+1 (x at m, glued y at m+1), the second cycle occupies
    m+2..m+n+1, and its x apex is the last vertex.
    """
    rows, cycles, roles = _layout(spec)
    labels = {off + i: f"cycle:{i}" for n, off in cycles for i in range(n)}
    labels.update(roles)
    return Graph._from_rows(rows, labels)


# ---------------------------------------------------------------------------
# DIMACS-style serialization
# ---------------------------------------------------------------------------
#
# Format: one "p edge <V> <E>" header, then E lines "e <u> <v>" with
# 1 <= u < v <= V, optional comment lines starting with "c", and optional
# label lines "l <vertex> <role>".  UTF-8, LF line endings.

def to_dimacs(g: Graph, include_labels: bool = True) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    # each edge once, from the row of its lower end (a sorted row's
    # neighbors above u are its tail), with every vertex's 1-based name
    # formatted once
    names = list(map(str, range(1, g.n + 1)))
    for u, row in enumerate(g.adj):
        head = f"e {names[u]} "
        lines += [head + names[v] for v in row[bisect(row, u):]]
    if include_labels:
        labels = g._labels
        lines += [f"l {names[v]} {labels[v]}" for v in sorted(labels)]
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    """Parse the format above, raising ParseError on anything else.

    A text laid out exactly as ``to_dimacs`` writes it is read in bulk
    (``_read_layout``); any other text, and any writer-shaped text that
    fails a check there, is read line by line (``_walk``), which is the one
    place an error is named, by its line as before.  Both end in
    ``Graph._from_rows``, whose duplicate-edge check is the one check run
    on the whole graph, and both return the same graph for every text the
    bulk reader takes.
    """
    g = _read_layout(text)
    return _walk(text) if g is None else g


# the writer's lines, one kind each: ``\S`` is what str.split keeps, and
# every line break is whitespace to it, so a matched line has three tokens.
# A count of at most 18 digits converts without error
_HEADER = re.compile(r"p edge ([0-9]{1,18}) ([0-9]{1,18})\n")
_EDGE_LINES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
_LABEL_LINES = re.compile(r"(?:l [0-9]+ \S+\n)*")
# the characters of whole lines matched at a time, since one match over a
# whole text keeps about 180 bytes of matcher state per line
_BLOCK = 1 << 14


def _blocks(text: str, pos: int, end: int, lines: re.Pattern) -> Iterator[list[str]]:
    """The tokens of ``text[pos:end]``, about 16 KB of whole lines at a
    time; raises ValueError at the first block that is not all ``lines``."""
    while pos < end:
        stop = text.find("\n", pos + _BLOCK, end) + 1 or end
        if not lines.fullmatch(text, pos, stop):
            raise ValueError("not the writer's layout")
        yield text[pos:stop].split()
        pos = stop


def _read_layout(text: str) -> Graph | None:
    """The graph of a text in the writer's layout, or None.

    The layout is the header, the edge lines, then the label lines, each
    single-spaced and ending in LF, as ``to_dimacs`` writes them.  A vertex
    name is looked up in an index of the names "1" to "V", which bounds it
    and maps it to its vertex at once.  Only a header with V at most the
    length of the text is taken, so the index is never larger than the
    text can back.  Every check the walk makes on such a text is made here
    in bulk, and None stands for any that fails.
    """
    head = _HEADER.match(text)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    if n > len(text):
        return None
    # the first label line; a label line among the edges fails the blocks
    labels_at = text.find("\nl ") + 1 or len(text)
    name = dict(zip(map(str, range(1, n + 1)), range(n))).__getitem__
    us: list[int] = []
    vs: list[int] = []
    ids: list[int] = []
    roles: list[str] = []
    try:
        for tokens in _blocks(text, head.end(), labels_at, _EDGE_LINES):
            us += map(name, tokens[1::3])
            vs += map(name, tokens[2::3])
        for tokens in _blocks(text, labels_at, len(text), _LABEL_LINES):
            ids += map(name, tokens[1::3])
            roles += tokens[2::3]
    except (KeyError, ValueError):  # a name the writer does not write, or a line off the layout
        return None
    labels = dict(zip(ids, roles))
    if len(us) != m or not all(map(lt, us, vs)) or len(labels) != len(ids):
        return None
    try:
        return Graph._from_rows(_rows(n, us, vs), labels)
    except InvalidParameterError:  # a duplicate edge, which the walk names by its line
        return None


def _rows(n: int, us: list[int], vs: list[int]) -> list[list[int] | tuple[()]]:
    """The neighbor rows of the edges ``(us[i], vs[i])``.  The n rows are
    allocated in one request, and a vertex on no edge shares the empty
    tuple, so a vertex count too large to allocate ends in MemoryError at
    once.  A vertex gets its own row at its first edge."""
    rows: list[list[int] | tuple[()]] = [()] * n
    for u, v in zip(us, vs):
        a = rows[u]
        if not a:
            rows[u] = a = []
        a.append(v)
        b = rows[v]
        if not b:
            rows[v] = b = []
        b.append(u)
    return rows


def _walk(text: str) -> Graph:
    """Read ``text`` line by line, checking each line where it is read.

    An edge line is bounded by ``1 <= u < v <= V`` and kept; a label line's
    vertex is bounded and unique, and its role is one token by
    construction.  The rows are filled once every line is read, for the
    vertices the edges meet, so a header too large to allocate fails in one
    request there rather than by growing a row at a time.  Only once
    ``Graph._from_rows`` has found a duplicate are the lines read again for
    the line of the second occurrence, so a malformed line anywhere in the
    file is reported before a duplicate.
    """
    n = -1
    expected_edges = -1
    header_line = 0
    us: list[int] = []
    vs: list[int] = []
    labels: dict[int, str] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "e":
            if n < 0:
                raise ParseError("edge before problem header", lineno)
            try:
                _, u, v = tokens
                u, v = int(u), int(v)
            except ValueError:
                raise ParseError(f"malformed edge line {raw.strip()!r}", lineno) from None
            if not (1 <= u < v <= n):
                raise ParseError(f"edge endpoints ({u}, {v}) must satisfy 1 <= u < v <= {n}", lineno)
            us.append(u - 1)
            vs.append(v - 1)
        elif kind == "p":
            if n >= 0:
                raise ParseError("duplicate problem header", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"malformed header {raw.strip()!r}", lineno)
            try:
                n, expected_edges = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"malformed header {raw.strip()!r}", lineno) from None
            if n < 0 or expected_edges < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            header_line = lineno
        elif kind == "l":
            if n < 0:
                raise ParseError("label before problem header", lineno)
            if len(tokens) != 3:
                raise ParseError(f"malformed label line {raw.strip()!r}", lineno)
            try:
                v = int(tokens[1])
            except ValueError:
                raise ParseError(f"malformed label line {raw.strip()!r}", lineno) from None
            if not (1 <= v <= n):
                raise ParseError(f"label vertex {v} out of range", lineno)
            if v - 1 in labels:
                raise ParseError(f"duplicate label for vertex {v}", lineno)
            labels[v - 1] = tokens[2]
        elif not kind.startswith("c"):
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n < 0:
        raise ParseError("missing problem header")
    try:
        g = Graph._from_rows(_rows(n, us, vs), labels)
    except InvalidParameterError:
        # every line is well formed, so the one thing left to reject is a
        # duplicate edge
        seen: set[tuple[int, int]] = set()
        for lineno, raw in enumerate(lines, start=1):
            tokens = raw.split()
            if tokens and tokens[0] == "e":
                edge = int(tokens[1]), int(tokens[2])
                if edge in seen:
                    raise ParseError(f"duplicate edge {edge}", lineno) from None
                seen.add(edge)
        raise
    # with no duplicate, the graph has one edge per edge line
    if g.edge_count != expected_edges:
        raise ParseError(
            f"header announced {expected_edges} edges but {g.edge_count} were given", header_line
        )
    return g
