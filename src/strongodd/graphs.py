"""Simple undirected graphs, family constructors, and DIMACS-style file io.

Vertices are 0-based integers in memory and 1-based on the wire.  All graph
objects are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import InvalidParameterError, ParseError


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Adjacency is stored as a tuple of sorted neighbor tuples.  An optional
    label map attaches a role string to a vertex ("hub", "x", "cycle:3", ...);
    labels are carried by the DIMACS ``l`` lines and the certificate
    ``labels`` field, and take part in ``==``.

    Vertex ids, in edges and labels alike, are ints, and a role is one
    token without whitespace, so every graph that constructs reads back
    from its ``to_dimacs`` text as an equal graph.  The constructor rejects
    anything else, out-of-range endpoints, self-loops and duplicate edges;
    ``from_dimacs`` leaves duplicates to it.
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
        neigh: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edge {e!r} must be a pair of vertices") from None
            # a bool is an int but would be stored as a bool in the rows; an
            # endpoint at or above n fails the indexing
            if not (u.__class__ is int is v.__class__ and u >= 0 <= v):
                if u.__class__ is int is v.__class__:
                    raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
                raise InvalidParameterError(f"edge ({u!r}, {v!r}) must join two int vertices")
            if u == v:
                raise InvalidParameterError(
                    f"edge ({u}, {v}) out of range for n={n}" if u >= n else f"self-loop at vertex {u}")
            try:
                neigh[u].append(v)
                neigh[v].append(u)
            except IndexError:
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}") from None
        for row in neigh:
            row.sort()
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, neigh))
        # the one duplicate-edge check: a repeated edge repeats a neighbor,
        # which a set of the row drops
        ends = sum(map(len, self.adj))
        if sum(map(len, map(set, self.adj))) != ends:
            u, row = next((u, row) for u, row in enumerate(self.adj) if len(set(row)) != len(row))
            v = next(a for a, b in zip(row, row[1:]) if a == b)
            raise InvalidParameterError(f"duplicate edge ({u}, {v})")
        self.edge_count = ends // 2
        lab = dict(labels) if labels else {}
        for v, role in lab.items():
            if type(v) is not int or not 0 <= v < n:
                raise InvalidParameterError(f"label on nonexistent vertex {v!r}")
            if not isinstance(role, str) or role.split() != [role]:
                raise InvalidParameterError(
                    f"label for vertex {v} must be one token without whitespace, got {role!r}")
        self._labels = lab

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

def _cycle_edges(n: int, off: int = 0) -> list[tuple[int, int]]:
    """Edges of the n-cycle on the vertices ``off..off+n-1``, in cycle order."""
    return list(zip(range(off, off + n), [*range(off + 1, off + n), off]))


def _cycle_labels(n: int, off: int = 0) -> dict[int, str]:
    """Roles "cycle:i" for the n-cycle on the vertices ``off..off+n-1``."""
    return {off + i: f"cycle:{i}" for i in range(n)}


def _spokes(n: int, hubs: Iterable[int], off: int = 0) -> list[tuple[int, int]]:
    """Edges joining every vertex ``off..off+n-1`` to every hub."""
    return [e for h in hubs for e in zip(range(off, off + n), repeat(h))]


def _cycle_with_hubs(n: int, roles: Sequence[str]) -> Graph:
    """The n-cycle joined with pairwise nonadjacent hubs ``n, n+1, ...``,
    one per role, each labeled with its role."""
    hubs = range(n, n + len(roles))
    labels = _cycle_labels(n) | dict(zip(hubs, roles))
    return Graph(n + len(roles), _cycle_edges(n) + _spokes(n, hubs), labels)


def one_point_union(parts: Sequence[tuple[Graph, int]]) -> Graph:
    """Glue the designated vertex of every part into a single vertex.

    The first part keeps its vertex indices and the glued vertex takes the
    index of the first part's designated vertex; later parts occupy the
    following contiguous index blocks.  The glued vertex is labeled "x".
    Each part is an induced subgraph of the result, and distinct parts meet
    only at the glued vertex.
    """
    if not parts:
        raise InvalidParameterError("one_point_union needs at least one part")
    for g, v in parts:
        if not (0 <= v < g.n):
            raise InvalidParameterError(f"designated vertex {v} out of range for a {g.n}-vertex part")
    g0, v0 = parts[0]
    total = g0.n
    edges = g0.edges()
    labels = {v: r for v, r in g0.labels.items() if v != v0}
    for g, v in parts[1:]:
        mapping = {}
        nxt = total
        for w in range(g.n):
            if w == v:
                mapping[w] = v0
            else:
                mapping[w] = nxt
                nxt += 1
        edges += [(mapping[a], mapping[b]) for a, b in g.edges()]
        labels.update({mapping[w]: r for w, r in g.labels.items() if w != v})
        total = nxt
    labels[v0] = "x"
    return Graph(total, edges, labels)


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


def build(spec: FamilySpec) -> Graph:
    """Construct the graph described by a family spec.

    Every spec is built as one ``Graph`` from its own edge list and label
    map, with no intermediate graphs; the tests pin the result by digests
    of its DIMACS text.

    Index layout is deterministic: cycle vertices come first in cycle order,
    then hub/apex vertices.  For BipyramidUnion(m, n) the first bipyramid
    occupies 0..m+1 (x at m, glued y at m+1), the second cycle occupies
    m+2..m+n+1, and its x apex is the last vertex.
    """
    if isinstance(spec, Cycle):
        return Graph(spec.n, _cycle_edges(spec.n), _cycle_labels(spec.n))
    if isinstance(spec, Empty):
        return Graph(spec.m)
    if isinstance(spec, Complete):
        k = spec.k
        return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
    if isinstance(spec, Wheel):
        return _cycle_with_hubs(spec.n, ["hub"])
    if isinstance(spec, JoinCycleEmpty):
        return _cycle_with_hubs(spec.n, [f"hub:{j}" for j in range(spec.m)])
    if isinstance(spec, Bipyramid):
        return _cycle_with_hubs(spec.n, ["x", "y"])
    if isinstance(spec, BipyramidUnion):
        m, n = spec.m, spec.n
        x1, y, x2 = m, m + 1, m + n + 2
        edges = _cycle_edges(m) + _spokes(m, (x1, y)) + _cycle_edges(n, m + 2) + _spokes(n, (y, x2), m + 2)
        labels = _cycle_labels(m) | _cycle_labels(n, m + 2) | {x1: "x", y: "y", x2: "x"}
        return Graph(m + n + 3, edges, labels)
    raise InvalidParameterError(f"unknown family spec {spec!r}")


# ---------------------------------------------------------------------------
# DIMACS-style serialization
# ---------------------------------------------------------------------------
#
# Format: one "p edge <V> <E>" header, then E lines "e <u> <v>" with
# 1 <= u < v <= V, optional comment lines starting with "c", and optional
# label lines "l <vertex> <role>".  UTF-8, LF line endings.

def to_dimacs(g: Graph, include_labels: bool = True) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    if include_labels:
        for v in sorted(g.labels):
            lines.append(f"l {v + 1} {g.labels[v]}")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    """Parse the format above, raising ParseError on anything else.

    Duplicate edges are left to ``Graph``; only once it has found one are
    the lines read again for the line of the second occurrence, so a
    malformed line anywhere in the file is reported before a duplicate.
    """
    n = -1
    expected_edges = -1
    header_line = 0
    edges: list[tuple[int, int]] = []
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
            edges.append((u - 1, v - 1))
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
        g = Graph(n, edges, labels)
    except InvalidParameterError:
        # every line is well formed, so the one thing Graph can reject is a
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
    if len(edges) != expected_edges:
        raise ParseError(
            f"header announced {expected_edges} edges but {len(edges)} were given", header_line
        )
    return g
