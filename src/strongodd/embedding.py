"""Rotation systems, face tracing, and planar embeddings for the built families.

A rotation system is a list of rows, one per vertex: row v lists the
neighbors of v in cyclic order.  ``embed_family`` returns the lists that
``graphs.build`` fills in rotation order, and a certificate holds the same
lists in its JSON.  Face tracing follows the standard next-dart rule: after
traversing the dart (u, v), continue with (v, w) where w is the successor of
u in the row of v.  ``verify_embedding`` builds that rule once as a map from
each dart to the next and traces every face by popping darts from the map,
so it runs in time linear in the number of edges.  A dart (u, v) is keyed by
the integer u * n + v rather than by a tuple: once every row is known to be
a permutation of its vertex's neighbors, that integer names one dart, and
integers are cheaper to build and hash.  The map is filled in one walk of
each row of v that carries the key of the previous dart into v, starting
from the row's last neighbor, so no rotated copy of the row is made.

Each component with an edge is traced on its own surface, and a component
of genus 0 has V - E + F = 2 over its own vertices, edges and faces.  An
isolated vertex has no dart and traces no face, so it adds 1.  So the
embedding has genus 0 on every component exactly when V - E + F = 2c - i,
where c counts the components and i the isolated vertices, which is the
verdict it reports.  On a connected graph with an edge this is V - E + F = 2.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidRotationError, UnsupportedFamilyError
from .graphs import _EMBEDDED, FamilySpec, Graph, _layout


class EmbeddingCheck(NamedTuple):
    faces: int
    euler_ok: bool


def verify_embedding(g: Graph, rotation: Sequence[Sequence[int]]) -> EmbeddingCheck:
    """Trace every face of the embedding and test V - E + F = 2c - i, with c
    components and i isolated vertices.

    Raises InvalidRotationError unless rotation lists, for every vertex,
    each of its neighbors exactly once, in some cyclic order.  That check
    makes the next-dart map a bijection on the darts, so every face closes.
    """
    n = g.n
    if len(rotation) != n:
        raise InvalidRotationError(f"rotation covers {len(rotation)} vertices, graph has {n}")
    nxt: dict[int, int] = {}
    for v, row in enumerate(rotation):
        try:
            row_ok = tuple(sorted(row)) == g.adj[v]
        except TypeError:  # a row that is not a list of comparable entries
            row_ok = False
        if not row_ok:
            raise InvalidRotationError(f"rotation at vertex {v} is not a permutation of its neighbors")
        # the row holds neighbors of v only, so every dart (u, v) has its own
        # key; the dart into v from the row's last neighbor goes on to the
        # first, and each later one from the neighbor before it
        if row:
            vn = v * n
            dart = row[-1] * n + v
            for w in row:
                nxt[dart] = vn + w
                dart = w * n + v
    faces = 0
    while nxt:
        start, dart = nxt.popitem()
        while dart != start:
            dart = nxt.pop(dart)
        faces += 1
    adj = g.adj
    isolated = adj.count(())
    return EmbeddingCheck(faces, n - g.edge_count + faces == 2 * _components(adj) - isolated)


def _components(adj: tuple[tuple[int, ...], ...]) -> int:
    """The number of components, each grown from an unseen vertex one
    breadth-first layer at a time: a layer's neighbors are gathered by one
    set union over their rows."""
    row = adj.__getitem__
    unseen = set(range(len(adj)))
    count = 0
    while unseen:
        layer = {unseen.pop()}
        count += 1
        while layer:
            layer = set().union(*map(row, layer))
            layer &= unseen
            unseen -= layer
    return count


def embed_family(spec: FamilySpec) -> list[list[int]]:
    """The genus-0 rotation system of a Cycle, Wheel, Bipyramid or
    BipyramidUnion spec: the neighbor rows ``build`` makes its graph from,
    before sorting (``graphs._layout``).  Other specs raise
    UnsupportedFamilyError."""
    if not isinstance(spec, _EMBEDDED):
        raise UnsupportedFamilyError(f"no embedding constructor for family {spec!r}")
    return _layout(spec)[0]
