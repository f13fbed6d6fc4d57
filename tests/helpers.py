"""Shared test utilities: seeded random graphs, structural checks on
colorings and a face tracer that several tests use as oracles."""

import json
import random

from hypothesis import strategies as st

from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Coloring,
    Complete,
    Cycle,
    Empty,
    Graph,
    InvalidParameterError,
    JoinCycleEmpty,
    Wheel,
    counterexample,
)


@st.composite
def graphs(draw, min_n=1, max_n=10):
    """Any graph on min_n to max_n vertices, drawn as a mask over its pairs."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


# label roles are single DIMACS tokens: no whitespace or control characters
roles = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)


@st.composite
def labeled_graphs(draw):
    g = draw(graphs(min_n=0, max_n=12))
    labels = draw(st.dictionaries(st.integers(0, g.n - 1), roles)) if g.n else {}
    return Graph(g.n, g.edges(), labels)


# every family spec, with sizes up to 60
family_specs = st.one_of(
    st.builds(Cycle, st.integers(3, 60)),
    st.builds(Empty, st.integers(1, 60)),
    st.builds(Complete, st.integers(1, 60)),
    st.builds(Wheel, st.integers(3, 60)),
    st.builds(JoinCycleEmpty, st.integers(3, 60), st.integers(1, 60)),
    st.builds(Bipyramid, st.integers(3, 60)),
    st.builds(BipyramidUnion, st.integers(3, 60), st.integers(3, 60)),
)


def edge_list_union(parts) -> Graph:
    """``one_point_union`` built from edge lists: each later part's vertex w
    maps to the first part's designated vertex when it is the part's own,
    and to the next free index otherwise, and ``Graph`` checks every mapped
    edge and label again.  A reference for the row gluing."""
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


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _colors_and_subset(g: Graph, c, subset) -> tuple[tuple[int, ...], frozenset[int]]:
    colors = c.colors if isinstance(c, Coloring) else tuple(c)
    sub = frozenset(subset)
    if not sub <= frozenset(range(g.n)):
        raise InvalidParameterError(f"subset {sorted(sub)} out of range for n={g.n}")
    return colors, sub


def is_two_distance_on(g: Graph, c, subset) -> bool:
    """True iff the vertices of ``subset`` at distance at most 2 within the
    subgraph they induce all have different colors."""
    colors, sub = _colors_and_subset(g, c, subset)
    for v in sub:
        seen = {colors[v]}
        for w in g.adj[v]:
            if w in sub:
                if colors[w] in seen:
                    return False
                seen.add(colors[w])
    return True


def class_sizes_on(g: Graph, c, subset) -> dict[int, int]:
    """Size of each palette color's class restricted to ``subset``, zero
    for the colors that do not occur there."""
    colors, sub = _colors_and_subset(g, c, subset)
    sizes = dict.fromkeys(set(colors), 0)
    for v in sub:
        sizes[colors[v]] += 1
    return sizes


def cycle_vertices(g: Graph) -> list[int]:
    """The vertices a family graph labels "cycle:i", sorted."""
    return sorted(v for v, role in g.labels.items() if role.startswith("cycle:"))


def c4_with_pendants() -> tuple[Graph, Coloring]:
    """The 4-cycle colored 1, 2, 1, 2 with one pendant per vertex in the
    other color: a strong odd 2-coloring of a supergraph of C4, which
    itself needs 4 colors."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
    return Graph(8, edges), Coloring([1, 2, 1, 2, 2, 1, 2, 1])


def traced_faces(g: Graph, rotation) -> int:
    """Faces of a rotation system, traced one (u, v) dart at a time: after
    the dart (u, v) comes (v, w), w the successor of u in the row of v.  An
    oracle for ``verify_embedding``, sharing none of its dart encoding."""
    successor = {}
    for v, row in enumerate(rotation):
        for i, u in enumerate(row):
            successor[v, u] = row[(i + 1) % len(row)]
    seen = set()
    faces = 0
    for u, v in ((u, v) for u in range(g.n) for v in g.adj[u]):
        if (u, v) in seen:
            continue
        faces += 1
        while (u, v) not in seen:
            seen.add((u, v))
            u, v = v, successor[v, u]
    return faces


def stacked_triangulation(n: int, rng: random.Random) -> Graph:
    """A random stacked triangulation on n >= 3 vertices (each new vertex
    goes into a random face of the last), with each edge then dropped with
    probability 0.2; planar, as every subgraph of a planar graph is."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, [e for e in sorted(edges) if rng.random() >= 0.2])


def forged_exact_15():
    """The n = 11 bundle with a fresh colour 15 on its last vertex (the second
    x apex), relabelled an exact claim of 15 with an ok refutation entry."""
    data = json.loads(counterexample(11).to_json())
    lines = data["coloring"].splitlines()
    lines[-1] = lines[-1].split()[0] + " 15"
    data["coloring"] = "\n".join(lines) + "\n"
    data.update(claimed_value=15, claim_kind="exact")
    data["checks"].append({"name": "refutation", "ok": True})
    return data
