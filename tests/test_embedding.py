import random
from collections import Counter
from itertools import permutations, product

import networkx as nx
import pytest

from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Complete,
    Cycle,
    Graph,
    InvalidRotationError,
    UnsupportedFamilyError,
    Wheel,
    build,
    embed_family,
    verify_embedding,
)

from helpers import random_graph, traced_faces


class TestVerifyEmbedding:
    def test_k4_planar_rotation(self):
        rot = embed_family(Wheel(3))  # W_3 is K_4
        faces, ok = verify_embedding(build(Wheel(3)), rot)
        assert (faces, ok) == (4, True)

    def test_c4_two_faces(self):
        rot = [[1, 3], [2, 0], [3, 1], [0, 2]]
        faces, ok = verify_embedding(build(Cycle(4)), rot)
        assert (faces, ok) == (2, True)

    def test_k5_has_no_planar_rotation(self):
        g = build(Complete(5))
        # all rotation systems up to rotation of each cyclic order: 3!^5 = 7776
        per_vertex = []
        for v in range(5):
            nbrs = list(g.adj[v])
            per_vertex.append([tuple([nbrs[0]] + list(p)) for p in permutations(nbrs[1:])])
        faces = Counter()
        for rows in product(*per_vertex):
            f, ok = verify_embedding(g, rows)
            assert not ok  # V - E + F = 5 - 10 + F can only be 2 if F = 7
            faces[f] += 1
        # genus (2 - V + E - F) / 2 is 3, 2 and 1 for F = 1, 3, 5
        assert faces == {1: 2340, 3: 4974, 5: 462}

    def test_isolated_vertex_empty_row(self):
        # one vertex, no edges, no darts: V - E + F = 1, so not a sphere
        assert verify_embedding(Graph(1), ((),)) == (0, False)

    def test_rotation_mismatch_rejected(self):
        with pytest.raises(InvalidRotationError):
            verify_embedding(build(Cycle(3)), [[1, 2], [0, 2], [0, 0]])

    def test_rotation_wrong_length(self):
        with pytest.raises(InvalidRotationError):
            verify_embedding(build(Cycle(3)), [[1, 2], [0, 2]])


class TestEmbedFamily:
    def test_cycle_five(self):
        faces, ok = verify_embedding(build(Cycle(5)), embed_family(Cycle(5)))
        assert (faces, ok) == (2, True)

    def test_bipyramid_8(self):
        g = build(Bipyramid(8))
        faces, ok = verify_embedding(g, embed_family(Bipyramid(8)))
        assert ok and g.n - g.edge_count + faces == 2
        assert faces == 16

    def test_union_8_8(self):
        g = build(BipyramidUnion(8, 8))
        faces, ok = verify_embedding(g, embed_family(BipyramidUnion(8, 8)))
        assert ok and faces == 31

    @pytest.mark.parametrize("n", range(3, 31))
    def test_all_families_up_to_30(self, n):
        for spec in (Cycle(n), Wheel(n), Bipyramid(n)):
            g = build(spec)
            faces, ok = verify_embedding(g, embed_family(spec))
            assert ok, spec

    def test_union_full_grid_up_to_30(self):
        for m in range(3, 31):
            for n in range(3, 31):
                spec = BipyramidUnion(m, n)
                faces, ok = verify_embedding(build(spec), embed_family(spec))
                assert ok and faces == 2 * m + 2 * n - 1, (m, n)

    def test_glued_apex_rotation_shape(self):
        rot = embed_family(BipyramidUnion(4, 5))
        y = 5
        assert rot[y] == (3, 2, 1, 0, 6, 7, 8, 9, 10)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            embed_family(Complete(4))


def planar_rotations(seed: int, count: int):
    """``count`` seeded random planar graphs on 1..30 vertices, each with the
    rotation system of networkx's planar embedding."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 30)
        g = random_graph(n, min(1.0, 3 / n), rng)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        planar, emb = nx.check_planarity(nxg)
        if planar:
            out.append((g, nxg, [list(emb.neighbors_cw_order(v)) for v in range(n)]))
    return out


def traced_check(g, rotation):
    faces = traced_faces(g, rotation)
    return faces, g.n - g.edge_count + faces == 2


class TestAgainstTracedFaces:
    """verify_embedding against the tuple-dart tracer in tests/helpers.py."""

    @pytest.mark.parametrize("seed", range(5))
    def test_networkx_planar_rotations(self, seed):
        for g, nxg, rot in planar_rotations(seed, 40):
            check = verify_embedding(g, rot)
            assert check == traced_check(g, rot)
            # a planar embedding of a connected graph is a sphere
            assert check.euler_ok == (g.n > 0 and nx.is_connected(nxg) and g.edge_count > 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_row_with_two_entries_swapped(self, seed):
        rng = random.Random(seed)
        broken = 0
        for g, _, rot in planar_rotations(seed, 40):
            rows = [v for v, row in enumerate(rot) if len(row) >= 3]
            if not rows:
                continue
            sphere = verify_embedding(g, rot).euler_ok
            v = rng.choice(rows)
            i, j = rng.sample(range(len(rot[v])), 2)
            rot[v][i], rot[v][j] = rot[v][j], rot[v][i]
            check = verify_embedding(g, rot)
            assert check == traced_check(g, rot)
            broken += sphere and not check.euler_ok
        assert broken > 0

    @pytest.mark.parametrize("spec", [
        *(Cycle(n) for n in (3, 4, 9)),
        *(Wheel(n) for n in (3, 5, 12)),
        *(Bipyramid(n) for n in (3, 8, 13)),
        *(BipyramidUnion(m, n) for m, n in ((3, 3), (6, 8), (8, 8), (8, 101))),
    ], ids=repr)
    def test_family_embeddings(self, spec):
        g, rot = build(spec), embed_family(spec)
        assert verify_embedding(g, rot) == traced_check(g, rot) == (traced_faces(g, rot), True)
