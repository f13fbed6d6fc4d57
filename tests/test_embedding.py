import hashlib
import json
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
    Empty,
    Graph,
    InvalidRotationError,
    JoinCycleEmpty,
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
        # one vertex, no edges, no darts: V - E + F = 1 = 2c - i with one
        # component and one isolated vertex, a point on a sphere
        assert verify_embedding(Graph(1), ((),)) == (0, True)
        assert verify_embedding(Graph(3), ((), (), ())) == (0, True)

    def test_toroidal_k5_beside_a_triangle(self):
        # K5 on a torus has 5 faces and the triangle 2, so V - E + F is
        # 8 - 13 + 7 = 2, a sphere's count, but two components need 4
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        g = Graph(8, k5 + [(5, 6), (6, 7), (5, 7)])
        rot = [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 4, 3], [0, 2, 1, 4], [0, 3, 1, 2], [6, 7], [5, 7], [5, 6]]
        assert verify_embedding(g, rot) == (7, False)

    def test_two_disjoint_triangles(self):
        # each triangle has 2 faces: V - E + F = 6 - 6 + 4 = 4 = 2c
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert verify_embedding(g, [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]) == (4, True)

    def test_rotation_mismatch_rejected(self):
        with pytest.raises(InvalidRotationError):
            verify_embedding(build(Cycle(3)), [[1, 2], [0, 2], [0, 0]])

    @pytest.mark.parametrize("row", [[1, "a"], None], ids=repr)
    def test_rotation_row_of_the_wrong_type_rejected(self, row):
        # a row sorted() cannot order or iterate is no permutation of the
        # neighbors either
        with pytest.raises(InvalidRotationError):
            verify_embedding(build(Cycle(3)), [[1, 2], [0, 2], row])

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
        assert rot[y] == [3, 2, 1, 0, 6, 7, 8, 9, 10]

    def test_rows_are_lists(self):
        # the layout's own rows, the form a certificate and gen --embed hold
        for spec in (Cycle(5), Wheel(6), Bipyramid(7), BipyramidUnion(8, 11)):
            rot = embed_family(spec)
            assert type(rot) is list and {type(row) for row in rot} == {list}, spec

    def test_unsupported_family(self):
        # the wheel and bipyramid joins are planar too, but get no rotation
        for spec in (Complete(4), Empty(3), *(JoinCycleEmpty(5, m) for m in (1, 2, 3)), "wheel", None):
            with pytest.raises(UnsupportedFamilyError):
                embed_family(spec)

    def test_pinned_rotation_bytes(self):
        # recorded before the rows came from build; also pins the gen --embed
        # rotation file, which is json.dumps of the same rows
        specs = [*(family(n) for family in (Cycle, Wheel, Bipyramid) for n in range(3, 40)),
                 *(BipyramidUnion(m, n) for m in range(3, 20) for n in range(3, 20))]
        digest = hashlib.sha256(b"".join(json.dumps(embed_family(s)).encode() for s in specs)).hexdigest()
        assert digest == "4768fb2b09a7a5c97e327825f6560ef59720ecaeadcf26e799b035666ee10975"


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
    """verify_embedding's result from the tuple-dart tracer and networkx's
    count of components and isolated vertices."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    faces = traced_faces(g, rotation)
    sphere = 2 * nx.number_connected_components(nxg) - nx.number_of_isolates(nxg)
    return faces, g.n - g.edge_count + faces == sphere


class TestAgainstTracedFaces:
    """verify_embedding against the tuple-dart tracer in tests/helpers.py."""

    @pytest.mark.parametrize("seed", range(5))
    def test_networkx_planar_rotations(self, seed):
        for g, nxg, rot in planar_rotations(seed, 40):
            check = verify_embedding(g, rot)
            # a planar embedding has genus 0 on every component, connected
            # or not
            assert check == traced_check(g, rot) and check.euler_ok

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

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_check_planarity(self, seed):
        # disjoint unions of one to three G(n, p), planar or not, connected
        # or not: networkx's planar rotation passes, and no rotation of a
        # non-planar graph does
        rng = random.Random(seed)
        kinds = Counter()
        for _ in range(40):
            n = 0
            edges = []
            for _ in range(rng.randint(1, 3)):
                part = random_graph(rng.randint(1, 9), rng.choice([0.2, 0.5, 0.9]), rng)
                edges += [(u + n, v + n) for u, v in part.edges()]
                n += part.n
            g = Graph(n, edges)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(edges)
            planar, emb = nx.check_planarity(nxg)
            if planar:
                rot = [list(emb.neighbors_cw_order(v)) for v in range(n)]
                assert verify_embedding(g, rot) == traced_check(g, rot) and verify_embedding(g, rot).euler_ok
            for _ in range(5):
                rot = [rng.sample(row, len(row)) for row in g.adj]
                check = verify_embedding(g, rot)
                assert check == traced_check(g, rot)
                assert planar or not check.euler_ok
            kinds[planar, nx.is_connected(nxg)] += 1
        assert len(kinds) == 4

    @pytest.mark.parametrize("spec", [
        *(Cycle(n) for n in (3, 4, 9)),
        *(Wheel(n) for n in (3, 5, 12)),
        *(Bipyramid(n) for n in (3, 8, 13)),
        *(BipyramidUnion(m, n) for m, n in ((3, 3), (6, 8), (8, 8), (8, 101))),
    ], ids=repr)
    def test_family_embeddings(self, spec):
        g, rot = build(spec), embed_family(spec)
        assert verify_embedding(g, rot) == traced_check(g, rot) == (traced_faces(g, rot), True)
