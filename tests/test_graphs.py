import pytest
from hypothesis import given
from hypothesis import strategies as st

from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Cycle,
    Graph,
    InvalidParameterError,
    JoinCycleEmpty,
    ParseError,
    Wheel,
    build,
    complete,
    cycle,
    empty,
    from_dimacs,
    join,
    one_point_union,
    to_dimacs,
)


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 2)])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [], labels={5: "x"})

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.adj[0] == (1, 2)
        assert all(u in g.adj[v] for u in range(4) for v in g.adj[u])


class TestCycleConstructor:
    def test_triangle(self):
        g = cycle(3)
        assert (g.n, g.edge_count) == (3, 3)

    def test_c4_regular(self):
        g = cycle(4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_c8_edges(self):
        assert cycle(8).edge_count == 8

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            cycle(2)

    def test_labels(self):
        assert cycle(5).labels[3] == "cycle:3"


class TestJoin:
    def test_wheel3_is_k4(self):
        g = join(cycle(3), complete(1))
        assert (g.n, g.edge_count) == (4, 6)

    def test_bipyramid8_edge_count(self):
        g = join(cycle(8), empty(2))
        assert (g.n, g.edge_count) == (10, 8 + 16)

    def test_two_singletons_make_k2(self):
        g = join(empty(1), empty(1))
        assert (g.n, g.edge_count) == (2, 1)

    def test_empty_operand_rejected(self):
        with pytest.raises(InvalidParameterError):
            join(Graph(0), cycle(3))

    @given(graphs(min_n=1, max_n=7), graphs(min_n=1, max_n=7))
    def test_edge_count_formula(self, g1, g2):
        g = join(g1, g2)
        assert g.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


class TestOnePointUnion:
    def test_single_part_keeps_adjacency(self):
        g = cycle(5)
        u = one_point_union([(g, 2)])
        assert u.n == g.n and u.adj == g.adj
        assert u.labels[2] == "x"

    def test_two_k2_make_path(self):
        k2 = complete(2)
        u = one_point_union([(k2, 0), (k2, 0)])
        assert (u.n, u.edge_count) == (3, 2)
        assert u.degree(0) == 2  # the glued vertex is the middle of the path

    def test_union_of_bipyramids_vertex_count(self):
        g8 = build(Bipyramid(8))
        u = one_point_union([(g8, 9), (g8, 9)])
        assert u.n == 10 + 10 - 1

    def test_three_copies_make_star(self):
        k2 = complete(2)
        u = one_point_union([(k2, 0), (k2, 0), (k2, 0)])
        assert (u.n, u.edge_count) == (4, 3)
        assert u.degree(0) == 3 and all(u.degree(v) == 1 for v in range(1, 4))

    def test_bad_designated_vertex(self):
        with pytest.raises(InvalidParameterError):
            one_point_union([(cycle(3), 7)])

    def test_empty_parts(self):
        with pytest.raises(InvalidParameterError):
            one_point_union([])

    @given(graphs(min_n=2, max_n=6), graphs(min_n=2, max_n=6), st.data())
    def test_parts_are_induced_subgraphs(self, g1, g2, data):
        v1 = data.draw(st.integers(0, g1.n - 1))
        v2 = data.draw(st.integers(0, g2.n - 1))
        u = one_point_union([(g1, v1), (g2, v2)])
        assert u.n == g1.n + g2.n - 1
        # second part mapping: w -> v1 if w == v2 else consecutive block
        mapping = {}
        nxt = g1.n
        for w in range(g2.n):
            if w == v2:
                mapping[w] = v1
            else:
                mapping[w] = nxt
                nxt += 1
        for a in range(g2.n):
            for b in range(a + 1, g2.n):
                assert g2.has_edge(a, b) == u.has_edge(mapping[a], mapping[b])
        for a in range(g1.n):
            for b in range(a + 1, g1.n):
                assert g1.has_edge(a, b) == u.has_edge(a, b)


def composed(spec):
    """build(spec) as a composition of the public constructors, the way the
    specs' docstrings describe it; build itself makes one Graph per spec."""
    if isinstance(spec, Wheel):
        g = join(cycle(spec.n), complete(1))
        return g.with_labels({**g.labels, spec.n: "hub"})
    if isinstance(spec, JoinCycleEmpty):
        g = join(cycle(spec.n), empty(spec.m))
        return g.with_labels({**g.labels, **{spec.n + j: f"hub:{j}" for j in range(spec.m)}})
    if isinstance(spec, Bipyramid):
        g = join(cycle(spec.n), empty(2))
        return g.with_labels({**g.labels, spec.n: "x", spec.n + 1: "y"})
    g1, g2 = composed(Bipyramid(spec.m)), composed(Bipyramid(spec.n))
    u = one_point_union([(g1, g1.vertex_with_role("y")), (g2, g2.vertex_with_role("y"))])
    return u.with_labels({**u.labels, spec.m + 1: "y"})


COMPOSED_GRID = {
    "wheel": [Wheel(n) for n in range(3, 31)],
    "join-cycle-empty": [JoinCycleEmpty(n, m) for n in range(3, 16) for m in range(1, 7)],
    "bipyramid": [Bipyramid(n) for n in range(3, 31)],
    "bipyramid-union": [BipyramidUnion(m, n) for m in range(3, 16) for n in range(3, 16)],
}


class TestBuild:
    @pytest.mark.parametrize("family", sorted(COMPOSED_GRID))
    def test_equals_composition(self, family):
        for spec in COMPOSED_GRID[family]:
            assert build(spec) == composed(spec), spec

    def test_wheel_14(self):
        g = build(Wheel(14))
        assert (g.n, g.edge_count) == (15, 28)
        assert g.labels[14] == "hub"

    def test_union_3_3(self):
        assert build(BipyramidUnion(3, 3)).n == 9

    def test_bipyramid_8(self):
        g = build(Bipyramid(8))
        assert (g.n, g.edge_count) == (10, 24)
        assert g.vertex_with_role("x") == 8 and g.vertex_with_role("y") == 9

    def test_union_layout(self):
        g = build(BipyramidUnion(8, 8))
        assert g.vertex_with_role("y") == 9
        assert g.vertices_with_role_prefix("cycle:") == list(range(8)) + list(range(10, 18))
        y = 9
        assert g.degree(y) == 16  # adjacent to both cycles, not to either x apex

    def test_join_cycle_empty_labels(self):
        g = build(JoinCycleEmpty(5, 3))
        assert g.vertices_with_role_prefix("hub:") == [5, 6, 7]

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            Cycle(2)
        with pytest.raises(InvalidParameterError):
            BipyramidUnion(2, 5)


class TestDimacs:
    def test_c3_format(self):
        text = to_dimacs(cycle(3), include_labels=False)
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_round_trip_union(self):
        g = build(BipyramidUnion(8, 8))
        assert from_dimacs(to_dimacs(g)) == g

    @given(graphs(min_n=0, max_n=9))
    def test_round_trip_random(self, g):
        assert from_dimacs(to_dimacs(g)) == g

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError) as e:
            from_dimacs("p edge 4 1\ne 1 5\n")
        assert e.value.line == 2

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(ParseError):
            from_dimacs("p edge 4 1\ne 3 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as e:
            from_dimacs("p edge 3 3\ne 1 2\ne 1 2\ne 2 3\n")
        assert e.value.line == 3

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            from_dimacs("p edge three 3\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            from_dimacs("e 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            from_dimacs("p edge 3 2\ne 1 2\n")

    def test_comments_and_labels(self):
        g = from_dimacs("c a comment\np edge 3 1\ne 1 2\nl 1 hub\n")
        assert g.labels == {0: "hub"}

    def test_duplicate_label(self):
        with pytest.raises(ParseError):
            from_dimacs("p edge 2 0\nl 1 a\nl 1 b\n")
