import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cycle_vertices
from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Complete,
    Cycle,
    Graph,
    InvalidParameterError,
    JoinCycleEmpty,
    ParseError,
    Wheel,
    build,
    from_dimacs,
    one_point_union,
    to_dimacs,
)


@st.composite
def graphs(draw, min_n=1, max_n=10):
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


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
        ([(1, 2), (0, 1), (2, 1)], r"duplicate edge \(1, 2\)"),
    ])
    def test_duplicate_edge_named(self, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            Graph(3, edges)

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
        g = build(Cycle(3))
        assert (g.n, g.edge_count) == (3, 3)

    def test_c4_regular(self):
        g = build(Cycle(4))
        assert all(len(g.adj[v]) == 2 for v in range(4))

    def test_c8_edges(self):
        assert build(Cycle(8)).edge_count == 8

    def test_labels(self):
        assert build(Cycle(5)).labels[3] == "cycle:3"


class TestOnePointUnion:
    def test_single_part_keeps_adjacency(self):
        g = build(Cycle(5))
        u = one_point_union([(g, 2)])
        assert u.n == g.n and u.adj == g.adj
        assert u.labels[2] == "x"

    def test_two_k2_make_path(self):
        k2 = build(Complete(2))
        u = one_point_union([(k2, 0), (k2, 0)])
        assert (u.n, u.edge_count) == (3, 2)
        assert len(u.adj[0]) == 2  # the glued vertex is the middle of the path

    def test_union_of_bipyramids_vertex_count(self):
        g8 = build(Bipyramid(8))
        u = one_point_union([(g8, 9), (g8, 9)])
        assert u.n == 10 + 10 - 1

    def test_three_copies_make_star(self):
        k2 = build(Complete(2))
        u = one_point_union([(k2, 0), (k2, 0), (k2, 0)])
        assert (u.n, u.edge_count) == (4, 3)
        assert len(u.adj[0]) == 3 and all(len(u.adj[v]) == 1 for v in range(1, 4))

    def test_bad_designated_vertex(self):
        with pytest.raises(InvalidParameterError):
            one_point_union([(build(Cycle(3)), 7)])

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
                assert (b in g2.adj[a]) == (mapping[b] in u.adj[mapping[a]])
        for a in range(g1.n):
            for b in range(a + 1, g1.n):
                assert (b in g1.adj[a]) == (b in u.adj[a])


# sha256 of the concatenated to_dimacs(build(spec)) over each grid, taken
# when build was still checked against a composition of earlier public
# constructors (since deleted): the n-cycle joined with one vertex for a
# wheel and with m independent vertices for the hub joins and bipyramids,
# and one_point_union of two bipyramids at their y apexes, each relabelled
# to the specs' roles
COMPOSED_GRID = {
    "wheel": ([Wheel(n) for n in range(3, 31)],
              "ec431a3d81db889fc02c9482fa965d46089350cc45f33004561384ec47c9c3e1"),
    "join-cycle-empty": ([JoinCycleEmpty(n, m) for n in range(3, 16) for m in range(1, 7)],
                         "e996715e5e976402cfa77f0d9b4f514c5f84644afcc19e3f1ac52078a278ff6b"),
    "bipyramid": ([Bipyramid(n) for n in range(3, 31)],
                  "f53571d4527aa0bc74b691c2a342cdec3ef2d28de3524933d9ed8430346d523c"),
    "bipyramid-union": ([BipyramidUnion(m, n) for m in range(3, 16) for n in range(3, 16)],
                        "978e1ea70da082442844f83d99fd29228ceb7ec8ac1378f46cd51d562958c6ab"),
}


class TestBuild:
    @pytest.mark.parametrize("family", sorted(COMPOSED_GRID))
    def test_equals_composition(self, family):
        specs, digest = COMPOSED_GRID[family]
        text = "".join(to_dimacs(build(spec)) for spec in specs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_wheel_14(self):
        g = build(Wheel(14))
        assert (g.n, g.edge_count) == (15, 28)
        assert g.labels[14] == "hub"

    def test_union_3_3(self):
        assert build(BipyramidUnion(3, 3)).n == 9

    def test_bipyramid_8(self):
        g = build(Bipyramid(8))
        assert (g.n, g.edge_count) == (10, 24)
        assert g.labels == {v: f"cycle:{v}" for v in range(8)} | {8: "x", 9: "y"}

    def test_union_layout(self):
        g = build(BipyramidUnion(8, 8))
        assert [v for v, role in g.labels.items() if role == "y"] == [9]
        assert cycle_vertices(g) == list(range(8)) + list(range(10, 18))
        y = 9
        assert len(g.adj[y]) == 16  # adjacent to both cycles, not to either x apex

    def test_join_cycle_empty_labels(self):
        g = build(JoinCycleEmpty(5, 3))
        assert {v: role for v, role in g.labels.items() if role.startswith("hub:")} == {
            5: "hub:0", 6: "hub:1", 7: "hub:2"}

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            Cycle(2)
        with pytest.raises(InvalidParameterError):
            BipyramidUnion(2, 5)


class TestDimacs:
    def test_c3_format(self):
        text = to_dimacs(build(Cycle(3)), include_labels=False)
        assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_round_trip_union(self):
        g = build(BipyramidUnion(8, 8))
        assert from_dimacs(to_dimacs(g)) == g

    @given(graphs(min_n=0, max_n=9))
    def test_round_trip_random(self, g):
        assert from_dimacs(to_dimacs(g)) == g

    @given(labeled_graphs())
    def test_round_trip_random_labeled(self, g):
        assert from_dimacs(to_dimacs(g)) == g
        assert from_dimacs(to_dimacs(g, include_labels=False)) == Graph(g.n, g.edges())

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

    @pytest.mark.parametrize("text,line", [
        ("p edge 3 3\ne 1 2\nc between\nl 1 hub\n  \ne 2 3\nc again\ne 1 2\n", 8),
        # the duplicate is named even when it also throws the header count off
        ("c first\np edge 4 2\ne 3 4\nl 3 x\ne 3  4\ne 1 2\n", 5),
    ])
    def test_duplicate_edge_line_past_other_lines(self, text, line):
        with pytest.raises(ParseError, match="duplicate edge") as e:
            from_dimacs(text)
        assert e.value.line == line

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
