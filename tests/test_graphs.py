import hashlib
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import strongodd.graphs
from helpers import cycle_vertices, edge_list_union, family_specs, graphs, labeled_graphs, random_graph
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
def graph_arguments(draw):
    """Arguments for Graph, mostly valid: endpoints and label vertices from
    -1 to n, now and then a float, and any short text as a role."""
    n = draw(st.integers(0, 6))
    vertex = st.one_of(st.integers(-1, n), st.integers(0, n).map(float))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    labels = draw(st.dictionaries(vertex, st.text(max_size=4), max_size=4))
    return n, edges, labels


# anything an edge item may hold: ints in and out of range, bools, floats,
# one-character strings and None
any_vertex = st.one_of(st.integers(-1, 4), st.booleans(), st.floats(0, 4), st.text(max_size=1), st.none())


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

    @pytest.mark.parametrize("edges,labels,message", [
        # each of these constructed, and to_dimacs wrote a file that
        # from_dimacs rejects (or, for the float endpoint, a bare TypeError)
        ([(0, 1)], {0: "a b"}, "vertex 0 must be one token without whitespace, got 'a b'"),
        ([(0, 1)], {0: "a\nb"}, "vertex 0 must be one token without whitespace"),
        ([(0, 1)], {1: "a\u2028b"}, "vertex 1 must be one token without whitespace"),
        ([], {1.0: "x"}, "label on nonexistent vertex 1.0"),
        ([(0, 1.0)], None, r"edge \(0, 1\.0\) must join two int vertices"),
        ([("0", 1)], None, r"edge \('0', 1\) must join two int vertices"),
    ])
    def test_rejects_what_dimacs_cannot_carry(self, edges, labels, message):
        with pytest.raises(InvalidParameterError, match=message):
            Graph(3, edges, labels)

    @pytest.mark.parametrize("edges,message", [
        # a negative endpoint would index a row from its end
        ([(0, 1), (2, -1)], r"edge \(2, -1\) out of range for n=3"),
        ([(-3, 1)], r"edge \(-3, 1\) out of range for n=3"),
        ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        # with several faults, the first edge at fault in the given order is
        # named, and a duplicate only once every edge passed on its own
        ([(0, 1), (0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(0, -1), (0, 3)], r"edge \(0, -1\) out of range for n=3"),
        ([(0, 1), (2, 1), (1, 0), (0, 1.0)], r"edge \(0, 1\.0\) must join two int vertices"),
    ])
    def test_first_fault_named(self, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            Graph(3, edges)

    @pytest.mark.parametrize("n,edges,message", [
        # each of these ended in a bare TypeError or ValueError, or for the
        # bools, stored bools in the rows
        (3, [(0, 1), 5], "edge 5 must be a pair of vertices"),
        (3, [(0, 1, 2)], r"edge \(0, 1, 2\) must be a pair of vertices"),
        (2.0, [], "vertex count must be an int >= 0, got 2.0"),
        (True, [], "vertex count must be an int >= 0, got True"),
        (2, [(False, True)], r"edge \(False, True\) must join two int vertices"),
        (3, [(0, True)], r"edge \(0, True\) must join two int vertices"),
        # past the top a self-loop is out of range
        (3, [(3, 3)], r"edge \(3, 3\) out of range for n=3"),
    ])
    def test_item_at_fault_named(self, n, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            Graph(n, edges)

    @given(st.integers(0, 4), st.lists(st.one_of(
        st.tuples(any_vertex, any_vertex), st.tuples(any_vertex), st.tuples(any_vertex, any_vertex, any_vertex),
        any_vertex), max_size=5))
    def test_any_edge_list_constructs_or_is_rejected(self, n, edges):
        try:
            g = Graph(n, edges)
        except InvalidParameterError:
            return
        assert all(type(w) is int for row in g.adj for w in row)
        assert g.edge_count == len(g.edges()) == len(edges)

    def test_huge_vertex_count_fails_at_once(self):
        """``Graph(10**12)`` asks for its rows in one request and ends in
        MemoryError without filling memory a row at a time.  It runs under a
        400 MB address-space limit, in a child process."""
        limit = 400 * 2 ** 20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(strongodd.graphs.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = "from strongodd import Graph\ntry:\n    Graph(10**12)\nexcept MemoryError:\n    print('MemoryError')\n"
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, preexec_fn=limit_memory) as child:
            out, err = child.stdout.read(), child.stderr.read()
            # this child's own peak, which a row-at-a-time fill grows to the limit
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        assert (child.returncode, out, err) == (0, b"MemoryError\n", b"")
        assert usage.ru_maxrss < limit // 2 // 1024  # KB

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

    @pytest.mark.parametrize("v", [True, 1.0, "1", -1])
    def test_designated_vertex_is_an_int_in_range(self, v):
        k2 = build(Complete(2))
        for parts in ([(k2, v)], [(k2, 0), (k2, v)]):
            with pytest.raises(InvalidParameterError):
                one_point_union(parts)

    def test_matches_the_edge_list_union(self):
        # 3,000 seeded unions of 1-4 labelled parts, a part sometimes repeated
        rng = random.Random(20261022)
        for _ in range(3000):
            parts = []
            for _ in range(rng.randint(1, 4)):
                if parts and rng.random() < 0.2:
                    g = rng.choice(parts)[0]
                else:
                    n = rng.randint(1, 8)
                    g = random_graph(n, rng.random(), rng)
                    picked = rng.sample(range(n), rng.randint(0, n))
                    g = Graph(n, g.edges(), {v: rng.choice(["x", "y", "hub", f"r{v}"]) for v in picked})
                parts.append((g, rng.randrange(g.n)))
            u, want = one_point_union(parts), edge_list_union(parts)
            assert (u.n, u.adj, dict(u.labels)) == (want.n, want.adj, dict(want.labels)), parts

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

    @given(family_specs)
    # the least sizes, where a cycle's two neighbors or a hub row are
    # closest to meeting
    @example(Cycle(3))
    @example(Complete(1))
    @example(Complete(2))
    @example(JoinCycleEmpty(3, 1))
    @example(Bipyramid(3))
    @example(BipyramidUnion(3, 3))
    def test_rows_build_what_the_checking_constructor_builds(self, spec):
        # build hands its own rows to the construction tail, skipping the
        # per-edge and per-label checks that Graph(n, edges, labels) runs
        g = build(spec)
        checked = Graph(g.n, g.edges(), dict(g.labels))
        assert g == checked
        assert g.edge_count == checked.edge_count

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

    @pytest.mark.parametrize("spec", ["wheel", None, Wheel], ids=["name", "none", "class"])
    def test_unknown_spec_refused(self, spec):
        with pytest.raises(InvalidParameterError, match="unknown family spec"):
            build(spec)

    @pytest.mark.parametrize("make", [
        lambda: Wheel(9.5), lambda: Wheel(4.0), lambda: Wheel("a"), lambda: Wheel(True),
        lambda: JoinCycleEmpty(9, 2.5), lambda: BipyramidUnion(8, 11.0), lambda: Complete(False),
    ])
    def test_spec_sizes_must_be_ints(self, make):
        # a float size would pass the range check and feed // and % nonsense
        with pytest.raises(InvalidParameterError, match="needs an int"):
            make()


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

    @given(graph_arguments())
    def test_every_graph_that_constructs_round_trips(self, args):
        try:
            g = Graph(*args)
        except InvalidParameterError:
            return
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
