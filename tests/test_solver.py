import hashlib
import itertools
import random
from time import perf_counter

import pytest
from hypothesis import given, settings

import strongodd._classes
import strongodd.solver
from helpers import class_sizes_on, cycle_vertices, graphs, is_two_distance_on, random_graph, stacked_triangulation
from strongodd._classes import has_odd_class, least_partition, listable, odd_classes, parity_bound, part_colors
from strongodd.solver import _clique_lower_bound, _dependent_triples, _plan, _twin_classes, _vertex_order
from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Budget,
    Coloring,
    Complete,
    Cycle,
    DecideResult,
    Empty,
    Graph,
    InternalError,
    InvalidParameterError,
    JoinCycleEmpty,
    Wheel,
    brute_force_so,
    build,
    chromatic_strong_odd,
    decide_k,
    is_strong_odd,
)


@pytest.fixture
def search_alone(monkeypatch):
    """chromatic_strong_odd without the odd classes: the check before the
    searches is told that every graph has an odd class of two or more
    vertices, and the searches never reach _CLASSES_AFTER, the node count at
    which the classes get their look, so a pin on the search's own node
    counts keeps pinning the search."""
    monkeypatch.setattr(strongodd._classes, "has_odd_class", lambda g, deadline=None: True)
    monkeypatch.setattr(strongodd.solver, "_CLASSES_AFTER", 1 << 62)


def small_corpus(seed=424242, count=40):
    rng = random.Random(seed)
    graphs = [random_graph(rng.randint(1, 7), rng.choice([0.2, 0.4, 0.6, 0.8]), rng) for _ in range(count)]
    return graphs


class TestDecideK:
    def test_c4_threshold(self):
        g = build(Cycle(4))
        assert decide_k(g, 3).answer == "no"
        assert decide_k(g, 4).answer == "yes"

    def test_w9_threshold(self):
        g = build(Wheel(9))
        assert decide_k(g, 3).answer == "no"
        r = decide_k(g, 4)
        assert r.answer == "yes" and len(r.witness.palette) <= 4

    def test_witness_is_verified(self):
        r = decide_k(build(Wheel(7)), 8)
        assert r.answer == "yes"
        assert is_strong_odd(build(Wheel(7)), r.witness)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            decide_k(build(Cycle(3)), 0)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", True, None])
    def test_k_of_the_wrong_type(self, k):
        # the search indexes and compares with k, so a non-int would end in
        # a bare TypeError deep inside it
        with pytest.raises(InvalidParameterError):
            decide_k(build(Cycle(5)), k)

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            decide_k(Graph(0), 1)

    def test_node_budget_timeout(self):
        r = decide_k(build(Wheel(11)), 5, Budget(max_nodes=3))
        assert r.answer == "timeout" and r.reason == "max-nodes"
        assert r.nodes <= 4

    def test_monotone_in_k(self):
        for g in small_corpus(count=15):
            if g.n == 0:
                continue
            answers = [decide_k(g, k).answer for k in range(1, g.n + 1)]
            assert answers == sorted(answers)  # "no" < "yes" lexically, so sorted means monotone

    def test_order_independent(self):
        for g in small_corpus(seed=99, count=20):
            for k in range(1, g.n + 1):
                assert decide_k(g, k).answer == decide_k(g, k, order=list(range(g.n))).answer

    def test_explicit_order(self):
        g = build(Wheel(6))
        r = decide_k(g, 7, order=list(range(g.n)))
        assert r.answer == "yes"

    def test_bad_order(self):
        with pytest.raises(InvalidParameterError):
            decide_k(build(Cycle(3)), 2, order=[0, 0, 1])
        # floats equal to 0..n - 1 sort like a permutation but index no list
        with pytest.raises(InvalidParameterError):
            decide_k(build(Cycle(5)), 3, order=[0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidParameterError):
            chromatic_strong_odd(build(Cycle(3)), order=(0, 1, 2.0))
        # "degree" is the one order given by name
        with pytest.raises(InvalidParameterError, match="unknown vertex order 'random'"):
            decide_k(build(Cycle(3)), 2, order="random")
        with pytest.raises(InvalidParameterError, match="unknown vertex order 'random'"):
            chromatic_strong_odd(build(Cycle(3)), order="random")


def outcome(g):
    r = chromatic_strong_odd(g)
    return r.status, r.value, r.nodes


def search_yes_with_a_color_per_vertex(monkeypatch):
    # a strong odd witness, but with more colors than any k < n allows
    monkeypatch.setattr(strongodd.solver, "_search",
                        lambda plan, k, *budget: DecideResult("yes", Coloring(range(1, plan[0].n + 1)), 1, 0.0))


def no_class_with_one_color(monkeypatch):
    # the all-distinct coloring made one color, taken by the verifier
    monkeypatch.setattr(strongodd.solver, "is_strong_odd", lambda g, c: True)
    monkeypatch.setattr(strongodd.solver, "Coloring", lambda colors: Coloring([1] * len(colors)))


def classes_with_one_part(monkeypatch):
    # one part, below the parity bound 7, taken by the verifier
    monkeypatch.setattr(strongodd.solver, "is_strong_odd", lambda g, c: True)
    monkeypatch.setattr(strongodd._classes, "least_partition", lambda n, classes, lower, deadline: (1, [(1 << n) - 1]))


class TestOneWitnessCheck:
    """Every witness leaves the solver through one check: strong odd by the
    verifier, with a color count within the bounds its answer has proven.
    Each exit is run as it is, with the verifier rejecting every coloring,
    and with a witness outside its bounds; the last two can only come from
    a bug, so both raise InternalError.  The exits are decide_k's yes (1..k
    colors) and chromatic_strong_odd's three exact answers: K5 has no odd
    class (n..n), W14's classes decide it at the cut (the parity bound
    7..n), and C6's search says yes at its clique bound (k..k)."""

    EXITS = {
        "decide_k_yes": (lambda: decide_k(build(Wheel(9)), 4).answer, "yes", search_yes_with_a_color_per_vertex),
        "no_class": (lambda: outcome(build(Complete(5))), ("exact", 5, 0), no_class_with_one_color),
        "classes": (lambda: outcome(build(Wheel(14))), ("exact", 7, 251), classes_with_one_part),
        "search_yes": (lambda: outcome(build(Cycle(6))), ("exact", 3, 7), search_yes_with_a_color_per_vertex),
    }

    @pytest.mark.parametrize("name", EXITS)
    def test_exit_passes_its_check(self, name):
        call, want, _ = self.EXITS[name]
        assert call() == want

    @pytest.mark.parametrize("name", EXITS)
    def test_rejected_witness_raises_internal_error(self, monkeypatch, name):
        call, _, _ = self.EXITS[name]
        monkeypatch.setattr(strongodd.solver, "is_strong_odd", lambda g, c: False)
        with pytest.raises(InternalError):
            call()

    @pytest.mark.parametrize("name", EXITS)
    def test_witness_outside_its_bounds_raises_internal_error(self, monkeypatch, name):
        call, _, outside = self.EXITS[name]
        outside(monkeypatch)
        with pytest.raises(InternalError):
            call()


class TestNodeCounts:
    """Node counts on default degree order are part of the search's contract:
    every tried color is one node, whether or not the rules had already
    killed it, so a faster search must reproduce these exactly."""

    @pytest.mark.parametrize(
        "spec,k,nodes",
        [
            (Wheel(14), 6, 2_713),
            (Wheel(17), 5, 29),
            (Wheel(19), 5, 34),
            (JoinCycleEmpty(14, 4), 7, 5_447),
            (Wheel(23), 5, 41),
            (Wheel(25), 5, 46),
            (Wheel(29), 5, 53),
            (Wheel(1001), 5, 1_997),
            (BipyramidUnion(6, 8), 14, 7_265),
            (BipyramidUnion(7, 7), 14, 3_330),
            (BipyramidUnion(8, 8), 16, 11_923),
            (BipyramidUnion(8, 11), 13, 3_259),
            # the rest of the refute benchmark's pool
            (JoinCycleEmpty(19, 4), 6, 87),
            (BipyramidUnion(4, 8), 12, 2_510),
            (BipyramidUnion(5, 9), 8, 150),
            (BipyramidUnion(6, 7), 13, 2_529),
            (BipyramidUnion(9, 10), 7, 1_168),
        ],
    )
    def test_refutation_nodes(self, spec, k, nodes):
        # the budget, above the largest count here, makes a search that a
        # weakened rule has turned long fail fast
        r = decide_k(build(spec), k, Budget(max_nodes=20_000))
        assert (r.answer, r.nodes) == ("no", nodes)

    @pytest.mark.parametrize(
        "spec,k,nodes",
        [
            (JoinCycleEmpty(14, 6), 7, 8_235),
            (JoinCycleEmpty(19, 6), 6, 182),
            (JoinCycleEmpty(23, 2), 6, 44),
            (JoinCycleEmpty(23, 4), 6, 101),
            (JoinCycleEmpty(101, 6), 6, 671),
        ],
    )
    def test_even_hub_sets(self, spec, k, nodes):
        # the hubs are one class of twins and need two colors; without the
        # twin rules each of these takes from 300,000 to over 3 M nodes, so
        # the budget makes such a search fail fast
        r = decide_k(build(spec), k, Budget(max_nodes=20_000))
        assert (r.answer, r.nodes) == ("no", nodes)

    @pytest.mark.parametrize(
        "edges,order,nodes",
        [
            # two 4-cycles, 0 5 2 6 and 1 3 7 4; in each, opposite vertices are twins
            ([(0, 5), (0, 6), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (4, 7)], "degree", 24),
            # the path 0 1 2 3 and the 4-cycle 4 5 6 7
            ([(0, 1), (1, 2), (2, 3), (4, 5), (4, 7), (5, 6), (6, 7)], [5, 1, 4, 6, 3, 0, 2, 7], 17),
        ],
    )
    def test_twin_parity_at_the_colored_vertex(self, edges, order, nodes):
        # coloring u adds its color to the colors of u's class; where r - e is
        # odd at u and that would leave u's class no absent color for its
        # other neighbors, the color is killed at u itself (27 and 33 nodes
        # without that check)
        r = chromatic_strong_odd(Graph(8, edges), order=order)
        assert (r.status, r.value, r.nodes) == ("exact", 4, nodes)

    @pytest.mark.parametrize(
        "kind,n,seed,degree_order,shuffled_order",
        [
            ("planar", 14, 2, ("exact", 9, 1_586), ("exact", 9, 18_693)),
            ("planar", 16, 1, ("exact", 9, 3_219), ("exact", 9, 39_758)),
            ("planar", 20, 1, ("exact", 7, 27_766), ("exact", 7, 88_956)),
            ("gnp", 16, 1, ("exact", 7, 681), ("exact", 7, 20_596)),
            ("gnp", 18, 2, ("exact", 11, 2_318), ("exact", 11, 89_121)),
            ("gnp", 20, 3, ("exact", 8, 7_991), ("exact", 8, 131_301)),
        ],
    )
    @pytest.mark.usefixtures("search_alone")
    def test_random_graph_nodes(self, kind, n, seed, degree_order, shuffled_order):
        # planar: a stacked triangulation with 20 % of its edges dropped;
        # gnp: G(n, 0.3); the same rng then draws the shuffled vertex order
        rng = random.Random(seed)
        g = stacked_triangulation(n, rng) if kind == "planar" else random_graph(n, 0.3, rng)
        order = list(range(n))
        rng.shuffle(order)
        for o, pinned in (("degree", degree_order), (order, shuffled_order)):
            r = chromatic_strong_odd(g, order=o)
            assert (r.status, r.value, r.nodes) == pinned

    def test_budget_of_exactly_the_node_count_suffices(self):
        r = decide_k(build(Wheel(17)), 5, Budget(max_nodes=29))
        assert (r.answer, r.nodes, r.reason) == ("no", 29, None)

    def test_budget_one_short_times_out_just_past_it(self):
        r = decide_k(build(Wheel(17)), 5, Budget(max_nodes=28))
        assert (r.answer, r.nodes, r.reason) == ("timeout", 29, "max-nodes")

    def test_long_cycle_needs_no_deep_recursion(self):
        # the listing of odd classes cannot take Cycle(5000), so the
        # searches are never cut and the count is theirs alone
        g = build(Cycle(5000))
        assert not listable(g)
        r = chromatic_strong_odd(g)
        assert (r.status, r.value, r.nodes) == ("exact", 4, 10_004)
        assert is_strong_odd(g, r.witness)


# every family member with at most 10 vertices
SMALL_FAMILY_MEMBERS = (
    [Cycle(n) for n in range(3, 11)]
    + [Empty(m) for m in range(1, 11)]
    + [Complete(k) for k in range(1, 11)]
    + [Wheel(n) for n in range(3, 10)]
    + [JoinCycleEmpty(n, m) for n in range(3, 10) for m in range(1, 11 - n)]
    + [Bipyramid(n) for n in range(3, 9)]
    + [BipyramidUnion(m, n) for m in range(3, 5) for n in range(m, 8 - m)]
)


def assert_decides_every_k(g, *orders):
    """decide_k says yes exactly from the oracle's value on, at every k, in
    degree order, index order and the given orders, so no rule kills a
    coloring that exists at some k."""
    value = brute_force_so(g).value
    for order in ("degree", list(range(g.n)), *orders):
        answers = [decide_k(g, k, order=order).answer for k in range(1, g.n + 1)]
        assert answers == ["no"] * (value - 1) + ["yes"] * (g.n + 1 - value), order


def planted_triple_graph(n, p, rng):
    """G(n, p) plus a vertex n whose neighborhood is N(a) ^ N(b) for two
    non-isolated vertices a and b with different neighborhoods, so that
    {a, b, n} is a dependent triple."""
    while True:
        g = random_graph(n, p, rng)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if g.adj[a] and g.adj[b] and g.adj[a] != g.adj[b]]
        if pairs:
            a, b = rng.choice(pairs)
            extra = [(w, n) for w in sorted(set(g.adj[a]) ^ set(g.adj[b]))]
            return Graph(n + 1, g.edges() + extra)


def planted_twin_graph(n, p, rng):
    """G(n - copies, p) plus one or two copies, new vertices that take the
    neighborhood of a non-isolated vertex and so are twins of it; both
    copies may be of the same vertex, which makes a class of three."""
    copies = rng.randint(1, 2)
    while True:
        g = random_graph(n - copies, p, rng)
        sources = [v for v in range(g.n) if g.adj[v]]
        if sources:
            picked = [rng.choice(sources) for _ in range(copies)]
            extra = [(w, g.n + i) for i, v in enumerate(picked) for w in g.adj[v]]
            return Graph(n, g.edges() + extra)


def dependent_triples_by_definition(g):
    """_dependent_triples read off its definition: every set of three
    distinct non-isolated vertices, then the third member for each vertex
    that sees the other two, named by the lowest vertex with its
    neighborhood."""
    nb = [set(a) for a in g.adj]
    lowest = {}
    for v in range(g.n):
        lowest.setdefault(frozenset(nb[v]), v)
    third = [set() for _ in range(g.n)]
    found = False
    for a, b, c in itertools.combinations(range(g.n), 3):
        if nb[a] and nb[b] and nb[c] and nb[a] ^ nb[b] == nb[c]:
            found = True
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                for u in nb[x] & nb[y]:
                    third[u].add(lowest[frozenset(nb[z])])
    return [tuple(sorted(t)) for t in third] if found else ()


def complete_tripartite(p):
    parts = [range(i * p, (i + 1) * p) for i in range(3)]
    return Graph(3 * p, [(a, b) for i, j in ((0, 1), (0, 2), (1, 2)) for a in parts[i] for b in parts[j]])


def subset_graph(d):
    """Vertices 0..d-1 and, for each nonempty s < 2**d, a vertex d + s - 1
    beside the vertices of the bits of s: no twins, and about 4**d / 6
    dependent triples."""
    return Graph(d + 2**d - 1, [(b, d + s - 1) for s in range(1, 2**d) for b in range(d) if s >> b & 1])


class TestDependentTriples:
    @pytest.mark.parametrize("n,p", [(7, 0.3), (7, 0.5), (11, 0.3), (39, 0.08), (39, 0.15)])
    def test_matches_definition(self, n, p):
        rng = random.Random(n * 100 + int(p * 100))
        for _ in range(15):
            planted = planted_triple_graph(n, p, rng)
            assert _dependent_triples(planted, _twin_classes(planted)) == dependent_triples_by_definition(planted) != ()
            g = random_graph(n + 1, p, rng)
            assert _dependent_triples(g, _twin_classes(g)) == dependent_triples_by_definition(g)

    def test_twins_are_named_by_the_lowest(self):
        # copies of vertices of a planted triple graph are twins of them
        rng = random.Random(5)
        for _ in range(15):
            g = planted_triple_graph(8, 0.3, rng)
            copies = rng.sample(range(g.n), 4)
            extra = [(w, g.n + i) for i, v in enumerate(copies) for w in g.adj[v]]
            twinned = Graph(g.n + len(copies), g.edges() + extra)
            assert _dependent_triples(twinned, _twin_classes(twinned)) == dependent_triples_by_definition(twinned) != ()

    def test_complete_tripartite(self):
        # one triple of twin classes: u sees the two parts it is not in, and
        # the third member is the lowest vertex of its own part
        g = complete_tripartite(3)
        assert _dependent_triples(g, _twin_classes(g)) == [(0,)] * 3 + [(3,)] * 3 + [(6,)] * 3

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 8), (8, 11), (8, 101)])
    def test_union_apexes(self, m, n):
        # {x1, y, x2} = {m, m+1, m+n+2}: each cycle vertex sees its own apex
        # and y, so the rule keeps the colors around the other apex off it
        g = build(BipyramidUnion(m, n))
        third = _dependent_triples(g, _twin_classes(g))
        assert all(m + n + 2 in third[u] for u in range(m))
        assert all(m in third[u] for u in range(m + 2, m + n + 2))

    def test_none_on_cycles_wheels_and_joins(self):
        specs = ([Cycle(n) for n in range(4, 40) if n != 6] + [Wheel(n) for n in range(5, 40)]
                 + [JoinCycleEmpty(n, m) for n in range(5, 20) for m in range(1, 5)])
        for spec in specs:
            g = build(spec)
            assert _dependent_triples(g, _twin_classes(g)) == (), spec

    def test_six_cycle(self):
        # {0, 2, 4} and {1, 3, 5} are the triples; u sees two members of the
        # one it is not in, and the third member is u's antipode
        g = build(Cycle(6))
        assert _dependent_triples(g, _twin_classes(g)) == [((u + 3) % 6,) for u in range(6)]

    def test_solve_enumerates_once(self, monkeypatch):
        calls = []
        enumerate_triples = strongodd.solver._dependent_triples
        monkeypatch.setattr(
            strongodd.solver, "_dependent_triples", lambda g, *a: calls.append(g) or enumerate_triples(g, *a))
        r = chromatic_strong_odd(build(BipyramidUnion(3, 3)))
        assert r.value == 7 and len(calls) == 1


class TestSoundnessAtEveryK:
    @pytest.mark.parametrize("p", [0.2, 0.35, 0.5, 0.7])
    def test_random_eight_vertices(self, p):
        rng = random.Random(int(p * 100))
        for _ in range(25):
            assert_decides_every_k(random_graph(8, p, rng))

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_planted_dependent_triple(self, p):
        rng = random.Random(int(p * 100) + 1)
        for _ in range(25):
            assert_decides_every_k(planted_triple_graph(7, p, rng))

    @pytest.mark.parametrize("n,p", [(7, 0.3), (7, 0.6), (8, 0.3), (8, 0.5), (9, 0.4)])
    def test_planted_twins(self, n, p):
        # twins in every position of the three orders, so the twin order
        # and twin parity meet twins colored before, after and between others
        rng = random.Random(n * 100 + int(p * 100))
        for _ in range(12):
            g = planted_twin_graph(n, p, rng)
            order = list(range(g.n))
            rng.shuffle(order)
            assert_decides_every_k(g, order)

    @pytest.mark.parametrize("spec", SMALL_FAMILY_MEMBERS, ids=repr)
    def test_family_member(self, spec):
        assert_decides_every_k(build(spec))


class TestChromatic:
    def test_c4(self):
        r = chromatic_strong_odd(build(Cycle(4)))
        assert r.status == "exact" and r.value == 4

    def test_complete_graphs(self):
        for n in range(1, 7):
            r = chromatic_strong_odd(build(Complete(n)))
            assert r.value == n

    def test_w9(self):
        assert chromatic_strong_odd(build(Wheel(9))).value == 4

    def test_wheel_typo_pinned(self):
        # the 5-valued wheel case excludes 14, not 15
        assert chromatic_strong_odd(build(Wheel(14))).value == 7
        assert chromatic_strong_odd(build(Wheel(15))).value == 4

    def test_edgeless(self):
        r = chromatic_strong_odd(build(Empty(5)))
        assert r.value == 1
        assert chromatic_strong_odd(Graph(1)).value == 1

    def test_exact_invariants(self):
        r = chromatic_strong_odd(build(Wheel(10)))
        assert r.status == "exact"
        assert r.lower == r.upper == r.value
        assert is_strong_odd(build(Wheel(10)), r.witness)
        assert len(r.witness.palette) == r.value

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            chromatic_strong_odd(Graph(0))

    def test_node_budget_returns_bounds(self):
        g = build(Wheel(12))
        r = chromatic_strong_odd(g, Budget(max_nodes=5))
        assert r.status == "bounds"
        assert r.lower <= r.upper == g.n
        assert is_strong_odd(g, r.witness)

    def test_time_budget_returns_timeout(self):
        g = build(Wheel(14))
        r = chromatic_strong_odd(g, Budget(max_seconds=1e-4))
        assert r.status in ("timeout", "exact")  # absurdly small budget; exact only if machine is instant
        if r.status == "timeout":
            assert r.value is None and r.lower <= r.upper

    def test_chromatic_between_clique_and_order(self):
        for g in small_corpus(seed=5, count=25):
            if g.n == 0:
                continue
            r = chromatic_strong_odd(g)
            assert 1 <= r.value <= g.n

    def test_w13_exact(self):
        assert chromatic_strong_odd(build(Wheel(13))).value == 6

    def test_proper_chromatic_is_a_lower_bound(self):
        def proper_chromatic(g):
            from strongodd import is_proper
            from strongodd.solver import _canonical_colorings

            for k in range(1, g.n + 1):
                if any(is_proper(g, Coloring(a)) for a in _canonical_colorings(g.n, k)):
                    return k
            raise AssertionError

        for g in small_corpus(seed=11, count=20):
            if g.n == 0:
                continue
            assert proper_chromatic(g) <= chromatic_strong_odd(g).value

    def test_concurrent_solves_share_graphs_safely(self):
        from concurrent.futures import ThreadPoolExecutor

        g = build(Wheel(11))
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(lambda _: chromatic_strong_odd(g).value, range(8)))
        assert values == [6] * 8


def greedy_clique_from_every_seed(g):
    """_clique_lower_bound without skipping seeds: the largest of the
    cliques grown greedily from each vertex, adding the candidate of highest
    degree, then lowest index."""
    best = 0
    for seed in range(g.n):
        clique, cand = [seed], set(g.adj[seed])
        while cand:
            v = max(cand, key=lambda w: (len(g.adj[w]), -w))
            clique.append(v)
            cand &= set(g.adj[v])
        best = max(best, len(clique))
    return best


class TestCliqueBound:
    def test_skipping_low_degree_seeds_keeps_the_bound(self):
        # a seed of degree below the best clique so far grows at most
        # deg + 1 <= best vertices, so skipping it changes nothing
        rng = random.Random(21)
        graphs = [random_graph(rng.randint(1, 40), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng) for _ in range(150)]
        graphs += [stacked_triangulation(rng.randint(3, 40), rng) for _ in range(50)]
        graphs += [build(s) for s in SMALL_FAMILY_MEMBERS + [Wheel(30), BipyramidUnion(8, 11), Complete(20)]]
        for g in graphs:
            assert _clique_lower_bound(_twin_classes(g)[0]) == greedy_clique_from_every_seed(g)

    def test_narrowing_beside_a_hub_keeps_the_bound(self):
        # beside a hub the few candidates meet its long neighborhood: all of
        # them lie in it on wheels, not the other hubs on joins, and a
        # random share on sparse graphs with hubs planted beside 90 % of
        # the vertices.  First a hub h over a triangle-free Moebius ladder
        # on 0..59 and a triangle 60, 61, 62: from h the greedy clique takes
        # a ladder vertex and stops at 3, so only seeds in the triangle,
        # whose candidates narrow through h's neighborhood, find the clique
        # of 4
        h = 63
        edges = [(i, (i + 1) % 60) for i in range(60)] + [(i, i + 30) for i in range(30)]
        edges += [(60, 61), (60, 62), (61, 62)] + [(v, h) for v in range(h)]
        ladder = Graph(64, edges)
        assert _clique_lower_bound(_twin_classes(ladder)[0]) == greedy_clique_from_every_seed(ladder) == 4
        specs = [Wheel(n) for n in (50, 101, 300)]
        specs += [JoinCycleEmpty(n, m) for n, m in ((60, 3), (201, 5), (300, 2))]
        specs += [BipyramidUnion(m, n) for m, n in ((3, 200), (6, 295), (8, 100))]
        graphs = [build(s) for s in specs]
        rng = random.Random(22)
        for _ in range(20):
            g = random_graph(rng.randint(40, 200), 0.05, rng)
            hubs = rng.sample(range(g.n), rng.randint(1, 3))
            extra = [(min(h, v), max(h, v)) for h in hubs for v in range(g.n) if v != h and rng.random() < 0.9]
            graphs.append(Graph(g.n, sorted(set(g.edges() + extra))))
        for g in graphs:
            assert _clique_lower_bound(_twin_classes(g)[0]) == greedy_clique_from_every_seed(g)

    @pytest.mark.parametrize("spec, nodes", [(Wheel(4001), 16_001), (JoinCycleEmpty(4001, 3), 16_025)], ids=repr)
    def test_long_hub_families_solve(self, spec, nodes):
        # every cycle vertex sits beside the hubs, whose long neighborhoods
        # the clique narrows through from every seed
        r = chromatic_strong_odd(build(spec))
        assert (r.status, r.value, r.nodes) == ("exact", 6, nodes)


@pytest.mark.usefixtures("search_alone")
class TestOneScan:
    """chromatic_strong_odd builds one search plan and searches it at k,
    k + 1, ..., each time from no colored vertex; that is the same search as
    one decide_k call per k, with one budget."""

    @staticmethod
    def scanned(g, order):
        if order == "index":  # the identity permutation
            order = list(range(g.n))
        r = chromatic_strong_odd(g, order=order)
        start = max(1, _clique_lower_bound(_twin_classes(g)[0]))
        return r, [decide_k(g, k, order=order) for k in range(start, r.value + 1)]

    @pytest.mark.parametrize("order", ["degree", "index"])
    def test_same_search_as_separate_calls(self, order):
        graphs = [g for g in small_corpus(seed=31, count=40) if g.n] + [build(s) for s in SMALL_FAMILY_MEMBERS]
        for g in graphs:
            r, calls = self.scanned(g, order)
            assert r.nodes == sum(c.nodes for c in calls)
            assert [c.answer for c in calls] == ["no"] * (len(calls) - 1) + ["yes"]
            assert r.witness == calls[-1].witness

    @pytest.mark.parametrize("spec", [Wheel(14), JoinCycleEmpty(7, 2), BipyramidUnion(3, 4), Cycle(6)], ids=repr)
    def test_budget_spent_exactly_by_the_refutations(self, spec):
        # the budget is looked at before each k's first node, so the solve
        # stops before counting a node of the value's own search
        g = build(spec)
        r, calls = self.scanned(g, "degree")
        refuted = r.nodes - calls[-1].nodes
        assert refuted > 0
        s = chromatic_strong_odd(g, Budget(max_nodes=refuted))
        assert (s.status, s.nodes, s.lower, s.upper, s.value) == ("bounds", refuted, r.value, g.n, None)
        assert s.witness == Coloring(range(1, g.n + 1))
        t = chromatic_strong_odd(g, Budget(max_nodes=r.nodes))
        assert (t.status, t.value, t.nodes, t.witness) == ("exact", r.value, r.nodes, r.witness)


@pytest.mark.usefixtures("search_alone")
class TestSearchDigest:
    """One sha256 over everything the search returns on a seeded corpus, in
    degree order and in its reverse: statuses, bounds, answers, node counts,
    reasons and witnesses.  A change that keeps the search the same keeps
    the digest; one that changes what any rule prunes, the order or the
    counting does not.  The corpus is drawn with random.Random alone, so the
    digest does not depend on the Python version."""

    DIGEST = "f6fd1a80a6333a3d98a18049638b192f4286427f670bb7d04a9ea8a6191cbaea"

    @staticmethod
    def corpus():
        rng = random.Random(14)
        graphs = []
        for i in range(128):
            n = rng.randint(4, 14)
            if i % 4 == 0:
                graphs.append(random_graph(n, 0.3, rng))
            elif i % 4 == 1:
                graphs.append(random_graph(n, 0.5, rng))
            elif i % 4 == 2:
                graphs.append(stacked_triangulation(n, rng))
            else:
                graphs.append(planted_twin_graph(n, 0.4, rng))
        specs = ([Wheel(n) for n in range(4, 20, 3)] + [JoinCycleEmpty(n, m) for n in (5, 7, 9, 14) for m in (1, 2, 4)]
                 + [BipyramidUnion(m, n) for m, n in ((3, 3), (3, 6), (4, 5), (4, 8), (5, 9))])
        return graphs + [build(s) for s in specs]

    @staticmethod
    def results(g, order):
        # the solve under a node budget, then decide_k around the value, on
        # a budget above every count here (11,370 at most) and one node
        # short, so a rule weakened by a bug fails instead of running long
        r = chromatic_strong_odd(g, Budget(max_nodes=20_000), order)
        out = [(r.status, r.lower, r.upper, r.value, r.nodes, r.witness.colors)]
        if r.status == "exact":
            for k in range(max(1, r.value - 1), r.value + 2):
                d = decide_k(g, k, Budget(max_nodes=20_000), order)
                out.append((k, d.answer, d.nodes, d.reason, d.witness and d.witness.colors))
                if d.nodes > 1:
                    d = decide_k(g, k, Budget(max_nodes=d.nodes - 1), order)
                    out.append((k, d.answer, d.nodes, d.reason, d.witness and d.witness.colors))
        return out

    def test_digest(self):
        h = hashlib.sha256()
        for g in self.corpus():
            for order in ("degree", _vertex_order(g, "degree")[::-1]):
                h.update(repr(self.results(g, order)).encode())
        assert h.hexdigest() == self.DIGEST


@pytest.mark.usefixtures("search_alone")
class TestDensePin:
    """One sha256 over what the search returns on dense graphs under node
    budgets, where most neighbors of the vertex being colored still have
    three or more uncolored neighbors and k is near the number of colored
    ones, so counting, parity and twin parity decide most of the pruning.
    The corpus is six G(n, 0.5) with n = 22-28 and two graphs with twin
    classes of three and four, drawn with random.Random alone."""

    DIGEST = "d3c5c0a06af1ec6d15e7788a02d9229e8403fd5681e328b55601d6a581fa9e27"

    @staticmethod
    def with_classes(n, p, sizes, rng):
        """G(n - extra, p) where one vertex per entry of sizes gains twins
        until its class has that size."""
        g = random_graph(n - sum(sizes) + len(sizes), p, rng)
        sources = rng.sample([v for v in range(g.n) if g.adj[v]], len(sizes))
        extra, new = [], g.n
        for v, size in zip(sources, sizes):
            for _ in range(size - 1):
                extra += [(w, new) for w in g.adj[v]]
                new += 1
        return Graph(n, g.edges() + extra)

    def test_digest(self):
        rng = random.Random(15)
        graphs = [random_graph(n, 0.5, rng) for n in (22, 23, 24, 26, 27, 28)]
        graphs += [self.with_classes(20, 0.5, (3, 4), rng), self.with_classes(21, 0.4, (3, 3, 2), rng)]
        h = hashlib.sha256()
        for g in graphs:
            r = chromatic_strong_odd(g, Budget(max_nodes=20_000))
            out = [(r.status, r.lower, r.nodes)]
            for k in range(max(1, r.lower - 1), r.lower + 2):
                d = decide_k(g, k, Budget(max_nodes=10_000))
                out.append((k, d.answer, d.nodes))
            h.update(repr(out).encode())
        assert h.hexdigest() == self.DIGEST


def odd_classes_by_definition(g):
    """odd_classes read off its definition: every independent set of two or
    more vertices that each vertex sees none or an odd number of times."""
    out = []
    for size in range(2, g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if all(not set(g.adj[v]) & set(s) for v in s) and all(
                    len(set(a) & set(s)) in (0, 1) or len(set(a) & set(s)) % 2 for a in g.adj):
                out.append(sum(1 << v for v in s))
    return sorted(out)


def dense_graph(n, seed):
    return random_graph(n, 0.5, random.Random(seed))


class TestOddClasses:
    """The second engine: a least partition of V into odd classes."""

    @staticmethod
    def corpus():
        rng = random.Random(17)
        graphs = []
        for i in range(300):
            n = rng.randint(3, 14)
            if i % 3 == 0:
                graphs.append(random_graph(n, rng.choice([0.2, 0.3, 0.4, 0.5, 0.6, 0.7]), rng))
            elif i % 3 == 1:
                graphs.append(stacked_triangulation(n, rng))
            else:
                graphs.append(planted_twin_graph(max(n, 4), rng.choice([0.3, 0.5]), rng))
        return graphs

    @pytest.mark.usefixtures("search_alone")
    def test_agrees_with_the_search_and_the_oracle(self):
        decided = 0
        for g in self.corpus():
            value = chromatic_strong_odd(g).value
            if g.n <= 9:
                assert brute_force_so(g).value == value
            classes = odd_classes(g)  # every listing here completes
            lower = parity_bound(g, classes)
            assert lower <= value
            found, parts = least_partition(g.n, classes, lower)
            if parts is None:
                assert found <= value
            else:
                witness = Coloring(part_colors(g.n, parts))
                assert len(parts) == value == len(witness.palette) and is_strong_odd(g, witness)
                decided += 1
        assert decided >= 295

    def test_listing_matches_definition(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.4, 0.6]), rng)
            assert sorted(odd_classes(g)) == odd_classes_by_definition(g)

    @pytest.mark.parametrize("m,n,value", [(6, 8, 15), (7, 7, 15), (7, 8, 16), (8, 8, 17)])
    def test_special_pairs(self, m, n, value):
        # the paper's one-point unions that need 15 to 17 colors, proved
        # sharing no pruning rule with the search
        g = build(BipyramidUnion(m, n))
        classes = odd_classes(g)
        _, parts = least_partition(g.n, classes, parity_bound(g, classes))
        witness = Coloring(part_colors(g.n, parts))
        assert len(parts) == value == len(witness.palette) and is_strong_odd(g, witness)

    def test_long_cycle_lists_no_set(self):
        # its 4,999 singletons and 12.5 M independent pairs are far past the
        # listing's limit, so it gives up before visiting any
        g = build(Cycle(4999))
        t = perf_counter()
        assert not listable(g) and odd_classes(g) is None
        assert perf_counter() - t < 0.1

    def test_partition_of_many_classes_needs_no_deep_recursion(self):
        # K_1100 and two isolated vertices a and b: the odd classes are
        # {a, b} and each vertex v of K_1100 with a, b or both, and a least
        # partition has 1,100 classes, as many as the pair bound
        n = 1102
        a, b = 1 << 1100, 1 << 1101
        classes = [a | b] + [x | 1 << v for v in range(1100) for x in (a, b, a | b)]
        bound, parts = least_partition(n, classes, 1)
        assert bound == len(parts) == 1100 and sum(parts) == (1 << n) - 1

    def test_dense_graphs_decide_at_the_cut(self):
        # these have no odd class of two or more vertices, so every color
        # class is a singleton and the value is n, decided before any search
        for seed, n in enumerate(range(24, 29)):
            g = dense_graph(n, seed)
            assert has_odd_class(g) is False
            r = chromatic_strong_odd(g, Budget(max_nodes=50_000))
            assert (r.status, r.nodes, r.value) == ("exact", 0, n)
            assert is_strong_odd(g, r.witness) and len(r.witness.palette) == r.value

    def test_a_budget_at_the_cut_keeps_the_search(self):
        # the classes, and the check before the search with them, come in
        # only when the caller's budget is above the cut
        g = dense_graph(26, 1)
        r = chromatic_strong_odd(g, Budget(max_nodes=250))
        assert (r.status, r.nodes) == ("bounds", 251)
        r = chromatic_strong_odd(g, Budget(max_nodes=251))
        assert (r.status, r.nodes) == ("exact", 0)

    def test_parity_bound_decides_the_wheel_early(self):
        # W14's classes give the pair bound 4, but each holds at most 3 of
        # the hub's 14 neighbors, so they need 6 colors and the hub a 7th;
        # with that bound the partition search finds 7 at once, where it
        # runs out from the pair bound and the search alone takes 5,718 nodes
        g = build(Wheel(14))
        classes = odd_classes(g)
        assert parity_bound(g, classes) == 7 and least_partition(g.n, classes, 1) == (4, None)
        r = chromatic_strong_odd(g)
        assert (r.status, r.value, r.nodes) == ("exact", 7, 251)

    @pytest.mark.parametrize("g,value", [
        (build(JoinCycleEmpty(14, 4)), 8),
        (stacked_triangulation(32, random.Random(20)), 6),
    ], ids=["J(14,4)", "st32"])
    def test_one_listing_per_solve(self, monkeypatch, g, value):
        # J(14, 4)'s listing completes and its partition search runs out;
        # the stacked triangulation's listing gives up.  Either way the
        # search goes on to the value without listing the classes again.
        # Only full listings count, not has_odd_class's look for a first
        # class, which passes most
        listings = []
        listing = strongodd._classes.odd_classes

        def counted(g, deadline=None, most=None):
            if most is None:
                listings.append(g)
            return listing(g, deadline, most)

        monkeypatch.setattr(strongodd._classes, "odd_classes", counted)
        r = chromatic_strong_odd(g)
        assert (r.status, r.value, len(listings)) == ("exact", value, 1)

    def test_interrupted_k_is_searched_again(self, monkeypatch):
        # a planar graph the listing can take but gives up on, past
        # MAX_SETS sets, so the k that the cut stopped is searched again: its
        # stopped search takes 182 nodes above the search alone, for the
        # same value and witness
        g = stacked_triangulation(32, random.Random(20))
        assert listable(g) and odd_classes(g) is None
        r = chromatic_strong_odd(g)
        assert (r.status, r.value, r.nodes) == ("exact", 6, 3_858)
        assert is_strong_odd(g, r.witness)
        monkeypatch.setattr(strongodd.solver, "_CLASSES_AFTER", 1 << 62)
        s = chromatic_strong_odd(g)
        assert (s.status, s.value, s.nodes, s.witness) == ("exact", 6, 3_676, r.witness)

    def test_unfinished_partition_raises_the_lower_bound(self, monkeypatch):
        # the classes of U(8, 11) give the pair bound 12, but the partition
        # search does not finish; the search goes on from k = 12 and stops
        # one node past the budget, where the search alone gets to k = 8
        g = build(BipyramidUnion(8, 11))
        classes = odd_classes(g)
        assert least_partition(g.n, classes, parity_bound(g, classes)) == (12, None)
        r = chromatic_strong_odd(g, Budget(max_nodes=1_001))
        assert (r.status, r.lower, r.nodes) == ("bounds", 12, 1_002)
        monkeypatch.setattr(strongodd.solver, "_CLASSES_AFTER", 1 << 62)
        r = chromatic_strong_odd(g, Budget(max_nodes=1_001))
        assert (r.status, r.lower) == ("bounds", 8)

    def test_deadline_during_the_listing_ends_in_timeout(self, monkeypatch):
        # a clock that jumps past the deadline once the walk before the
        # search has looked at it a second time: the solve times out instead
        # of giving the exact value late
        g = dense_graph(28, 3)
        assert chromatic_strong_odd(g, Budget(max_seconds=10)).status == "exact"
        now = [0.0]
        looks = []

        def listing_clock():
            looks.append(now[0])
            if len(looks) > 1:
                now[0] = 1e9
            return now[0]

        monkeypatch.setattr(strongodd.solver, "perf_counter", lambda: now[0])
        monkeypatch.setattr(strongodd._classes, "perf_counter", listing_clock)
        r = chromatic_strong_odd(g, Budget(max_seconds=10))
        assert (r.status, r.value, r.nodes) == ("timeout", None, 0) and len(looks) == 2

    def test_partition_search_stops_at_its_deadline(self, monkeypatch):
        # W14's partition search runs out of states; with a deadline it looks
        # at the clock in every state and stops at the first look past it,
        # with the pair bound, or with lower when no state was formed
        g = build(Wheel(14))
        classes = odd_classes(g)
        assert least_partition(g.n, classes, 1) == (4, None)
        looks = []

        def clock():
            looks.append(None)
            return 0.0 if len(looks) <= 5 else 2.0

        monkeypatch.setattr(strongodd._classes, "perf_counter", clock)
        assert least_partition(g.n, classes, 1, 1.0) == (4, None) and len(looks) == 6
        looks.clear()
        assert least_partition(g.n, classes, 3, -1.0) == (3, None) and len(looks) == 1

    def test_deadline_during_the_partition_search_ends_in_timeout(self, monkeypatch):
        # a clock that jumps past the deadline at the fifth state of the
        # classes' partition search: the solve times out there instead
        # of running out the search and deciding late
        g = build(JoinCycleEmpty(14, 4))
        listing = []
        monkeypatch.setattr(strongodd._classes, "perf_counter", lambda: listing.append(None) or 0.0)
        assert odd_classes(g, 10.0) is not None
        now = [0.0]
        looks = []

        def partition_clock():
            looks.append(now[0])
            if len(looks) >= len(listing) + 5:
                now[0] = 1e9
            return now[0]

        monkeypatch.setattr(strongodd.solver, "perf_counter", lambda: now[0])
        monkeypatch.setattr(strongodd._classes, "perf_counter", partition_clock)
        r = chromatic_strong_odd(g, Budget(max_seconds=10))
        # the parity bound 7 is above the pair bound 4 and the k = 6 the
        # search had reached within its first 250 nodes
        assert (r.status, r.lower, r.value, r.nodes) == ("timeout", 7, None, 251)
        assert len(looks) == len(listing) + 5


class TestClassesDigest:
    """One sha256 over what chromatic_strong_odd returns with the odd classes
    in play, in degree order and in its reverse, under a node budget:
    statuses, bounds, node counts and witnesses.  The corpus holds dense
    graphs, four with no odd class of two or more vertices, decided before
    any search, and one that the classes decide; sparser ones that the
    search decides within the cut, that the classes decide or that the
    search decides after the classes give up; and family members whose
    partition search does not finish."""

    DIGEST = "ac82170f0d898d695f08518f10277c2a96e3db1e3dc99f64fc837fabaf040d94"

    def test_digest(self):
        rng = random.Random(16)
        graphs = [random_graph(n, 0.5, rng) for n in (20, 22, 24, 26, 28)]
        graphs += [random_graph(n, 0.3, rng) for n in (14, 16, 18)]
        graphs += [stacked_triangulation(n, rng) for n in (14, 16, 18)]
        graphs += [build(s) for s in (Wheel(14), JoinCycleEmpty(14, 6), BipyramidUnion(8, 11), BipyramidUnion(6, 8))]
        h = hashlib.sha256()
        for g in graphs:
            for order in ("degree", _vertex_order(g, "degree")[::-1]):
                r = chromatic_strong_odd(g, Budget(max_nodes=20_000), order)
                h.update(repr((r.status, r.lower, r.upper, r.value, r.nodes, r.witness.colors)).encode())
        assert h.hexdigest() == self.DIGEST


class TestPlanDigest:
    """One sha256 over the three tables of _plan (ones, twos and many) on a
    seeded corpus, the paper's family members and a long cycle, at k = the
    clique bound and k + 2.  Rows are compared as lists, so how an empty row
    is stored does not matter; what each row holds, and in what order, does."""

    DIGEST = "eddd38b5c22d7bc3ee43425647fd09019dee82f85367264c0cae70e0228a9be1"

    def test_digest(self):
        rng = random.Random(19)
        graphs = [random_graph(rng.randint(4, 16), rng.choice([0.2, 0.4, 0.6]), rng) for _ in range(20)]
        graphs += [stacked_triangulation(rng.randint(5, 30), rng) for _ in range(10)]
        graphs += [planted_twin_graph(rng.randint(6, 16), 0.4, rng) for _ in range(10)]
        graphs += [build(s) for s in (Wheel(14), JoinCycleEmpty(14, 4), BipyramidUnion(6, 8), Cycle(1258))]
        h = hashlib.sha256()
        for g in graphs:
            seq = _vertex_order(g, "degree")
            lower, at_lower = _plan(g, seq, None, None)
            for plan in (at_lower, _plan(g, seq, lower + 2, None)[1]):
                _, _, _, _, _, _, ones, twos, many = plan
                h.update(repr([[list(row) for row in table] for table in (ones, twos, many)]).encode())
        assert h.hexdigest() == self.DIGEST


class TestListingDigest:
    """One sha256 over odd_classes(g) as returned, order included, on seeded
    G(n, p), stacked triangulations, planted twins and family members: None
    where the listing gives up past MAX_SETS sets."""

    DIGEST = "01181eb1bcdb6dee9bad900396b85e7c78c27f07ca0f1c47789f4566235e7ba4"

    @staticmethod
    def corpus():
        rng = random.Random(21)
        graphs = [random_graph(n, p, rng) for n in range(5, 25) for p in (0.3, 0.6)]
        graphs += [stacked_triangulation(rng.randint(5, 32), rng) for _ in range(20)]
        graphs.append(stacked_triangulation(32, random.Random(20)))
        graphs += [planted_twin_graph(rng.randint(6, 20), rng.choice([0.3, 0.5]), rng) for _ in range(8)]
        graphs += [build(s) for s in (Wheel(14), Wheel(17), Wheel(20), Wheel(23), JoinCycleEmpty(19, 4),
                                      BipyramidUnion(8, 11))]
        return graphs

    def test_digest(self):
        h = hashlib.sha256()
        gave_up = 0
        for g in self.corpus():
            classes = odd_classes(g)
            gave_up += classes is None
            h.update(repr(classes).encode())
        assert gave_up >= 1
        assert h.hexdigest() == self.DIGEST


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_listing_matches_definition_on_any_small_graph(g):
    assert sorted(odd_classes(g)) == odd_classes_by_definition(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9))
def test_parity_bound_is_at_most_the_value_on_any_small_graph(g):
    assert parity_bound(g, odd_classes(g)) <= brute_force_so(g).value


class TestNoOddClass:
    """The check before the search: a graph with no odd class of two or more
    vertices has only singletons for color classes, so its value is n."""

    @staticmethod
    def corpus():
        rng = random.Random(23)
        graphs = []
        for i in range(240):
            n = rng.randint(1, 9)
            if i % 3 == 0:
                graphs.append(random_graph(n, rng.choice([0.3, 0.5, 0.7, 0.8, 0.9]), rng))
            elif i % 3 == 1:
                graphs.append(stacked_triangulation(max(n, 3), rng))
            else:
                graphs.append(planted_twin_graph(max(n, 4), rng.choice([0.5, 0.7]), rng))
        return graphs + [build(s) for s in (Cycle(4), Cycle(5), Cycle(7), Complete(6), Wheel(5), Wheel(8))]

    def test_no_class_exactly_when_the_value_is_n(self):
        seen = {True: 0, False: 0}
        for g in self.corpus():
            has = has_odd_class(g)
            assert (has is False) == (brute_force_so(g).value == g.n)
            seen[has] += 1
            r = chromatic_strong_odd(g)
            if not has:
                assert (r.status, r.lower, r.upper, r.value, r.nodes) == ("exact", g.n, g.n, g.n, 0)
                assert r.witness == Coloring(range(1, g.n + 1))
            else:
                assert r.status == "exact" and r.value < g.n
        assert min(seen.values()) >= 40

    def test_quick_exit_and_the_walk_agree(self):
        # the quick exit finds an odd pair exactly when the listing holds a
        # class of two vertices, and the check finds a class exactly when
        # the listing holds one
        rng = random.Random(24)
        quick = 0
        for _ in range(200):
            g = random_graph(rng.randint(1, 16), rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
            classes = odd_classes(g)
            pair = strongodd._classes._odd_pair(g)
            assert pair == any(c.bit_count() == 2 for c in classes)
            assert has_odd_class(g) == bool(classes)
            quick += pair
        assert 50 <= quick <= 150

    def test_a_deadline_inside_the_walk_gives_up(self, monkeypatch):
        # no odd pair, so the walk runs, and stops at its first look at a
        # clock past the deadline; an odd pair answers without the clock
        g = dense_graph(28, 3)
        assert not strongodd._classes._odd_pair(g)
        assert has_odd_class(g, -1.0) is None and has_odd_class(g) is False
        looks = []
        monkeypatch.setattr(strongodd._classes, "perf_counter", lambda: looks.append(None) or 1e9)
        assert has_odd_class(build(Cycle(6)), 1.0) is True and not looks

    def test_a_walk_past_max_sets_leaves_the_solve_to_the_search(self, monkeypatch):
        g = dense_graph(26, 2)
        assert has_odd_class(g) is False
        monkeypatch.setattr(strongodd._classes, "MAX_SETS", 100)
        assert has_odd_class(g) is None
        r = chromatic_strong_odd(g, Budget(max_nodes=1_000))
        assert (r.status, r.nodes) == ("bounds", 1_001)


class TestPartitionDigest:
    """One sha256 over least_partition(n, odd_classes(g), lower) at lower 1
    and 3, on the members of a seeded corpus whose listing completes:
    bounds and partitions, including the searches that run out of states."""

    DIGEST = "2827b3cc1cded3bcd74fd2ea298f7ea968a42f0887a185afcffb3b5397eca64b"

    def test_digest(self):
        rng = random.Random(20)
        graphs = [random_graph(rng.randint(5, 24), rng.choice([0.3, 0.5, 0.7]), rng) for _ in range(40)]
        graphs += [stacked_triangulation(rng.randint(5, 28), rng) for _ in range(30)]
        graphs += [build(s) for s in (Wheel(14), Wheel(20), JoinCycleEmpty(14, 6), BipyramidUnion(6, 8),
                                      BipyramidUnion(8, 11))]
        h = hashlib.sha256()
        listed = 0
        for g in graphs:
            classes = odd_classes(g)
            if classes is None:
                continue
            listed += 1
            for lower in (1, 3):
                h.update(repr(least_partition(g.n, classes, lower)).encode())
        assert listed >= 60
        assert h.hexdigest() == self.DIGEST


class TestBudget:
    def test_budget_requires_a_limit(self):
        with pytest.raises(InvalidParameterError):
            Budget()

    def test_budget_validation(self):
        with pytest.raises(InvalidParameterError):
            Budget(max_nodes=0)
        with pytest.raises(InvalidParameterError):
            Budget(max_seconds=0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf")])
    def test_budget_rejects_non_finite_seconds(self, seconds):
        # a nan or inf deadline never trips; unbounded is spelled budget=None
        with pytest.raises(InvalidParameterError):
            Budget(max_seconds=seconds)

    @pytest.mark.parametrize(
        "nodes,seconds",
        [(2.5, None), (5.0, None), ("5", None), (True, None), (None, "1"), (None, 1j), (5, "1"), (None, True)])
    def test_budget_rejects_a_limit_of_the_wrong_type(self, nodes, seconds):
        # max_nodes is an int, max_seconds an int or a float, and neither a bool;
        # a fractional node budget would end a search at a fractional count
        with pytest.raises(InvalidParameterError):
            Budget(nodes, seconds)

    def test_many_twins_enumerate_quickly(self):
        # K_{60,60,60} holds 60**3 dependent triples but only one of twin
        # classes.  At k = 4 the twin rules refute it: the three parts are
        # its twin classes and need disjoint palettes, and a part of one
        # color is an even class around every vertex of the other two
        g = complete_tripartite(60)
        t = perf_counter()
        r = decide_k(g, 4, Budget(max_nodes=20_000))
        assert (r.answer, r.nodes) == ("no", 3_717) and perf_counter() - t < 1.3
        # at k = 5 the search, not the enumeration, meets the deadline
        t = perf_counter()
        r = decide_k(g, 5, Budget(max_seconds=0.3))
        assert r.answer == "timeout" and perf_counter() - t < 1.3

    def test_enumeration_stops_at_the_deadline(self):
        # listing the triples of subset_graph(10) takes seconds
        g = subset_graph(10)
        t = perf_counter()
        r = decide_k(g, 6, Budget(max_seconds=0.02))
        assert (r.answer, r.reason, r.nodes) == ("timeout", "max-seconds", 0)
        assert perf_counter() - t < 0.5
        t = perf_counter()
        s = chromatic_strong_odd(g, Budget(max_seconds=0.02))
        assert s.status == "timeout" and s.nodes == 0
        assert perf_counter() - t < 0.5

    def test_seconds_include_the_enumeration(self):
        # the search refutes in a few nodes; nearly all the time is spent
        # listing the triples
        t = perf_counter()
        r = decide_k(subset_graph(8), 6)
        assert r.answer == "no" and r.nodes < 10 and r.seconds > 0.5 * (perf_counter() - t)


class TestFakeClockExits:
    """The three wall-clock exits of the search, each driven by a clock that
    stands still until a chosen moment and then jumps past every deadline."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(strongodd.solver, "perf_counter", lambda: now[0])
        return now

    def jump_when_searching(self, monkeypatch, clock, k):
        """Make the search at k start past the deadline; returns the list
        of (k, answer, reason, nodes) of every search."""
        search = strongodd.solver._search
        searches = []

        def late_search(plan, at, *budget):
            if at == k:
                clock[0] = 1e9
            r = search(plan, at, *budget)
            searches.append((at, r.answer, r.reason, r.nodes))
            return r

        monkeypatch.setattr(strongodd.solver, "_search", late_search)
        return searches

    def test_search_stops_at_its_deadline(self, monkeypatch, clock):
        # J(14, 4) is refuted at 7 in 5,447 nodes; the deadline is looked at
        # every 256 nodes, so the search stops at the first look
        searches = self.jump_when_searching(monkeypatch, clock, 7)
        r = decide_k(build(JoinCycleEmpty(14, 4)), 7, Budget(max_seconds=10))
        assert (r.answer, r.reason, r.nodes, r.witness) == ("timeout", "max-seconds", 256, None)
        assert searches == [(7, "timeout", "max-seconds", 256)]

    def test_solve_ends_on_a_search_out_of_time(self, monkeypatch, clock):
        # C600 is not listable, so its searches are never cut for the odd
        # classes: 2 is refuted in one node, and the search at 3, which
        # needs hundreds, runs out of time at its first look at the clock
        searches = self.jump_when_searching(monkeypatch, clock, 3)
        r = chromatic_strong_odd(build(Cycle(600)), Budget(max_seconds=10))
        assert (r.status, r.lower, r.upper, r.value, r.nodes) == ("timeout", 3, 600, None, 257)
        assert searches == [(2, "no", None, 1), (3, "timeout", "max-seconds", 256)]

    def test_deadline_while_listing_the_triples(self, monkeypatch, clock):
        # the clock jumps after decide_k has read its start, so the listing
        # of the triples meets the deadline at its first look and no node is
        # searched
        reads = []

        def clock_after_the_start():
            reads.append(clock[0])
            return 0.0 if len(reads) == 1 else 1e9

        monkeypatch.setattr(strongodd.solver, "perf_counter", clock_after_the_start)
        r = decide_k(build(Wheel(9)), 4, Budget(max_seconds=10))
        assert (r.answer, r.reason, r.nodes, r.witness) == ("timeout", "max-seconds", 0, None)
        assert len(reads) == 3  # the start, the listing's first look, the seconds


class TestColorsAboveN:
    """A graph never needs more than n colors, so decide_k treats k > n as n."""

    def test_same_search_as_k_equal_n(self):
        graphs = small_corpus(seed=77, count=30) + [build(Wheel(9)), build(Cycle(7)), build(BipyramidUnion(3, 3))]
        for g in graphs:
            at_n = decide_k(g, g.n)
            for k in (g.n + 1, g.n + 5, g.n + 40):
                r = decide_k(g, k)
                assert (r.answer, r.nodes, r.witness) == (at_n.answer, at_n.nodes, at_n.witness)

    def test_memory_does_not_grow_with_k(self):
        import tracemalloc

        tracemalloc.start()
        try:
            r = decide_k(build(Cycle(5)), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.answer == "yes" and len(r.witness.palette) == 5
        assert peak < 1_000_000

    def test_memory_does_not_grow_with_k_up_to_n(self):
        # the search keeps counters for the colors in use and one more, not
        # for all k: k + 1 rows of n counters would take 32 MB here
        import tracemalloc

        g = build(Cycle(2000))
        tracemalloc.start()
        try:
            r = decide_k(g, g.n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.answer == "yes" and is_strong_odd(g, r.witness)
        assert peak < 4_000_000


class TestBruteForce:
    def test_c4(self):
        assert brute_force_so(build(Cycle(4))).value == 4

    def test_c3(self):
        assert brute_force_so(build(Cycle(3))).value == 3

    def test_union_3_3(self):
        assert brute_force_so(build(BipyramidUnion(3, 3))).value == 7

    def test_guard(self):
        with pytest.raises(InvalidParameterError):
            brute_force_so(build(Wheel(10)))

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            brute_force_so(Graph(0))

    def test_witness_verifies(self):
        g = random_graph(8, 0.5, random.Random(3))
        value, witness = brute_force_so(g)
        assert is_strong_odd(g, witness) and len(witness.palette) == value


class TestOracleAgreement:
    def test_connected_up_to_five(self, connected_small_graphs):
        for g in connected_small_graphs:
            if g.n > 5:
                continue
            assert chromatic_strong_odd(g).value == brute_force_so(g).value

    def test_random_six_and_seven(self):
        rng = random.Random(20240101)
        for _ in range(40):
            g = random_graph(rng.randint(6, 7), rng.choice([0.25, 0.5, 0.75]), rng)
            assert chromatic_strong_odd(g).value == brute_force_so(g).value


class TestJoinWitnessStructure:
    """Solver witnesses on cycle-hub joins satisfy the two structural facts:
    every color on the cycle fills an odd class there, and the restriction
    to the cycle is a 2-distance coloring."""

    @pytest.mark.parametrize("n,m", [(5, 1), (7, 2), (9, 2), (6, 3), (10, 1)])
    def test_witness_parity_and_distance(self, n, m):
        g = build(JoinCycleEmpty(n, m))
        r = chromatic_strong_odd(g)
        assert r.status == "exact"
        cyc = cycle_vertices(g)
        assert all(k % 2 for k in class_sizes_on(g, r.witness, cyc).values() if k)
        assert is_two_distance_on(g, r.witness, cyc)
