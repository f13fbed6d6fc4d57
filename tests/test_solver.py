import itertools
import random
from time import perf_counter

import pytest

import strongodd.solver
from helpers import class_sizes_on, cycle_vertices, is_two_distance_on, random_graph, stacked_triangulation
from strongodd.solver import _clique_lower_bound, _dependent_triples
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

    def test_failed_witness_check_raises_internal_error(self, monkeypatch):
        monkeypatch.setattr(strongodd.solver, "is_strong_odd", lambda g, c: False)
        with pytest.raises(InternalError, match="invalid witness"):
            decide_k(build(Cycle(3)), 3)

    def test_bad_order(self):
        with pytest.raises(InvalidParameterError):
            decide_k(build(Cycle(3)), 2, order=[0, 0, 1])


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
            (JoinCycleEmpty(14, 4), 7, 81_313),
            (Wheel(23), 5, 41),
            (Wheel(25), 5, 46),
            (Wheel(29), 5, 53),
            (Wheel(1001), 5, 1_997),
            (BipyramidUnion(6, 8), 14, 7_265),
            (BipyramidUnion(7, 7), 14, 3_330),
            (BipyramidUnion(8, 8), 16, 11_923),
            (BipyramidUnion(8, 11), 13, 3_259),
            # the rest of the refute benchmark's pool
            (JoinCycleEmpty(19, 4), 6, 170_214),
            (BipyramidUnion(4, 8), 12, 3_989),
            (BipyramidUnion(5, 9), 8, 150),
            (BipyramidUnion(6, 7), 13, 2_529),
            (BipyramidUnion(9, 10), 7, 1_168),
        ],
    )
    def test_refutation_nodes(self, spec, k, nodes):
        r = decide_k(build(spec), k)
        assert (r.answer, r.nodes) == ("no", nodes)

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
        g = build(Cycle(5000))
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


def assert_decides_every_k(g):
    """decide_k says yes exactly from the oracle's value on, at every k and
    in both orders, so no rule kills a coloring that exists at some k."""
    value = brute_force_so(g).value
    for order in ("degree", list(range(g.n))):
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
            assert _dependent_triples(planted) == dependent_triples_by_definition(planted) != ()
            g = random_graph(n + 1, p, rng)
            assert _dependent_triples(g) == dependent_triples_by_definition(g)

    def test_twins_are_named_by_the_lowest(self):
        # copies of vertices of a planted triple graph are twins of them
        rng = random.Random(5)
        for _ in range(15):
            g = planted_triple_graph(8, 0.3, rng)
            copies = rng.sample(range(g.n), 4)
            extra = [(w, g.n + i) for i, v in enumerate(copies) for w in g.adj[v]]
            twinned = Graph(g.n + len(copies), g.edges() + extra)
            assert _dependent_triples(twinned) == dependent_triples_by_definition(twinned) != ()

    def test_complete_tripartite(self):
        # one triple of twin classes: u sees the two parts it is not in, and
        # the third member is the lowest vertex of its own part
        assert _dependent_triples(complete_tripartite(3)) == [(0,)] * 3 + [(3,)] * 3 + [(6,)] * 3

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 8), (8, 11), (8, 101)])
    def test_union_apexes(self, m, n):
        # {x1, y, x2} = {m, m+1, m+n+2}: each cycle vertex sees its own apex
        # and y, so the rule keeps the colors around the other apex off it
        third = _dependent_triples(build(BipyramidUnion(m, n)))
        assert all(m + n + 2 in third[u] for u in range(m))
        assert all(m in third[u] for u in range(m + 2, m + n + 2))

    def test_none_on_cycles_wheels_and_joins(self):
        specs = ([Cycle(n) for n in range(4, 40) if n != 6] + [Wheel(n) for n in range(5, 40)]
                 + [JoinCycleEmpty(n, m) for n in range(5, 20) for m in range(1, 5)])
        for spec in specs:
            assert _dependent_triples(build(spec)) == (), spec

    def test_six_cycle(self):
        # {0, 2, 4} and {1, 3, 5} are the triples; u sees two members of the
        # one it is not in, and the third member is u's antipode
        assert _dependent_triples(build(Cycle(6))) == [((u + 3) % 6,) for u in range(6)]

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

    def test_witness_below_the_scanned_k_raises_internal_error(self, monkeypatch):
        # a yes whose palette is smaller than k contradicts the refutation
        # of k - 1, so it can only come from a bug
        def scan_with_small_witness(g, k, budget, order):
            yield DecideResult("yes", Coloring([1] * g.n), 1, 0.0)

        monkeypatch.setattr(strongodd.solver, "_scan", scan_with_small_witness)
        with pytest.raises(InternalError, match="palette differs"):
            chromatic_strong_odd(build(Cycle(5)))

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


class TestOneScan:
    """chromatic_strong_odd decides k, k + 1, ... on one search state; that
    is the same search as one decide_k call per k, with one budget."""

    @staticmethod
    def scanned(g, order):
        if order == "index":  # the identity permutation
            order = list(range(g.n))
        r = chromatic_strong_odd(g, order=order)
        start = max(1, _clique_lower_bound(g))
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
        # the budget is looked at between two k, so the scan stops before
        # counting a node of the value's own search
        g = build(spec)
        r, calls = self.scanned(g, "degree")
        refuted = r.nodes - calls[-1].nodes
        assert refuted > 0
        s = chromatic_strong_odd(g, Budget(max_nodes=refuted))
        assert (s.status, s.nodes, s.lower, s.upper, s.value) == ("bounds", refuted, r.value, g.n, None)
        assert s.witness == Coloring(range(1, g.n + 1))
        t = chromatic_strong_odd(g, Budget(max_nodes=r.nodes))
        assert (t.status, t.value, t.nodes, t.witness) == ("exact", r.value, r.nodes, r.witness)


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

    def test_many_twins_enumerate_quickly(self):
        # K_{60,60,60} holds 60**3 dependent triples but only one of twin
        # classes, so the search, not the enumeration, meets the deadline
        t = perf_counter()
        r = decide_k(complete_tripartite(60), 4, Budget(max_seconds=0.3))
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
