import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c4_with_pendants, class_sizes_on, is_two_distance_on, random_graph
from strongodd import (
    BipyramidUnion,
    Coloring,
    Cycle,
    Graph,
    InvalidColoringError,
    InvalidParameterError,
    JoinCycleEmpty,
    ParityEntry,
    ParseError,
    Wheel,
    build,
    coloring_for,
    format_coloring,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    parity_report,
    parse_coloring,
    proper_violations,
)


@st.composite
def graph_and_coloring(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    colors = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return g, Coloring(colors)


class TestColoringType:
    def test_positive_colors_only(self):
        with pytest.raises(InvalidColoringError):
            Coloring([1, 0, 2])

    def test_palette(self):
        assert Coloring([2, 2, 5]).palette == frozenset({2, 5})

    def test_partial_coloring_rejected(self):
        with pytest.raises(InvalidColoringError):
            is_proper(build(Cycle(3)), Coloring([1, 2]))

    def test_equal_colorings_hash_equal(self):
        a, b = Coloring([3, 1, 2]), Coloring((3, 1, 2))
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, Coloring([1, 2, 3])}) == 2

    def test_repr(self):
        assert repr(Coloring((3, 1, 2))) == "Coloring([3, 1, 2])"
        assert repr(Coloring([])) == "Coloring([])"


class TestIsProper:
    def test_rainbow_triangle(self):
        assert is_proper(build(Cycle(3)), [1, 2, 3])

    def test_monochromatic_edge(self):
        assert not is_proper(build(Cycle(3)), [1, 1, 2])

    def test_seventeen_coloring_of_glued_bipyramids(self):
        g = build(BipyramidUnion(8, 8))
        assert is_proper(g, coloring_for(BipyramidUnion(8, 8)))

    def test_violations_listed(self):
        assert proper_violations(build(Cycle(4)), [1, 1, 2, 2]) == [(0, 1), (2, 3)]


class TestIsOdd:
    def test_c4_alternating_fails(self):
        assert not is_odd_coloring(build(Cycle(4)), [1, 2, 1, 2])

    def test_c4_needs_four_for_odd(self):
        # with colors (1,2,1,3) the vertices between the repeated 1s see
        # {1,1}: an even count and nothing else, so no odd color exists
        assert not is_odd_coloring(build(Cycle(4)), [1, 2, 1, 3])
        assert is_odd_coloring(build(Cycle(4)), [1, 2, 3, 4])

    def test_c6_repeating_triple(self):
        assert is_odd_coloring(build(Cycle(6)), [1, 2, 3, 1, 2, 3])

    def test_all_distinct_always_odd(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert is_odd_coloring(g, [1, 2, 3, 4, 5])

    def test_isolated_vertices_exempt(self):
        g = Graph(3, [(0, 1)])
        assert is_odd_coloring(g, [1, 2, 1])


class TestIsStrongOdd:
    def test_c4_needs_four(self):
        assert is_strong_odd(build(Cycle(4)), [1, 2, 3, 4])
        assert not is_strong_odd(build(Cycle(4)), [1, 2, 1, 3])

    def test_pendant_repaired_c4(self):
        g, c = c4_with_pendants()
        assert is_strong_odd(g, c)

    def test_wheel9_pattern(self):
        assert is_strong_odd(build(Wheel(9)), [1, 2, 3, 1, 2, 3, 1, 2, 3, 4])

    @settings(max_examples=80)
    @given(graph_and_coloring(max_n=12))
    def test_all_distinct_is_strong_odd(self, gc):
        g, _ = gc
        assert is_strong_odd(g, list(range(1, g.n + 1)))

    @settings(max_examples=150)
    @given(graph_and_coloring())
    def test_implication_chain(self, gc):
        g, c = gc
        if is_strong_odd(g, c):
            assert is_odd_coloring(g, c)
        if is_odd_coloring(g, c):
            assert is_proper(g, c)


class TestParityReport:
    def test_violations_are_even_positive(self):
        rep = parity_report(build(Cycle(4)), [1, 2, 1, 2])
        assert len(rep) == 4
        assert all(e.count == 2 for e in rep)

    def test_zero_counts_absent(self):
        # every vertex of C4 has two colors absent around it, and even counts
        # of zero are no violation
        assert parity_report(build(Cycle(4)), [1, 2, 3, 4]) == []

    def test_entry_parity_flag(self):
        # the hub sees color 2 twice and color 3 three times: only the even
        # class is a row, and each leaf's single neighbor is an odd class
        g = Graph(6, [(0, v) for v in range(1, 6)])
        assert parity_report(g, [1, 2, 2, 3, 3, 3]) == [ParityEntry(0, 2, 2)]

    @settings(max_examples=150)
    @given(graph_and_coloring())
    def test_empty_exactly_when_proper_coloring_is_strong_odd(self, gc):
        # verify lists these rows for a proper coloring that is not strong odd
        g, c = gc
        if is_proper(g, c):
            assert (parity_report(g, c) == []) == is_strong_odd(g, c)


VERDICTS = (is_proper, is_odd_coloring, is_strong_odd, parity_report, proper_violations)


def _verdict_corpus():
    """Seeded graphs with colorings: random G(n, p) with random colorings of
    1..n colors, and the wheel, join and union members with their own
    coloring and with one vertex recolored.  It holds colorings of every
    kind: improper, proper but not odd, odd but not strong odd, and strong
    odd."""
    rng = random.Random(28)
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8):
            for _ in range(56):
                g = random_graph(n, p, rng)
                k = rng.randint(1, n)
                yield g, Coloring(rng.randint(1, k) for _ in range(n))
    specs = ([Wheel(n) for n in range(3, 21)]
             + [JoinCycleEmpty(n, m) for n in range(3, 13) for m in range(1, 5)]
             + [BipyramidUnion(m, n) for m in range(3, 10) for n in range(3, 10)])
    for spec in specs:
        g, c = build(spec), coloring_for(spec)
        yield g, c
        colors = list(c.colors)
        v = rng.randrange(g.n)
        colors[v] = rng.choice(sorted(c.palette - {colors[v]}))
        yield g, colors


class TestPinnedVerdicts:
    """Digests of every verdict on a seeded corpus, recorded before the
    verdicts were rewritten to read one scan; they must reproduce them."""

    def test_verdicts(self):
        h = hashlib.sha256()
        count = 0
        for g, c in _verdict_corpus():
            h.update(repr([judge(g, c) for judge in VERDICTS]).encode())
            count += 1
        assert count == 2016 + 18 * 2 + 40 * 2 + 49 * 2
        assert h.hexdigest() == "f19077bfb4d343c0536bbc0603f75c8cf732a7bae39a9105e4c4e7ea637badb8"

    def test_short_coloring_refusals(self):
        h = hashlib.sha256()
        for g, c in _verdict_corpus():
            for judge in VERDICTS:
                with pytest.raises(InvalidColoringError) as e:
                    judge(g, c[:-1] if isinstance(c, list) else Coloring(c.colors[:-1]))
                h.update(repr(e.value).encode())
        assert h.hexdigest() == "749d774164427b1f91b4099ffcdddc8c59caf7682b900d592ccb0d583a8f3611"


class TestTwoDistance:
    """The distance check that TestJoinWitnessStructure and acceptance
    criterion 8 apply to solver witnesses (tests/helpers.py)."""

    def test_c8_period_four(self):
        assert is_two_distance_on(build(Cycle(8)), [1, 2, 3, 4, 1, 2, 3, 4], range(8))

    def test_c6_alternating_fails(self):
        assert not is_two_distance_on(build(Cycle(6)), [1, 2, 1, 2, 1, 2], range(6))

    def test_singleton_vacuous(self):
        assert is_two_distance_on(build(Cycle(6)), [1, 1, 1, 1, 1, 1], [2])

    def test_distance_measured_in_induced_subgraph(self):
        # 0 and 2 are at distance 2 through 1, but not within {0, 2}
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_two_distance_on(g, [1, 2, 1], [0, 2])
        assert not is_two_distance_on(g, [1, 2, 1], [0, 1, 2])

    def test_subset_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            is_two_distance_on(build(Cycle(3)), [1, 2, 3], [5])


class TestClassParity:
    """The class-size check that TestJoinWitnessStructure and acceptance
    criterion 8 apply to solver witnesses (tests/helpers.py)."""

    def test_wheel9_cycle_classes(self):
        g = build(Wheel(9))
        sizes = class_sizes_on(g, coloring_for(Wheel(9)), range(9))
        assert sorted(k for k in sizes.values() if k) == [3, 3, 3]

    def test_empty_subset(self):
        sizes = class_sizes_on(build(Cycle(3)), [1, 2, 3], [])
        assert sizes == {1: 0, 2: 0, 3: 0}

    def test_w14_proof_pattern(self):
        g = build(Wheel(14))
        sizes = class_sizes_on(g, coloring_for(Wheel(14)), range(14))
        assert sorted(k for k in sizes.values() if k) == [1, 1, 3, 3, 3, 3]


class TestNonMonotonicity:
    def test_supergraph_of_c4_with_two_colors(self):
        # a supergraph of the 4-chromatic C_4 that itself needs only 2 colors
        g, c = c4_with_pendants()
        assert is_strong_odd(g, c) and len(c.palette) == 2


class TestColoringFiles:
    def test_round_trip(self):
        c = Coloring([3, 1, 2])
        assert parse_coloring(format_coloring(c), 3) == c

    def test_comments_ignored(self):
        c = parse_coloring("# header\n1 5\n2 5 # inline\n", 2)
        assert c.colors == (5, 5)

    def test_missing_vertex(self):
        with pytest.raises(ParseError):
            parse_coloring("1 1\n", 2)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError) as e:
            parse_coloring("1 1\n1 2\n", 1)
        assert e.value.line == 2

    def test_bad_color(self):
        with pytest.raises(ParseError):
            parse_coloring("1 0\n", 1)

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_coloring("3 1\n", 2)
