import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c4_with_pendants, class_sizes_on, is_two_distance_on
from strongodd import (
    BipyramidUnion,
    Coloring,
    Graph,
    InvalidColoringError,
    InvalidParameterError,
    ParseError,
    Wheel,
    build,
    cycle,
    format_coloring,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    parity_report,
    parse_coloring,
    proper_violations,
    union_coloring,
    wheel_coloring,
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
            is_proper(cycle(3), Coloring([1, 2]))


class TestIsProper:
    def test_rainbow_triangle(self):
        assert is_proper(cycle(3), [1, 2, 3])

    def test_monochromatic_edge(self):
        assert not is_proper(cycle(3), [1, 1, 2])

    def test_seventeen_coloring_of_glued_bipyramids(self):
        g = build(BipyramidUnion(8, 8))
        assert is_proper(g, union_coloring(8, 8))

    def test_violations_listed(self):
        assert proper_violations(cycle(4), [1, 1, 2, 2]) == [(0, 1), (2, 3)]


class TestIsOdd:
    def test_c4_alternating_fails(self):
        assert not is_odd_coloring(cycle(4), [1, 2, 1, 2])

    def test_c4_needs_four_for_odd(self):
        # with colors (1,2,1,3) the vertices between the repeated 1s see
        # {1,1}: an even count and nothing else, so no odd color exists
        assert not is_odd_coloring(cycle(4), [1, 2, 1, 3])
        assert is_odd_coloring(cycle(4), [1, 2, 3, 4])

    def test_c6_repeating_triple(self):
        assert is_odd_coloring(cycle(6), [1, 2, 3, 1, 2, 3])

    def test_all_distinct_always_odd(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert is_odd_coloring(g, [1, 2, 3, 4, 5])

    def test_isolated_vertices_exempt(self):
        g = Graph(3, [(0, 1)])
        assert is_odd_coloring(g, [1, 2, 1])


class TestIsStrongOdd:
    def test_c4_needs_four(self):
        assert is_strong_odd(cycle(4), [1, 2, 3, 4])
        assert not is_strong_odd(cycle(4), [1, 2, 1, 3])

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
        rep = parity_report(cycle(4), [1, 2, 1, 2])
        assert len(rep.violations) == 4
        assert all(e.count == 2 for e in rep.violations)
        assert not rep.ok

    def test_zero_counts_absent(self):
        rep = parity_report(cycle(4), [1, 2, 3, 4])
        assert rep.ok
        assert all(e.count > 0 for e in rep.entries)

    def test_entry_parity_flag(self):
        rep = parity_report(cycle(3), [1, 2, 3])
        assert all(e.odd for e in rep.entries)


class TestTwoDistance:
    """The distance check that TestJoinWitnessStructure and acceptance
    criterion 8 apply to solver witnesses (tests/helpers.py)."""

    def test_c8_period_four(self):
        assert is_two_distance_on(cycle(8), [1, 2, 3, 4, 1, 2, 3, 4], range(8))

    def test_c6_alternating_fails(self):
        assert not is_two_distance_on(cycle(6), [1, 2, 1, 2, 1, 2], range(6))

    def test_singleton_vacuous(self):
        assert is_two_distance_on(cycle(6), [1, 1, 1, 1, 1, 1], [2])

    def test_distance_measured_in_induced_subgraph(self):
        # 0 and 2 are at distance 2 through 1, but not within {0, 2}
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_two_distance_on(g, [1, 2, 1], [0, 2])
        assert not is_two_distance_on(g, [1, 2, 1], [0, 1, 2])

    def test_subset_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            is_two_distance_on(cycle(3), [1, 2, 3], [5])


class TestClassParity:
    """The class-size check that TestJoinWitnessStructure and acceptance
    criterion 8 apply to solver witnesses (tests/helpers.py)."""

    def test_wheel9_cycle_classes(self):
        g = build(Wheel(9))
        sizes = class_sizes_on(g, wheel_coloring(9), range(9))
        assert sorted(k for k in sizes.values() if k) == [3, 3, 3]

    def test_empty_subset(self):
        sizes = class_sizes_on(cycle(3), [1, 2, 3], [])
        assert sizes == {1: 0, 2: 0, 3: 0}

    def test_w14_proof_pattern(self):
        g = build(Wheel(14))
        sizes = class_sizes_on(g, wheel_coloring(14), range(14))
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
