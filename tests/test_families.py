import pytest

import strongodd.families
from strongodd import (
    Bipyramid,
    BipyramidUnion,
    Complete,
    Cycle,
    Empty,
    InternalError,
    InvalidParameterError,
    JoinCycleEmpty,
    UnsupportedFamilyError,
    Wheel,
    build,
    coloring_for,
    formula,
    is_strong_odd,
    wheel_cycle_pattern,
)


class TestWheelFormula:
    @pytest.mark.parametrize(
        "n,value",
        [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
         (9, 4), (10, 5), (11, 6), (12, 5), (13, 6), (14, 7), (15, 4),
         (16, 5), (17, 6), (20, 5), (21, 4), (26, 5)],
    )
    def test_values(self, n, value):
        assert formula(Wheel(n)).value == value

    def test_case_labels(self):
        assert formula(Wheel(14)) == (7, "n = 14")
        assert formula(Wheel(8)).case == "n <= 8"
        assert "mod 6" in formula(Wheel(21)).case

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            formula(Wheel(2))


class TestJoinFormula:
    def test_m_one_is_wheel(self):
        assert formula(JoinCycleEmpty(9, 1)).value == formula(Wheel(9)).value == 4

    def test_m_two_adds_one(self):
        assert formula(JoinCycleEmpty(9, 2)).value == 5

    def test_m_odd_keeps_wheel_value(self):
        assert formula(JoinCycleEmpty(8, 3)).value == 9

    def test_case(self):
        assert formula(JoinCycleEmpty(9, 2)).case == "m even"
        assert formula(JoinCycleEmpty(9, 3)).case == "m odd"

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            formula(JoinCycleEmpty(2, 1))
        with pytest.raises(InvalidParameterError):
            formula(JoinCycleEmpty(5, 0))


class TestUnionFormula:
    @pytest.mark.parametrize(
        "m,n,value",
        [(8, 8, 17), (7, 8, 16), (6, 8, 15), (7, 7, 15), (3, 3, 7), (8, 11, 14), (8, 17, 14), (8, 23, 14)],
    )
    def test_values(self, m, n, value):
        assert formula(BipyramidUnion(m, n)).value == value

    def test_range_bounds_small_parameters(self):
        values = [formula(BipyramidUnion(m, n)).value for m in range(3, 9) for n in range(3, 9)]
        assert min(values) == 7 and max(values) == 17
        assert formula(BipyramidUnion(3, 3)).value == 7 and formula(BipyramidUnion(8, 8)).value == 17

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            formula(BipyramidUnion(2, 5))
        with pytest.raises(InvalidParameterError):
            formula(BipyramidUnion(8, 2))

    def test_case(self):
        assert formula(BipyramidUnion(8, 11)) == (14, "wheel(8) + wheel(11) - 1 = 9 + 6 - 1")
        assert formula(BipyramidUnion(8, 8)) == (17, "wheel(8) + wheel(8) - 1 = 9 + 9 - 1")


class TestWheelColoring:
    def test_nine(self):
        assert coloring_for(Wheel(9)).colors == (1, 2, 3, 1, 2, 3, 1, 2, 3, 4)

    def test_thirteen(self):
        assert coloring_for(Wheel(13)).colors == (1, 2, 3, 4) * 3 + (5, 6)

    def test_fourteen_class_sizes(self):
        c = coloring_for(Wheel(14))
        assert c.colors[14] == 7
        sizes = sorted(c.colors[:14].count(col) for col in range(1, 7))
        assert sizes == [1, 1, 3, 3, 3, 3]

    @pytest.mark.parametrize("n", range(3, 61))
    def test_verified_palette(self, n):
        c = coloring_for(Wheel(n))
        assert len(c.palette) == formula(Wheel(n)).value
        assert is_strong_odd(build(Wheel(n)), c)

    @pytest.mark.parametrize("spec", [Wheel(9), JoinCycleEmpty(9, 2), BipyramidUnion(8, 11)],
                             ids=["wheel", "join", "union"])
    def test_failed_self_check_raises_internal_error(self, monkeypatch, spec):
        monkeypatch.setattr(strongodd.families, "is_strong_odd", lambda g, c: False)
        with pytest.raises(InternalError, match="internal error"):
            coloring_for(spec)

    def test_pattern_color_classes_are_odd(self):
        for n in range(3, 61):
            pat = wheel_cycle_pattern(n)
            assert all(pat.count(c) % 2 == 1 for c in set(pat))


class TestJoinColoring:
    def test_9_3_uses_four_colors(self):
        c = coloring_for(JoinCycleEmpty(9, 3))
        assert len(c.palette) == 4
        assert c.colors[9:] == (4, 4, 4)

    def test_9_2_uses_five(self):
        c = coloring_for(JoinCycleEmpty(9, 2))
        assert len(c.palette) == 5
        assert c.colors[9:] == (4, 5)

    def test_8_1_is_wheel(self):
        assert len(coloring_for(JoinCycleEmpty(8, 1)).palette) == 9

    @pytest.mark.parametrize("n", [3, 8, 9, 14, 20, 30])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_verified(self, n, m):
        c = coloring_for(JoinCycleEmpty(n, m))
        assert len(c.palette) == formula(JoinCycleEmpty(n, m)).value
        assert is_strong_odd(build(JoinCycleEmpty(n, m)), c)


class TestUnionColoring:
    def test_8_8_matches_drawn_layout(self):
        c = coloring_for(BipyramidUnion(8, 8))
        assert c.colors == tuple(range(1, 9)) + (9, 17) + tuple(range(9, 17)) + (1,)

    def test_3_3(self):
        c = coloring_for(BipyramidUnion(3, 3))
        assert len(c.palette) == 7
        assert is_strong_odd(build(BipyramidUnion(3, 3)), c)

    def test_8_11(self):
        c = coloring_for(BipyramidUnion(8, 11))
        assert len(c.palette) == 14
        assert is_strong_odd(build(BipyramidUnion(8, 11)), c)

    @pytest.mark.parametrize("m", [3, 7, 12, 14, 20])
    @pytest.mark.parametrize("n", [3, 9, 13, 14, 20])
    def test_verified(self, m, n):
        c = coloring_for(BipyramidUnion(m, n))
        assert len(c.palette) == formula(BipyramidUnion(m, n)).value
        assert is_strong_odd(build(BipyramidUnion(m, n)), c)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            coloring_for(BipyramidUnion(2, 4))


@pytest.mark.parametrize("spec", [Cycle(5), Empty(2), Complete(3), Bipyramid(5)], ids=repr)
def test_other_families_have_no_closed_form(spec):
    # the same error embed_family raises for a family it has no layout for
    with pytest.raises(UnsupportedFamilyError, match="no closed form"):
        formula(spec)
    with pytest.raises(UnsupportedFamilyError, match="no closed form"):
        coloring_for(spec)
