import pytest

import strongodd.families
from strongodd import (
    BipyramidUnion,
    InternalError,
    InvalidParameterError,
    JoinCycleEmpty,
    Wheel,
    build,
    is_strong_odd,
    join_coloring,
    join_formula,
    join_formula_case,
    union_coloring,
    union_formula,
    union_formula_case,
    wheel_coloring,
    wheel_cycle_pattern,
    wheel_formula,
    wheel_formula_case,
)


class TestWheelFormula:
    @pytest.mark.parametrize(
        "n,value",
        [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
         (9, 4), (10, 5), (11, 6), (12, 5), (13, 6), (14, 7), (15, 4),
         (16, 5), (17, 6), (20, 5), (21, 4), (26, 5)],
    )
    def test_values(self, n, value):
        assert wheel_formula(n) == value

    def test_case_labels(self):
        assert wheel_formula_case(14) == (7, "n = 14")
        assert wheel_formula_case(8)[1] == "n <= 8"
        assert "mod 6" in wheel_formula_case(21)[1]

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            wheel_formula(2)


class TestJoinFormula:
    def test_m_one_is_wheel(self):
        assert join_formula(9, 1) == wheel_formula(9) == 4

    def test_m_two_adds_one(self):
        assert join_formula(9, 2) == 5

    def test_m_odd_keeps_wheel_value(self):
        assert join_formula(8, 3) == 9

    def test_case(self):
        assert join_formula_case(9, 2)[1] == "m even"
        assert join_formula_case(9, 3)[1] == "m odd"

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            join_formula(2, 1)
        with pytest.raises(InvalidParameterError):
            join_formula(5, 0)


class TestUnionFormula:
    @pytest.mark.parametrize(
        "m,n,value",
        [(8, 8, 17), (7, 8, 16), (6, 8, 15), (7, 7, 15), (3, 3, 7), (8, 11, 14), (8, 17, 14), (8, 23, 14)],
    )
    def test_values(self, m, n, value):
        assert union_formula(m, n) == value

    def test_range_bounds_small_parameters(self):
        values = [union_formula(m, n) for m in range(3, 9) for n in range(3, 9)]
        assert min(values) == 7 and max(values) == 17
        assert union_formula(3, 3) == 7 and union_formula(8, 8) == 17

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            union_formula(2, 5)
        with pytest.raises(InvalidParameterError):
            union_formula_case(8, 2)

    def test_case(self):
        assert union_formula_case(8, 11) == (14, "wheel(8) + wheel(11) - 1 = 9 + 6 - 1")
        assert union_formula_case(8, 8) == (17, "wheel(8) + wheel(8) - 1 = 9 + 9 - 1")


class TestWheelColoring:
    def test_nine(self):
        assert wheel_coloring(9).colors == (1, 2, 3, 1, 2, 3, 1, 2, 3, 4)

    def test_thirteen(self):
        assert wheel_coloring(13).colors == (1, 2, 3, 4) * 3 + (5, 6)

    def test_fourteen_class_sizes(self):
        c = wheel_coloring(14)
        assert c.colors[14] == 7
        sizes = sorted(c.colors[:14].count(col) for col in range(1, 7))
        assert sizes == [1, 1, 3, 3, 3, 3]

    @pytest.mark.parametrize("n", range(3, 61))
    def test_verified_palette(self, n):
        c = wheel_coloring(n)
        assert len(c.palette) == wheel_formula(n)
        assert is_strong_odd(build(Wheel(n)), c)

    @pytest.mark.parametrize("construct", [lambda: wheel_coloring(9), lambda: join_coloring(9, 2),
                                           lambda: union_coloring(8, 11)], ids=["wheel", "join", "union"])
    def test_failed_self_check_raises_internal_error(self, monkeypatch, construct):
        monkeypatch.setattr(strongodd.families, "is_strong_odd", lambda g, c: False)
        with pytest.raises(InternalError, match="internal error"):
            construct()

    def test_pattern_color_classes_are_odd(self):
        for n in range(3, 61):
            pat = wheel_cycle_pattern(n)
            assert all(pat.count(c) % 2 == 1 for c in set(pat))


class TestJoinColoring:
    def test_9_3_uses_four_colors(self):
        c = join_coloring(9, 3)
        assert len(c.palette) == 4
        assert c.colors[9:] == (4, 4, 4)

    def test_9_2_uses_five(self):
        c = join_coloring(9, 2)
        assert len(c.palette) == 5
        assert c.colors[9:] == (4, 5)

    def test_8_1_is_wheel(self):
        assert len(join_coloring(8, 1).palette) == 9

    @pytest.mark.parametrize("n", [3, 8, 9, 14, 20, 30])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_verified(self, n, m):
        c = join_coloring(n, m)
        assert len(c.palette) == join_formula(n, m)
        assert is_strong_odd(build(JoinCycleEmpty(n, m)), c)


class TestUnionColoring:
    def test_8_8_matches_drawn_layout(self):
        c = union_coloring(8, 8)
        assert c.colors == tuple(range(1, 9)) + (9, 17) + tuple(range(9, 17)) + (1,)

    def test_3_3(self):
        c = union_coloring(3, 3)
        assert len(c.palette) == 7
        assert is_strong_odd(build(BipyramidUnion(3, 3)), c)

    def test_8_11(self):
        c = union_coloring(8, 11)
        assert len(c.palette) == 14
        assert is_strong_odd(build(BipyramidUnion(8, 11)), c)

    @pytest.mark.parametrize("m", [3, 7, 12, 14, 20])
    @pytest.mark.parametrize("n", [3, 9, 13, 14, 20])
    def test_verified(self, m, n):
        c = union_coloring(m, n)
        assert len(c.palette) == union_formula(m, n)
        assert is_strong_odd(build(BipyramidUnion(m, n)), c)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            union_coloring(2, 4)
