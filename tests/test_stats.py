"""Incomplete-beta and Student-t tails against an independent library oracle."""

import math

import pytest
import scipy.special
import scipy.stats

from rareclass.stats import regularized_incomplete_beta, student_t_two_sided_p


class TestRegularizedIncompleteBeta:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 50.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 25.0])
    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0])
    def test_against_scipy(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-12
        )

    def test_closed_form_special_case(self):
        # I_x(1, 1/2) = 1 - sqrt(1 - x)
        for x in (0.1, 0.5, 2 / 27):
            assert regularized_incomplete_beta(1.0, 0.5, x) == pytest.approx(
                1.0 - math.sqrt(1.0 - x), abs=1e-14
            )

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 20, 30, 120])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 12.7])
    def test_two_sided_matches_scipy(self, t, df):
        expected = 2.0 * scipy.stats.t.sf(t, df)
        assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-10)

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 4) == 0.0

    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 4) == 1.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)
