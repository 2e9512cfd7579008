"""Metrics: confusion matrices, P/R/F1, overall F1, t-test, error report."""

import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import Label, LABELS
from rareclass.evaluation import (
    confusion_matrix,
    error_report,
    evaluate_predictions,
    overall_f1,
    paired_t_test,
    precision_recall_f1,
)

from conftest import make_corpus

D, P, N = Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        gold = [D, P, N, N]
        m = confusion_matrix(gold, gold)
        assert m.counts == ((1, 0, 0), (0, 1, 0), (0, 0, 2))

    def test_swapped_pair(self):
        m = confusion_matrix([D, P], [P, D])
        assert m.cell(D, P) == 1 and m.cell(P, D) == 1
        assert m.counts == ((0, 1, 0), (1, 0, 0), (0, 0, 0))

    def test_row_sums_are_gold_counts(self):
        gold = [D, D, P, N, N, N]
        pred = [D, N, P, D, N, P]
        m = confusion_matrix(gold, pred)
        assert m.row_sum(D) == 2 and m.row_sum(P) == 1 and m.row_sum(N) == 3
        assert sum(m.column_sum(l) for l in LABELS) == sum(map(sum, m.counts)) == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([D], [D, P])


class TestPrecisionRecallF1:
    def test_reference_f1_value(self):
        # P = 0.62, R = 0.68 must give F1 that rounds to 0.65
        p, r = 0.62, 0.68
        f1 = 2 * p * r / (p + r)
        assert round(f1, 2) == 0.65
        assert f1 == pytest.approx(0.648615, abs=1e-6)

    def test_equal_p_r_gives_same_f(self):
        gold = [D, D, N, N]
        pred = [D, N, D, N]  # P(D) = R(D) = 0.5
        p, r, f = precision_recall_f1(confusion_matrix(gold, pred), D)
        assert p == r == f == 0.5

    def test_zero_over_zero_convention(self):
        m = confusion_matrix([N, N], [N, N])
        assert precision_recall_f1(m, D) == (0.0, 0.0, 0.0)

    def test_f_bounded_by_max_and_mean(self):
        m = confusion_matrix([D, D, D, N, N], [D, D, N, D, N])
        p, r, f = precision_recall_f1(m, D)
        assert f <= max(p, r) + 1e-12
        assert f <= (p + r) / 2 + 1e-12


class TestOverallF1:
    def test_reference_weighted_mean(self):
        f1s = {D: 0.62, P: 0.52, N: 0.96}
        supports = {D: 1192, P: 1196, N: 20611}
        overall = overall_f1(f1s, supports)
        assert round(overall, 2) == 0.92
        assert overall == pytest.approx(0.919497, abs=1e-6)

    def test_single_class(self):
        assert overall_f1({D: 0.7}, {D: 10}) == pytest.approx(0.7)

    def test_equal_supports(self):
        assert overall_f1({D: 0.0, P: 1.0}, {D: 5, P: 5}) == pytest.approx(0.5)

    def test_report_consistency(self):
        gold = [D] * 3 + [P] * 2 + [N] * 5
        pred = [D, D, N, P, N, N, N, N, N, D]
        report = evaluate_predictions(gold, pred)
        weighted = sum(
            report.matrix.row_sum(l) * report.per_class[l][2] for l in LABELS
        ) / len(gold)
        assert report.overall == pytest.approx(weighted, abs=1e-9)


class TestPairedTTest:
    def test_identical_scores(self):
        result = paired_t_test([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert result.t_statistic == 0.0 and result.p_value == 1.0
        assert result.degrees_of_freedom == 2

    def test_hand_computed_case(self):
        result = paired_t_test((0.6, 0.7, 0.8), (0.5, 0.65, 0.7))
        assert result.t_statistic == pytest.approx(5.0, abs=1e-9)
        assert result.degrees_of_freedom == 2
        assert result.mean_difference == pytest.approx(1 / 12)
        assert result.p_value == pytest.approx(2 * scipy.stats.t.sf(5.0, 2), abs=1e-10)

    def test_constant_nonzero_difference(self):
        result = paired_t_test([0.6, 0.7], [0.5, 0.6])
        assert result.zero_variance
        assert result.p_value == 0.0
        assert math.isinf(result.t_statistic) and result.t_statistic > 0

    def test_sign_flip(self):
        a, b = [0.6, 0.75, 0.8], [0.5, 0.65, 0.71]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_too_short(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.4])

    @given(
        scores=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_self_comparison_and_p_range(self, scores):
        a = [s[0] for s in scores]
        b = [s[1] for s in scores]
        self_test = paired_t_test(a, a)
        assert self_test.p_value == 1.0
        result = paired_t_test(a, b)
        assert 0.0 <= result.p_value <= 1.0


class TestErrorReport:
    def test_perfect_predictions_empty(self):
        corpus = make_corpus([("t1", "x", D), ("t2", "y", N)])
        assert error_report(corpus, [D, N], D, N) == []

    def test_single_false_negative(self):
        corpus = make_corpus([("t1", "sick child", D), ("t2", "news", N)])
        report = error_report(corpus, [N, N], D, N)
        assert [item.tweet.id for item in report] == ["t1"]

    def test_sizes_reconcile_with_matrix_cells(self):
        gold = [D, D, P, P, P, N, N, N, N]
        pred = [N, D, N, N, P, N, N, D, N]
        corpus = make_corpus(
            [(f"t{i}", f"text {i}", g) for i, g in enumerate(gold)]
        )
        matrix = confusion_matrix(gold, pred)
        for target, predicted in ((D, N), (P, N), (N, D)):
            report = error_report(corpus, pred, target, predicted)
            assert len(report) == matrix.cell(target, predicted)

    def test_alignment_checked(self):
        corpus = make_corpus([("t1", "x", D)])
        with pytest.raises(ValueError):
            error_report(corpus, [D, N], D, N)


class TestRendering:
    def test_tsv_rows(self):
        report = evaluate_predictions([D, P, N], [D, P, N])
        lines = report.to_tsv().strip().split("\n")
        assert lines[0] == "class\tprecision\trecall\tf1"
        assert len(lines) == 5 and lines[-1].startswith("overall")

    def test_text_table_mentions_all_classes(self):
        report = evaluate_predictions([D, P, N], [D, P, N])
        text = report.to_text()
        for label in LABELS:
            assert label.value in text
