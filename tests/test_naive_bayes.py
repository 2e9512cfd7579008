"""Naive Bayes: hand-computed posteriors, tie-breaks, invariances."""

import math

import pytest

from rareclass.corpus import Label
from rareclass.naive_bayes import GAUSSIAN, predict_nb, train_nb

from sparse_oracle import SparseVector, from_rows


def vec(pairs, dim=2):
    return SparseVector.from_pairs(pairs, dim)


def one(v):
    return from_rows([v])


@pytest.fixture
def two_doc_model():
    # vocabulary {a: 0, b: 1}; d1 = "a a b" -> DEFECT, d2 = "b b" -> POSSIBLE
    vectors = [vec([(0, 2.0), (1, 1.0)]), vec([(1, 2.0)])]
    labels = [Label.DEFECT, Label.POSSIBLE_DEFECT]
    return train_nb(from_rows(vectors), labels)


class TestMultinomial:
    def test_hand_computed_smoothed_likelihoods(self, two_doc_model):
        model = two_doc_model
        d_row = model.log_likelihood[model.labels.index(Label.DEFECT)]
        p_row = model.log_likelihood[model.labels.index(Label.POSSIBLE_DEFECT)]
        # class DEFECT: counts (2, 1), total 3, add-one over V=2 -> (3/5, 2/5)
        assert d_row[0] == pytest.approx(math.log(3 / 5))
        assert d_row[1] == pytest.approx(math.log(2 / 5))
        # class POSSIBLE: counts (0, 2) -> (1/4, 3/4)
        assert p_row[0] == pytest.approx(math.log(1 / 4))
        assert p_row[1] == pytest.approx(math.log(3 / 4))
        for row in (d_row, p_row):
            assert math.fsum(math.exp(v) for v in row) == pytest.approx(1.0)
        assert math.fsum(math.exp(p) for p in model.log_priors) == pytest.approx(1.0)

    def test_hand_computed_prediction(self, two_doc_model):
        [label], scores = predict_nb(two_doc_model, one(vec([(0, 1.0)])))
        assert label is Label.DEFECT
        assert scores[Label.DEFECT] == pytest.approx(math.log(0.5) + math.log(3 / 5))
        assert scores[Label.POSSIBLE_DEFECT] == pytest.approx(
            math.log(0.5) + math.log(1 / 4)
        )

    def test_empty_document_falls_back_to_prior(self):
        vectors = [vec([(0, 1.0)]), vec([(1, 1.0)]), vec([(1, 1.0)])]
        labels = [Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        model = train_nb(from_rows(vectors), labels)
        [label], scores = predict_nb(model, one(vec([])))
        assert label is Label.NON_DEFECT
        assert scores[Label.NON_DEFECT] == pytest.approx(math.log(2 / 3))

    def test_posterior_tie_breaks_to_lowest_class_index(self, two_doc_model):
        # equal priors, no evidence: scores tie exactly
        [label], scores = predict_nb(two_doc_model, one(vec([])))
        assert scores[Label.DEFECT] == scores[Label.POSSIBLE_DEFECT]
        assert label is Label.DEFECT

    def test_scores_always_finite(self, two_doc_model):
        _, scores = predict_nb(two_doc_model, one(vec([(0, 5.0), (1, 5.0)])))
        assert all(math.isfinite(s[0]) for s in scores.values())

    def test_duplicating_training_set_preserves_predictions(self):
        vectors = [vec([(0, 2.0)]), vec([(1, 3.0)]), vec([(0, 1.0), (1, 1.0)])]
        labels = [Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        model_once = train_nb(from_rows(vectors), labels)
        model_twice = train_nb(from_rows(vectors * 2), labels * 2)
        probes = [vec([]), vec([(0, 1.0)]), vec([(1, 2.0)]), vec([(0, 3.0), (1, 1.0)])]
        for probe in probes:
            probe = one(probe)
            assert predict_nb(model_once, probe)[0][0] is predict_nb(model_twice, probe)[0][0]

    def test_errors(self, two_doc_model):
        with pytest.raises(ValueError):
            train_nb(from_rows([], 2), [])
        with pytest.raises(ValueError):
            predict_nb(two_doc_model, one(SparseVector((0,), (1.0,), 9)))


class TestGaussian:
    def test_separates_numeric_classes(self):
        low = [vec([(0, v)]) for v in (0.9, 1.0, 1.1)]
        high = [vec([(0, v)]) for v in (4.9, 5.0, 5.1)]
        labels = [Label.DEFECT] * 3 + [Label.NON_DEFECT] * 3
        model = train_nb(from_rows(low + high), labels, event_model=GAUSSIAN)
        assert predict_nb(model, one(vec([(0, 1.05)])))[0][0] is Label.DEFECT
        assert predict_nb(model, one(vec([(0, 4.6)])))[0][0] is Label.NON_DEFECT

    def test_scores_match_the_dense_formula(self):
        rows = [vec([(0, 1.0), (2, 3.0)], 3), vec([(1, 2.0)], 3), vec([(0, 2.0)], 3)]
        rows.append(vec([(2, 1.0)], 3))
        labels = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        model = train_nb(from_rows(rows), labels, event_model=GAUSSIAN)
        probes = [vec([], 3), vec([(1, 0.5), (2, 2.0)], 3)]
        _, scores = predict_nb(model, from_rows(probes))
        for c, label in enumerate(model.labels):
            for p, probe in enumerate(probes):
                x = [probe.to_dict().get(j, 0.0) for j in range(3)]
                expected = model.log_priors[c] + sum(
                    -0.5 * (math.log(2 * math.pi * var) + (xj - mean) ** 2 / var)
                    for xj, mean, var in zip(x, model.means[c], model.variances[c])
                )
                assert scores[label][p] == pytest.approx(expected, rel=1e-12)

    def test_unknown_event_model_rejected(self):
        with pytest.raises(ValueError):
            train_nb(one(vec([(0, 1.0)])), [Label.DEFECT], event_model="poisson")
