"""SVM/SMO: analytic cases, reference-solver agreement, KKT, voting."""

import logging
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import svm
from rareclass.cli import main
from rareclass.config import PipelineConfig
from rareclass.corpus import Label, load_corpus, three_way_split
from rareclass.features import CsrMatrix, apply_scaler, load_clusters
from rareclass.normalize import load_name_lexicon
from rareclass.pipeline import featurize_corpus, train_from_corpus
from rareclass.svm import (
    KERNEL_LINEAR,
    KERNEL_RBF,
    PairModel,
    SvmModel,
    SvmParams,
    inverse_frequency_weights,
    _kernel_block,
    _kernel_rows,
    predict_svm,
    solve_binary,
    train_svm,
)

import smo_oracle
from matrix_strategies import csr_matrices

from qp_oracle import (
    dual_value,
    kernel_matrix,
    kkt_violation,
    random_dataset,
    solve_reference,
)
from sparse_oracle import SparseVector, from_rows


def vec(values, dim=None):
    values = list(values)
    dim = dim or len(values)
    return SparseVector.from_pairs(enumerate(values), dim)


def one(v):
    return from_rows([v])


def rbf_kernel(x, y, gamma):
    """K(x, y) through the solver's own kernel code, on one-row matrices."""
    left, right = one(x), one(y)
    dots = left.matmul(right.transpose())
    block = _kernel_block(dots, left.squared_norms(), right.squared_norms(), KERNEL_RBF, gamma)
    return float(block[0, 0])


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        x = vec([0.3, -1.2, 0.0], 3)
        assert rbf_kernel(x, x, gamma=0.7) == 1.0

    def test_unit_distance(self):
        assert rbf_kernel(vec([0.0]), vec([1.0]), gamma=1.0) == pytest.approx(
            math.exp(-1.0)
        )

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = vec(rng.uniform(-2, 2, size=4), 4)
            b = vec(rng.uniform(-2, 2, size=4), 4)
            k_ab = rbf_kernel(a, b, gamma=0.5)
            assert k_ab == rbf_kernel(b, a, gamma=0.5)
            assert 0.0 < k_ab <= 1.0


class TestBinarySolver:
    def test_two_point_analytic_solution(self):
        # one point per side at -1 and +1, linear kernel: alpha = (1/2, 1/2),
        # bias 0, decision crosses zero at the midpoint
        vectors = [vec([-1.0]), vec([1.0])]
        alpha, bias, _, converged = solve_binary(
            from_rows(vectors), [1, -1], [100.0, 100.0], kernel=KERNEL_LINEAR,
            tolerance=1e-9,
        )
        assert converged
        assert alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert bias == pytest.approx(0.0, abs=1e-9)

    def test_two_point_decision_signs(self):
        vectors = [vec([-1.0]), vec([1.0])]
        model = train_svm(
            from_rows(vectors),
            [Label.DEFECT, Label.POSSIBLE_DEFECT],
            SvmParams(c=100.0, kernel=KERNEL_LINEAR, class_weights={
                Label.DEFECT: 1.0, Label.POSSIBLE_DEFECT: 1.0,
            }),
        )
        [label_neg], decisions_neg = predict_svm(model, one(vec([-1.0])))
        [label_pos], decisions_pos = predict_svm(model, one(vec([1.0])))
        (value_neg,) = decisions_neg.values()
        (value_pos,) = decisions_pos.values()
        assert label_neg is Label.DEFECT and label_pos is Label.POSSIBLE_DEFECT
        assert value_neg > 0 > value_pos
        _, decisions_mid = predict_svm(model, one(vec([0.0])))
        assert abs(next(iter(decisions_mid.values()))) < 1e-9

    def test_xor_separated_by_rbf(self):
        vectors = [vec([0.0, 0.0]), vec([1.0, 1.0]), vec([0.0, 1.0]), vec([1.0, 0.0])]
        labels = [Label.DEFECT, Label.DEFECT, Label.POSSIBLE_DEFECT, Label.POSSIBLE_DEFECT]
        params = SvmParams(
            c=100.0, kernel=KERNEL_RBF, gamma=1.0,
            class_weights={Label.DEFECT: 1.0, Label.POSSIBLE_DEFECT: 1.0},
        )
        model = train_svm(from_rows(vectors), labels, params)
        for v, expected in zip(vectors, labels):
            assert predict_svm(model, one(v))[0][0] is expected

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(11)
        vectors = [vec(rng.uniform(-1, 1, size=3), 3) for _ in range(20)]
        labels = [Label.DEFECT if i % 3 == 0 else Label.NON_DEFECT for i in range(20)]
        params = SvmParams(c=10.0, gamma=0.8)
        first = train_svm(from_rows(vectors), labels, params)
        second = train_svm(from_rows(vectors), labels, params)
        assert first == second

    def test_equality_constraint_and_box(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            points, y = random_dataset(rng)
            c = 100.0 if trial % 2 else 1.0
            vectors = [vec(p, points.shape[1]) for p in points]
            box = [c] * len(y)
            alpha, _, _, _ = solve_binary(
                from_rows(vectors), [int(v) for v in y], box, kernel=KERNEL_LINEAR,
                tolerance=1e-6,
            )
            assert abs(sum(a * v for a, v in zip(alpha, y))) < 1e-6
            assert all(-1e-12 <= a <= c + 1e-12 for a in alpha)

    @pytest.mark.parametrize("kernel", [KERNEL_LINEAR, KERNEL_RBF])
    def test_matches_reference_solver(self, kernel):
        rng = np.random.default_rng(17)
        gamma = 0.7
        for trial in range(30):
            points, y = random_dataset(rng)
            c = 100.0 if trial % 2 else 1.0
            box = np.full(len(y), c)
            K = kernel_matrix(points, kernel, gamma)
            ref_value, _ = solve_reference(K, y, box)
            vectors = [vec(p, points.shape[1]) for p in points]
            alpha, bias, _, converged = solve_binary(
                from_rows(vectors), [int(v) for v in y], box, kernel=kernel,
                gamma=gamma, tolerance=1e-8,
            )
            assert converged
            smo_value = dual_value(np.asarray(alpha), y, K)
            assert smo_value == pytest.approx(ref_value, abs=1e-4)
            violation = kkt_violation(alpha, y, box, bias, K)
            assert violation <= 1e-3

    def test_default_tolerance_bounds_kkt_violations(self):
        rng = np.random.default_rng(23)
        points, y = random_dataset(rng, max_points=8)
        vectors = [vec(p, points.shape[1]) for p in points]
        box = [100.0] * len(y)
        alpha, bias, _, converged = solve_binary(
            from_rows(vectors), [int(v) for v in y], box, kernel=KERNEL_RBF,
            gamma=0.7, tolerance=1e-3,
        )
        assert converged
        assert kkt_violation(
            alpha, y, box, bias, kernel_matrix(points, KERNEL_RBF, 0.7)
        ) <= 1e-3

    def test_iteration_cap_reported(self, caplog):
        rng = np.random.default_rng(29)
        points, y = random_dataset(rng)
        vectors = [vec(p, points.shape[1]) for p in points]
        with caplog.at_level("WARNING"):
            _, _, iterations, converged = solve_binary(
                from_rows(vectors), [int(v) for v in y], [100.0] * len(y),
                max_iterations=2,
            )
        assert iterations == 2 and not converged
        assert any("iteration cap" in rec.message for rec in caplog.records)

    def test_linear_reference_trials_need_few_iterations(self):
        # the 30 trials of test_matches_reference_solver[linear]; the
        # first-order pair rule zig-zagged through 1,467,147 iterations
        rng = np.random.default_rng(17)
        total = 0
        for trial in range(30):
            points, y = random_dataset(rng)
            c = 100.0 if trial % 2 else 1.0
            vectors = [vec(p, points.shape[1]) for p in points]
            _, _, iterations, converged = solve_binary(
                from_rows(vectors), [int(v) for v in y], np.full(len(y), c),
                kernel=KERNEL_LINEAR, gamma=0.7, tolerance=1e-8,
            )
            assert converged
            total += iterations
        assert total < 5_000


class TestDegenerateInputs:
    """Rank-deficient kernels, duplicate points and a tiny class converge
    well inside a small iteration cap, to a point within the tolerance."""

    def _check(self, points, y, box, kernel, gamma=0.7, tolerance=1e-6):
        points = np.asarray(points, dtype=float)
        y = np.asarray(y, dtype=float)
        box = np.asarray(box, dtype=float)
        vectors = [vec(p, points.shape[1]) for p in points]
        alpha, bias, _, converged = solve_binary(
            from_rows(vectors), [int(v) for v in y], box, kernel=kernel,
            gamma=gamma, tolerance=tolerance, max_iterations=10_000,
        )
        assert converged
        K = kernel_matrix(points, kernel, gamma)
        assert kkt_violation(alpha, y, box, bias, K) <= tolerance
        assert abs(float(np.dot(alpha, y))) < 1e-9

    def test_duplicate_points_with_opposite_labels(self):
        rng = np.random.default_rng(31)
        points = rng.uniform(-1.0, 1.0, size=(10, 2))
        points[1] = points[0]
        points[5] = points[4]
        y = [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
        self._check(points, y, [100.0] * 10, KERNEL_RBF)

    def test_collinear_points_linear_kernel(self):
        t = np.linspace(-1.0, 1.0, 16)
        points = np.outer(t, [1.0, -2.0, 0.5])
        y = np.where(t > 0.0, 1, -1)
        y[[6, 9]] *= -1  # overlap, so some multipliers reach the box
        self._check(points, y, [100.0] * 16, KERNEL_LINEAR)

    def test_one_against_fifty_nine(self):
        rng = np.random.default_rng(37)
        points = rng.uniform(-1.0, 1.0, size=(60, 3))
        y = np.full(60, -1)
        y[17] = 1
        # inverse-frequency weights N / (2 N_c)
        box = np.where(y > 0, 100.0 * 60 / 2, 100.0 * 60 / (2 * 59))
        self._check(points, y, box, KERNEL_RBF)


class TestTrainingLog:
    def _data(self):
        vectors = [vec([-1.0]), vec([-0.9]), vec([1.0]), vec([0.9]), vec([3.0])]
        labels = [Label.DEFECT, Label.DEFECT, Label.POSSIBLE_DEFECT, Label.POSSIBLE_DEFECT,
                  Label.NON_DEFECT]
        return from_rows(vectors), labels

    def test_one_info_line_per_pair(self, caplog, monkeypatch):
        x, labels = self._data()
        caches = []  # each pair's kernel row cache, whose counts the line gives

        def recording(*args):
            caches.append(_kernel_rows(*args))
            return caches[-1]

        monkeypatch.setattr(svm, "_kernel_rows", recording)
        with caplog.at_level(logging.INFO, logger="rareclass.svm"):
            model = train_svm(x, labels, SvmParams(c=10.0, gamma=1.0))
        lines = [r for r in caplog.records if r.name == "rareclass.svm"]
        assert len(lines) == len(model.pairs) == len(caches) == 3
        for record, pair, cache in zip(lines, model.pairs, caches):
            assert record.levelno == logging.INFO
            message = record.getMessage()
            assert f"{pair.positive_label.value}/{pair.negative_label.value}" in message
            assert f"{pair.iterations} iterations" in message
            assert f"{len(pair.support)} support vectors" in message
            assert "converged=True" in message
            counts = cache.cache_info()
            requested = counts.hits + counts.misses
            # two rows per step; the last iteration stops before asking for one
            assert requested == 2 * (pair.iterations - 1)
            assert 0 < counts.misses <= requested
            assert f"{counts.misses} kernel rows computed for {requested} requests" in message

    def test_unconverged_pair_is_a_warning(self, caplog):
        x, labels = self._data()
        with caplog.at_level(logging.INFO, logger="rareclass.svm"):
            model = train_svm(x, labels, SvmParams(c=10.0, gamma=1.0, max_iterations=1))
        pair_lines = [r for r in caplog.records if "svm pair" in r.getMessage()]
        assert len(pair_lines) == 3
        for record, pair in zip(pair_lines, model.pairs):
            assert not pair.converged
            assert record.levelno == logging.WARNING
            assert "converged=False" in record.getMessage()


class TestTrainingMemory:
    def test_no_copy_of_a_pairs_rows_beside_the_kernel_cache(self, caplog):
        """While SMO runs, the memory beside the kernel cache is the pair's
        transpose and arrays over its points: no copy of the pair's rows and
        no Python list per point sit on top of it."""
        rng = np.random.default_rng(41)
        n, dim = 800, 800
        present = rng.random((n, dim)) < 0.1
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
        columns = np.nonzero(present)[1]
        x = CsrMatrix.from_arrays(indptr, columns, rng.choice([1.0, -0.5, 2.0], len(columns)), dim)
        del present, indptr, columns
        labels = [Label.DEFECT] * 200 + [Label.POSSIBLE_DEFECT, Label.NON_DEFECT] * 300
        matrix_bytes = x.indptr.nbytes + x.indices.nbytes + x.data.nbytes
        tracemalloc.start()
        try:
            with caplog.at_level(logging.INFO, logger="rareclass.svm"):
                train_svm(x, labels, SvmParams(c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the last pair, of 600 points, fills its cache, so the peak holds it whole
        computed = re.search(r"(\d+) kernel rows computed", caplog.records[-1].getMessage())
        assert int(computed.group(1)) >= svm.KERNEL_CACHE_ROWS
        cache_bytes = svm.KERNEL_CACHE_ROWS * 600 * 8
        assert peak - cache_bytes < 1.5 * matrix_bytes


class TestClassWeights:
    def test_inverse_frequency_formula(self):
        labels = [Label.DEFECT] * 2 + [Label.NON_DEFECT] * 8
        weights = inverse_frequency_weights(labels)
        assert weights[Label.DEFECT] == pytest.approx(10 / (2 * 2))
        assert weights[Label.NON_DEFECT] == pytest.approx(10 / (2 * 8))

    def test_minority_recall_monotone_on_fixed_suite(self):
        # overlapping 1-D classes; raising the minority weight must not
        # lower minority training recall on this suite
        minority = [0.30, 0.45, 0.55, 0.70]
        majority = [-1.0, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.35, 0.5, 0.65]
        vectors = [vec([x]) for x in minority + majority]
        labels = [Label.DEFECT] * len(minority) + [Label.NON_DEFECT] * len(majority)
        recalls = []
        for w in (1.0, 2.0, 5.0, 10.0):
            params = SvmParams(
                c=1.0,
                kernel=KERNEL_RBF,
                gamma=2.0,
                class_weights={Label.DEFECT: w, Label.NON_DEFECT: 1.0},
            )
            model = train_svm(from_rows(vectors), labels, params)
            hits = sum(
                predict_svm(model, one(v))[0][0] is Label.DEFECT
                for v in vectors[: len(minority)]
            )
            recalls.append(hits / len(minority))
        assert recalls == sorted(recalls)

    def test_box_respects_class_weight(self):
        vectors = [vec([-1.0]), vec([-0.9]), vec([1.0])]
        labels = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT]
        params = SvmParams(
            c=2.0, kernel=KERNEL_LINEAR,
            class_weights={Label.DEFECT: 1.0, Label.NON_DEFECT: 3.0},
        )
        model = train_svm(from_rows(vectors), labels, params)
        pair = model.pairs[0]
        for a, y in zip(pair.alpha, pair.y):
            limit = 2.0 * (1.0 if y > 0 else 3.0)
            assert 0.0 < a <= limit + 1e-12


class TestMulticlassPrediction:
    def _three_class_model(self, biases):
        pairs = tuple(
            PairModel(
                positive_label=pos, negative_label=neg, support=np.zeros(0, np.intp),
                alpha=np.zeros(0), y=np.zeros(0), bias=bias, iterations=0, converged=True,
            )
            for (pos, neg), bias in zip(
                (
                    (Label.DEFECT, Label.POSSIBLE_DEFECT),
                    (Label.DEFECT, Label.NON_DEFECT),
                    (Label.POSSIBLE_DEFECT, Label.NON_DEFECT),
                ),
                biases,
            )
        )
        return SvmModel(
            labels=(Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT),
            pairs=pairs,
            params=SvmParams(gamma=1.0, class_weights={l: 1.0 for l in Label}),
            support_vectors=from_rows([], 1),
        )

    def test_unanimous_votes(self):
        model = self._three_class_model((1.0, 1.0, 1.0))
        [label], decisions = predict_svm(model, one(vec([0.0])))
        assert label is Label.DEFECT
        assert len(decisions) == 3

    def test_cycle_breaks_by_summed_winning_margin(self):
        # DEFECT beats POSSIBLE (+1), NON beats DEFECT (-2), POSSIBLE beats
        # NON (+1.5): one vote each; NON's winning margin 2 is largest
        model = self._three_class_model((1.0, -2.0, 1.5))
        [label], _ = predict_svm(model, one(vec([0.0])))
        assert label is Label.NON_DEFECT

    def test_cycle_margin_tie_breaks_by_class_order(self):
        model = self._three_class_model((1.0, -1.0, 1.0))
        [label], _ = predict_svm(model, one(vec([0.0])))
        assert label is Label.DEFECT

    def test_dimension_mismatch(self):
        model = self._three_class_model((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            predict_svm(model, one(vec([0.0, 0.0], 2)))


class TestTrainValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_svm(one(vec([1.0])), [Label.DEFECT])

    def test_non_finite_vector_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SparseVector((0,), (float("inf"),), 1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SvmParams(c=0.0)
        with pytest.raises(ValueError):
            SvmParams(kernel="poly")
        with pytest.raises(ValueError):
            SvmParams(gamma=-1.0)
        with pytest.raises(ValueError):
            SvmParams(class_weights={Label.DEFECT: 0.0})
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"c": nan}, {"c": inf}, {"gamma": nan}, {"gamma": inf},
            {"tolerance": nan}, {"tolerance": inf}, {"max_iterations": 0},
            {"class_weights": {Label.DEFECT: nan}}, {"class_weights": {Label.DEFECT: inf}},
        ):
            with pytest.raises(ValueError):
                SvmParams(**bad)


@st.composite
def models_and_queries(draw):
    """A three-class model over a pool of support vectors, and query rows
    that span up to three prediction blocks, both cut from one drawn
    matrix so that they share its dense and sparse columns."""
    rows = draw(csr_matrices(max_rows=24 + 3 * svm.PREDICT_BLOCK_ROWS, max_dim=6))
    cut = draw(st.integers(1, rows.n_rows))
    pool, x = rows.rows(0, cut), rows.rows(cut, rows.n_rows)
    labels = (Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT)
    pairs = []
    for pos, neg in combinations(labels, 2):
        support = tuple(sorted(draw(st.sets(st.integers(0, pool.n_rows - 1), min_size=1))))
        n = len(support)
        alpha = draw(st.lists(st.sampled_from([0.5, 1.0, 7.25]), min_size=n, max_size=n))
        y = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        bias = draw(st.sampled_from([-0.5, 0.0, 0.25]))
        pairs.append(PairModel(
            pos, neg, np.array(support, np.intp), np.array(alpha), np.array(y, float), bias, 1, True
        ))
    gamma = draw(st.sampled_from([0.05, 0.7]))
    weights = {label: 1.0 for label in labels}
    kernel = draw(st.sampled_from([KERNEL_RBF, KERNEL_LINEAR]))
    params = SvmParams(kernel=kernel, gamma=gamma, class_weights=weights)
    return SvmModel(labels, tuple(pairs), params, pool), x


def embedded(x, others, ids):
    """A matrix whose rows `ids` (increasing) are the rows of `x` and whose
    other rows are those of `others`, in order."""
    order = np.empty(x.n_rows + others.n_rows, np.intp)
    order[ids] = np.arange(x.n_rows)
    order[np.setdiff1d(np.arange(len(order)), ids)] = x.n_rows + np.arange(others.n_rows)
    larger = CsrMatrix.stack([x, others], x.dim).take(order)
    assert larger.take(ids) == x
    return larger


class TestFastPathsMatchOracle:
    """The kernel rows and the SMO loop repeat the oracle's arithmetic in
    the oracle's order, so they agree with it bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        csr_matrices(),
        st.sampled_from([KERNEL_RBF, KERNEL_LINEAR]),
        st.sampled_from([0.05, 0.7, 3.0]),
        st.data(),
    )
    def test_kernel_rows_equal_matmul_rows(self, x, kernel, gamma, data):
        columns = x.transpose()
        sq = x.squared_norms()
        row = _kernel_rows(x, kernel, gamma)
        for i in range(x.n_rows):
            dots = x.rows(i, i + 1).matmul(columns)
            assert np.array_equal(row(i), _kernel_block(dots, sq[i : i + 1], sq, kernel, gamma)[0])
        # the rows of an increasing subset, read from `x` through their ids
        ids = np.array(sorted(data.draw(st.sets(st.integers(0, x.n_rows - 1), min_size=1))))
        pair = x.take(ids)
        columns, sq = pair.transpose(), pair.squared_norms()
        row = _kernel_rows(x, kernel, gamma, ids)
        for i in range(pair.n_rows):
            dots = pair.rows(i, i + 1).matmul(columns)
            assert np.array_equal(row(i), _kernel_block(dots, sq[i : i + 1], sq, kernel, gamma)[0])

    @settings(max_examples=150, deadline=None)
    @given(models_and_queries())
    def test_predict_blocks_equal_matmul_blocks(self, model_and_query):
        """Every kernel block `predict_svm` builds is the plain product of
        its rows with the pool, and so are its decisions."""
        model, x = model_and_query
        blocks = []

        def recording(dots, sq_left, sq_right, kernel, gamma):
            blocks.append((dots.copy(), sq_left.copy()))
            return _kernel_block(dots, sq_left, sq_right, kernel, gamma)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "_kernel_block", recording)
            labels, decisions = predict_svm(model, x)
        pool_columns = model.support_vectors.transpose()
        starts = range(0, x.n_rows, svm.PREDICT_BLOCK_ROWS)
        assert len(blocks) == len(starts)
        for start, (dots, sq) in zip(starts, blocks):
            block = x.rows(start, min(start + svm.PREDICT_BLOCK_ROWS, x.n_rows))
            assert dots.tobytes() == block.matmul(pool_columns).tobytes()
            assert sq.tobytes() == block.squared_norms().tobytes()
        # with no dense column, each block is the one `matmul` of its rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "_dense_columns", lambda x, columns: {})
            plain_labels, plain = predict_svm(model, x)
        assert labels == plain_labels
        assert decisions.keys() == plain.keys()
        assert all(decisions[key].tobytes() == plain[key].tobytes() for key in plain)

    def test_dense_products_keep_their_place_in_column_order(self):
        # column 1 is dense; 1e16 - 1e16 + 1 is 1 in column order, but 0 if
        # the dense column's -1e16 came after the 1
        pool = CsrMatrix.from_arrays([0, 3, 4, 5], [0, 1, 2, 1, 1], [1.0] * 5, 3)
        x = CsrMatrix.from_arrays([0, 3, 4], [0, 1, 2, 1], [1e16, -1e16, 1.0, 2.0], 3)
        assert list(svm._dense_columns(pool, pool.transpose())) == [1]
        pair = PairModel(
            Label.DEFECT, Label.NON_DEFECT, np.array([0], np.intp), np.array([1.0]), np.array([1.0]),
            0.0, 1, True,
        )
        weights = {Label.DEFECT: 1.0, Label.NON_DEFECT: 1.0}
        model = SvmModel((Label.DEFECT, Label.NON_DEFECT), (pair,),
                         SvmParams(kernel=KERNEL_LINEAR, gamma=1.0, class_weights=weights), pool)
        _, decisions = predict_svm(model, x)
        # the linear kernel's decision value is the dot product with pool row 0
        assert decisions[Label.DEFECT, Label.NON_DEFECT].tolist() == [1.0, 2.0]
        stacked = CsrMatrix.stack([pool, x], 3)
        row = _kernel_rows(stacked, KERNEL_LINEAR, 1.0)(3)
        assert row.tolist() == [1.0, -1e16, -1e16, 2e32, -2e16]

    @pytest.mark.parametrize("kernel", [KERNEL_LINEAR, KERNEL_RBF])
    def test_kernel_row_of_an_empty_row_is_float(self, kernel):
        x = CsrMatrix.from_arrays([0, 0, 1], [1], [2.0], 2)
        row = _kernel_rows(x, kernel, 0.5)(0)
        assert row.dtype == np.float64
        assert row.tolist() == ([0.0, 0.0] if kernel == KERNEL_LINEAR else [1.0, math.exp(-2.0)])

    @settings(max_examples=150, deadline=None)
    @given(
        csr_matrices(max_rows=14, max_dim=4),
        st.data(),
        st.sampled_from([KERNEL_RBF, KERNEL_LINEAR]),
        st.sampled_from([0.1, 0.7, 2.0]),
        st.sampled_from([0.5, 1.0, 100.0]),
    )
    def test_solver_equals_oracle(self, x, data, kernel, gamma, c):
        # duplicate points: rows repeated from the drawn matrix
        repeats = data.draw(st.lists(st.integers(0, x.n_rows - 1), min_size=2, max_size=16))
        x = x.take(np.asarray(repeats))
        y = data.draw(st.lists(st.sampled_from([1, -1]), min_size=x.n_rows, max_size=x.n_rows))
        if len(set(y)) == 1:  # both classes, often one of them a single point
            y[0] = -y[0]
        box = [c * (1.0 if v > 0 else 2.5) for v in y]
        args = (x, y, box, kernel, gamma, 1e-3, 2_000)
        alpha, bias, iterations, converged = solve_binary(*args)
        expected = smo_oracle.solve_binary(*args)
        assert np.array_equal(alpha, expected[0])
        assert (bias, iterations, converged) == expected[1:]
        # the same points as an increasing subset of a larger matrix's rows
        others = data.draw(csr_matrices(max_rows=8, dim=x.dim))
        slots = data.draw(st.permutations(range(x.n_rows + others.n_rows)))
        ids = np.sort(slots[: x.n_rows])
        larger = embedded(x, others, ids)
        alpha, *rest = solve_binary(larger, y, box, kernel, gamma, 1e-3, 2_000, rows=ids)
        assert np.array_equal(alpha, expected[0]) and tuple(rest) == expected[1:]

    def test_one_point_class_and_zero_rows_equal_oracle(self):
        # rows: empty, (1, 0), (2, -1), empty, (2, -1); the +1 class is one empty row
        x = CsrMatrix.from_arrays(
            [0, 0, 1, 3, 3, 5], [0, 0, 1, 0, 1], [1.0, 2.0, -1.0, 2.0, -1.0], 2
        )
        # the same rows at ids 1, 2, 4, 5 and 7 of a larger matrix
        others = CsrMatrix.from_arrays([0, 2, 2, 3], [0, 1, 1], [3.0, 5.0, -4.0], 2)
        ids = np.array([1, 2, 4, 5, 7])
        larger = embedded(x, others, ids)
        for kernel in (KERNEL_RBF, KERNEL_LINEAR):
            args = (x, [1, -1, -1, -1, -1], [10.0] * 5, kernel, 0.7)
            alpha, *rest = solve_binary(*args)
            expected = smo_oracle.solve_binary(*args)
            assert np.array_equal(alpha, expected[0]) and tuple(rest) == expected[1:]
            alpha, *rest = solve_binary(larger, *args[1:], rows=ids)
            assert np.array_equal(alpha, expected[0]) and tuple(rest) == expected[1:]

    def test_demo_model_is_byte_identical_under_the_oracle(self, tmp_path, monkeypatch, demo_paths):
        base = [
            "train", "--corpus", str(demo_paths["corpus"]),
            "--set", f"paths.name_lexicon={demo_paths['names']}",
            "--set", f"paths.clusters={demo_paths['clusters']}",
        ]
        assert main([*base, "--model", str(tmp_path / "fast.json")]) == 0
        monkeypatch.setattr(svm, "solve_binary", smo_oracle.solve_binary)
        assert main([*base, "--model", str(tmp_path / "oracle.json")]) == 0
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


class TestScoresDoNotDependOnTheBatch:
    """A row's decision values are the same bit for bit whether it is
    scored alone or in a block with other rows."""

    @staticmethod
    def assert_rows_alone_equal_the_block(model, x):
        _, block = predict_svm(model, x)
        for i in range(x.n_rows):
            _, alone = predict_svm(model, x.rows(i, i + 1))
            assert alone.keys() == block.keys()
            assert all(alone[key].tobytes() == block[key][i : i + 1].tobytes() for key in block)

    @settings(max_examples=150, deadline=None)
    @given(models_and_queries())
    def test_drawn_models(self, model_and_query):
        self.assert_rows_alone_equal_the_block(*model_and_query)

    def test_demo_model(self, demo_paths):
        corpus = load_corpus(demo_paths["corpus"])
        names = load_name_lexicon(demo_paths["names"])
        clusters = load_clusters(demo_paths["clusters"])
        split = three_way_split(corpus, 0.2, 0.2, seed=13)
        stored, _ = train_from_corpus(split.train, PipelineConfig.from_sources(None), names, clusters)
        x, _ = featurize_corpus(
            split.test, names, clusters, stored.normalization, stored.features, stored.vocabulary
        )
        self.assert_rows_alone_equal_the_block(stored.classifier, apply_scaler(stored.scaler, x))
