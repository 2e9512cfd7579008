"""SVM/SMO: analytic cases, reference-solver agreement, KKT, voting."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import svm
from rareclass.cli import main
from rareclass.corpus import Label
from rareclass.features import CsrMatrix
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

    def test_one_info_line_per_pair(self, caplog):
        x, labels = self._data()
        with caplog.at_level(logging.INFO, logger="rareclass.svm"):
            model = train_svm(x, labels, SvmParams(c=10.0, gamma=1.0))
        lines = [r for r in caplog.records if r.name == "rareclass.svm"]
        assert len(lines) == len(model.pairs) == 3
        for record, pair in zip(lines, model.pairs):
            assert record.levelno == logging.INFO
            message = record.getMessage()
            assert f"{pair.positive_label.value}/{pair.negative_label.value}" in message
            assert f"{pair.iterations} iterations" in message
            assert f"{len(pair.support)} support vectors" in message
            assert "converged=True" in message

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
                positive_label=pos, negative_label=neg, support=(), alpha=(), y=(),
                bias=bias, iterations=0, converged=True,
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
            params=SvmParams(),
            gamma=1.0,
            class_weights={l: 1.0 for l in Label},
            dim=1,
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


# order-sensitive values (1e16 + 1.0 - 1e16 depends on the order), signed zeros, and 1.0
ORDER_SENSITIVE = [1.0, 1.0, -1.0, 3.0, 1e16, -1e16, 1e16, 3.25e-3, 0.0, -0.0]


@st.composite
def csr_matrices(draw, max_rows=20, max_dim=8):
    """A matrix whose columns range from empty to full, with empty rows,
    explicit zeros, and values whose sums depend on the order of terms."""
    n = draw(st.integers(1, max_rows))
    dim = draw(st.integers(1, max_dim))
    shares = st.sampled_from([0.0, 0.15, 0.3, 0.6, 1.0])
    density = draw(st.lists(shares, min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random((n, dim)) < np.asarray(density)
    present[rng.random(n) < 0.2] = False  # rows with no entries
    values = rng.choice(ORDER_SENSITIVE, size=(n, dim))
    rows, cols = np.nonzero(present)
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    return CsrMatrix.from_arrays(indptr, cols, values[rows, cols], dim)


class TestFastPathsMatchOracle:
    """The kernel rows and the SMO loop repeat the oracle's arithmetic in
    the oracle's order, so they agree with it bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        csr_matrices(),
        st.sampled_from([KERNEL_RBF, KERNEL_LINEAR]),
        st.sampled_from([0.05, 0.7, 3.0]),
    )
    def test_kernel_rows_equal_matmul_rows(self, x, kernel, gamma):
        columns = x.transpose()
        sq = x.squared_norms()
        row = _kernel_rows(x, kernel, gamma)
        for i in range(x.n_rows):
            dots = x.rows(i, i + 1).matmul(columns)
            assert np.array_equal(row(i), _kernel_block(dots, sq[i : i + 1], sq, kernel, gamma)[0])

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

    def test_one_point_class_and_zero_rows_equal_oracle(self):
        # rows: empty, (1, 0), (2, -1), empty, (2, -1); the +1 class is one empty row
        x = CsrMatrix.from_arrays(
            [0, 0, 1, 3, 3, 5], [0, 0, 1, 0, 1], [1.0, 2.0, -1.0, 2.0, -1.0], 2
        )
        for kernel in (KERNEL_RBF, KERNEL_LINEAR):
            args = (x, [1, -1, -1, -1, -1], [10.0] * 5, kernel, 0.7)
            alpha, *rest = solve_binary(*args)
            expected = smo_oracle.solve_binary(*args)
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
