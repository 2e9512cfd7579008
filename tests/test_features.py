"""Feature engineering: clusters, vocabulary, scaling, info gain; and the
per-document oracle's rows, n-grams and cluster features (`sparse_oracle`)."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import Label
from rareclass.errors import DataError
from rareclass.features import (
    CsrMatrix,
    apply_scaler,
    build_vocabulary,
    feature_kind,
    fit_scaler,
    information_gain,
    load_clusters,
    structural_features,
    vectorize,
)

import sparse_oracle
from matrix_strategies import csr_matrices
from sparse_oracle import (
    SparseVector,
    cluster_features,
    extract_ngrams,
    from_rows,
    interpolate,
    to_rows,
)


class TestSparseVector:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SparseVector((1, 1), (1.0, 2.0), 5)
        with pytest.raises(ValueError):
            SparseVector((3, 1), (1.0, 2.0), 5)
        with pytest.raises(ValueError):
            SparseVector((0,), (float("nan"),), 5)
        with pytest.raises(ValueError):
            SparseVector((7,), (1.0,), 5)

    def test_from_pairs_sorts_and_drops_zeros(self):
        vec = SparseVector.from_pairs([(4, 0.0), (2, 1.5), (0, -1.0)], 5)
        assert vec.indices == (0, 2) and vec.values == (-1.0, 1.5)

    def test_dot_and_norms(self):
        a = SparseVector.from_pairs([(0, 1.0), (2, 2.0)], 4)
        b = SparseVector.from_pairs([(2, 3.0), (3, 1.0)], 4)
        assert a.dot(b) == 6.0
        assert a.squared_norm() == 5.0
        assert a.squared_distance(b) == pytest.approx(
            (1 - 0) ** 2 + (2 - 3) ** 2 + (0 - 1) ** 2
        )

    def test_interpolation_midpoint(self):
        a = SparseVector.from_pairs([], 2)
        b = SparseVector.from_pairs([(0, 2.0), (1, 2.0)], 2)
        mid = interpolate(a, b, 0.5)
        assert mid.to_dict() == {0: 1.0, 1: 1.0}

    def test_interpolation_endpoints(self):
        a = SparseVector.from_pairs([(0, 3.0)], 2)
        b = SparseVector.from_pairs([(1, 4.0)], 2)
        assert interpolate(a, b, 0.0).to_dict() == a.to_dict()
        assert interpolate(a, b, 1.0).to_dict() == b.to_dict()


def random_rows(rnd, n, dim):
    return [
        SparseVector.from_pairs(
            [(j, rnd.choice((1.0, rnd.uniform(-2, 2)))) for j in range(dim) if rnd.random() < 0.4],
            dim,
        )
        for _ in range(n)
    ]


class TestCsrMatrix:
    def test_products_equal_the_row_loops(self):
        # same terms summed in the same column order: equal, not just close
        rnd = random.Random(3)
        left, right = random_rows(rnd, 7, 6), random_rows(rnd, 5, 6)
        x, y = from_rows(left), from_rows(right)
        assert x.matmul(y.transpose()).tolist() == [[a.dot(b) for b in right] for a in left]
        assert x.squared_norms().tolist() == [a.squared_norm() for a in left]
        dense = [[rnd.uniform(-1, 1) for _ in range(2)] for _ in range(6)]
        assert x.dot(np.array(dense)).tolist() == [
            [sum(v * dense[i][k] for i, v in zip(a.indices, a.values)) for k in range(2)]
            for a in left
        ]

    def test_row_selection_and_transpose(self):
        rows = random_rows(random.Random(4), 6, 5)
        x = from_rows(rows)
        assert x.take(np.array([4, 0, 4])) == from_rows([rows[4], rows[0], rows[4]])
        assert x.rows(2, 5) == from_rows(rows[2:5])
        assert x.transpose().transpose() == x
        assert from_rows([], 5).transpose().transpose() == from_rows([], 5)

    def test_batch_scaling_equals_one_row_at_a_time(self):
        rows = random_rows(random.Random(5), 8, 4)
        scaler = fit_scaler(from_rows(rows[:5]))
        batch = apply_scaler(scaler, from_rows(rows))
        singles = [apply_scaler(scaler, from_rows([row])) for row in rows]
        assert batch.indptr.tolist() == [0] + np.cumsum([len(s.data) for s in singles]).tolist()
        assert batch.indices.tolist() == [i for s in singles for i in s.indices.tolist()]
        assert batch.data.tolist() == [v for s in singles for v in s.data.tolist()]

    @pytest.mark.parametrize(
        "indptr, indices, data",
        [
            ([1, 2], [0, 1], [1.0, 1.0]),  # does not start at 0
            ([0, 2, 1], [0, 1], [1.0, 1.0]),  # decreasing
            ([0, 3], [0, 1], [1.0, 1.0]),  # past the entries
            ([0, 2], [1, 1], [1.0, 1.0]),  # repeated column
            ([0, 2], [2, 1], [1.0, 1.0]),  # unsorted
            ([0, 1], [3], [1.0]),  # column out of range
            ([0, 1], [-1], [1.0]),  # negative column
            ([0, 1], [0], [float("nan")]),
        ],
    )
    def test_from_arrays_rejects_malformed(self, indptr, indices, data):
        with pytest.raises(ValueError):
            CsrMatrix.from_arrays(indptr, indices, data, 3)

    def test_stack_equals_the_rows_joined(self):
        rows = random_rows(random.Random(6), 9, 5)
        singles = [from_rows([row]) for row in rows]
        assert CsrMatrix.stack(singles, 5) == from_rows(rows)
        blocks = [from_rows(rows[:4]), from_rows([], 5), from_rows(rows[4:])]
        assert CsrMatrix.stack(blocks, 5) == from_rows(rows)
        assert CsrMatrix.stack([], 5) == from_rows([], 5)

    def test_stack_validates(self):
        unsorted = CsrMatrix(np.array([0, 2]), np.array([2, 1]), np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            CsrMatrix.stack([from_rows([SparseVector((0,), (1.0,), 3)]), unsorted], 3)
        with pytest.raises(ValueError):
            CsrMatrix.stack([from_rows([SparseVector((0,), (1.0,), 4)])], 3)

    def test_from_arrays_accepts_empty_rows(self):
        x = CsrMatrix.from_arrays([0, 0, 2, 2], [0, 2], [1.0, -1.0], 3)
        assert x == from_rows(
            [SparseVector.from_pairs([], 3), SparseVector.from_pairs([(0, 1.0), (2, -1.0)], 3),
             SparseVector.from_pairs([], 3)]
        )

    def test_product_without_terms_is_float(self):
        # bincount returns int64 when it sums no terms
        x = CsrMatrix.from_arrays([0, 0, 2], [0, 2], [1.0, -1.0], 3)
        for left, right in ((x.rows(0, 1), x), (x, from_rows([], 3))):
            product = left.matmul(right.transpose())
            assert product.dtype == np.float64
            assert not product.any()


def entries(x: CsrMatrix) -> list[tuple[int, int, bytes]]:
    """Every stored entry as (row, column, value bits), in storage order."""
    return [
        (int(r), int(c), v.tobytes())
        for r, c, v in zip(x.row_ids(), x.indices, x.data)
    ]


def columns_of(data, dim):
    """A sorted subset of range(dim), drawn."""
    return np.array(sorted(data.draw(st.sets(st.integers(0, dim - 1)))), np.intp)


class TestDenseSplit:
    """`split_at` and `matmul(out=...)`: the pieces `predict_svm` builds its
    kernel blocks from."""

    @settings(max_examples=200, deadline=None)
    @given(csr_matrices(), st.data())
    def test_split_holds_every_entry_once(self, x, data):
        cols = columns_of(data, x.dim)
        runs, values = x.split_at(cols)
        assert len(runs) == len(cols) + 1 and values.shape == (x.n_rows, len(cols))
        bounds = [-1, *cols.tolist(), x.dim]
        for run, low, high in zip(runs, bounds, bounds[1:]):
            assert run.n_rows == x.n_rows and run.dim == x.dim
            assert entries(run) == [e for e in entries(x) if low < e[1] < high]
        expected = np.zeros((x.n_rows, len(cols)))
        for row, col, value in entries(x):
            if col in cols:
                expected[row, cols.tolist().index(col)] = np.frombuffer(value)[0]
        assert values.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(csr_matrices(max_rows=12), st.data())
    def test_runs_and_dense_columns_in_order_equal_the_product(self, x, data):
        """Runs added in order, each dense column's products between them,
        give the plain product bit for bit: every sum starts at +0.0, so
        the zero product of an unset entry leaves it unchanged."""
        y = data.draw(csr_matrices(max_rows=12, dim=x.dim))
        cols = columns_of(data, x.dim)
        runs, values = x.split_at(cols)
        y_columns = y.transpose()
        _, y_values = y.split_at(cols)
        dots = runs[0].matmul(y_columns)
        for k, run in enumerate(runs[1:]):
            dots += np.multiply.outer(values[:, k], y_values[:, k])
            assert run.matmul(y_columns, out=dots) is dots
        assert dots.tobytes() == x.matmul(y_columns).tobytes()


class TestNgrams:
    """`sparse_oracle.extract_ngrams`: the per-document n-grams that
    `tests/test_featurize.py` compares `pipeline.featurize_corpus` against."""

    def test_up_to_trigrams(self):
        grams = extract_ngrams(["my", "baby"], 1, 3)
        assert grams == Counter({"my": 1, "baby": 1, "my baby": 1})

    def test_short_document(self):
        assert extract_ngrams(["a"], 1, 3) == Counter({"a": 1})

    def test_window_count(self):
        grams = extract_ngrams(["a", "b", "c"], 1, 3)
        assert sum(grams.values()) == 6

    def test_empty_document(self):
        assert extract_ngrams([], 1, 3) == Counter()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(["a", "b", "my baby", ""]), st.text(" ab\u00e9", max_size=3)),
            max_size=12,
        ).map(tuple),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_equals_index_loop(self, tokens, n_min, extra):
        """The items of slicing and joining, in the same order, also for
        tokens that hold spaces."""
        n_max = n_min + extra
        expected = Counter()
        for n in range(n_min, n_max + 1):
            for i in range(len(tokens) - n + 1):
                expected[" ".join(tokens[i : i + n])] += 1
        grams = extract_ngrams(tokens, n_min, n_max)
        assert list(grams.items()) == list(expected.items())

    def test_bad_range(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 0, 2)
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 3, 2)

    @given(
        tokens=st.lists(st.sampled_from("abcd"), max_size=12),
        n_max=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_count_formula(self, tokens, n_max):
        grams = extract_ngrams(tokens, 1, n_max)
        expected = sum(max(0, len(tokens) - n + 1) for n in range(1, n_max + 1))
        assert sum(grams.values()) == expected


class TestClusters:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("0101\tbby\t384\n", encoding="utf-8")
        assert load_clusters(path) == {"bby": "0101"}

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("", encoding="utf-8")
        assert len(load_clusters(path)) == 0

    def test_duplicate_token_overwrites_with_warning(self, tmp_path, caplog):
        path = tmp_path / "clusters.tsv"
        path.write_text("0101\tbby\t1\n1111\tbby\t2\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            cmap = load_clusters(path)
        assert cmap == {"bby": "1111"}
        assert any("redefined" in rec.message for rec in caplog.records)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("0101\tbby\t5\n0101 only-two\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_clusters(path)

    def test_non_binary_path_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("01a1\tbby\t5\n", encoding="utf-8")
        with pytest.raises(DataError, match="cluster path"):
            load_clusters(path)

    # this test and the next: `sparse_oracle.cluster_features`, the oracle's
    # per-document cluster counts
    def test_cluster_features(self):
        cmap = {"bby": "0101", "babby": "0101"}
        assert cluster_features(["bby"], cmap) == Counter({"cluster:0101": 1})
        assert cluster_features(["zzz"], cmap) == Counter()
        assert cluster_features(["bby", "babby"], cmap) == Counter({"cluster:0101": 2})

    def test_shared_cluster_property(self):
        cmap = {"a": "11", "b": "11"}
        assert cluster_features(["a"], cmap) == cluster_features(["b"], cmap)


class TestStructural:
    @pytest.mark.parametrize(
        "text,expected",
        [("ab cd", (5, 2)), ("", (0, 0)), ("a  b", (4, 2)), ("\U0001f60a hi", (4, 2))],
    )
    def test_lengths(self, text, expected):
        assert structural_features(text) == expected


class TestVocabulary:
    def test_min_df_cutoff(self):
        docs = [Counter({"my baby": 1}), Counter({"my baby": 2}), Counter({"rare": 1})]
        vocab = build_vocabulary(docs, min_df=2)
        assert vocab.index_of("my baby") is not None and vocab.index_of("rare") is None

    def test_multiset_counts_do_not_inflate_df(self):
        docs = [Counter({"x": 5})]
        vocab = build_vocabulary(docs, min_df=2)
        assert vocab.index_of("x") is None

    def test_lexicographic_indices_and_determinism(self):
        docs = [Counter({"b": 1, "a": 1, "cluster:01": 1})] * 2
        v1 = build_vocabulary(docs, min_df=1, include_structural=True)
        v2 = build_vocabulary(list(docs), min_df=1, include_structural=True)
        assert v1.names == v2.names == tuple(sorted(v1.names))
        kinds = dict(zip(v1.names, map(feature_kind, v1.names)))
        assert kinds["cluster:01"] == "cluster"
        assert kinds["struct:char_length"] == "structural"
        assert kinds["a"] == "ngram"


def vectorize_row(*args, **kwargs):
    """`vectorize`'s one-row matrix as a `SparseVector`."""
    [row] = to_rows(vectorize(*args, **kwargs))
    return row


class TestVectorize:
    def test_binary_presence(self):
        vocab = build_vocabulary([Counter({"my baby": 1})], min_df=1)
        vec = vectorize_row(Counter({"my baby": 3}), None, vocab, binary=True)
        assert vec.to_dict() == {vocab.index_of("my baby"): 1.0}

    def test_count_mode(self):
        vocab = build_vocabulary([Counter({"my baby": 1})], min_df=1)
        vec = vectorize_row(Counter({"my baby": 3}), None, vocab, binary=False)
        assert vec.to_dict() == {vocab.index_of("my baby"): 3.0}

    def test_oov_features_ignored(self):
        vocab = build_vocabulary([Counter({"kept": 1})], min_df=1, include_structural=True)
        vec = vectorize_row(Counter({"unseen": 4}), (12, 3), vocab)
        assert vec.to_dict() == {
            vocab.index_of("struct:char_length"): 12.0,
            vocab.index_of("struct:word_length"): 3.0,
        }

    def test_structural_only_vector(self):
        vocab = build_vocabulary([], min_df=1, include_structural=True)
        vec = vectorize(Counter(), (7, 2), vocab)
        assert len(vec.indices) == 2

    def test_deterministic(self):
        vocab = build_vocabulary([Counter({"a": 1, "b": 1})], min_df=1)
        doc = Counter({"a": 2, "b": 1})
        assert vectorize(doc, None, vocab) == vectorize(doc, None, vocab)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.sampled_from("abcdefg"), st.integers(-2, 4), max_size=7),
        st.sampled_from("abcdefgh"),
        st.one_of(st.none(), st.tuples(st.integers(0, 50), st.integers(0, 9))),
        st.booleans(),
        st.booleans(),
    )
    def test_row_equals_the_list_oracle(self, counts, cut, structural, binary, with_struct):
        vocab = build_vocabulary(
            [Counter(name for name in "abcdefg" if name < cut)],
            min_df=1, include_structural=with_struct,
        )
        row = vectorize(Counter(counts), structural, vocab, binary=binary)
        assert to_rows(row) == [sparse_oracle.vectorize(counts, structural, vocab, binary)]
        assert row.indices.dtype == np.intp and row.data.dtype == float


def scale_one(scaler, vec):
    """`vec` scaled, as a column-to-value dict."""
    scaled = apply_scaler(scaler, from_rows([vec]))
    return dict(zip(scaled.indices.tolist(), scaled.data.tolist()))


class TestScaler:
    def test_endpoint_mapping(self):
        vecs = [SparseVector.from_pairs([(0, 2.0)], 1), SparseVector.from_pairs([(0, 4.0)], 1)]
        scaler = fit_scaler(from_rows(vecs))
        assert scale_one(scaler, vecs[0]) == {}  # scaled 0 is dropped
        assert scale_one(scaler, vecs[1]) == {0: 1.0}

    def test_midpoint_and_no_clamping(self):
        vecs = [SparseVector.from_pairs([(0, 2.0)], 1), SparseVector.from_pairs([(0, 4.0)], 1)]
        scaler = fit_scaler(from_rows(vecs))
        mid = scale_one(scaler, SparseVector.from_pairs([(0, 3.0)], 1))
        assert mid == {0: 0.5}
        outside = scale_one(scaler, SparseVector.from_pairs([(0, 6.0)], 1))
        assert outside == {0: 2.0}

    def test_constant_column_maps_to_zero(self):
        vecs = [SparseVector.from_pairs([(0, 5.0)], 1)] * 3
        scaler = fit_scaler(from_rows(vecs))
        assert scale_one(scaler, SparseVector.from_pairs([(0, 9.0)], 1)) == {}

    def test_implicit_zero_extends_range(self):
        vecs = [
            SparseVector.from_pairs([(0, 4.0)], 1),
            SparseVector.from_pairs([], 1),
        ]
        scaler = fit_scaler(from_rows(vecs))
        assert scaler.mins == (0.0,) and scaler.maxs == (4.0,)
        assert scale_one(scaler, vecs[0]) == {0: 1.0}

    def test_binary_and_structural_ranges(self):
        # binary columns stay in {0, 1}; structural training values land in [0, 1]
        vecs = [
            SparseVector.from_pairs([(0, 1.0), (1, 10.0)], 2),
            SparseVector.from_pairs([(1, 30.0)], 2),
        ]
        scaler = fit_scaler(from_rows(vecs))
        for vec in vecs:
            scaled = scale_one(scaler, vec)
            assert scaled.get(0, 0.0) in (0.0, 1.0)
            assert 0.0 <= scaled.get(1, 0.0) <= 1.0


    def test_fill_is_skipped_only_when_no_filled_entry_is_missing(self, monkeypatch):
        """Rows that hold every filled column (active, min != 0) are scaled
        without the fill, and bit for bit as in a batch where a row lacks
        one; both equal a dense reference."""
        train = from_rows(
            [
                SparseVector.from_pairs([(0, 2.0), (1, 1.0), (3, 5.0)], 4),
                SparseVector.from_pairs([(0, 3.5), (2, 1.0), (3, 7.0)], 4),
                SparseVector.from_pairs([(0, 9.0), (3, 6.0)], 4),
            ]
        )
        scaler = fit_scaler(train)
        assert np.flatnonzero(scaler.mins != 0.0).tolist() == [0, 3]
        rows = [
            SparseVector.from_pairs([(0, 4.0), (1, 1.0), (3, 5.5)], 4),
            SparseVector.from_pairs([(0, 2.5), (2, 1.0)], 4),  # lacks filled column 3
            SparseVector.from_pairs([(0, 11.0), (3, 0.1)], 4),
        ]
        unique_calls = []
        real_unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: unique_calls.append(1) or real_unique(*a, **k)
        )
        batch = apply_scaler(scaler, from_rows(rows))
        assert len(unique_calls) == 1
        whole = apply_scaler(scaler, from_rows([rows[0], rows[2]]))
        fitted = apply_scaler(scaler, train)  # fitting leaves no filled entry missing
        assert len(unique_calls) == 1
        span = scaler.maxs - scaler.mins
        for x, scaled in ((from_rows(rows), batch), (from_rows([rows[0], rows[2]]), whole),
                          (train, fitted)):
            dense = np.zeros((x.n_rows, 4))
            dense[x.row_ids(), x.indices] = x.data
            expected = (dense - scaler.mins) / span
            got = np.zeros_like(expected)
            got[scaled.row_ids(), scaled.indices] = scaled.data
            assert got.tobytes() == expected.tobytes()
            assert (scaled.data != 0.0).all()
        for r, w in ((0, 0), (2, 1)):
            lo, hi = batch.indptr[r], batch.indptr[r + 1]
            wlo, whi = whole.indptr[w], whole.indptr[w + 1]
            assert batch.indices[lo:hi].tobytes() == whole.indices[wlo:whi].tobytes()
            assert batch.data[lo:hi].tobytes() == whole.data[wlo:whi].tobytes()


class TestInformationGain:
    def _vocab(self, names):
        return build_vocabulary([Counter(dict.fromkeys(names, 1))] * 2, min_df=1)

    def test_perfect_predictor_is_one_bit(self):
        vocab = self._vocab(["f"])
        vectors = [
            SparseVector.from_pairs([(0, 1.0)], 1),
            SparseVector.from_pairs([(0, 1.0)], 1),
            SparseVector.from_pairs([], 1),
            SparseVector.from_pairs([], 1),
        ]
        labels = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        ranked = information_gain(from_rows(vectors), labels, vocab)
        assert ranked == [("f", pytest.approx(1.0))]

    def test_constant_feature_is_zero(self):
        vocab = self._vocab(["f"])
        vectors = [SparseVector.from_pairs([(0, 1.0)], 1)] * 4
        labels = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        assert information_gain(from_rows(vectors), labels, vocab)[0][1] == 0.0

    def test_pure_split_on_four_docs(self):
        vocab = self._vocab(["f", "g"])
        fi, gi = vocab.index_of("f"), vocab.index_of("g")
        vectors = [
            SparseVector.from_pairs([(fi, 1.0)], 2),
            SparseVector.from_pairs([(fi, 1.0), (gi, 1.0)], 2),
            SparseVector.from_pairs([], 2),
            SparseVector.from_pairs([(gi, 1.0)], 2),
        ]
        labels = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        ranked = dict(information_gain(from_rows(vectors), labels, vocab))
        assert ranked["f"] == pytest.approx(1.0)
        # g is present in one doc of each class: knowing it gains nothing
        assert ranked["g"] == pytest.approx(0.0, abs=1e-12)

    def test_sorted_descending_with_name_tiebreak(self):
        vocab = self._vocab(["b", "a"])
        vectors = [SparseVector.from_pairs([], 2)] * 3
        labels = [Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        ranked = information_gain(from_rows(vectors), labels, vocab)
        assert [name for name, _ in ranked] == ["a", "b"]

    def test_bounded_by_label_entropy_and_relabel_invariant(self):
        vocab = self._vocab(["f"])
        vectors = [
            SparseVector.from_pairs([(0, 1.0)], 1),
            SparseVector.from_pairs([], 1),
            SparseVector.from_pairs([(0, 1.0)], 1),
        ]
        labels = [Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        swapped = [Label.NON_DEFECT, Label.DEFECT, Label.DEFECT]
        h_y = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
        ig = information_gain(from_rows(vectors), labels, vocab)[0][1]
        ig_swapped = information_gain(from_rows(vectors), swapped, vocab)[0][1]
        assert 0.0 <= ig <= h_y + 1e-12
        assert ig == pytest.approx(ig_swapped)
