"""Model and features files: round-trips, exact numbers, byte determinism, version gating."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from rareclass.config import PipelineConfig
from rareclass.corpus import Label, load_corpus, three_way_split
from rareclass.errors import DataError
from rareclass.features import (
    CsrMatrix,
    FeatureSettings,
    Scaler,
    Vocabulary,
    apply_scaler,
    fit_scaler,
    load_clusters,
)
from rareclass.model_store import (
    FEATURES_FORMAT,
    FEATURES_VERSION,
    FORMAT_NAME,
    FORMAT_VERSION,
    StoredModel,
    load_features,
    load_model,
    save_features,
    save_model,
)
from rareclass.naive_bayes import GAUSSIAN, MULTINOMIAL, NbModel, predict_nb, train_nb
from rareclass.normalize import load_name_lexicon
from rareclass.pipeline import train_from_corpus
from rareclass.svm import PairModel, SvmModel, SvmParams, predict_svm, train_svm

from sparse_oracle import SparseVector, from_rows


def stored(classifier, vocab, scaler=None):
    """A model record with default featurization settings."""
    return StoredModel(classifier, vocab, scaler, FeatureSettings(), {})


def random_vectors(rng, n, dim, density=0.4):
    out = []
    for _ in range(n):
        pairs = [
            (j, float(rng.uniform(-2, 2)))
            for j in range(dim)
            if rng.uniform() < density
        ]
        out.append(SparseVector.from_pairs(pairs, dim))
    return out


@pytest.fixture
def trained_svm():
    rng = np.random.default_rng(41)
    dim = 6
    vectors = random_vectors(rng, 40, dim)
    labels = [
        (Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT)[i % 3]
        for i in range(40)
    ]
    params = SvmParams(c=10.0, gamma=0.5)
    scaler = fit_scaler(from_rows(vectors))
    model = train_svm(apply_scaler(scaler, from_rows(vectors)), labels, params)
    vocab = Vocabulary(tuple(f"f{i}" for i in range(dim)))
    return model, vocab, scaler


class TestSvmRoundTrip:
    def test_loads_back_equal_storing_each_fact_once(self, tmp_path):
        # gamma and class weights left to training: 1/dim and N / (K * N_c)
        rng = np.random.default_rng(5)
        vectors = random_vectors(rng, 30, 5)
        labels = [(Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT)[i % 3] for i in range(30)]
        scaler = fit_scaler(from_rows(vectors))
        model = train_svm(apply_scaler(scaler, from_rows(vectors)), labels, SvmParams(c=10.0))
        vocab = Vocabulary(tuple(f"f{i}" for i in range(5)))
        record = stored(model, vocab, scaler)
        path = tmp_path / "model.json"
        save_model(path, record)
        assert load_model(path) == record
        doc = json.loads(path.read_text())
        assert doc["vocabulary"].keys() == {"names"}
        assert not {"dim", "gamma"} & doc["svm"].keys()
        assert doc["svm"]["params"]["gamma"] == 0.2
        assert doc["svm"]["class_weights"] == {"defect": 1.5, "non_defect": 0.75}

    def test_identical_predictions_on_random_vectors(self, trained_svm, tmp_path):
        model, vocab, scaler = trained_svm
        path = tmp_path / "model.json"
        save_model(path, stored(model, vocab, scaler))
        loaded = load_model(path)
        assert loaded.kind == "svm"
        assert loaded.vocabulary == vocab
        assert loaded.scaler == scaler
        rng = np.random.default_rng(7)
        for probe in random_vectors(rng, 200, model.dim):
            before = predict_svm(model, from_rows([probe]))
            after = predict_svm(loaded.classifier, from_rows([probe]))
            assert before[0][0] is after[0][0]
            assert before[1] == after[1]

    def test_each_support_vector_stored_once(self, trained_svm, tmp_path):
        model, vocab, scaler = trained_svm
        path = tmp_path / "model.json"
        save_model(path, stored(model, vocab, scaler))
        svm = json.loads(path.read_text())["svm"]
        pool = svm["support_vectors"]
        rows = {
            (tuple(pool["indices"][a:b]), tuple(pool["values"][a:b]))
            for a, b in zip(pool["indptr"], pool["indptr"][1:])
        }
        assert len(rows) == len(pool["indptr"]) - 1
        used = {i for pair in svm["pairs"] for i in pair["support"]}
        assert used == set(range(len(rows)))
        assert all(len(pair["support"]) == len(pair["alpha"]) for pair in svm["pairs"])
        assert sum(len(pair["support"]) for pair in svm["pairs"]) > len(rows)

    def test_saved_bytes_deterministic(self, trained_svm, tmp_path):
        model, vocab, scaler = trained_svm
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, stored(model, vocab, scaler))
        save_model(b, stored(model, vocab, scaler))
        assert a.read_bytes() == b.read_bytes()


def demo_record(demo_paths, *overrides):
    """The model trained on the demo corpus's default training split, with
    the default config but for `overrides` (``key=value`` strings)."""
    corpus = load_corpus(demo_paths["corpus"])
    names = load_name_lexicon(demo_paths["names"])
    clusters = load_clusters(demo_paths["clusters"])
    split = three_way_split(corpus, 0.2, 0.2, seed=13)
    cfg = PipelineConfig.from_sources(None, list(overrides))
    return train_from_corpus(split.train, cfg, names, clusters)[0]


class TestPoolValues:
    """The pool lists only the values of the columns that hold one other than 1.0."""

    # column 2 mixes 1.0 with other values, row 1 is empty, column 0 holds only 1.0
    MIXED = CsrMatrix.from_arrays(
        [0, 2, 2, 5, 6], [0, 2, 0, 1, 2, 2], [1.0, 0.5, 1.0, 1.0, 1.0, 0.25], 3
    )

    @staticmethod
    def saved(tmp_path, pool, scaler=None):
        """A one-pair SVM over every row of `pool`, saved with `scaler` (by
        default (0, 1) in every column, which leaves the values as they are);
        its path and record."""
        n, labels = pool.n_rows, (Label.DEFECT, Label.NON_DEFECT)
        pair = PairModel(*labels, np.arange(n), np.full(n, 0.5), np.ones(n), 0.25, 3, True)
        params = SvmParams(gamma=0.5, class_weights=dict.fromkeys(labels, 1.0))
        vocab = Vocabulary(tuple(f"f{i}" for i in range(pool.dim)))
        if scaler is None:
            scaler = Scaler(np.zeros(pool.dim), np.ones(pool.dim))
        record = stored(SvmModel(labels, (pair,), params, pool), vocab, scaler)
        path = tmp_path / "model.json"
        save_model(path, record)
        return path, record

    @pytest.mark.parametrize(
        "pool,valued,values",
        [
            (MIXED, [2], [0.5, 1, 0.25]),  # 1.0 written as an integer
            (CsrMatrix.from_arrays([0, 2, 2, 3], [0, 3, 1], [1.0, 1.0, 1.0], 4), [], []),
            (CsrMatrix.from_arrays([0, 0], [], [], 2), [], []),
        ],
        ids=["mixed-column", "all-ones", "one-empty-row"],
    )
    def test_only_valued_columns_are_written(self, tmp_path, pool, valued, values):
        path, record = self.saved(tmp_path, pool)
        written = json.loads(path.read_text())["svm"]["support_vectors"]
        assert written["valued_columns"] == valued
        assert bits(written["values"]) == bits(values)
        loaded = load_model(path)
        assert loaded == record
        assert bits(loaded.classifier.support_vectors.data) == bits(pool.data)
        assert_rewrites_itself(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            ("missing", "missing key 'valued_columns'"),
            ("unsorted", "svm: support_vectors.valued_columns must increase strictly"),
            ("repeated", "svm: support_vectors.valued_columns must increase strictly"),
            ("negative", "svm: support_vectors.valued_columns must increase strictly"),
            ("at dim", "svm: support_vectors.valued_columns must increase strictly"),
            ("values too long", "svm: support_vectors.values must hold one value per entry"),
            ("values too short", "svm: support_vectors.values must hold one value per entry"),
            ("span too small", "svm: support_vectors.values must scale into [0, 1]"),
            ("max too small", "svm: support_vectors.values must scale into [0, 1]"),
            ("min too large", "svm: support_vectors.values must scale into [0, 1]"),
        ],
        ids=["missing", "unsorted", "repeated", "negative", "at-dim", "values-too-long",
             "values-too-short", "span-too-small", "max-too-small", "min-too-large"],
    )
    def test_bad_valued_columns_or_values_rejected(self, tmp_path, edit, message):
        # columns 1 and 2 are valued; column 0 holds only 1.0
        unscaled = CsrMatrix.from_arrays([0, 3, 5], [0, 1, 2, 0, 2], [1.0, 2.0, 1.0, 1.0, 3.0], 3)
        scaler = Scaler(np.zeros(3), np.array([1.0, 2.0, 3.0]))  # each column's range, and 0
        path, _ = self.saved(tmp_path, apply_scaler(scaler, unscaled), scaler)
        doc = json.loads(path.read_text())
        assert doc["scaler"] == {"columns": [1, 2], "mins": [0, 0], "maxs": [2, 3]}
        written = doc["svm"]["support_vectors"]
        assert written["valued_columns"] == [1, 2] and written["values"] == [2, 1, 3]
        valued, values = written["valued_columns"], written["values"]
        if edit == "missing":
            del written["valued_columns"]
        elif edit == "unsorted":
            valued.reverse()
        elif edit == "repeated":
            valued[0] = valued[1]
        elif edit == "negative":
            valued[0] = -1
        elif edit == "at dim":
            valued[1] = 3
        elif edit == "values too long":
            values.append(4.0)
        elif edit == "values too short":
            values.pop()
        elif edit == "span too small":  # column 1's value, 2.0, over a span of 5e-324
            doc["scaler"]["maxs"][0] = 5e-324
        elif edit == "max too small":  # column 2's 3.0 scales to 1.5
            doc["scaler"]["maxs"][1] = 2
        else:  # column 2's 1.0 scales to -1
            doc["scaler"]["mins"][1] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)

    def test_demo_model_values_only_the_structural_columns(self, tmp_path, demo_paths):
        record = demo_record(demo_paths)
        path = tmp_path / "model.json"
        save_model(path, record)
        written = json.loads(path.read_text())["svm"]["support_vectors"]
        vocab = record.vocabulary
        structural = [vocab.index_of("struct:char_length"), vocab.index_of("struct:word_length")]
        assert written["valued_columns"] == sorted(structural)
        assert load_model(path) == record


class TestUnscaledPool:
    """The pool is written as the feature values before scaling, which the
    stored scaler maps back onto the trained pool bit for bit."""

    @staticmethod
    def saved_demo(tmp_path, demo_paths, *overrides):
        """A demo SVM model trained with `overrides`, saved; its record and written pool."""
        record = demo_record(demo_paths, *overrides)
        path = tmp_path / "model.json"
        save_model(path, record)
        assert load_model(path) == record
        assert_rewrites_itself(path)
        return record, json.loads(path.read_text())["svm"]["support_vectors"]

    def test_smote_interpolations_read_back_equal(self, tmp_path, demo_paths):
        # SMOTE runs before the scaler, so the values it makes are not counts
        _, written = self.saved_demo(tmp_path, demo_paths, "sampler.method=smote")
        assert any(type(v) is float for v in written["values"])

    def test_counts_are_written_as_integers(self, tmp_path, demo_paths):
        record, written = self.saved_demo(tmp_path, demo_paths, "features.binary=false")
        names = [record.vocabulary.names[c] for c in written["valued_columns"]]
        assert any(not name.startswith("struct:") for name in names)  # an n-gram count above 1
        assert all(type(v) is int for v in written["values"])

    @pytest.mark.parametrize(
        "unscaled,mins,maxs,written",
        [
            # column 0's minimum, 2, scales to 0, which the pool drops: written
            # back; 15 scales to a v whose v * 23 + 2 is 14.999999999999998
            (
                CsrMatrix.from_arrays(
                    [0, 2, 3, 5], [0, 1, 0, 0, 1], [2.0, 1.0, 25.0, 15.0, 1.0], 2
                ),
                [2.0, 0.0], [25.0, 1.0],
                {"indptr": [0, 2, 3, 5], "indices": [0, 1, 0, 0, 1], "valued_columns": [0],
                 "values": [2, 25, 15]},
            ),
            # v * 23 + 2 is one ulp below 3.725 and one above 8.382, and
            # neither scales back to v
            (
                CsrMatrix.from_arrays([0, 1, 2], [0, 0], [3.725, 8.382], 1), [2.0], [25.0],
                {"indptr": [0, 1, 2], "indices": [0, 0], "valued_columns": [0],
                 "values": [3.725, 8.382]},
            ),
            # column 0 is constant, so neither the pool nor the file holds it;
            # column 1 holds values that are not counts
            (
                CsrMatrix.from_arrays(
                    [0, 2, 4, 6], [0, 1, 0, 1, 0, 1], [3.0, 0.1, 3.0, 0.7, 3.0, 0.35], 2
                ),
                [3.0, 0.1], [3.0, 0.7],
                {"indptr": [0, 1, 2, 3], "indices": [1, 1, 1], "valued_columns": [1],
                 "values": [0.1, 0.7, 0.35]},
            ),
        ],
        ids=["minimum-filled", "within-ulps", "constant-column"],
    )
    def test_pool_written_before_scaling(self, tmp_path, unscaled, mins, maxs, written):
        scaler = Scaler(np.array(mins), np.array(maxs))
        path, record = TestPoolValues.saved(tmp_path, apply_scaler(scaler, unscaled), scaler)
        assert json.loads(path.read_text())["svm"]["support_vectors"] == written
        assert load_model(path) == record
        assert_rewrites_itself(path)

    @pytest.mark.parametrize(
        "pool,message",
        [
            # an entry in column 1, whose (min, max) is (3, 3)
            (CsrMatrix.from_arrays([0, 1, 2], [1, 0], [1.0, 0.5], 2),
             "svm: support_vectors: row 0, column 1: no unscaled value scales to 1.0"),
            # an entry of 0, which scaling drops
            (CsrMatrix.from_arrays([0, 1, 2], [0, 0], [0.5, 0.0], 2),
             "svm: support_vectors: row 1 does not scale back from its unscaled values"),
        ],
        ids=["constant-column", "zero"],
    )
    def test_pool_scaling_cannot_make_is_internal_error(self, tmp_path, pool, message):
        scaler = Scaler(np.array([0.0, 3.0]), np.array([1.0, 3.0]))
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            TestPoolValues.saved(tmp_path, pool, scaler)


class TestNbRoundTrip:
    def test_identical_predictions(self, tmp_path):
        rng = np.random.default_rng(13)
        vectors = [
            SparseVector.from_pairs([(j, abs(float(rng.uniform(0, 3)))) for j in range(4)], 4)
            for _ in range(12)
        ]
        labels = [(Label.DEFECT, Label.NON_DEFECT)[i % 2] for i in range(12)]
        model = train_nb(from_rows(vectors), labels)
        record = stored(model, Vocabulary(tuple(f"f{i}" for i in range(4))))
        path = tmp_path / "nb.json"
        save_model(path, record)
        loaded = load_model(path)
        assert loaded == record and loaded.kind == "nb" and loaded.scaler is None
        doc = json.loads(path.read_text())
        assert doc["vocabulary"].keys() == {"names"} and "dim" not in doc["nb"]
        for probe in vectors:
            probe = from_rows([probe])
            assert predict_nb(model, probe) == predict_nb(loaded.classifier, probe)


class TestFormatGating:
    def _minimal(self, tmp_path, mutate):
        model_path = tmp_path / "m.json"
        rng = np.random.default_rng(3)
        vectors = [
            SparseVector.from_pairs([(j, float(rng.uniform(0, 3))) for j in range(3)], 3)
            for _ in range(8)
        ]
        labels = [(Label.DEFECT, Label.NON_DEFECT)[i % 2] for i in range(8)]
        vocab = Vocabulary(("a", "b", "c"))
        save_model(model_path, stored(train_nb(from_rows(vectors), labels), vocab))
        doc = json.loads(model_path.read_text())
        mutate(doc)
        model_path.write_text(json.dumps(doc))
        return model_path

    def test_unknown_version_rejected(self, tmp_path):
        for version in (99, 6, 5, 4, 3, 2, 1):
            path = self._minimal(tmp_path, lambda d: d.update(version=version))
            with pytest.raises(DataError, match="version"):
                load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = self._minimal(tmp_path, lambda d: d.update(format="other.model"))
        with pytest.raises(DataError, match="not a rareclass model"):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)


# -- exactness: every float reads back with the same bits ---------------------

EDGES = [
    -0.0, 0.0, 1.0, -1.0, 3.0, 0.1, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53),
    2.0**53 + 2, 2.0**60, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
]
floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
positive = floats.map(abs).filter(lambda v: v > 0.0)


def tables(values, dim):
    """Two rows of `dim` values each."""
    return st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=2, max_size=2)


def bits(values) -> list[str]:
    """Each value's type and exact bits; -0.0 and 0.0 differ."""
    return [f"{type(v).__name__} {float(v).hex()}" for v in values]


@st.composite
def sparse_matrices(draw, dim, values=floats):
    rows = draw(st.lists(st.sets(st.integers(0, dim - 1)), max_size=5))
    columns = [sorted(row) for row in rows]
    nnz = sum(map(len, columns))
    values = draw(st.lists(values, min_size=nnz, max_size=nnz))
    indptr = np.cumsum([0] + [len(row) for row in columns])
    return CsrMatrix.from_arrays(indptr, [c for row in columns for c in row], values, dim)


@st.composite
def svm_models(draw):
    dim = draw(st.integers(1, 9))
    # unscaled values as binary features leave them, nothing but 1.0, or 1.0
    # mixed with any float, so that a column can hold both
    values = draw(st.sampled_from([st.just(1.0), st.one_of(st.just(1.0), floats), floats]))
    unscaled = draw(sparse_matrices(dim, values).filter(lambda x: x.n_rows > 0))
    # a scaler that covers each column's values and implicit zeros, as
    # `fit_scaler`'s does: that range, widened by up to two drawn values, or
    # (0, 1), (-0.0, 1) or (0, 0) where one of those covers it
    fitted = fit_scaler(unscaled)
    bounds = []
    for lo, hi in zip(fitted.mins.tolist(), fitted.maxs.tolist()):
        wider = draw(st.lists(floats, max_size=2))
        options = [[min([lo, *wider]), max([hi, *wider])]]
        options += [b for b in ([0.0, 1.0], [-0.0, 1.0], [0.0, 0.0]) if b[0] <= lo and hi <= b[1]]
        bounds.append(draw(st.sampled_from(options)))
    scaler = Scaler(np.array([lo for lo, _ in bounds]), np.array([hi for _, hi in bounds]))
    with np.errstate(all="ignore"):
        pool = apply_scaler(scaler, unscaled)  # the pool training keeps
    assume(np.isfinite(pool.data).all())  # a span past the largest float gives nan
    n = pool.n_rows
    weights = {Label.DEFECT: draw(positive), Label.NON_DEFECT: draw(positive)}
    params = SvmParams(
        c=draw(positive), gamma=draw(positive), class_weights=weights,
        tolerance=draw(positive), max_iterations=draw(st.integers(1, 10**7)),
    )
    # as SMO leaves them: at most max_iterations, and all of them unless converged
    converged = draw(st.booleans())
    iterations = draw(st.integers(1, params.max_iterations)) if converged else params.max_iterations
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    # each alpha in (0, c * w], as training leaves it: the edge values inside,
    # the bound itself, or any float between
    boxes = [params.c * weights[Label.DEFECT if v > 0 else Label.NON_DEFECT] for v in y]
    assume(min(boxes) > 0.0)  # c * w may underflow
    alpha = [
        draw(st.one_of(
            st.sampled_from([v for v in (*EDGES, box) if 0.0 < v <= box and v < math.inf]),
            st.floats(0.0, box, exclude_min=True, allow_infinity=False),
        ))
        for box in boxes
    ]
    pair = PairModel(
        Label.DEFECT, Label.NON_DEFECT, np.arange(n), np.array(alpha), np.array(y),
        draw(floats), iterations, converged,
    )
    model = SvmModel((Label.DEFECT, Label.NON_DEFECT), (pair,), params, pool)
    return dim, model, scaler


def svm_floats(model: SvmModel, scaler: Scaler) -> list[str]:
    p = model.params
    return bits([
        *p.class_weights.values(), p.c, p.tolerance, p.gamma, *model.support_vectors.data,
        *(v for pair in model.pairs for v in (*pair.alpha, pair.bias)), *scaler.mins, *scaler.maxs,
    ])


def assert_rewrites_itself(path):
    again = path.with_name("again.json")
    save_model(again, load_model(path))
    assert again.read_bytes() == path.read_bytes()


class TestExactRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(svm_models())
    def test_svm_floats_keep_their_bits(self, tmp_path_factory, drawn):
        dim, model, scaler = drawn
        path = tmp_path_factory.mktemp("svm") / "model.json"
        record = stored(model, Vocabulary(tuple(f"f{i}" for i in range(dim))), scaler)
        save_model(path, record)
        loaded = load_model(path)
        assert svm_floats(loaded.classifier, loaded.scaler) == svm_floats(model, scaler)
        assert loaded.classifier.support_vectors == model.support_vectors
        assert np.array_equal(loaded.classifier.pairs[0].support, model.pairs[0].support)
        assert loaded == record
        assert_rewrites_itself(path)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([MULTINOMIAL, GAUSSIAN]), st.data())
    def test_nb_floats_keep_their_bits(self, tmp_path_factory, dim, event_model, data):
        priors = st.lists(floats.map(lambda v: -abs(v)), min_size=2, max_size=2)
        drawn = {"log_likelihood": data.draw(tables(floats, dim))}
        if event_model == GAUSSIAN:
            means, variances = data.draw(tables(floats, dim)), data.draw(tables(positive, dim))
            drawn = {"means": means, "variances": variances}
        model = NbModel(
            (Label.DEFECT, Label.NON_DEFECT), np.array(data.draw(priors)), event_model, dim,
            **{key: np.array(rows) for key, rows in drawn.items()},
        )
        path = tmp_path_factory.mktemp("nb") / "model.json"
        save_model(path, stored(model, Vocabulary(tuple(f"f{i}" for i in range(dim)))))
        loaded = load_model(path).classifier
        assert bits(loaded.log_priors) == bits(model.log_priors)
        for key in drawn:
            assert [bits(row) for row in getattr(loaded, key)] == [
                bits(row) for row in getattr(model, key)
            ]
        assert_rewrites_itself(path)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(sparse_matrices))
    def test_features_keep_their_bits(self, tmp_path_factory, x):
        vocab = Vocabulary(tuple(f"f{i}" for i in range(x.dim)))
        corpus = make_corpus([(f"t{i}", "text", Label.DEFECT) for i in range(x.n_rows)])
        path = tmp_path_factory.mktemp("features") / "features.json"
        feature_settings = FeatureSettings(n_max=2, min_df=3, binary=False)
        save_features(path, vocab, x, corpus, feature_settings)
        assert json.loads(path.read_text())["vocabulary"].keys() == {"names"}
        loaded_vocab, loaded, ids, labels, loaded_settings = load_features(path)
        assert loaded_vocab == vocab and loaded_settings == feature_settings
        assert loaded == x and bits(loaded.data) == bits(x.data)
        assert ids == [f"t{i}" for i in range(x.n_rows)] and labels == [Label.DEFECT] * x.n_rows


def test_integral_floats_are_written_as_integers(tmp_path):
    # column 0 is valued, by its 3.0, so its 1.0 is written too
    x = CsrMatrix.from_arrays([0, 3, 4], [0, 2, 5, 0], [1.0, -0.0, 2.0**53, 3.0], 6)
    vocab = Vocabulary(tuple(f"f{i}" for i in range(6)))
    path = tmp_path / "features.json"
    corpus = make_corpus([("t0", "text", Label.DEFECT), ("t1", "text", Label.NON_DEFECT)])
    save_features(path, vocab, x, corpus, FeatureSettings())
    text = path.read_text()
    assert '"ids":["t0","t1"],"labels":["defect","non_defect"],"matrix":{' in text
    assert ('"indices":[0,2,3,0],"indptr":[0,3,4],"valued_columns":[0,2,5],'
            '"values":[1,-0.0,9007199254740992.0,3]}') in text


def test_readme_format_sections_name_the_current_versions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for text in (
        f"(`{FORMAT_NAME}`, version {FORMAT_VERSION})",
        f"Version {FORMAT_VERSION} stores each fact once",
        f"retrain to get a version {FORMAT_VERSION} file",
        f"(`{FEATURES_FORMAT}`, version {FEATURES_VERSION})",
    ):
        assert text in readme
