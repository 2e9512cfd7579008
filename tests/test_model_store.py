"""Model and features files: round-trips, exact numbers, byte determinism, version gating."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from rareclass.corpus import Label
from rareclass.errors import DataError
from rareclass.features import CsrMatrix, FeatureSettings, Scaler, Vocabulary, fit_scaler
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
from rareclass.normalize import NormalizationConfig
from rareclass.svm import PairModel, SvmModel, SvmParams, predict_svm, train_svm

from sparse_oracle import SparseVector, from_rows


def stored(classifier, vocab, scaler=None):
    """A model record with default featurization settings."""
    return StoredModel(classifier, vocab, scaler, FeatureSettings(), NormalizationConfig(), {})


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
    model = train_svm(from_rows(vectors), labels, params)
    vocab = Vocabulary(tuple(f"f{i}" for i in range(dim)))
    scaler = fit_scaler(from_rows(vectors))
    return model, vocab, scaler


class TestSvmRoundTrip:
    def test_loads_back_equal_storing_each_fact_once(self, tmp_path):
        # gamma and class weights left to training: 1/dim and N / (K * N_c)
        rng = np.random.default_rng(5)
        vectors = random_vectors(rng, 30, 5)
        labels = [(Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT)[i % 3] for i in range(30)]
        model = train_svm(from_rows(vectors), labels, SvmParams(c=10.0))
        vocab, scaler = Vocabulary(tuple(f"f{i}" for i in range(5))), fit_scaler(from_rows(vectors))
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
        for version in (99, 3, 2, 1):
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
def sparse_matrices(draw, dim):
    rows = draw(st.lists(st.sets(st.integers(0, dim - 1)), max_size=5))
    columns = [sorted(row) for row in rows]
    nnz = sum(map(len, columns))
    values = draw(st.lists(floats, min_size=nnz, max_size=nnz))
    indptr = np.cumsum([0] + [len(row) for row in columns])
    return CsrMatrix.from_arrays(indptr, [c for row in columns for c in row], values, dim)


@st.composite
def svm_models(draw):
    dim = draw(st.integers(1, 9))
    pool = draw(sparse_matrices(dim).filter(lambda x: x.n_rows > 0))
    n = pool.n_rows
    weights = {Label.DEFECT: draw(positive), Label.NON_DEFECT: draw(positive)}
    params = SvmParams(
        c=draw(positive), gamma=draw(positive), class_weights=weights,
        tolerance=draw(positive), max_iterations=draw(st.integers(1, 10**7)),
    )
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
        draw(floats), draw(st.integers(1, 10**6)), draw(st.booleans()),
    )
    model = SvmModel((Label.DEFECT, Label.NON_DEFECT), (pair,), params, pool)
    bounds = [sorted(draw(st.lists(floats, min_size=2, max_size=2))) for _ in range(dim)]
    bounds = [draw(st.sampled_from([b, [0.0, 1.0], [-0.0, 1.0], [0.0, 0.0]])) for b in bounds]
    scaler = Scaler(np.array([lo for lo, _ in bounds]), np.array([hi for _, hi in bounds]))
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            NormalizationConfig, *[st.frozensets(st.text(min_size=1, max_size=8), max_size=4)] * 3
        ).filter(lambda config: config != NormalizationConfig())
    )
    def test_token_sets_read_back_equal(self, tmp_path_factory, normalization):
        # the token sets are the whole normalizer config, all of it saved
        model = NbModel(
            (Label.DEFECT, Label.NON_DEFECT), np.array([-0.5, -1.0]), MULTINOMIAL, 1,
            np.array([[-1.0], [-2.0]]),
        )
        record = StoredModel(
            model, Vocabulary(("f0",)), None, FeatureSettings(), normalization, {}
        )
        path = tmp_path_factory.mktemp("normalize") / "model.json"
        save_model(path, record)
        assert load_model(path) == record
        assert_rewrites_itself(path)


def test_integral_floats_are_written_as_integers(tmp_path):
    x = CsrMatrix.from_arrays([0, 3], [0, 2, 5], [1.0, -0.0, 2.0**53], 6)
    vocab = Vocabulary(tuple(f"f{i}" for i in range(6)))
    path = tmp_path / "features.json"
    save_features(path, vocab, x, make_corpus([("t0", "text", Label.DEFECT)]), FeatureSettings())
    assert '"indices":[0,2,3],"label":"defect","values":[1,-0.0,9007199254740992.0]' in (
        path.read_text()
    )


def test_readme_format_sections_name_the_current_versions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for text in (
        f"(`{FORMAT_NAME}`, version {FORMAT_VERSION})",
        f"Version {FORMAT_VERSION} stores each fact once",
        f"retrain to get a version {FORMAT_VERSION} file",
        f"(`{FEATURES_FORMAT}`, version {FEATURES_VERSION})",
    ):
        assert text in readme
