"""Model persistence: round-trips, byte determinism, version gating."""

import json

import numpy as np
import pytest

from rareclass.corpus import Label
from rareclass.errors import DataError
from rareclass.features import FeatureSettings, Vocabulary, fit_scaler
from rareclass.model_store import StoredModel, load_model, save_model
from rareclass.naive_bayes import predict_nb, train_nb
from rareclass.normalize import NormalizationConfig
from rareclass.svm import SvmParams, predict_svm, train_svm

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
    vocab = Vocabulary(tuple(f"f{i}" for i in range(dim)), ("ngram",) * dim, 1)
    scaler = fit_scaler(from_rows(vectors))
    return model, vocab, scaler


class TestSvmRoundTrip:
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
        vocab = Vocabulary(tuple(f"f{i}" for i in range(4)), ("ngram",) * 4, 1)
        path = tmp_path / "nb.json"
        save_model(path, stored(model, vocab))
        loaded = load_model(path)
        assert loaded.kind == "nb" and loaded.scaler is None
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
        vocab = Vocabulary(("a", "b", "c"), ("ngram",) * 3, 1)
        save_model(model_path, stored(train_nb(from_rows(vectors), labels), vocab))
        doc = json.loads(model_path.read_text())
        mutate(doc)
        model_path.write_text(json.dumps(doc))
        return model_path

    def test_unknown_version_rejected(self, tmp_path):
        for version in (99, 1):
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
