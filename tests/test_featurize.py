"""The one-pass featurizer against the per-document oracle.

`pipeline.featurize_corpus` must give the matrix and vocabulary that
`sparse_oracle.featurize_corpus` gives (a `Counter` per document, one
`vectorize` row each, joined by `CsrMatrix.stack`) bit for bit, in less
memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_oracle
from conftest import make_corpus, perfbench_module
from rareclass.corpus import Label, load_corpus
from rareclass.features import (
    STRUCTURAL_FEATURES,
    FeatureSettings,
    Vocabulary,
    load_clusters,
)
from rareclass.normalize import NameLexicon, NormalizationConfig, load_name_lexicon
from rareclass.pipeline import featurize_corpus


NAMES = NameLexicon(frozenset({"emma", "noah"}))
NORM = NormalizationConfig()
WORDS = ("my", "baby", "emma", "has", "a", "rash", "Rash!", "doc", "said", "ok", "fever", "#tired")
CLUSTERS = {"rash": "01", "doc": "01", "fever": "1", "ok": "001", "babi": "1"}
TEXTS = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
    st.sampled_from(["", " ", "  \t ", "ok"]),
)


def corpora(max_size=8):
    return st.lists(TEXTS, max_size=max_size).map(
        lambda texts: make_corpus(
            (f"t{i}", text, Label.NON_DEFECT) for i, text in enumerate(texts)
        )
    )


feature_settings = st.builds(
    lambda n_min, extra, min_df, binary, use_clusters, use_structural: FeatureSettings(
        n_min, n_min + extra, min_df, binary, use_clusters, use_structural
    ),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def assert_same(got, expected):
    (x, vocab), (x_oracle, vocab_oracle) = got, expected
    assert x.dim == x_oracle.dim
    for name in ("indptr", "indices", "data"):
        array, oracle = getattr(x, name), getattr(x_oracle, name)
        assert array.dtype == oracle.dtype, name
        assert np.array_equal(array, oracle), name
    assert vocab.names == vocab_oracle.names
    assert vocab.kinds == vocab_oracle.kinds
    assert vocab.min_df == vocab_oracle.min_df


class TestEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(corpora(), feature_settings, st.sampled_from([CLUSTERS, {}, None]))
    def test_built_vocabulary(self, corpus, feats, clusters):
        args = (corpus, NAMES, clusters, NORM, feats)
        assert_same(featurize_corpus(*args), sparse_oracle.featurize_corpus(*args))

    @settings(max_examples=200, deadline=None)
    @given(corpora(), corpora(), feature_settings, st.sampled_from([CLUSTERS, None]))
    def test_given_vocabulary_drops_unseen_features(self, train, corpus, feats, clusters):
        _, vocab = sparse_oracle.featurize_corpus(train, NAMES, clusters, NORM, feats)
        args = (corpus, NAMES, clusters, NORM, feats, vocab)
        assert_same(featurize_corpus(*args), sparse_oracle.featurize_corpus(*args))

    @settings(max_examples=100, deadline=None)
    @given(
        corpora(),
        st.sets(st.sampled_from(["my", "rash", "doc said", "cluster:01", *STRUCTURAL_FEATURES])),
        feature_settings,
    )
    def test_any_given_vocabulary(self, corpus, names, feats):
        ordered = tuple(sorted(names))
        vocab = Vocabulary(ordered, feats.min_df)
        args = (corpus, NAMES, CLUSTERS, NORM, feats, vocab)
        assert_same(featurize_corpus(*args), sparse_oracle.featurize_corpus(*args))

    @pytest.mark.parametrize("use_structural", [False, True])
    def test_empty_corpus(self, use_structural):
        feats = FeatureSettings(use_structural=use_structural)
        args = (make_corpus([]), NAMES, CLUSTERS, NORM, feats)
        got = featurize_corpus(*args)
        assert_same(got, sparse_oracle.featurize_corpus(*args))
        assert got[0].n_rows == 0

    def test_zero_structural_values_are_dropped(self):
        corpus = make_corpus([("a", "", Label.DEFECT), ("b", " \t ", Label.DEFECT)])
        args = (corpus, NAMES, CLUSTERS, NORM, FeatureSettings(min_df=1))
        x, vocab = featurize_corpus(*args)
        assert_same((x, vocab), sparse_oracle.featurize_corpus(*args))
        assert x.indptr.tolist() == [0, 0, 1]
        assert vocab.names[x.indices[0]] == "struct:char_length" and x.data[0] == 3.0


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A 3,000-tweet corpus from perfbench/corpus_gen.py, with its names and
    clusters files, loaded as the benchmark contract loads perfbench."""
    module = perfbench_module("corpus_gen")
    paths = module.write_inputs(module.generate(1, 3000), tmp_path_factory.mktemp("gen"))
    return (
        load_corpus(paths["corpus"]),
        load_name_lexicon(paths["names"]),
        load_clusters(paths["clusters"]),
    )


def traced_peak(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_well_below_the_oracle(generated):
    corpus, names, clusters = generated
    args = (corpus, names, clusters, NORM, FeatureSettings())
    featurize_corpus(*args)  # fills the stemmer's memo, which neither run should count
    oracle = traced_peak(sparse_oracle.featurize_corpus, *args)
    assert traced_peak(featurize_corpus, *args) <= 0.6 * oracle
