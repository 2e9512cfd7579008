"""The token-id featurizer where the hypothesis tests in test_featurize.py
do not reach: n-gram codes that base-V numbering would overflow, an
`n_max` far past the longest tweet, and the scoring path's memory.
"""

import itertools
import random

import numpy as np
import pytest

import sparse_oracle
from conftest import make_corpus
from rareclass import pipeline
from rareclass.corpus import Label
from rareclass.features import FeatureSettings, feature_kind
from rareclass.pipeline import featurize_corpus
from test_featurize import NAMES, NORM, assert_same, generated, traced_peak  # noqa: F401

# 1,125 consonant-vowel-consonant words, each its own Porter stem
WORDS = ["".join(w) for w in itertools.product("bcdfgklmnprstvz", "aeiou", "bcdfgklmnprstvz")]
LONGEST = 40


@pytest.fixture(scope="module")
def wide_corpora():
    """Two corpora over 300 of `WORDS`: tweets of 0 to `LONGEST` words, each
    tweet twice so that its longest n-grams reach min_df 2; and clusters
    for every third word."""
    rng = random.Random(21)
    words = rng.sample(WORDS, 300)
    texts = [" ".join(rng.choices(words, k=rng.randint(0, LONGEST))) for _ in range(60)]
    texts.append(" ".join(rng.choices(words, k=LONGEST)))
    train = make_corpus((f"t{i}", text, Label.DEFECT) for i, text in enumerate(texts + texts))
    test = make_corpus(
        (f"s{i}", " ".join(rng.choices(words, k=rng.randint(0, LONGEST))), Label.DEFECT)
        for i in range(40)
    )
    clusters = {word: format(i % 7 + 1, "b") for i, word in enumerate(words[::3])}
    return train, test, clusters


@pytest.mark.parametrize("n_max", [12, 10**6])
@pytest.mark.parametrize("binary", [True, False])
def test_long_ngrams_equal_the_oracle(wide_corpora, n_max, binary):
    train, test, clusters = wide_corpora
    feats = FeatureSettings(n_min=1, n_max=n_max, binary=binary)
    got = featurize_corpus(train, NAMES, clusters, NORM, feats)
    assert_same(got, sparse_oracle.featurize_corpus(train, NAMES, clusters, NORM, feats))
    vocab = got[1]
    grams = [name.count(" ") + 1 for name in vocab.names if feature_kind(name) == "ngram"]
    # codes numbered in base V at these lengths would not fit in an int64
    assert grams.count(1) ** 12 > 2**63
    assert max(grams) == min(n_max, LONGEST)
    args = (test, NAMES, clusters, NORM, feats, vocab)
    assert_same(featurize_corpus(*args), sparse_oracle.featurize_corpus(*args))


def test_ngram_lengths_stop_at_the_longest_tweet():
    tokens = ["a", "b", "c"]
    lengths = np.array([2, 0, 5, 1], np.int32)
    tok = np.array([0, 1, 2, 2, 2, 1, 0, 1], np.int32)
    groups = pipeline.extract_ngrams(tok, lengths, tokens, 2, 10**6)
    assert [name_of(np.arange(n_codes)) for _, n_codes, name_of, _ in groups] == [
        ["a b", "b a", "c b", "c c"],
        ["c b a", "c c b", "c c c"],
        ["c c b a", "c c c b"],
        ["c c c b a"],
    ]


def test_scoring_peak_memory_is_well_below_the_oracle(generated):  # noqa: F811
    corpus, names, clusters = generated
    feats = FeatureSettings()
    _, vocab = featurize_corpus(corpus.subset(range(0, 3000, 2)), names, clusters, NORM, feats)
    args = (corpus, names, clusters, NORM, feats, vocab)
    featurize_corpus(*args)  # fills the stemmer's memo, which neither run should count
    oracle = traced_peak(sparse_oracle.featurize_corpus, *args)
    assert traced_peak(featurize_corpus, *args) <= 0.6 * oracle
