"""Imbalance samplers: Levenshtein ratio, under/over-sampling, synthesis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import Label, Tweet
from rareclass.features import SparseVector
from rareclass.sampling import (
    SimilarityThreshold,
    levenshtein_distance,
    levenshtein_ratio,
    levenshtein_ratio_bound,
    oversample_replacement,
    smote,
    undersample_near_fn,
    undersample_random,
    undersample_similar_majority,
)

from conftest import make_corpus


def oracle_distance(a: str, b: str) -> int:
    """Full-matrix dynamic program, kept independent of the library loop."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


class TestLevenshteinRatio:
    def test_identical(self):
        assert levenshtein_ratio("abc", "abc") == 1.0

    def test_single_vs_empty(self):
        assert levenshtein_ratio("a", "") == 0.0

    def test_kitten_sitting(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_ratio("kitten", "sitting") == pytest.approx(10 / 13)

    def test_both_empty_convention(self):
        assert levenshtein_ratio("", "") == 1.0

    def test_unicode_scalars(self):
        assert levenshtein_distance("café", "cafe") == 1
        assert levenshtein_distance("\U0001f60a", "") == 1

    @given(
        a=st.text(alphabet="ab \U0001f60aé", max_size=12),
        b=st.text(alphabet="ab \U0001f60aé", max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_properties(self, a, b):
        dist = levenshtein_distance(a, b)
        assert dist == oracle_distance(a, b)
        ratio = levenshtein_ratio(a, b)
        assert ratio == levenshtein_ratio(b, a)
        assert 0.0 <= ratio <= 1.0
        assert (ratio == 1.0) == (a == b)
        assert ratio <= levenshtein_ratio_bound(len(a), len(b)) + 1e-12

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SimilarityThreshold(0.0)
        with pytest.raises(ValueError):
            SimilarityThreshold(1.1)
        assert SimilarityThreshold(1.0).value == 1.0


def majority_corpus(majority_texts, minority_texts=()):
    rows = [(f"m{i}", t, Label.NON_DEFECT) for i, t in enumerate(majority_texts)]
    rows += [(f"p{i}", t, Label.DEFECT) for i, t in enumerate(minority_texts)]
    return make_corpus(rows)


class TestUndersampleSimilar:
    def test_exact_duplicate_keeps_first(self):
        corpus = majority_corpus(["same tweet", "same tweet"], ["minority stays"])
        sampled, report = undersample_similar_majority(corpus, 0.9)
        assert [i.tweet.id for i in sampled] == ["m0", "p0"]
        assert report.output_counts[Label.NON_DEFECT] == 1
        assert report.output_counts[Label.DEFECT] == 1

    def test_threshold_one_removes_nothing(self):
        corpus = majority_corpus(["same tweet", "same tweet"])
        sampled, _ = undersample_similar_majority(corpus, 1.0)
        assert len(sampled) == 2  # ratio never exceeds 1.0

    def test_pair_straddling_threshold(self):
        a, b = "abcdefghij", "abcdefghix"  # distance 1, ratio 19/20 = 0.95
        assert levenshtein_ratio(a, b) == pytest.approx(0.95)
        removed, _ = undersample_similar_majority(majority_corpus([a, b]), 0.90)
        kept, _ = undersample_similar_majority(majority_corpus([a, b]), 0.95)
        assert len(removed) == 1
        assert len(kept) == 2  # 0.95 is not strictly above the threshold

    def test_greedy_first_keeper_chains(self):
        # b is near a (dropped); c is near b but not near a, so c survives
        a = "aaaaaaaaaa"
        b = "aaaaaaaaab"
        c = "aaaaaaabbb"
        assert levenshtein_ratio(a, b) > 0.9
        assert levenshtein_ratio(a, c) <= 0.9
        corpus = majority_corpus([a, b, c])
        sampled, _ = undersample_similar_majority(corpus, 0.9)
        assert [i.tweet.id for i in sampled] == ["m0", "m2"]

    def test_rerun_is_bit_identical(self):
        corpus = majority_corpus(["one two three", "one two four", "five"], ["keep me"])
        first, _ = undersample_similar_majority(corpus, 0.7)
        second, _ = undersample_similar_majority(corpus, 0.7)
        assert [i.tweet.id for i in first] == [i.tweet.id for i in second]


class TestUndersampleNearFn:
    def test_identical_fn_removes_majority_item(self):
        corpus = majority_corpus(["boilerplate news", "other text"], ["sick child"])
        fn = [Tweet("fn1", "u", "boilerplate news")]
        sampled, report = undersample_near_fn(corpus, fn, 0.9)
        assert [i.tweet.id for i in sampled] == ["m1", "p0"]
        assert report.parameters["fn_count"] == 1

    def test_no_pair_exceeds_threshold_is_identity(self):
        corpus = majority_corpus(["completely different"], ["short"])
        fn = [Tweet("fn1", "u", "zzzzzz")]
        sampled, _ = undersample_near_fn(corpus, fn, 0.9)
        assert len(sampled) == len(corpus)

    def test_exact_removal_count_matches_pairwise_oracle(self):
        majority = [
            "the quick brown fox",
            "the quick brown fix",  # near fn0
            "a completely different tweet",
            "the quick brewn fox",  # near fn0
            "unrelated chatter here",
            "the quick brown fo",  # near fn0
        ]
        fn_texts = ["the quick brown fox!"]
        k = 0.85
        expected_removed = {
            t
            for t in majority
            if any(
                (len(t) + len(f) - oracle_distance(t, f)) / (len(t) + len(f)) > k
                for f in fn_texts
            )
        }
        corpus = majority_corpus(majority, ["minority"])
        fn = [Tweet(f"fn{i}", "u", t) for i, t in enumerate(fn_texts)]
        sampled, _ = undersample_near_fn(corpus, fn, k)
        kept_texts = {i.tweet.text for i in sampled if i.label == Label.NON_DEFECT}
        assert kept_texts == set(majority) - expected_removed
        assert len(expected_removed) == 4

    def test_empty_fn_set_warns_and_returns_input(self, caplog):
        corpus = majority_corpus(["a", "b"])
        with caplog.at_level("WARNING"):
            sampled, _ = undersample_near_fn(corpus, [], 0.9)
        assert sampled is corpus
        assert any("false-negative" in rec.message for rec in caplog.records)


class TestUndersampleRandom:
    def test_target_reached_minority_untouched(self):
        corpus = majority_corpus([f"maj {i}" for i in range(10)], [f"min {i}" for i in range(5)])
        sampled, report = undersample_random(corpus, 10, seed=3)
        assert len(sampled) == 10
        assert sampled.class_counts()[Label.DEFECT] == 5
        assert sampled.class_counts()[Label.NON_DEFECT] == 5
        assert report.parameters["seed"] == 3

    def test_identity_at_full_size(self):
        corpus = majority_corpus(["a", "b"], ["c"])
        sampled, _ = undersample_random(corpus, 3, seed=1)
        assert [i.tweet.id for i in sampled] == [i.tweet.id for i in corpus]

    def test_target_below_minority_total_rejected(self):
        corpus = majority_corpus(["a"], ["b", "c"])
        with pytest.raises(ValueError):
            undersample_random(corpus, 1, seed=0)

    def test_seeded_determinism(self):
        corpus = majority_corpus([f"maj {i}" for i in range(30)], ["min"])
        a, _ = undersample_random(corpus, 12, seed=7)
        b, _ = undersample_random(corpus, 12, seed=7)
        c, _ = undersample_random(corpus, 12, seed=8)
        assert [i.tweet.id for i in a] == [i.tweet.id for i in b]
        assert {i.tweet.id for i in c} != {i.tweet.id for i in a}

    def test_output_is_subset_in_corpus_order(self):
        corpus = majority_corpus([f"maj {i}" for i in range(20)], ["min"])
        sampled, _ = undersample_random(corpus, 8, seed=5)
        ids = [i.tweet.id for i in corpus]
        sampled_ids = [i.tweet.id for i in sampled]
        assert sampled_ids == [i for i in ids if i in set(sampled_ids)]


class TestOversampleReplacement:
    def _corpus(self, n_def, n_pos, n_non):
        rows = [(f"d{i}", f"defect {i}", Label.DEFECT) for i in range(n_def)]
        rows += [(f"p{i}", f"possible {i}", Label.POSSIBLE_DEFECT) for i in range(n_pos)]
        rows += [(f"n{i}", f"non {i}", Label.NON_DEFECT) for i in range(n_non)]
        return make_corpus(rows)

    def test_factor_rule_10_10_100(self):
        corpus = self._corpus(10, 10, 100)
        sampled, report = oversample_replacement(corpus)
        counts = sampled.class_counts()
        assert counts[Label.DEFECT] == 100
        assert counts[Label.POSSIBLE_DEFECT] == 100
        assert counts[Label.NON_DEFECT] == 100
        assert len(sampled) == 300
        assert report.parameters["factors"] == {
            "defect": 10, "possible_defect": 10, "non_defect": 1,
        }

    def test_balanced_input_is_identity(self):
        corpus = self._corpus(5, 5, 5)
        sampled, _ = oversample_replacement(corpus)
        assert [i.tweet.id for i in sampled] == [i.tweet.id for i in corpus]

    def test_each_item_appears_exactly_factor_times(self):
        corpus = self._corpus(3, 2, 10)
        sampled, _ = oversample_replacement(corpus)
        texts = [i.tweet.text for i in sampled]
        for i in range(3):
            assert texts.count(f"defect {i}") == 10 // 3
        for i in range(2):
            assert texts.count(f"possible {i}") == 10 // 2
        for i in range(10):
            assert texts.count(f"non {i}") == 1

    def test_derived_ids(self):
        corpus = self._corpus(1, 1, 2)
        sampled, _ = oversample_replacement(corpus)
        ids = [i.tweet.id for i in sampled]
        assert "d0#2" in ids and "p0#2" in ids and "d0" in ids


def dense(vec):
    out = [0.0] * vec.dim
    for i, v in zip(vec.indices, vec.values):
        out[i] = v
    return out


def segment_residual(s, x, nn):
    """Distance from s to the closed segment [x, nn] (all dense lists)."""
    d = [b - a for a, b in zip(x, nn)]
    dd = sum(v * v for v in d)
    if dd == 0.0:
        return sum((a - b) ** 2 for a, b in zip(s, x)) ** 0.5
    t = sum((si - xi) * di for si, xi, di in zip(s, x, d)) / dd
    t = min(max(t, 0.0), 1.0)
    proj = [xi + t * di for xi, di in zip(x, d)]
    return sum((a - b) ** 2 for a, b in zip(s, proj)) ** 0.5


def knn_indices(points, i, k):
    dists = sorted(
        (sum((a - b) ** 2 for a, b in zip(points[i], points[j])), j)
        for j in range(len(points))
        if j != i
    )
    return [j for _, j in dists[:k]]


class TestSmote:
    def _vectors(self, rnd, n, dim=4):
        return [
            SparseVector.from_pairs(
                [(j, round(rnd.uniform(-2, 2), 6)) for j in range(dim)], dim
            )
            for _ in range(n)
        ]

    def test_midpoint_interpolation_form(self):
        # the synthesis formula is exercised directly in test_features;
        # here we check every synthetic point is seed + u * (neighbor - seed)
        rnd = random.Random(5)
        minority = self._vectors(rnd, 6)
        majority = self._vectors(rnd, 30)
        augmented, report = smote(
            {Label.DEFECT: minority, Label.NON_DEFECT: majority},
            k_neighbors=3,
            seed=11,
        )
        out = augmented[Label.DEFECT]
        per_seed = (30 - 6) // 6
        assert len(out) == 6 + 6 * per_seed
        dense_min = [dense(v) for v in minority]
        for idx, synthetic in enumerate(out[6:]):
            seed_idx = idx // per_seed
            neighbors = knn_indices(dense_min, seed_idx, 3)
            residual = min(
                segment_residual(dense(synthetic), dense_min[seed_idx], dense_min[j])
                for j in neighbors
            )
            assert residual < 1e-9

    def test_counts_near_majority(self):
        rnd = random.Random(6)
        for n_min, n_maj in ((5, 49), (7, 70), (4, 9)):
            augmented, _ = smote(
                {
                    Label.POSSIBLE_DEFECT: self._vectors(rnd, n_min),
                    Label.NON_DEFECT: self._vectors(rnd, n_maj),
                },
                seed=1,
            )
            after = len(augmented[Label.POSSIBLE_DEFECT])
            assert abs(n_maj - after) < n_min
            assert len(augmented[Label.NON_DEFECT]) == n_maj

    def test_singleton_minority_rejected(self):
        rnd = random.Random(7)
        with pytest.raises(ValueError, match="defect"):
            smote(
                {
                    Label.DEFECT: self._vectors(rnd, 1),
                    Label.NON_DEFECT: self._vectors(rnd, 10),
                }
            )

    def test_seeded_determinism(self):
        rnd = random.Random(8)
        per_class = {
            Label.DEFECT: self._vectors(rnd, 5),
            Label.NON_DEFECT: self._vectors(rnd, 20),
        }
        a, _ = smote(per_class, seed=3)
        b, _ = smote(per_class, seed=3)
        c, _ = smote(per_class, seed=4)
        assert a == b
        assert a != c

    def test_majority_left_alone_and_report(self):
        rnd = random.Random(9)
        per_class = {
            Label.DEFECT: self._vectors(rnd, 4),
            Label.NON_DEFECT: self._vectors(rnd, 16),
        }
        augmented, report = smote(per_class, seed=2)
        assert augmented[Label.NON_DEFECT] == list(per_class[Label.NON_DEFECT])
        assert report.method == "smote"
        assert report.input_counts[Label.DEFECT] == 4
        assert report.output_counts[Label.DEFECT] == len(augmented[Label.DEFECT])

