"""Imbalance samplers: Levenshtein ratio, under/over-sampling, synthesis."""

import logging
import math
import random
import re
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import LABELS, Label, Tweet, three_way_split
from rareclass.demo import build_demo_corpus
from rareclass.sampling import (
    _bigrams,
    _char_masks,
    _cutoff_distance,
    _distance,
    _MultisetBits,
    _PairScan,
    levenshtein_distance,
    levenshtein_ratio,
    oversample_replacement,
    smote,
    undersample_near_fn,
    undersample_random,
    undersample_similar_majority,
)

import similarity_oracle
import sparse_oracle
from conftest import make_corpus
from sparse_oracle import SparseVector, smote_by_class


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
        # the similarity samplers skip a pair on this bound alone
        assert dist >= abs(len(a) - len(b))

    def test_threshold_validation(self):
        # both similarity samplers take k in (0, 1], the near_fn one even
        # with no false negatives to compare
        corpus = make_corpus([("m0", "text", Label.NON_DEFECT)])
        for k in (0.0, -0.5, 1.1, math.nan):
            with pytest.raises(ValueError):
                undersample_similar_majority(corpus, k)
            for fn in ([], [Tweet("fn1", "u", "text")]):
                with pytest.raises(ValueError):
                    undersample_near_fn(corpus, fn, k)
        _, report = undersample_similar_majority(corpus, 1)
        assert report.parameters["k"] == 1.0 and isinstance(report.parameters["k"], float)


ALPHABET = "ab \U0001f60a\u00e9"


def edited(draw, text, alphabet=ALPHABET, max_edits=8):
    """`text` after up to `max_edits` random edits."""
    chars = list(text)
    for _ in range(draw(st.integers(0, max_edits))):
        position = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "insert":
            chars.insert(position, draw(st.sampled_from(alphabet)))
        elif position < len(chars):
            if op == "delete":
                del chars[position]
            else:
                chars[position] = draw(st.sampled_from(alphabet))
    return "".join(chars)


@st.composite
def text_pairs(draw):
    """A text up to 200 scalars and either another text or a few edits of it."""
    a = draw(st.integers(0, 200).flatmap(lambda n: st.text(ALPHABET, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return a, draw(st.text(ALPHABET, max_size=200))
    return a, edited(draw, a)


class TestBitParallelKernel:
    @given(pair=text_pairs(), give_up_at=st.integers(0, 210))
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_with_and_without_cutoff(self, pair, give_up_at):
        a, b = pair
        expected = oracle_distance(a, b)
        assert levenshtein_distance(a, b) == expected
        for pattern, text in ((a, b), (b, a)):
            masks = _char_masks(pattern)
            assert _distance(masks, len(pattern), text) == expected
            stopped = _distance(masks, len(pattern), text, give_up_at)
            assert stopped == expected or (stopped is None and expected >= give_up_at)

    def test_empty_pattern_and_empty_text(self):
        assert _distance(_char_masks(""), 0, "ab\U0001f60a") == 3
        assert _distance(_char_masks(""), 0, "") == 0
        assert _distance(_char_masks("ab\U0001f60a"), 3, "") == 3
        assert _distance(_char_masks("ab\U0001f60a"), 3, "", give_up_at=0) == 3
        assert levenshtein_distance("", "\u00e9\U0001f60a") == 2
        assert levenshtein_distance("", "") == 0

    def test_pattern_longer_than_a_machine_word(self):
        a = "ab" * 100
        b = a[:70] + "\U0001f60a" + a[71:150] + a[151:]
        assert levenshtein_distance(a, b) == oracle_distance(a, b) == 2
        assert _distance(_char_masks(b), len(b), a) == 2

    def test_cutoff_distance_matches_ratio_expression(self):
        ks = [0.5, 0.7, 0.85, 0.9, 0.95, 19 / 20, 17 / 20, 1.0, 1e-9]
        ks += [math.nextafter(k, 0.0) for k in ks]
        for k in ks:
            for lensum in range(1, 301):
                expected = next(
                    d for d in range(lensum + 1) if (lensum - d) / lensum <= k
                )
                assert _cutoff_distance(lensum, k) == expected, (lensum, k)
            assert _cutoff_distance(0, k) == (0 if k >= 1.0 else 1)

    @given(pair=text_pairs())
    @settings(max_examples=120, deadline=None)
    def test_cutoff_decision_at_and_below_exact_ratio(self, pair):
        a, b = pair
        ratio = levenshtein_ratio(a, b)
        if ratio == 0.0:
            return
        for k in (ratio, math.nextafter(ratio, 0.0)):
            sampled, _ = undersample_similar_majority(majority_corpus([b, a]), k)
            assert (len(sampled) == 1) == (ratio > k)

    def test_cutoff_decision_at_nineteen_twentieths(self):
        a, b = "abcdefghij", "abcdefghix"
        assert levenshtein_ratio(a, b) == 19 / 20 == 0.95
        for k, similar in ((0.95, False), (math.nextafter(0.95, 0.0), True)):
            give_up_at = _cutoff_distance(len(a) + len(b), k)
            assert (levenshtein_distance(a, b) < give_up_at) is similar
            sampled, _ = undersample_similar_majority(majority_corpus([a, b]), k)
            assert len(sampled) == (1 if similar else 2)


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


def oracle_ratio(a, b):
    lensum = len(a) + len(b)
    return 1.0 if lensum == 0 else (lensum - oracle_distance(a, b)) / lensum


def shared(a_counts, b_counts):
    return sum((a_counts & b_counts).values())


def slice_bigrams(text):
    return Counter(text[i : i + 2] for i in range(len(text) - 1))


def pruning_stage(text, pattern, k):
    """The first of the scan's bounds that reaches the pair's cutoff
    distance (1 length, 2 characters, 3 bigrams), or 0 if none does."""
    n, m = len(text), len(pattern)
    cutoff = _cutoff_distance(n + m, k)
    bounds = (
        abs(n - m),
        max(n, m) - shared(Counter(text), Counter(pattern)),
        (max(n, m) - shared(slice_bigrams(text), slice_bigrams(pattern))) // 2,
    )
    return next((stage for stage, bound in enumerate(bounds, 1) if bound >= cutoff), 0)


def reference_scan(texts, k, fn_texts=None):
    """Greedy scan by the full-matrix oracle: kept indices and the counts
    the scan must log.

    Each text is compared with every earlier kept text (or with every
    distinct false-negative text); it is kept when no LR exceeds k.  The
    counts are the pairs considered and those pruned by length, by
    characters and by bigrams, each by the first bound that prunes it.
    """
    patterns = None if fn_texts is None else list(dict.fromkeys(fn_texts))
    kept, kept_texts = [], []
    pairs, pruned = 0, [0, 0, 0, 0]
    for i, text in enumerate(texts):
        others = kept_texts if patterns is None else patterns
        pairs += len(others)
        for other in others:
            pruned[pruning_stage(text, other, k)] += 1
        if not any(oracle_ratio(text, other) > k for other in others):
            kept.append(i)
            kept_texts.append(text)
    return kept, (pairs, *pruned[1:])


SCAN_LOG = re.compile(
    r"majority (\d+) in, (\d+) kept; "
    r"pairs (\d+) considered: (\d+) pruned by length, (\d+) by character counts, "
    r"(\d+) by bigram counts, (\d+) stopped early, (\d+) computed in full, "
    r"(\d+) not run after a match$"
)


@contextmanager
def sampling_log():
    """The log records of `rareclass.sampling` at INFO, in a list."""
    records, handler = [], logging.Handler(logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("rareclass.sampling")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def scan_counts(records, method):
    """The -v line's counts: majority in and kept, the counts
    `reference_scan` gives, and the kernel's stopped, computed and not
    run pairs, which must make up the rest of the pairs."""
    lines = [
        rec.getMessage()
        for rec in records
        if rec.levelname == "INFO" and rec.getMessage().startswith(method + ":")
    ]
    assert len(lines) == 1
    counts = [int(v) for v in SCAN_LOG.search(lines[0]).groups()]
    pairs, pruned, kernel = counts[2], counts[3:6], counts[6:]
    assert sum(pruned) + sum(kernel) == pairs
    return counts[:2], tuple(counts[2:6]), kernel


@pytest.fixture(scope="module")
def demo_split():
    return three_way_split(build_demo_corpus(size=160), 0.2, 0.2, 1)


class TestSamplerEquivalence:
    """Both Levenshtein samplers keep what the oracle's greedy scan keeps,
    and log where each pair was decided."""

    @pytest.mark.parametrize("k", [0.85, 0.7])
    def test_similar_majority(self, demo_split, k):
        train = demo_split.train
        majority = [item for item in train if item.label == Label.NON_DEFECT]
        kept, counts = reference_scan([item.tweet.text for item in majority], k)
        with sampling_log() as records:
            sampled, report = undersample_similar_majority(train, k)
        expected = {majority[i].tweet.id for i in kept}
        expected |= {item.tweet.id for item in train if item.label != Label.NON_DEFECT}
        assert [item.tweet.id for item in sampled] == [
            item.tweet.id for item in train if item.tweet.id in expected
        ]
        sizes, logged, (stopped, computed, _) = scan_counts(records, "similar_majority_undersample")
        assert sizes == [len(majority), len(kept)]
        assert logged == counts
        assert stopped > 0 and computed > 0
        assert report.output_counts[Label.NON_DEFECT] == len(kept)

    def test_near_fn(self, demo_split):
        k = 0.85
        train = demo_split.train
        fn = [item.tweet for item in demo_split.validation][:8]
        majority = [item for item in train if item.label == Label.NON_DEFECT]
        kept, counts = reference_scan(
            [item.tweet.text for item in majority], k, [t.text for t in fn]
        )
        with sampling_log() as records:
            sampled, _ = undersample_near_fn(train, fn, k)
        kept_ids = {majority[i].tweet.id for i in kept}
        assert [item.tweet.id for item in sampled] == [
            item.tweet.id
            for item in train
            if item.label != Label.NON_DEFECT or item.tweet.id in kept_ids
        ]
        assert 0 < len(kept) < len(majority)
        sizes, logged, _ = scan_counts(records, "near_fn_undersample")
        assert sizes == [len(majority), len(kept)]
        assert logged == counts

    def test_empty_texts_are_duplicates_below_one(self):
        sampled, _ = undersample_similar_majority(majority_corpus(["", "", "x"]), 0.9)
        assert [item.tweet.id for item in sampled] == ["m0", "m2"]
        sampled, _ = undersample_similar_majority(majority_corpus(["", ""]), 1.0)
        assert len(sampled) == 2


SMALL_ALPHABET = "abé "


def near_copy(draw, text):
    return edited(draw, text, SMALL_ALPHABET, 4)


@st.composite
def text_lists(draw, max_size=14):
    """Texts over a small alphabet: fresh ones, near-duplicates of earlier
    ones, exact repeats and empty strings."""
    texts = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(("fresh", "edited", "repeat", "empty")))
        if kind == "empty":
            texts.append("")
        elif kind == "fresh" or not texts:
            texts.append(draw(st.text(SMALL_ALPHABET, max_size=24)))
        else:
            earlier = draw(st.sampled_from(texts))
            texts.append(earlier if kind == "repeat" else near_copy(draw, earlier))
    return texts


@st.composite
def thresholds(draw):
    """k in (0, 1]: any float, 1.0, or a ratio (lensum - d) / lensum at
    which a cutoff distance changes, or the float just below one."""
    lensum = draw(st.integers(1, 60))
    ratio = (lensum - draw(st.integers(0, lensum - 1))) / lensum
    return draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.just(1.0),
            st.just(ratio),
            st.just(math.nextafter(ratio, 0.0)),
        )
    )


class TestOracleScan:
    """The filtered scan keeps what the per-pair scan of
    `similarity_oracle` keeps, and logs the counts `reference_scan` gives."""

    @given(texts=text_lists(), k=thresholds())
    @settings(max_examples=300, deadline=None)
    def test_similar_majority(self, texts, k):
        with sampling_log() as records:
            sampled, _ = undersample_similar_majority(majority_corpus(texts, ["minority"]), k)
        kept = similarity_oracle.similar_kept(texts, k)
        assert [item.tweet.id for item in sampled] == [f"m{i}" for i in kept] + ["p0"]
        reference, counts = reference_scan(texts, k)
        assert reference == kept
        assert scan_counts(records, "similar_majority_undersample")[1] == counts

    @given(texts=text_lists(), fn_texts=text_lists(max_size=6), k=thresholds(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_near_fn(self, texts, fn_texts, k, data):
        # plant false negatives near, and equal to, some majority texts
        planted = data.draw(st.lists(st.sampled_from(texts), max_size=3)) if texts else []
        fn_texts = fn_texts + [t if data.draw(st.booleans()) else near_copy(data.draw, t) for t in planted]
        fn = [Tweet(f"fn{i}", "u", text) for i, text in enumerate(fn_texts)]
        with sampling_log() as records:
            sampled, report = undersample_near_fn(majority_corpus(texts), fn, k)
        kept = similarity_oracle.near_fn_kept(texts, fn_texts, k)
        assert [item.tweet.id for item in sampled] == [f"m{i}" for i in kept]
        assert report.parameters["fn_count"] == len(fn_texts)
        if fn_texts:
            reference, counts = reference_scan(texts, k, fn_texts)
            assert reference == kept
            assert scan_counts(records, "near_fn_undersample")[1] == counts


class TestLowerBounds:
    """The bounds the scan prunes by never exceed the edit distance."""

    @given(pair=text_pairs())
    @settings(max_examples=200, deadline=None)
    def test_bounds_never_exceed_the_distance(self, pair):
        a, b = pair
        distance = levenshtein_distance(a, b)
        longer = max(len(a), len(b))
        chars, bigrams = _MultisetBits(), _MultisetBits()
        shared_chars = (chars.add(Counter(a)) & chars.bits(Counter(b))).bit_count()
        shared_bigrams = (bigrams.add(_bigrams(a)) & bigrams.bits(_bigrams(b))).bit_count()
        # the bitsets count exactly the multiset intersections
        assert shared_chars == shared(Counter(a), Counter(b))
        assert shared_bigrams == shared(slice_bigrams(a), slice_bigrams(b))
        assert abs(len(a) - len(b)) <= longer - shared_chars <= distance
        assert (longer - shared_bigrams) // 2 <= distance

    @given(pair=text_pairs())
    @settings(max_examples=200, deadline=None)
    def test_a_pair_just_inside_its_cutoff_reaches_the_kernel(self, pair):
        a, b = pair
        lensum, distance = len(a) + len(b), levenshtein_distance(a, b)
        if distance + 1 >= lensum:
            return  # only k <= 0 would put the cutoff at distance + 1
        scan = _PairScan((lensum - distance - 1) / lensum)
        assert scan._cutoff(lensum) == distance + 1
        scan.add(a)
        assert scan.near_any(b)
        assert scan.by_length == scan.by_chars == scan.by_bigrams == 0
        assert scan.computed == 1

    def test_bitsets_grow_with_later_patterns(self):
        bits = _MultisetBits()
        first = bits.add(Counter("aab"))
        assert bits.bits(Counter("aaaac")) == first & bits.bits(Counter("aa"))
        second = bits.add(Counter("aaaac"))
        assert (first & second).bit_count() == 2
        assert bits.bits(Counter("aaaaaac")).bit_count() == 5


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
        augmented, report = smote_by_class(
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
            augmented, _ = smote_by_class(
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
            smote_by_class(
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
        a, _ = smote_by_class(per_class, seed=3)
        b, _ = smote_by_class(per_class, seed=3)
        c, _ = smote_by_class(per_class, seed=4)
        assert a == b
        assert a != c

    def test_majority_left_alone_and_report(self):
        rnd = random.Random(9)
        per_class = {
            Label.DEFECT: self._vectors(rnd, 4),
            Label.NON_DEFECT: self._vectors(rnd, 16),
        }
        augmented, report = smote_by_class(per_class, seed=2)
        assert augmented[Label.NON_DEFECT] == list(per_class[Label.NON_DEFECT])
        assert report.method == "smote"
        assert report.input_counts[Label.DEFECT] == 4
        assert report.output_counts[Label.DEFECT] == len(augmented[Label.DEFECT])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5),
        st.lists(st.sampled_from(list(Label)), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
        st.integers(1, 6),
        st.integers(0, 2**32),
    )
    def test_equals_the_list_oracle(self, dim, labels, rnd, k_neighbors, seed):
        values = (0.0, 1.0, -2.5, 3.0, rnd.uniform(-3, 3), rnd.uniform(-1e-3, 1e-3))
        rows = [
            SparseVector.from_pairs([(j, rnd.choice(values)) for j in range(dim)], dim)
            for _ in labels
        ]
        per_class = {}
        for row, label in zip(rows, labels):
            per_class.setdefault(label, []).append(row)
        try:
            expected, expected_report = sparse_oracle.smote(per_class, k_neighbors, seed)
        except ValueError:
            with pytest.raises(ValueError):
                smote(sparse_oracle.from_rows(rows), labels, k_neighbors, seed)
            return
        x, report = smote(sparse_oracle.from_rows(rows), labels, k_neighbors, seed)
        assert sparse_oracle.to_rows(x) == [
            row for label in LABELS for row in expected.get(label, [])
        ]
        assert report == expected_report
        for key in ("input_counts", "output_counts"):
            assert list(getattr(report, key).items()) == list(
                getattr(expected_report, key).items()
            )

