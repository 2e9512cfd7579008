"""Normalization pipelines: golden input/output pairs and invariants.

The golden lists here double as the acceptance fixtures: every pair was
derived by hand from the documented rule order, and each expected output
is a fixed point of its pipeline (re-normalizing changes nothing).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import normalize
from rareclass.corpus import Tweet, char_span_to_bytes
from rareclass.errors import DataError
from rareclass.normalize import (
    PLACEHOLDERS,
    NameLexicon,
    classic_normalize,
    embedding_normalize,
    load_name_lexicon,
)

import normalize_oracle

NAMES = NameLexicon(frozenset({"emma", "noah", "grace", "ana", "liam"}))

# (raw text, byte span or None, expected space-joined tokens)
CLASSIC_GOLDEN = [
    ("@john Our daughter has hydrocephalus", (23, 36), "<user> <poss> <child> ha <bdterm>"),
    ("hello world", None, "hello world"),
    ("My son has CHD!", (11, 14), "<poss> <child> ha <bdterm>"),
    ("Check https://example.com/info #blessed \U0001f64f", None, "check <url> bless"),
    ("our twins were born with gastroschisis", (25, 38), "<poss> <child> were born with <bdterm>"),
    ("@mom2three I think Noah might have clubfoot", (35, 43), "<user> i think <name> might have <bdterm>"),
    ("Her face is precious", None, "<thirdperson> face is preciou"),
    ("!!!", None, ""),
    ("RT @news: Down syndrome awareness week", None, "rt <user> down syndrom awar week"),
    ("Grace said grace", None, "<name> said grace"),
    ("café day", None, "caf dai"),
    ("<user> <poss> <child> ha <bdterm>", None, "<user> <poss> <child> ha <bdterm>"),
    ("Our SON has CHD", None, "<poss> <child> ha chd"),
    ("@a http://t.co/x my boy's gastroschisis", (26, 39), "<user> <url> <poss> <child> s <bdterm>"),
    ("He said she cried", None, "<thirdperson> said <thirdperson> cri"),
    ("Our kid loves his new braces", None, "<poss> <child> love <thirdperson> new brace"),
    ("Twins turned two today!!", None, "<child> turn two todai"),
    ("Praying for a miracle \U0001f64f\U0001f64f", None, "prai for a miracl"),
]

# (raw text, expected space-joined tokens)
EMBEDDING_GOLDEN = [
    ("soooo happy!!!", "soo <elong> happy ! <repeat>"),
    ("#blessed", "<hashtag> blessed"),
    ("@mom 3/4 http://a.b", "<user> <number> / <number> <url>"),
    ("WOW!! 100%", "wow ! <repeat> <number> %"),
    ("b2b 24/7 care", "b <number> b <number> / <number> care"),
    ("Heyyyy @Ana #cutie \U0001f60a\U0001f60a", "heyy <elong> <user> <hashtag> cutie \U0001f60a \U0001f60a"),
    ("no... just no...", "no . <repeat> just no . <repeat>"),
    ("CALL 911 NOW!! https://help.example.org", "call <number> now ! <repeat> <url>"),
    ("<user> <number> / <number> <url>", "<user> <number> / <number> <url>"),
    ("a/b/c", "a / b / c"),
    ("goooood mooooorning", "good <elong> moorning <elong>"),
    ("it's 1:30pm", "it's <number> : <number> pm"),
    ("#Trisomy18 awareness", "<hashtag> trisomy <number> awareness"),
]


def run_classic(text, span=None):
    return " ".join(classic_normalize(Tweet("t", "u", text), span, NAMES))


def run_embedding(text):
    return " ".join(embedding_normalize(Tweet("t", "u", text)))


@pytest.mark.parametrize("text,span,expected", CLASSIC_GOLDEN)
def test_classic_golden(text, span, expected):
    assert run_classic(text, span) == expected


@pytest.mark.parametrize("text,span,expected", CLASSIC_GOLDEN)
def test_classic_idempotent_on_golden_output(text, span, expected):
    assert run_classic(expected) == expected


@pytest.mark.parametrize("text,expected", EMBEDDING_GOLDEN)
def test_embedding_golden(text, expected):
    assert run_embedding(text) == expected


@pytest.mark.parametrize("text,expected", EMBEDDING_GOLDEN)
def test_embedding_idempotent_on_golden_output(text, expected):
    assert run_embedding(expected) == expected


def test_reference_stemmer_output_is_not_a_fixed_point():
    # Stems may themselves re-stem ("diagnos" loses its final s), so this
    # pair is asserted byte-exactly but kept out of the idempotency suite.
    assert run_classic("Emma was diagnosed") == "<name> wa diagnos"
    assert run_classic("<name> wa diagnos") == "<name> wa diagno"


class TestClassicRules:
    def test_span_produces_exactly_one_term_token(self):
        text = "baby has spina bifida today"
        start = text.index("spina")
        out = classic_normalize(
            Tweet("t", "u", text), (start, start + len("spina bifida")), NAMES
        )
        assert out.count("<bdterm>") == 1

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            classic_normalize(Tweet("t", "u", "abc"), (2, 1), NAMES)

    def test_lowercase_names_not_eaten(self):
        assert run_classic("grace and will") == "grace and will"

    def test_output_charset(self):
        for text, span, _ in CLASSIC_GOLDEN:
            for token in run_classic(text, span).split():
                assert all(ch.isalpha() or ch in "<>" for ch in token)
                assert token == token.lower()


# fragments that each trigger or defeat one rule: placeholder spellings
# (whole and broken), users and URLs, capitalized names alone and inside
# words, and non-ASCII uppercase ("İ" lowercases to two characters, the
# KELVIN SIGN to ASCII "k")
FRAGMENTS = [
    *PLACEHOLDERS, "<user", "url>", "<<name>>", "@@", "http", "Name", "TERM",
    "@john", "@Ana_2", "@", "http://t.co/x", "https://example.com/Emma", "xhttps://a",
    "Emma", "Noah", "Grace", "ANA", "Ana", "xAna", "Anax", "aLiam", "grace", "emma",
    "\u00c9", "\u0130", "\u212a", "\u00c9mma", "\u0130an", "\u212aate",
    "my", "Our", "me", "son", "twins", "she", "HIS", "diagnosed", "hydrocephalus",
    " ", " ", "!!", "'s", "3", "#", "\U0001f64f", "-",
]


@st.composite
def tweets_with_spans(draw):
    text = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
    span = None
    if text and draw(st.booleans()):
        start = draw(st.integers(0, len(text) - 1))
        span = char_span_to_bytes(text, (start, draw(st.integers(start + 1, len(text)))))
    return text, span


class TestGatesMatchOracle:
    """The gated `classic_normalize` returns the tokens of the ungated
    oracle and stems the same words."""

    @settings(max_examples=400, deadline=None)
    @given(tweets_with_spans())
    def test_tokens_and_stem_calls_equal_oracle(self, tweet_span):
        text, span = tweet_span
        tweet = Tweet("t", "u", text)
        stemmed = []
        stem = normalize.porter_stem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(normalize, "porter_stem", lambda word: stemmed.append(word) or stem(word))
            expected = normalize_oracle.classic_normalize(tweet, span, NAMES)
            oracle_stemmed = stemmed.copy()
            stemmed.clear()
            out = classic_normalize(tweet, span, NAMES)
        assert out == expected
        assert stemmed == oracle_stemmed
        # one call per word that is not a placeholder
        assert len(stemmed) == sum(token not in PLACEHOLDERS for token in out)


# str.split's separators (Unicode spaces, line and paragraph breaks, the
# ASCII file/group/record/unit separators and NEL)
SPACES = [
    " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u1680", "\u2000", "\u2007", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
]
LINKS = [
    "http://t.co/x", "https://example.com/a\u00a0b", "http://a.b/<url>", "@user", "@Emma_2",
    "@@x", "<user>@a", "http://", "https://\u3000x",
]


@st.composite
def any_tweets_with_spans(draw):
    pieces = st.one_of(
        st.text(max_size=6),
        st.sampled_from(SPACES),
        st.sampled_from(PLACEHOLDERS),
        st.sampled_from(LINKS),
        st.sampled_from(FRAGMENTS),
    )
    text = draw(st.lists(pieces, max_size=12).map("".join))
    span = None
    if text and draw(st.booleans()):
        start = draw(st.integers(0, len(text) - 1))
        span = char_span_to_bytes(text, (start, draw(st.integers(start + 1, len(text)))))
    return text, span


class TestTokenInvariant:
    """Every classic token is non-empty and holds no whitespace, so that
    n-gram names (tokens joined by single spaces) tell distinct token
    tuples apart; the featurizer names n-grams on that ground."""

    @settings(max_examples=500, deadline=None)
    @given(any_tweets_with_spans())
    def test_tokens_are_non_empty_and_hold_no_whitespace(self, tweet_span):
        text, span = tweet_span
        for token in classic_normalize(Tweet("t", "u", text), span, NAMES):
            assert token
            assert not any(ch.isspace() for ch in token), token
            assert token.split() == [token]


class TestEmbeddingRules:
    def test_triple_letters_survive(self):
        # only runs longer than three letters are elongation-marked
        assert run_embedding("baaab") == "baaab"
        assert run_embedding("baaaab") == "baab <elong>"

    def test_single_punctuation_untouched(self):
        assert run_embedding("happy!") == "happy!"

    def test_deterministic(self):
        text = "@a #b sooooo 9/9 !!"
        assert run_embedding(text) == run_embedding(text)


class TestNameLexiconLoading:
    def test_load_dedup_and_lowercase(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("# comment\nEmma\nNoah\nemma\n\n", encoding="utf-8")
        lex = load_name_lexicon(path)
        assert lex.names == frozenset({"emma", "noah"})

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_name_lexicon(path)

    def test_whitespace_in_name_rejected(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("Mary Ann\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_name_lexicon(path)
