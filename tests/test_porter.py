"""Stemmer behavior, pinned rule by rule against the published algorithm,
and equal to the letter-by-letter reference in `porter_oracle`."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porter_oracle
from conftest import perfbench_module
from rareclass.demo import build_demo_corpus
from rareclass.porter import porter_stem

# Step-by-step vocabulary: each pair was worked through the rule tables by
# hand (the full algorithm chains, so later steps may rewrite a step's
# textbook output, e.g. agreed -> agree -> agre via final e removal).
CASES = [
    # step 1a
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # step 1b and its cleanup
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"),
    ("sky", "sky"),
    # step 2
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # a leading y is a consonant: yes is CVC, so 5a keeps the e
    ("yeses", "yese"),
    # everyday words the normalizer leans on
    ("has", "ha"),
    ("was", "wa"),
    ("diagnosed", "diagnos"),
    ("syndrome", "syndrom"),
    ("awareness", "awar"),
    ("blessed", "bless"),
    ("precious", "preciou"),
    ("cried", "cri"),
    ("were", "were"),
    ("have", "have"),
    ("day", "dai"),
    ("praying", "prai"),
]


@pytest.mark.parametrize("word,expected", CASES)
def test_reference_stems(word, expected):
    assert porter_stem(word) == expected


def test_short_words_pass_through():
    for word in ("a", "i", "is", "as", "ss", "by"):
        assert porter_stem(word) == word


def test_longest_suffix_wins_within_a_step():
    # "...ational" must take the ational rule, not the shorter tional one
    assert porter_stem("relational") == "relat"
    # a failed long-suffix condition blocks the step entirely
    assert porter_stem("agreement") == "agreement"


def test_output_stays_lowercase_alpha():
    for word, _ in CASES:
        stem = porter_stem(word)
        assert stem and stem == stem.lower() and stem.isalpha()


def test_memoized_stems_equal_uncached_stemmer():
    words = {
        word
        for item in build_demo_corpus().items
        for word in re.findall("[a-z]+", item.tweet.text.lower())
    }
    assert len(words) > 100
    for word in sorted(words):
        first = porter_stem(word)
        assert porter_stem(word) == first == porter_stem.__wrapped__(word)
        assert first == porter_oracle.porter_stem.__wrapped__(word), word


# Two kinds of word, cut to their last 20 letters.  Runs of pieces: single
# letters, weighted toward vowels, y and w/x (which the *o condition
# excludes) and the letters the rule suffixes spell; doubled consonants;
# and the rule suffixes themselves, so long suffixes, step 1b's cleanup
# and chains of steps come up often.  And syllables: an onset, one or two
# vowel-consonant pairs (y on either side) and up to two rule suffixes,
# so stems of measure 1 and 2, where the conditions decide, come up often.
_LETTERS = "aeiouy" * 3 + "wx" * 2 + "stlnicerbzgdm" * 2 + "abcdefghijklmnopqrstuvwxyz"
_CONSONANTS = "bcdfghjklmnpqrstvz"
_SUFFIXES = sorted(
    {suffix for suffix, _ in porter_oracle._STEP2_RULES + porter_oracle._STEP3_RULES}
    | set(porter_oracle._STEP4_SUFFIXES)
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "e", "ll", "at", "bl", "iz"}
)
_pieces = st.lists(
    st.sampled_from([*_LETTERS, *(ch * 2 for ch in "lsztbd"), *_SUFFIXES]), min_size=1, max_size=5
)
_syllables = st.tuples(
    st.sampled_from(["", "y", *_CONSONANTS, "st", "pr", "tr", "bl"]),
    st.lists(
        st.tuples(
            st.sampled_from([*"aeiouy", "ea", "ou"]),
            st.sampled_from([*_CONSONANTS, "w", "x", "y", "ll", "ss", "zz", "tt", "nt"]),
        ).map("".join),
        min_size=1,
        max_size=2,
    ),
    st.lists(st.sampled_from(_SUFFIXES), max_size=2),
).map(lambda parts: [parts[0], *parts[1], *parts[2]])
_words = st.one_of(_pieces, _syllables).map(lambda pieces: "".join(pieces)[-20:])


@settings(max_examples=1000, deadline=None)
@given(_words)
def test_random_words_equal_oracle(word):
    assert porter_stem.__wrapped__(word) == porter_oracle.porter_stem.__wrapped__(word)


def test_corpus_words_equal_oracle():
    words = set()
    for corpus in (build_demo_corpus(), perfbench_module("corpus_gen").generate(1, 12_000).corpus):
        for item in corpus.items:
            words.update(re.findall("[a-z]+", item.tweet.text.lower()))
    assert len(words) > 5000
    mismatched = [
        word
        for word in sorted(words)
        if porter_stem.__wrapped__(word) != porter_oracle.porter_stem.__wrapped__(word)
    ]
    assert mismatched == []
