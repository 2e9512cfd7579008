"""Stemmer behavior, pinned rule by rule against the published algorithm."""

import re

import pytest

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
