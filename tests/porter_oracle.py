"""Porter's suffix-stripping algorithm (1980), all five steps: the test
oracle for `rareclass.porter`, which must return the same stem for every
lowercase ASCII word.

The rule tables below follow the original publication: each step finds
the longest suffix it knows, tests that rule's condition on the stem, and
either rewrites or leaves the word (no other rule in the step is tried).
Conditions are expressed with the paper's measure m, counting
vowel-consonant sequences in the stem, where ``y`` is a vowel exactly
when it follows a consonant.

One standard guard is applied: words of length <= 2 pass through
unchanged, as in the author's reference implementation (the rules are
degenerate on such inputs; e.g. bare ``s`` would otherwise stem to the
empty string).
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences: stem has the form C?(VC){m}V?."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    # Cleanup pass after a successful ed/ing removal.
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) per step; longest matching suffix wins and is the
# only rule tried, with condition m(stem) > 0 (step 2/3) or > 1 (step 4).
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_suffix(word: str, suffixes) -> str | None:
    best = None
    for suffix in suffixes:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    return best


def _apply_table(word: str, rules, min_measure: int) -> str:
    match = _longest_suffix(word, [s for s, _ in rules])
    if match is None:
        return word
    replacement = dict(rules)[match]
    stem = word[: len(word) - len(match)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


def _step4(word: str) -> str:
    match = _longest_suffix(word, _STEP4_SUFFIXES)
    if match is None:
        return word
    stem = word[: len(word) - len(match)]
    if match == "ion" and not stem.endswith(("s", "t")):
        return word
    if _measure(stem) > 1:
        return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=None)
def porter_stem(word: str) -> str:
    """Stem a lowercase ASCII word.

    The caller guarantees lowercase alphabetic input (the classic
    normalizer strips everything else first).  Results are memoized for
    the life of the process: a corpus repeats a few thousand distinct
    words across tens of thousands of tokens.
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_table(word, _STEP2_RULES, 0)
    word = _apply_table(word, _STEP3_RULES, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
