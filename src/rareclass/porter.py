"""Porter's suffix-stripping algorithm (1980), all five steps.

The rule tables below follow the original publication: each step finds
the longest suffix it knows, tests that rule's condition on the stem, and
either rewrites or leaves the word (no other rule in the step is tried).
Conditions are expressed with the paper's measure m, counting
vowel-consonant sequences in the stem, where ``y`` is a vowel exactly
when it follows a consonant.

How the steps run without scanning:

* Each table-driven step (2, 3 and 4) is indexed once, at import, by
  the last two letters of its suffixes (every suffix has at least two),
  each entry holding the rules that end in them, longest suffix first.
  So the word's last two letters are one dict lookup, which finds no
  rule for most words and otherwise at most five, tried with
  ``endswith`` in that order: the first that matches is the longest.
  No call scans a step's whole table or builds one.
* A stem's consonant/vowel pattern is one string of ``c`` and ``v``,
  one letter each, made by ``str.translate``.  ``y`` is then resolved
  left to right: a vowel exactly when the letter before it is a
  consonant, so a leading ``y`` is a consonant.  The measure m is the
  number of ``vc`` pairs in the pattern, "contains a vowel" is ``v`` in
  it, and the *o and double-consonant conditions read its last letters.

Every stem equals that of the letter-by-letter form of the 1980
algorithm kept as the test oracle (``tests/porter_oracle.py``), which
scans each step's suffix list and classifies one letter at a time; the
tests compare the two on random words and on every word of the demo and
benchmark corpora.

One standard guard is applied: words of length <= 2 pass through
unchanged, as in the author's reference implementation (the rules are
degenerate on such inputs; e.g. bare ``s`` would otherwise stem to the
empty string).
"""

from __future__ import annotations

from functools import lru_cache

# "y" maps to itself: `_pattern` resolves it from the letter before it.
_CV = str.maketrans({ch: "v" if ch in "aeiou" else "c" for ch in "abcdefghijklmnopqrstuvwxz"})


def _pattern(stem: str) -> str:
    """One "c" (consonant) or "v" (vowel) per letter of a lowercase stem."""
    cv = stem.translate(_CV)
    if "y" not in cv:
        return cv
    letters = list(cv)
    prev = "v"
    for i, ch in enumerate(letters):
        if ch == "y":
            letters[i] = ch = "v" if prev == "c" else "c"
        prev = ch
    return "".join(letters)


def _measure(stem: str) -> int:
    """Number of VC sequences: stem has the form C?(VC){m}V?."""
    return _pattern(stem).count("vc")


def _ends_cvc(stem: str, cv: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    return cv.endswith("cvc") and stem[-1] not in "wxy"


def _step1a(word: str) -> str:
    """sses -> ss, ies -> i, ss -> ss, s -> (removed)."""
    if not word.endswith("s") or word.endswith("ss"):
        return word
    if word.endswith(("sses", "ies")):
        return word[:-2]
    return word[:-1]


def _step1b(word: str) -> str:
    if word.endswith("ed"):
        if word.endswith("eed"):
            return word[:-1] if _measure(word[:-3]) > 0 else word
        stripped = word[:-2]
    elif word.endswith("ing"):
        stripped = word[:-3]
    else:
        return word
    cv = _pattern(stripped)
    if "v" not in cv:
        return word
    # Cleanup pass after a successful ed/ing removal.
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    last = stripped[-1]
    if len(stripped) >= 2 and stripped[-2] == last and cv[-1] == "c" and last not in "lsz":
        return stripped[:-1]
    if cv.count("vc") == 1 and _ends_cvc(stripped, cv):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _pattern(word[:-1]):
        return word[:-1] + "i"
    return word


_Index = dict[str, tuple[tuple[str, str], ...]]


def _suffix_index(rules) -> _Index:
    """The (suffix, replacement) rules grouped by the suffix's last two
    letters, longest suffix first within each group."""
    index: dict[str, list[tuple[str, str]]] = {}
    for suffix, replacement in sorted(rules, key=lambda rule: -len(rule[0])):
        index.setdefault(suffix[-2:], []).append((suffix, replacement))
    return {end: tuple(group) for end, group in index.items()}


# (suffix, replacement) per step; longest matching suffix wins and is the
# only rule tried, with condition m(stem) > 0 (step 2/3) or > 1 (step 4).
_STEP2 = _suffix_index((
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
))

_STEP3 = _suffix_index((
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
))

_STEP4 = _suffix_index((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))


def _longest_rule(word: str, index: _Index) -> tuple[str, str] | None:
    for rule in index.get(word[-2:], ()):
        if word.endswith(rule[0]):
            return rule
    return None


def _apply_table(word: str, index: _Index, min_measure: int) -> str:
    rule = _longest_rule(word, index)
    if rule is None:
        return word
    suffix, replacement = rule
    stem = word[: -len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


def _step4(word: str) -> str:
    rule = _longest_rule(word, _STEP4)
    if rule is None:
        return word
    suffix = rule[0]
    stem = word[: -len(suffix)]
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    if _measure(stem) > 1:
        return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        cv = _pattern(stem)
        m = cv.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, cv)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=None)
def porter_stem(word: str) -> str:
    """Stem a lowercase ASCII word.

    The caller guarantees lowercase ``a``-``z`` input (the classic
    normalizer strips everything else first).  Results are memoized for
    the life of the process: a corpus repeats a few thousand distinct
    words across tens of thousands of tokens.
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_table(word, _STEP2, 0)
    word = _apply_table(word, _STEP3, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
