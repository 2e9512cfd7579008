"""`classic_normalize` as it was before its gates: the test oracle for
`rareclass.normalize.classic_normalize`.

This form runs every rule on every tweet: it rebuilds the token map from
its own copy of the paper's word lists and sorts the placeholders per
call, splits on every placeholder, runs the URL and user regexes on
every text and scans every ASCII letter run for given names.  The
library's gated form must return the same tokens.  It calls
`normalize.porter_stem` through the module, once per word, so a test
that replaces that name counts the calls of both forms alike.
"""

from __future__ import annotations

import re

from rareclass import normalize
from rareclass.corpus import Tweet, byte_span_to_chars
from rareclass.normalize import (
    CHILD_PLACEHOLDER,
    NAME_PLACEHOLDER,
    PLACEHOLDERS,
    POSSESSIVE_PLACEHOLDER,
    TERM_PLACEHOLDER,
    THIRD_PERSON_PLACEHOLDER,
    URL_PLACEHOLDER,
    URL_RE,
    USER_PLACEHOLDER,
    USERNAME_RE,
    NameLexicon,
)

_ALPHA_RUN_RE = re.compile(r"[A-Za-z]+")
_NON_LOWER_RE = re.compile(r"[^a-z]+")

# the words replaced by placeholders, kept apart from the library's table
POSSESSIVE_PRONOUNS = ("my", "our")
CHILD_TERMS = (
    "son", "daughter", "child", "baby", "kid", "boy", "girl", "twins", "toddler", "newborn",
)
THIRD_PERSON_PRONOUNS = ("she", "he", "her", "him", "his", "hers")


# Internal representation while rules run: (is_atom, content).  Atoms are
# placeholder tokens that later passes must not rewrite.
_Parts = list[tuple[bool, str]]


def _split_atoms(parts: _Parts, literal: str, atom: str) -> _Parts:
    out: _Parts = []
    for is_atom, content in parts:
        if is_atom or literal not in content:
            out.append((is_atom, content))
            continue
        pieces = content.split(literal)
        for i, piece in enumerate(pieces):
            if i:
                out.append((True, atom))
            if piece:
                out.append((False, piece))
    return out


def _sub_atoms(parts: _Parts, pattern: re.Pattern, atom: str) -> _Parts:
    out: _Parts = []
    for is_atom, content in parts:
        if is_atom:
            out.append((is_atom, content))
            continue
        pos = 0
        for match in pattern.finditer(content):
            if match.start() > pos:
                out.append((False, content[pos : match.start()]))
            out.append((True, atom))
            pos = match.end()
        if pos < len(content):
            out.append((False, content[pos:]))
    return out


def classic_normalize(
    tweet: Tweet,
    match_span: tuple[int, int] | None,
    names: NameLexicon,
) -> tuple[str, ...]:
    """Every rule on every tweet, in the documented order."""
    text = tweet.text
    parts: _Parts
    if match_span is not None:
        start, end = byte_span_to_chars(text, match_span)
        parts = []
        if text[:start]:
            parts.append((False, text[:start]))
        parts.append((True, TERM_PLACEHOLDER))
        if text[end:]:
            parts.append((False, text[end:]))
    else:
        parts = [(False, text)] if text else []

    # Protect placeholder spellings already present (idempotency on
    # re-processed output); longest first so no placeholder nests in another.
    for ph in sorted(PLACEHOLDERS, key=len, reverse=True):
        parts = _split_atoms(parts, ph, ph)

    parts = _sub_atoms(parts, URL_RE, URL_PLACEHOLDER)
    parts = _sub_atoms(parts, USERNAME_RE, USER_PLACEHOLDER)

    # Given names: capitalized alphabetic runs only, before lowercasing,
    # so common lowercase words ("will", "grace") are never eaten.
    replaced: _Parts = []
    for is_atom, content in parts:
        if is_atom:
            replaced.append((is_atom, content))
            continue
        pos = 0
        for match in _ALPHA_RUN_RE.finditer(content):
            run = match.group()
            if run[0].isupper() and run.lower() in names:
                if match.start() > pos:
                    replaced.append((False, content[pos : match.start()]))
                replaced.append((True, NAME_PLACEHOLDER))
                pos = match.end()
        if pos < len(content):
            replaced.append((False, content[pos:]))
    parts = replaced

    token_map = {}
    for token in POSSESSIVE_PRONOUNS:
        token_map[token] = POSSESSIVE_PLACEHOLDER
    for token in CHILD_TERMS:
        token_map[token] = CHILD_PLACEHOLDER
    for token in THIRD_PERSON_PRONOUNS:
        token_map[token] = THIRD_PERSON_PLACEHOLDER

    tokens: list[str] = []
    for is_atom, content in parts:
        if is_atom:
            tokens.append(content)
            continue
        for word in _NON_LOWER_RE.sub(" ", content.lower()).split():
            mapped = token_map.get(word)
            tokens.append(mapped if mapped else normalize.porter_stem(word))
    return tuple(tokens)
