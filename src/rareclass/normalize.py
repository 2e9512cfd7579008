"""Tweet pre-processing pipelines.

Two normalizers are provided:

* `classic_normalize` feeds the bag-of-words classifiers.  Rule order:
  matched-span replacement, username/URL replacement, given-name
  replacement (capitalized tokens only), lowercasing, removal of
  non-alphabetic characters, pronoun/child-word replacement, and Porter
  stemming.  Placeholder tokens are atomic throughout: they are split out
  first, all seven spellings in one pass, so the character strip never
  touches them, and a placeholder already present in the input survives a
  second pass unchanged (both pipelines are idempotent on their own
  output).

* `embedding_normalize` mirrors the pre-processing used for social-media
  word-vector training: username/URL placeholders, space-padded slashes,
  digit runs to ``<number>``, collapsed punctuation runs marked
  ``<repeat>``, elongated words trimmed and marked ``<elong>``, and
  ``#`` replaced by a ``<hashtag>`` token.  Non-ASCII symbol characters
  (emoji and the like) are padded into their own tokens; non-ASCII
  letters stay inside words.

Both functions are pure and deterministic and return a tuple of tokens.
The placeholder spellings are fixed (``<user>``, ``<url>``, ``<name>``,
``<bdterm>``, ``<poss>``, ``<child>``, ``<thirdperson>``);
`NormalizationConfig` holds only the three token sets mapped onto the
last three.  `save_normalized` writes token rows, the ``preprocess``
subcommand's output.
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import DEFAULT_CHILD, DEFAULT_POSSESSIVE, DEFAULT_THIRD_PERSON
from .corpus import URL_RE, USERNAME_RE, Label, Tweet, byte_span_to_chars
from .errors import DataError, read_utf8
from .porter import porter_stem

# a maximal ASCII letter run that starts with an uppercase letter
_NAME_RUN_RE = re.compile(r"(?<![A-Za-z])[A-Z][A-Za-z]*")
_LOWER_RUN_RE = re.compile(r"[a-z]+")


@dataclass(frozen=True)
class NameLexicon:
    """Lowercased set of given names used for name normalization."""

    names: frozenset[str]

    def __post_init__(self):
        if not self.names:
            raise ValueError("name lexicon must be non-empty")
        for name in self.names:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"name entries must be single tokens, got {name!r}")

    def __contains__(self, token: str) -> bool:
        return token in self.names


def load_name_lexicon(path: str | Path) -> NameLexicon:
    """Read a one-name-per-line file (``#`` starts a comment line)."""
    path = Path(path)
    names: set[str] = set()
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if any(ch.isspace() for ch in stripped):
            raise DataError(f"{path}: name with whitespace at line {lineno}")
        names.add(stripped.lower())
    if not names:
        raise DataError(f"{path}: no names found")
    return NameLexicon(frozenset(names))


USER_PLACEHOLDER = "<user>"
URL_PLACEHOLDER = "<url>"
NAME_PLACEHOLDER = "<name>"
TERM_PLACEHOLDER = "<bdterm>"
POSSESSIVE_PLACEHOLDER = "<poss>"
CHILD_PLACEHOLDER = "<child>"
THIRD_PERSON_PLACEHOLDER = "<thirdperson>"
PLACEHOLDERS = (
    THIRD_PERSON_PLACEHOLDER, TERM_PLACEHOLDER, CHILD_PLACEHOLDER, USER_PLACEHOLDER,
    NAME_PLACEHOLDER, POSSESSIVE_PLACEHOLDER, URL_PLACEHOLDER,
)
# any of the seven spellings; none overlaps another, since each holds one "<"
_PLACEHOLDER_RE = re.compile("|".join(map(re.escape, PLACEHOLDERS)))


@dataclass(frozen=True)
class NormalizationConfig:
    """The token sets the classic pipeline replaces by placeholders; the
    ``normalize.*`` config keys, saved with every model."""

    possessive_pronouns: frozenset[str] = DEFAULT_POSSESSIVE
    child_terms: frozenset[str] = DEFAULT_CHILD
    third_person_pronouns: frozenset[str] = DEFAULT_THIRD_PERSON

    def __post_init__(self):
        # each token's placeholder, built once, as `Vocabulary` keeps `_index`
        token_map = dict.fromkeys(self.possessive_pronouns, POSSESSIVE_PLACEHOLDER)
        token_map.update(dict.fromkeys(self.child_terms, CHILD_PLACEHOLDER))
        token_map.update(dict.fromkeys(self.third_person_pronouns, THIRD_PERSON_PLACEHOLDER))
        object.__setattr__(self, "_token_map", token_map)


_DEFAULT_CONFIG = NormalizationConfig()


# Internal representation while rules run: (is_atom, content).  Atoms are
# placeholder tokens that later passes must not rewrite.
_Parts = list[tuple[bool, str]]


def _sub_atoms(
    parts: _Parts, pattern: re.Pattern, atom: str | None = None, names: NameLexicon | None = None
) -> _Parts:
    """Replace each match of `pattern` outside the atoms by `atom` (None: the
    match itself, made an atom); with `names`, only the matches whose
    lowercase form is a name."""
    out: _Parts = []
    for is_atom, content in parts:
        if is_atom:
            out.append((is_atom, content))
            continue
        pos = 0
        for match in pattern.finditer(content):
            if names is not None and match.group().lower() not in names:
                continue
            if match.start() > pos:
                out.append((False, content[pos : match.start()]))
            out.append((True, atom or match.group()))
            pos = match.end()
        if pos < len(content):
            out.append((False, content[pos:]))
    return out


def classic_normalize(
    tweet: Tweet,
    match_span: tuple[int, int] | None,
    names: NameLexicon,
    config: NormalizationConfig | None = None,
) -> tuple[str, ...]:
    """Normalize a tweet for the bag-of-words classifiers into its tokens.

    `match_span` is the (start, end) UTF-8 byte span of the lexicon match
    to collapse into the term placeholder; pass None when there is none.

    A rule runs only on texts where it can match: the placeholder
    spellings are split out, by one regex for all seven, only when the
    text contains ``<``, the URL regex only when it contains ``http`` and
    the user regex only when it contains ``@``,
    and the given-name pass is skipped when ``text.islower()``, which
    holds only for texts without an uppercase letter.
    """
    token_map = (config or _DEFAULT_CONFIG)._token_map
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
    # re-processed output).
    if "<" in text:
        parts = _sub_atoms(parts, _PLACEHOLDER_RE)
    if "http" in text:
        parts = _sub_atoms(parts, URL_RE, URL_PLACEHOLDER)
    if "@" in text:
        parts = _sub_atoms(parts, USERNAME_RE, USER_PLACEHOLDER)
    # Given names: capitalized alphabetic runs only, before lowercasing,
    # so common lowercase words ("will", "grace") are never eaten.
    if not text.islower():
        parts = _sub_atoms(parts, _NAME_RUN_RE, NAME_PLACEHOLDER, names)

    tokens: list[str] = []
    for is_atom, content in parts:
        if is_atom:
            tokens.append(content)
        else:
            tokens += [
                token_map.get(word) or porter_stem(word)
                for word in _LOWER_RUN_RE.findall(content.lower())
            ]
    return tuple(tokens)


_PUNCT_RUN_RE = re.compile(
    "([" + re.escape(string.punctuation) + r"])\1+"
)
_DIGIT_RUN_RE = re.compile(r"[0-9]+")
_ELONG_RE = re.compile(r"([A-Za-z])\1{3,}")


def _pad_symbols(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if ord(ch) > 127 and unicodedata.category(ch)[0] in "SP":
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out)


def embedding_normalize(tweet: Tweet) -> tuple[str, ...]:
    """Normalize a tweet into tokens the way word-vector training corpora are cleaned.

    Tokenization is plain whitespace splitting after the rules run; no
    external treebank-style tokenizer is involved, which keeps the
    pipeline dependency-free at the cost of slightly coarser tokens.
    """
    text = URL_RE.sub(" <url> ", tweet.text)
    text = USERNAME_RE.sub(" <user> ", text)
    text = _pad_symbols(text)
    text = text.replace("/", " / ")
    text = _DIGIT_RUN_RE.sub(" <number> ", text)
    text = _PUNCT_RUN_RE.sub(r" \1 <repeat> ", text)
    words: list[str] = []
    for word in text.split():
        if _ELONG_RE.search(word):
            words.append(_ELONG_RE.sub(r"\1\1", word))
            words.append("<elong>")
        else:
            words.append(word)
    text = " ".join(words).replace("#", " <hashtag> ")
    return tuple(tok.lower() for tok in text.split())


NORMALIZED_HEADER = ("id", "label", "tokens")


def save_normalized(rows: Sequence[tuple[str, Label, Sequence[str]]], path: str | Path) -> None:
    """Write one ``id<TAB>label<TAB>space-joined-tokens`` row per document."""
    lines = ["\t".join(NORMALIZED_HEADER)]
    for doc_id, label, tokens in rows:
        lines.append(f"{doc_id}\t{label.value}\t{' '.join(tokens)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

