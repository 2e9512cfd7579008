"""Labeled tweet corpora: domain types, TSV persistence, stratified
splitting, and annotator-agreement statistics.

All types are immutable after construction and safe to share across
threads; every operation here is a pure function (split randomness is
fully determined by the seed argument).

A corpus is held as one slotted record per tweet.  `load_corpus` reads
its file a line at a time rather than whole, and the rows of one user
share one user-id string, so a loaded corpus costs little beyond its
texts.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError
from .rng import SplitMix64, derive_seed


class Label(Enum):
    """The three annotation categories, in fixed class order."""

    DEFECT = "defect"
    POSSIBLE_DEFECT = "possible_defect"
    NON_DEFECT = "non_defect"

    @classmethod
    def parse(cls, text: str) -> "Label":
        # a dict lookup: calling the enum costs some 30 times more
        try:
            return _LABEL_OF[text]
        except KeyError:
            raise ValueError(f"unknown label {text!r}") from None


LABELS: tuple[Label, ...] = tuple(Label)
_LABEL_OF = {label.value: label for label in LABELS}

# username and URL tokens, which `normalize` replaces and `lexicon` skips
USERNAME_RE = re.compile(r"@[A-Za-z0-9_]+")
URL_RE = re.compile(r"https?://\S+")


def _is_utf8_boundary(raw: bytes, offset: int) -> bool:
    return offset == len(raw) or (raw[offset] & 0xC0) != 0x80


def byte_span_to_chars(text: str, span: tuple[int, int]) -> tuple[int, int]:
    """Convert a UTF-8 byte span to character offsets, validating bounds.

    Raises ValueError when the span is empty, out of range, or cuts a
    multi-byte character.  In ASCII text bytes are characters, so the
    validated span is returned as it is.
    """
    start, end = span
    if text.isascii():
        if not (0 <= start < end <= len(text)):
            raise ValueError(f"invalid span {span!r} for text of {len(text)} bytes")
        return start, end
    raw = text.encode("utf-8")
    if not (0 <= start < end <= len(raw)):
        raise ValueError(f"invalid span {span!r} for text of {len(raw)} bytes")
    if not (_is_utf8_boundary(raw, start) and _is_utf8_boundary(raw, end)):
        raise ValueError(f"span {span!r} does not fall on character boundaries")
    return len(raw[:start].decode("utf-8")), len(raw[:end].decode("utf-8"))


def char_span_to_bytes(text: str, span: tuple[int, int]) -> tuple[int, int]:
    """Convert character offsets into `text` to UTF-8 byte offsets.

    Offsets are read as slice bounds (``text[:start]``).  In ASCII text,
    offsets within the text are already byte offsets.
    """
    start, end = span
    if 0 <= start <= end <= len(text) and text.isascii():
        return start, end
    return len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8"))


@dataclass(frozen=True, slots=True, init=False)
class Tweet:
    """One raw short text; `text` is kept byte-for-byte as retrieved."""

    id: str
    user_id: str
    text: str

    def __init__(self, id: str, user_id: str, text: str):
        if not id:
            raise ValueError("tweet id must be non-empty")
        _SET_ID(self, id)
        _SET_USER_ID(self, user_id)
        _SET_TEXT(self, text)


@dataclass(frozen=True, slots=True, init=False)
class AnnotatedTweet:
    """A tweet with its assigned label and, optionally, the matched span.

    The span is a (start, end) pair of UTF-8 byte offsets into the raw
    text, validated to land on character boundaries.
    """

    tweet: Tweet
    label: Label
    match_span: tuple[int, int] | None = None

    def __init__(self, tweet: Tweet, label: Label, match_span: tuple[int, int] | None = None):
        if match_span is not None:
            byte_span_to_chars(tweet.text, match_span)
        _SET_TWEET(self, tweet)
        _SET_LABEL(self, label)
        _SET_SPAN(self, match_span)


# A record's `__init__` sets its slots through their member descriptors, not
# `object.__setattr__` as a frozen dataclass's does: two fifths of its cost.
_SET_ID, _SET_USER_ID, _SET_TEXT = (d.__set__ for d in (Tweet.id, Tweet.user_id, Tweet.text))
_SET_TWEET, _SET_LABEL, _SET_SPAN = (
    d.__set__ for d in (AnnotatedTweet.tweet, AnnotatedTweet.label, AnnotatedTweet.match_span)
)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of annotated tweets with unique ids."""

    items: tuple[AnnotatedTweet, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        seen: set[str] = set()
        for item in self.items:
            tid = item.tweet.id
            if tid in seen:
                raise DataError(f"duplicate tweet id {tid!r}")
            seen.add(tid)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[AnnotatedTweet]:
        return iter(self.items)

    def labels(self) -> list[Label]:
        return [item.label for item in self.items]

    def tweets(self) -> list[Tweet]:
        return [item.tweet for item in self.items]

    def class_counts(self) -> Counter:
        return Counter(item.label for item in self.items)

    def subset(self, indices: Iterable[int]) -> "Corpus":
        return Corpus(tuple(self.items[i] for i in indices), self.provenance)


@dataclass(frozen=True)
class SplitResult:
    """Three-way partition of a corpus."""

    train: Corpus
    validation: Corpus
    test: Corpus


@dataclass(frozen=True)
class ClassDistribution:
    counts: dict[Label, int]
    proportions: dict[Label, float]
    total: int


TSV_HEADER = ("id", "user_id", "label", "text", "span_start", "span_end")


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
# a backslash and the character after it, if any, left to right
_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)


def _decode_escape(match: re.Match) -> str:
    if match.group(1) not in _UNESCAPE:
        raise ValueError(f"bad escape sequence at position {match.start()}")
    return _UNESCAPE[match.group(1)]


def _unescape(text: str) -> str:
    """Undo `_escape`; a trailing backslash or an unknown escape is a
    ValueError naming the backslash's position."""
    return _ESCAPE_RE.sub(_decode_escape, text) if "\\" in text else text


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of `path`, decoded one at a time.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as `Path.read_text`
    reads them; the other breaks of `str.splitlines` stay inside a line,
    since escaped text may hold them.  A line that is not UTF-8 is a
    DataError naming its number.
    """
    lineno = 0
    with path.open("rb") as f:
        for raw in f:  # ends at b"\n" only
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = lineno + 1 + raw.count(b"\r", 0, exc.start)
                raise DataError(f"{path}: not valid UTF-8 at line {bad} ({exc})") from None
            if "\r" not in line:
                lineno += 1
                yield lineno, line.removesuffix("\n")
                continue
            line = line.replace("\r\n", "\n").replace("\r", "\n")
            for part in line.removesuffix("\n").split("\n"):
                lineno += 1
                yield lineno, part


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file (see `TSV_HEADER` for the column layout).

    The text's escapes (``\\\\``, ``\\t``, ``\\n``, ``\\r``) are decoded in
    one left-to-right pass; any other backslash is an error that names its
    position.  Span columns may be empty; when present they must form a
    valid byte span of the decoded text.  Errors name the offending line.

    The file is read and decoded a line at a time, so neither its whole
    text nor a list of its lines is ever held.  Rows with the same user id
    share one string.
    """
    path = Path(path)
    lines = _lines(path)
    header = next(lines, (1, ""))[1]
    if tuple(header.split("\t")) != TSV_HEADER:
        raise DataError(f"{path}: missing or malformed header line")
    items: list[AnnotatedTweet] = []
    seen: set[str] = set()
    users: dict[str, str] = {}
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_HEADER):
            raise DataError(
                f"{path}: expected {len(TSV_HEADER)} columns at line {lineno}, got {len(fields)}"
            )
        tid, user_id, label_s, text_s, start_s, end_s = fields
        if tid in seen:
            raise DataError(f"{path}: duplicate tweet id {tid!r} at line {lineno}")
        seen.add(tid)
        try:
            label = Label.parse(label_s)
        except ValueError:
            raise DataError(f"{path}: unknown label {label_s!r} at line {lineno}") from None
        try:
            text = _unescape(text_s)
        except ValueError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
        if (start_s == "") != (end_s == ""):
            raise DataError(f"{path}: half-empty span at line {lineno}")
        span: tuple[int, int] | None = None
        if start_s:
            try:
                span = (int(start_s), int(end_s))
            except ValueError:
                raise DataError(f"{path}: non-integer span at line {lineno}") from None
        user_id = users.setdefault(user_id, user_id)
        try:
            items.append(AnnotatedTweet(Tweet(tid, user_id, text), label, span))
        except ValueError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
    return Corpus(tuple(items), provenance=str(path))


def save_corpus(
    corpus: Corpus, path: str | Path, spans: Mapping[str, tuple[int, int]] | None = None
) -> None:
    """Write a corpus file (see `TSV_HEADER`).

    With `spans`, each row's span is ``spans.get(tweet id)`` instead of
    the item's own match span, written as given: the caller vouches that
    every span is valid for its text.
    """
    with Path(path).open("w", encoding="utf-8") as f:  # each row as built, no whole-file str
        f.write("\t".join(TSV_HEADER) + "\n")
        for item in corpus:
            span = item.match_span if spans is None else spans.get(item.tweet.id)
            f.write(
                "\t".join(
                    (
                        item.tweet.id,
                        item.tweet.user_id,
                        item.label.value,
                        _escape(item.tweet.text),
                        "" if span is None else str(span[0]),
                        "" if span is None else str(span[1]),
                    )
                )
                + "\n"
            )


def class_distribution(corpus: Corpus) -> ClassDistribution:
    """Per-class counts and unrounded proportions (zeros on an empty corpus)."""
    counts = {label: 0 for label in LABELS}
    counts.update(corpus.class_counts())
    total = len(corpus)
    proportions = {
        label: (counts[label] / total if total else 0.0) for label in LABELS
    }
    return ClassDistribution(counts, proportions, total)


def stratified_split(
    corpus: Corpus, holdout_fraction: float, seed: int
) -> tuple[Corpus, Corpus]:
    """Split off a stratified holdout; returns (remainder, holdout).

    Per class with N items the holdout receives exactly ceil(f * N) items,
    chosen by a seeded SplitMix64 shuffle of that class.  The fraction is
    interpreted at its decimal spelling (``Fraction(str(f))``) so that the
    ceiling is computed exactly rather than on binary float products.
    Both parts preserve the input's item order.
    """
    from fractions import Fraction  # only split needs it

    if not (0.0 < holdout_fraction < 1.0):
        raise ValueError("holdout_fraction must be in (0, 1)")
    frac = Fraction(str(holdout_fraction))
    by_label: dict[Label, list[int]] = {}
    for i, item in enumerate(corpus):
        by_label.setdefault(item.label, []).append(i)
    rng = SplitMix64(seed)
    holdout_ids: set[int] = set()
    for label in LABELS:
        indices = by_label.get(label)
        if not indices:
            continue
        take = math.ceil(frac * len(indices))
        pool = list(indices)
        rng.shuffle(pool)
        holdout_ids.update(pool[:take])
    remainder = corpus.subset(i for i in range(len(corpus)) if i not in holdout_ids)
    holdout = corpus.subset(i for i in range(len(corpus)) if i in holdout_ids)
    return remainder, holdout


def three_way_split(
    corpus: Corpus, test_fraction: float, validation_fraction: float, seed: int
) -> SplitResult:
    """Carve off a test set, then a validation set from the remainder.

    Stage one uses `seed` directly; stage two uses `derive_seed(seed, 1)`.
    """
    remainder, test = stratified_split(corpus, test_fraction, seed)
    train, validation = stratified_split(
        remainder, validation_fraction, derive_seed(seed, 1)
    )
    return SplitResult(train=train, validation=validation, test=test)


def cohens_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two equal-length label sequences.

    Returns (p_o - p_e) / (1 - p_e), evaluated in integer arithmetic with
    a single final division so small cases come out exact:
    (n * agreements - S) / (n^2 - S) with S = sum of marginal products.
    By convention 1.0 when chance agreement is 1 (both annotators
    constant on the same label).
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if not a:
        raise ValueError("sequences must be non-empty")
    n = len(a)
    agreements = sum(1 for x, y in zip(a, b) if x == y)
    counts_a = Counter(a)
    counts_b = Counter(b)
    marginal = sum(counts_a[label] * counts_b.get(label, 0) for label in counts_a)
    if marginal == n * n:
        return 1.0
    return (n * agreements - marginal) / (n * n - marginal)


def filter_disagreements(a: Corpus, b: Corpus) -> Corpus:
    """Merge two annotation passes, dropping tweets the passes label differently.

    Doubly-annotated tweets are kept when the labels agree; tweets seen by
    only one annotator are kept with their sole label.  Output order is
    `a`'s order followed by the `b`-only items in `b`'s order.
    """
    b_by_id = {item.tweet.id: item for item in b}
    kept: list[AnnotatedTweet] = []
    for item in a:
        other = b_by_id.get(item.tweet.id)
        if other is None or other.label == item.label:
            kept.append(item)
    a_ids = {item.tweet.id for item in a}
    kept.extend(item for item in b if item.tweet.id not in a_ids)
    return Corpus(tuple(kept), provenance="agreement-filtered")
