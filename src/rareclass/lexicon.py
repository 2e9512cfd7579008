"""Term-lexicon compilation and corpus scanning.

A lexicon maps canonical terms to surface variants.  Compiled matchers
are case-insensitive and word-boundary anchored, where a boundary is any
transition between [a-z0-9] and everything else after lowercasing.
Separators inside multi-word terms (spaces or hyphens) match any run of
whitespace and hyphens, so ``club foot`` also matches ``Club-Foot``.

Matching always runs over the raw tweet text, because the resulting
spans index the original bytes (span normalization needs them).

Each compiled pattern carries one required literal: the lowercased
longest chunk of its surface between separators.  On an ASCII tweet, a
pattern runs only when its literal occurs in the lowercased text, which
it must for the pattern to match.  The check is skipped, and the pattern
always runs, when the surface or the tweet is not ASCII: under
``re.IGNORECASE`` ASCII letters also match ``K`` (U+212A), ``ſ`` (U+017F)
and ``İ`` (U+0130), which lowercasing does not map to them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, Label, LABELS, Tweet, char_span_to_bytes, byte_span_to_chars
from .corpus import URL_RE, USERNAME_RE
from .errors import DataError, read_lines

_SEPARATOR_RE = re.compile(r"[\s\-]+")
_BOUNDARY_CLASS = "[a-zA-Z0-9]"


@dataclass(frozen=True)
class Lexicon:
    """Canonical terms with their surface variants."""

    terms: tuple[tuple[str, tuple[str, ...]], ...]

    def canonical_terms(self) -> list[str]:
        return [term for term, _ in self.terms]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class MatcherSet:
    """Compiled surface patterns, each mapped back to its canonical term.

    Each entry is ``(pattern, canonical, literal)``.  `literal` is the
    lowercase text every match must contain on an ASCII tweet, or None
    when the surface is not ASCII and the pattern must always run.
    """

    patterns: tuple[tuple[re.Pattern, str, str | None], ...]

    def __post_init__(self):
        for entry in self.patterns:
            if len(entry) != 3:
                raise ValueError(
                    f"matcher entry {entry!r} is not a (pattern, canonical, literal) triple"
                )


@dataclass
class MatchCounts:
    """What one scan did; `match_corpus` and `post_filter` add to it."""

    tweets: int = 0
    scans_run: int = 0
    scans_skipped: int = 0
    matches: int = 0
    dropped_retweets: int = 0
    dropped_in_tokens: int = 0


@dataclass(frozen=True, slots=True, init=False)
class MatchResult:
    """One lexicon hit: canonical term plus the byte span it covers."""

    tweet_id: str
    term: str
    span: tuple[int, int]
    surface: str

    def __init__(self, tweet_id: str, term: str, span: tuple[int, int], surface: str):
        _SET_TWEET_ID(self, tweet_id)
        _SET_TERM(self, term)
        _SET_SPAN(self, span)
        _SET_SURFACE(self, surface)


# the slots are set through their member descriptors, as `corpus.Tweet` sets its own
_SET_TWEET_ID, _SET_TERM, _SET_SPAN, _SET_SURFACE = (
    getattr(MatchResult, f).__set__ for f in ("tweet_id", "term", "span", "surface")
)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a lexicon file: one canonical term per line, variants appended
    after ``|`` separators; ``#`` starts a comment line."""
    path = Path(path)
    terms: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split("|")]
        canonical = fields[0]
        if not canonical:
            raise DataError(f"{path}: empty canonical term at line {lineno}")
        key = canonical.lower()
        if key in seen:
            raise DataError(f"{path}: duplicate canonical term {canonical!r} at line {lineno}")
        seen.add(key)
        variants = tuple(v for v in fields[1:] if v)
        for surface in (canonical, *variants):
            if not _SEPARATOR_RE.sub("", surface):
                raise DataError(f"{path}: term {surface!r} is only separators at line {lineno}")
        terms.append((canonical, variants))
    if not terms:
        raise DataError(f"{path}: no terms found")
    return Lexicon(tuple(terms))


def _surface_pattern(surface: str) -> tuple[str, str | None]:
    """The anchored pattern of `surface`, and its required literal."""
    chunks = [c for c in _SEPARATOR_RE.split(surface) if c]
    if not chunks:
        raise ValueError(f"term {surface!r} compiles to an empty pattern")
    body = r"[\s\-]+".join(re.escape(chunk) for chunk in chunks)
    literal = max(chunks, key=len).lower() if surface.isascii() else None
    return f"(?<!{_BOUNDARY_CLASS})(?:{body})(?!{_BOUNDARY_CLASS})", literal


def compile_matchers(lexicon: Lexicon) -> MatcherSet:
    """Compile every canonical term and variant into an anchored pattern."""
    if not len(lexicon):
        raise ValueError("empty lexicon")
    patterns: list[tuple[re.Pattern, str, str | None]] = []
    for canonical, variants in lexicon.terms:
        for surface in (canonical, *variants):
            pattern, literal = _surface_pattern(surface)
            patterns.append((re.compile(pattern, re.IGNORECASE), canonical, literal))
    return MatcherSet(tuple(patterns))


def _match(tweet: Tweet, matchers: MatcherSet) -> tuple[list[MatchResult], int]:
    """Non-overlapping matches in one tweet, left to right, longest first,
    and the number of patterns that ran.

    Candidates from all patterns are pooled; at each position the longest
    match wins (ties broken by canonical term, then pattern order), and
    overlapping later candidates are discarded.  On an ASCII tweet a
    pattern whose required literal (see `MatcherSet`) does not occur in
    the lowercased text is not run, since it cannot match there; on any
    other tweet every pattern runs.  The matches equal a scan with every
    pattern.
    """
    text = tweet.text
    patterns = matchers.patterns
    if text.isascii():
        lowered = text.lower()
        patterns = [e for e in patterns if e[2] is None or e[2] in lowered]
    # (start, -length, canonical, end); the stable sort keeps pattern order
    # among equal candidates
    candidates: list[tuple[int, int, str, int]] = []
    for pattern, canonical, _literal in patterns:
        for m in pattern.finditer(text):
            start, end = m.span()
            candidates.append((start, start - end, canonical, end))
    candidates.sort()
    results: list[MatchResult] = []
    last_end = 0
    for start, _neg_len, canonical, end in candidates:
        if start < last_end:
            continue
        span = char_span_to_bytes(text, (start, end))
        results.append(MatchResult(tweet.id, canonical, span, text[start:end]))
        last_end = end
    return results, len(patterns)


def match_corpus(
    tweets: Sequence[Tweet], matchers: MatcherSet, counts: MatchCounts | None = None
) -> list[MatchResult]:
    """Scan tweets in order, each as `_match` does; tweets without matches
    contribute nothing.

    When `counts` is given, the tweets, pattern scans run and skipped, and
    matches found are added to it.
    """
    results: list[MatchResult] = []
    scans = 0
    for tweet in tweets:
        found, run = _match(tweet, matchers)
        results.extend(found)
        scans += run
    if counts is not None:
        counts.tweets += len(tweets)
        counts.scans_run += scans
        counts.scans_skipped += len(tweets) * len(matchers.patterns) - scans
        counts.matches += len(results)
    return results


RETWEET_PREFIX = "RT @"


def _token_spans(text: str) -> list[tuple[int, int]]:
    spans = [m.span() for m in USERNAME_RE.finditer(text)]
    spans.extend(m.span() for m in URL_RE.finditer(text))
    return spans


def post_filter(
    tweets: Sequence[Tweet],
    matches: Sequence[MatchResult],
    counts: MatchCounts | None = None,
) -> list[MatchResult]:
    """Drop matches in retweets and matches inside username or URL tokens.

    A retweet is any tweet whose text starts with ``RT @``.  A match is
    dropped when its span lies entirely inside an ``@name`` or http(s) URL
    token; only tweets containing ``@`` or ``http`` can hold one, so only
    their matches are checked.  The output is always a subset of the
    input, in input order.  When `counts` is given, the matches dropped as
    retweets and inside tokens are added to it.
    """
    by_id = {tweet.id: tweet for tweet in tweets}
    kept: list[MatchResult] = []
    retweets = in_tokens = 0
    for match in matches:
        tweet = by_id.get(match.tweet_id)
        if tweet is None:
            continue
        text = tweet.text
        if text.startswith(RETWEET_PREFIX):
            retweets += 1
            continue
        if "@" in text or "http" in text:
            start, end = byte_span_to_chars(text, match.span)
            if any(ts <= start and end <= te for ts, te in _token_spans(text)):
                in_tokens += 1
                continue
        kept.append(match)
    if counts is not None:
        counts.dropped_retweets += retweets
        counts.dropped_in_tokens += in_tokens
    return kept


def term_class_frequency_report(
    corpus: Corpus, lexicon: Lexicon, matches: Sequence[MatchResult]
) -> list[tuple[str, dict[Label, int]]]:
    """Tweets per class mentioning each canonical term (once per term).

    `matches` are the lexicon's matches over the corpus tweets, before any
    post-filter, as `match_corpus` returns them.  Rows follow lexicon
    order; every canonical term gets a row even when all its counts are
    zero.
    """
    counts: dict[str, dict[Label, int]] = {
        term: {label: 0 for label in LABELS} for term in lexicon.canonical_terms()
    }
    labels = {item.tweet.id: item.label for item in corpus}
    for tweet_id, term in dict.fromkeys((m.tweet_id, m.term) for m in matches):
        counts[term][labels[tweet_id]] += 1
    return [(term, counts[term]) for term in lexicon.canonical_terms()]
