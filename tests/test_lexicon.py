"""Lexicon loading, matcher semantics, post-filtering, frequency report."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import Label, Tweet
from rareclass.demo import build_demo_corpus, packaged_data_path
from rareclass.errors import DataError
from rareclass.lexicon import (
    Lexicon,
    MatchCounts,
    MatchResult,
    MatcherSet,
    compile_matchers,
    load_lexicon,
    match_corpus,
    match_text,
    post_filter,
    term_class_frequency_report,
)
from rareclass.normalize import URL_RE, USERNAME_RE

from conftest import make_corpus


def lexicon_of(*terms):
    return Lexicon(tuple((t, tuple(v)) for t, v in terms))


def scan(corpus, lex):
    return match_corpus(corpus.tweets(), compile_matchers(lex))


@pytest.fixture
def matchers():
    return compile_matchers(
        lexicon_of(
            ("hydrocephalus", ["hydrocephalis"]),
            ("club foot", ["clubfoot"]),
            ("CHD", []),
            ("trisomy", []),
            ("trisomy 18", []),
            ("down syndrome", ["down sindrome"]),
            ("gastroschisis", []),
        )
    )


class TestLoadLexicon:
    def test_term_with_variant(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("hydrocephalus | hydrocephalis\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert len(lex) == 1
        assert lex.terms[0] == ("hydrocephalus", ("hydrocephalis",))

    def test_duplicate_canonical_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("CHD\nchd | c.h.d.\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate canonical term"):
            load_lexicon(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# only a comment\n\n", encoding="utf-8")
        with pytest.raises(DataError, match="no terms"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "lines,surface,lineno",
        [(["CHD", "- -"], "- -", 2), (["club foot | -", "CHD"], "-", 1)],
        ids=["canonical", "variant"],
    )
    def test_separator_only_term_names_the_file_and_line(self, tmp_path, lines, surface, lineno):
        path = tmp_path / "lex.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path}: term {surface!r} is only separators at line {lineno}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_lexicon(path)

    def test_many_terms(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("\n".join(f"term{i:03d}" for i in range(650)), encoding="utf-8")
        assert len(load_lexicon(path)) == 650


class TestMatcherSemantics:
    def test_case_insensitive_whitespace_run(self, matchers):
        hits = match_text(Tweet("t", "u", "Club  Foot story"), matchers)
        assert [h.term for h in hits] == ["club foot"]
        assert hits[0].surface == "Club  Foot"

    def test_word_boundary_blocks_embedding(self, matchers):
        assert match_text(Tweet("t", "u", "CHDexpo opens"), matchers) == []
        assert [h.term for h in match_text(Tweet("t", "u", "has CHD."), matchers)] == ["CHD"]

    def test_longest_match_precedence(self, matchers):
        hits = match_text(Tweet("t", "u", "trisomy 18 diagnosis"), matchers)
        assert [h.term for h in hits] == ["trisomy 18"]

    def test_hyphen_matches_space_separator(self, matchers):
        hits = match_text(Tweet("t", "u", "a club-foot case"), matchers)
        assert [h.term for h in hits] == ["club foot"]

    def test_variant_maps_to_canonical(self, matchers):
        hits = match_text(Tweet("t", "u", "down sindrome walk"), matchers)
        assert [h.term for h in hits] == ["down syndrome"]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            compile_matchers(lexicon_of(("--", [])))

    def test_spans_are_byte_offsets(self, matchers):
        text = "éé CHD"  # two 2-byte characters then a space
        hits = match_text(Tweet("t", "u", text), matchers)
        assert hits[0].span == (5, 8)
        raw = text.encode("utf-8")
        assert raw[5:8].decode("utf-8") == "CHD"


class TestMatchCorpus:
    def test_basic_and_empty(self, matchers):
        tweets = [
            Tweet("t1", "u", "our baby has gastroschisis"),
            Tweet("t2", "u", "no medical terms here"),
        ]
        hits = match_corpus(tweets, matchers)
        assert [(h.tweet_id, h.term) for h in hits] == [("t1", "gastroschisis")]

    def test_matches_never_overlap(self, matchers):
        hits = match_corpus([Tweet("t", "u", "trisomy 18 and trisomy again")], matchers)
        spans = [h.span for h in hits]
        assert spans == sorted(spans)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_deterministic(self, matchers):
        tweets = [Tweet("t", "u", "CHD chd Chd club foot")]
        assert match_corpus(tweets, matchers) == match_corpus(tweets, matchers)

    def test_surface_matches_some_lexicon_spelling(self, matchers):
        lex_surfaces = {"hydrocephalus", "hydrocephalis", "club foot", "clubfoot",
                        "chd", "trisomy", "trisomy 18", "down syndrome",
                        "down sindrome", "gastroschisis"}
        tweets = [Tweet("t", "u", "CLUB   FOOT and Down Sindrome and chd")]
        for hit in match_corpus(tweets, matchers):
            normalized = " ".join(hit.surface.lower().replace("-", " ").split())
            assert normalized in lex_surfaces


class TestPostFilter:
    def test_retweet_dropped(self, matchers):
        tweets = [Tweet("t1", "u", "RT @x: my son has CHD")]
        hits = match_corpus(tweets, matchers)
        assert hits and post_filter(tweets, hits) == []

    def test_match_inside_username_dropped(self, matchers):
        tweets = [Tweet("t1", "u", "ask @gastroschisis_mom about it")]
        hits = match_corpus(tweets, matchers)
        assert hits and post_filter(tweets, hits) == []

    def test_match_inside_url_dropped(self, matchers):
        tweets = [Tweet("t1", "u", "see http://chd.example/info")]
        hits = match_corpus(tweets, matchers)
        assert hits and post_filter(tweets, hits) == []

    def test_plain_body_match_retained(self, matchers):
        tweets = [Tweet("t1", "u", "my son has CHD, see @dr_smith")]
        hits = match_corpus(tweets, matchers)
        assert post_filter(tweets, hits) == hits

    def test_idempotent_subset(self, matchers):
        tweets = [
            Tweet("t1", "u", "RT @x: CHD story"),
            Tweet("t2", "u", "real CHD story"),
            Tweet("t3", "u", "@chd_news posts about CHD"),
        ]
        hits = match_corpus(tweets, matchers)
        once = post_filter(tweets, hits)
        assert set((m.tweet_id, m.span) for m in once) <= set(
            (m.tweet_id, m.span) for m in hits
        )
        assert post_filter(tweets, once) == once


class TestTermClassFrequencyReport:
    def test_one_tweet_per_class(self):
        lex = lexicon_of(("CHD", []))
        corpus = make_corpus(
            [
                ("t1", "my baby has CHD", Label.DEFECT),
                ("t2", "he may have CHD", Label.POSSIBLE_DEFECT),
                ("t3", "CHD awareness day", Label.NON_DEFECT),
            ]
        )
        report = term_class_frequency_report(corpus, lex, scan(corpus, lex))
        assert report == [
            ("CHD", {Label.DEFECT: 1, Label.POSSIBLE_DEFECT: 1, Label.NON_DEFECT: 1})
        ]

    def test_tweet_counted_once_per_term(self):
        lex = lexicon_of(("CHD", []))
        corpus = make_corpus([("t1", "CHD and more CHD", Label.DEFECT)])
        report = term_class_frequency_report(corpus, lex, scan(corpus, lex))
        assert report[0][1][Label.DEFECT] == 1

    def test_empty_corpus_all_zeros(self):
        from rareclass.corpus import Corpus

        lex = lexicon_of(("CHD", []), ("dwarfism", []))
        report = term_class_frequency_report(Corpus(()), lex, [])
        assert [term for term, _ in report] == ["CHD", "dwarfism"]
        assert all(c == 0 for _, counts in report for c in counts.values())

    def test_report_equals_per_tweet_scan(self):
        corpus = build_demo_corpus()
        lex = load_lexicon(packaged_data_path("demo_lexicon.txt"))
        matchers = compile_matchers(lex)
        expected = {term: {label: 0 for label in Label} for term in lex.canonical_terms()}
        for item in corpus:
            for term in {m.term for m in match_text(item.tweet, matchers)}:
                expected[term][item.label] += 1
        report = term_class_frequency_report(corpus, lex, scan(corpus, lex))
        assert report == [(term, expected[term]) for term in lex.canonical_terms()]
        assert sum(c for _, counts in report for c in counts.values()) > 400


def reference_match_text(tweet, matchers):
    """Every pattern scanned, as before the literal check: the oracle."""
    candidates = []
    for order, (pattern, canonical, _literal) in enumerate(matchers.patterns):
        for m in pattern.finditer(tweet.text):
            candidates.append((m.start(), -(m.end() - m.start()), order, canonical, m.end()))
    candidates.sort(key=lambda c: (c[0], c[1], c[3], c[2]))
    results = []
    last_end = 0
    for start, _neg_len, _order, canonical, end in candidates:
        if start < last_end:
            continue
        span = (
            len(tweet.text[:start].encode("utf-8")),
            len(tweet.text[:end].encode("utf-8")),
        )
        results.append(MatchResult(tweet.id, canonical, span, tweet.text[start:end]))
        last_end = end
    return results


# multi-word terms, overlapping terms (club foot / foot, trisomy / trisomy 18)
# and non-ASCII surfaces; re.IGNORECASE matches the long s and the dotted
# capital I of two of them to ASCII letters, which str.lower() does not
PREFILTER_TERMS = (
    ("club foot", ("clubfoot", "club-foot")),
    ("foot", ()),
    ("spina bifida", ("\u017fpinabifida",)),
    ("trisomy 18", ("trisomy18",)),
    ("trisomy", ()),
    ("kiss", ()),
    ("sib", ("s\u0130b",)),
    ("caf\u00e9 au lait", ()),
)

# U+212A KELVIN SIGN, U+017F LONG S and U+0130 CAPITAL I WITH DOT match
# ASCII letters under re.IGNORECASE
TEXT_FRAGMENTS = (
    "club", "foot", "clubfoot", "spina", "bifida", "spinabifida", "trisomy",
    "18", "kiss", "ki", "ss", "sib", "caf\u00e9", "au", "lait", "x", "a",
    " ", "  ", "\t", " \t ", "-", "--",
    "\u212a", "\u017f", "\u0130", "\u00e9", "\U0001f60a",
)

fragments = st.tuples(
    st.sampled_from(TEXT_FRAGMENTS), st.sampled_from((str.lower, str.upper, str.title))
).map(lambda pair: pair[1](pair[0]))
texts = st.lists(fragments, max_size=14).map("".join)
lexicons = st.lists(
    st.sampled_from(PREFILTER_TERMS), min_size=1, max_size=len(PREFILTER_TERMS), unique=True
).map(lambda terms: Lexicon(tuple(terms)))

SPECIAL_TEXTS = (
    "Club-Foot",
    "club \t  foot",
    "CLUB--FOOT and foot",
    "ki\u017fs",
    "K\u0130SS",
    "\u212aiss",
    "SIB",
    "SPINABIFIDA",
    "spina-bifida",
    "CAF\u00c9 au LAIT",
    "trisomy 18 \U0001f60a trisomy18",
)


class TestLiteralPrefilter:
    """`match_text` with the literal check equals a scan with every pattern."""

    @settings(max_examples=300, deadline=None)
    @given(texts, lexicons)
    def test_equals_full_scan(self, text, lexicon):
        matchers = compile_matchers(lexicon)
        tweet = Tweet("t", "u", text)
        assert match_text(tweet, matchers) == reference_match_text(tweet, matchers)

    @pytest.mark.parametrize("text", SPECIAL_TEXTS)
    def test_equals_full_scan_on_folded_and_separated_text(self, text):
        matchers = compile_matchers(Lexicon(PREFILTER_TERMS))
        tweet = Tweet("t", "u", text)
        expected = reference_match_text(tweet, matchers)
        assert expected
        assert match_text(tweet, matchers) == expected

    def test_literal_is_lowercased_longest_chunk(self):
        matchers = compile_matchers(Lexicon(PREFILTER_TERMS))
        surfaces = [s for term, variants in PREFILTER_TERMS for s in (term, *variants)]
        assert len(surfaces) == len(matchers.patterns)
        by_surface = dict(zip(surfaces, [literal for _, _, literal in matchers.patterns]))
        assert by_surface["club foot"] == "club"
        assert by_surface["spina bifida"] == "bifida"
        assert by_surface["trisomy 18"] == "trisomy"
        assert by_surface["\u017fpinabifida"] is None
        assert by_surface["s\u0130b"] is None
        assert by_surface["caf\u00e9 au lait"] is None
        upper = compile_matchers(Lexicon((("CLUB FOOT", ()),)))
        assert upper.patterns[0][2] == "club"

    def test_entry_without_literal_always_runs(self):
        pattern = re.compile(r"(?<![a-zA-Z0-9])(?:foot)(?![a-zA-Z0-9])", re.IGNORECASE)
        matchers = MatcherSet(((pattern, "foot", None),))
        assert [m.term for m in match_text(Tweet("t", "u", "my FOOT"), matchers)] == ["foot"]

    def test_pair_entries_rejected(self):
        pattern = re.compile("foot", re.IGNORECASE)
        with pytest.raises(ValueError, match="triple"):
            MatcherSet(((pattern, "foot"),))

    def test_counts(self):
        matchers = compile_matchers(Lexicon(PREFILTER_TERMS))
        tweets = [
            Tweet("t1", "u", "club foot"),
            Tweet("t2", "u", "nothing here"),
            Tweet("t3", "u", "\u212aiss"),
        ]
        counts = MatchCounts()
        hits = match_corpus(tweets, matchers, counts)
        n = len(matchers.patterns)
        # the three non-ASCII surfaces run on every tweet; t1 also runs club
        # foot, club-foot and foot; t3 is not ASCII and runs every pattern
        assert (counts.tweets, counts.scans_run, counts.scans_skipped) == (3, 9 + n, 2 * n - 9)
        assert counts.matches == len(hits) == 2


def reference_post_filter(tweets, matches):
    """The post-filter with every match's span looked up: the oracle."""
    by_id = {tweet.id: tweet for tweet in tweets}
    kept = []
    for match in matches:
        tweet = by_id.get(match.tweet_id)
        if tweet is None or tweet.text.startswith("RT @"):
            continue
        raw = tweet.text.encode("utf-8")
        start = len(raw[: match.span[0]].decode("utf-8"))
        end = len(raw[: match.span[1]].decode("utf-8"))
        spans = [m.span() for m in USERNAME_RE.finditer(tweet.text)]
        spans.extend(m.span() for m in URL_RE.finditer(tweet.text))
        if not any(ts <= start and end <= te for ts, te in spans):
            kept.append(match)
    return kept


POST_FILTER_FRAGMENTS = (
    "RT @x: ", "@", "@chd_mom", "@dr_smith", "http://", "https://chd.example/",
    "HTTP://chd.example", "http", "chd", "CHD", "club foot", " ", "/", ".",
    "\u00e9", "\U0001f60a",
)


class TestPostFilterShortcut:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(POST_FILTER_FRAGMENTS), max_size=10).map("".join),
                    max_size=6))
    def test_equals_full_lookup(self, bodies):
        matchers = compile_matchers(Lexicon((("CHD", ()), ("club foot", ()))))
        tweets = [Tweet(f"t{i}", "u", body) for i, body in enumerate(bodies)]
        hits = match_corpus(tweets, matchers)
        counts = MatchCounts()
        kept = post_filter(tweets, hits, counts)
        assert kept == reference_post_filter(tweets, hits)
        assert counts.dropped_retweets + counts.dropped_in_tokens + len(kept) == len(hits)

    def test_drop_counts(self, matchers):
        tweets = [
            Tweet("t1", "u", "RT @x: CHD story"),
            Tweet("t2", "u", "real CHD story"),
            Tweet("t3", "u", "@chd_news posts about CHD, see https://chd.example"),
        ]
        counts = MatchCounts()
        kept = post_filter(tweets, match_corpus(tweets, matchers), counts)
        assert [(m.tweet_id, m.span) for m in kept] == [("t2", (5, 8)), ("t3", (22, 25))]
        assert (counts.dropped_retweets, counts.dropped_in_tokens) == (1, 2)
