"""Corpus model: TSV round-trips, distributions, splits, kappa, merging."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.corpus import (
    AnnotatedTweet,
    Corpus,
    Label,
    LABELS,
    TSV_HEADER,
    Tweet,
    byte_span_to_chars,
    char_span_to_bytes,
    class_distribution,
    cohens_kappa,
    filter_disagreements,
    load_corpus,
    save_corpus,
    stratified_split,
    three_way_split,
)
from rareclass.errors import DataError

from conftest import counted_corpus, make_corpus


def write_tsv(tmp_path, rows, header="id\tuser_id\tlabel\ttext\tspan_start\tspan_end"):
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_three_row_file(self, tmp_path):
        path = write_tsv(
            tmp_path,
            [
                "t1\tu1\tdefect\tmy baby has chd\t12\t15",
                "t2\tu2\tpossible_defect\the may have chd\t\t",
                "t3\tu3\tnon_defect\tchd awareness day\t\t",
            ],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.labels() == [Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT]
        assert corpus.items[0].match_span == (12, 15)
        assert corpus.items[1].match_span is None

    def test_unknown_label_names_line(self, tmp_path):
        path = write_tsv(tmp_path, ["t1\tu1\tdefekt\ttext\t\t"])
        with pytest.raises(DataError, match="unknown label .* line 2"):
            load_corpus(path)

    def test_inverted_span_rejected(self, tmp_path):
        path = write_tsv(tmp_path, ["t1\tu1\tdefect\tsome text here\t10\t4"])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "start,end,problem",
        [("5", "", "half-empty span"), ("", "9", "half-empty span"),
         ("5", "nine", "non-integer span"), ("5.0", "9", "non-integer span")],
        ids=["no-end", "no-start", "word", "decimal"],
    )
    def test_bad_span_columns_name_the_line(self, tmp_path, start, end, problem):
        rows = ["t1\tu1\tdefect\tsome text here\t5\t9", f"t2\tu2\tdefect\tmore\t{start}\t{end}"]
        path = write_tsv(tmp_path, rows)
        with pytest.raises(DataError, match=f": {problem} at line 3$"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_tsv(
            tmp_path,
            ["t1\tu1\tdefect\ta\t\t", "t1\tu2\tdefect\tb\t\t"],
        )
        with pytest.raises(DataError, match="duplicate tweet id"):
            load_corpus(path)

    def test_wrong_column_count(self, tmp_path):
        path = write_tsv(tmp_path, ["t1\tu1\tdefect\ttext"])
        with pytest.raises(DataError, match="columns at line 2"):
            load_corpus(path)

    def test_span_must_be_on_character_boundary(self, tmp_path):
        # "héllo": é occupies bytes 1-2, so a span starting at byte 2 splits it
        path = write_tsv(tmp_path, ["t1\tu1\tdefect\théllo\t2\t4"])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=40,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_arbitrary_text(self, texts, tmp_path_factory):
        rows = [
            (f"t{i}", text, LABELS[i % 3]) for i, text in enumerate(texts)
        ]
        corpus = make_corpus(rows)
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert [item.tweet.text for item in loaded] == texts
        assert loaded.labels() == corpus.labels()
        assert [item.tweet.id for item in loaded] == [r[0] for r in rows]

    @given(
        texts=st.lists(
            st.lists(
                st.sampled_from(
                    ["\\", "\t", "\n", "\r", "t", "n", "r", "x", " ", "\\t", "\\\\t", "\\\\\\"]
                ),
                max_size=12,
            ).map("".join),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_escape_like_text(self, texts, tmp_path_factory):
        corpus = make_corpus([(f"t{i}", text, Label.DEFECT) for i, text in enumerate(texts)])
        path = tmp_path_factory.mktemp("esc") / "c.tsv"
        save_corpus(corpus, path)
        assert [item.tweet.text for item in load_corpus(path)] == texts

    @pytest.mark.parametrize(
        "text,position",
        [("ends in \\", 8), ("a \\x b", 2), ("\\\\\\", 2), ("\\\\\\x", 2)],
        ids=["trailing", "unknown", "odd-run", "odd-run-unknown"],
    )
    def test_bad_escape_names_line_and_position(self, tmp_path, text, position):
        rows = ["t1\tu1\tdefect\tok \\\\ \\t\t\t", f"t2\tu2\tdefect\t{text}\t\t"]
        path = write_tsv(tmp_path, rows)
        message = f": bad escape sequence at position {position} at line 3$"
        with pytest.raises(DataError, match=message):
            load_corpus(path)

    def test_round_trip_preserves_spans_and_user_ids(self, tmp_path):
        corpus = make_corpus(
            [
                ("t1", "my baby has chd today", Label.DEFECT, (12, 15)),
                ("t2", "café chd", Label.NON_DEFECT, (6, 9)),
                ("t3", "no span", Label.POSSIBLE_DEFECT),
            ]
        )
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.items == corpus.items

    def test_spans_argument_replaces_every_span(self, tmp_path):
        corpus = make_corpus(
            [
                ("t1", "my baby has chd today", Label.DEFECT, (12, 15)),
                ("t2", "café chd", Label.NON_DEFECT),
                ("t3", "no span", Label.POSSIBLE_DEFECT),
            ]
        )
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path, spans={"t2": (6, 9), "t3": None})
        loaded = load_corpus(path)
        assert [item.match_span for item in loaded] == [None, (6, 9), None]
        assert [item.tweet for item in loaded] == corpus.tweets()


def reference_load_corpus(path):
    """The whole-file reader: the text read at once (text mode, so a line
    ends at \\n, \\r\\n or \\r) and split at newlines.  It makes the checks
    that the files below reach, with `load_corpus`'s messages."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if tuple(lines[0].split("\t")) != TSV_HEADER:
        raise DataError(f"{path}: missing or malformed header line")
    items = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_HEADER):
            raise DataError(
                f"{path}: expected {len(TSV_HEADER)} columns at line {lineno}, got {len(fields)}"
            )
        tid, user_id, label_s, text, start_s, end_s = fields
        try:
            label = Label(label_s)
        except ValueError:
            raise DataError(f"{path}: unknown label {label_s!r} at line {lineno}") from None
        span = (int(start_s), int(end_s)) if start_s else None
        items.append(AnnotatedTweet(Tweet(tid, user_id, text), label, span))
    return Corpus(tuple(items), provenance=str(path))


def load_outcome(load, path):
    try:
        corpus = load(path)
    except DataError as exc:
        return "error", str(exc)
    return corpus.items, corpus.provenance


HEADER = "\t".join(TSV_HEADER)

# corpus files, and how many rows each holds (None: a DataError)
LINE_BREAK_FILES = {
    "no trailing newline": (f"{HEADER}\nt1\tuser-1\tdefect\tmy baby has chd\t12\t15", 1),
    "blank lines": (
        f"{HEADER}\n\nt1\tuser-1\tdefect\ta\t\t\n\n\nt2\tuser-1\tnon_defect\tb\t\t\n\n", 2
    ),
    "blank first line": (f"\n{HEADER}\nt1\tuser-1\tdefect\ta\t\t\n", None),
    "header and no rows": (f"{HEADER}\n", 0),
    "header alone": (HEADER, 0),
    "empty file": ("", None),
    "raw \\r inside the text": (f"{HEADER}\nt1\tuser-1\tdefect\tab\rcd\t\t\n", None),
    "raw \\r ending the spans": (f"{HEADER}\nt1\tuser-1\tdefect\tmy chd\t3\t6\r\n", 1),
    "crlf line ends": (
        f"{HEADER}\r\nt1\tuser-1\tdefect\ta\t\t\r\nt2\tuser-2\tdefect\tb\t0\t1\r\n", 2
    ),
    "lone \\r line ends": (
        f"{HEADER}\rt1\tuser-1\tdefect\ta\t\t\r\rt2\tuser-2\tdefect\tb\t\t\r", 2
    ),
    "\\r line ends then a bad row": (
        f"{HEADER}\r\n\r\rt1\tuser-1\tdefect\ta\t\t\rt2\tuser-2\tnope\tb\t\t\n", None
    ),
    "other control characters": (
        f"{HEADER}\nt1\tuser-1\tdefect\ta\x0bb\x1cc\x85d\u2028e\x0cf\t\t\n", 1
    ),
    "non-ascii text with byte spans": (
        f"{HEADER}\nt1\tuser-é\tdefect\tbébé a la chd ❤\t12\t15\n"
        "t2\tuser-é\tpossible_defect\t❤❤ chd\t7\t10\nt3\tuser-1\tnon_defect\tnaïve\t\t\n",
        3,
    ),
}


class TestStreamedLoad:
    """`load_corpus` reads a line at a time; it reads every file as the
    whole-file reader does, and names the line of a byte that is not UTF-8."""

    @pytest.mark.parametrize("name", LINE_BREAK_FILES)
    def test_same_outcome_as_the_whole_file_reader(self, tmp_path, name):
        content, rows = LINE_BREAK_FILES[name]
        path = tmp_path / "corpus.tsv"
        path.write_bytes(content.encode("utf-8"))
        outcome = load_outcome(load_corpus, path)
        assert outcome == load_outcome(reference_load_corpus, path)
        assert (None if outcome[0] == "error" else len(outcome[0])) == rows

    @pytest.mark.parametrize(
        "prefix, bad, line",
        [
            (b"", b"\xff" + HEADER.encode(), 1),
            (b"t1\tuser-1\tdefect\ta\t\t\n", b"t2\tuser-1\tdefect\tb\xffc\t\t", 3),
            (
                b"".join(b"t%d\tuser-1\tdefect\ta\t\t\n" % i for i in range(4)),
                b"t9\tu\tdefect\t\xc3\t\t",
                6,
            ),
            (
                b"t1\tuser-1\tdefect\ta\t\t\r\rt2\tuser-1\tdefect\tb\t\t\r",
                b"t3\tu\tdefect\t\xe2\x9d\t\t",
                5,
            ),
        ],
        ids=["header", "line 3", "line 6", "after lone \\r ends"],
    )
    def test_bad_byte_names_its_line(self, tmp_path, prefix, bad, line):
        path = tmp_path / "corpus.tsv"
        head = b"" if line == 1 else HEADER.encode() + b"\n"
        path.write_bytes(head + prefix + bad + b"\nt8\tuser-1\tdefect\tz\t\t\n")
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8 at line {line} (")

    def test_rows_of_one_user_share_one_string(self, tmp_path):
        rows = [f"t{i}\tuser-{i % 3}\tdefect\ttext {i}\t\t" for i in range(9)]
        corpus = load_corpus(write_tsv(tmp_path, rows))
        by_user = {}
        for item in corpus:
            by_user.setdefault(item.tweet.user_id, []).append(item.tweet.user_id)
        assert sorted(by_user) == ["user-0", "user-1", "user-2"]
        for same in by_user.values():
            assert len(same) == 3 and all(user_id is same[0] for user_id in same)


class TestClassDistribution:
    def test_reference_corpus_proportions(self):
        corpus = counted_corpus(1192, 1196, 20611)
        dist = class_distribution(corpus)
        assert dist.total == 22999
        assert dist.counts[Label.DEFECT] == 1192
        assert abs(dist.proportions[Label.DEFECT] - 1192 / 22999) < 1e-15
        assert abs(dist.proportions[Label.DEFECT] - 0.05183) < 5e-6
        assert abs(dist.proportions[Label.POSSIBLE_DEFECT] - 0.05200) < 5e-6
        assert abs(dist.proportions[Label.NON_DEFECT] - 0.89617) < 5e-6
        assert abs(sum(dist.proportions.values()) - 1.0) < 1e-9

    def test_exact_quarters(self):
        dist = class_distribution(counted_corpus(1, 1, 2))
        assert dist.proportions[Label.DEFECT] == 0.25
        assert dist.proportions[Label.POSSIBLE_DEFECT] == 0.25
        assert dist.proportions[Label.NON_DEFECT] == 0.5

    def test_empty_corpus(self):
        dist = class_distribution(Corpus(()))
        assert dist.total == 0
        assert all(c == 0 for c in dist.counts.values())
        assert all(p == 0.0 for p in dist.proportions.values())


class TestStratifiedSplit:
    def test_ceiling_rule_per_class(self):
        corpus = counted_corpus(5, 5, 90)
        remainder, holdout = stratified_split(corpus, 0.2, seed=1)
        holdout_counts = holdout.class_counts()
        assert holdout_counts[Label.DEFECT] == 1
        assert holdout_counts[Label.POSSIBLE_DEFECT] == 1
        assert holdout_counts[Label.NON_DEFECT] == 18
        assert len(holdout) == 20 and len(remainder) == 80

    def test_single_class_corpus(self):
        corpus = counted_corpus(0, 0, 10)
        remainder, holdout = stratified_split(corpus, 0.2, seed=7)
        assert len(remainder) == 8 and len(holdout) == 2

    def test_two_stage_reference_sizes(self):
        corpus = counted_corpus(1192, 1196, 20611)
        result = three_way_split(corpus, 0.2, 0.2, seed=99)
        assert len(result.test) == 4602
        assert len(result.validation) == 3681
        assert len(result.train) == 14716

    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_partition_property(self, seed):
        corpus = counted_corpus(7, 11, 53)
        remainder, holdout = stratified_split(corpus, 0.3, seed=seed)
        ids_r = {item.tweet.id for item in remainder}
        ids_h = {item.tweet.id for item in holdout}
        assert ids_r.isdisjoint(ids_h)
        assert ids_r | ids_h == {item.tweet.id for item in corpus}
        for label in LABELS:
            n = corpus.class_counts()[label]
            assert holdout.class_counts()[label] == math.ceil(0.3 * n)

    def test_same_seed_reproduces_identical_ids(self):
        corpus = counted_corpus(10, 20, 70)
        first = stratified_split(corpus, 0.25, seed=42)
        second = stratified_split(corpus, 0.25, seed=42)
        assert [i.tweet.id for i in first[1]] == [i.tweet.id for i in second[1]]
        third = stratified_split(corpus, 0.25, seed=43)
        assert {i.tweet.id for i in third[1]} != {i.tweet.id for i in first[1]}

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            stratified_split(counted_corpus(1, 1, 2), fraction, seed=0)


class TestCohensKappa:
    def test_identical_sequences(self):
        seq = [Label.DEFECT, Label.NON_DEFECT, Label.DEFECT]
        assert cohens_kappa(seq, seq) == 1.0

    def test_hand_case_two_labels(self):
        # confusion counts [[20, 5], [10, 15]]: p_o = 0.7, p_e = 0.5
        a, b = [], []
        for count, (la, lb) in (
            (20, (Label.DEFECT, Label.DEFECT)),
            (5, (Label.DEFECT, Label.NON_DEFECT)),
            (10, (Label.NON_DEFECT, Label.DEFECT)),
            (15, (Label.NON_DEFECT, Label.NON_DEFECT)),
        ):
            a.extend([la] * count)
            b.extend([lb] * count)
        assert cohens_kappa(a, b) == pytest.approx(0.4, abs=1e-15)

    def test_chance_level_agreement_is_zero(self):
        # marginals 50/50 both sides, agreement exactly 0.5
        a = [Label.DEFECT, Label.DEFECT, Label.NON_DEFECT, Label.NON_DEFECT]
        b = [Label.DEFECT, Label.NON_DEFECT, Label.DEFECT, Label.NON_DEFECT]
        assert cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_constant_annotators(self):
        a = [Label.DEFECT] * 4
        assert cohens_kappa(a, a) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            cohens_kappa([Label.DEFECT], [])
        with pytest.raises(ValueError):
            cohens_kappa([], [])

    @given(
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, seq_a, rnd):
        seq_b = [rnd.choice(LABELS) for _ in seq_a]
        assert cohens_kappa(seq_a, seq_b) == pytest.approx(
            cohens_kappa(seq_b, seq_a), abs=1e-12
        )


class TestFilterDisagreements:
    def test_full_agreement(self):
        a = counted_corpus(2, 2, 1)
        assert len(filter_disagreements(a, a)) == 5

    def test_mixed_overlap(self):
        a = make_corpus(
            [
                ("t1", "x", Label.DEFECT),
                ("t2", "x", Label.DEFECT),
                ("t3", "x", Label.NON_DEFECT),
                ("t4", "x", Label.NON_DEFECT),
                ("t5", "x", Label.DEFECT),
                ("t6", "x", Label.POSSIBLE_DEFECT),  # only annotator a
            ]
        )
        b = make_corpus(
            [
                ("t1", "x", Label.DEFECT),
                ("t2", "x", Label.DEFECT),
                ("t3", "x", Label.NON_DEFECT),
                ("t4", "x", Label.NON_DEFECT),
                ("t5", "x", Label.NON_DEFECT),  # disagreement
                ("t7", "x", Label.DEFECT),  # only annotator b
            ]
        )
        merged = filter_disagreements(a, b)
        assert {i.tweet.id for i in merged} == {"t1", "t2", "t3", "t4", "t6", "t7"}
        assert len(merged) == 6

    def test_total_disagreement(self):
        a = make_corpus([("t1", "x", Label.DEFECT), ("t2", "x", Label.DEFECT)])
        b = make_corpus([("t1", "x", Label.NON_DEFECT), ("t2", "x", Label.POSSIBLE_DEFECT)])
        assert len(filter_disagreements(a, b)) == 0


class TestDomainTypes:
    def test_corpus_rejects_duplicate_ids(self):
        t = Tweet("t1", "u", "x")
        with pytest.raises(DataError, match="duplicate"):
            Corpus((AnnotatedTweet(t, Label.DEFECT), AnnotatedTweet(t, Label.DEFECT)))

    def test_tweet_requires_id(self):
        with pytest.raises(ValueError):
            Tweet("", "u", "x")

    def test_records_are_slotted(self):
        tweet = Tweet("t1", "u", "abc")
        item = AnnotatedTweet(tweet, Label.DEFECT, (0, 3))
        for record in (tweet, item):
            assert not hasattr(record, "__dict__")
            # FrozenInstanceError is an AttributeError; Python 3.11's frozen
            # slotted __setattr__ raises TypeError for a name that is not a field
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1

    def test_replace_equality_and_hashing(self):
        tweet = Tweet("t1", "u", "abc")
        item = AnnotatedTweet(tweet, Label.DEFECT, (0, 3))
        assert dataclasses.replace(tweet, text="xyz") == Tweet("t1", "u", "xyz")
        assert dataclasses.replace(item, match_span=None) == AnnotatedTweet(tweet, Label.DEFECT)
        with pytest.raises(ValueError):
            dataclasses.replace(item, match_span=(0, 9))
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.label = Label.NON_DEFECT
        twin = AnnotatedTweet(Tweet("t1", "u", "abc"), Label.DEFECT, (0, 3))
        assert twin == item and hash(twin) == hash(item) and len({twin, item}) == 1
        assert hash(tweet) == hash(("t1", "u", "abc"))
        assert item != AnnotatedTweet(tweet, Label.NON_DEFECT, (0, 3))
        assert tweet != ("t1", "u", "abc")

    def test_loaded_records_equal_and_hash_like_constructed_ones(self, tmp_path):
        path = write_tsv(
            tmp_path,
            [
                "t1\tu1\tdefect\tmy baby has chd\t12\t15",
                "t2\tu1\tpossible_defect\tb\u00e9b\u00e9 chd\t7\t10",
                "t3\tu3\tnon_defect\tchd awareness day\t\t",
            ],
        )
        built = [
            AnnotatedTweet(Tweet("t1", "u1", "my baby has chd"), Label.DEFECT, (12, 15)),
            AnnotatedTweet(Tweet("t2", "u1", "b\u00e9b\u00e9 chd"), Label.POSSIBLE_DEFECT, (7, 10)),
            AnnotatedTweet(Tweet("t3", "u3", "chd awareness day"), Label.NON_DEFECT),
        ]
        loaded = load_corpus(path).items
        assert list(loaded) == built
        assert [hash(item) for item in loaded] == [hash(item) for item in built]
        assert [hash(item.tweet) for item in loaded] == [hash(item.tweet) for item in built]
        assert all(type(a) is type(b) for a, b in zip(loaded, built))
        assert set(loaded) == set(built)

    def test_bad_span_names_its_line(self, tmp_path):
        path = write_tsv(
            tmp_path, ["t1\tu1\tdefect\tmy chd\t3\t6", "t2\tu2\tdefect\tb\u00e9b\u00e9\t2\t4"]
        )
        with pytest.raises(DataError, match="does not fall on character boundaries at line 3"):
            load_corpus(path)

    def test_span_bounds_checked(self):
        t = Tweet("t1", "u", "abc")
        with pytest.raises(ValueError):
            AnnotatedTweet(t, Label.DEFECT, (2, 2))
        with pytest.raises(ValueError):
            AnnotatedTweet(t, Label.DEFECT, (0, 99))
        assert AnnotatedTweet(t, Label.DEFECT, (0, 3)).match_span == (0, 3)


def reference_byte_span_to_chars(text, span):
    """The encode-based conversion, for every text: the oracle."""
    raw = text.encode("utf-8")
    start, end = span
    if not (0 <= start < end <= len(raw)):
        raise ValueError(f"invalid span {span!r} for text of {len(raw)} bytes")
    for offset in (start, end):
        if offset < len(raw) and (raw[offset] & 0xC0) == 0x80:
            raise ValueError(f"span {span!r} does not fall on character boundaries")
    return len(raw[:start].decode("utf-8")), len(raw[:end].decode("utf-8"))


def reference_char_span_to_bytes(text, span):
    start, end = span
    return len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8"))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


ascii_texts = st.text(alphabet=st.characters(max_codepoint=127), max_size=12)
any_texts = st.text(alphabet=st.sampled_from("ab \t\u00e9\u212a\u0130\U0001f60a"), max_size=8)


class TestSpanConversion:
    """The ASCII fast paths equal the encode-based conversion, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ascii_texts, any_texts), st.integers(-3, 40), st.integers(-3, 40))
    def test_byte_span_to_chars(self, text, start, end):
        assert outcome(byte_span_to_chars, text, (start, end)) == outcome(
            reference_byte_span_to_chars, text, (start, end)
        )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ascii_texts, any_texts), st.integers(-20, 40), st.integers(-20, 40))
    def test_char_span_to_bytes(self, text, start, end):
        assert char_span_to_bytes(text, (start, end)) == reference_char_span_to_bytes(
            text, (start, end)
        )

    @pytest.mark.parametrize(
        "text, span, message",
        [
            ("abc", (2, 2), "invalid span (2, 2) for text of 3 bytes"),
            ("abc", (0, 4), "invalid span (0, 4) for text of 3 bytes"),
            ("abc", (-1, 2), "invalid span (-1, 2) for text of 3 bytes"),
            ("", (0, 1), "invalid span (0, 1) for text of 0 bytes"),
            ("\u00e9c", (0, 4), "invalid span (0, 4) for text of 3 bytes"),
            ("\u00e9c", (1, 3), "span (1, 3) does not fall on character boundaries"),
        ],
    )
    def test_error_messages(self, text, span, message):
        with pytest.raises(ValueError) as info:
            byte_span_to_chars(text, span)
        assert str(info.value) == message

    def test_ascii_and_multibyte_spans(self):
        assert byte_span_to_chars("my CHD", (3, 6)) == (3, 6)
        assert char_span_to_bytes("my CHD", (3, 6)) == (3, 6)
        assert byte_span_to_chars("\u00e9\u00e9 CHD", (5, 8)) == (3, 6)
        assert char_span_to_bytes("\u00e9\u00e9 CHD", (3, 6)) == (5, 8)
