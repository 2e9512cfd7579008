"""Self-tests of the benchmark's oracles and output checks.

The oracles are checked against hand-worked cases, and every output
check must accept a correct output and reject a deliberately corrupted
one.  Run with ``python3 perfbench/test_checks.py`` or with pytest.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import DEFECT, NON_DEFECT, POSSIBLE, Row  # noqa: E402


def row(tid: str, label: str, text: str, span: tuple[int, int] | None = None) -> Row:
    start, end = ("", "") if span is None else (str(span[0]), str(span[1]))
    return Row("\t".join((tid, "u1", label, text, start, end)))


# -- oracles against hand-worked cases -------------------------------------------


def test_edit_distance_hand_cases():
    assert checks.edit_distance("kitten", "sitting") == 3
    assert checks.edit_distance("flaw", "lawn") == 2
    assert checks.edit_distance("intention", "execution") == 5
    assert checks.edit_distance("", "abc") == 3
    assert checks.edit_distance("abc", "") == 3
    assert checks.edit_distance("", "") == 0
    # emoji and skin-tone modifier are two scalars, then one space
    assert checks.edit_distance("\U0001F476\U0001F3FD baby", "baby") == 3
    assert checks.levenshtein_ratio("ab", "cd") == 0.5
    assert checks.levenshtein_ratio("", "") == 1.0
    assert checks.levenshtein_ratio("kitten", "sitting") == 10 / 13


def test_split_ceiling_rule_hand_cases():
    # 25 items at 0.2/0.2: test ceil(5) = 5, validation ceil(0.2 * 20) = 4
    assert checks.split_sizes(25, "0.2", "0.2") == (16, 4, 5)
    # 0.3 * 10 is 3.0000000000000004 in binary floating point; the rule gives 3
    assert checks.split_sizes(10, "0.3", "0.2") == (5, 2, 3)
    assert checks.split_sizes(0, "0.2", "0.2") == (0, 0, 0)
    # class counts 1192/1196/20611 give 4602 test and 3681 validation items
    sizes = [checks.split_sizes(n, "0.2", "0.2") for n in (1192, 1196, 20611)]
    assert [sum(s[i] for s in sizes) for i in range(3)] == [14716, 3681, 4602]


def test_smote_size_rule_hand_cases():
    assert checks.smote_size(100, 7) == 98  # floor(93 / 7) = 13 copies, plus the 7
    assert checks.smote_size(100, 50) == 100
    assert checks.smote_size(100, 60) == 60
    assert checks.smote_size(10, 3) == 9


# -- each check accepts a correct output and rejects a corrupted one ---------------


def split_case():
    source = [row(f"d{i}", DEFECT, "x") for i in range(5)]
    source += [row(f"n{i}", NON_DEFECT, "y") for i in range(10)]
    # per class: test ceil(0.2 n), validation ceil(0.2 rest)
    test = [source[0], source[5], source[6]]
    validation = [source[1], source[7], source[8]]
    train = [r for r in source if r not in test and r not in validation]
    return source, {"train": train, "validation": validation, "test": test}


def test_split_check():
    source, parts = split_case()
    assert checks.check_split(source, parts, "0.2", "0.2") == []
    moved = dict(parts, test=parts["test"][:-1], train=parts["train"] + parts["test"][-1:])
    assert checks.check_split(source, moved, "0.2", "0.2")
    reordered = dict(parts, train=parts["train"][::-1])
    assert checks.check_split(source, reordered, "0.2", "0.2")
    altered = dict(parts, test=[row("d0", DEFECT, "changed")] + parts["test"][1:])
    assert checks.check_split(source, altered, "0.2", "0.2")


def test_span_check():
    text = "raka my son has club foot"
    annotated = [row("t1", DEFECT, text, (16, 25))]
    assert checks.check_spans(annotated, {"t1": ((16, 25), "club foot")}) == []
    shifted = [row("t1", DEFECT, text, (11, 20))]
    assert checks.check_spans(shifted, {"t1": ((16, 25), "club foot")})
    missing = [row("t1", DEFECT, text)]
    assert checks.check_spans(missing, {"t1": ((16, 25), "club foot")})


def svm_case():
    train = [row("a", DEFECT, "x"), row("b", NON_DEFECT, "y"), row("c", NON_DEFECT, "z")]
    # N / (K N_c): 3 / (2 * 1) and 3 / (2 * 2)
    weights = {DEFECT: 1.5, NON_DEFECT: 0.75}
    pair = {
        "positive": DEFECT, "negative": NON_DEFECT, "converged": True,
        "alpha": [1.5, 0.75, 0.75], "y": [1, -1, -1],
    }
    model = {"svm": {"class_weights": weights, "params": {"c": 2.0}, "pairs": [pair]}}
    return model, train


def test_svm_check():
    model, train = svm_case()
    assert checks.check_svm_model(model, train) == []

    def corrupted(**changes):
        pair = dict(model["svm"]["pairs"][0], **changes)
        return {"svm": dict(model["svm"], pairs=[pair])}

    assert checks.check_svm_model(corrupted(converged=False), train)
    assert checks.check_svm_model(corrupted(alpha=[3.1, 1.55, 1.55]), train)  # above C w = 3.0
    assert checks.check_svm_model(corrupted(alpha=[1.5, 0.75, 0.7]), train)  # sum(alpha y) != 0
    heavier = {"svm": dict(model["svm"], class_weights={DEFECT: 2.0, NON_DEFECT: 0.75})}
    assert checks.check_svm_model(heavier, train)


def smote_case():
    train = [row(f"d{i}", DEFECT, "x") for i in range(3)]
    train += [row(f"p{i}", POSSIBLE, "x") for i in range(4)]
    train += [row(f"n{i}", NON_DEFECT, "y") for i in range(10)]
    sizes = {DEFECT: 9, POSSIBLE: 8, NON_DEFECT: 10}  # floor(7/3) * 3 + 3, floor(6/4) * 4 + 4
    total = sum(sizes.values())
    model = {"nb": {
        "labels": [DEFECT, POSSIBLE, NON_DEFECT],
        "log_priors": [math.log(sizes[label] / total) for label in (DEFECT, POSSIBLE, NON_DEFECT)],
        "event_model": "gaussian",
        "variances": [[1e-9, 0.5], [0.25, 1e-9], [1.0, 2.0]],
    }}
    return model, train


def test_smote_gaussian_check():
    model, train = smote_case()
    assert checks.check_smote_gaussian_model(model, train) == []
    altered = {"nb": dict(model["nb"], log_priors=[math.log(3 / 27)] + model["nb"]["log_priors"][1:])}
    assert checks.check_smote_gaussian_model(altered, train)
    unfloored = {"nb": dict(model["nb"], variances=[[1e-10, 0.5], [0.25, 1e-9], [1.0, 2.0]])}
    assert checks.check_smote_gaussian_model(unfloored, train)
    multinomial = {"nb": dict(model["nb"], event_model="multinomial")}
    assert checks.check_smote_gaussian_model(multinomial, train)


def report_case():
    test = [row(f"d{i}", DEFECT, "x") for i in range(2)]
    test += [row(f"p{i}", POSSIBLE, "x") for i in range(2)]
    test += [row(f"n{i}", NON_DEFECT, "y") for i in range(6)]
    # one defect read as possible_defect, everything else right
    report = {
        DEFECT: (1.0, 0.5, 2 * 0.5 / 1.5),
        POSSIBLE: (2 / 3, 1.0, 2 * (2 / 3) / (5 / 3)),
        NON_DEFECT: (1.0, 1.0, 1.0),
    }
    report["overall"] = ((2 * report[DEFECT][2] + 2 * report[POSSIBLE][2] + 6) / 10,)
    return report, test


def test_report_check():
    report, test = report_case()
    assert checks.check_report(report, test) == []
    assert checks.check_report(dict(report, **{DEFECT: (1.0, 0.5, 0.7)}), test)
    assert checks.check_report(dict(report, overall=(0.9,)), test)
    constant = {
        DEFECT: (0.0, 0.0, 0.0), POSSIBLE: (0.0, 0.0, 0.0),
        NON_DEFECT: (0.6, 1.0, 0.75), "overall": (0.45,),
    }
    assert checks.check_report(constant, test)


def similar_case():
    train = [
        row("n0", NON_DEFECT, "walk for spina bifida research"),
        row("d0", DEFECT, "my son has spina bifida"),
        row("n1", NON_DEFECT, "walk for spina bifida research!"),  # LR(n0) = 60/61
        row("n2", NON_DEFECT, "quiz me on dwarfism before the exam"),
        row("p0", POSSIBLE, "he has club foot"),
        row("n3", NON_DEFECT, "quiz me on dwarfism before the exam!!"),  # LR(n2) = 70/72
    ]
    sampled = [train[0], train[1], train[3], train[4]]
    return train, sampled


def test_similar_sample_check():
    train, sampled = similar_case()
    assert checks.check_similar_sample(train, sampled, 0.85, seed=1) == []
    dropped_minority = [r for r in sampled if r.id != "p0"]
    assert checks.check_similar_sample(train, dropped_minority, 0.85, seed=1)
    kept_duplicate = sampled + [train[5]]
    assert checks.check_similar_sample(train, kept_duplicate, 0.85, seed=1)
    removed_unique = [r for r in sampled if r.id != "n2"] + [train[5]]
    assert checks.check_similar_sample(train, removed_unique, 0.85, seed=1)
    reordered = [sampled[1], sampled[0]] + sampled[2:]
    assert checks.check_similar_sample(train, reordered, 0.85, seed=1)


def test_generator_is_seeded_and_plants_spans():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import corpus_gen

    first, again, other = (corpus_gen.generate(seed, 300) for seed in (5, 5, 6))
    assert first == again
    assert first.corpus != other.corpus
    texts = [item.tweet.text for item in first.corpus]
    assert len(set(texts)) == len(texts)
    surfaces = set(corpus_gen._surfaces())
    for item, planted in zip(first.corpus, first.planted):
        raw = item.tweet.text.encode("utf-8")
        assert raw[planted.span[0] : planted.span[1]].decode("utf-8") == planted.surface
        assert planted.surface in surfaces
        assert item.match_span in (None, planted.span)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
