"""Output checks for the benchmark workloads.

Every check tests a property of the method, computed here apart from the
program, never a stored copy of an earlier output.  Files are read with
this module's own minimal parsers, not with ``rareclass``.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

DEFECT = "defect"
POSSIBLE = "possible_defect"
NON_DEFECT = "non_defect"
LABELS = (DEFECT, POSSIBLE, NON_DEFECT)
RARE = (DEFECT, POSSIBLE)

F1_TOLERANCE = 1e-5  # the report prints six decimals
DUAL_EQUALITY_TOLERANCE = 1e-6
VARIANCE_FLOOR = 1e-9
SIMILAR_PAIRS = 60  # seeded pairs of kept majority items checked by the oracle
SIMILAR_REMOVED_PROBES = 12  # seeded removed items checked for an earlier keeper


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)")


class Row:
    """One corpus TSV row: the raw line plus the fields the checks use."""

    __slots__ = ("raw", "id", "label", "text", "span")

    def __init__(self, raw: str):
        fields = raw.split("\t")
        if len(fields) != 6:
            raise ValueError(f"expected 6 columns, got {len(fields)}: {raw[:80]!r}")
        self.raw = raw
        self.id, _user, self.label, text, start, end = fields
        self.text = _ESCAPE_RE.sub(lambda m: _UNESCAPE[m.group(1)], text)
        self.span = (int(start), int(end)) if start else None


def read_corpus(path: Path) -> list[Row]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "id\tuser_id\tlabel\ttext\tspan_start\tspan_end":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return [Row(line) for line in lines[1:] if line]


def class_counts(rows: list[Row]) -> dict[str, int]:
    counts = {label: 0 for label in LABELS}
    for row in rows:
        counts[row.label] += 1
    return counts


# -- oracles -----------------------------------------------------------------


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance by the full (len a + 1) x (len b + 1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def levenshtein_ratio(a: str, b: str) -> float:
    lensum = len(a) + len(b)
    return 1.0 if lensum == 0 else (lensum - edit_distance(a, b)) / lensum


def split_sizes(n: int, test_fraction: str, validation_fraction: str) -> tuple[int, int, int]:
    """(train, validation, test) sizes of one class of `n` items.

    The test part takes ceil(f_test * n) items and the validation part
    ceil(f_val * rest) of the remainder, with each fraction taken at its
    decimal spelling so the ceiling is exact.
    """
    test = math.ceil(Fraction(test_fraction) * n)
    validation = math.ceil(Fraction(validation_fraction) * (n - test))
    return n - test - validation, validation, test


def smote_size(n_majority: int, n_class: int) -> int:
    """Class size after SMOTE: floor((N_maj - N_c) / N_c) * N_c + N_c."""
    return (n_majority - n_class) // n_class * n_class + n_class


def f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


# -- checks ------------------------------------------------------------------


def check_split(
    source: list[Row], parts: dict[str, list[Row]], test_fraction: str, validation_fraction: str
) -> list[str]:
    problems = []
    counts = class_counts(source)
    for label in LABELS:
        expected = dict(
            zip(("train", "validation", "test"), split_sizes(counts[label], test_fraction, validation_fraction))
        )
        for name, rows in parts.items():
            got = class_counts(rows)[label]
            if got != expected[name]:
                problems.append(f"split: {name} has {got} {label}, ceiling rule gives {expected[name]}")
    position = {row.id: i for i, row in enumerate(source)}
    source_raw = {row.id: row.raw for row in source}
    seen: set[str] = set()
    for name, rows in parts.items():
        order = [position.get(row.id, -1) for row in rows]
        if any(p < 0 for p in order):
            problems.append(f"split: {name} holds ids not in the input")
        elif order != sorted(order):
            problems.append(f"split: {name} does not keep input order")
        if any(source_raw.get(row.id) != row.raw for row in rows):
            problems.append(f"split: {name} altered rows")
        ids = {row.id for row in rows}
        if ids & seen:
            problems.append(f"split: {name} overlaps another part")
        seen |= ids
    if seen != set(position):
        problems.append("split: parts do not cover the input")
    return problems


def check_spans(annotated: list[Row], planted: dict[str, tuple[tuple[int, int], str]]) -> list[str]:
    """Every tweet's annotated span covers the term the generator planted."""
    problems = []
    if len(annotated) != len(planted):
        problems.append(f"match: {len(annotated)} annotated rows for {len(planted)} tweets")
    for row in annotated:
        span, surface = planted.get(row.id, (None, None))
        covered = None
        if row.span is not None:
            covered = row.text.encode("utf-8")[row.span[0] : row.span[1]].decode("utf-8", "replace")
        if row.span != span or covered != surface:
            problems.append(f"match: {row.id} span {row.span} covers {covered!r}, planted {span} {surface!r}")
            if len(problems) > 5:
                break
    return problems


def check_svm_model(model: dict, train: list[Row]) -> list[str]:
    """Every pair converged and its dual solution is feasible."""
    problems = []
    svm = model["svm"]
    counts = {label: n for label, n in class_counts(train).items() if n}
    expected_weights = {label: len(train) / (len(counts) * n) for label, n in counts.items()}
    weights = svm["class_weights"]
    for label, w in expected_weights.items():
        if not math.isclose(weights.get(label, -1.0), w, rel_tol=1e-12):
            problems.append(f"svm: weight of {label} is {weights.get(label)}, N/(K N_c) gives {w}")
    c = svm["params"]["c"]
    for pair in svm["pairs"]:
        name = f"{pair['positive']}/{pair['negative']}"
        if pair["converged"] is not True:
            problems.append(f"svm: pair {name} did not converge")
        box = {1: c * expected_weights[pair["positive"]], -1: c * expected_weights[pair["negative"]]}
        for alpha, y in zip(pair["alpha"], pair["y"]):
            if not (0.0 <= alpha <= box[y] * (1 + 1e-12)):
                problems.append(f"svm: pair {name} has alpha {alpha} outside [0, {box[y]}]")
                break
        balance = math.fsum(a * y for a, y in zip(pair["alpha"], pair["y"]))
        if abs(balance) > DUAL_EQUALITY_TOLERANCE:
            problems.append(f"svm: pair {name} has sum(alpha y) = {balance}")
    return problems


def check_nb_priors(model: dict, expected_counts: dict[str, int], what: str) -> list[str]:
    nb = model["nb"]
    total = sum(expected_counts.values())
    problems = []
    for label, log_prior in zip(nb["labels"], nb["log_priors"]):
        expected = math.log(expected_counts[label] / total)
        if not math.isclose(log_prior, expected, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(
                f"nb: prior of {label} is {math.exp(log_prior):.9f}, {what} gives "
                f"{expected_counts[label]}/{total}"
            )
    return problems


def check_smote_gaussian_model(model: dict, train: list[Row]) -> list[str]:
    """Class priors follow the SMOTE size rule; every variance is floored."""
    counts = {label: n for label, n in class_counts(train).items() if n}
    n_majority = max(counts.values())
    expected = {
        label: n if n == n_majority else smote_size(n_majority, n) for label, n in counts.items()
    }
    problems = check_nb_priors(model, expected, "the SMOTE size rule")
    nb = model["nb"]
    if nb["event_model"] != "gaussian":
        problems.append(f"nb: event model {nb['event_model']}, expected gaussian")
    low = min(min(row) for row in nb["variances"])
    if low < VARIANCE_FLOOR:
        problems.append(f"nb: variance {low} below the floor {VARIANCE_FLOOR}")
    return problems


def read_report(path: Path) -> dict[str, tuple[float, ...]]:
    rows = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "class\tprecision\trecall\tf1":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    for line in lines[1:]:
        name, *values = line.split("\t")
        rows[name] = tuple(float(v) for v in values if v)
    return rows


def rare_f1(report: dict[str, tuple[float, ...]]) -> float:
    return sum(report[label][2] for label in RARE) / len(RARE)


def check_report(report: dict[str, tuple[float, ...]], test: list[Row]) -> list[str]:
    problems = []
    counts = class_counts(test)
    for label in LABELS:
        precision, recall, score = report[label]
        if abs(score - f1(precision, recall)) > F1_TOLERANCE:
            problems.append(f"report: {label} F1 {score} is not 2PR/(P+R) = {f1(precision, recall)}")
    weighted = sum(counts[label] * report[label][2] for label in LABELS) / len(test)
    (overall,) = report["overall"]
    if abs(overall - weighted) > F1_TOLERANCE:
        problems.append(f"report: overall F1 {overall} is not the support-weighted mean {weighted}")
    baseline = 0.0  # always answering non_defect finds no rare item: P = R = F1 = 0
    if not rare_f1(report) > baseline:
        problems.append(f"report: rare-class F1 {rare_f1(report)} does not beat the baseline {baseline}")
    return problems


def check_similar_sample(train: list[Row], sampled: list[Row], k: float, seed: int) -> list[str]:
    """Minority rows unchanged, order kept, and the first-keeper rule holds.

    A seeded sample of kept majority pairs must have LR <= k, and each
    sampled removed item must have an earlier kept item with LR > k.
    Small samples are checked whole.
    """
    problems = []
    position = {row.id: i for i, row in enumerate(train)}
    order = [position.get(row.id, -1) for row in sampled]
    if any(p < 0 for p in order) or order != sorted(order):
        problems.append("sample: sampled rows are not a subsequence of the training split")
        return problems
    if any(train[p].raw != row.raw for p, row in zip(order, sampled)):
        problems.append("sample: sampled rows differ from their training rows")
    kept_ids = {row.id for row in sampled}
    if any(row.label != NON_DEFECT and row.id not in kept_ids for row in train):
        problems.append("sample: a minority item was removed")
    majority = [row for row in train if row.label == NON_DEFECT]
    kept = [row for row in majority if row.id in kept_ids]
    removed = [row for row in majority if row.id not in kept_ids]
    rng = random.Random(seed)
    all_pairs = list(itertools.combinations(kept, 2))
    for a, b in rng.sample(all_pairs, min(SIMILAR_PAIRS, len(all_pairs))):
        ratio = levenshtein_ratio(a.text, b.text)
        if ratio > k:
            problems.append(f"sample: kept {a.id} and {b.id} have LR {ratio:.4f} > {k}")
    for row in rng.sample(removed, min(SIMILAR_REMOVED_PROBES, len(removed))):
        earlier = [other for other in kept if position[other.id] < position[row.id]]
        if not any(_bound(row.text, o.text) > k and levenshtein_ratio(row.text, o.text) > k for o in earlier):
            problems.append(f"sample: removed {row.id} has no earlier kept item with LR > {k}")
    return problems


def _bound(a: str, b: str) -> float:
    """The edit distance is at least the length difference, so LR cannot exceed this."""
    lensum = len(a) + len(b)
    return 1.0 if lensum == 0 else (lensum - abs(len(a) - len(b))) / lensum
