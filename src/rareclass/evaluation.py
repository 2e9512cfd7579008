"""Evaluation: confusion matrices, per-class and overall precision/recall/F1,
the paired t-test, and false-negative inspection reports.

Conventions used throughout (tests depend on them): any 0/0 metric ratio
is defined as 0; the overall F1 is the support-weighted mean of the
per-class F1 values; a paired t-test on zero-variance nonzero differences
reports p = 0 with a flag, and on all-zero differences t = 0, p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import AnnotatedTweet, Corpus, Label, LABELS


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are gold labels, columns predicted labels."""

    labels: tuple[Label, ...]
    counts: tuple[tuple[int, ...], ...]

    def cell(self, gold: Label, predicted: Label) -> int:
        return self.counts[self.labels.index(gold)][self.labels.index(predicted)]

    def row_sum(self, gold: Label) -> int:
        return sum(self.counts[self.labels.index(gold)])

    def column_sum(self, predicted: Label) -> int:
        j = self.labels.index(predicted)
        return sum(row[j] for row in self.counts)

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.labels)))


def confusion_matrix(gold: Sequence[Label], pred: Sequence[Label]) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise ValueError("gold and predicted sequences must have equal length")
    if not gold:
        raise ValueError("cannot build a confusion matrix from zero instances")
    counts = [[0] * len(LABELS) for _ in LABELS]
    for g, p in zip(gold, pred):
        counts[LABELS.index(g)][LABELS.index(p)] += 1
    return ConfusionMatrix(LABELS, tuple(tuple(row) for row in counts))


def precision_recall_f1(
    matrix: ConfusionMatrix, label: Label
) -> tuple[float, float, float]:
    """Per-class precision, recall and F1 = 2PR/(P+R), with 0/0 -> 0."""
    tp = matrix.cell(label, label)
    fp = matrix.column_sum(label) - tp
    fn = matrix.row_sum(label) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def overall_f1(per_class_f1: dict[Label, float], supports: dict[Label, int]) -> float:
    """Support-weighted mean of the per-class F1 scores."""
    total = sum(supports.values())
    if total <= 0:
        raise ValueError("supports must sum to a positive count")
    return sum(supports[label] * per_class_f1[label] for label in supports) / total


@dataclass(frozen=True)
class EvalReport:
    """Per-class metrics plus the matrix they came from."""

    matrix: ConfusionMatrix
    per_class: dict[Label, tuple[float, float, float]]
    overall: float
    instance_count: int
    model_id: str = ""
    corpus_id: str = ""

    def to_tsv(self) -> str:
        lines = ["class\tprecision\trecall\tf1"]
        for label in LABELS:
            p, r, f = self.per_class[label]
            lines.append(f"{label.value}\t{p:.6f}\t{r:.6f}\t{f:.6f}")
        lines.append(f"overall\t\t\t{self.overall:.6f}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(label.value) for label in LABELS)
        lines = [f"instances: {self.instance_count}"]
        if self.model_id:
            lines.append(f"model: {self.model_id}")
        if self.corpus_id:
            lines.append(f"corpus: {self.corpus_id}")
        lines.append("")
        header = " " * (width + 2) + "  ".join(f"{l.value:>{width}}" for l in LABELS)
        lines.append("confusion matrix (rows gold, columns predicted)")
        lines.append(header)
        for i, label in enumerate(LABELS):
            row = "  ".join(f"{c:>{width}}" for c in self.matrix.counts[i])
            lines.append(f"{label.value:<{width}}  {row}")
        lines.append("")
        lines.append(f"{'class':<{width}}  {'P':>7}  {'R':>7}  {'F1':>7}")
        for label in LABELS:
            p, r, f = self.per_class[label]
            lines.append(f"{label.value:<{width}}  {p:7.4f}  {r:7.4f}  {f:7.4f}")
        lines.append(f"{'overall':<{width}}  {'':>7}  {'':>7}  {self.overall:7.4f}")
        return "\n".join(lines) + "\n"


def evaluate_predictions(
    gold: Sequence[Label],
    pred: Sequence[Label],
    model_id: str = "",
    corpus_id: str = "",
) -> EvalReport:
    matrix = confusion_matrix(gold, pred)
    per_class = {label: precision_recall_f1(matrix, label) for label in LABELS}
    supports = {label: matrix.row_sum(label) for label in LABELS}
    overall = overall_f1({l: per_class[l][2] for l in LABELS}, supports)
    return EvalReport(matrix, per_class, overall, len(gold), model_id, corpus_id)


@dataclass(frozen=True)
class TTestResult:
    """Classical two-tailed paired Student's t-test outcome."""

    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    mean_difference: float
    zero_variance: bool = False


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on aligned score sequences.

    Zero-variance differences degenerate: all-zero differences give
    t = 0, p = 1; a constant nonzero difference gives p = 0 with the
    `zero_variance` flag set (the statistic is unbounded).
    """
    from .stats import student_t_two_sided_p  # no CLI step runs the t-test

    if len(scores_a) != len(scores_b):
        raise ValueError("score sequences must have equal length")
    n = len(scores_a)
    if n < 2:
        raise ValueError("need at least two paired scores")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0, 0.0)
        return TTestResult(math.copysign(math.inf, mean), df, 0.0, mean, True)
    t = mean / math.sqrt(var / n)
    return TTestResult(t, df, student_t_two_sided_p(t, df), mean)


def error_report(
    corpus: Corpus,
    pred: Sequence[Label],
    target_gold: Label,
    predicted_as: Label,
) -> list[AnnotatedTweet]:
    """Tweets with gold `target_gold` predicted `predicted_as`, in corpus order."""
    if len(pred) != len(corpus):
        raise ValueError("predictions must align with the corpus")
    return [
        item
        for item, p in zip(corpus, pred)
        if item.label == target_gold and p == predicted_as
    ]
