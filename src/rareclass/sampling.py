"""Data-level class-imbalance treatments.

Four text-level samplers operate on corpora before vectorization:
similarity-based removal of near-duplicate majority tweets, removal of
majority tweets near known false negatives, random under-sampling to a
target size, and minority over-sampling by whole-copy replication.  The
fifth treatment, synthetic minority over-sampling (SMOTE), operates on
feature vectors after vectorization.

Lexical similarity uses the Levenshtein ratio
LR = (lensum - lendist) / lensum over Unicode scalars, in [0, 1].
The edit distance is exact and bit-parallel (Myers 1999, in Hyyrö's
2001 form for edit distance), one pass over one string with the other
held as per-character bitmasks.  The two similarity samplers build those
masks once per retained or false-negative text, skip pairs whose length
difference alone rules out LR > k, and stop a comparison as soon as the
distance is sure to be too large for LR > k; their decisions equal
``levenshtein_ratio(a, b) > k`` pair for pair.  Each logs its pair
counts at INFO.  Every sampler is deterministic given its inputs and
seed and returns a `SamplingReport` describing what it did.

Only `smote` uses numpy and the feature vectors; it imports them when it
runs, so the text samplers load without numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import Corpus, Label, LABELS, Tweet
from .rng import SplitMix64, derive_seed

if TYPE_CHECKING:
    from .features import SparseVector

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimilarityThreshold:
    """Similarity cutoff k in (0, 1]; pairs with LR > k count as duplicates."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValueError("threshold must be in (0, 1]")


def _as_threshold(k: "SimilarityThreshold | float") -> float:
    if isinstance(k, SimilarityThreshold):
        return k.value
    return SimilarityThreshold(float(k)).value


@dataclass(frozen=True)
class SamplingReport:
    """Reproducibility record for one sampling run."""

    method: str
    input_counts: dict[Label, int]
    output_counts: dict[Label, int]
    parameters: dict[str, object] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"method: {self.method}"]
        for key in sorted(self.parameters):
            lines.append(f"parameter {key}: {self.parameters[key]}")
        lines.append(f"{'class':<16}\t{'input':>8}\t{'output':>8}")
        for label in LABELS:
            lines.append(
                f"{label.value:<16}\t{self.input_counts.get(label, 0):>8}"
                f"\t{self.output_counts.get(label, 0):>8}"
            )
        lines.append(
            f"{'total':<16}\t{sum(self.input_counts.values()):>8}"
            f"\t{sum(self.output_counts.values()):>8}"
        )
        return "\n".join(lines) + "\n"


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalars.

    Exact, computed by the bit-parallel kernel `_distance` with the
    longer string as the pattern and one pass over the shorter one.  The
    similarity samplers call the same kernel with a threshold cutoff.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _distance(_char_masks(a), len(a), b)


def _char_masks(pattern: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``pattern[i] == c``."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _distance(
    masks: dict[str, int], m: int, text: str, give_up_at: int | None = None
) -> int | None:
    """Edit distance between a pattern of length m and `text`, or None.

    Bit-parallel dynamic program of Myers (JACM 46(3), 1999) in Hyyrö's
    (2001) form for edit distance: one column of the table is kept as
    bit vectors of vertical +1/-1 steps on Python ints, and the bottom
    cell's value is tracked as the columns advance.  Exact for any m.

    The bottom row changes by at most 1 per column, so after column j
    the final distance is at least ``score - (len(text) - j)``.  Once
    that lower bound reaches `give_up_at`, the scan stops and returns
    None.  A returned distance is always computed in full.
    """
    n = len(text)
    if m == 0:
        return n
    if give_up_at is None:
        give_up_at = m + n + 1  # above any lower bound: never stops
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    # j = -(columns after this one), so before this column the final
    # distance is at least score + j - 1
    for j, ch in enumerate(text, 1 - n):
        if score + j > give_up_at:
            return None
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def levenshtein_ratio(a: str, b: str) -> float:
    """(lensum - lendist) / lensum; 1.0 iff the strings are equal.

    Two empty strings are treated as identical (ratio 1.0).
    """
    lensum = len(a) + len(b)
    if lensum == 0:
        return 1.0
    return (lensum - levenshtein_distance(a, b)) / lensum


def levenshtein_ratio_bound(len_a: int, len_b: int) -> float:
    """Upper bound on the LR of any pair with these lengths.

    The distance is at least |len_a - len_b|, so
    LR <= (lensum - |len_a - len_b|) / lensum.  Used to prune pairwise
    scans; pairs whose bound does not exceed the threshold can be skipped.
    """
    lensum = len_a + len_b
    if lensum == 0:
        return 1.0
    return (lensum - abs(len_a - len_b)) / lensum


def _counts(corpus: Corpus) -> dict[Label, int]:
    counts = {label: 0 for label in LABELS}
    counts.update(corpus.class_counts())
    return counts


def _cutoff_distance(lensum: int, k: float) -> int:
    """Smallest distance d with ``(lensum - d) / lensum <= k``.

    The ratio falls as d grows, so a pair is similar (LR > k) exactly
    when its distance is below this value: the integer test decides
    every pair as ``levenshtein_ratio(a, b) > k`` does.
    """
    if lensum == 0:
        return 0 if k >= 1.0 else 1  # two empty strings have LR 1.0
    # the rounding error of the product is far below 1, so the search
    # starts at or below the answer
    d = max(0, int(lensum * (1.0 - k)) - 1)
    while (lensum - d) / lensum > k:
        d += 1
    return d


class _PairScan:
    """Greedy LR > k tests of texts against growing lists of patterns.

    Each pattern's character masks are built once.  A pair is skipped
    when `levenshtein_ratio_bound` rules it out, stopped early when the
    distance kernel's lower bound does, and otherwise computed in full;
    `log` reports the three counts.
    """

    def __init__(self, k: float):
        self.k = k
        self.patterns: list[tuple[int, dict[str, int]]] = []
        self.skipped = self.stopped = self.computed = 0

    def add(self, pattern: str) -> None:
        self.patterns.append((len(pattern), _char_masks(pattern)))

    def near_any(self, text: str) -> bool:
        """Whether LR(text, p) > k for some pattern p, tried in order."""
        n = len(text)
        for m, masks in self.patterns:
            if levenshtein_ratio_bound(n, m) <= self.k:
                self.skipped += 1
                continue
            give_up_at = _cutoff_distance(n + m, self.k)
            distance = _distance(masks, m, text, give_up_at)
            if distance is None:
                self.stopped += 1
                continue
            self.computed += 1
            if distance < give_up_at:
                return True
        return False

    def log(self, report: SamplingReport, majority: Label) -> None:
        logger.info(
            "%s: majority %d in, %d kept; pairs %d skipped by length bound, "
            "%d stopped early, %d computed in full",
            report.method,
            report.input_counts[majority],
            report.output_counts[majority],
            self.skipped,
            self.stopped,
            self.computed,
        )


def undersample_similar_majority(
    train: Corpus,
    k: "SimilarityThreshold | float",
    majority_label: Label = Label.NON_DEFECT,
) -> tuple[Corpus, SamplingReport]:
    """Drop majority tweets lexically similar to an earlier retained one.

    Majority items are scanned in corpus order; an item is removed when
    its LR to any already-retained majority item exceeds k (greedy
    first-keeper rule, so the earliest of a duplicate group survives).
    Minority items are never touched.
    """
    threshold = _as_threshold(k)
    scan = _PairScan(threshold)
    keep: list[int] = []
    for i, item in enumerate(train):
        if item.label != majority_label:
            keep.append(i)
            continue
        text = item.tweet.text
        if not scan.near_any(text):
            keep.append(i)
            scan.add(text)
    sampled = train.subset(keep)
    report = SamplingReport(
        "similar_majority_undersample",
        _counts(train),
        _counts(sampled),
        {"k": threshold, "majority": majority_label.value},
    )
    scan.log(report, majority_label)
    return sampled, report


def undersample_near_fn(
    train: Corpus,
    fn_minority: Sequence[Tweet],
    k: "SimilarityThreshold | float",
    majority_label: Label = Label.NON_DEFECT,
) -> tuple[Corpus, SamplingReport]:
    """Drop majority tweets lexically similar to any given false negative.

    `fn_minority` holds minority tweets a preliminary run misclassified
    into the majority class; each majority training item is compared to
    every one of them and removed when any LR exceeds k.  An empty
    false-negative set is a warned no-op.
    """
    threshold = _as_threshold(k)
    if not fn_minority:
        logger.warning("empty false-negative set; corpus returned unchanged")
        report = SamplingReport(
            "near_fn_undersample",
            _counts(train),
            _counts(train),
            {"k": threshold, "fn_count": 0, "majority": majority_label.value},
        )
        return train, report
    scan = _PairScan(threshold)
    for tweet in fn_minority:
        scan.add(tweet.text)
    keep = [
        i
        for i, item in enumerate(train)
        if item.label != majority_label or not scan.near_any(item.tweet.text)
    ]
    sampled = train.subset(keep)
    report = SamplingReport(
        "near_fn_undersample",
        _counts(train),
        _counts(sampled),
        {"k": threshold, "fn_count": len(fn_minority), "majority": majority_label.value},
    )
    scan.log(report, majority_label)
    return sampled, report


def undersample_random(
    train: Corpus,
    target_total: int,
    seed: int,
    majority_label: Label = Label.NON_DEFECT,
) -> tuple[Corpus, SamplingReport]:
    """Remove uniformly-chosen majority items until the corpus has
    `target_total` items; minority items are untouched."""
    majority = [i for i, item in enumerate(train) if item.label == majority_label]
    minority_total = len(train) - len(majority)
    if target_total < minority_total:
        raise ValueError(
            f"target_total {target_total} below minority total {minority_total}"
        )
    if target_total > len(train):
        raise ValueError(f"target_total {target_total} above corpus size {len(train)}")
    keep_majority = target_total - minority_total
    pool = list(majority)
    SplitMix64(seed).shuffle(pool)
    kept_majority = set(pool[:keep_majority])
    keep = [
        i
        for i, item in enumerate(train)
        if item.label != majority_label or i in kept_majority
    ]
    sampled = train.subset(keep)
    report = SamplingReport(
        "random_undersample",
        _counts(train),
        _counts(sampled),
        {"seed": seed, "target_total": target_total, "majority": majority_label.value},
    )
    return sampled, report


def oversample_replacement(
    train: Corpus,
    seed: int = 0,
    majority_label: Label = Label.NON_DEFECT,
) -> tuple[Corpus, SamplingReport]:
    """Replicate each minority class floor(N_majority / N_class) times.

    Copies carry derived ids (``origid#2``, ``origid#3``, ...) and follow
    the originals, one full round at a time in corpus order.  The method
    is deterministic; `seed` is recorded for report uniformity only.
    """
    counts = _counts(train)
    n_majority = counts[majority_label]
    if n_majority == 0:
        raise ValueError("majority class is empty")
    factors: dict[Label, int] = {}
    for label in LABELS:
        if label == majority_label:
            factors[label] = 1
        elif counts[label] == 0:
            logger.warning("minority class %s is empty; left empty", label.value)
            factors[label] = 0
        else:
            factors[label] = max(1, n_majority // counts[label])
    items = list(train.items)
    for repeat in range(2, max(factors.values(), default=1) + 1):
        for item in train:
            if factors[item.label] >= repeat:
                tweet = item.tweet
                items.append(
                    type(item)(
                        tweet=type(tweet)(f"{tweet.id}#{repeat}", tweet.user_id, tweet.text),
                        label=item.label,
                        match_span=item.match_span,
                    )
                )
    sampled = Corpus(tuple(items), train.provenance)
    report = SamplingReport(
        "replacement_oversample",
        counts,
        _counts(sampled),
        {
            "seed": seed,
            "majority": majority_label.value,
            "factors": {label.value: factors[label] for label in LABELS if factors[label]},
        },
    )
    return sampled, report


def smote(
    per_class: Mapping[Label, Sequence[SparseVector]],
    k_neighbors: int = 5,
    seed: int = 0,
    majority_label: Label | None = None,
) -> tuple[dict[Label, list[SparseVector]], SamplingReport]:
    """Synthesize minority vectors by interpolating toward near neighbors.

    Every minority vector x spawns floor((N_maj - N_c) / N_c) synthetic
    points, each of the form x + u * (x_nn - x) with u uniform in [0, 1)
    and x_nn one of x's k nearest same-class neighbors (Euclidean).  The
    per-class total therefore lands within one original class size of the
    majority count.  Randomness is partitioned per class so classes can
    be synthesized independently yet reproducibly.
    """
    from .features import interpolate

    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    class_sizes = {label: len(vectors) for label, vectors in per_class.items()}
    if majority_label is None:
        majority_label = max(
            class_sizes, key=lambda lbl: (class_sizes[lbl], -LABELS.index(lbl))
        )
    n_majority = class_sizes[majority_label]
    augmented: dict[Label, list[SparseVector]] = {}
    factors: dict[str, int] = {}
    for class_index, label in enumerate(LABELS):
        if label not in per_class:
            continue
        vectors = list(per_class[label])
        augmented[label] = vectors.copy()
        if label == majority_label:
            continue
        n_class = len(vectors)
        if n_class < 2:
            raise ValueError(
                f"class {label.value} has {n_class} instance(s); need >= 2 for smote"
            )
        per_seed = (n_majority - n_class) // n_class
        factors[label.value] = per_seed
        if per_seed <= 0:
            continue
        kk = min(k_neighbors, n_class - 1)
        neighbor_ids = _nearest_neighbors(vectors, kk)
        rng = SplitMix64(derive_seed(seed, class_index))
        for i, vec in enumerate(vectors):
            for _ in range(per_seed):
                nn = vectors[neighbor_ids[i][rng.below(kk)]]
                augmented[label].append(interpolate(vec, nn, rng.uniform()))
    input_counts = {
        label: class_sizes.get(label, 0) for label in LABELS if label in per_class
    }
    output_counts = {label: len(vecs) for label, vecs in augmented.items()}
    report = SamplingReport(
        "smote",
        input_counts,
        output_counts,
        {
            "seed": seed,
            "k_neighbors": k_neighbors,
            "majority": majority_label.value,
            "per_seed_counts": factors,
        },
    )
    return augmented, report


def _nearest_neighbors(vectors: Sequence[SparseVector], k: int) -> list[list[int]]:
    """Indices of each vector's k nearest same-class neighbors (self excluded).

    Squared distances come from one Gram matrix; ties break by index
    order, keeping the result deterministic.
    """
    import numpy as np

    from .features import CsrMatrix

    x = CsrMatrix.from_rows(vectors)
    norms = x.squared_norms()
    dists = norms[:, None] + norms[None, :] - 2.0 * x.matmul(x.transpose())
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")[:, :k].tolist()
