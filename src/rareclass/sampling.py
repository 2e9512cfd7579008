"""Data-level class-imbalance treatments.

Four text-level samplers operate on corpora before vectorization:
similarity-based removal of near-duplicate majority tweets, removal of
majority tweets near known false negatives, random under-sampling to a
target size, and minority over-sampling by whole-copy replication.  For
all four the majority is ``non_defect``, the class the paper thins.  The
fifth treatment, synthetic minority over-sampling (SMOTE), operates on
the feature matrix (a `CsrMatrix`) after vectorization and computes all
of its synthetic rows as one array operation.

Lexical similarity uses the Levenshtein ratio
LR = (lensum - lendist) / lensum over Unicode scalars, in [0, 1].
The edit distance is exact and bit-parallel (Myers 1999, in Hyyrö's
2001 form for edit distance), one pass over one string with the other
held as per-character bitmasks.  The two similarity samplers take k in
(0, 1] as a float and turn it into an integer cutoff distance per length
sum.  Before the kernel runs, a pair is pruned when an exact lower bound
on its distance reaches the cutoff: the length difference, the
characters the two texts do not share, or the bigram count filter.  The
kernel then runs on the pairs left, the most alike first, and stops as
soon as the distance is sure to be too large for LR > k.  Their
decisions equal ``levenshtein_ratio(a, b) > k`` pair for pair, and each
logs where its pairs were decided at INFO.  Every sampler is
deterministic given its inputs and seed and returns a `SamplingReport`
describing what it did.

Only `smote` uses numpy and `CsrMatrix`; it imports them when it runs,
so the text samplers load without numpy.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import TYPE_CHECKING, Sequence

from .corpus import Corpus, Label, LABELS, Tweet
from .rng import SplitMix64, derive_seed

if TYPE_CHECKING:
    from .features import CsrMatrix

logger = logging.getLogger(__name__)


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


class _MultisetBits:
    """Multisets as ints with one bit per copy of a key, so the size of an
    intersection is the bit count of an ``&``.  Bits are given out as
    patterns are added; copies in a text that no pattern holds get none,
    since they cannot be shared."""

    def __init__(self):
        self.copies: dict[str, list[int]] = {}  # copies[key][j]: the bits of the first j
        self.size = 0

    def add(self, counts: Counter) -> int:
        bits = 0
        for key, count in counts.items():
            copies = self.copies.setdefault(key, [0])
            for _ in range(count + 1 - len(copies)):
                copies.append(copies[-1] | 1 << self.size)
                self.size += 1
            bits |= copies[count]
        return bits

    def bits(self, counts: Counter) -> int:
        bits = 0
        for key, count in counts.items():
            copies = self.copies.get(key)
            if copies:
                bits |= copies[count] if count < len(copies) else copies[-1]
        return bits


def _bigrams(text: str) -> Counter:
    return Counter(map(add, text, text[1:]))


class _PairScan:
    """Greedy LR > k tests of texts against a growing set of patterns.

    A pair of lengths n and m is similar when its distance is below the
    cutoff distance of n + m.  Each text first drops the patterns that
    exact lower bounds on that distance rule out, in this order:
    - the length difference ``|n - m|``;
    - ``max(n, m)`` minus the characters shared (as multisets), since
      each aligned pair left unedited shares one;
    - ``(max(n, m) - shared bigrams) // 2``, the bigram count filter
      (Ukkonen, TCS 92(1), 1992; Gravano et al., VLDB 2001): within
      distance d two strings share at least ``max(n, m) - 1 - 2d``
      bigrams.  It can prune only where ``max(n, m) >= 2 * cutoff``.
    Patterns are grouped by length, with their character and bigram
    counts held as `_MultisetBits`.  The kernel then runs on the
    survivors in ascending order of their character bound, so a near
    text tends to meet its neighbour first; the answer is the same in
    any order.  `log` reports where each pair was decided.
    """

    def __init__(self, k: float):
        self.k = float(k)
        if not 0.0 < self.k <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        # by pattern length: character bitsets, bigram bitsets, patterns
        self.groups: dict[int, tuple[list[int], list[int], list[str]]] = {}
        self.chars, self.bigrams = _MultisetBits(), _MultisetBits()
        self.masks: dict[str, dict[str, int]] = {}  # kernel masks, built on first use
        self.cutoffs: dict[int, int] = {}  # by length sum
        self.pairs = self.by_length = self.by_chars = self.by_bigrams = 0
        self.stopped = self.computed = self.unrun = self.size = 0

    def _cutoff(self, lensum: int) -> int:
        cutoff = self.cutoffs.get(lensum)
        if cutoff is None:
            cutoff = self.cutoffs[lensum] = _cutoff_distance(lensum, self.k)
        return cutoff

    def add(self, pattern: str) -> None:
        m = len(pattern)
        chars, bigrams, patterns = self.groups.setdefault(m, ([], [], []))
        chars.append(self.chars.add(Counter(pattern)))
        bigrams.append(self.bigrams.add(_bigrams(pattern)))
        patterns.append(pattern)
        self.size += 1

    def near_any(self, text: str) -> bool:
        """Whether LR(text, p) > k for some pattern p."""
        n = len(text)
        self.pairs += self.size
        chars = self.chars.bits(Counter(text))
        bigrams = None  # built when first needed
        survivors = []  # (character bound, pattern, cutoff)
        for m, (char_sets, bigram_sets, patterns) in self.groups.items():
            cutoff = self._cutoff(n + m)
            if abs(n - m) >= cutoff:
                self.by_length += len(patterns)
                continue
            longer = max(n, m)
            # a pattern is kept while each bound stays below the cutoff
            shared = list(map(int.bit_count, map(chars.__and__, char_sets)))
            hits = [i for i, s in enumerate(shared) if longer - s < cutoff]
            self.by_chars += len(patterns) - len(hits)
            if hits and longer >= 2 * cutoff:
                if bigrams is None:
                    bigrams = self.bigrams.bits(_bigrams(text))
                count = len(hits)
                hits = [
                    i for i in hits if longer - (bigrams & bigram_sets[i]).bit_count() < 2 * cutoff
                ]
                self.by_bigrams += count - len(hits)
            survivors.extend((longer - shared[i], patterns[i], cutoff) for i in hits)
        survivors.sort(key=itemgetter(0))
        for rank, (_, pattern, cutoff) in enumerate(survivors, 1):
            masks = self.masks.get(pattern)
            if masks is None:
                masks = self.masks[pattern] = _char_masks(pattern)
            distance = _distance(masks, len(pattern), text, cutoff)
            if distance is None:
                self.stopped += 1
            else:
                self.computed += 1
                if distance < cutoff:
                    self.unrun += len(survivors) - rank
                    return True
        return False

    def log(self, report: SamplingReport) -> None:
        logger.info(
            "%s: majority %d in, %d kept; pairs %d considered: %d pruned by length, "
            "%d by character counts, %d by bigram counts, %d stopped early, "
            "%d computed in full, %d not run after a match",
            report.method,
            report.input_counts[Label.NON_DEFECT],
            report.output_counts[Label.NON_DEFECT],
            self.pairs,
            self.by_length,
            self.by_chars,
            self.by_bigrams,
            self.stopped,
            self.computed,
            self.unrun,
        )


def undersample_similar_majority(train: Corpus, k: float) -> tuple[Corpus, SamplingReport]:
    """Drop majority tweets lexically similar to an earlier retained one.

    Majority (``non_defect``) items are scanned in corpus order; an item
    is removed when its LR to any already-retained majority item exceeds
    k, for k in (0, 1] (greedy first-keeper rule, so the earliest of a
    duplicate group survives).  Minority items are never touched.
    """
    scan = _PairScan(k)
    keep: list[int] = []
    for i, item in enumerate(train):
        if item.label != Label.NON_DEFECT:
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
        {"k": scan.k, "majority": Label.NON_DEFECT.value},
    )
    scan.log(report)
    return sampled, report


def undersample_near_fn(
    train: Corpus, fn_minority: Sequence[Tweet], k: float
) -> tuple[Corpus, SamplingReport]:
    """Drop majority tweets lexically similar to any given false negative.

    `fn_minority` holds minority tweets a preliminary run misclassified
    into the majority (``non_defect``) class; each majority training item
    is compared to every distinct one of them and removed when any LR
    exceeds k, for k in (0, 1].  An empty false-negative set is a warned
    no-op.
    """
    scan = _PairScan(k)
    parameters = {"k": scan.k, "fn_count": len(fn_minority), "majority": Label.NON_DEFECT.value}
    if not fn_minority:
        logger.warning("empty false-negative set; corpus returned unchanged")
        return train, SamplingReport("near_fn_undersample", _counts(train), _counts(train), parameters)
    for text in dict.fromkeys(tweet.text for tweet in fn_minority):
        scan.add(text)
    keep = [
        i
        for i, item in enumerate(train)
        if item.label != Label.NON_DEFECT or not scan.near_any(item.tweet.text)
    ]
    sampled = train.subset(keep)
    report = SamplingReport("near_fn_undersample", _counts(train), _counts(sampled), parameters)
    scan.log(report)
    return sampled, report


def undersample_random(
    train: Corpus, target_total: int, seed: int
) -> tuple[Corpus, SamplingReport]:
    """Remove uniformly-chosen majority (``non_defect``) items until the
    corpus has `target_total` items; minority items are untouched."""
    majority = [i for i, item in enumerate(train) if item.label == Label.NON_DEFECT]
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
        if item.label != Label.NON_DEFECT or i in kept_majority
    ]
    sampled = train.subset(keep)
    report = SamplingReport(
        "random_undersample",
        _counts(train),
        _counts(sampled),
        {"seed": seed, "target_total": target_total, "majority": Label.NON_DEFECT.value},
    )
    return sampled, report


def oversample_replacement(train: Corpus, seed: int = 0) -> tuple[Corpus, SamplingReport]:
    """Replicate each minority class floor(N_majority / N_class) times,
    the majority being ``non_defect``.

    Copies carry derived ids (``origid#2``, ``origid#3``, ...) and follow
    the originals, one full round at a time in corpus order.  The method
    is deterministic; `seed` is recorded for report uniformity only.
    """
    counts = _counts(train)
    n_majority = counts[Label.NON_DEFECT]
    if n_majority == 0:
        raise ValueError("majority class is empty")
    factors: dict[Label, int] = {}
    for label in LABELS:
        if label == Label.NON_DEFECT:
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
            "majority": Label.NON_DEFECT.value,
            "factors": {label.value: factors[label] for label in LABELS if factors[label]},
        },
    )
    return sampled, report


def smote(
    x: CsrMatrix,
    labels: Sequence[Label],
    k_neighbors: int = 5,
    seed: int = 0,
) -> tuple[CsrMatrix, SamplingReport]:
    """Synthesize minority rows by interpolating toward near neighbors.

    `labels` gives the class of each row of `x`.  Every minority row a
    spawns floor((N_maj - N_c) / N_c) synthetic rows, each of the form
    a + u * (b - a), computed as (a + u * b) - u * a with zeros dropped,
    where u is uniform in [0, 1) and b is one of a's k nearest
    same-class neighbors (Euclidean).  The per-class total therefore
    lands within one original class size of the majority count.
    The majority is the largest class, the earlier in `LABELS` on a tie.
    Randomness is partitioned per class so classes can be synthesized
    independently yet reproducibly.

    The result holds the rows grouped by class in `LABELS` order: within
    a class, the original rows in input order, then the synthetic rows
    in the order of their seed rows.  The report's ``output_counts``
    give the size of each group, in the same order.
    """
    import numpy as np

    from .features import CsrMatrix

    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    if len(labels) != x.n_rows:
        raise ValueError("rows and labels must align")
    members = {label: [] for label in LABELS}
    for row, label in enumerate(labels):
        members[label].append(row)
    # in LABELS order, like every dict of the report
    class_sizes = {label: len(rows) for label, rows in members.items() if rows}
    majority_label = max(class_sizes, key=lambda lbl: (class_sizes[lbl], -LABELS.index(lbl)))
    n_majority = class_sizes[majority_label]
    order: list[int] = []  # the output, as rows of x stacked on the synthetic rows
    # per synthetic row: its seed row, its neighbor row and u
    seeds, neighbors, fractions = [], [], []
    output_counts: dict[Label, int] = {}
    factors: dict[str, int] = {}
    for class_index, label in enumerate(LABELS):
        if label not in class_sizes:
            continue
        rows = members[label]
        order.extend(rows)
        output_counts[label] = n_class = len(rows)
        if label == majority_label:
            continue
        if n_class < 2:
            raise ValueError(
                f"class {label.value} has {n_class} instance(s); need >= 2 for smote"
            )
        per_seed = (n_majority - n_class) // n_class
        factors[label.value] = per_seed
        if per_seed <= 0:
            continue
        kk = min(k_neighbors, n_class - 1)
        neighbor_ids = _nearest_neighbors(x.take(np.array(rows)), kk)
        rng = SplitMix64(derive_seed(seed, class_index))
        first = x.n_rows + len(seeds)
        for row, near in zip(rows, neighbor_ids):
            for _ in range(per_seed):
                seeds.append(row)
                neighbors.append(rows[near[rng.below(kk)]])
                fractions.append(rng.uniform())
        order.extend(range(first, x.n_rows + len(seeds)))
        output_counts[label] += n_class * per_seed
    synthetic = _segment_points(x, seeds, neighbors, fractions)
    report = SamplingReport(
        "smote",
        class_sizes,
        output_counts,
        {
            "seed": seed,
            "k_neighbors": k_neighbors,
            "majority": majority_label.value,
            "per_seed_counts": factors,
        },
    )
    return CsrMatrix.stack([x, synthetic], x.dim).take(np.array(order, np.intp)), report


def _segment_points(
    x: CsrMatrix, seeds: list[int], neighbors: list[int], fractions: list[float]
) -> CsrMatrix:
    """Row r is (a + u * b) - u * a for a = x[seeds[r]], b = x[neighbors[r]]
    and u = fractions[r], over the union of a's and b's columns with an
    absent entry read as 0.0; zeros are dropped."""
    import numpy as np

    from .features import CsrMatrix, _indptr

    a, b = x.take(np.array(seeds, np.intp)), x.take(np.array(neighbors, np.intp))
    # entry keys row * dim + column
    a_keys = a.row_ids() * x.dim + a.indices
    b_keys = b.row_ids() * x.dim + b.indices
    # their union; np.union1d would import numpy.ma, about 10 ms, on first use
    keys = np.sort(np.concatenate([a_keys, b_keys]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    a_values, b_values = np.zeros(len(keys)), np.zeros(len(keys))
    a_values[np.searchsorted(keys, a_keys)] = a.data
    b_values[np.searchsorted(keys, b_keys)] = b.data
    rows = keys // x.dim
    u = np.array(fractions)[rows]
    values = (a_values + u * b_values) - u * a_values
    kept = values != 0.0
    indptr = _indptr(np.bincount(rows[kept], minlength=len(seeds)))
    return CsrMatrix(indptr, keys[kept] % x.dim, values[kept], x.dim)


def _nearest_neighbors(x: CsrMatrix, k: int) -> list[list[int]]:
    """Per row of `x`, the rows of its k nearest neighbors (self excluded).

    Squared distances come from one Gram matrix; ties break by index
    order, keeping the result deterministic.
    """
    import numpy as np

    norms = x.squared_norms()
    dists = norms[:, None] + norms[None, :] - 2.0 * x.matmul(x.transpose())
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")[:, :k].tolist()
