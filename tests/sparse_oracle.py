"""List-based sparse vectors: the test oracle for `CsrMatrix` code.

`SparseVector` is one row as sorted (index, value) tuples, with
per-row validation and pure-Python arithmetic.  `from_rows` and
`to_rows` convert between such rows and a `CsrMatrix`.  `vectorize`,
`interpolate` and `smote` are the list-based forms of the library's
vectorizer and SMOTE, kept to check the array code against.
`smote_by_class` runs the library's `smote` on per-class lists of rows
and splits its output back by class.  `featurize_corpus` is the
per-document form of the library's one-pass featurizer: a `Counter` per
document, the vocabulary built over them, and one `vectorize` row per
document joined by `CsrMatrix.stack`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from rareclass import features, sampling
from rareclass.corpus import Corpus, Label, LABELS
from rareclass.features import (
    STRUCT_CHAR_LENGTH,
    STRUCT_WORD_LENGTH,
    CsrMatrix,
    FeatureSettings,
    Vocabulary,
)
from rareclass.normalize import NameLexicon, NormalizationConfig, classic_normalize
from rareclass.rng import SplitMix64, derive_seed
from rareclass.sampling import SamplingReport


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, value) pairs over a fixed dimension.

    Indices are strictly increasing and in range; values are finite and
    non-zero (zeros are dropped at construction via `from_pairs`).
    """

    indices: tuple[int, ...]
    values: tuple[float, ...]
    dim: int

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing")
            prev = i
        if prev >= self.dim:
            raise ValueError("index out of range for dimension")
        if self.indices and self.indices[0] < 0:
            raise ValueError("negative index")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError("values must be finite")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]], dim: int) -> "SparseVector":
        kept = sorted((i, float(v)) for i, v in pairs if v != 0.0)
        return cls(tuple(i for i, _ in kept), tuple(v for _, v in kept), dim)

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self.indices, self.values))

    def dot(self, other: "SparseVector") -> float:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        total = 0.0
        i = j = 0
        a_idx, a_val = self.indices, self.values
        b_idx, b_val = other.indices, other.values
        while i < len(a_idx) and j < len(b_idx):
            ai, bj = a_idx[i], b_idx[j]
            if ai == bj:
                total += a_val[i] * b_val[j]
                i += 1
                j += 1
            elif ai < bj:
                i += 1
            else:
                j += 1
        return total

    def squared_norm(self) -> float:
        return sum(v * v for v in self.values)

    def squared_distance(self, other: "SparseVector") -> float:
        return self.squared_norm() + other.squared_norm() - 2.0 * self.dot(other)


def from_rows(rows: Sequence[SparseVector], dim: int | None = None) -> CsrMatrix:
    """The rows as one matrix; `dim` must be given for zero rows."""
    if dim is None:
        if not rows:
            raise ValueError("the dimension of zero rows must be given")
        dim = rows[0].dim
    if any(row.dim != dim for row in rows):
        raise ValueError("dimension mismatch")
    indptr = np.cumsum([0] + [len(row.indices) for row in rows]).astype(np.intp)
    indices = np.fromiter(chain.from_iterable(row.indices for row in rows), np.intp, indptr[-1])
    data = np.fromiter(chain.from_iterable(row.values for row in rows), float, indptr[-1])
    return CsrMatrix(indptr, indices, data, dim)


def to_rows(x: CsrMatrix) -> list[SparseVector]:
    """The rows of `x`, each validated as a `SparseVector`."""
    bounds, indices, values = x.indptr.tolist(), x.indices.tolist(), x.data.tolist()
    return [
        SparseVector(tuple(indices[lo:hi]), tuple(values[lo:hi]), x.dim)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def interpolate(a: SparseVector, b: SparseVector, fraction: float) -> SparseVector:
    """Point on the segment from `a` to `b`: a + fraction * (b - a)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    merged = a.to_dict()
    for i, v in zip(b.indices, b.values):
        merged[i] = merged.get(i, 0.0) + fraction * v
    for i, v in zip(a.indices, a.values):
        merged[i] = merged.get(i, 0.0) - fraction * v
    return SparseVector.from_pairs(merged.items(), a.dim)


def vectorize(
    doc_features: Mapping[str, int],
    structural: tuple[int, int] | None,
    vocab: Vocabulary,
    binary: bool = True,
) -> SparseVector:
    """One document's row, as the library's `vectorize` computes it."""
    pairs: list[tuple[int, float]] = []
    for name, count in doc_features.items():
        col = vocab.index_of(name)
        if col is not None:
            pairs.append((col, 1.0 if binary else float(count)))
    if structural is not None:
        chars, words = structural
        for name, value in ((STRUCT_CHAR_LENGTH, chars), (STRUCT_WORD_LENGTH, words)):
            col = vocab.index_of(name)
            if col is not None:
                pairs.append((col, float(value)))
    return SparseVector.from_pairs(pairs, vocab.dim)


def _nearest_neighbors(vectors: Sequence[SparseVector], k: int) -> list[list[int]]:
    x = from_rows(vectors)
    norms = x.squared_norms()
    dists = norms[:, None] + norms[None, :] - 2.0 * x.matmul(x.transpose())
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")[:, :k].tolist()


def smote(
    per_class: Mapping[Label, Sequence[SparseVector]],
    k_neighbors: int = 5,
    seed: int = 0,
) -> tuple[dict[Label, list[SparseVector]], SamplingReport]:
    """SMOTE on per-class lists of rows, one `interpolate` per synthetic row."""
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    class_sizes = {label: len(vectors) for label, vectors in per_class.items()}
    majority_label = max(class_sizes, key=lambda lbl: (class_sizes[lbl], -LABELS.index(lbl)))
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


def smote_by_class(
    per_class: Mapping[Label, Sequence[SparseVector]], **kwargs
) -> tuple[dict[Label, list[SparseVector]], SamplingReport]:
    """The library's `smote` on per-class lists of rows, in the oracle's
    output form: the output rows split back by class."""
    rows = [row for vectors in per_class.values() for row in vectors]
    labels = [label for label, vectors in per_class.items() for _ in vectors]
    x, report = sampling.smote(from_rows(rows), labels, **kwargs)
    out = to_rows(x)
    augmented: dict[Label, list[SparseVector]] = {}
    start = 0
    for label, count in report.output_counts.items():
        augmented[label] = out[start : start + count]
        start += count
    return augmented, report


def document_features(
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
) -> Iterator[tuple[Counter, tuple[int, int] | None]]:
    """Per document, its feature multiset and structural counts."""
    for item in corpus:
        tokens = classic_normalize(item.tweet, item.match_span, names, norm_config)
        feats = features.extract_ngrams(tokens, settings.n_min, settings.n_max)
        if settings.use_clusters and clusters is not None:
            feats.update(features.cluster_features(tokens, clusters))
        structural = features.structural_features(item.tweet.text)
        yield feats, structural if settings.use_structural else None


def featurize_corpus(
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
    vocab: Vocabulary | None = None,
) -> tuple[CsrMatrix, Vocabulary]:
    """The corpus's matrix and vocabulary, one `vectorize` row per document;
    every document's `Counter` is held until the vocabulary is built."""
    docs = list(document_features(corpus, names, clusters, norm_config, settings))
    if vocab is None:
        vocab = features.build_vocabulary(
            [feats for feats, _ in docs], settings.min_df,
            include_structural=settings.use_structural,
        )
    rows = [
        features.vectorize(feats, structural, vocab, binary=settings.binary)
        for feats, structural in docs
    ]
    return CsrMatrix.stack(rows, vocab.dim), vocab
