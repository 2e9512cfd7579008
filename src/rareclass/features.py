"""Sparse feature engineering: the sparse matrix, word-cluster files,
structural features, vocabulary construction, min-max scaling, and
information-gain ranking.

Every sparse vector is a `CsrMatrix`: numpy ``indptr``/``indices``/``data``
arrays over a fixed dimension.  A corpus becomes one matrix from its token
ids (`pipeline.featurize_corpus`, through `CsrMatrix.from_entries`),
validated once; no step runs the per-document `build_vocabulary` and
`vectorize` here.  SMOTE, scaling, information gain and the classifiers'
training and prediction work on that matrix.  `CsrMatrix.split_at` and the
in-place form of `CsrMatrix.matmul` let the SVM add the products of dense
columns as vectors while keeping `matmul`'s order of terms.

Vocabularies and scalers are built from training data only.  Their fields
are frozen; a scaler's arrays are stored as computed, not copied.
`unscale` is `apply_scaler`'s exact inverse on the matrices it makes, and
both fill a row's missing cells by one rule (`_lacking`).  Feature
names are namespaced by kind: an n-gram is named by its tokens joined by
single spaces, a word-cluster feature by ``cluster:<path>`` (counted once
per token that the cluster map puts on that path), and the two structural
columns by ``struct:*``.  Word clusters are a plain token to cluster-path dict, as
`load_clusters` returns it.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Label, LABELS
from .errors import DataError, read_lines

logger = logging.getLogger(__name__)

CLUSTER_PREFIX = "cluster:"
STRUCT_CHAR_LENGTH = "struct:char_length"
STRUCT_WORD_LENGTH = "struct:word_length"
STRUCTURAL_FEATURES = (STRUCT_CHAR_LENGTH, STRUCT_WORD_LENGTH)

KIND_NGRAM = "ngram"
KIND_CLUSTER = "cluster"
KIND_STRUCTURAL = "structural"


def feature_kind(name: str) -> str:
    if name.startswith(CLUSTER_PREFIX):
        return KIND_CLUSTER
    if name in STRUCTURAL_FEATURES:
        return KIND_STRUCTURAL
    return KIND_NGRAM


def _indptr(lengths: np.ndarray) -> np.ndarray:
    """Row pointers of rows with the given entry counts."""
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` for every (s, n) pair."""
    ends = np.cumsum(lengths)
    out = np.repeat(starts - ends + lengths, lengths)
    out += np.arange(len(out))
    return out


class ArrayRecord:
    """Value equality for the frozen dataclasses, declared with ``eq=False``,
    whose fields hold numpy arrays: arrays compare by `np.array_equal`, other
    fields by ``==``."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass(frozen=True, eq=False)
class CsrMatrix(ArrayRecord):
    """Compressed sparse rows over a fixed dimension (numpy arrays only).

    Row r holds columns ``indices[indptr[r]:indptr[r + 1]]``, strictly
    increasing, with values ``data[...]`` at the same positions.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    @classmethod
    def from_arrays(cls, indptr, indices, data, dim: int) -> "CsrMatrix":
        """Validated matrix from untrusted arrays; raises ValueError."""
        x = cls(
            np.asarray(indptr, np.intp), np.asarray(indices, np.intp), np.asarray(data, float), dim
        )
        lengths = np.diff(x.indptr)
        if not (len(x.indptr) and x.indptr[0] == 0 and (lengths >= 0).all()
                and x.indptr[-1] == len(x.indices) == len(x.data)):
            raise ValueError("row pointers do not match the entries")
        # a column may not exceed the next one in its row; a row's first may not be < 0
        bound = np.append(x.indices[1:], dim)
        bound[x.indptr[1:][lengths > 0] - 1] = dim
        first = x.indices[x.indptr[:-1][lengths > 0]]
        if (x.indices >= bound).any() or (first < 0).any() or not np.isfinite(x.data).all():
            raise ValueError("column indices out of order or range, or values not finite")
        return x

    @classmethod
    def from_entries(cls, keys, values, n_rows: int, dim: int) -> "CsrMatrix":
        """Validated matrix of `values` at keys ``row * dim + column``, in any order."""
        order = np.argsort(keys, kind="stable")
        rows, columns = np.divmod(keys[order], dim)
        values = values[order].astype(float)
        del order  # freed before validation
        return cls.from_arrays(_indptr(np.bincount(rows, minlength=n_rows)), columns, values, dim)

    @classmethod
    def stack(cls, blocks: Sequence["CsrMatrix"], dim: int) -> "CsrMatrix":
        """The rows of `blocks`, one block after another, validated as
        `from_arrays` validates them."""
        if any(block.dim != dim for block in blocks):
            raise ValueError("dimension mismatch")
        none = np.zeros(0, np.intp)  # so that zero blocks concatenate
        # each block's row ends, shifted by the entries of the blocks before it
        ends = np.concatenate([none] + [block.indptr[1:] for block in blocks])
        shifts = np.cumsum([0] + [len(block.indices) for block in blocks])[:-1]
        ends += np.repeat(shifts, [block.n_rows for block in blocks])
        return cls.from_arrays(
            np.concatenate(([0], ends)),
            np.concatenate([none] + [block.indices for block in blocks]),
            np.concatenate([none] + [block.data for block in blocks]),
            dim,
        )

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def rows(self, start: int, stop: int) -> "CsrMatrix":
        """Rows start..stop-1 as a matrix sharing this one's arrays."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrMatrix(
            self.indptr[start : stop + 1] - lo, self.indices[lo:hi], self.data[lo:hi], self.dim
        )

    def take(self, rows: np.ndarray) -> "CsrMatrix":
        """The given rows, in the given order."""
        lengths = np.diff(self.indptr)[rows]
        pos = _ranges(self.indptr[rows], lengths)
        return CsrMatrix(_indptr(lengths), self.indices[pos], self.data[pos], self.dim)

    def transpose(self) -> "CsrMatrix":
        """The transpose, whose rows list their entries in increasing row order."""
        order = np.argsort(self.indices, kind="stable")
        indptr = _indptr(np.bincount(self.indices, minlength=self.dim))
        return CsrMatrix(indptr, self.row_ids()[order], self.data[order], self.n_rows)

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of `values` (one per stored entry) in column order."""
        return np.bincount(self.row_ids(), values, minlength=self.n_rows)

    def squared_norms(self) -> np.ndarray:
        return self.row_sums(self.data * self.data)

    def dot(self, dense: np.ndarray) -> np.ndarray:
        """Dense ``self @ dense`` for a (dim, k) array."""
        products = self.data * dense[self.indices].T
        return np.column_stack([self.row_sums(column) for column in products])

    def split_at(self, columns: np.ndarray) -> tuple[list["CsrMatrix"], np.ndarray]:
        """The entries in `columns` (increasing) as an (n_rows, len(columns))
        array, 0.0 where unset, and the other entries as the runs between
        those columns: before the first, between each two, after the last.
        Each run is a matrix over the same rows and dimension."""
        run = np.searchsorted(columns, self.indices)  # how many of `columns` lie below
        rows = self.row_ids()
        at = np.isin(self.indices, columns)
        values = np.zeros((self.n_rows, len(columns)))
        values[rows[at], run[at]] = self.data[at]
        run[at] = -1
        runs = []
        for r in range(len(columns) + 1):
            in_run = run == r
            indptr = _indptr(np.bincount(rows[in_run], minlength=self.n_rows))
            runs.append(CsrMatrix(indptr, self.indices[in_run], self.data[in_run], self.dim))
        return runs, values

    def matmul(self, other: "CsrMatrix", out: np.ndarray | None = None) -> np.ndarray:
        """Dense ``self @ other`` for a sparse `other` with `dim` rows.

        Pass ``y.transpose()`` as `other` for the dot products of every
        row of self with every row of y.  Each entry is summed term by
        term in increasing order of the shared index, starting at +0.0,
        so the result does not depend on how many rows are multiplied at
        once.  With `out`, a C-ordered float array of the result's shape,
        the terms are added to `out` in place, in the same order, and
        `out` is returned.
        """
        if other.n_rows != self.dim:
            raise ValueError("dimension mismatch")
        starts = other.indptr[self.indices]
        lengths = other.indptr[self.indices + 1] - starts
        pos = _ranges(starts, lengths)
        cells = other.indices[pos]
        if self.n_rows > 1:
            cells += np.repeat(self.row_ids() * other.dim, lengths)
        products = np.repeat(self.data, lengths)
        products *= other.data[pos]
        if out is not None:
            np.add.at(out.reshape(-1), cells, products)
            return out
        size = self.n_rows * other.dim
        # with no terms, bincount ignores the weights and returns int64
        dots = np.bincount(cells, products, minlength=size).astype(np.float64, copy=False)
        return dots.reshape(self.n_rows, other.dim)


@dataclass(frozen=True)
class Vocabulary:
    """Feature-name-to-column map: the names are the whole record.  Each
    column's kind is derived from its name by `feature_kind`, and the
    `min_df` that chose the names is `FeatureSettings.min_df`."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(self.names)}
        )
        if len(self._index) != len(self.names):
            raise ValueError("duplicate feature names")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int | None:
        return self._index.get(name)


@dataclass(frozen=True)
class FeatureSettings:
    """How documents become feature rows: the config's ``features.*`` keys,
    saved with every model and features file."""

    n_min: int = 1
    n_max: int = 3
    min_df: int = 2
    binary: bool = True
    use_clusters: bool = True
    use_structural: bool = True


def load_clusters(path: str | Path) -> dict[str, str]:
    """Read a cluster file of ``bitstring<TAB>token<TAB>count`` lines into a
    token to hierarchical-cluster-path map (paths are 0/1 strings).

    A token repeated on a later line overwrites the earlier entry, with a
    warning.  An empty file yields an empty map (cluster features are then
    simply absent).
    """
    path = Path(path)
    mapping: dict[str, str] = {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise DataError(f"{path}: expected 3 columns at line {lineno}")
        bits, token, count = fields
        if not bits or any(ch not in "01" for ch in bits):
            raise DataError(f"{path}: bad cluster path {bits!r} at line {lineno}")
        try:
            int(count)
        except ValueError:
            raise DataError(f"{path}: non-integer count at line {lineno}") from None
        if token in mapping:
            logger.warning("cluster file %s: token %r redefined at line %d", path, token, lineno)
        mapping[token] = bits
    return mapping


def structural_features(raw_text: str) -> tuple[int, int]:
    """(character count, whitespace-delimited word count) of the raw text."""
    return len(raw_text), len(raw_text.split())


def build_vocabulary(
    train_docs: Iterable[Mapping[str, int]],
    min_df: int = 2,
    include_structural: bool = False,
) -> Vocabulary:
    """Keep features appearing in at least `min_df` distinct documents.

    Column indices follow lexicographic feature-name order, so identical
    corpora always produce identical vocabularies.  The two structural
    columns, when requested, are always included.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df: Counter = Counter()
    for doc in train_docs:
        df.update(set(doc))
    names = {name for name, count in df.items() if count >= min_df}
    if include_structural:
        names.update(STRUCTURAL_FEATURES)
    return Vocabulary(tuple(sorted(names)))


def vectorize(
    doc_features: Mapping[str, int],
    structural: tuple[int, int] | None,
    vocab: Vocabulary,
    binary: bool = True,
) -> CsrMatrix:
    """Map one document's features into a one-row matrix over the vocabulary.

    N-gram and cluster columns get 1.0 (binary mode, the default) or the
    occurrence count; structural columns always carry their raw counts.
    Features absent from the vocabulary and zero values are dropped.  This
    unvalidated per-document form is kept for library callers.
    """
    index = vocab._index
    pairs = [
        (index[name], 1.0 if binary else float(count))
        for name, count in doc_features.items()
        if name in index
    ]
    if structural is not None:
        chars, words = structural
        for name, value in ((STRUCT_CHAR_LENGTH, chars), (STRUCT_WORD_LENGTH, words)):
            col = vocab.index_of(name)
            if col is not None:
                pairs.append((col, float(value)))
    pairs.sort()
    pairs = [pair for pair in pairs if pair[1] != 0.0]
    return CsrMatrix(
        np.array((0, len(pairs)), np.intp),
        np.array([col for col, _ in pairs], np.intp),
        np.array([value for _, value in pairs], float),
        vocab.dim,
    )


@dataclass(frozen=True, eq=False)
class Scaler(ArrayRecord):
    """Per-column (min, max) learned from training vectors only: `mins`
    and `maxs` are float arrays of one value per column."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mins)


def fit_scaler(train: CsrMatrix) -> Scaler:
    """Column ranges over the training rows, implicit zeros included."""
    if not train.n_rows:
        raise ValueError("cannot fit a scaler on zero vectors")
    mins = np.full(train.dim, math.inf)
    maxs = np.full(train.dim, -math.inf)
    np.minimum.at(mins, train.indices, train.data)
    np.maximum.at(maxs, train.indices, train.data)
    # columns with at least one implicit zero
    implicit = np.bincount(train.indices, minlength=train.dim) < train.n_rows
    mins[implicit] = np.minimum(mins[implicit], 0.0)
    maxs[implicit] = np.maximum(maxs[implicit], 0.0)
    return Scaler(mins, maxs)


def _lacking(x: CsrMatrix, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and column of each cell of `columns` (increasing) where `x`
    has no entry, in row order; the fill rule of `apply_scaler` and
    `unscale`.  `np.unique` and `np.isin` would load numpy.ma."""
    slot = np.full(x.dim, len(columns))
    slot[columns] = np.arange(len(columns))
    present = np.zeros((x.n_rows, len(columns) + 1), bool)  # one more column for the rest
    present[x.row_ids(), slot[x.indices]] = True
    rows, at = np.nonzero(~present[:, :-1])
    return rows, columns[at]


def apply_scaler(scaler: Scaler, x: CsrMatrix) -> CsrMatrix:
    """Map column value v to (v - min) / (max - min); constant columns to 0.

    Values outside the training range are not clamped.  Columns whose
    training minimum is non-zero produce entries even where the input had
    an implicit zero.  Entries that scale to zero are dropped.
    """
    if x.dim != scaler.dim:
        raise ValueError("dimension mismatch")
    lo = scaler.mins
    span = scaler.maxs - lo
    active = span > 0.0
    filled = np.flatnonzero(active & (lo != 0.0))
    keep = active[x.indices]
    # entry keys row * dim + column, increasing; there is no zero to fill
    # when each row has every filled column
    keys, values = (x.row_ids() * x.dim + x.indices)[keep], x.data[keep]
    if (np.bincount(x.indices, minlength=x.dim)[filled] < x.n_rows).any():
        rows, columns = _lacking(x, filled)
        keys = np.concatenate([keys, rows * x.dim + columns])
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], np.concatenate([values, np.zeros(len(rows))])[order]
    cols = keys % x.dim
    scaled = (values - lo[cols]) / span[cols]
    nonzero = scaled != 0.0
    indptr = _indptr(np.bincount(keys[nonzero] // x.dim, minlength=x.n_rows))
    return CsrMatrix(indptr, cols[nonzero], scaled[nonzero], x.dim)


# how many ulps either side of v * span + min `unscale` tries
_ULPS = 4


def unscale(scaler: Scaler, x: CsrMatrix) -> CsrMatrix:
    """The matrix that `apply_scaler` maps onto `x`, bit for bit: its inverse.

    An entry of value v takes the first of ``rint(v * span + min)``,
    ``v * span + min`` and that value's neighbours up to `_ULPS` ulps out
    that scales back to v; SMOTE's interpolations need more than the
    rounded count.  A row without an entry in a column whose minimum is not
    0 gets one at that minimum, which scales to a dropped 0.  A matrix that
    `apply_scaler` cannot make is a ValueError naming its row.
    """
    rows, cols, v = x.row_ids(), x.indices, x.data
    lo, span = scaler.mins, scaler.maxs - scaler.mins
    guess = v * span[cols] + lo[cols]
    raw = np.rint(guess)

    def misses(k: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Which of entries `k` the values `r` do not scale back to bit for bit."""
        c = cols[k]
        return ((r - lo[c]) / span[c]).view(np.int64) != v[k].view(np.int64)

    k = np.flatnonzero(misses(np.arange(len(v)), raw))  # those rint misses
    candidates, below, above = [guess[k]], guess[k], guess[k]
    for _ in range(_ULPS):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        candidates += [below, above]
    left = np.ones(len(k), bool)
    for r in candidates:
        hit = left & ~misses(k, r)
        raw[k[hit]], left[hit] = r[hit], False
    if left.any():
        e = k[np.argmax(left)]
        raise ValueError(f"row {rows[e]}, column {cols[e]}: "
                         f"no unscaled value scales to {float(v[e])!r}")
    fill_rows, fill_cols = _lacking(x, np.flatnonzero((span > 0.0) & (lo != 0.0)))
    unscaled = CsrMatrix.from_entries(
        np.concatenate((rows * x.dim + cols, fill_rows * x.dim + fill_cols)),
        np.concatenate((raw, lo[fill_cols])), x.n_rows, x.dim,
    )
    back = apply_scaler(scaler, unscaled)
    if back != x:
        r = next(r for r in range(x.n_rows) if back.rows(r, r + 1) != x.rows(r, r + 1))
        raise ValueError(f"row {r} does not scale back from its unscaled values")
    return unscaled


def _entropy(counts: Sequence[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def information_gain(
    x: CsrMatrix,
    labels: Sequence[Label],
    vocab: Vocabulary,
) -> list[tuple[str, float]]:
    """Rank features by label-entropy reduction under binary presence.

    IG(f) = H(Y) - P(f) H(Y | f present) - (1 - P(f)) H(Y | f absent),
    in bits; ties are broken by feature name.
    """
    if x.n_rows != len(labels):
        raise ValueError("vectors and labels must align")
    n = x.n_rows
    label_counts = Counter(labels)
    total_counts = [label_counts.get(lbl, 0) for lbl in LABELS]
    h_y = _entropy(total_counts)
    label_ids = np.array([LABELS.index(label) for label in labels], dtype=np.intp)
    nonzero = x.data != 0.0
    cells = x.indices[nonzero] * len(LABELS) + label_ids[x.row_ids()[nonzero]]
    present = np.bincount(cells, minlength=vocab.dim * len(LABELS)).reshape(vocab.dim, -1)
    ranked: list[tuple[str, float]] = []
    for name, with_f in zip(vocab.names, present.tolist()):
        n_with = sum(with_f)
        without_f = [t - w for t, w in zip(total_counts, with_f)]
        p = n_with / n if n else 0.0
        ig = h_y - p * _entropy(with_f) - (1.0 - p) * _entropy(without_f)
        ranked.append((name, max(ig, 0.0)))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked
