"""Class-weighted soft-margin SVM with RBF and linear kernels, trained by
sequential minimal optimization (SMO).

For every unordered class pair the solver minimizes the dual

    f(a) = 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j) - sum_i a_i
    s.t.  0 <= a_i <= C * w(class_i),   sum_i a_i y_i = 0

using the second-order working-set selection of Fan, Chen & Lin
("Working Set Selection Using Second Order Information for Training
SVM", JMLR 6, 2005), the rule LIBSVM uses.  With u_t the bias-free
decision value at training point t and g_t = y_t - u_t, i maximizes g_i
over the "up" set, and j is the "down" point with g_j < g_i that
maximizes the gain (g_i - g_j)^2 / a_ij, a_ij = K_ii + K_jj - 2 K_ij (at
least 1e-12), twice the decrease of the objective that an unclipped step
on the pair would give.  Optimization stops when max g over "up" minus
min g over "down" is at most the tolerance, which bounds every KKT
violation by the tolerance.  The solver keeps g as two views, on "up"
and on "down" (-inf and +inf off them), and with an RBF kernel ranks j
by twice the gain, which keeps the argmax (see `solve_binary`).
The two-variable subproblem is solved analytically and clipped to its
feasible segment, so the equality constraint is preserved exactly.

Training runs SMO one class pair at a time on the training matrix
itself: the solver is given a pair's row ids and reads its rows through
them, so no copy of them lives through the loop and the kernel row cache
is its one large allocation, as in LIBSVM; it also returns that cache's
counts, which training logs.  A trained model keeps every support vector
once, in a pool shared by all pairs (the LIBSVM layout); each pair
refers to its support vectors by pool index and carries its own dual
coefficients and bias.

Multi-class prediction is one-vs-one: each pair votes via the sign of
its decision value; vote ties break by the larger sum of winning
|decision values|, then by class order.  Prediction evaluates one kernel
block per fixed-size block of query rows against the pool, shared by
all pairs.  Training is deterministic given the instance order.  A
trained model's fields are frozen; its arrays are stored as computed, not
copied.

Every dot product, in a kernel row of training or a kernel block of
prediction, is summed term by term in increasing column order, as
`CsrMatrix.matmul` sums it.  The columns set in more than half of a
matrix's rows (with the default features, the two ``struct:*`` columns)
are kept as dense vectors and add their products to every sum in one
vector operation at their place in that order (the dense/sparse split of
LIBSVM-style solvers); the sparse columns between them are gathered from
the transpose.  The sums, and so the model and every decision value, are
the same bit for bit as with the plain product.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .config import KERNEL_LINEAR, KERNEL_RBF, KERNELS
from .corpus import Label, LABELS
from .features import ArrayRecord, CsrMatrix

logger = logging.getLogger(__name__)

_BOUND_SNAP = 1e-12


@dataclass(frozen=True)
class SvmParams:
    """Hyperparameters; `gamma=None` means 1/dim, `class_weights=None`
    means inverse-frequency weights N / (K * N_c); a trained model's
    params hold the values training resolved them to."""

    c: float = 100.0
    kernel: str = KERNEL_RBF
    gamma: float | None = None
    class_weights: dict[Label, float] | None = None
    tolerance: float = 1e-3
    max_iterations: int = 10_000_000

    def __post_init__(self):
        # written so that NaN fails too: NaN c, gamma or tolerance would
        # keep SMO running to max_iterations
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for label, w in (self.class_weights or {}).items():
            if not 0.0 < w < math.inf:
                raise ValueError(f"weight for {label.value} must be positive and finite")


# query rows per kernel block in `predict_svm`; bounds its memory
PREDICT_BLOCK_ROWS = 16
# kernel rows `_kernel_rows` keeps, the most recently used
KERNEL_CACHE_ROWS = 512


def _kernel_block(
    dots: np.ndarray, sq_left: np.ndarray, sq_right: np.ndarray, kernel: str, gamma: float
) -> np.ndarray:
    """Kernel values from dot products and the rows' squared norms; an RBF
    kernel overwrites `dots`."""
    if kernel == KERNEL_LINEAR:
        return dots
    sq = np.add.outer(sq_left, sq_right, dtype=np.float64)  # norms are int64 without entries
    dots *= 2.0
    sq -= dots
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


def _dense_columns(x: CsrMatrix, columns: CsrMatrix) -> dict[int, np.ndarray]:
    """The columns of `x` set in more than half of its rows, in increasing
    order, each as a dense vector over the rows (0.0 where unset);
    `columns` is ``x.transpose()``."""
    dense = {}
    for col in np.flatnonzero(2 * np.diff(columns.indptr) > x.n_rows).tolist():
        start, stop = columns.indptr[col], columns.indptr[col + 1]
        vector = np.zeros(x.n_rows)
        vector[columns.indices[start:stop]] = columns.data[start:stop]
        dense[col] = vector
    return dense


def _kernel_rows(x: CsrMatrix, kernel: str, gamma: float, *, rows: np.ndarray):
    """The function giving row i of the kernel matrix of the rows `rows` of
    `x` (increasing row ids), with the `KERNEL_CACHE_ROWS` most recently
    used rows cached, and those rows' squared norms.

    With ``pair = x.take(rows)``, row i equals
    ``pair.rows(i, i + 1).matmul(pair.transpose())`` bit for bit: each sum
    takes its terms in increasing column order.  The transpose, the squared
    norms and the dense columns are built from that copy, which is dropped
    before the first row; a row reads the columns and values of row
    ``rows[i]`` from `x` itself.  The transpose's slices for a run of
    sparse columns are joined and added by `_add_run`; a dense column adds
    its products to every sum in one vector operation.  Each sum starts at
    +0.0, so it is never -0.0, and the zero product of a row that lacks a
    dense column leaves it unchanged.
    """
    pair = x.take(rows)
    columns = pair.transpose()
    sq = pair.squared_norms()
    dense = _dense_columns(pair, columns)
    n = pair.n_rows
    del pair
    bounds = columns.indptr.tolist()
    no_cells, no_products = np.zeros(0, np.intp), np.zeros(0)  # so that an empty run joins

    @lru_cache(maxsize=KERNEL_CACHE_ROWS)
    def row(i: int) -> np.ndarray:
        r = rows.item(i)
        lo, hi = x.indptr[r], x.indptr[r + 1]
        dots = None
        cells, products = [no_cells], [no_products]
        for col, value in zip(x.indices[lo:hi].tolist(), x.data[lo:hi].tolist()):
            vector = dense.get(col)
            if vector is None:
                start, stop = bounds[col], bounds[col + 1]
                cells.append(columns.indices[start:stop])
                data = columns.data[start:stop]
                products.append(data if value == 1.0 else data * value)  # 1.0 * v is v
                continue
            dots = _add_run(dots, cells, products, n)
            cells, products = [no_cells], [no_products]
            dots += vector if value == 1.0 else vector * value
        dots = _add_run(dots, cells, products, n)
        return _kernel_block(dots[None, :], sq[i : i + 1], sq, kernel, gamma)[0]

    return row, sq


def _add_run(dots: np.ndarray | None, cells: list, products: list, n: int) -> np.ndarray:
    """`dots` with the joined products added at the joined cells, term by
    term in order; a new float array of `n` sums when `dots` is None."""
    if dots is None:
        dots = np.bincount(np.concatenate(cells), np.concatenate(products), minlength=n)
        return dots.astype(np.float64, copy=False)  # int64 if there are no terms
    if len(cells) > 1:
        np.add.at(dots, np.concatenate(cells), np.concatenate(products))
    return dots


def solve_binary(
    x: CsrMatrix,
    y_pm: Sequence[int],
    box: Sequence[float],
    kernel: str = KERNEL_RBF,
    gamma: float = 1.0,
    tolerance: float = 1e-3,
    max_iterations: int = 10_000_000,
    *,
    rows: np.ndarray,
) -> tuple[np.ndarray, float, int, bool, int, int]:
    """Run SMO on one binary subproblem: the rows `rows` of `x`, increasing
    row ids, with +1/-1 labels `y_pm` and upper bounds `box` at the same
    positions.

    The result equals that of SMO on ``x.take(rows)`` bit for bit, but no
    copy of the rows lives through the loop (see `_kernel_rows`).

    The working set and the stop rule are the module's.  The solver's
    state is g as two views: `g_up`, g on the "up" set and -inf off it,
    and `g_down`, g on the "down" set and +inf off it (each point is in
    one set or both, as each bound is > 0).  Each step subtracts its
    update from both, which keeps -inf and +inf, and resets the two
    changed points.  With an RBF kernel the gain divides by
    max(1 - K_ij, 5e-13), a_ij and its floor halved: that doubles every
    gain exactly, as halving is exact in binary floating point, and keeps
    the argmax while the largest gain is a normal float.  That gain is at
    least tolerance^2 and at most about 1e13 (1 + sum(box))^2, so a_ij / 2
    is used only when tolerance >= 1e-150 and sum(box) < 1e140.

    Returns (alpha, bias, iterations, converged, rows_computed,
    rows_requested) with alpha over every point of the subproblem, support
    vector or not, and the kernel rows the row cache computed and was asked
    for.
    """
    y = np.asarray(y_pm, dtype=float)
    box = np.asarray(box, dtype=float)
    n = len(y)
    alpha = np.zeros(n)
    kernel_row, sq = _kernel_rows(x, kernel, gamma, rows=rows)
    diag = sq if kernel == KERNEL_LINEAR else None  # a linear kernel's K_tt
    # g = y - u, with u the bias-free decision values (all 0 at alpha = 0), held
    # as g_up (-inf off the up set) and g_down (+inf off the down set)
    g_up, g_down = np.where(y > 0, y, -np.inf), np.where(y > 0, np.inf, y)
    g_at = lambda t: g_down.item(t) if g_up.item(t) == -np.inf else g_up.item(t)  # noqa: E731
    # a_ij / 2 for an RBF kernel where the largest gain is a normal float (see above)
    half = diag is None and tolerance >= 1e-150 and box.sum() < 1e140
    # every n-length value of an iteration is evaluated into these
    gain, a, step = (np.empty(n) for _ in range(3))
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        i = int(g_up.argmax())
        g_i = g_up.item(i)
        # an empty "up" set makes the difference -inf, and so does an empty "down" set
        if g_i - g_down.min() <= tolerance:
            converged = True
            break
        row_i = kernel_row(i)
        # second-order gain b^2 / a with b = g_i - g_t, zero off the down
        # set and where b <= 0; the check above leaves some gain > 0
        np.subtract(g_i, g_down, out=gain)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        if half:  # a / 2 = 1 - K_it
            np.subtract(1.0, row_i, out=a)
        else:  # a = K_ii + K_tt - 2 K_it, where an RBF kernel's K_ii + K_tt is 2.0
            np.multiply(2.0, row_i, out=a)
            np.subtract(2.0 if diag is None else diag[i] + diag, a, out=a)
        np.maximum(a, 5e-13 if half else 1e-12, out=a)
        gain /= a
        j = int(gain.argmax())  # off the down set only if every gain is 0
        row_j = kernel_row(j)
        eta = row_i.item(i) + row_j.item(j) - 2.0 * row_i.item(j)
        if eta <= 0.0:
            eta = 1e-12
        a_i, a_j = alpha.item(i), alpha.item(j)
        y_i, y_j, box_i, box_j = y.item(i), y.item(j), box.item(i), box.item(j)
        if y_i != y_j:
            low = max(0.0, a_j - a_i)
            high = min(box_j, box_i + a_j - a_i)
        else:
            low = max(0.0, a_i + a_j - box_i)
            high = min(box_j, a_i + a_j)
        # E = u - y, so E_i - E_j = g_j - g_i
        a_j_new = a_j + y_j * (g_at(j) - g_i) / eta
        a_j_new = min(max(a_j_new, low), high)
        a_i_new = a_i + y_i * y_j * (a_j - a_j_new)
        if a_i_new < _BOUND_SNAP:
            a_i_new = 0.0
        elif a_i_new > box_i - _BOUND_SNAP:
            a_i_new = box_i
        if a_j_new < _BOUND_SNAP:
            a_j_new = 0.0
        elif a_j_new > box_j - _BOUND_SNAP:
            a_j_new = box_j
        delta_i = (a_i_new - a_i) * y_i
        delta_j = (a_j_new - a_j) * y_j
        np.multiply(delta_i, row_i, out=step)
        step += np.multiply(delta_j, row_j, out=a)
        g_up -= step  # -inf and +inf off the sets stay as they are
        g_down -= step
        # i != j: g_j < g_i
        for t, a_t, y_t, box_t in ((i, a_i_new, y_i, box_i), (j, a_j_new, y_j, box_j)):
            alpha[t], g_t = a_t, g_at(t)
            g_up[t] = g_t if (a_t < box_t if y_t > 0 else a_t > 0.0) else -np.inf
            g_down[t] = g_t if (a_t > 0.0 if y_t > 0 else a_t < box_t) else np.inf
    else:
        logger.warning(
            "smo hit the iteration cap (%d) before reaching tolerance %g",
            max_iterations,
            tolerance,
        )
    g = np.where(g_up > -np.inf, g_up, g_down)  # the full gradient, for the bias
    free = (alpha > 0.0) & (alpha < box)
    if free.any():
        bias = float(np.mean(g[free]))
    elif g_up.max() > -np.inf and g_down.min() < np.inf:  # neither set is empty
        bias = float((g_up.max() + g_down.min()) / 2.0)
    else:
        bias = float(np.mean(g))
    cache = kernel_row.cache_info()
    return alpha, bias, iterations, converged, cache.misses, cache.hits + cache.misses


@dataclass(frozen=True, eq=False)
class PairModel(ArrayRecord):
    """One binary subproblem: its support vectors' pool indices and weights.

    `support` is an intp array of pool indices; `alpha` and `y` are float
    arrays at the same positions.  `y` holds +1.0 for `positive_label`
    instances and -1.0 for `negative_label` instances; the decision value
    for a query q is sum_i alpha_i y_i K(pool[support_i], q) + bias,
    voting positive when > 0.
    """

    positive_label: Label
    negative_label: Label
    support: np.ndarray
    alpha: np.ndarray
    y: np.ndarray
    bias: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class SvmModel(ArrayRecord):
    """One-vs-one multi-class model over scaled sparse vectors.

    `params` are the values training used.  `support_vectors` is the pool
    of every pair's support vectors, each stored once, in training-row
    order, over the model's dimension.
    """

    kind = "svm"  # a class attribute, not a field: `model_store` names the model by it

    labels: tuple[Label, ...]
    pairs: tuple[PairModel, ...]
    params: SvmParams
    support_vectors: CsrMatrix

    @property
    def dim(self) -> int:
        return self.support_vectors.dim


def inverse_frequency_weights(labels: Sequence[Label]) -> dict[Label, float]:
    """N / (K * N_c) per present class: the balanced weighting scheme."""
    counts = Counter(labels)
    present = [lbl for lbl in LABELS if lbl in counts]
    return {lbl: len(labels) / (len(present) * counts[lbl]) for lbl in present}


def train_svm(
    x: CsrMatrix,
    labels: Sequence[Label],
    params: SvmParams | None = None,
) -> SvmModel:
    """Train a one-vs-one SVM; deterministic given row order.

    Each class pair is solved on `x` through its row ids (see
    `solve_binary`).  It logs its labels, SMO iterations, support
    vectors, kernel rows computed and requested, and convergence: at
    INFO, or at WARNING when it did not converge.
    """
    params = params or SvmParams()
    if not x.n_rows:
        raise ValueError("training set is empty")
    if x.n_rows != len(labels):
        raise ValueError("vectors and labels must align")
    label_set = set(labels)
    present = tuple(lbl for lbl in LABELS if lbl in label_set)
    if len(present) < 2:
        raise ValueError("need at least two classes to train")
    gamma = params.gamma if params.gamma is not None else 1.0 / max(x.dim, 1)
    weights = params.class_weights or inverse_frequency_weights(labels)
    for lbl in present:
        if lbl not in weights:
            raise ValueError(f"missing class weight for {lbl.value}")
    label_ids = np.array([LABELS.index(lbl) for lbl in labels])
    pairs = []  # support holds training rows until the pool is known
    for pos_label, neg_label in combinations(present, 2):
        is_pos = label_ids == LABELS.index(pos_label)
        rows = np.flatnonzero(is_pos | (label_ids == LABELS.index(neg_label)))
        y = np.where(is_pos[rows], 1.0, -1.0)
        box = np.where(y > 0, params.c * weights[pos_label], params.c * weights[neg_label])
        alpha, bias, iterations, converged, *row_counts = solve_binary(
            x, y, box, params.kernel, gamma, params.tolerance, params.max_iterations, rows=rows
        )
        sv = alpha > 0.0
        logger.log(
            logging.INFO if converged else logging.WARNING,
            "svm pair %s/%s: %d iterations, %d support vectors, "
            "%d kernel rows computed for %d requests, converged=%s",
            pos_label.value, neg_label.value, iterations, int(sv.sum()), *row_counts, converged,
        )
        pairs.append(
            PairModel(pos_label, neg_label, rows[sv], alpha[sv], y[sv], bias, iterations, converged)
        )
    in_pool = np.zeros(x.n_rows, bool)
    for pair in pairs:
        in_pool[pair.support] = True
    position = np.cumsum(in_pool, dtype=np.intp) - 1  # a pool row's index in the pool
    return SvmModel(
        labels=present,
        pairs=tuple(replace(p, support=position[p.support]) for p in pairs),
        params=replace(
            params, gamma=gamma, class_weights={lbl: float(weights[lbl]) for lbl in present}
        ),
        support_vectors=x.take(np.flatnonzero(in_pool)),
    )


def predict_svm(
    model: SvmModel, x: CsrMatrix
) -> tuple[list[Label], dict[tuple[Label, Label], np.ndarray]]:
    """Winning class of every row plus every pair's decision values.

    Each pair votes by sign (strictly positive favors the pair's positive
    label).  Vote ties break by the larger sum of |decision value| over
    the pairs a class won, then by class order.

    Rows are scored `PREDICT_BLOCK_ROWS` at a time.  A block's kernel
    values equal ``x.rows(start, stop).matmul(pool.transpose())`` bit for
    bit: `x` is split once into its values in the pool's dense columns and
    the sparse runs between them, and each block adds the first run by
    `bincount`, then each dense column's products and the run after it in
    place.  Each pair's weighted sum over its support vectors is a sum
    along each row of a C-ordered array of products, so neither a row's
    kernel values nor its decision values depend on its block or on how
    many rows are scored with it.
    """
    if x.dim != model.dim:
        raise ValueError("vector dimension does not match the model")
    pool = model.support_vectors
    pool_columns = pool.transpose()
    pool_sq = pool.squared_norms()
    dense = _dense_columns(pool, pool_columns)
    runs, query_dense = x.split_at(np.fromiter(dense, np.intp, len(dense)))
    query_sq = x.squared_norms()
    coefs = [pair.alpha * pair.y for pair in model.pairs]
    kernel, gamma = model.params.kernel, model.params.gamma
    values = np.empty((len(model.pairs), x.n_rows))
    for start in range(0, x.n_rows, PREDICT_BLOCK_ROWS):
        stop = min(start + PREDICT_BLOCK_ROWS, x.n_rows)
        dots = runs[0].rows(start, stop).matmul(pool_columns)
        for vector, queries, run in zip(dense.values(), query_dense[start:stop].T, runs[1:]):
            dots += np.multiply.outer(queries, vector)
            if run.indptr[stop] > run.indptr[start]:
                run.rows(start, stop).matmul(pool_columns, out=dots)
        k = _kernel_block(dots, query_sq[start:stop], pool_sq, kernel, gamma)
        for p, (pair, coef) in enumerate(zip(model.pairs, coefs)):
            terms = np.multiply(k[:, pair.support], coef, order="C")
            values[p, start:stop] = terms.sum(axis=1) + pair.bias
    votes = np.zeros((x.n_rows, len(model.labels)))
    margins = np.zeros((x.n_rows, len(model.labels)))
    for pair, value in zip(model.pairs, values):
        pos_wins = value > 0.0
        for label, wins in ((pair.positive_label, pos_wins), (pair.negative_label, ~pos_wins)):
            c = model.labels.index(label)
            votes[:, c] += wins
            margins[:, c] += np.where(wins, np.abs(value), 0.0)
    # most votes, then largest winning margin, then first in class order
    top = votes == votes.max(axis=1, keepdims=True)
    best = np.argmax(np.where(top, margins, -np.inf), axis=1)
    decisions = {(p.positive_label, p.negative_label): v for p, v in zip(model.pairs, values)}
    return [model.labels[c] for c in best], decisions
