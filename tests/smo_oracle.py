"""The SMO solver as it was before its fast paths: the test oracle for
`rareclass.svm.solve_binary`.

`solve_binary` here builds each kernel row through the general
`CsrMatrix.matmul` and evaluates every per-iteration expression into a
fresh array.  The library's solver must return the same alpha, bias,
iteration count and convergence flag bit for bit, because it runs the
same arithmetic in the same order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from rareclass.config import KERNEL_LINEAR, KERNEL_RBF
from rareclass.features import CsrMatrix
from rareclass.svm import _BOUND_SNAP, _kernel_block


def kernel_rows(x: CsrMatrix, kernel: str, gamma: float, capacity: int = 512):
    """Row i of the kernel matrix of `x`, one `matmul` per row."""
    columns = x.transpose()
    sq = x.squared_norms()

    @lru_cache(maxsize=capacity)
    def row(i: int) -> np.ndarray:
        dots = x.rows(i, i + 1).matmul(columns)
        return _kernel_block(dots, sq[i : i + 1], sq, kernel, gamma)[0]

    return row


def solve_binary(
    x: CsrMatrix,
    y_pm: Sequence[int],
    box: Sequence[float],
    kernel: str = KERNEL_RBF,
    gamma: float = 1.0,
    tolerance: float = 1e-3,
    max_iterations: int = 10_000_000,
) -> tuple[np.ndarray, float, int, bool]:
    """SMO with second-order working-set selection (Fan, Chen & Lin 2005);
    returns (alpha, bias, iterations, converged)."""
    y = np.asarray(y_pm, dtype=float)
    box = np.asarray(box, dtype=float)
    n = len(y)
    alpha = np.zeros(n)
    g = y.copy()
    kernel_row = kernel_rows(x, kernel, gamma)
    diag = x.squared_norms() if kernel == KERNEL_LINEAR else np.ones(n)
    pos = y > 0
    up = np.where(pos, alpha < box, alpha > 0.0)
    down = np.where(pos, alpha > 0.0, alpha < box)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not up.any() or not down.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, g, -np.inf)))
        g_down = np.where(down, g, np.inf)
        if g[i] - g_down.min() <= tolerance:
            converged = True
            break
        row_i = kernel_row(i)
        b = np.maximum(g[i] - g_down, 0.0)
        a = diag[i] + diag - 2.0 * row_i
        np.maximum(a, 1e-12, out=a)
        j = int(np.argmax(b * b / a))
        row_j = kernel_row(j)
        eta = row_i[i] + row_j[j] - 2.0 * row_i[j]
        if eta <= 0.0:
            eta = 1e-12
        a_i, a_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            low = max(0.0, a_j - a_i)
            high = min(box[j], box[i] + a_j - a_i)
        else:
            low = max(0.0, a_i + a_j - box[i])
            high = min(box[j], a_i + a_j)
        a_j_new = a_j + y[j] * (g[j] - g[i]) / eta
        a_j_new = min(max(a_j_new, low), high)
        a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
        if a_i_new < _BOUND_SNAP:
            a_i_new = 0.0
        elif a_i_new > box[i] - _BOUND_SNAP:
            a_i_new = box[i]
        if a_j_new < _BOUND_SNAP:
            a_j_new = 0.0
        elif a_j_new > box[j] - _BOUND_SNAP:
            a_j_new = box[j]
        delta_i = (a_i_new - a_i) * y[i]
        delta_j = (a_j_new - a_j) * y[j]
        alpha[i] = a_i_new
        alpha[j] = a_j_new
        for t in (i, j):
            up[t] = alpha[t] < box[t] if pos[t] else alpha[t] > 0.0
            down[t] = alpha[t] > 0.0 if pos[t] else alpha[t] < box[t]
        g -= delta_i * row_i + delta_j * row_j
    free = (alpha > 0.0) & (alpha < box)
    if free.any():
        bias = float(np.mean(g[free]))
    elif up.any() and down.any():
        bias = float((g[up].max() + g[down].min()) / 2.0)
    else:
        bias = float(np.mean(g))
    return alpha, bias, iterations, converged
