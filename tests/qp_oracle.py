"""Brute-force reference solver for the soft-margin SVM dual.

Enumerates every active-set configuration (each variable at 0, at its
box bound, or free), solves the resulting stationarity system, and keeps
the best feasible candidate.  For a convex QP the optimizer's own
configuration appears in the enumeration and every feasible candidate's
objective is a lower bound, so the best candidate attains the optimum.
Only practical for a handful of variables; the SVM tests stay <= 8.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def kernel_matrix(points: np.ndarray, kind: str, gamma: float) -> np.ndarray:
    if kind == "linear":
        return points @ points.T
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * sq)


def dual_value(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    q = (alpha * y) @ K @ (alpha * y)
    return float(alpha.sum() - 0.5 * q)


def kkt_violation(
    alpha: np.ndarray,
    y: np.ndarray,
    box: np.ndarray,
    bias: float,
    K: np.ndarray,
    boundary_eps: float = 1e-8,
) -> float:
    """Largest KKT violation of a candidate dual solution.

    For each i with margin m_i = y_i f(x_i): alpha at 0 requires
    m_i >= 1, interior alpha requires m_i == 1, alpha at the box requires
    m_i <= 1; the violation is how far the relevant inequality fails.
    """
    alpha, y, box = (np.asarray(v, dtype=float) for v in (alpha, y, box))
    margin = y * (K @ (alpha * y) + bias)
    at_zero = alpha <= boundary_eps
    at_box = ~at_zero & (alpha >= box - boundary_eps)
    violation = np.where(
        at_zero, 1.0 - margin, np.where(at_box, margin - 1.0, np.abs(margin - 1.0))
    )
    return float(max(0.0, violation.max()))


def solve_reference(K: np.ndarray, y: np.ndarray, box: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize sum(a) - 1/2 (ay)'K(ay) over 0 <= a <= box, y'a = 0.

    The stationarity systems of all configurations with the same number
    of free variables are solved together, as one stack; candidates are
    then compared in enumeration order, the first best one winning.
    """
    n = len(y)
    Q = np.outer(y, y) * K
    states = np.array(list(product((0, 1, 2), repeat=n)))
    is_free = states == 1
    n_free = is_free.sum(axis=1)
    alphas = np.where(states == 2, box, 0.0)
    # alpha is 0 on the free variables, so Q[free] @ alpha = Q[free, fixed] @ alpha[fixed]
    pulled = alphas @ Q
    solved = np.ones(len(states), dtype=bool)
    for nf in range(1, n + 1):
        rows = np.flatnonzero(n_free == nf)
        free = np.nonzero(is_free[rows])[1].reshape(len(rows), nf)
        system = np.zeros((len(rows), nf + 1, nf + 1))
        system[:, :nf, :nf] = Q[free[:, :, None], free[:, None, :]]
        system[:, :nf, nf] = y[free]
        system[:, nf, :nf] = y[free]
        rhs = np.empty((len(rows), nf + 1))
        rhs[:, :nf] = 1.0 - np.take_along_axis(pulled[rows], free, axis=1)
        rhs[:, nf] = -(alphas[rows] @ y)
        solution, ok = _solve_stack(system, rhs)
        alphas[rows[:, None], free] = solution[:, :nf]
        solved[rows] = ok
    in_box = ~((alphas < -1e-9) | (alphas > box + 1e-9)).any(axis=1)
    best_value = None
    best_alpha = None
    for row in np.flatnonzero(solved & in_box):
        alpha = alphas[row]
        if abs(y @ alpha) > (1e-8 if n_free[row] else 1e-9):
            continue
        alpha = np.clip(alpha, 0.0, box)
        value = dual_value(alpha, y, K)
        if best_value is None or value > best_value:
            best_value = value
            best_alpha = alpha
    assert best_value is not None, "reference solver found no feasible point"
    return best_value, best_alpha


def _solve_stack(system: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of a stack of square systems, and which ones have one.

    A singular stack is halved until the singular systems stand alone;
    each of those takes the least-squares solution when it satisfies the
    system to 1e-8, and is dropped otherwise.
    """
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if len(rhs) > 1:
        half = len(rhs) // 2
        head, tail = _solve_stack(system[:half], rhs[:half]), _solve_stack(system[half:], rhs[half:])
        return np.concatenate([head[0], tail[0]]), np.concatenate([head[1], tail[1]])
    solution, *_ = np.linalg.lstsq(system[0], rhs[0], rcond=None)
    return solution[None], np.array([np.allclose(system[0] @ solution, rhs[0], atol=1e-8)])


def random_dataset(rng: np.random.Generator, max_points: int = 8, max_dim: int = 3):
    """Random labelled point set with both classes present."""
    n = int(rng.integers(3, max_points + 1))
    dim = int(rng.integers(1, max_dim + 1))
    points = rng.uniform(-1.0, 1.0, size=(n, dim))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if (y > 0).any() and (y < 0).any():
            return points, y
