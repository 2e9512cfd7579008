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
    """Maximize sum(a) - 1/2 (ay)'K(ay) over 0 <= a <= box, y'a = 0."""
    n = len(y)
    Q = np.outer(y, y) * K
    best_value = None
    best_alpha = None
    for states_tuple in product((0, 1, 2), repeat=n):
        states = np.array(states_tuple)
        alpha = np.where(states == 2, box, 0.0)
        free = np.flatnonzero(states == 1)
        nf = len(free)
        if nf == 0:
            if abs(y @ alpha) > 1e-9:
                continue
        else:
            fixed = np.flatnonzero(states != 1)
            system = np.empty((nf + 1, nf + 1))
            system[:nf, :nf] = Q[np.ix_(free, free)]
            system[:nf, nf] = y[free]
            system[nf, :nf] = y[free]
            system[nf, nf] = 0.0
            rhs = np.empty(nf + 1)
            if len(fixed):
                rhs[:nf] = 1.0 - Q[np.ix_(free, fixed)] @ alpha[fixed]
                rhs[nf] = -(y[fixed] @ alpha[fixed])
            else:
                rhs[:nf] = 1.0
                rhs[nf] = 0.0
            try:
                solution = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
                if not np.allclose(system @ solution, rhs, atol=1e-8):
                    continue
            alpha[free] = solution[:nf]
            if np.any(alpha < -1e-9) or np.any(alpha > box + 1e-9):
                continue
            if abs(y @ alpha) > 1e-8:
                continue
        alpha = np.clip(alpha, 0.0, box)
        value = dual_value(alpha, y, K)
        if best_value is None or value > best_value:
            best_value = value
            best_alpha = alpha
    assert best_value is not None, "reference solver found no feasible point"
    return best_value, best_alpha


def random_dataset(rng: np.random.Generator, max_points: int = 8, max_dim: int = 3):
    """Random labelled point set with both classes present."""
    n = int(rng.integers(3, max_points + 1))
    dim = int(rng.integers(1, max_dim + 1))
    points = rng.uniform(-1.0, 1.0, size=(n, dim))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if (y > 0).any() and (y < 0).any():
            return points, y
