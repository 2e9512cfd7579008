"""Naive Bayes over sparse feature vectors.

The default event model is multinomial with add-one smoothing over the
vocabulary, treating vector values as term counts.  A Gaussian event
model (per-feature normal densities with a variance floor) is available
behind a flag for numeric feature sets.  Ties in the posterior break
toward the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Label, LABELS
from .features import ArrayRecord, CsrMatrix

MULTINOMIAL = "multinomial"
GAUSSIAN = "gaussian"

_VAR_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class NbModel(ArrayRecord):
    """Trained Naive Bayes parameters; the fields are frozen and the arrays
    are stored as computed, not copied.

    `log_priors` holds one float per class, and each table one float row
    per class with one column per feature.  `log_likelihood` holds log
    theta (multinomial).  The Gaussian model stores only `means` and
    `variances`; each call of `predict_nb` derives from them, once, every
    class's summed log-density of the all-zero vector, so a row then pays
    only for its non-zero entries.  A table the event model lacks is None.
    """

    kind = "nb"  # a class attribute, not a field: `model_store` names the model by it

    labels: tuple[Label, ...]
    log_priors: np.ndarray
    event_model: str
    dim: int
    log_likelihood: np.ndarray | None = None
    means: np.ndarray | None = None
    variances: np.ndarray | None = None

    def __post_init__(self):
        if self.event_model not in (MULTINOMIAL, GAUSSIAN):
            raise ValueError(f"unknown event model {self.event_model!r}")


def train_nb(
    x: CsrMatrix,
    labels: Sequence[Label],
    event_model: str = MULTINOMIAL,
) -> NbModel:
    """Fit class priors and per-class feature distributions."""
    if not x.n_rows:
        raise ValueError("training set is empty")
    if x.n_rows != len(labels):
        raise ValueError("vectors and labels must align")
    if event_model not in (MULTINOMIAL, GAUSSIAN):
        raise ValueError(f"unknown event model {event_model!r}")
    present = tuple(lbl for lbl in LABELS if lbl in set(labels))
    row_class = np.array([present.index(lbl) for lbl in labels])
    sizes = np.bincount(row_class, minlength=len(present))
    log_priors = np.array([math.log(size / x.n_rows) for size in sizes.tolist()])
    entry_class = row_class[x.row_ids()]

    def column_sums(values: np.ndarray) -> list[np.ndarray]:
        """Per class, the sum of `values` (one per entry) in every column."""
        return [
            np.bincount(x.indices[entry_class == c], values[entry_class == c], minlength=x.dim)
            for c in range(len(present))
        ]

    if event_model == MULTINOMIAL:
        if (x.data < 0.0).any():
            raise ValueError("multinomial event model requires non-negative feature values")
        theta = [(counts + 1.0) / (counts.sum() + x.dim) for counts in column_sums(x.data)]
        return NbModel(present, log_priors, MULTINOMIAL, x.dim, log_likelihood=np.log(theta))
    means = np.array([total / size for total, size in zip(column_sums(x.data), sizes)])
    variances = np.array([
        np.maximum(total_sq / size - mean * mean, _VAR_FLOOR)
        for total_sq, mean, size in zip(column_sums(x.data * x.data), means, sizes)
    ])
    return NbModel(present, log_priors, GAUSSIAN, x.dim, means=means, variances=variances)


def predict_nb(model: NbModel, x: CsrMatrix) -> tuple[list[Label], dict[Label, np.ndarray]]:
    """Most probable class of every row plus the per-class log scores."""
    if x.dim != model.dim:
        raise ValueError("vector dimension does not match the model")
    if model.event_model == MULTINOMIAL:
        scores = x.dot(model.log_likelihood.T) + model.log_priors
    else:
        # log N(v; m, var) = -0.5 (log(2 pi var) + (v - m)^2 / var), per class and column
        mean, var = model.means, model.variances
        log_norm = np.log(2.0 * math.pi * var)
        at_zero = -0.5 * (log_norm + mean**2 / var)
        base = np.array([sum(row) for row in at_zero.tolist()])  # summed in column order
        cols = x.indices
        adjust = []  # per class and row: its entries' log-density minus that of zeros
        for m, v, norm, zero in zip(mean, var, log_norm, at_zero):
            gain = x.data - m[cols]  # in place below: one array per entry at a time
            gain *= gain
            gain /= v[cols]
            gain += norm[cols]
            gain *= -0.5
            adjust.append(x.row_sums(gain - zero[cols]))
        scores = model.log_priors + (base + np.column_stack(adjust))
    # ties break toward the lowest class index: argmax takes the first maximum
    best = np.argmax(scores, axis=1)
    return [model.labels[c] for c in best], {
        lbl: scores[:, c] for c, lbl in enumerate(model.labels)
    }
