"""Hypothesis strategies for `CsrMatrix` tests of the sparse and dense products."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from rareclass.features import CsrMatrix

# order-sensitive values (1e16 + 1.0 - 1e16 depends on the order), negative
# values, signed zeros, and 1.0
ORDER_SENSITIVE = [1.0, 1.0, -1.0, 3.0, 1e16, -1e16, 1e16, 3.25e-3, 0.0, -0.0]

# a column is empty, sparse (set in at most half of the rows), dense (set in
# more than half) or full (set in every row that is not empty)
COLUMN_KINDS = ("empty", "sparse", "dense", "full")


@st.composite
def csr_matrices(draw, max_rows=20, max_dim=8, dim=None):
    """A matrix whose columns are empty, sparse, dense or full in any
    arrangement: dense columns first, last, adjacent or between sparse
    ones.  Rows may be empty; values include explicit zeros, negative
    values, and values whose sums depend on the order of terms."""
    n = draw(st.integers(1, max_rows))
    dim = dim or draw(st.integers(1, max_dim))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=dim, max_size=dim))
    empty_share = draw(st.sampled_from([0.0, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = np.zeros((n, dim), bool)
    for col, kind in enumerate(kinds):
        if kind == "sparse":
            present[rng.permutation(n)[: rng.integers(0, n // 2 + 1)], col] = True
        elif kind == "dense":
            present[rng.permutation(n)[: rng.integers(n // 2 + 1, n + 1)], col] = True
        elif kind == "full":
            present[:, col] = True
    present[rng.random(n) < empty_share] = False  # rows with no entries
    values = rng.choice(ORDER_SENSITIVE, size=(n, dim))
    rows, cols = np.nonzero(present)
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    return CsrMatrix.from_arrays(indptr, cols, values[rows, cols], dim)
