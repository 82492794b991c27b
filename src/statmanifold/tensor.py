"""Orthonormal frames and the variance flags of tensor slots.

A slot is contravariant (``UP``) or covariant (``DOWN``); covariant
derivatives take one flag per tensor axis of the field.
"""

from __future__ import annotations

import numpy as np

UP = "up"
DOWN = "down"


class MetricNotPositiveDefinite(ValueError):
    pass


def orthonormal_frame(g):
    """Orthonormal frame from the inverse transpose of the Cholesky factor.

    Accepts a metric matrix (m, m) or a batch (..., m, m); column i of the
    result is the i-th frame vector, so E^T G E = I.
    """
    g = np.asarray(g, dtype=float)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as err:
        raise MetricNotPositiveDefinite("metric is not positive definite") from err
    return np.swapaxes(np.linalg.inv(chol), -1, -2)
