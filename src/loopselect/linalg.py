"""Dense symmetric-positive-definite helpers: log-determinant and inverse."""

from __future__ import annotations

import numpy as np

__all__ = ["logdet_pd", "inv_pd"]


def _cholesky(M) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def logdet_pd(M) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Raises ValueError if the factorization fails (matrix not PD).
    """
    return 2.0 * float(np.sum(np.log(np.diag(_cholesky(M)))))


def inv_pd(M) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix as ``L⁻ᵀ L⁻¹``.

    Built from the Cholesky factor, so the result is a Gram matrix: symmetric
    positive definite up to rounding. Raises ValueError if M is not PD.
    """
    L_inv = np.linalg.inv(_cholesky(M))
    return L_inv.T @ L_inv
