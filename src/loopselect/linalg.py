"""Dense symmetric-positive-definite helpers: Cholesky factor and log-determinant."""

from __future__ import annotations

import numpy as np

__all__ = ["cholesky_pd", "chol_logdet", "logdet_pd"]


def cholesky_pd(M) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive-definite M = LLᵀ.

    Raises ValueError if the factorization fails (matrix not PD).
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def chol_logdet(L) -> float:
    """log det LLᵀ = 2 Σ log L_ii, from a Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def logdet_pd(M) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Raises ValueError if the factorization fails (matrix not PD).
    """
    return chol_logdet(cholesky_pd(M))
