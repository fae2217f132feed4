"""Small dense primal simplex: Dantzig pricing with a Bland fallback.

Solves ``max cᵀx  s.t.  A x <= b, x >= 0`` with ``b >= 0``, which is the only
form the certification LPs need (variable upper bounds are rows of A). The
slack basis is feasible from the start.

The entering column is the most negative reduced cost (Dantzig's rule), which
takes far fewer pivots than Bland's lowest-index rule on the certification
LPs. Dantzig's rule alone can cycle on degenerate vertices, so after ``STALL``
consecutive degenerate pivots (best ratio at most ``PIVOT_TOL``) the entering
rule falls back to Bland's lowest index with an improving cost, until the next
non-degenerate pivot. The leaving row is always Bland's: the lowest basis
index among ratio ties. A cycle consists of degenerate pivots only, and
Bland's rule cannot cycle, so the method terminates.

Each pivot is one rank-one update restricted to the rows with a nonzero
entering entry and the columns with a nonzero pivot-row entry; on the sparse
certification tableaux that is a few percent of either. The solver is numpy
only on purpose: importing ``scipy.optimize`` for HiGHS adds about 49 MiB of
resident memory, and a HiGHS variant of the certified benchmark sweep peaked
at 100 MiB against 61 MiB for this solver, without running faster.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_max"]

PIVOT_TOL = 1e-9
STALL = 50  # consecutive degenerate pivots before Bland's entering rule


def simplex_max(c, A, b):
    """Return ``(x, value)`` maximizing cᵀx over Ax <= b, x >= 0 (b >= 0)."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < -PIVOT_TOL):
        raise ValueError("right-hand side must be non-negative")

    # tableau: columns = structural vars, slacks, rhs; last row = objective
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = np.arange(n, n + m)
    reduced = T[-1, :-1]  # view: tracks the objective row
    degenerate = 0

    while True:
        if degenerate < STALL:  # Dantzig: most negative reduced cost
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -PIVOT_TOL:
                break
        else:  # Bland: lowest index with improving cost
            improving = np.flatnonzero(reduced < -PIVOT_TOL)
            if improving.size == 0:
                break
            entering = int(improving[0])
        col = T[:m, entering]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            raise ValueError("LP is unbounded")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + PIVOT_TOL]
        leaving = int(ties[np.argmin(basis[ties])])  # Bland on leaving variable
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0

        T[leaving] /= T[leaving, entering]
        pivot_row = T[leaving]
        touched = np.flatnonzero(T[:, entering])
        touched = touched[touched != leaving]
        cols = np.flatnonzero(pivot_row)
        T[np.ix_(touched, cols)] -= np.outer(T[touched, entering], pivot_row[cols])
        basis[leaving] = entering

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return x[:n], float(T[-1, -1])
