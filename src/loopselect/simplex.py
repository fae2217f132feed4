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

Each pivot scans the entering column once. Its nonzero rows feed the ratio
test (entries above ``PIVOT_TOL``; the objective row's is negative) and one
broadcast rank-one update over the pivot row's nonzero columns; the update
also hits the pivot row, which is then rewritten (cheaper than a mask). The
solver is numpy only on purpose: importing ``scipy.optimize`` for HiGHS adds
about 49 MiB of resident memory, for no speed (README has the measurements).
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_max"]

PIVOT_TOL = 1e-9
STALL = 50  # consecutive degenerate pivots before Bland's entering rule


def simplex_max(c, A, b):
    """Return ``(x, value)`` maximizing cᵀx over Ax <= b, x >= 0 (b >= 0)."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
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
    reduced, rhs = T[-1, :-1], T[:, -1]  # views: track the objective row, rhs
    degenerate = 0

    while True:
        if degenerate < STALL:  # Dantzig: most negative reduced cost
            entering = int(reduced.argmin())
            if reduced[entering] >= -PIVOT_TOL:
                break
        else:  # Bland: lowest index with improving cost
            improving = np.flatnonzero(reduced < -PIVOT_TOL)
            if improving.size == 0:
                break
            entering = int(improving[0])
        nonzero = (T[:, entering] != 0).nonzero()[0]  # a mask scans faster than floats
        col = T[nonzero, entering]
        positive = col > PIVOT_TOL
        rows = nonzero[positive]
        if rows.size == 0:
            raise ValueError("LP is unbounded")
        ratios = rhs[rows] / col[positive]
        best = ratios.min()
        ties = rows[ratios <= best + PIVOT_TOL]
        leaving = int(ties[basis[ties].argmin()])  # Bland on leaving variable
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0

        T[leaving] /= T[leaving, entering]
        pivot_row = T[leaving]
        cols = (pivot_row != 0).nonzero()[0]
        kept = pivot_row[cols]  # a copy: the update spoils the pivot row
        T[nonzero[:, None], cols] -= col[:, None] * kept
        T[leaving, cols] = kept
        basis[leaving] = entering

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    return x[:n], float(T[-1, -1])
