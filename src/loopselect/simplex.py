"""Small dense bounded-variable primal simplex, and the weak-duality bound it certifies.

``simplex_max`` solves ``max cᵀx  s.t.  A x <= b, 0 <= x <= 1`` with
``b >= 0``: every certification variable is an indicator, so the box is part
of the contract, not a row of A. The slack basis with every variable at 0 is
feasible from the start. A nonbasic variable sits at 0 or at 1; one at 1 is
kept complemented (x' = 1 - x: its column negated, the right-hand side moved
by the column), so the tableau always reads as if every nonbasic variable
were 0 (Dantzig, 1955, "Upper bounds, secondary constraints, and block
triangularity in linear programming"). A step therefore ends in one of three
ways: the entering variable reaches its own other bound first, which is a
bound flip and needs no pivot; a basic variable falls to 0; or a basic
indicator rises to 1 and leaves complemented. A boxed LP is never unbounded.

The entering column is the most negative reduced cost (Dantzig's rule), which
takes far fewer pivots than Bland's lowest-index rule on the certification
LPs. Dantzig's rule alone can cycle on degenerate vertices, so after ``STALL``
consecutive degenerate pivots (best ratio at most ``PIVOT_TOL``) the entering
rule falls back to Bland's lowest index with an improving cost, until the next
non-degenerate step. The leaving row is always Bland's: the lowest basis
index among ratio ties. A bound flip moves its variable by 1, so it is never
degenerate; a cycle consists of degenerate pivots only, and Bland's rule
cannot cycle, so the method terminates.

Each pivot scans the entering column once. Its nonzero rows feed the ratio
test (entries above ``PIVOT_TOL`` bound a basic variable falling to 0,
entries below ``-PIVOT_TOL`` an indicator rising to 1) and one broadcast
rank-one update over the pivot row's nonzero columns; the update also hits
the pivot row, which is then rewritten (cheaper than a mask). The solver is
numpy only on purpose: importing ``scipy.optimize`` for HiGHS adds about
49 MiB of resident memory, for no speed (README has the measurements).

The loop stops once no reduced cost is below ``-PIVOT_TOL``, so its value can
sit below the optimum (a column worth less than the tolerance never enters).
A certificate therefore never reads it. ``simplex_max`` also returns the row
duals y, read from the slack columns' reduced costs, and ``dual_bound``
turns any y into a bound by weak duality, evaluated as round-upward
arithmetic would, so the bound holds whatever the pivot loop did.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["simplex_max", "dual_bound"]

PIVOT_TOL = 1e-9
STALL = 50  # consecutive degenerate pivots before Bland's entering rule


def simplex_max(c, A, b):
    """Return ``(x, value, y)`` maximizing cᵀx over Ax <= b, 0 <= x <= 1 (b >= 0).

    ``y >= 0`` holds one dual per row of A, the optimal ones up to the
    stopping tolerance; ``dual_bound(c, ..., b, y)`` is a sound upper bound.
    """
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
    cap = np.concatenate([np.ones(n), np.full(m, math.inf)])  # upper bound of each variable
    upper = np.zeros(n, dtype=bool)  # structural variables held complemented, at 1
    reduced, rhs = T[-1, :-1], T[:, -1]  # views: track the objective row, rhs
    flat, width = T.ravel(), n + m + 1
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
        # the objective row is the last nonzero; in the others, a basic variable
        # falls to 0 (entry > 0) or a basic indicator rises to 1 (entry < 0)
        rows, entries = nonzero[:-1], col[:-1]
        at = rhs[rows]
        size = np.abs(entries)
        ratios = np.where(entries > 0, at, cap[basis[rows]] - at) / size
        ratios[size <= PIVOT_TOL] = math.inf
        best = ratios.min(initial=math.inf)

        if best >= cap[entering]:  # the entering indicator reaches its other bound first
            rhs[nonzero] -= col
            T[nonzero, entering] = -col
            upper[entering] = not upper[entering]
            degenerate = 0
            continue

        ties = rows[ratios <= best + PIVOT_TOL]
        leaving = int(ties[basis[ties].argmin()] if ties.size > 1 else ties[0])  # Bland
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        if T[leaving, entering] < 0:  # the basic indicator leaves at 1: complement it
            out = basis[leaving]
            T[leaving, out] = -1.0
            T[leaving, -1] -= 1.0
            upper[out] = not upper[out]

        cols = (T[leaving] != 0).nonzero()[0]
        kept = T[leaving, cols] / T[leaving, entering]  # the pivot row, divided
        # one rank-one update through the flat view; it spoils the pivot row,
        # which is then rewritten (cheaper than a mask)
        flat[nonzero[:, None] * width + cols] -= col[:, None] * kept
        T[leaving, cols] = kept
        basis[leaving] = entering

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    x[upper] = 1.0 - x[upper]
    return x, float(T[-1, -1]), np.maximum(T[-1, n:n + m], 0.0)


# -- the weak-duality bound, rounded upward --------------------------------------

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for doubles


def _two_sum(a, b):
    """``(s, e)`` with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """``(p, e)`` with p = fl(a * b) and a * b = p + e exactly (Dekker)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _up(x, err):
    """The rounded results ``x``, one ulp up where the exact value ``x + err`` is above."""
    return np.where(err > 0, np.nextafter(x, np.inf), x)


def _down(x, err):
    """The rounded results ``x``, one ulp down where the exact value ``x + err`` is below."""
    return np.where(err < 0, np.nextafter(x, -np.inf), x)


def dual_bound(c, entries, b, y) -> float:
    """An upper bound on max cᵀx over Ax <= b, 0 <= x <= 1, from the row duals ``y``.

    ``entries = (rows, cols, vals)`` lists the nonzeros of A. By weak duality
    any y >= 0 (negative entries count as 0) with w = max(0, c - Aᵀy) is
    dual feasible, so bᵀy + Σ_j max(0, c_j - (Aᵀy)_j) bounds the LP, however
    far y is from optimal. The evaluation rounds outward: each product and
    sum recovers its rounding error exactly (Dekker's product, Knuth's sum)
    and moves one ulp outward where the error points inward; Aᵀy is rounded
    down, everything added to the bound up, and the last ``math.fsum`` up.
    So the returned float is never below the exact bound of the given y,
    and it is that bound exactly when no operation rounded. The cost is
    O(nnz) plus O(n) per nonzero dual in the fullest column. Exact error
    terms need products within the normal range; the certification LPs'
    coefficients are indicators, probabilities and weights, and their duals
    are bounded by the objective.
    """
    c, b = np.asarray(c, dtype=float), np.asarray(b, dtype=float)
    y = np.maximum(np.asarray(y, dtype=float), 0.0)
    rows, cols, vals = (np.asarray(v) for v in entries)
    live = y[rows] > 0  # a zero dual adds exactly nothing
    rows, cols, vals = rows[live], cols[live], vals[live].astype(float)
    # Aᵀy rounded down: the products, then each column's summed in turn;
    # row t of ``terms`` holds the t-th product of every column, or 0
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    counts = np.bincount(cols, minlength=len(c))
    terms = np.zeros((counts.max(initial=0), len(c)))
    terms[np.arange(len(cols)) - (np.cumsum(counts) - counts)[cols], cols] = _down(
        *_two_prod(vals[order], y[rows[order]]))
    dot = terms[0] if len(terms) else np.zeros(len(c))
    for term in terms[1:]:
        dot = _down(*_two_sum(dot, term))
    box = _up(*_two_sum(c, -dot))
    by = _up(*_two_prod(b, y))
    parts = [*by[by != 0].tolist(), *box[box > 0].tolist()]
    total = math.fsum(parts)
    if math.fsum([*parts, -total]) > 0:  # fsum rounds to nearest: push it up
        total = math.nextafter(total, math.inf)
    return total
