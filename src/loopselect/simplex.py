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

A step costs its array calls, not its arithmetic. On the 36 benchmark-shape
LPs pinned in the tests (402 x 580) the solver takes 4,042 pivots, 4,016 of
them degenerate, and 669 bound flips; the entering column has a median of 3
nonzero rows (p90 16) and the pivot row a median of 4 nonzero columns (p90 8).
So each step scans the entering column once and runs the ratio test and
Bland's tie rule over its few nonzero rows in Python floats: the same IEEE
double operations numpy would run, without an array call each. A pivot is one
broadcast rank-one update through a flat view over the pivot row's nonzero
columns; it also hits the pivot row, which is then rewritten (cheaper than a
mask). Each solve emits one DEBUG record on the ``loopselect.simplex`` logger
with its pivots, degenerate pivots, pivots by Bland's rule and bound flips;
below DEBUG the logger builds no record. The solver is numpy only on purpose:
importing ``scipy.optimize`` for HiGHS adds about 49 MiB of resident memory,
for no speed (README has the measurements).

The loop stops once no reduced cost is below ``-PIVOT_TOL``, so its value can
sit below the optimum (a column worth less than the tolerance never enters).
A certificate therefore never reads it. ``simplex_max`` also returns the row
duals y, read from the slack columns' reduced costs, and ``dual_bound``
turns any y into a bound by weak duality, evaluated as round-upward
arithmetic would, so the bound holds whatever the pivot loop did.
"""

from __future__ import annotations

import logging
import math

import numpy as np

__all__ = ["simplex_max", "dual_bound"]

PIVOT_TOL = 1e-9
STALL = 50  # consecutive degenerate pivots before Bland's entering rule

log = logging.getLogger(__name__)


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
    basis = list(range(n, n + m))
    upper = np.zeros(n, dtype=bool)  # structural variables held complemented, at 1
    reduced, rhs = T[-1, :-1], T[:, -1]  # views: track the objective row, rhs
    flat, width = T.ravel(), n + m + 1
    degenerate = pivots = degenerate_pivots = bland_pivots = flips = 0

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
        # the ratio test in Python floats over the column's nonzero rows but the
        # last, the objective row: a basic variable falls to 0 (entry > 0) or a
        # basic indicator rises to 1 (entry < 0); a basic slack has no upper
        # bound, and an entry within PIVOT_TOL of 0 bounds nothing
        rows = nonzero[:-1]
        best, ratios = math.inf, []
        for row, entry, at in zip(rows.tolist(), col.tolist(), rhs[rows].tolist()):
            if entry > PIVOT_TOL:
                ratio = at / entry
            elif entry < -PIVOT_TOL and basis[row] < n:
                ratio = (1.0 - at) / -entry
            else:
                continue
            ratios.append((ratio, row, entry))
            if ratio < best:
                best = ratio

        if best >= (1.0 if entering < n else math.inf):  # it reaches its other bound first
            rhs[nonzero] -= col
            T[nonzero, entering] = -col
            upper[entering] = not upper[entering]
            degenerate = 0
            flips += 1
            continue

        # Bland: the lowest basis index among the ties
        _, leaving, element = min((basis[row], row, entry) for ratio, row, entry in ratios
                                  if ratio <= best + PIVOT_TOL)
        pivots += 1
        degenerate_pivots += best <= PIVOT_TOL
        bland_pivots += degenerate >= STALL
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        if element < 0:  # the basic indicator leaves at 1: complement it
            out = basis[leaving]
            T[leaving, out] = -1.0
            T[leaving, -1] -= 1.0
            upper[out] = not upper[out]

        cols = (T[leaving] != 0).nonzero()[0]
        kept = T[leaving, cols] / element  # the pivot row, divided
        # one rank-one update through the flat view; it spoils the pivot row,
        # which is then rewritten (cheaper than a mask)
        flat[nonzero[:, None] * width + cols] -= col[:, None] * kept
        T[leaving, cols] = kept
        basis[leaving] = entering

    log.debug("simplex %dx%d: %d pivots (%d degenerate, %d by Bland's rule), %d bound flips",
              m, n, pivots, degenerate_pivots, bland_pivots, flips)
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    x[upper] = 1.0 - x[upper]
    return x, float(T[-1, -1]), np.maximum(T[-1, n:n + m], 0.0)


# -- the weak-duality bound, rounded upward --------------------------------------

_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for doubles
_TINY = 2.0**-969  # below this a product's split halves may underflow


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
    """``(p, e)`` with p = fl(a * b) and a * b = p + e exactly (Dekker).

    Where a nonzero product falls below ``_TINY`` the error term may itself
    have underflowed; e is NaN there, as its sign is unknown.
    """
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, np.where((np.abs(p) < _TINY) & (a != 0) & (b != 0), np.nan, e)


def _up(x, err):
    """The rounded results ``x``, one ulp up where the exact value ``x + err`` may be above."""
    return np.where((err > 0) | np.isnan(err), np.nextafter(x, np.inf), x)


def _down(x, err):
    """The rounded results ``x``, one ulp down where the exact value ``x + err`` may be below."""
    return np.where((err < 0) | np.isnan(err), np.nextafter(x, -np.inf), x)


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
    O(nnz) plus O(n) per nonzero dual in the fullest column. A product too
    small for an exact error term moves one ulp outward unconditionally,
    which covers its rounding error, underflow to zero included; the split
    needs operands below 2**996, far above the certification LPs' weights.
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
