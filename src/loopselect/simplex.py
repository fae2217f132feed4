"""Small dense bounded-variable primal simplex, and the weak-duality bound it certifies.

``simplex_max`` solves ``max cᵀx  s.t.  A x <= b, 0 <= x <= 1`` with
``b >= 0``: every certification variable is an indicator, so the box is part
of the contract, not a row of A. A is given by its nonzeros, a
:class:`Nonzeros` that carries its shape, and the solver scatters them
straight into its dense tableau: no (m, n) array is ever built, so a solve
holds the tableau and nothing of its size besides. ``dual_bound`` reads the
same object, so an LP is described once.

The slack basis with every variable at 0 is feasible from the start. A
nonbasic variable sits at 0 or at 1; one at 1 is kept complemented
(x' = 1 - x: its column negated, the right-hand side moved by the column), so the
tableau always reads as if every nonbasic variable were 0 (Dantzig, 1955,
"Upper bounds, secondary constraints, and block triangularity in linear
programming"). A step therefore ends in one of three ways: the entering
variable reaches its own other bound first, which is a bound flip and needs
no pivot; a basic variable falls to 0; or a basic indicator rises to 1 and
leaves complemented. A boxed LP is never unbounded.

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
nonzero rows (p90 16) and the pivot row a median of 4 nonzero columns (p90 8,
at most 582: the k row). So each step takes the entering column and the pivot
row once each as views of the tableau, scans each once, and runs the ratio
test and Bland's tie rule over the column's few nonzero rows in Python floats:
the same IEEE double operations numpy would run, without an array call each.
A pivot is a broadcast rank-one update through a flat view over the pivot
row's nonzero columns, in blocks of the column's rows that span at most
``UPDATE_BLOCK`` entries, so its index, product and gathered copy stay a few
KiB beside the 3 MiB tableau (275 of the 4,042 pivots take more than one
block); it also hits the pivot row, which is then rewritten (cheaper than a
mask). These 36 solves take 61 ms in all, against 74 ms for the same pivots,
bit for bit, with the column and the row indexed in the tableau at each use
and one unblocked update (sum of each LP's best of 15; 2-vCPU Xeon, numpy
2.4.6); checking that the input describes one LP takes about 15 us of that
per solve. Each solve emits one DEBUG record on the ``loopselect.simplex``
logger with its pivots, degenerate pivots, pivots by Bland's rule and bound
flips; below DEBUG the logger builds no record. The solver is numpy only on purpose:
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
from typing import NamedTuple

import numpy as np

__all__ = ["Nonzeros", "simplex_max", "dual_bound"]

PIVOT_TOL = 1e-9
STALL = 50  # consecutive degenerate pivots before Bland's entering rule
UPDATE_BLOCK = 2048  # tableau entries per block of a rank-one update

log = logging.getLogger(__name__)


class Nonzeros(NamedTuple):
    """An (m, n) matrix A as its nonzeros: ``A[rows[t], cols[t]] = vals[t]``, each
    position at most once, every other entry 0. ``shape`` is ``(m, n)``, so
    ``np.shape`` reads it as it would a dense A's."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]


def simplex_max(c, A, b):
    """Return ``(x, value, y)`` maximizing cᵀx over Ax <= b, 0 <= x <= 1 (b >= 0).

    ``A`` is a :class:`Nonzeros`. ``y >= 0`` holds one dual per row of A, the
    optimal ones up to the stopping tolerance; ``dual_bound(c, A, b, y)`` is a
    sound upper bound. Raises ``ValueError`` for a negative entry of b and for
    anything that does not describe one LP: sizes that disagree, a nonzero
    outside A's shape or given twice, or an entry of c, b or A that is not
    finite (a NaN cost would never leave the pivot loop).
    """
    c, b, rows, cols, vals = _lp_arrays(c, A, b)
    if np.any(b < -PIVOT_TOL):
        raise ValueError("right-hand side must be non-negative")
    m, n = A.shape

    # tableau: columns = structural vars, slacks, rhs; last row = objective
    width = n + m + 1
    T = np.zeros((m + 1, width))
    flat = T.ravel()
    flat[rows * width + cols] = vals
    flat[n:m * width:width + 1] = 1.0  # the slack columns' identity
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = list(range(n, n + m))
    upper = np.zeros(n, dtype=bool)  # structural variables held complemented, at 1
    reduced, rhs = T[-1, :-1], T[:, -1]  # views: track the objective row, rhs
    starts = np.arange(0, (m + 1) * width, width)  # each row's first index in flat
    degenerate = pivots = degenerate_pivots = bland_pivots = flips = 0
    price, stall, tol, inf = reduced.argmin, STALL, PIVOT_TOL, math.inf

    while True:
        if degenerate < stall:  # Dantzig: most negative reduced cost
            entering = int(price())
            if reduced[entering] >= -tol:
                break
        else:  # Bland: lowest index with improving cost
            improving = np.flatnonzero(reduced < -tol)
            if improving.size == 0:
                break
            entering = int(improving[0])
        column = T[:, entering]
        nonzero = column.astype(bool).nonzero()[0]  # a cast to bool is x != 0, in one call
        col = column[nonzero]
        # the ratio test in Python floats over the column's nonzero rows but the
        # last, the objective row: a basic variable falls to 0 (entry > 0) or a
        # basic indicator rises to 1 (entry < 0); a basic slack has no upper
        # bound, and an entry within PIVOT_TOL of 0 bounds nothing
        best, ratios = inf, []
        for row, entry, at in zip(nonzero.tolist()[:-1], col.tolist(), rhs[nonzero].tolist()):
            if entry > tol:
                ratio = at / entry
            elif entry < -tol and basis[row] < n:
                ratio = (1.0 - at) / -entry
            else:
                continue
            ratios.append((ratio, row, entry))
            if ratio < best:
                best = ratio

        if best >= (1.0 if entering < n else inf):  # it reaches its other bound first
            rhs[nonzero] -= col
            column[nonzero] = -col
            upper[entering] = not upper[entering]
            degenerate = 0
            flips += 1
            continue

        # Bland: the lowest basis index among the ties
        _, leaving, element = min((basis[row], row, entry) for ratio, row, entry in ratios
                                  if ratio <= best + tol)
        pivots += 1
        degenerate_pivots += best <= tol
        bland_pivots += degenerate >= stall
        degenerate = degenerate + 1 if best <= tol else 0
        pivot = T[leaving]
        if element < 0:  # the basic indicator leaves at 1: complement it
            out = basis[leaving]
            pivot[out] = -1.0
            pivot[-1] -= 1.0
            upper[out] = not upper[out]

        cols = pivot.astype(bool).nonzero()[0]
        kept = pivot[cols] / element  # the pivot row, divided
        # the rank-one update through the flat view, in blocks of the column's
        # rows that span at most UPDATE_BLOCK entries, so its index, product
        # and gathered copy stay small beside the tableau; it spoils the pivot
        # row, which is then rewritten (cheaper than a mask)
        at = starts[nonzero]
        step = UPDATE_BLOCK // len(cols) or 1
        for lo in range(0, len(nonzero), step):
            hi = lo + step
            flat[at[lo:hi, None] + cols] -= col[lo:hi, None] * kept
        pivot[cols] = kept
        basis[leaving] = entering

    log.debug("simplex %dx%d: %d pivots (%d degenerate, %d by Bland's rule), %d bound flips",
              m, n, pivots, degenerate_pivots, bland_pivots, flips)
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    x[upper] = 1.0 - x[upper]
    return x, float(T[-1, -1]), np.maximum(T[-1, n:n + m], 0.0)


def _lp_arrays(c, A, b):
    """``(c, b, rows, cols, vals)`` as arrays, checked to describe one LP.

    Raises ``ValueError`` when the sizes disagree or a nonzero lies outside
    A's shape ("inconsistent LP dimensions"), when A gives a position twice
    ("inconsistent LP", as ``simplex_max`` would keep one value and
    ``dual_bound`` sum both), or when an entry of c, b or A's values is not
    finite.
    """
    c, b, vals = (np.asarray(v, dtype=float) for v in (c, b, A.vals))
    rows, cols = np.asarray(A.rows), np.asarray(A.cols)
    m, n = A.shape
    if (b.shape != (m,) or c.shape != (n,) or vals.ndim != 1
            or not rows.shape == cols.shape == vals.shape):
        raise ValueError("inconsistent LP dimensions")
    # A's flat positions, sorted: with every column in [0, n) the ends bound the
    # rows, and a repeated position sits beside its twin. A stable sort takes
    # the runs of rising positions that A's nonzeros come in fast.
    positions = np.sort(rows * n + cols, kind="stable")
    if len(positions) and (cols.min() < 0 or cols.max() >= n
                           or positions[0] < 0 or positions[-1] >= m * n):
        raise ValueError("inconsistent LP dimensions")
    if not (positions[1:] > positions[:-1]).all():
        raise ValueError("inconsistent LP: a position of A is given twice")
    if not np.isfinite(np.concatenate((c, b, vals))).all():
        raise ValueError("LP coefficients must be finite")
    return c, b, rows, cols, vals


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


def dual_bound(c, A, b, y) -> float:
    """An upper bound on max cᵀx over Ax <= b, 0 <= x <= 1, from the row duals ``y``.

    ``A`` is a :class:`Nonzeros`, the one ``simplex_max`` reads. By weak duality
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
    Raises ``ValueError`` where ``simplex_max`` would for the same c, A and
    b (a negative entry of b aside), and for a y of the wrong length or with
    an entry that is not finite.
    """
    return _dual_bound(*_lp_arrays(c, A, b), y)


def _dual_bound(c, b, rows, cols, vals, y) -> float:
    """:func:`dual_bound` of an LP that :func:`simplex_max` has already checked,
    given as the arrays it read: c, b and A's rows, columns and values.
    Only y is checked."""
    y = np.asarray(y, dtype=float)
    if y.shape != b.shape:
        raise ValueError("inconsistent LP dimensions")
    if not np.isfinite(y).all():
        raise ValueError("duals must be finite")
    y = np.maximum(y, 0.0)
    live = y[rows] > 0  # a zero dual adds exactly nothing
    rows, cols, vals = rows[live], cols[live], vals[live]
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
