"""Ground truth and bounds: brute-force optima, LP certification, approximation factors.

Three independent routes to the optimum (or an upper bound on it) back every
guarantee the planners advertise:

* ``brute_force_opt`` — exact optimum by nested enumeration: every budget-feasible
  vertex subset (all counted against the guard first), with the inner edge problem
  solved by ``g_modular`` (modular) or by enumeration (general monotone objectives).
* ``lp_upper_bound_modular`` / ``ilp_opt_modular`` — the natural LP
  relaxation of the modular problem, one weighted row per budget block,
  and its exact integral optimum via branch and bound.
* ``bounds`` — what a certification level computes for one cell.
* ``alpha_apriori`` / ``alpha_posteriori`` / ``alpha_tilde`` — the closed-form
  approximation factors of the combined greedy planner, before and after a
  run, plus the budget-ratio approximation used for plotting guarantees
  independent of any instance.

These return numbers, never report text: the CLI writes every CSV cell.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

import numpy as np

from .errors import EnumerationGuardError, InstanceTooLargeError
from .graph import WEIGHT_TOL, Plan, within_limit
from .objectives import ModularObjective, g_modular
from .planners import m_greedy
from .simplex import dual_bound, simplex_max

__all__ = [
    "brute_force_opt",
    "lp_upper_bound_modular",
    "ilp_opt_modular",
    "alpha_apriori",
    "alpha_tilde",
    "alpha_posteriori",
]

ENUM_GUARD = 2**20   # max feasible vertex subsets / inner enumerations
NODE_GUARD = 2**10   # max branched nodes of the ILP's branch and bound
LP_GUARD = 2**24     # max floats of a dense LP: A and its simplex tableau together (128 MiB)
VALUE_TIE_TOL = 1e-12


# -- exact optimum by enumeration -------------------------------------------


def _fit_count(ws, limit) -> int:
    """How many of the ascending weights ``ws``, lightest first, fit together."""
    return bisect.bisect_left(
        range(len(ws)), True, key=lambda s: not within_limit(ws[: s + 1], limit))


def _fitting_subsets(ids, weight, limit):
    """Yield each subset of ``ids`` whose weights are ``within_limit`` of ``limit``, once.

    ``ids`` come in ascending weight order, so past a vertex that does not fit,
    none does. The walk keeps its own stack; its depth does not grow with len(ids).
    """
    stack, chosen, taken, j = [], [], [], 0  # positions in ids, their ids, their weights
    yield ()
    while True:
        if j < len(ids) and within_limit([*taken, weight[ids[j]]], limit):
            stack.append(j)
            chosen.append(ids[j])
            taken.append(weight[ids[j]])
            yield tuple(chosen)
            j += 1
        elif stack:
            j = stack.pop() + 1
            chosen.pop()
            taken.pop()
        else:
            return


def _feasible_vertex_subsets(graph, cb):
    """Yield every budget-feasible vertex subset once, as a sorted tuple.

    That is one fitting subset per block of ``graph.budget_blocks(cb)``. All
    are counted before the first is yielded, so the guard raises before any
    objective evaluation: in closed form for a block of equal weights, by a
    walk that stops past the guard for a weighted block.
    """
    block_of, weight, limits = graph.budget_blocks(cb)
    members = [[] for _ in limits]
    for vid in sorted(block_of, key=lambda vid: (weight[vid], vid)):
        members[block_of[vid]].append(vid)
    total = 1
    for ids, limit in zip(members, limits):
        ws = [weight[vid] for vid in ids]
        if len(set(ws)) > 1:
            walk = _fitting_subsets(ids, weight, limit)
            total *= sum(1 for _ in itertools.islice(walk, ENUM_GUARD // total + 1))
        else:
            total *= sum(math.comb(len(ids), s) for s in range(_fit_count(ws, limit) + 1))
        if total > ENUM_GUARD:
            raise EnumerationGuardError(
                f"instance too large: over {ENUM_GUARD} feasible vertex subsets"
            )
    walks = (_fitting_subsets(ids, weight, limit) for ids, limit in zip(members, limits))
    for parts in itertools.product(*walks):
        yield tuple(sorted(itertools.chain.from_iterable(parts)))


def brute_force_opt(graph, k, cb, objective):
    """Exact optimum over all feasible (vertex set, edge set) pairs.

    Enumerates every budget-feasible vertex subset; for each, solves the best
    at-most-k edge subproblem over the covered edges (closed form when the
    objective is modular, enumeration of min(k, covered)-subsets otherwise —
    monotonicity makes the largest admissible size optimal). Ties between
    vertex subsets break to the lexicographically smallest id tuple.
    Guarded to ``ENUM_GUARD`` enumerations on each level.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    modular = getattr(objective, "kind", None) == "modular"
    fmemo: dict[frozenset, float] = {}
    imemo: dict[tuple, tuple[float, tuple[int, ...]]] = {}  # covered edges -> best
    inner_count = 0

    def inner(vset) -> tuple[float, tuple[int, ...]]:
        nonlocal inner_count
        F = tuple(sorted(graph.edges_incident(vset)))
        if F in imemo:
            return imemo[F]
        m = min(k, len(F))
        combos = [F] if m == len(F) else itertools.combinations(F, m)
        best_v = -math.inf
        best_set: tuple[int, ...] = ()
        for combo in combos:
            inner_count += 1
            if inner_count > ENUM_GUARD:
                raise EnumerationGuardError(
                    "instance too large: inner edge enumeration exceeds guard"
                )
            fs = frozenset(combo)
            if fs not in fmemo:
                fmemo[fs] = objective.value(combo)
            val = fmemo[fs]
            if val > best_v + VALUE_TIE_TOL or (
                abs(val - best_v) <= VALUE_TIE_TOL and combo < best_set
            ):
                best_v, best_set = val, tuple(combo)
        imemo[F] = best = (best_v if best_v > -math.inf else 0.0, best_set)
        return best

    best_value = 0.0
    best_vset: tuple[int, ...] = ()
    best_edges: tuple[int, ...] = ()
    for vset in _feasible_vertex_subsets(graph, cb):
        value, witness = g_modular(graph, vset, k) if modular else inner(vset)
        if value > best_value + VALUE_TIE_TOL or (
            abs(value - best_value) <= VALUE_TIE_TOL and vset < best_vset
        ):
            best_value, best_vset, best_edges = value, vset, witness
    plan = Plan(
        vertices=best_vset, edges=best_edges, achieved_value=best_value
    )
    return best_value, plan


# -- LP relaxation and exact ILP (modular, any budget) ------------------------


def _modular_lp(graph, k, cb, fixed0=frozenset(), fixed1=frozenset()):
    """LP relaxation value and free-vertex solution, with some vertices fixed.

    Variables are vertex indicators (free vertices only; fixed ones are
    substituted out) and edge indicators. A block of ``graph.budget_blocks(cb)``
    is one weighted row, bounded by the most any set ``within_limit`` admits
    can weigh (the bare limit where that is more: unit weights keep it exactly)
    less the weights fixed to 1. A vertex that does not fit alone is in no
    feasible set, so it gets no column and no weight in its row. Returns
    ``(pi, value)``, pi mapping free vertex id -> fractional value, or None when
    the fixed-to-1 vertices do not fit. ``value`` is never the simplex's own:
    it is :func:`~loopselect.simplex.dual_bound` of the simplex's duals, at
    or above the LP optimum however early the pivot loop stopped. What does
    not depend on k, the budget or the fixings comes from
    ``graph.index_arrays()``, built once per graph; each call places only its
    block rows, fixings and right-hand side.
    """
    ids, ends, p = graph.index_arrays()
    block_of, weight, limits = graph.budget_blocks(cb)
    n, m = len(ids), len(p)
    vids = ids.tolist()
    block = np.fromiter(map(block_of.__getitem__, vids), np.intp, n)
    w = np.fromiter(map(weight.__getitem__, vids), float, n)
    fits = w <= np.array(limits, dtype=float)[block] + WEIGHT_TOL  # within_limit alone
    held = np.isin(ids, list(fixed1))
    room = []
    for b, limit in enumerate(limits):
        mine = block == b
        spent = w[held & mine].tolist()
        if not within_limit(spent, limit):
            return None
        ws = np.sort(w[fits & mine]).tolist()
        top = math.fsum(ws[len(ws) - _fit_count(ws, limit):])  # the c heaviest, c = how many fit
        room.append(min(limit + WEIGHT_TOL, max(limit, top)) - math.fsum(spent))
    free = fits & ~held & ~np.isin(ids, list(fixed0))
    nf = int(np.count_nonzero(free))
    nvar = nf + m
    nb = len(limits)
    rows = nb + 1 + m
    if rows * nvar + (rows + 1) * (nvar + rows + 1) > LP_GUARD:
        raise InstanceTooLargeError(f"instance too large: a {rows}x{nvar} dense LP")

    # rows: one weighted pi row per block, sum ell <= k, then ell_e <= pi_u + pi_v
    # per edge, with fixed-to-1 ends moved to the rhs; 0 <= pi, ell <= 1 is the
    # solver's box. A's nonzeros, as (row, column, value) triples:
    column = np.full(n, -1, dtype=np.intp)
    column[free] = np.arange(nf)
    link, ell = np.arange(nb + 1, rows), np.arange(nf, nvar)
    r = [block[free], np.full(m, nb), link]
    cl = [np.arange(nf), ell, ell]
    v = [w[free], np.ones(m), np.ones(m)]
    for cols in column[ends]:
        mask = cols >= 0
        r.append(link[mask])
        cl.append(cols[mask])
        v.append(np.full(np.count_nonzero(mask), -1.0))
    entries = tuple(map(np.concatenate, (r, cl, v)))
    A = np.zeros((rows, nvar))
    A[entries[:2]] = entries[2]
    rhs = np.concatenate([room, [float(k)], held[ends].sum(axis=0, dtype=float)])
    c = np.concatenate([np.zeros(nf), p])
    x, _, y = simplex_max(c, A, rhs)
    pi = dict(zip(ids[free].tolist(), x[:nf].tolist()))
    return pi, dual_bound(c, entries, rhs, y)


def lp_upper_bound_modular(graph, k, cb) -> float:
    """Optimal value of the LP relaxation under ``cb``; an upper bound on the exact optimum.

    Raises :class:`InstanceTooLargeError` when the dense simplex tableau would
    exceed ``LP_GUARD`` entries.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _, value = _modular_lp(graph, k, cb)
    return value


def ilp_opt_modular(graph, k, cb, stats=None) -> float:
    """Exact integral optimum via branch and bound on the LP relaxation.

    Branches on the vertex indicator nearest 1/2, explores nodes in
    best-bound order. Each node's rounded vertex set, when it fits the
    budget, is evaluated exactly through the closed-form inner solve as soon
    as its LP is solved, whatever the bound; an integral node whose rounded
    set breaks the budget branches too. ``stats``, when given a dict, receives
    the number of branched nodes and LP solves. Raises
    :class:`InstanceTooLargeError` rather than branch more than
    ``NODE_GUARD`` nodes or build an LP past ``LP_GUARD``; the number of
    vertex subsets does not matter.
    """
    objective = ModularObjective(graph)  # m_greedy rejects a negative k
    incumbent = m_greedy(graph, k, cb, objective)[0].achieved_value
    nodes_branched = 0
    counter = itertools.count()
    heap = []

    def visit(fixed0, fixed1, pi, bound):
        """Take the node's rounded set as a candidate; queue the node unless integral."""
        nonlocal incumbent
        chosen = set(fixed1) | {vid for vid, val in pi.items() if val > 0.5}
        feasible = graph.budget_satisfied(chosen, cb)
        if feasible:
            # an optimum within the pruning tolerance of the incumbent can be
            # cut by its bound, and the simplex's tolerance can leave its
            # indicators a few 1e-9 off integral; its exact value still counts
            incumbent = max(incumbent, g_modular(graph, chosen, k)[0])
        integral = all(min(val, 1.0 - val) <= 1e-9 for val in pi.values())
        if not (integral and feasible) and bound > incumbent + 1e-9:
            heapq.heappush(heap, (-bound, next(counter), fixed0, fixed1, pi))

    visit(frozenset(), frozenset(), *_modular_lp(graph, k, cb))  # no vertex fixed: feasible
    while heap:
        neg_bound, _, fixed0, fixed1, pi = heapq.heappop(heap)
        if -neg_bound <= incumbent + 1e-9:
            break  # best-bound order: nothing left can improve
        if nodes_branched == NODE_GUARD:
            raise InstanceTooLargeError(
                f"instance too large: branch and bound exceeds {NODE_GUARD} nodes"
            )
        branch_vid = min(pi, key=lambda vid: (abs(pi[vid] - 0.5), vid))
        nodes_branched += 1
        for child0, child1 in (
            (fixed0 | {branch_vid}, fixed1),
            (fixed0, fixed1 | {branch_vid}),
        ):
            sol = _modular_lp(graph, k, cb, child0, child1)
            if sol is not None:
                visit(child0, child1, *sol)

    if stats is not None:
        stats["nodes"] = nodes_branched
        stats["lp_solves"] = 1 + 2 * nodes_branched  # the root, then two children a branch
    return incumbent


def bounds(graph, k, cb, objective, level):
    """``(opt, upt)`` of one cell at ``level``, None where not computed: brute force
    at "brute", then the LP at "lp" or "brute" for a modular objective, any budget."""
    opt = upt = None
    if level == "brute":
        opt, _ = brute_force_opt(graph, k, cb, objective)
    if level in ("lp", "brute") and getattr(objective, "kind", None) == "modular":
        upt = lp_upper_bound_modular(graph, k, cb)
    return opt, upt


# -- approximation factors ----------------------------------------------------


def alpha_apriori(b, k, delta) -> float:
    """A-priori factor of the combined greedy planner.

    ``1 - exp(-min(1, gamma))`` with ``gamma = max(b/k, floor(k/delta)/b)``:
    the better of the edge arm's and the vertex arm's guarantees.
    """
    if b < 1 or k < 1 or delta < 1:
        raise ValueError("b, k, and delta must be at least 1")
    gamma = max(b / k, math.floor(k / delta) / b)
    return 1.0 - math.exp(-min(1.0, gamma))


def alpha_tilde(kappa, delta) -> float:
    """Budget-ratio approximation of the a-priori factor.

    Replaces ``floor(k/delta)`` with ``k/delta`` so the guarantee depends only
    on the budget ratio ``kappa = b/k`` and the maximum degree.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    return 1.0 - math.exp(-min(1.0, max(kappa, 1.0 / (kappa * delta))))


def _alpha_edge_arm(tr, b, k) -> float:
    n_e = tr.phase_count("phase1")
    if tr.exhausted:
        # the arm holds every edge, so its solution is optimal for the
        # computation-only relaxation; report the a-priori count
        n_e = max(n_e, min(b, k))
    return 1.0 - math.exp(-min(1.0, n_e / k))


def _alpha_vertex_arm(tr, b) -> float:
    n_v = len(tr.steps)
    if tr.exhausted:
        n_v = max(n_v, b)
    return 1.0 - math.exp(-min(1.0, n_v / b))


def alpha_posteriori(trace, b, k, delta) -> tuple[float, float]:
    """A-posteriori factors from an actual run: (edge arm, vertex arm).

    Uses the realized selection counts instead of their worst-case lower
    bounds, so each factor is at least its a-priori counterpart. Only traces
    of the edge, vertex, or combined greedy planners qualify; the missing arm
    of a single-arm trace reports 0.
    """
    if b < 1 or k < 1 or delta < 1:
        raise ValueError("b, k, and delta must be at least 1")
    if trace.algorithm == "s-greedy" and trace.children:
        return (
            _alpha_edge_arm(trace.children["edge-arm"], b, k),
            _alpha_vertex_arm(trace.children["vertex-arm"], b),
        )
    if trace.algorithm == "e-greedy":
        return _alpha_edge_arm(trace, b, k), 0.0
    if trace.algorithm == "v-greedy":
        return 0.0, _alpha_vertex_arm(trace, b)
    raise ValueError(
        f"trace from {trace.algorithm!r} has no a-posteriori factors"
    )
