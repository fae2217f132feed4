"""Greedy planners for budgeted broadcast/verify selection.

All planners are deterministic: every argmax tie breaks to the lowest id, so
repeated runs (and any evaluation schedule) produce identical plans. Each
planner returns ``(Plan, PlannerTrace)``; the trace logs selections, phase
markers, and evaluation counts, and is what the certification module uses to
compute a-posteriori approximation factors.

* ``m_greedy`` — vertex greedy on the nested modular objective g under any
  budget regime (cardinality, knapsack best-of-two, partition matroid),
  followed by top-k edge extraction.
* ``e_greedy`` — edge greedy (phase I), witness cover construction, then a
  communication-free local-optimization phase (phase II) when k > b.
* ``v_greedy`` — vertex greedy on h(V) = f(edges(V)) that stops as soon as
  the next pick would exceed the vertex or induced-edge budget.
* ``s_greedy`` — best of ``e_greedy`` and ``v_greedy`` (tie: edge arm).
* ``random_baseline`` — seeded uniform vertex sample, then a uniform edge
  sample from the covered edges; its trace has no steps.

Every greedy loop is a ``GreedySelector`` run over a per-run oracle:
``m_greedy`` takes its gains from a ``TopKOracle`` (g itself), ``e_greedy``
and ``v_greedy`` from one ``objective.oracle()``, which tracks the committed
edges; only the final achieved value comes from ``g_modular`` or the dense
``objective.value``. ``lazy=True`` switches the inner argmax to lazy
evaluation with stale upper bounds (Minoux), valid because oracle gains are
non-negative and diminishing for monotone submodular objectives; the
selection sequence is identical to the eager loop and never uses more gain
evaluations. An eager round costs one feasibility check and one gain call
per candidate left; for ``m_greedy`` a gain call is ``TopKOracle.gain``
itself, which ends at the first incident key that does not enter the top k.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import WEIGHT_TOL, Plan, TotalNonuniform, TotalUniform
from .objectives import TopKOracle, g_modular

__all__ = [
    "TraceStep",
    "PlannerTrace",
    "GreedySelector",
    "m_greedy",
    "e_greedy",
    "v_greedy",
    "s_greedy",
    "random_baseline",
]


@dataclass
class TraceStep:
    phase: str
    item: int
    gain: float
    value: float


@dataclass
class PlannerTrace:
    """Ordered selection log of one planner run.

    ``exhausted`` marks that the greedy loop ran out of candidates before
    hitting a budget (the whole ground set was selected). For two-arm or
    two-variant planners, ``children`` holds the inner traces and ``winner``
    names the one whose plan was returned.
    """

    algorithm: str
    steps: list[TraceStep] = field(default_factory=list)
    evaluations: int = 0
    exhausted: bool = False
    children: dict[str, "PlannerTrace"] | None = None
    winner: str | None = None

    def phase_count(self, phase) -> int:
        return sum(1 for s in self.steps if s.phase == phase)


class GreedySelector:
    """Repeated argmax over a shrinking candidate pool with a global tie rule.

    ``gain_fn(c)`` must return the current marginal gain of candidate ``c``;
    ties break to the lowest candidate id. ``feasible(c)`` is asked before a
    candidate is evaluated, and a candidate it rejects leaves the pool for
    good, so it must only ever turn from true to false as the run goes on (a
    budget being used up); rejections are not evaluations. An eager round
    keeps the pool in id order, filters it by feasibility once, maps
    ``gain_fn`` over the rest and takes the first maximum. In lazy mode a
    max-heap of stale bounds is kept; an entry is only trusted once
    re-evaluated in the current round, which reproduces the eager selection
    sequence exactly whenever gains are diminishing (monotone submodular
    objectives) while skipping most evaluations.
    """

    def __init__(self, candidates, gain_fn, lazy=False, feasible=lambda c: True):
        # lazy mode asks membership of heap entries; eager scans in id order
        self._pool = set(candidates) if lazy else sorted(set(candidates))
        self._gain = gain_fn
        self._feasible = feasible
        self._lazy = lazy
        self._round = 0
        self.evaluations = 0
        if lazy:
            # bound +inf marks "never evaluated"
            self._heap = [(-math.inf, c, -1) for c in sorted(self._pool)]
            heapq.heapify(self._heap)

    def __len__(self):
        return len(self._pool)

    def best(self):
        """Best feasible (candidate, gain) under current state, or None if there is none."""
        if not self._pool:
            return None
        self._round += 1
        if not self._lazy:
            # nothing inside one round changes feasibility, so filter once
            self._pool = [c for c in self._pool if self._feasible(c)]
            if not self._pool:
                return None
            gains = list(map(self._gain, self._pool))
            self.evaluations += len(gains)
            # max keeps the first of equal gains: the lowest id
            best_g = max(gains)
            return self._pool[gains.index(best_g)], best_g
        while self._pool:
            neg_g, c, tag = heapq.heappop(self._heap)
            if c not in self._pool:
                continue
            if not self._feasible(c):
                self._pool.discard(c)
                continue
            if tag == self._round:
                heapq.heappush(self._heap, (neg_g, c, tag))
                return c, -neg_g
            g = self._gain(c)
            self.evaluations += 1
            heapq.heappush(self._heap, (-g, c, self._round))
        return None

    def commit(self, candidate):
        if candidate in self._pool:
            self._pool.remove(candidate)


class _Room:
    """What is left of a communication budget during one greedy run.

    ``fits(vid)`` tells whether vertex ``vid`` can still be broadcast and
    ``charge(vid)`` books it. Charges only use the budget up, so ``fits``
    only ever turns from true to false, as the feasibility predicate of
    :class:`GreedySelector` must. ``full()`` tells that no vertex fits any
    more, so a run can stop without rejecting the rest one by one.

    Blocks, weights and limits come from
    :meth:`~loopselect.graph.ExchangeGraph.budget_blocks` at construction,
    so a check is two lookups.
    """

    def __init__(self, graph, cb):
        self._block, self.weight, self._limit = graph.budget_blocks(cb)
        # the lightest vertex of a block is the last that can fit
        self._floor = [math.inf] * len(self._limit)
        for vid, block in self._block.items():
            self._floor[block] = min(self._floor[block], self.weight[vid])
        self._spent = [0.0] * len(self._limit)

    def fits(self, vid) -> bool:
        block = self._block[vid]
        return self.weight[vid] <= self._limit[block] - self._spent[block] + WEIGHT_TOL

    def full(self) -> bool:
        return not any(
            floor <= limit - spent + WEIGHT_TOL
            for floor, limit, spent in zip(self._floor, self._limit, self._spent)
        )

    def charge(self, vid):
        self._spent[self._block[vid]] += self.weight[vid]


def _require_tu(cb, who):
    if not isinstance(cb, TotalUniform):
        raise ValueError(f"{who} requires a total-uniform (cardinality) budget")


def _require_modular(objective):
    if getattr(objective, "kind", None) != "modular":
        raise ValueError("m_greedy requires a modular objective")


def m_greedy(graph, k, cb, objective, lazy=False):
    """Vertex greedy on the nested objective g, then top-k edge extraction.

    One greedy run over the vertices takes every gain from a
    :class:`~loopselect.objectives.TopKOracle` and skips the vertices the
    budget can no longer afford. Cardinality budgets therefore run exactly b
    rounds (zero-gain picks allowed, as in the plain greedy recipe) and
    partition-matroid budgets pick the best vertex whose block quota is open.
    Knapsack budgets run twice, scoring by gain and by gain per unit weight
    (cost-benefit), and keep the better plan.
    """
    _require_modular(objective)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        # nothing is verifiable, so nothing is worth broadcasting
        return Plan(), PlannerTrace(algorithm="m-greedy")

    def run(per_weight):
        trace = PlannerTrace(algorithm="m-greedy")
        oracle = TopKOracle(graph, k)
        room = _Room(graph, cb)

        if per_weight:
            weight = room.weight

            def score(vid):
                return oracle.gain(vid) / weight[vid]
        else:
            score = oracle.gain
        sel = GreedySelector(
            [v.id for v in graph.vertices], score, lazy=lazy, feasible=room.fits
        )
        selected: list[int] = []
        while not room.full() and (pick := sel.best()) is not None:
            vid = pick[0]
            sel.commit(vid)
            room.charge(vid)
            selected.append(vid)
            before = oracle.value
            oracle.commit(vid)
            trace.steps.append(TraceStep("vertex", vid, oracle.value - before, oracle.value))
        trace.evaluations = sel.evaluations
        # every vertex was picked and the budget could still afford more
        trace.exhausted = len(selected) == graph.num_vertices and not room.full()
        value, witness = g_modular(graph, selected, k)
        return Plan(vertices=tuple(selected), edges=witness, achieved_value=value), trace

    if not isinstance(cb, TotalNonuniform):
        return run(per_weight=False)
    plain_plan, plain_tr = run(per_weight=False)
    ratio_plan, ratio_tr = run(per_weight=True)
    trace = PlannerTrace(
        algorithm="m-greedy",
        children={"plain": plain_tr, "cost-benefit": ratio_tr},
        evaluations=plain_tr.evaluations + ratio_tr.evaluations,
    )
    # ties keep the plain variant
    if ratio_plan.achieved_value > plain_plan.achieved_value:
        trace.winner = "cost-benefit"
        trace.steps, trace.exhausted = ratio_tr.steps, ratio_tr.exhausted
        return ratio_plan, trace
    trace.winner = "plain"
    trace.steps, trace.exhausted = plain_tr.steps, plain_tr.exhausted
    return plain_plan, trace


def _witness_cover(graph, selected_edges):
    """Deterministic vertex cover of the selected edges.

    Scans edges in selection order; each still-uncovered edge contributes the
    endpoint covering more of the remaining uncovered selection (tie: lower
    id). Never larger than the number of selected edges.
    """
    cover: list[int] = []
    in_cover: set[int] = set()

    def uncovered(eid):
        e = graph.edge(eid)
        return e.u not in in_cover and e.v not in in_cover

    for eid in selected_edges:
        if not uncovered(eid):
            continue
        e = graph.edge(eid)

        def residual(vid):
            return sum(
                1
                for other in selected_edges
                if uncovered(other)
                and vid in (graph.edge(other).u, graph.edge(other).v)
            )

        cu, cv = residual(e.u), residual(e.v)
        if cu > cv:
            pick = e.u
        elif cv > cu:
            pick = e.v
        else:
            pick = min(e.u, e.v)
        cover.append(pick)
        in_cover.add(pick)
    return cover


def e_greedy(graph, k, cb, objective, lazy=False):
    """Edge greedy with a witness cover and a communication-free second phase."""
    _require_tu(cb, "e_greedy")
    if k < 0:
        raise ValueError("k must be non-negative")
    b = cb.b
    trace = PlannerTrace(algorithm="e-greedy")
    selected: list[int] = []
    oracle = objective.oracle()

    def gain(eid):
        return oracle.gain((eid,))

    sel = GreedySelector([e.id for e in graph.edges], gain, lazy=lazy)
    rounds = min(b, k)
    for _ in range(rounds):
        pick = sel.best()
        if pick is None:
            trace.exhausted = True
            break
        eid, g = pick
        sel.commit(eid)
        selected.append(eid)
        oracle.commit((eid,))
        trace.steps.append(TraceStep("phase1", eid, g, oracle.value))
    trace.evaluations = sel.evaluations

    cover = _witness_cover(graph, selected)

    if k > b:
        free = sorted(graph.edges_incident(cover) - set(selected))
        sel2 = GreedySelector(free, gain, lazy=lazy)
        for _ in range(min(len(free), k - b)):
            pick = sel2.best()
            if pick is None:
                break
            eid, g = pick
            sel2.commit(eid)
            selected.append(eid)
            oracle.commit((eid,))
            trace.steps.append(TraceStep("phase2", eid, g, oracle.value))
        trace.evaluations += sel2.evaluations

    value = objective.value(selected)
    plan = Plan(vertices=tuple(cover), edges=tuple(selected), achieved_value=value)
    return plan, trace


def v_greedy(graph, k, cb, objective, lazy=False):
    """Vertex greedy on h(V) = f(edges(V)); stops before any budget violation."""
    _require_tu(cb, "v_greedy")
    if k < 0:
        raise ValueError("k must be non-negative")
    b = cb.b
    trace = PlannerTrace(algorithm="v-greedy")
    selected: list[int] = []
    edge_order: list[int] = []
    covered: set[int] = set()
    oracle = objective.oracle()

    def new_edges(vid):
        return graph.edges_incident((vid,)) - covered

    def gain(vid):
        return oracle.gain(new_edges(vid))

    sel = GreedySelector([v.id for v in graph.vertices], gain, lazy=lazy)
    while sel and len(selected) < b:
        vid, g = sel.best()
        new = new_edges(vid)
        if len(covered) + len(new) > k:
            break
        sel.commit(vid)
        selected.append(vid)
        edge_order.extend(sorted(new))
        covered |= new
        oracle.commit(new)
        trace.steps.append(TraceStep("vertex", vid, g, oracle.value))
    trace.exhausted = not sel
    trace.evaluations = sel.evaluations

    value = objective.value(edge_order)
    plan = Plan(vertices=tuple(selected), edges=tuple(edge_order), achieved_value=value)
    return plan, trace


def s_greedy(graph, k, cb, objective, lazy=False):
    """Best of the edge arm and the vertex arm (ties keep the edge arm)."""
    _require_tu(cb, "s_greedy")
    e_plan, e_trace = e_greedy(graph, k, cb, objective, lazy=lazy)
    v_plan, v_trace = v_greedy(graph, k, cb, objective, lazy=lazy)
    trace = PlannerTrace(
        algorithm="s-greedy",
        children={"edge-arm": e_trace, "vertex-arm": v_trace},
        evaluations=e_trace.evaluations + v_trace.evaluations,
    )
    if v_plan.achieved_value > e_plan.achieved_value:
        trace.winner = "vertex-arm"
        trace.steps = v_trace.steps
        return v_plan, trace
    trace.winner = "edge-arm"
    trace.steps = e_trace.steps
    return e_plan, trace


def random_baseline(graph, k, cb, objective, seed):
    """Uniform vertex sample, then a uniform edge sample from the covered edges.

    Seeded (PCG64) and deterministic: the same seed always yields the same
    plan regardless of the objective, which is only used to fill in the
    achieved value. Returns ``(plan, trace)`` like the greedy planners; the
    trace has no steps and no evaluations.
    """
    _require_tu(cb, "random_baseline")
    if k < 0:
        raise ValueError("k must be non-negative")
    rng = np.random.default_rng(seed)
    vids = [v.id for v in graph.vertices]
    n_pick = min(cb.b, len(vids))
    chosen_v = sorted(rng.choice(vids, size=n_pick, replace=False).tolist()) if n_pick else []
    incident = sorted(graph.edges_incident(chosen_v))
    m_pick = min(k, len(incident))
    chosen_e = (
        sorted(rng.choice(incident, size=m_pick, replace=False).tolist())
        if m_pick
        else []
    )
    value = objective.value(chosen_e)
    plan = Plan(vertices=tuple(chosen_v), edges=tuple(chosen_e), achieved_value=value)
    return plan, PlannerTrace(algorithm="random")
