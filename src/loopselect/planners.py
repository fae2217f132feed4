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
``objective.value``. The selector is lazy (Minoux): it keeps stale gains as
upper bounds and re-evaluates only the candidates that could still win a
round. That is valid because oracle gains are non-negative and never grow
for monotone submodular objectives, except by rounding that each oracle
bounds (``gain_slack``), so the selection sequence is the one a full scan
of the pool per round would give, with fewer gain evaluations.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Plan, TotalNonuniform, TotalUniform, within_limit
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
    """Lazy repeated argmax over a shrinking candidate pool with a global tie rule.

    ``gain_fn(c)`` must return the current marginal gain of candidate ``c``;
    ties break to the lowest candidate id. ``feasible(c)`` is asked before a
    candidate is evaluated, and a candidate it rejects leaves the pool for
    good, so it must only ever turn from true to false as the run goes on (a
    budget being used up); rejections are not evaluations. A min-heap of
    ``(-gain, id, round)`` holds every candidate's last gain as a stale bound;
    an entry is only trusted once re-evaluated in the current round. Gains of
    monotone submodular objectives never grow, except by rounding: ``slack``
    bounds that growth, and a stale entry within ``slack`` of the round's
    best is re-evaluated before the best is taken. So each pick is the one
    evaluating the whole pool every round would make, while most
    evaluations are skipped.
    """

    def __init__(self, candidates, gain_fn, feasible=lambda c: True, slack=0.0):
        self._pool = set(candidates)
        self._gain = gain_fn
        self._feasible = feasible
        self._slack = slack
        self._round = 0
        self.evaluations = 0
        # a sorted list is a heap; bound +inf marks "never evaluated"
        self._heap = [(-math.inf, c, -1) for c in sorted(self._pool)]

    def __len__(self):
        return len(self._pool)

    def best(self):
        """Best feasible (candidate, gain) under current state, or None if there is none."""
        self._round += 1
        heap, pool = self._heap, self._pool
        # every pool member has one heap entry; committed ones linger until popped
        while pool:
            neg_g, c, tag = heap[0]
            if c not in pool or not self._feasible(c):
                pool.discard(c)
                heapq.heappop(heap)
            elif tag != self._round:
                self.evaluations += 1
                heapq.heapreplace(heap, (-self._gain(c), c, self._round))
            elif not (self._slack and self._refresh(-neg_g)):
                return c, -neg_g
        return None

    def _refresh(self, g) -> bool:
        """Re-evaluate the stale entries within slack of ``g``; whether there were any."""
        heap, stale, todo = self._heap, [], [0]
        while todo:  # the entries at least g - slack form a subtree at the root
            i = todo.pop()
            if i < len(heap) and -heap[i][0] + self._slack >= g:
                if heap[i][2] != self._round and heap[i][1] in self._pool:
                    stale.append(i)
                todo += (2 * i + 1, 2 * i + 2)
        for i in stale:
            c = heap[i][1]
            if self._feasible(c):
                self.evaluations += 1
                heap[i] = (-self._gain(c), c, self._round)
            else:
                self._pool.discard(c)
        if stale:
            heapq.heapify(heap)
        return bool(stale)

    def commit(self, candidate):
        self._pool.discard(candidate)


class _Room:
    """What is left of a communication budget during one greedy run.

    ``fits(vid)`` tells whether vertex ``vid`` can still be broadcast and
    ``charge(vid)`` books it. ``full()`` tells that no vertex fits any more,
    so a run can stop without rejecting the rest one by one.

    Blocks, weights and limits come from
    :meth:`~loopselect.graph.ExchangeGraph.budget_blocks` at construction.
    Each block keeps a threshold: the heaviest of its distinct weights that
    :func:`~loopselect.graph.within_limit` still admits beside the booked
    weights, or ``-inf`` when none is. ``within_limit`` only turns false as
    a weight grows, so a bisection of the sorted weights finds it, and a
    vertex fits exactly when its weight is at most its block's threshold:
    the rule of ``budget_satisfied`` to the last bit. Bookings only lower a
    threshold, so ``fits`` only ever turns from true to false, as the
    feasibility predicate of :class:`GreedySelector` must.
    """

    def __init__(self, graph, cb):
        self._block, self.weight, self._limits = graph.budget_blocks(cb)
        # each block's distinct weights, lightest first
        ladder = [set() for _ in self._limits]
        for vid, block in self._block.items():
            ladder[block].add(self.weight[vid])
        self._ladder = list(map(sorted, ladder))
        self._booked = [[] for _ in self._limits]
        self._threshold = [self._heaviest_fit(block) for block in range(len(self._limits))]

    def _heaviest_fit(self, block):
        booked, limit = self._booked[block], self._limits[block]
        ladder = self._ladder[block]
        i = bisect.bisect_left(ladder, True, key=lambda w: not within_limit([*booked, w], limit))
        return ladder[i - 1] if i else -math.inf

    def fits(self, vid) -> bool:
        return self.weight[vid] <= self._threshold[self._block[vid]]

    def full(self) -> bool:
        return max(self._threshold, default=-math.inf) == -math.inf

    def charge(self, vid):
        block = self._block[vid]
        self._booked[block].append(self.weight[vid])
        self._threshold[block] = self._heaviest_fit(block)


def _require_tu(cb, who):
    if not isinstance(cb, TotalUniform):
        raise ValueError(f"{who} requires a total-uniform (cardinality) budget")


def _require_modular(objective):
    if getattr(objective, "kind", None) != "modular":
        raise ValueError("m_greedy requires a modular objective")


def m_greedy(graph, k, cb, objective):
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
        sel = GreedySelector([v.id for v in graph.vertices], score, feasible=room.fits)
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
    plan, trace = _best_arm(
        "m-greedy", ("plain", run(per_weight=False)), ("cost-benefit", run(per_weight=True))
    )
    trace.exhausted = trace.children[trace.winner].exhausted
    return plan, trace


def _best_arm(algorithm, first, second):
    """The better of two named ``(plan, trace)`` runs, with both traces as children.

    Ties keep the first run. The returned trace takes the winner's steps and
    sums the evaluations of both.
    """
    (a, (a_plan, a_trace)), (b, (b_plan, b_trace)) = first, second
    won, plan, trace = a, a_plan, a_trace
    if b_plan.achieved_value > a_plan.achieved_value:
        won, plan, trace = b, b_plan, b_trace
    return plan, PlannerTrace(
        algorithm=algorithm,
        steps=trace.steps,
        evaluations=a_trace.evaluations + b_trace.evaluations,
        children={a: a_trace, b: b_trace},
        winner=won,
    )


def _witness_cover(graph, selected_edges):
    """Deterministic vertex cover of the selected edges.

    Scans edges in selection order; each still-uncovered edge contributes the
    endpoint covering more of the remaining uncovered selection (tie: lower
    id). Never larger than the number of selected edges.
    """
    ends = [(graph.edge(eid).u, graph.edge(eid).v) for eid in selected_edges]
    cover: list[int] = []
    for u, v in ends:
        if u in cover or v in cover:
            continue
        left = [x for a, b in ends if a not in cover and b not in cover for x in (a, b)]
        cu, cv = left.count(u), left.count(v)
        cover.append(u if cu > cv else v if cv > cu else min(u, v))
    return cover


def e_greedy(graph, k, cb, objective):
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

    def grow(sel, rounds, phase):
        """Up to ``rounds`` greedy picks; whether the pool ran dry first."""
        for _ in range(rounds):
            pick = sel.best()
            if pick is None:
                return True
            eid, g = pick
            sel.commit(eid)
            selected.append(eid)
            oracle.commit((eid,))
            trace.steps.append(TraceStep(phase, eid, g, oracle.value))
        return False

    sel = GreedySelector([e.id for e in graph.edges], gain, slack=oracle.gain_slack)
    trace.exhausted = grow(sel, min(b, k), "phase1")
    trace.evaluations = sel.evaluations

    cover = _witness_cover(graph, selected)

    if k > b:
        free = graph.edges_incident(cover) - set(selected)
        sel = GreedySelector(free, gain, slack=oracle.gain_slack)
        grow(sel, k - b, "phase2")
        trace.evaluations += sel.evaluations

    value = objective.value(selected)
    plan = Plan(vertices=tuple(cover), edges=tuple(selected), achieved_value=value)
    return plan, trace


def v_greedy(graph, k, cb, objective):
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

    sel = GreedySelector([v.id for v in graph.vertices], gain, slack=oracle.gain_slack)
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


def s_greedy(graph, k, cb, objective):
    """Best of the edge arm and the vertex arm (ties keep the edge arm)."""
    _require_tu(cb, "s_greedy")
    return _best_arm(
        "s-greedy",
        ("edge-arm", e_greedy(graph, k, cb, objective)),
        ("vertex-arm", v_greedy(graph, k, cb, objective)),
    )


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
