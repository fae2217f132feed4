"""Greedy planners for budgeted broadcast/verify selection.

All planners are deterministic: every argmax tie breaks to the lowest id, so
repeated runs (and any evaluation schedule) produce identical plans. Each
planner returns ``(Plan, PlannerTrace)``; the trace logs selections, phase
markers, and evaluation counts, and is what the certification module uses to
compute a-posteriori approximation factors.

* ``m_greedy`` — vertex greedy on the nested modular objective g, one variant
  per budget regime (cardinality, knapsack best-of-two, partition matroid),
  followed by top-k edge extraction.
* ``e_greedy`` — edge greedy (phase I), witness cover construction, then a
  communication-free local-optimization phase (phase II) when k > b.
* ``v_greedy`` — vertex greedy on h(V) = f(edges(V)) that stops as soon as
  the next pick would exceed the vertex or induced-edge budget.
* ``s_greedy`` — best of ``e_greedy`` and ``v_greedy`` (tie: edge arm).
* ``random_baseline`` — seeded uniform vertex sample, then a uniform edge
  sample from the covered edges.

``e_greedy`` and ``v_greedy`` take every gain from one ``objective.oracle()``
per run, which tracks the committed edges; only the final achieved value
comes from the dense ``objective.value``. ``lazy=True`` switches the inner
argmax to lazy evaluation with stale upper bounds (Minoux), valid because
oracle gains are non-negative and diminishing for monotone submodular
objectives; the selection sequence is identical to the eager loop and never
uses more gain evaluations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Plan, TotalUniform, TotalNonuniform, IndividualUniform
from .objectives import g_modular

__all__ = [
    "PlannerConfig",
    "TraceStep",
    "PlannerTrace",
    "GreedySelector",
    "m_greedy",
    "e_greedy",
    "v_greedy",
    "s_greedy",
    "random_baseline",
]


@dataclass(frozen=True)
class PlannerConfig:
    """Budgets and execution options shared by the CLI and sweep harness."""

    k: int
    cb: object
    lazy: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")


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
    ties break to the lowest candidate id. In lazy mode a max-heap of stale
    bounds is kept; an entry is only trusted once re-evaluated in the current
    round, which reproduces the eager selection sequence exactly whenever
    gains are diminishing (monotone submodular objectives) while skipping
    most evaluations.
    """

    def __init__(self, candidates, gain_fn, lazy=False):
        self._pool = set(candidates)
        self._gain = gain_fn
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
        """Best (candidate, gain) under current state, or None if the pool is empty."""
        if not self._pool:
            return None
        self._round += 1
        if not self._lazy:
            best_c = None
            best_g = -math.inf
            for c in sorted(self._pool):
                g = self._gain(c)
                self.evaluations += 1
                if g > best_g:
                    best_c, best_g = c, g
            return best_c, best_g
        while True:
            neg_g, c, tag = heapq.heappop(self._heap)
            if c not in self._pool:
                continue
            if tag == self._round:
                heapq.heappush(self._heap, (neg_g, c, tag))
                return c, -neg_g
            g = self._gain(c)
            self.evaluations += 1
            heapq.heappush(self._heap, (-g, c, self._round))

    def commit(self, candidate):
        self._pool.discard(candidate)


def _require_tu(cb, who):
    if not isinstance(cb, TotalUniform):
        raise ValueError(f"{who} requires a total-uniform (cardinality) budget")
    if cb.b < 0:
        raise ValueError("budget must be non-negative")


def _require_modular(objective):
    if getattr(objective, "kind", None) != "modular":
        raise ValueError("m_greedy requires a modular objective")


def m_greedy(graph, k, cb, objective, lazy=False):
    """Vertex greedy on the nested objective g, then top-k edge extraction.

    Cardinality budgets run exactly b rounds (zero-gain picks allowed, as in
    the plain greedy recipe). Knapsack budgets run both the plain and the
    cost-benefit variant and keep the better plan. Partition-matroid budgets
    greedily pick the best vertex whose block quota is open.
    """
    _require_modular(objective)
    if k < 0:
        raise ValueError("k must be non-negative")

    cache: dict[frozenset, float] = {}

    def g_of(vset) -> float:
        key = frozenset(vset)
        if key not in cache:
            cache[key] = g_modular(graph, key, k)[0]
        return cache[key]

    def finish(selected, trace):
        value, witness = g_modular(graph, selected, k)
        plan = Plan(vertices=tuple(selected), edges=witness, achieved_value=value)
        return plan, trace

    if k == 0:
        # nothing is verifiable, so nothing is worth broadcasting
        return Plan(), PlannerTrace(algorithm="m-greedy")

    if isinstance(cb, TotalUniform):
        trace = PlannerTrace(algorithm="m-greedy")
        selected: list[int] = []
        current = 0.0

        def gain(vid):
            return g_of(set(selected) | {vid}) - current

        sel = GreedySelector([v.id for v in graph.vertices], gain, lazy=lazy)
        for _ in range(cb.b):
            pick = sel.best()
            if pick is None:
                trace.exhausted = True
                break
            vid, g = pick
            sel.commit(vid)
            selected.append(vid)
            current = g_of(set(selected))
            trace.steps.append(TraceStep("vertex", vid, g, current))
        trace.evaluations = sel.evaluations
        return finish(selected, trace)

    if isinstance(cb, TotalNonuniform):
        def run(scored_by_ratio):
            trace = PlannerTrace(algorithm="m-greedy")
            selected: list[int] = []
            spent = 0.0
            remaining = {v.id for v in graph.vertices}
            while True:
                afford = [
                    vid
                    for vid in sorted(remaining)
                    if graph.vertex(vid).weight <= cb.b - spent + 1e-9
                ]
                if not afford:
                    break
                current = g_of(set(selected))
                best_vid = None
                best_score = -math.inf
                for vid in afford:
                    g = g_of(set(selected) | {vid}) - current
                    trace.evaluations += 1
                    score = g / graph.vertex(vid).weight if scored_by_ratio else g
                    if score > best_score:
                        best_vid, best_score = vid, score
                remaining.discard(best_vid)
                spent += graph.vertex(best_vid).weight
                selected.append(best_vid)
                after = g_of(set(selected))
                trace.steps.append(
                    TraceStep("vertex", best_vid, after - current, after)
                )
            return selected, trace

        plain_sel, plain_tr = run(scored_by_ratio=False)
        ratio_sel, ratio_tr = run(scored_by_ratio=True)
        plain_plan, _ = finish(plain_sel, plain_tr)
        ratio_plan, _ = finish(ratio_sel, ratio_tr)
        trace = PlannerTrace(
            algorithm="m-greedy",
            children={"plain": plain_tr, "cost-benefit": ratio_tr},
        )
        # ties keep the plain variant
        if ratio_plan.achieved_value > plain_plan.achieved_value:
            trace.winner = "cost-benefit"
            trace.steps = ratio_tr.steps
            plan = ratio_plan
        else:
            trace.winner = "plain"
            trace.steps = plain_tr.steps
            plan = plain_plan
        trace.evaluations = plain_tr.evaluations + ratio_tr.evaluations
        return plan, trace

    if isinstance(cb, IndividualUniform):
        block_of = {}
        for i, block in enumerate(cb.blocks):
            for vid in block:
                block_of[vid] = i
        trace = PlannerTrace(algorithm="m-greedy")
        selected: list[int] = []
        used = [0] * len(cb.blocks)
        remaining = {v.id for v in graph.vertices}
        while True:
            feasible = [
                vid
                for vid in sorted(remaining)
                if used[block_of[vid]] < cb.limits[block_of[vid]]
            ]
            if not feasible:
                break
            current = g_of(set(selected))
            best_vid = None
            best_g = -math.inf
            for vid in feasible:
                g = g_of(set(selected) | {vid}) - current
                trace.evaluations += 1
                if g > best_g:
                    best_vid, best_g = vid, g
            remaining.discard(best_vid)
            used[block_of[best_vid]] += 1
            selected.append(best_vid)
            trace.steps.append(
                TraceStep("vertex", best_vid, best_g, g_of(set(selected)))
            )
        return finish(selected, trace)

    raise TypeError(f"unsupported budget {cb!r}")


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
    while True:
        pick = sel.best()
        if pick is None:
            trace.exhausted = True
            break
        vid, g = pick
        new = new_edges(vid)
        if len(selected) + 1 > b or len(covered) + len(new) > k:
            break
        sel.commit(vid)
        selected.append(vid)
        edge_order.extend(sorted(new))
        covered |= new
        oracle.commit(new)
        trace.steps.append(TraceStep("vertex", vid, g, oracle.value))
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
    achieved value.
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
    return Plan(
        vertices=tuple(chosen_v), edges=tuple(chosen_e), achieved_value=value
    )
