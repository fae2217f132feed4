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

Every greedy loop is one ``GreedySelector``, a run from its first round to
the steps of its trace, over a per-run oracle: ``m_greedy`` takes its gains
from a ``TopKOracle`` (g itself), ``e_greedy`` and ``v_greedy`` from one
``objective.oracle()``, which tracks the committed edges. The achieved value
is the running value of that same oracle (for ``m_greedy``, ``g_modular`` of
the picks), so no greedy planner calls the dense ``objective.value``;
``random_baseline``, which runs no oracle, does.

The selector is lazy in one way only. Each round takes one numpy pass of
upper bounds on every candidate's gain and confirms exact gains by
decreasing bound until no candidate left can beat the best of them (Minoux,
1978, with fresh bounds in place of stale gains). A bound of exactly 0.0 is
the exact gain, so a round whose gains are all 0 takes the lowest feasible
id unevaluated. Both vertex bounds are sums over each vertex's incident
edges, and both take them from one graph method,
:meth:`~loopselect.graph.ExchangeGraph.incidence_sums`: one segmented sum
over the graph's one incidence index,
:meth:`~loopselect.graph.ExchangeGraph.ranked_incidences`, widened by the
allowance (L + 2)·2⁻⁵² for its rounding. The bounds:

* ``m_greedy``: ``TopKOracle.upper_bounds``, the positive parts of each
  vertex's incident keys against the top k, at most L = min(k, degree) of
  them nonzero;
* ``e_greedy``: the oracle's ``edge_gains``, every one-edge gain at once,
  bit for bit the exact gains, so each pick confirms one gain;
* ``v_greedy``: per vertex, the sum of its uncovered edges' ``edge_gains``
  (submodularity: Δ(X|S) ≤ Σ_{e∈X} Δ(e|S)), L = its degree, plus the
  oracle's ``gain_slack``.

So the selection sequence is the one a full scan of the pool per round
would give, with fewer gain evaluations. Each pick leaves the pool as it is
made. A trace's ``evaluations`` counts the exact gains. Each time a call
extends a run it logs one DEBUG record on ``loopselect.planners``: the
rounds, bound passes, exact gains and the gains confirmed beyond the first
of their round.

A greedy pick depends only on the picks before it, so the i-th prefix of a
run is the run stopped after i picks (Nemhauser, Wolsey and Fisher, 1978: the
i-th greedy prefix is the greedy solution for cardinality i). Under a
cardinality (``tu``) budget the greedy planners therefore read a cell off a
longer run: ``m_greedy``'s first b picks of its run for k, ``e_greedy``'s
phase 1 as the first min(b, k) edge picks, and ``v_greedy``'s longest prefix
within b vertices and k induced edges. Only phase 2 of ``e_greedy`` is per
call: it starts from a fresh oracle that replays the call's phase-1 picks,
the one way an oracle forks, which for a log-det objective copies no matrix
(its oracles share one read-only base inverse). A sweep passes every cell
one ``runs`` dict, which keeps these runs for one graph and objective,
extended as far as some cell needed, so a grid costs one greedy run per line
rather than per cell; a cell's trace counts only the evaluations its own
call spent. ``runs`` holds one run per
planner: ``m_greedy``'s is for one k, and a call for another k drops it
before building the next, so a sweep that asks for its cells k-major keeps
one such run alive at a time. Without ``runs`` each call runs privately.
Knapsack and partition-matroid budgets have no prefix property, so
``m_greedy`` runs them per call whatever ``runs`` holds.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Plan, TotalNonuniform, TotalUniform, within_limit
from .objectives import TopKOracle, g_modular

log = logging.getLogger(__name__)

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
    """One greedy run: repeated argmax over a shrinking candidate pool with a
    global tie rule, and the steps it took.

    ``gain_fn(c)`` must return the current marginal gain of candidate ``c``;
    ties break to the lowest candidate id. ``upper()`` returns, as an array,
    an upper bound on the current gain of every candidate, in ascending id
    order, 0.0 only where the gain is exactly 0.0. Each round takes one such
    pass and walks the pool by decreasing bound, lowest id first among equal
    bounds, calling ``gain_fn`` until no candidate left can beat the best
    exact gain so far: its bound is lower, or equal with a higher id. A bound
    of 0.0 is taken as the exact gain, since gains are never negative, so a
    round whose gains are all 0 takes the lowest feasible id unevaluated.
    ``feasible(c)`` is asked before a candidate is taken or evaluated, and a
    candidate it rejects leaves the pool for good, so it must only ever turn
    from true to false as the run goes on (a budget being used up);
    rejections are not evaluations. ``evaluations`` counts the calls of
    ``gain_fn``, ``passes`` the bound passes and ``beyond_first`` the
    evaluations that followed another in their round.

    ``best()`` takes the round's pick out of the pool. ``extend(count, stop)``
    takes picks until the run holds ``count`` steps, ``stop()`` turns true
    (a budget filled) or the pool runs dry, and passes each to
    ``take(item, gain)``, which commits it to the run's oracle (and whatever
    other state the run keeps) and returns its :class:`TraceStep`. A pick
    depends only on the picks before it, never on where the run will stop,
    so the first i ``steps`` are those of a run stopped after i picks.
    """

    def __init__(self, candidates, gain_fn, upper, feasible=lambda c: True, take=None):
        self._gain = gain_fn
        self._upper = upper
        self._feasible = feasible
        self._take = take
        self.rounds = self.evaluations = self.passes = self.beyond_first = 0
        self.steps: list[TraceStep] = []
        # the pool: the candidates of ``order`` whose flag in ``left`` is set
        self._order = sorted(set(candidates))
        self._left = np.ones(len(self._order), dtype=bool)
        self._size = len(self._order)

    def __len__(self):
        return self._size

    def best(self):
        """Take the best feasible candidate: its (candidate, gain), or None if there is none."""
        self.rounds += 1
        if not self._size:
            return None
        # a candidate out of the pool bounds -inf, so the walk reaches it last
        bound = np.where(self._left, self._upper(), -math.inf)
        self.passes += 1
        best, best_g, gone, evaluated = None, -math.inf, [], 0
        for at, b in _by_bound(bound):
            c = self._order[at]
            if b == -math.inf or b < best_g or (b == best_g and c > best):
                break  # neither it nor anything after it can win
            if not self._feasible(c):
                gone.append(at)
                continue
            if b == 0.0:
                g = 0.0
            else:
                g = self._gain(c)
                evaluated += 1
            if g > best_g or (g == best_g and c < best):
                best, best_g, best_at = c, g, at
        self.evaluations += evaluated
        self.beyond_first += max(evaluated - 1, 0)
        if best is not None:
            gone.append(best_at)
        for at in gone:
            self._left[at] = False
        self._size -= len(gone)
        return None if best is None else (best, best_g)

    def extend(self, count, stop=lambda: False):
        """Pick until the run holds ``count`` steps, ``stop()`` turns true or the pool
        runs dry."""
        while len(self.steps) < count and not stop() and (pick := self.best()) is not None:
            self.steps.append(self._take(*pick))


def _extend(run, count, what, stop=lambda: False) -> int:
    """``run.extend(count, stop)``, logged as one DEBUG record of what it took
    under the name ``what``; the gain evaluations it spent."""
    before = run.rounds, run.passes, run.evaluations, run.beyond_first
    run.extend(count, stop)
    spent = [now - then for now, then in
             zip((run.rounds, run.passes, run.evaluations, run.beyond_first), before)]
    log.debug("%s run: %d rounds, %d bound passes, %d exact gains, "
              "%d confirmed beyond the first", what, *spent)
    return spent[2]


def _by_bound(bound):
    """``(position, bound)`` pairs by decreasing bound, lowest position first among
    equal bounds; writes over ``bound``.

    A walk mostly stops after a pair or two, so the first eight pairs come
    from repeated argmax (the first maximum is the lowest position) and only
    a walk that reads past them sorts the rest (the pairs taken are ``-inf``
    by then, so they sort last and are cut off).
    """
    first = 8
    for _ in range(min(first, len(bound))):
        at = int(bound.argmax())
        yield at, float(bound[at])
        bound[at] = -math.inf
    if len(bound) > first:
        order = np.lexsort((-bound,))[: len(bound) - first]
        yield from zip(order.tolist(), bound[order].tolist())


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


def _shared(runs, name, build, key=None):
    """Planner ``name``'s run for ``key`` in ``runs``, built on first use after dropping
    its run for another key; a private one when ``runs`` is None."""
    if runs is None:
        return build()
    if name not in runs or runs[name][0] != key:
        runs.pop(name, None)
        runs[name] = key, build()
    return runs[name][1]


def _m_run(graph, k, cb, per_weight=False):
    """``m_greedy``'s run, its gains and their upper bounds from a TopKOracle, and
    the ``_Room`` of ``cb`` that books each pick."""
    oracle = TopKOracle(graph, k)
    room = _Room(graph, cb)
    if per_weight:
        weight = room.weight
        weights = np.array([weight[vid] for vid in sorted(weight)])

        def score(vid):
            return oracle.gain(vid) / weight[vid]

        # division rounds monotonically, so a bound over a weight bounds gain / weight
        def upper():
            return oracle.upper_bounds() / weights
    else:
        score, upper = oracle.gain, oracle.upper_bounds

    def take(vid, _score):
        room.charge(vid)
        before = oracle.value
        oracle.commit(vid)
        return TraceStep("vertex", vid, oracle.value - before, oracle.value)

    return GreedySelector(list(graph.vertex_columns[0]), score, upper, feasible=room.fits,
                          take=take), room


def m_greedy(graph, k, cb, objective, runs=None):
    """Vertex greedy on the nested objective g, then top-k edge extraction.

    One greedy run over the vertices takes every gain from a
    :class:`~loopselect.objectives.TopKOracle` and skips the vertices the
    budget can no longer afford. Cardinality budgets therefore run exactly b
    rounds (zero-gain picks allowed, as in the plain greedy recipe) and
    partition-matroid budgets pick the best vertex whose block quota is open.
    Knapsack budgets run twice, scoring by gain and by gain per unit weight
    (cost-benefit), and keep the better plan; when every weight is 1.0 the
    two runs agree step for step, so the cost-benefit child is a copy of the
    plain one that spent no evaluations, and the plain arm wins the tie.
    Under a cardinality budget the plan is the first b picks of the run for
    this k, which ``runs`` (see the module docstring) shares across the cells
    of a sweep.
    """
    _require_modular(objective)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        # nothing is verifiable, so nothing is worth broadcasting
        return Plan(), PlannerTrace(algorithm="m-greedy")
    n = graph.num_vertices

    def planned(steps, evaluations, exhausted):
        selected = [s.item for s in steps]
        value, witness = g_modular(graph, selected, k)
        trace = PlannerTrace(
            algorithm="m-greedy", steps=steps, evaluations=evaluations, exhausted=exhausted
        )
        return Plan(vertices=tuple(selected), edges=witness, achieved_value=value), trace

    if isinstance(cb, TotalUniform):
        # a run that no cardinality stops; this cell is its first b picks
        run, room = _shared(runs, "m-greedy", lambda: _m_run(graph, k, TotalUniform(n)), key=k)
        evaluations = _extend(run, cb.b, f"m-greedy (k={k})", room.full)
        steps = run.steps[: cb.b]
        # every vertex was picked and the budget could still afford more
        return planned(steps, evaluations, len(steps) == n < cb.b)

    def arm(per_weight):
        run, room = _m_run(graph, k, cb, per_weight)
        evaluations = _extend(run, n, f"m-greedy (k={k})", room.full)
        return planned(run.steps, evaluations, len(run.steps) == n and not room.full())

    if not isinstance(cb, TotalNonuniform):
        return arm(per_weight=False)
    plain = arm(per_weight=False)
    if all(w == 1.0 for w in graph.vertex_columns[2]):
        # gain / 1.0 is the gain to the bit: the cost-benefit run is the plain one
        cost_benefit = plain[0], replace(plain[1], evaluations=0)
    else:
        cost_benefit = arm(per_weight=True)
    return _best_arm("m-greedy", ("plain", plain), ("cost-benefit", cost_benefit))


def _best_arm(algorithm, first, second):
    """The better of two named ``(plan, trace)`` runs, with both traces as children.

    Ties keep the first run, and two plans with the same edge set tie
    whatever their values: each value comes from its own run's oracle, and
    two oracles that committed the same edges in different orders can round
    them an ulp apart. The returned trace takes the winner's steps and
    ``exhausted`` flag and sums the evaluations of both.
    """
    (a, (a_plan, a_trace)), (b, (b_plan, b_trace)) = first, second
    won, plan, trace = a, a_plan, a_trace
    if (b_plan.achieved_value > a_plan.achieved_value
            and set(b_plan.edges) != set(a_plan.edges)):
        won, plan, trace = b, b_plan, b_trace
    return plan, PlannerTrace(
        algorithm=algorithm,
        steps=trace.steps,
        evaluations=a_trace.evaluations + b_trace.evaluations,
        exhausted=trace.exhausted,
        children={a: a_trace, b: b_trace},
        winner=won,
    )


def _witness_cover(graph, selected_edges):
    """Deterministic vertex cover of the selected edges.

    Scans edges in selection order; each still-uncovered edge contributes the
    endpoint covering more of the remaining uncovered selection (tie: lower
    id). Never larger than the number of selected edges.
    """
    _, us, vs, _ = graph.edge_columns
    ends = [(us[i], vs[i]) for i in map(graph.edge_row, selected_edges)]
    cover: list[int] = []
    for u, v in ends:
        if u in cover or v in cover:
            continue
        left = [x for a, b in ends if a not in cover and b not in cover for x in (a, b)]
        cu, cv = left.count(u), left.count(v)
        cover.append(u if cu > cv else v if cv > cu else min(u, v))
    return cover


def _edge_run(graph, oracle, candidates, phase):
    """Edge greedy over ``candidates`` on ``oracle``, its steps marked ``phase``.

    Its bounds are the oracle's one-edge gains, exact, so each pick confirms
    one gain.
    """
    order = sorted(candidates)
    rows = np.fromiter(map(graph.edge_row, order), np.intp, len(order))

    def take(eid, g):
        oracle.commit((eid,))
        return TraceStep(phase, eid, g, oracle.value)

    return GreedySelector(order, lambda eid: oracle.gain((eid,)),
                          lambda: oracle.edge_gains(rows), take=take)


def _achieved(steps) -> float:
    """A run's value from the oracle that made its picks: its last step's, 0.0 if none."""
    return steps[-1].value if steps else 0.0


def _replayed(objective, edge_ids):
    """A fresh ``objective.oracle()`` with ``edge_ids`` committed one by one.

    Every oracle is deterministic, so this is bit for bit the state of a run
    that committed them in that order.
    """
    oracle = objective.oracle()
    for eid in edge_ids:
        oracle.commit((eid,))
    return oracle


def e_greedy(graph, k, cb, objective, runs=None):
    """Edge greedy with a witness cover and a communication-free second phase.

    Phase 1 is the first min(b, k) picks of one edge-greedy run, which
    ``runs`` shares across the cells of a sweep. Phase 2 (k > b) is this
    cell's own: it starts from a fresh oracle that replays phase 1, so a
    private run and a shared one fork the same way.
    """
    _require_tu(cb, "e_greedy")
    if k < 0:
        raise ValueError("k must be non-negative")
    b = cb.b
    rounds = min(b, k)
    run = _shared(
        runs,
        "e-greedy",
        lambda: _edge_run(graph, objective.oracle(), graph.edge_columns[0], "phase1"),
    )
    evaluations = _extend(run, rounds, "e-greedy phase1")
    steps = run.steps[:rounds]
    exhausted = len(steps) < rounds  # the pool ran dry first
    selected = [s.item for s in steps]

    cover = _witness_cover(graph, selected)

    if k > b:
        oracle = _replayed(objective, selected)
        phase2 = _edge_run(graph, oracle, graph.edges_incident(cover) - set(selected), "phase2")
        evaluations += _extend(phase2, k - b, "e-greedy phase2")
        steps += phase2.steps
        selected += [s.item for s in phase2.steps]

    plan = Plan(vertices=tuple(cover), edges=tuple(selected), achieved_value=_achieved(steps))
    trace = PlannerTrace(
        algorithm="e-greedy", steps=steps, evaluations=evaluations, exhausted=exhausted
    )
    return plan, trace


def _vertex_run(graph, objective):
    """``v_greedy``'s run, which no budget stops, and the sorted new edges of each pick.

    A vertex's gain is that of its live edges, the incident ones no pick
    covers yet, and by submodularity it is at most the sum of their one-edge
    gains, Δ(X|S) ≤ Σ_{e∈X} Δ(e|S). Each round's bound is that sum for
    every vertex: the graph's :meth:`~loopselect.graph.ExchangeGraph.incidence_sums`
    of the oracle's ``edge_gains`` on the live edges, a covered edge counting
    0, which widens each sum by its allowance for L = the degree and so
    covers the sum's rounding and the gain's, plus the oracle's
    ``gain_slack`` wherever a live edge is left, which covers what rounding
    can lift a set's gain above its edges'. A vertex with no live edge gets
    exactly 0.0, its exact gain. The ``live`` mask over edge rows is the
    run's one record of what its picks cover, and a vertex's live edges are
    read off its segment of the graph's incidence index.
    """
    oracle = objective.oracle()
    news: list[list[int]] = []
    graph.index_arrays()  # an edge with an unknown endpoint is a ValueError
    starts, flat = graph.ranked_incidences()
    eids = graph.edge_columns[0]
    live = np.ones(graph.num_edges, dtype=bool)  # by edge row

    def upper():
        gains = np.zeros(graph.num_edges)  # a covered edge counts 0
        gains[live] = oracle.edge_gains(np.flatnonzero(live))
        bound = graph.incidence_sums(gains[flat])
        if oracle.gain_slack:
            bound += oracle.gain_slack * (graph.incidence_sums(live[flat]) > 0)
        return bound

    def new_edges(vid):
        """``vid``'s live edges: their rows and their ids."""
        i = graph.vertex_row(vid)
        segment = flat[starts[i]:starts[i + 1]]
        rows = segment[live[segment]]
        return rows, [eids[row] for row in rows.tolist()]

    def take(vid, g):
        rows, new = new_edges(vid)
        news.append(sorted(new))
        live[rows] = False
        oracle.commit(new)
        return TraceStep("vertex", vid, g, oracle.value)

    return GreedySelector(list(graph.vertex_columns[0]), lambda vid: oracle.gain(new_edges(vid)[1]),
                          upper, take=take), news


def v_greedy(graph, k, cb, objective, runs=None):
    """Vertex greedy on h(V) = f(edges(V)); stops before any budget violation.

    The plan is the longest prefix of one vertex-greedy run with at most b
    vertices and k induced edges, which ``runs`` shares across the cells of
    a sweep: the run commits every pick it makes, and the budget only cuts it.
    """
    _require_tu(cb, "v_greedy")
    if k < 0:
        raise ValueError("k must be non-negative")
    run, news = _shared(runs, "v-greedy", lambda: _vertex_run(graph, objective))
    # the run reaches b picks, a dry pool, or a pick whose new edges pass k
    evaluations = _extend(run, cb.b, "v-greedy", stop=lambda: sum(map(len, news)) > k)
    picks = count = 0
    while picks < min(cb.b, len(news)) and count + len(news[picks]) <= k:
        count += len(news[picks])
        picks += 1
    steps = run.steps[:picks]
    edge_order = [eid for new in news[:picks] for eid in new]

    plan = Plan(
        vertices=tuple(s.item for s in steps),
        edges=tuple(edge_order),
        achieved_value=_achieved(steps),
    )
    trace = PlannerTrace(
        algorithm="v-greedy",
        steps=steps,
        evaluations=evaluations,
        exhausted=picks == graph.num_vertices,  # nothing left to pick
    )
    return plan, trace


def s_greedy(graph, k, cb, objective, runs=None):
    """Best of the edge arm and the vertex arm (ties keep the edge arm)."""
    _require_tu(cb, "s_greedy")
    return _best_arm(
        "s-greedy",
        ("edge-arm", e_greedy(graph, k, cb, objective, runs)),
        ("vertex-arm", v_greedy(graph, k, cb, objective, runs)),
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
    vids = list(graph.vertex_columns[0])
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
