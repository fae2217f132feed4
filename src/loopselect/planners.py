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

Every greedy loop is one ``GreedySelector``, a run from the batch that
seeds it to the steps of its trace, over a per-run oracle: ``m_greedy``
takes its gains from a ``TopKOracle`` (g itself), ``e_greedy`` and
``v_greedy`` from one ``objective.oracle()``, which tracks the committed
edges. The achieved value is the running value of that same oracle (for
``m_greedy``, ``g_modular`` of the picks), so no greedy planner calls the
dense ``objective.value``; ``random_baseline``, which runs no oracle, does.
The selector is lazy (Minoux): it keeps stale gains as
upper bounds and re-evaluates only the candidates that could still win a
round. Its heap starts from one batch of gains, the oracle's ``gains`` over
the whole pool (as CELF does). Every oracle's batch gain is bit for bit its
scalar ``gain`` at the same state, so the batch counts as the first round's
evaluation and the first pick costs none. Later rounds are valid because
oracle gains are non-negative and never grow for monotone submodular
objectives, except by rounding that each oracle bounds (``gain_slack``), so
the selection sequence is the one a full scan of the pool per round would
give, with fewer gain evaluations. Each pick leaves the pool as it is made.
A trace's ``evaluations`` counts the scalar gains; the batch is not one.

``m_greedy`` runs without the heap. Once its top k is full, every commit
raises the tail of the top k and so lowers every stale gain, and the heap
re-scored hundreds of vertices per pick. Instead each round takes one pass
of ``TopKOracle.upper_bounds``, which bounds every vertex's gain from above
by a segmented numpy sum, widened by an allowance for its rounding, and
confirms exact gains by decreasing bound until no vertex left can beat the
best of them. A bound of exactly 0.0 is the exact gain, so a round whose
gains are all 0 takes the lowest feasible id unevaluated. Plans are the
heap's to the bit, and the golden 10×200 runs confirm 20 exact gains for
20 picks (5,631 with the heap). Each run logs one DEBUG record on
``loopselect.planners``: its rounds, bound passes, exact gains and the
gains confirmed beyond the first of their round.

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
import heapq
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
    """One lazy greedy run: repeated argmax over a shrinking candidate pool with a
    global tie rule, and the steps it took.

    ``gain_fn(c)`` must return the current marginal gain of candidate ``c``;
    ties break to the lowest candidate id. ``bounds(cs)`` returns, as an
    array, the gains of the candidates ``cs`` (a sorted list) in one batch,
    each bit for bit what ``gain_fn`` returns at the state the selector is
    built in (every oracle's ``gains`` is its ``gain`` so), so the batch
    counts as evaluated in the first round and the first pick costs no call
    of ``gain_fn``. ``feasible(c)`` is asked before a candidate is taken or
    evaluated, and a candidate it rejects leaves the pool for good, so it
    must only ever turn from true to false as the run goes on (a budget
    being used up); rejections are not evaluations. A min-heap of
    ``(-gain, id, round)`` holds one entry per candidate left in the pool:
    its last gain, a stale bound after the round it was taken in, starting
    from ``bounds`` (as CELF does: Leskovec et al., "Cost-effective Outbreak
    Detection in Networks", 2007); an entry is only trusted in its own
    round. Gains of monotone submodular objectives never grow, except by
    rounding: ``slack`` bounds that growth, and a stale entry within
    ``slack`` of the round's best is re-evaluated before the best is taken.
    So each pick is the one evaluating the whole pool every round would
    make, while most evaluations are skipped. ``evaluations`` counts the
    calls of ``gain_fn``; the batch is not one.

    ``upper()``, when given, replaces the heap and ``bounds``: it returns, as
    an array, an upper bound on the current gain of every candidate, in
    ascending id order, 0.0 only where the gain is exactly 0.0. Each round
    takes one such pass and walks the pool by decreasing bound, lowest id
    first among equal bounds, calling ``gain_fn`` until no candidate left can
    beat the best exact gain so far: its bound is lower, or equal with a
    higher id. A bound of 0.0 is taken as the exact gain, since gains are
    never negative, so a round whose gains are all 0 takes the lowest
    feasible id unevaluated. ``passes`` counts the bound passes and
    ``beyond_first`` the evaluations that followed another in their round.

    ``best()`` takes the round's pick out of the pool. ``extend(count)``
    takes picks until the run holds ``count`` steps, ``full()`` turns true
    or the pool runs dry, and passes each to ``take(item, gain)``, which
    commits it to the run's oracle (and whatever other state the run keeps)
    and returns its :class:`TraceStep`. A pick depends only on the picks
    before it, never on where the run will stop, so the first i ``steps``
    are those of a run stopped after i picks.
    """

    def __init__(self, candidates, gain_fn, bounds=None, feasible=lambda c: True, slack=0.0,
                 take=None, full=lambda: False, upper=None):
        self._gain = gain_fn
        self._feasible = feasible
        self._slack = slack
        self._take = take
        self._upper = upper
        self.full = full
        self.rounds = self.evaluations = self.passes = self.beyond_first = 0
        self.steps: list[TraceStep] = []
        order = sorted(set(candidates))
        if upper is None:
            self._heap = [(-g, c, 1) for g, c in zip(bounds(order).tolist(), order)]
            heapq.heapify(self._heap)
        else:
            # the pool as positions in ``order``
            self._order, self._left = order, np.arange(len(order))

    def __len__(self):
        return len(self._heap) if self._upper is None else len(self._left)

    def best(self):
        """Take the best feasible candidate: its (candidate, gain), or None if there is none."""
        self.rounds += 1
        if self._upper is not None:
            return self._best_bounded()
        heap = self._heap
        while heap:
            neg_g, c, tag = heap[0]
            if not self._feasible(c):
                heapq.heappop(heap)
            elif tag != self.rounds:
                self.evaluations += 1
                heapq.heapreplace(heap, (-self._gain(c), c, self.rounds))
            elif not (self._slack and self._refresh(-neg_g)):
                heapq.heappop(heap)
                return c, -neg_g
        return None

    def _best_bounded(self):
        """``best()`` from one pass of ``upper`` over the pool."""
        left = self._left
        if not len(left):
            return None
        bound = self._upper()[left]
        self.passes += 1
        best, best_g, gone, evaluated = None, -math.inf, [], 0
        for at, b in _by_bound(bound):
            c = self._order[left[at]]
            if b < best_g or (b == best_g and c > best):
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
        self._left = np.delete(left, gone)
        return None if best is None else (best, best_g)

    def _refresh(self, g) -> bool:
        """Re-evaluate the stale entries within slack of ``g``, dropping those
        ``feasible`` rejects; whether there were any."""
        heap, stale, todo = self._heap, [], [0]
        while todo:  # the entries at least g - slack form a subtree at the root
            i = todo.pop()
            if i < len(heap) and -heap[i][0] + self._slack >= g:
                if heap[i][2] != self.rounds:
                    stale.append(i)
                todo += (2 * i + 1, 2 * i + 2)
        # from the back, so that a rejected entry's slot takes the last entry,
        # which is either done or not stale
        for i in sorted(stale, reverse=True):
            c = heap[i][1]
            if self._feasible(c):
                self.evaluations += 1
                heap[i] = (-self._gain(c), c, self.rounds)
            else:
                heap[i] = heap[-1]
                heap.pop()
        if stale:
            heapq.heapify(heap)
        return bool(stale)

    def extend(self, count) -> int:
        """Pick until the run holds ``count`` steps (or stops); the gain evaluations spent."""
        spent = self.evaluations
        while len(self.steps) < count and not self.full() and (pick := self.best()) is not None:
            self.steps.append(self._take(*pick))
        return self.evaluations - spent


def _by_bound(bound):
    """``(position, bound)`` pairs by decreasing bound, lowest position first among
    equal bounds; bounds are never ``-inf``.

    A walk mostly stops after a pair or two, so the first eight pairs come
    from repeated argmax (the first maximum is the lowest position) and only
    a walk that reads past them sorts the rest.
    """
    first = 8
    bound = bound.copy()
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
    """``m_greedy``'s run: gains and their upper bounds from a TopKOracle, each pick
    booked in a ``_Room`` of ``cb``."""
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

    return GreedySelector(list(graph.vertex_columns[0]), score, feasible=room.fits, take=take,
                          full=room.full, upper=upper)


def _m_extend(run, count, k) -> int:
    """``run.extend(count)``, logged as one DEBUG record of what it took."""
    before = run.rounds, run.passes, run.evaluations, run.beyond_first
    run.extend(count)
    spent = [now - then for now, then in
             zip((run.rounds, run.passes, run.evaluations, run.beyond_first), before)]
    log.debug("m-greedy run (k=%d): %d rounds, %d bound passes, %d exact gains, "
              "%d confirmed beyond the first", k, *spent)
    return spent[2]


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
        run = _shared(runs, "m-greedy", lambda: _m_run(graph, k, TotalUniform(n)), key=k)
        evaluations = _m_extend(run, cb.b, k)
        steps = run.steps[: cb.b]
        # every vertex was picked and the budget could still afford more
        return planned(steps, evaluations, len(steps) == n < cb.b)

    def arm(per_weight):
        run = _m_run(graph, k, cb, per_weight)
        evaluations = _m_extend(run, n, k)
        return planned(run.steps, evaluations, len(run.steps) == n and not run.full())

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


def _edge_run(oracle, candidates, phase):
    """Edge greedy over ``candidates`` on ``oracle``, its steps marked ``phase``."""

    def take(eid, g):
        oracle.commit((eid,))
        return TraceStep(phase, eid, g, oracle.value)

    return GreedySelector(
        candidates,
        lambda eid: oracle.gain((eid,)),
        lambda eids: oracle.gains([(eid,) for eid in eids]),
        slack=oracle.gain_slack,
        take=take,
    )


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
        lambda: _edge_run(objective.oracle(), list(graph.edge_columns[0]), "phase1"),
    )
    evaluations = run.extend(rounds)
    steps = run.steps[:rounds]
    exhausted = len(steps) < rounds  # the pool ran dry first
    selected = [s.item for s in steps]

    cover = _witness_cover(graph, selected)

    if k > b:
        oracle = _replayed(objective, selected)
        phase2 = _edge_run(oracle, graph.edges_incident(cover) - set(selected), "phase2")
        evaluations += phase2.extend(k - b)
        steps += phase2.steps
        selected += [s.item for s in phase2.steps]

    plan = Plan(vertices=tuple(cover), edges=tuple(selected), achieved_value=_achieved(steps))
    trace = PlannerTrace(
        algorithm="e-greedy", steps=steps, evaluations=evaluations, exhausted=exhausted
    )
    return plan, trace


def _vertex_run(graph, objective):
    """``v_greedy``'s run, which no budget stops, and the sorted new edges of each pick."""
    oracle = objective.oracle()
    covered: set[int] = set()
    news: list[list[int]] = []

    def new_edges(vid):
        return graph.edges_incident((vid,)) - covered

    def take(vid, g):
        new = new_edges(vid)
        news.append(sorted(new))
        covered.update(new)
        oracle.commit(new)
        return TraceStep("vertex", vid, g, oracle.value)

    return GreedySelector(
        list(graph.vertex_columns[0]),
        lambda vid: oracle.gain(new_edges(vid)),
        lambda vids: oracle.gains([new_edges(vid) for vid in vids]),
        slack=oracle.gain_slack,
        take=take,
    ), news


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
    evaluations = picks = covered = 0
    # stop at b picks, a dry pool, or the first pick whose new edges would pass k
    while picks < cb.b:
        evaluations += run.extend(picks + 1)
        if len(run.steps) == picks or covered + len(news[picks]) > k:
            break
        covered += len(news[picks])
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
