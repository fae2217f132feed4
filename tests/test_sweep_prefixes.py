"""Property: a sweep cell read off a shared greedy run equals the planner's own run.

Under a cardinality budget the greedy planners share one run per grid line
through ``runs`` (see ``loopselect.planners``): ``m_greedy`` one per k,
``e_greedy``'s phase 1 and ``v_greedy`` one per grid. The cells here come in
random order, as a sweep over an unsorted grid would ask for them, and every
grid holds b = 0, a b past n, k = 0 and a k past m. The reference is the
planners as one loop per cell, each stopped by its own budget.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    DCritObjective,
    GreedySelector,
    ModularObjective,
    Plan,
    PlannerTrace,
    SweepSpec,
    TopKOracle,
    TotalUniform,
    TraceStep,
    TreeConnObjective,
    alpha_posteriori,
    cli,
    e_greedy,
    g_modular,
    m_greedy,
    objectives,
    planners,
    s_greedy,
    sweep_rows,
    v_greedy,
)
from loopselect.generate import GenSpec, generate_exchange_graph, generate_pose_graph

OBJECTIVES = {
    "modular": lambda graph, pose_graph: ModularObjective(graph),
    "treeconn": TreeConnObjective,
    "dcrit": DCritObjective,
}
PLANNERS = {"mgreedy": m_greedy, "egreedy": e_greedy, "vgreedy": v_greedy, "sgreedy": s_greedy}


def reference_m_greedy(graph, k, b, objective):
    trace = PlannerTrace(algorithm="m-greedy")
    if k == 0:
        return Plan(), trace
    oracle = TopKOracle(graph, k)
    sel = GreedySelector([v.id for v in graph.vertices], oracle.gain)
    selected = []
    while len(selected) < b and (pick := sel.best()) is not None:
        vid = pick[0]
        sel.commit(vid)
        selected.append(vid)
        before = oracle.value
        oracle.commit(vid)
        trace.steps.append(TraceStep("vertex", vid, oracle.value - before, oracle.value))
    trace.evaluations = sel.evaluations
    trace.exhausted = len(selected) == graph.num_vertices < b
    value, witness = g_modular(graph, selected, k)
    return Plan(vertices=tuple(selected), edges=witness, achieved_value=value), trace


def reference_e_greedy(graph, k, b, objective):
    trace = PlannerTrace(algorithm="e-greedy")
    selected = []
    oracle = objective.oracle()

    def grow(candidates, rounds, phase):
        sel = GreedySelector(candidates, lambda eid: oracle.gain((eid,)), slack=oracle.gain_slack)
        for _ in range(rounds):
            pick = sel.best()
            if pick is None:
                trace.exhausted |= phase == "phase1"
                break
            sel.commit(pick[0])
            selected.append(pick[0])
            oracle.commit((pick[0],))
            trace.steps.append(TraceStep(phase, pick[0], pick[1], oracle.value))
        trace.evaluations += sel.evaluations

    grow([e.id for e in graph.edges], min(b, k), "phase1")
    cover = planners._witness_cover(graph, selected)
    if k > b:
        grow(graph.edges_incident(cover) - set(selected), k - b, "phase2")
    value = objective.value(selected)
    return Plan(vertices=tuple(cover), edges=tuple(selected), achieved_value=value), trace


def reference_v_greedy(graph, k, b, objective):
    trace = PlannerTrace(algorithm="v-greedy")
    selected, edge_order, covered = [], [], set()
    oracle = objective.oracle()

    def new_edges(vid):
        return graph.edges_incident((vid,)) - covered

    sel = GreedySelector(
        [v.id for v in graph.vertices], lambda vid: oracle.gain(new_edges(vid)),
        slack=oracle.gain_slack,
    )
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
    return Plan(vertices=tuple(selected), edges=tuple(edge_order), achieved_value=value), trace


def reference_s_greedy(graph, k, b, objective):
    return planners._best_arm(
        "s-greedy",
        ("edge-arm", reference_e_greedy(graph, k, b, objective)),
        ("vertex-arm", reference_v_greedy(graph, k, b, objective)),
    )


REFERENCES = {
    "mgreedy": reference_m_greedy,
    "egreedy": reference_e_greedy,
    "vgreedy": reference_v_greedy,
    "sgreedy": reference_s_greedy,
}


@st.composite
def instances(draw):
    """A small generated exchange graph and its pose graph."""
    r = draw(st.integers(2, 3))
    vpr = draw(st.integers(1, 4))
    n = r * vpr
    pairs = sum(1 for u in range(n) for v in range(u + 1, n) if u // vpr != v // vpr)
    spec = GenSpec(
        num_robots=r,
        vertices_per_robot=vpr,
        num_edges=draw(st.integers(1, min(pairs, 14))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    graph = generate_exchange_graph(spec)
    return graph, generate_pose_graph(spec, graph)


def grid(draw, top):
    """Budgets 0..top + 2 in random order, always with 0 and one past ``top``."""
    inner = draw(st.lists(st.integers(1, max(top, 1)), max_size=3, unique=True))
    values = {0, top + draw(st.integers(1, 2)), *inner}
    return draw(st.permutations(sorted(values)))


def assert_same_cell(got, want, b, k, delta):
    (plan, trace), (want_plan, want_trace) = got, want
    assert plan.vertices == want_plan.vertices
    assert plan.edges == want_plan.edges
    assert plan.achieved_value.hex() == want_plan.achieved_value.hex()
    assert trace.steps == want_trace.steps
    assert trace.winner == want_trace.winner
    assert trace.exhausted == want_trace.exhausted
    for arm, child in (want_trace.children or {}).items():
        assert trace.children[arm].steps == child.steps, arm
        assert trace.children[arm].exhausted == child.exhausted, arm
    if trace.algorithm != "m-greedy" and min(b, k, delta) >= 1:
        assert alpha_posteriori(trace, b, k, delta) == alpha_posteriori(want_trace, b, k, delta)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), instance=instances(), name=st.sampled_from(sorted(OBJECTIVES)))
def test_shared_runs_give_the_per_cell_plans(data, instance, name):
    graph, pose_graph = instance
    objective = OBJECTIVES[name](graph, pose_graph)
    planners = [p for p in PLANNERS if name == "modular" or p != "mgreedy"]
    planners = data.draw(st.permutations(planners))
    bs, ks = grid(data.draw, graph.num_vertices), grid(data.draw, graph.num_edges)
    delta = graph.max_degree()
    runs = {}
    for b in bs:
        for k in ks:
            cb = TotalUniform(b)
            for p in planners:
                want = REFERENCES[p](graph, k, b, objective)
                alone = PLANNERS[p](graph, k, cb, objective)
                assert_same_cell(alone, want, b, k, delta)
                assert alone[1].evaluations == want[1].evaluations
                assert_same_cell(PLANNERS[p](graph, k, cb, objective, runs=runs), want, b, k, delta)


class CountedGains:
    """Counts every gain asked of a TopKOracle or an objective's oracle."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for cls in (objectives.TopKOracle, objectives._ModularOracle, objectives._LogDetOracle):
            monkeypatch.setattr(cls, "gain", self.counted(cls.gain))

    def counted(self, gain):
        def call(oracle, item):
            self.calls += 1
            return gain(oracle, item)

        return call


@pytest.mark.parametrize("name, planners", [
    ("modular", ("mgreedy", "egreedy", "vgreedy", "sgreedy")),
    ("treeconn", ("egreedy", "sgreedy", "vgreedy")),
])
def test_sweep_cells_count_only_their_own_evaluations(monkeypatch, name, planners):
    spec = GenSpec(num_robots=3, vertices_per_robot=6, num_edges=40, seed=8)
    graph = generate_exchange_graph(spec)
    pose_graph = generate_pose_graph(spec, graph)
    objective = OBJECTIVES[name](graph, pose_graph)
    grid_spec = SweepSpec(bs=(4, 0, 9, 2), ks=(12, 3, 0, 60), objective=name, planners=planners)
    evaluations = []

    def recorded(planner):
        def run(*args, **kwargs):
            plan, trace = planner(*args, **kwargs)
            evaluations.append(trace.evaluations)
            return plan, trace

        return run

    alone = sum(
        PLANNERS[p](graph, k, TotalUniform(b), objective)[1].evaluations
        for b in grid_spec.bs for k in grid_spec.ks for p in planners
    )
    for p in ("m_greedy", "e_greedy", "v_greedy", "s_greedy"):
        monkeypatch.setattr(cli, p, recorded(getattr(cli, p)))
    gains = CountedGains(monkeypatch)
    sweep_rows(graph, pose_graph, grid_spec)
    assert len(evaluations) == 16 * len(planners)
    assert sum(evaluations) == gains.calls
    assert gains.calls < alone  # the cells shared their runs


def test_tu_sweep_memory_does_not_grow_with_the_k_grid():
    # each k keeps one m_greedy run alive only until its last b
    graph = generate_exchange_graph(
        GenSpec(num_robots=6, vertices_per_robot=30, num_edges=400, seed=1))

    def peak(ks):
        tracemalloc.start()
        try:
            sweep_rows(graph, None, SweepSpec(bs=(4, 8, 12), ks=ks, planners=("mgreedy",)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak((40,))  # the graph's own caches fill on the first sweep
    one = peak((40,))
    assert peak(tuple(range(2, 41, 2))) < 2 * one  # 20 k values against one


def test_the_store_holds_one_m_greedy_run_at_a_time():
    graph = generate_exchange_graph(
        GenSpec(num_robots=3, vertices_per_robot=8, num_edges=60, seed=2))
    objective = ModularObjective(graph)
    runs = {}
    for k in range(2, 41, 2):
        for b in (6, 3, 9):  # a prefix of the run so far, then an extension
            shared = m_greedy(graph, k, TotalUniform(b), objective, runs=runs)
            assert len(runs) <= 1  # a call for a new k dropped the old k's run
            assert shared[0] == m_greedy(graph, k, TotalUniform(b), objective)[0]
