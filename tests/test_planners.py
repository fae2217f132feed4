"""Planner behavior: feasibility, guarantees at small scale, determinism, lazy == eager."""

import functools
import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    DCritObjective,
    GenSpec,
    GreedySelector,
    IndividualUniform,
    ModularObjective,
    Plan,
    PlannerTrace,
    PoseGraph,
    TotalNonuniform,
    TotalUniform,
    TreeConnObjective,
    brute_force_opt,
    e_greedy,
    g_modular,
    generate_exchange_graph,
    generate_pose_graph,
    m_greedy,
    random_baseline,
    s_greedy,
    v_greedy,
)

from loopselect import objectives, planners
from loopselect.graph import WEIGHT_TOL, Edge, ExchangeGraph, Vertex, within_limit
from loopselect.io import serialize_exchange_graph, serialize_pose_graph

from conftest import (
    EagerSelector,
    eager,
    make_graph,
    random_connected_pose_graph,
    random_modular_instance,
    random_treeconn_instance,
    reweighted_pose_graph,
)

ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)
GOLDEN = json.loads((Path(__file__).parent / "golden_sgreedy_5x40.json").read_text())
GOLDEN_MGREEDY = json.loads((Path(__file__).parent / "golden_mgreedy_10x200.json").read_text())
LOGDET_OBJECTIVES = {"treeconn": TreeConnObjective, "dcrit": DCritObjective}


def regime_cases(seed):
    """One random modular instance under a tu, a weighted tn and an iu budget."""
    graph, b, k = random_modular_instance(seed)
    rng = np.random.default_rng(seed + 5000)
    weights = [float(rng.uniform(0.5, 3.0)) for _ in graph.vertices]
    weighted = make_graph(
        graph.num_robots,
        [v.robot for v in graph.vertices],
        [(e.u, e.v) for e in graph.edges],
        [e.p for e in graph.edges],
        weights=weights,
    )
    limits = [int(rng.integers(0, 3)) for _ in range(graph.num_robots)]
    return k, {
        "tu": (graph, TotalUniform(b)),
        "tn": (weighted, TotalNonuniform(float(rng.uniform(1.0, sum(weights))))),
        "iu": (graph, IndividualUniform.by_robot(graph, limits)),
    }


@functools.lru_cache(maxsize=None)
def instance_5x40(seed):
    """5 robots x 40 observations, 300 candidates, with its pose graph."""
    spec = GenSpec(num_robots=5, vertices_per_robot=40, num_edges=300, seed=seed)
    graph = generate_exchange_graph(spec)
    return graph, generate_pose_graph(spec, graph)


class TestGreedySelector:
    # lazy=False runs the eager reference from conftest
    @pytest.mark.parametrize("lazy", [False, True])
    def test_feasibility_predicate(self, lazy):
        gains = {0: 5.0, 1: 4.0, 2: 3.0, 3: 2.0, 4: 2.0, 5: 0.5}
        weight = {0: 3, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1}
        left = 4
        asked_after_rejection = []
        rejected = set()

        def fits(c):
            if c in rejected:
                asked_after_rejection.append(c)
            if weight[c] > left:
                rejected.add(c)
                return False
            return True

        def upper():  # exact
            return np.array([gains[c] for c in sorted(gains)])

        selector = GreedySelector if lazy else EagerSelector
        sel = selector(gains, gains.__getitem__, upper, feasible=fits)
        picks = []
        while (pick := sel.best()) is not None:
            c, g = pick
            assert g == gains[c]
            left -= weight[c]
            picks.append(c)
        # 3 and 4 tie: the lower id wins, then nothing fits the last unit
        assert picks == [0, 3]
        assert len(sel) == 0
        assert asked_after_rejection == []
        # rejections are not evaluations: eager scans 6, then 3 affordable;
        # with exact bounds each round confirms only the candidate it takes
        assert sel.evaluations == (2 if lazy else 9)

    def test_upper_bounds_are_confirmed_until_none_can_win(self):
        gains = {0: 1.0, 1: 3.0, 2: 2.0, 3: 2.0, 4: 0.0, 5: 0.0}
        bound = {0: 4.0, 1: 3.5, 2: 2.0, 3: 2.0, 4: 0.5, 5: 0.0}
        asked = []

        def gain(c):
            asked.append(c)
            return gains[c]

        sel = GreedySelector(gains, gain, upper=lambda: np.array([bound[c] for c in range(6)]))
        picks = [sel.best() for _ in range(6)]
        assert picks == [(1, 3.0), (2, 2.0), (3, 2.0), (0, 1.0), (4, 0.0), (5, 0.0)]
        # 2's bound ties 2's gain with 3, so 3 is never asked while 2 is left;
        # 4's gain of 0 ties 5's bound of 0.0, which is exact, and 4 is lower
        assert asked == [0, 1, 0, 2, 0, 3, 0, 4]
        assert (sel.rounds, sel.passes, sel.evaluations, sel.beyond_first) == (6, 6, 8, 3)
        assert sel.best() is None and len(sel) == 0

    def test_an_exact_zero_bound_wins_a_tie_unevaluated(self):
        asked = []

        def gain(c):
            asked.append(c)
            return 0.0

        bound = {0: 0.0, 1: 0.25, 2: 0.0}
        sel = GreedySelector([2, 1, 0], gain, upper=lambda: np.array([bound[c] for c in range(3)]))
        # 1 is asked; 0's bound of 0.0 is its exact gain, which ties 1's on a lower id
        assert sel.best() == (0, 0.0)
        assert asked == [1]

        rejected = GreedySelector([2, 1, 0], gain, feasible=lambda c: c != 0,
                                  upper=lambda: np.zeros(3))
        assert rejected.best() == (1, 0.0) and rejected.evaluations == 0 and len(rejected) == 1

    @pytest.mark.parametrize("committed", [0, 5])
    @pytest.mark.parametrize("kind, unit", [
        ("modular", "edge"), ("modular", "vertex"), ("topk", "vertex"),
        ("treeconn", "edge"), ("treeconn", "vertex"), ("dcrit", "edge"), ("dcrit", "vertex"),
        ("dcrit-prior", "edge"), ("dcrit-prior", "vertex"),
    ])
    def test_a_planner_run_picks_what_a_full_scan_picks(self, kind, unit, committed):
        # every planner run's bound pass bounds every gain of its pool, 0.0
        # only where a gain is, so its next pick is the full scan's; the
        # edge runs' bounds are their exact gains, so they confirm one gain
        graph, pg = instance_5x40(1)
        reweighted = reweighted_pose_graph(np.random.default_rng(5), pg)
        objective = {
            "modular": lambda: ModularObjective(graph),
            "topk": lambda: None,
            "treeconn": lambda: TreeConnObjective(graph, pg),
            "dcrit": lambda: DCritObjective(graph, pg),
            "dcrit-prior": lambda: DCritObjective(graph, reweighted),
        }[kind]()
        if kind == "topk":
            run, _ = planners._m_run(graph, 20, TotalUniform(graph.num_vertices))
        elif unit == "edge":
            run = planners._edge_run(graph, objective.oracle(), graph.edge_columns[0], "phase1")
        else:
            run, _ = planners._vertex_run(graph, objective)
        run.extend(committed)
        assert len(run.steps) == committed
        taken = {s.item for s in run.steps}
        ids = [u.id for u in (graph.edges if unit == "edge" else graph.vertices)]
        pool = [c for c in ids if c not in taken]

        gains = {c: run._gain(c) for c in pool}
        bound = dict(zip(sorted(ids), run._upper().tolist()))
        for c, g in gains.items():
            assert g <= bound[c], (c, g, bound[c])
            assert bound[c] > 0.0 or g == 0.0, (c, g, bound[c])

        want = EagerSelector(pool, gains.__getitem__).best()
        before = run.evaluations
        assert run.best() == want
        if unit == "edge":
            assert run.evaluations - before == (1 if want[1] > 0.0 else 0)
        else:
            assert run.evaluations - before <= len(pool)


class TestRoom:
    """The budget room of m_greedy books weights exactly as budget_satisfied sums them."""

    @pytest.mark.parametrize(
        "first, second, limit",
        # limit - spent + WEIGHT_TOL rounds off limit + WEIGHT_TOL: a running
        # sum admitted the first pair and turned the second away
        [(0.1, 0.3, 0.39999999899999994), (0.2, 0.15, 0.34999999899999995)],
    )
    def test_m_greedy_books_to_the_last_bit(self, first, second, limit):
        graph = make_graph(2, [0, 1], [(0, 1)], [0.5], weights=[first, second])
        cb = TotalNonuniform(limit)
        room = planners._Room(graph, cb)
        room.charge(0)
        assert room.fits(1) == graph.budget_satisfied([0, 1], cb)
        plan, _ = m_greedy(graph, 1, cb, ModularObjective(graph))
        assert graph.check_plan(plan, 1, cb)
        assert len(plan.vertices) == 1 + graph.budget_satisfied([0, 1], cb)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fits_agrees_with_budget_satisfied(self, data):
        cost = st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.35, 0.7, 1.1]) | st.floats(0.01, 3.0)
        weights = data.draw(st.lists(cost, min_size=1, max_size=8))
        n = len(weights)
        graph = make_graph(2, [i % 2 for i in range(n)], [], [], weights=weights)
        # put the sum of some weights right at limit + WEIGHT_TOL
        picked = data.draw(st.lists(st.sampled_from(weights), max_size=n))
        limit = max(0.0, math.fsum(picked) - WEIGHT_TOL)
        limit = data.draw(st.sampled_from([limit, math.nextafter(limit, 0), math.nextafter(limit, 9)]))
        cb = TotalNonuniform(limit)
        room = planners._Room(graph, cb)
        booked = []
        lightest = min(range(n), key=weights.__getitem__)
        while True:
            unbooked = [v for v in range(n) if v not in booked]
            fitting = [v for v in unbooked if room.fits(v)]
            assert fitting == [v for v in unbooked if graph.budget_satisfied([*booked, v], cb)]
            # full exactly when no weight of the block fits beside the booked ones
            spent = [weights[v] for v in booked]
            assert room.full() == (not any(within_limit([*spent, w], limit) for w in weights))
            if room.full():
                assert fitting == []
            elif lightest not in booked:
                assert room.fits(lightest)
            if not fitting:
                break
            vid = data.draw(st.sampled_from(fitting))
            room.charge(vid)
            booked.append(vid)


class TestMGreedy:
    def test_zero_budgets_give_empty_plan(self, demo_graph):
        obj = ModularObjective(demo_graph)
        for b, k in ((0, 3), (2, 0)):
            plan, _ = m_greedy(demo_graph, k, TotalUniform(b), obj)
            assert plan.edges == () and plan.achieved_value == 0.0

    def test_slack_budgets_take_everything(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, _ = m_greedy(
            demo_graph, demo_graph.num_edges, TotalUniform(demo_graph.num_vertices), obj
        )
        assert plan.achieved_value == pytest.approx(
            obj.value([e.id for e in demo_graph.edges]), abs=1e-12
        )

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize(
        "budget, exhausted",
        [
            (lambda g: TotalUniform(100), True),
            (lambda g: TotalNonuniform(100.0), True),
            (lambda g: IndividualUniform.by_robot(g, [9, 9, 9]), True),
            (lambda g: TotalUniform(9), False),
            (lambda g: TotalNonuniform(9.0), False),
            (lambda g: IndividualUniform.by_robot(g, [3, 3, 3]), False),
            (lambda g: IndividualUniform.by_robot(g, [9, 9, 2]), False),
        ],
        ids=["tu", "tn", "iu", "tu-tight", "tn-tight", "iu-tight", "iu-short"],
    )
    def test_exhausted_means_no_candidate_left_with_room(
        self, demo_graph, budget, exhausted, lazy
    ):
        obj = ModularObjective(demo_graph)
        run = m_greedy if lazy else functools.partial(eager, m_greedy)
        plan, trace = run(demo_graph, 3, budget(demo_graph), obj)
        assert trace.exhausted is exhausted
        if exhausted:
            assert len(plan.vertices) == demo_graph.num_vertices

    def test_runs_exactly_b_rounds_with_zero_gains(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, trace = m_greedy(demo_graph, 1, TotalUniform(5), obj)
        assert len(plan.vertices) == 5
        assert len(plan.edges) <= 1

    def test_extraction_matches_nested_objective(self, demo_graph):
        obj = ModularObjective(demo_graph)
        for b in range(demo_graph.num_vertices + 1):
            for k in (1, 3, 8):
                plan, _ = m_greedy(demo_graph, k, TotalUniform(b), obj)
                g_val, _ = g_modular(demo_graph, plan.vertices, k)
                assert abs(obj.value(plan.edges) - g_val) <= 1e-12
                assert abs(plan.achieved_value - g_val) <= 1e-12

    def test_feasible_and_near_optimal_tu(self):
        for seed in range(40):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            plan, _ = m_greedy(graph, k, cb, obj)
            assert graph.check_plan(plan, k, cb)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            assert plan.achieved_value >= ONE_MINUS_1_OVER_E * opt - 1e-9

    def test_tn_best_of_two(self):
        rng = np.random.default_rng(8)
        for seed in range(25):
            graph, _, k = random_modular_instance(seed)
            weights = [float(rng.uniform(0.5, 3.0)) for _ in graph.vertices]
            graph = make_graph(
                graph.num_robots,
                [v.robot for v in graph.vertices],
                [(e.u, e.v) for e in graph.edges],
                [e.p for e in graph.edges],
                weights=weights,
            )
            budget = float(rng.uniform(1.0, sum(weights)))
            cb = TotalNonuniform(budget)
            obj = ModularObjective(graph)
            plan, trace = m_greedy(graph, k, cb, obj)
            assert graph.check_plan(plan, k, cb)
            assert trace.winner in ("plain", "cost-benefit")
            opt, _ = brute_force_opt(graph, k, cb, obj)
            assert plan.achieved_value >= 0.5 * ONE_MINUS_1_OVER_E * opt - 1e-9

    @pytest.mark.parametrize("unit", [True, False], ids=["unit-weights", "costed"])
    def test_tn_cost_benefit_arm_runs_only_on_costed_vertices(self, monkeypatch, unit):
        graph = generate_exchange_graph(
            GenSpec(num_robots=4, vertices_per_robot=10, num_edges=60, seed=3))
        if not unit:
            rng = np.random.default_rng(3)
            graph = make_graph(graph.num_robots, [v.robot for v in graph.vertices],
                               [(e.u, e.v) for e in graph.edges], [e.p for e in graph.edges],
                               weights=[float(w) for w in rng.uniform(0.5, 3.0, graph.num_vertices)])
        calls = []
        gain = objectives.TopKOracle.gain
        monkeypatch.setattr(objectives.TopKOracle, "gain",
                            lambda oracle, vid: calls.append(vid) or gain(oracle, vid))
        plan, trace = m_greedy(graph, 8, TotalNonuniform(5.0), ModularObjective(graph))
        plain, cost_benefit = trace.children["plain"], trace.children["cost-benefit"]
        assert len(calls) == trace.evaluations == plain.evaluations + cost_benefit.evaluations
        assert plain.evaluations > 0
        if unit:  # gain / 1.0 is the gain: the plain run, copied
            assert cost_benefit.evaluations == 0 and cost_benefit.steps == plain.steps
            assert trace.winner == "plain"
        else:
            assert cost_benefit.evaluations > 0

    def test_iu_respects_quotas(self):
        for seed in range(25):
            graph, _, k = random_modular_instance(seed)
            rng = np.random.default_rng(seed + 1000)
            limits = [int(rng.integers(0, 3)) for _ in range(graph.num_robots)]
            cb = IndividualUniform.by_robot(graph, limits)
            obj = ModularObjective(graph)
            plan, _ = m_greedy(graph, k, cb, obj)
            assert graph.check_plan(plan, k, cb)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            assert plan.achieved_value >= 0.5 * opt - 1e-9

    def test_rejects_non_modular(self):
        graph, pg, b, k = random_treeconn_instance(2)
        obj = TreeConnObjective(graph, pg)
        with pytest.raises(ValueError, match="modular"):
            m_greedy(graph, k, TotalUniform(b), obj)


class TestEGreedy:
    def test_zero_rounds(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, _ = e_greedy(demo_graph, 4, TotalUniform(0), obj)
        assert plan == type(plan)()

    def test_b_at_least_k_skips_phase_two(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, trace = e_greedy(demo_graph, 3, TotalUniform(5), obj)
        assert trace.phase_count("phase2") == 0
        assert len(plan.edges) <= 3
        assert len(plan.vertices) <= 3

    def test_phase_two_adds_only_covered_edges(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            plan, trace = e_greedy(graph, k, TotalUniform(b), obj)
            assert graph.check_plan(plan, k, TotalUniform(b))
            phase1 = [s.item for s in trace.steps if s.phase == "phase1"]
            cover = plan.vertices
            for step in trace.steps:
                if step.phase == "phase2":
                    e = graph.edge(step.item)
                    assert e.u in cover or e.v in cover
            assert len(phase1) <= min(b, k)

    def test_bound_at_small_scale(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            plan, _ = e_greedy(graph, k, cb, obj)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            alpha_e = 1.0 - math.exp(-min(1.0, b / k))
            assert plan.achieved_value >= alpha_e * opt - 1e-9

    def test_rejects_non_tu(self, demo_graph):
        obj = ModularObjective(demo_graph)
        with pytest.raises(ValueError, match="total-uniform"):
            e_greedy(demo_graph, 3, TotalNonuniform(2.0), obj)

    @pytest.mark.parametrize("planner", [e_greedy, v_greedy], ids=["e_greedy", "v_greedy"])
    def test_an_edge_to_an_unknown_vertex_is_refused(self, planner):
        # edge 1 names vertex 7, which the graph lacks: no plan may count it
        g = ExchangeGraph(
            2, [Vertex(0, 0, 1.0), Vertex(1, 1, 1.0)], [Edge(0, 0, 1, 0.5), Edge(1, 0, 7, 0.5)]
        )
        with pytest.raises(ValueError, match="unknown endpoint"):
            planner(g, 3, TotalUniform(1), ModularObjective(g))


class TestVGreedy:
    def test_zero_budget(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, _ = v_greedy(demo_graph, 3, TotalUniform(0), obj)
        assert plan.vertices == () and plan.edges == ()

    def test_slack_budgets_select_all_vertices(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, trace = v_greedy(
            demo_graph, demo_graph.num_edges, TotalUniform(demo_graph.num_vertices), obj
        )
        assert trace.exhausted
        assert set(plan.edges) == {e.id for e in demo_graph.edges}

    def test_stops_at_b_without_another_round(self):
        graph, _ = instance_5x40(1)
        obj = ModularObjective(graph)
        n, b = graph.num_vertices, 10
        plan, trace = eager(v_greedy, graph, graph.num_edges, TotalUniform(b), obj)
        assert len(plan.vertices) == b and not trace.exhausted
        # one full scan of the shrinking pool per selected vertex, none after
        assert trace.evaluations == sum(n - r for r in range(b))
        assert v_greedy(graph, graph.num_edges, TotalUniform(b), obj)[0] == plan

    def test_edges_are_incident_set(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            plan, _ = v_greedy(graph, k, TotalUniform(b), obj)
            assert set(plan.edges) == graph.edges_incident(plan.vertices)
            assert len(plan.vertices) <= b and len(plan.edges) <= k
            assert graph.check_plan(plan, k, TotalUniform(b))

    def test_selects_guaranteed_vertex_count(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            delta = graph.max_degree()
            if delta == 0:
                continue
            obj = ModularObjective(graph)
            plan, trace = v_greedy(graph, k, TotalUniform(b), obj)
            floor_count = min(b, k // delta)
            assert trace.exhausted or len(plan.vertices) >= floor_count

    def test_bound_at_small_scale(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            delta = graph.max_degree()
            if delta == 0:
                continue
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            plan, _ = v_greedy(graph, k, cb, obj)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            alpha_v = 1.0 - math.exp(-min(1.0, (k // delta) / b))
            assert plan.achieved_value >= alpha_v * opt - 1e-9


class TestSGreedy:
    def test_takes_better_arm(self):
        for seed in range(25):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            e_plan, _ = e_greedy(graph, k, cb, obj)
            v_plan, _ = v_greedy(graph, k, cb, obj)
            s_plan, trace = s_greedy(graph, k, cb, obj)
            assert s_plan.achieved_value == max(
                e_plan.achieved_value, v_plan.achieved_value
            )
            if e_plan.achieved_value >= v_plan.achieved_value:
                assert trace.winner == "edge-arm"  # ties keep the edge arm
            else:
                assert trace.winner == "vertex-arm"

    def test_arms_with_the_same_edge_set_tie(self):
        # each arm's value comes from its own run's oracle; both arms commit
        # the same 8 edges in different orders, and the vertex arm's value
        # rounds one ulp higher, which must not make it win
        spec = GenSpec(num_robots=3, vertices_per_robot=3, num_edges=8, seed=0)
        graph = generate_exchange_graph(spec)
        obj = DCritObjective(graph, generate_pose_graph(spec, graph))
        cb = TotalUniform(6)
        e_plan, _ = e_greedy(graph, 8, cb, obj)
        v_plan, _ = v_greedy(graph, 8, cb, obj)
        assert set(e_plan.edges) == set(v_plan.edges) and e_plan.edges != v_plan.edges
        assert v_plan.achieved_value == math.nextafter(e_plan.achieved_value, math.inf)
        plan, trace = s_greedy(graph, 8, cb, obj)
        assert trace.winner == "edge-arm" and plan == e_plan
        assert plan.vertices == (1, 0, 2, 5) and v_plan.vertices == (1, 0, 2, 5, 3, 4)

    def test_best_arm_compares_values_only_across_edge_sets(self):
        def run(vertices, edges, value):
            return Plan(vertices=vertices, edges=edges, achieved_value=value), PlannerTrace("x")

        first = run((0,), (1, 2), 1.0)
        same = run((0, 3), (2, 1), 2.0)
        other = run((0, 3), (1, 3), math.nextafter(1.0, 2.0))
        assert planners._best_arm("s", ("a", first), ("b", same))[1].winner == "a"
        assert planners._best_arm("s", ("a", first), ("b", other))[1].winner == "b"
        assert planners._best_arm("s", ("a", other), ("b", first))[1].winner == "a"

    def test_vertex_arm_wins_when_communication_scarce(self):
        # two high-probability decoy edges are disjoint, so the edge arm
        # burns its cover on them; the hubs' bulk is only reachable by
        # broadcasting the hubs themselves
        robot_of = [0, 0, 0, 0] + [1] * 14
        hubs = [0, 1]
        pairs = []
        ps = []
        for h, leaves in zip(hubs, (range(4, 10), range(10, 16))):
            for leaf in leaves:
                pairs.append((h, leaf))
                ps.append(0.5)
        pairs += [(2, 16), (3, 17)]
        ps += [0.9, 0.9]
        g = make_graph(2, robot_of, pairs, ps)
        obj = ModularObjective(g)
        plan, trace = s_greedy(g, 12, TotalUniform(2), obj)
        assert trace.winner == "vertex-arm"
        assert plan.achieved_value == pytest.approx(6.0, abs=1e-12)

    def test_exhausted_is_the_winning_arms(self, demo_graph):
        # b = k = 20 leave room in both arms after every candidate is taken
        _, trace = s_greedy(demo_graph, 20, TotalUniform(20), ModularObjective(demo_graph))
        assert trace.children["edge-arm"].exhausted and trace.children["vertex-arm"].exhausted
        assert trace.exhausted is trace.children[trace.winner].exhausted

    def test_empty_graph(self):
        g = make_graph(2, [0, 1], [], [])
        obj = ModularObjective(g)
        plan, _ = s_greedy(g, 3, TotalUniform(2), obj)
        assert plan.achieved_value == 0.0 and plan.edges == ()

    def test_information_objective_bound(self):
        from loopselect import DCritObjective, alpha_apriori

        for seed in range(12):
            graph, pg, b, k = random_treeconn_instance(seed)
            delta = graph.max_degree()
            if delta < 1:
                continue
            obj = DCritObjective(graph, pg)
            cb = TotalUniform(b)
            plan, _ = s_greedy(graph, k, cb, obj)
            assert graph.check_plan(plan, k, cb)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            assert plan.achieved_value >= alpha_apriori(b, k, delta) * opt - 1e-9

    def test_b_ge_k_reaches_constant_factor(self):
        for seed in range(25):
            graph, b, k = random_modular_instance(seed)
            b = max(b, k)  # gamma >= 1 regime
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            plan, _ = s_greedy(graph, k, cb, obj)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            assert plan.achieved_value >= ONE_MINUS_1_OVER_E * opt - 1e-9


class TestRandomBaseline:
    def test_deterministic_per_seed(self, demo_graph):
        obj = ModularObjective(demo_graph)
        a, a_trace = random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=42)
        b, b_trace = random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=42)
        assert a == b
        assert a_trace == b_trace
        assert a_trace.algorithm == "random"
        assert a_trace.steps == [] and a_trace.evaluations == 0

    def test_different_seeds_differ(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plans = {
            random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=s)[0].vertices
            for s in range(20)
        }
        assert len(plans) > 1

    def test_slack_budgets_take_everything(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan, _ = random_baseline(
            demo_graph, demo_graph.num_edges, TotalUniform(demo_graph.num_vertices),
            obj, seed=5,
        )
        assert set(plan.edges) == {e.id for e in demo_graph.edges}

    def test_always_feasible(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            plan, _ = random_baseline(graph, k, TotalUniform(b), obj, seed=seed)
            assert graph.check_plan(plan, k, TotalUniform(b))


class TestTracesAndDeterminism:
    def test_trace_values_non_decreasing(self):
        for seed in range(20):
            graph, pg, b, k = random_treeconn_instance(seed)
            obj = TreeConnObjective(graph, pg)
            for planner in (e_greedy, v_greedy):
                _, trace = planner(graph, k, TotalUniform(b), obj)
                values = [s.value for s in trace.steps]
                assert all(x <= y + 1e-9 for x, y in zip(values, values[1:]))

    def test_repeated_runs_identical(self):
        graph, pg, b, k = random_treeconn_instance(5)
        obj = TreeConnObjective(graph, pg)
        first = s_greedy(graph, k, TotalUniform(b), obj)
        second = s_greedy(graph, k, TotalUniform(b), obj)
        assert first[0] == second[0]
        assert [s.item for s in first[1].steps] == [s.item for s in second[1].steps]


class TestLazyMode:
    """The shipped lazy selector against the eager reference from conftest."""

    def test_identical_sequences_and_fewer_evaluations(self):
        for seed in range(30):
            graph, pg, b, k = random_treeconn_instance(seed)
            obj = TreeConnObjective(graph, pg)
            eager_plan, eager_tr = eager(s_greedy, graph, k, TotalUniform(b), obj)
            lazy_plan, lazy_tr = s_greedy(graph, k, TotalUniform(b), obj)
            assert eager_plan == lazy_plan
            for arm in ("edge-arm", "vertex-arm"):
                e_steps = [s.item for s in eager_tr.children[arm].steps]
                l_steps = [s.item for s in lazy_tr.children[arm].steps]
                assert e_steps == l_steps
            assert lazy_tr.evaluations <= eager_tr.evaluations

    def test_modular_lazy_one_evaluation_per_round(self, demo_graph):
        obj = ModularObjective(demo_graph)
        _, trace = e_greedy(demo_graph, 3, TotalUniform(3), obj)
        m = demo_graph.num_edges
        # the bounds are the exact one-edge gains, so each round evaluates only
        # the candidate it takes, where a full scan evaluates the whole pool
        assert trace.evaluations == 3 < m + (m - 1) + (m - 2)

    def test_lazy_matches_eager_for_m_greedy(self):
        # a gain taken as a difference of two rounded g values can grow by an
        # ulp (seeds 93, 109, 117 and 119 under tu), which misleads lazy bounds
        for seed in range(150):
            k, cases = regime_cases(seed)
            for regime, (graph, cb) in cases.items():
                obj = ModularObjective(graph)
                eager_plan, eager_tr = eager(m_greedy, graph, k, cb, obj)
                lazy_plan, lazy_tr = m_greedy(graph, k, cb, obj)
                assert lazy_plan == eager_plan, (seed, regime)
                assert lazy_tr.steps == eager_tr.steps, (seed, regime)
                assert lazy_tr.winner == eager_tr.winner
                assert lazy_tr.evaluations <= eager_tr.evaluations

    def test_m_greedy_stops_once_the_budget_is_full(self, monkeypatch):
        class Room(planners._Room):
            """A budget that counts feasibility checks and can hide that it is full."""

            stop = True
            checks = 0

            def fits(self, vid):
                Room.checks += 1
                return super().fits(vid)

            def full(self):
                return Room.stop and super().full()

        def summary(trace):
            # exhausted is read off full() too, so it is left out here
            children = trace.children or {}
            return (trace.steps, trace.evaluations, trace.winner,
                    {n: (c.steps, c.evaluations) for n, c in children.items()})

        monkeypatch.setattr(planners, "_Room", Room)
        saved = 0
        for seed in range(150):
            k, cases = regime_cases(seed)
            for regime, (graph, cb) in cases.items():
                obj = ModularObjective(graph)
                for run in (m_greedy, functools.partial(eager, m_greedy)):
                    runs = {}
                    for stop in (True, False):
                        Room.stop, Room.checks = stop, 0
                        plan, trace = run(graph, k, cb, obj)
                        runs[stop] = plan, summary(trace), Room.checks
                    (plan, got, checks), (want_plan, want, want_checks) = runs[True], runs[False]
                    assert plan == want_plan, (seed, regime, run)
                    assert got == want, (seed, regime, run)
                    assert checks <= want_checks
                    saved += want_checks - checks
        assert saved > 0

    def test_m_greedy_logs_one_debug_record_per_run(self, caplog):
        caplog.set_level(logging.DEBUG, logger="loopselect.planners")
        graph = instance_10x200()
        obj = ModularObjective(graph)
        for k in (40, 20):
            _, trace = m_greedy(graph, k, TotalUniform(20), obj)
            # (run, rounds, bound passes, exact gains, gains confirmed beyond the first)
            (record,) = [r for r in caplog.records if r.name == "loopselect.planners"]
            assert record.levelno == logging.DEBUG
            assert record.args == (f"m-greedy (k={k})", 20, 20, trace.evaluations,
                                   trace.evaluations - 20)
            caplog.clear()
        assert trace.evaluations == 28
        costed = make_graph(
            3, [0, 0, 1, 1, 2], [(0, 2), (1, 3), (2, 4), (1, 4)], [0.5, 0.25, 1.0, 0.75],
            weights=[1.0, 2.0, 0.5, 3.0, 1.0])
        _, trace = m_greedy(costed, 2, TotalNonuniform(3.0), ModularObjective(costed))
        counts = [r.args[3] for r in caplog.records if r.name == "loopselect.planners"]
        assert counts == [trace.children["plain"].evaluations,
                          trace.children["cost-benefit"].evaluations]

    @pytest.mark.parametrize("kind", ["modular", "treeconn"])
    def test_e_greedy_logs_one_debug_record_per_run(self, caplog, kind):
        caplog.set_level(logging.DEBUG, logger="loopselect.planners")
        graph, pg = instance_5x40(1)
        obj = ModularObjective(graph) if kind == "modular" else TreeConnObjective(graph, pg)
        _, trace = e_greedy(graph, 15, TotalUniform(10), obj)
        records = [r for r in caplog.records if r.name == "loopselect.planners"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        # exact bounds: each round confirms the one gain it takes
        assert [r.args for r in records] == [("e-greedy phase1", 10, 10, 10, 0),
                                             ("e-greedy phase2", 5, 5, 5, 0)]
        assert trace.evaluations == 15

    @pytest.mark.parametrize("kind", ["modular", "treeconn"])
    def test_v_greedy_logs_one_debug_record_per_run(self, caplog, kind):
        caplog.set_level(logging.DEBUG, logger="loopselect.planners")
        graph, pg = instance_5x40(1)
        obj = ModularObjective(graph) if kind == "modular" else TreeConnObjective(graph, pg)
        runs = {}
        _, trace = v_greedy(graph, 20, TotalUniform(10), obj, runs)
        run = runs["v-greedy"][1][0]
        (record,) = [r for r in caplog.records if r.name == "loopselect.planners"]
        assert record.levelno == logging.DEBUG
        # one call, many rounds: one record for all of them
        assert record.args == ("v-greedy", len(run.steps), len(run.steps), trace.evaluations,
                               run.beyond_first)
        assert len(run.steps) > 1 and trace.evaluations == run.evaluations
        caplog.clear()
        # a cell the shared run already covers extends it by nothing
        _, trace = v_greedy(graph, 10, TotalUniform(10), obj, runs)
        (record,) = [r for r in caplog.records if r.name == "loopselect.planners"]
        assert record.args == ("v-greedy", 0, 0, 0, 0) and trace.evaluations == 0

    def test_m_greedy_makes_no_record_below_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="loopselect")
        graph = random_modular_instance(3)[0]
        m_greedy(graph, 4, TotalUniform(3), ModularObjective(graph))
        assert caplog.records == []

    def test_m_greedy_lazy_saves_evaluations_at_10x200(self):
        spec = GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
        graph = generate_exchange_graph(spec)
        obj = ModularObjective(graph)
        for cb in (TotalNonuniform(20.0), IndividualUniform.by_robot(graph, [2] * 10)):
            eager_plan, eager_tr = eager(m_greedy, graph, 40, cb, obj)
            lazy_plan, lazy_tr = m_greedy(graph, 40, cb, obj)
            assert lazy_plan == eager_plan
            assert lazy_tr.evaluations < eager_tr.evaluations

    def test_modular_vertex_arm_lazy_matches_eager(self):
        # a vertex gain taken as a difference of rounded totals can grow by an
        # ulp as vertices are committed, which misleads the stale lazy bounds
        for seed in range(150):
            graph, b, k = random_modular_instance(seed, max_vertices=30, max_edges=60)
            obj = ModularObjective(graph)
            eager_plan, eager_tr = eager(v_greedy, graph, k, TotalUniform(b), obj)
            lazy_plan, lazy_tr = v_greedy(graph, k, TotalUniform(b), obj)
            assert lazy_plan == eager_plan, seed
            assert lazy_tr.evaluations <= eager_tr.evaluations

    def test_log_det_gain_that_grows_by_an_ulp(self):
        # committing vertex 4 lifts vertex 1's gain by one ulp, to exactly that
        # of vertex 5 (both add only edge 5 now): a stale bound would pick 5
        robot_of = [0, 0, 0, 0, 1, 2, 0, 1, 1]
        pairs = [(3, 7), (4, 5), (6, 7), (0, 4), (2, 4), (1, 5)]
        graph = make_graph(3, robot_of, pairs, [0.1] * len(pairs))
        base = random_connected_pose_graph(np.random.default_rng(3242))
        candidates = {0: (0, 1, 0.5), 1: (0, 1, 0.5), 2: (0, 1, 0.5), 3: (0, 1, 0.5),
                      4: (0, 2, 1.0), 5: (2, 6, 0.5)}
        pose_graph = PoseGraph(base.num_poses, base.base_edges, candidates)
        obj = TreeConnObjective(graph, pose_graph)
        plan, _ = v_greedy(graph, 4, TotalUniform(2), obj)
        assert plan.vertices == (4, 1)
        assert plan == eager(v_greedy, graph, 4, TotalUniform(2), obj)[0]

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_identical_sequences_at_5x40(self, kind):
        graph, pg = instance_5x40(1)
        obj = LOGDET_OBJECTIVES[kind](graph, pg)
        for planner in (e_greedy, v_greedy):
            for k in (10, 20):
                eager_plan, eager_tr = eager(planner, graph, k, TotalUniform(10), obj)
                lazy_plan, lazy_tr = planner(graph, k, TotalUniform(10), obj)
                assert lazy_plan == eager_plan
                assert [(s.phase, s.item) for s in lazy_tr.steps] == [
                    (s.phase, s.item) for s in eager_tr.steps
                ]
                assert lazy_tr.evaluations < eager_tr.evaluations


class TestGoldenPlans:
    """Lazy s_greedy plans recorded with dense-refactorization gains."""

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"],
        ids=lambda c: f"{c['objective']}-seed{c['seed']}-k{c['k']}",
    )
    def test_matches_recorded_plan(self, case):
        graph, pg = instance_5x40(case["seed"])
        text = serialize_exchange_graph(graph) + serialize_pose_graph(pg)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["instance_sha256"][
            str(case["seed"])
        ], "the generated instance changed; the fixture no longer applies"
        obj = LOGDET_OBJECTIVES[case["objective"]](graph, pg)
        plan, trace = s_greedy(graph, case["k"], TotalUniform(case["b"]), obj)
        assert trace.winner == case["winner"]
        assert list(plan.vertices) == case["vertices"]
        assert list(plan.edges) == case["edges"]
        assert {arm: tr.evaluations for arm, tr in trace.children.items()} == case["evaluations"]
        assert plan.achieved_value == pytest.approx(case["achieved_value"], rel=1e-9)

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"],
        ids=lambda c: f"{c['objective']}-seed{c['seed']}-k{c['k']}",
    )
    def test_live_row_bound_passes_match_full_row_passes(self, case, monkeypatch):
        graph, pg = instance_5x40(case["seed"])
        obj = LOGDET_OBJECTIVES[case["objective"]](graph, pg)
        passes = check_live_row_passes(monkeypatch, graph.num_edges)
        plan, _ = s_greedy(graph, case["k"], TotalUniform(case["b"]), obj)
        assert list(plan.edges) == case["edges"]
        assert passes and min(passes) < graph.num_edges  # some pass skipped a covered row

    @pytest.mark.parametrize(
        "case", GOLDEN["cases"],
        ids=lambda c: f"{c['objective']}-seed{c['seed']}-k{c['k']}",
    )
    def test_tiny_gain_blocks_change_no_bound_and_no_plan(self, case, monkeypatch):
        # every log-det bound pass runs in blocks of 3 rows and in one block of
        # all its rows, bit for bit alike; the run walks the blocked gains
        edge_gains = objectives._LogDetOracle.edge_gains
        passes = []

        def blocked(oracle, rows):
            monkeypatch.setattr(objectives, "GAIN_BLOCK", len(rows) + 1)
            whole = edge_gains(oracle, rows)
            monkeypatch.setattr(objectives, "GAIN_BLOCK", 3)
            got = edge_gains(oracle, rows)
            assert got.tobytes() == whole.tobytes()
            passes.append(len(rows))
            return got

        monkeypatch.setattr(objectives._LogDetOracle, "edge_gains", blocked)
        graph, pg = instance_5x40(case["seed"])
        obj = LOGDET_OBJECTIVES[case["objective"]](graph, pg)
        plan, trace = s_greedy(graph, case["k"], TotalUniform(case["b"]), obj)
        assert (list(plan.vertices), list(plan.edges)) == (case["vertices"], case["edges"])
        assert {arm: tr.evaluations for arm, tr in trace.children.items()} == case["evaluations"]
        assert max(passes) > 3

    def test_live_row_bound_passes_match_full_row_passes_at_10x200(self, monkeypatch):
        graph = instance_10x200()
        spec = GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
        obj = TreeConnObjective(graph, generate_pose_graph(spec, graph))
        passes = check_live_row_passes(monkeypatch, graph.num_edges)
        s_greedy(graph, 40, TotalUniform(20), obj)
        assert passes and min(passes) < graph.num_edges


def check_live_row_passes(monkeypatch, num_edges):
    """Make every log-det ``edge_gains`` pass also run over all edge rows, and
    check that scattering its gains into zeros gives, bit for bit, the full
    pass with every other row zeroed. Returns each pass's row count."""
    edge_gains = objectives._LogDetOracle.edge_gains
    passes = []

    def checked(oracle, rows):
        got = edge_gains(oracle, rows)
        live = np.zeros(num_edges, dtype=bool)
        live[rows] = True
        scattered = np.zeros(num_edges)
        scattered[rows] = got
        full = np.where(live, edge_gains(oracle, np.arange(num_edges)), 0.0)
        assert scattered.tobytes() == full.tobytes()
        passes.append(len(rows))
        return got

    monkeypatch.setattr(objectives._LogDetOracle, "edge_gains", checked)
    return passes


@functools.lru_cache(maxsize=None)
def instance_10x200():
    """10 robots x 200 observations, 5000 candidates, seed 0."""
    return generate_exchange_graph(
        GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
    )


class TestGoldenMGreedy:
    """m_greedy traces at 10x200/5000 under all three budgets; eager runs use the reference."""

    @pytest.mark.parametrize("run", sorted(GOLDEN_MGREEDY["runs"]))
    def test_matches_recorded_trace(self, run):
        graph = instance_10x200()
        digest = hashlib.sha256(serialize_exchange_graph(graph).encode()).hexdigest()
        assert digest == GOLDEN_MGREEDY["instance_sha256"], (
            "the generated instance changed; the fixture no longer applies"
        )
        regime, mode = run.split("-")
        cb = {
            "tu": TotalUniform(20),
            "tn": TotalNonuniform(20.0),
            "iu": IndividualUniform.by_robot(graph, [2] * 10),
        }[regime]
        obj = ModularObjective(graph)
        planner = m_greedy if mode == "lazy" else functools.partial(eager, m_greedy)
        _, trace = planner(graph, GOLDEN_MGREEDY["k"], cb, obj)
        want = GOLDEN_MGREEDY["runs"][run]
        assert [[s.item, s.gain, s.value] for s in trace.steps] == want["steps"]
        assert trace.evaluations == want["evaluations"]
        assert trace.winner == want["winner"]
        assert trace.exhausted == want["exhausted"]
