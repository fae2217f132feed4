"""Planner behavior: feasibility, guarantees at small scale, determinism, lazy mode."""

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from loopselect import (
    DCritObjective,
    GenSpec,
    IndividualUniform,
    ModularObjective,
    TotalNonuniform,
    TotalUniform,
    TreeConnObjective,
    brute_force_opt,
    e_greedy,
    g_modular,
    generate_exchange_graph,
    generate_pose_graph,
    m_greedy,
    modular_value,
    random_baseline,
    s_greedy,
    v_greedy,
)

from loopselect.io import serialize_exchange_graph, serialize_pose_graph

from conftest import make_graph, random_modular_instance, random_treeconn_instance

ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)
GOLDEN = json.loads((Path(__file__).parent / "golden_sgreedy_5x40.json").read_text())
LOGDET_OBJECTIVES = {"treeconn": TreeConnObjective, "dcrit": DCritObjective}


@functools.lru_cache(maxsize=None)
def instance_5x40(seed):
    """5 robots x 40 observations, 300 candidates, with its pose graph."""
    spec = GenSpec(num_robots=5, vertices_per_robot=40, num_edges=300, seed=seed)
    graph = generate_exchange_graph(spec)
    return graph, generate_pose_graph(spec, graph)


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
            modular_value(demo_graph, [e.id for e in demo_graph.edges]), abs=1e-12
        )

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
                assert abs(modular_value(demo_graph, plan.edges) - g_val) <= 1e-12
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
        a = random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=42)
        b = random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=42)
        assert a == b

    def test_different_seeds_differ(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plans = {
            random_baseline(demo_graph, 3, TotalUniform(2), obj, seed=s).vertices
            for s in range(20)
        }
        assert len(plans) > 1

    def test_slack_budgets_take_everything(self, demo_graph):
        obj = ModularObjective(demo_graph)
        plan = random_baseline(
            demo_graph, demo_graph.num_edges, TotalUniform(demo_graph.num_vertices),
            obj, seed=5,
        )
        assert set(plan.edges) == {e.id for e in demo_graph.edges}

    def test_always_feasible(self):
        for seed in range(30):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            plan = random_baseline(graph, k, TotalUniform(b), obj, seed=seed)
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
    def test_identical_sequences_and_fewer_evaluations(self):
        for seed in range(30):
            graph, pg, b, k = random_treeconn_instance(seed)
            obj = TreeConnObjective(graph, pg)
            eager_plan, eager_tr = s_greedy(graph, k, TotalUniform(b), obj, lazy=False)
            lazy_plan, lazy_tr = s_greedy(graph, k, TotalUniform(b), obj, lazy=True)
            assert eager_plan == lazy_plan
            for arm in ("edge-arm", "vertex-arm"):
                e_steps = [s.item for s in eager_tr.children[arm].steps]
                l_steps = [s.item for s in lazy_tr.children[arm].steps]
                assert e_steps == l_steps
            assert lazy_tr.evaluations <= eager_tr.evaluations

    def test_modular_lazy_one_evaluation_per_round(self, demo_graph):
        obj = ModularObjective(demo_graph)
        _, trace = e_greedy(demo_graph, 3, TotalUniform(3), obj, lazy=True)
        m = demo_graph.num_edges
        # first round scans everything; later rounds re-evaluate once
        assert trace.evaluations == m + (3 - 1)

    def test_lazy_matches_eager_for_m_greedy(self):
        for seed in range(15):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            eager = m_greedy(graph, k, TotalUniform(b), obj, lazy=False)
            lazy = m_greedy(graph, k, TotalUniform(b), obj, lazy=True)
            assert eager[0] == lazy[0]
            assert lazy[1].evaluations <= eager[1].evaluations

    def test_modular_vertex_arm_lazy_matches_eager(self):
        # a vertex gain taken as a difference of rounded totals can grow by an
        # ulp as vertices are committed, which misleads the stale lazy bounds
        for seed in range(150):
            graph, b, k = random_modular_instance(seed, max_vertices=30, max_edges=60)
            obj = ModularObjective(graph)
            eager, eager_tr = v_greedy(graph, k, TotalUniform(b), obj, lazy=False)
            lazy, lazy_tr = v_greedy(graph, k, TotalUniform(b), obj, lazy=True)
            assert lazy == eager, seed
            assert lazy_tr.evaluations <= eager_tr.evaluations

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_identical_sequences_at_5x40(self, kind):
        graph, pg = instance_5x40(1)
        obj = LOGDET_OBJECTIVES[kind](graph, pg)
        for planner in (e_greedy, v_greedy):
            for k in (10, 20):
                eager, eager_tr = planner(graph, k, TotalUniform(10), obj, lazy=False)
                lazy, lazy_tr = planner(graph, k, TotalUniform(10), obj, lazy=True)
                assert lazy == eager
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
        plan, trace = s_greedy(graph, case["k"], TotalUniform(case["b"]), obj, lazy=True)
        assert trace.winner == case["winner"]
        assert list(plan.vertices) == case["vertices"]
        assert list(plan.edges) == case["edges"]
        assert {arm: tr.evaluations for arm, tr in trace.children.items()} == case["evaluations"]
        assert plan.achieved_value == pytest.approx(case["achieved_value"], rel=1e-9)
