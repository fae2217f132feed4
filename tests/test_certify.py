"""Exact oracles, LP/ILP certification, and approximation-factor formulas."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    ExchangeGraph,
    GenSpec,
    IndividualUniform,
    ModularObjective,
    TotalNonuniform,
    TotalUniform,
    Vertex,
    TreeConnObjective,
    alpha_apriori,
    alpha_posteriori,
    alpha_tilde,
    brute_force_opt,
    e_greedy,
    generate_exchange_graph,
    ilp_opt_modular,
    lp_upper_bound_modular,
    m_greedy,
    s_greedy,
    v_greedy,
)
from loopselect import certify
from loopselect.cli import _ratio_lb
from loopselect.errors import InstanceTooLargeError

from conftest import make_graph, random_modular_instance, random_treeconn_instance, time_limit

ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)


def p1_direct_opt(graph, k, cb, objective):
    """Direct enumeration of the original problem: every at-most-k edge subset
    whose cover-existence constraint holds. Exponential in both vertex and
    edge counts; only for tiny cross-check instances."""
    eids = [e.id for e in graph.edges]
    vids = [v.id for v in graph.vertices]
    all_covers = [
        combo
        for t in range(len(vids) + 1)
        for combo in itertools.combinations(vids, t)
    ]
    best = 0.0
    for s in range(min(k, len(eids)) + 1):
        for sub in itertools.combinations(eids, s):
            if any(
                graph.is_cover(V, sub) and graph.budget_satisfied(V, cb)
                for V in all_covers
            ):
                best = max(best, objective.value(sub))
    return best


class TestBruteForce:
    def test_zero_k(self, demo_graph):
        obj = ModularObjective(demo_graph)
        value, plan = brute_force_opt(demo_graph, 0, TotalUniform(3), obj)
        assert value == 0.0 and plan.edges == ()

    def test_slack_communication_takes_top_k(self, demo_graph):
        obj = ModularObjective(demo_graph)
        k = 3
        value, _ = brute_force_opt(
            demo_graph, k, TotalUniform(demo_graph.num_vertices), obj
        )
        top = sorted((e.p for e in demo_graph.edges), reverse=True)[:k]
        assert value == pytest.approx(sum(top), abs=1e-12)

    def test_nested_equals_direct_enumeration(self):
        # the two problem formulations share their optimum
        for seed in range(15):
            graph, _, _ = random_modular_instance(seed, max_vertices=6, max_edges=6)
            obj = ModularObjective(graph)
            for b in (1, 2):
                for k in (1, 2, 3):
                    cb = TotalUniform(b)
                    nested, plan = brute_force_opt(graph, k, cb, obj)
                    direct = p1_direct_opt(graph, k, cb, obj)
                    assert nested == pytest.approx(direct, abs=1e-9)
                    assert graph.check_plan(plan, k, cb)

    def test_nested_equals_direct_submodular(self):
        for seed in range(6):
            graph, pg, _, _ = random_treeconn_instance(seed, max_vertices=6, max_edges=6)
            if graph.num_edges > 6:
                continue
            obj = TreeConnObjective(graph, pg)
            cb = TotalUniform(2)
            nested, _ = brute_force_opt(graph, 2, cb, obj)
            direct = p1_direct_opt(graph, 2, cb, obj)
            assert nested == pytest.approx(direct, abs=1e-9)

    def test_guard_trips(self):
        graph, _, _ = random_modular_instance(3)
        big = make_graph(
            2,
            [0] * 11 + [1] * 11,
            [(i, 11 + i) for i in range(11)],
            [0.5] * 11,
        )
        with pytest.raises(InstanceTooLargeError):
            brute_force_opt(big, 3, TotalUniform(11), ModularObjective(big))


def with_weights(graph, seed):
    """``graph`` with broadcast costs drawn from U[0.5, 3]."""
    rng = np.random.default_rng(seed)
    vertices = [Vertex(v.id, v.robot, float(rng.uniform(0.5, 3.0))) for v in graph.vertices]
    return ExchangeGraph(graph.num_robots, vertices, graph.edges)


class NoEvaluations:
    """A non-modular objective that fails the test if brute force ever evaluates it."""

    kind = "none"

    def value(self, edge_ids):
        raise AssertionError("objective evaluated before the guard tripped")


PROBABILITY = st.one_of(st.sampled_from([0.1, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))
# down to 1e-12, far below the simplex's 1e-9 pivot tolerance
TINY_PROBABILITY = st.one_of(
    st.sampled_from([1e-12, 1e-10, 1e-9, 0.5, 1.0]),
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
)


def draw_costed_instance(data, regime, with_edges=False, probability=PROBABILITY):
    """A small graph with broadcast costs and a ``regime`` budget for it.

    ``tn`` limits are sums of some of the weights, shifted onto, just past or
    just short of the fit tolerance. ``with_edges`` adds candidate matches
    between some inter-robot pairs, their probabilities drawn from ``probability``.
    """
    r = data.draw(st.integers(2, 3))
    robot_of = data.draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=8))
    n = len(robot_of)
    cost = st.one_of(st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 1.5]),
                     st.floats(0.05, 3.0))
    weights = data.draw(st.lists(cost, min_size=n, max_size=n))
    pairs = []
    if with_edges:
        across = [(u, v) for u, v in itertools.combinations(range(n), 2)
                  if robot_of[u] != robot_of[v]]
        if across:
            pairs = data.draw(st.lists(st.sampled_from(across), max_size=10, unique=True))
    ps = data.draw(st.lists(probability, min_size=len(pairs), max_size=len(pairs)))
    graph = make_graph(r, robot_of, pairs, ps, weights=weights)
    if regime == "tu":
        cb = TotalUniform(data.draw(st.integers(0, n + 1)))
    elif regime == "tn":
        # sums of some weights put subsets exactly on the limit
        picked = data.draw(st.lists(st.sampled_from(weights), max_size=n))
        shift = data.draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.3]))
        cb = TotalNonuniform(max(0.0, math.fsum(picked) + shift))
    else:
        limits = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        cb = IndividualUniform.by_robot(graph, limits)
    return graph, cb


class TestFeasibleSubsets:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_yields_each_budget_feasible_subset_once(self, data):
        regime = data.draw(st.sampled_from(["tu", "tn", "iu"]))
        graph, cb = draw_costed_instance(data, regime)
        n = graph.num_vertices
        got = list(certify._feasible_vertex_subsets(graph, cb))
        assert len(got) == len(set(got))
        assert all(list(s) == sorted(s) for s in got)
        want = {
            s
            for size in range(n + 1)
            for s in itertools.combinations(range(n), size)
            if graph.budget_satisfied(s, cb)
        }
        assert set(got) == want
        # the guard counts exactly these, and before the first is yielded
        with mock.patch.object(certify, "ENUM_GUARD", len(want)):
            assert sum(1 for _ in certify._feasible_vertex_subsets(graph, cb)) == len(want)
        with mock.patch.object(certify, "ENUM_GUARD", len(want) - 1):
            with pytest.raises(InstanceTooLargeError):
                next(certify._feasible_vertex_subsets(graph, cb))

    @pytest.mark.parametrize("regime", ["tu", "tn", "iu"])
    def test_guard_trips_before_any_evaluation_at_10x200(self, regime):
        spec = GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
        graph = generate_exchange_graph(spec)
        cb = {
            "tu": TotalUniform(20),
            "tn": TotalNonuniform(20.0),
            "iu": IndividualUniform.by_robot(graph, [2] * 10),
        }[regime]
        with time_limit(10), pytest.raises(InstanceTooLargeError, match="feasible vertex subsets"):
            brute_force_opt(graph, 40, cb, NoEvaluations())

    def test_weighted_guard_trips_before_any_evaluation(self):
        spec = GenSpec(num_robots=10, vertices_per_robot=40, num_edges=300, seed=0)
        graph = with_weights(generate_exchange_graph(spec), 0)
        with time_limit(30), pytest.raises(InstanceTooLargeError, match="feasible vertex subsets"):
            brute_force_opt(graph, 5, TotalNonuniform(3.0), NoEvaluations())

    def test_weighted_walk_does_not_recurse_per_vertex(self):
        # 1,200 vertices: more than the interpreter's default recursion limit
        spec = GenSpec(num_robots=3, vertices_per_robot=400, num_edges=500, seed=0)
        graph = with_weights(generate_exchange_graph(spec), 1)
        cb, obj = TotalNonuniform(1.0), ModularObjective(graph)
        with time_limit(30):
            value, plan = brute_force_opt(graph, 2, cb, obj)
        assert graph.check_plan(plan, 2, cb)
        assert value >= m_greedy(graph, 2, cb, obj)[0].achieved_value - 1e-12


class TestLP:
    def test_zero_budgets(self, demo_graph):
        assert lp_upper_bound_modular(demo_graph, 0, TotalUniform(3)) == pytest.approx(0.0, abs=1e-9)
        assert lp_upper_bound_modular(demo_graph, 3, TotalUniform(0)) == pytest.approx(0.0, abs=1e-9)

    def test_single_edge_integral(self):
        g = make_graph(2, [0, 1], [(0, 1)], [0.6])
        assert lp_upper_bound_modular(g, 1, TotalUniform(1)) == pytest.approx(0.6, abs=1e-9)

    def test_upper_bounds_opt(self):
        gaps = []
        for seed in range(40):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            opt, _ = brute_force_opt(graph, k, TotalUniform(b), obj)
            upt = lp_upper_bound_modular(graph, k, TotalUniform(b))
            assert upt >= opt
            gaps.append(upt - opt)
        assert min(gaps) >= 0  # sanity: never below
        print(f"mean integrality gap over {len(gaps)} instances: "
              f"{sum(gaps) / len(gaps):.4f}")


class TestAnyBudget:
    """The LP and the ILP under knapsack and partition budgets, against brute force."""

    @pytest.mark.parametrize("regime", ["tu", "tn", "iu"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lp_bounds_and_ilp_equals_brute_force(self, regime, data):
        graph, cb = draw_costed_instance(data, regime, with_edges=True)
        k = data.draw(st.integers(0, graph.num_edges + 1))
        opt, _ = brute_force_opt(graph, k, cb, ModularObjective(graph))
        assert lp_upper_bound_modular(graph, k, cb) >= opt
        assert ilp_opt_modular(graph, k, cb) == pytest.approx(opt, abs=1e-9)

    @pytest.mark.parametrize("regime", ["tu", "tn", "iu"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lp_bound_is_never_below_brute_force(self, regime, data):
        # edges below the pivot tolerance never enter the simplex's basis; the
        # dual bound counts them all the same, so no slack is forgiven
        graph, cb = draw_costed_instance(data, regime, with_edges=True,
                                         probability=TINY_PROBABILITY)
        k = data.draw(st.integers(0, graph.num_edges + 1))
        opt, _ = brute_force_opt(graph, k, cb, ModularObjective(graph))
        assert lp_upper_bound_modular(graph, k, cb) >= opt

    def test_row_admits_a_vertex_that_fits_by_the_tolerance(self):
        # 1.05e-8 > 1e-8 fits only through WEIGHT_TOL; a right-hand side of
        # 1e-8 would cap pi_0 at 0.952 and the LP at 0.667, below the optimum
        graph = make_graph(2, [0, 1], [(0, 1)], [0.7], weights=[1.05e-8, 1.0])
        cb = TotalNonuniform(1e-8)
        opt, _ = brute_force_opt(graph, 1, cb, ModularObjective(graph))
        assert opt == 0.7
        assert lp_upper_bound_modular(graph, 1, cb) >= opt - 1e-12
        assert ilp_opt_modular(graph, 1, cb) == pytest.approx(opt, abs=1e-12)

    def test_integral_node_over_budget_branches(self):
        # the root LP sets pi_0 = 1 - 5e-10, integral within 1e-9, but the
        # rounded set {0, 1} weighs 100 + 5e-8, past the 100 limit's tolerance
        graph = make_graph(2, [0, 0, 1, 1], [(0, 2), (1, 3)], [0.5, 0.5],
                           weights=[100.0, 5e-8, 1000.0, 1000.0])
        cb = TotalNonuniform(100.0)
        pi, value = certify._modular_lp(graph, 2, cb)
        assert 0 < 1.0 - pi[0] <= 1e-9 and pi[1] == 1.0
        assert not graph.budget_satisfied({0, 1}, cb)
        stats = {}
        assert ilp_opt_modular(graph, 2, cb, stats=stats) == pytest.approx(0.5, abs=1e-12)
        assert stats["nodes"] >= 1

    @pytest.mark.parametrize("robot_of, pairs, ps", [
        ([1, 0, 0, 0, 0, 0, 1, 1],
         [(3, 6), (1, 6), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 6), (4, 7), (1, 7)],
         [0.1, 1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 1e-9, 0.5, 0.1]),
        ([1, 1, 0, 0, 0, 0, 0, 1],
         [(2, 7), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (4, 7), (1, 4)],
         [0.1, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 1e-9, 0.5, 0.1]),
    ], ids=["bound-at-incumbent", "noise-fraction"])
    def test_optimum_one_edge_of_1e_9_above_greedy(self, robot_of, pairs, ps):
        # the simplex never prices in the 1e-9 edge (the dual bound still
        # counts it), and in the second case leaves an indicator 5e-9 off
        # zero; the node's rounded set must still be evaluated
        graph = make_graph(2, robot_of, pairs, ps, weights=[0.1] * 4 + [0.2] + [0.1] * 3)
        cb = TotalNonuniform(0.2)
        opt, _ = brute_force_opt(graph, 5, cb, ModularObjective(graph))
        assert opt == m_greedy(graph, 5, cb, ModularObjective(graph))[0].achieved_value + 1e-9
        assert ilp_opt_modular(graph, 5, cb) == opt

    def test_vertex_that_cannot_fit_alone_gets_no_column(self):
        # no feasible set holds a vertex of weight 2 under a limit of 1; as
        # columns, both would take pi = 1/2 and lift the bound to 0.5
        graph = make_graph(2, [0, 1], [(0, 1)], [1.0], weights=[2.0, 2.0])
        cb = TotalNonuniform(1.0)
        assert brute_force_opt(graph, 1, cb, ModularObjective(graph))[0] == 0.0
        assert certify._modular_lp(graph, 1, cb) == ({}, 0.0)
        assert ilp_opt_modular(graph, 1, cb) == 0.0

    def test_fixed_set_over_budget_is_infeasible(self):
        graph = make_graph(2, [0, 0, 1], [(0, 2), (1, 2)], [0.5, 0.5], weights=[0.6, 0.5, 1.0])
        assert certify._modular_lp(graph, 2, TotalNonuniform(1.0), fixed1={0, 1}) is None
        _, value = certify._modular_lp(graph, 2, TotalNonuniform(1.1), fixed1={0, 1})
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_one_unit_weight_block_is_the_cardinality_lp(self):
        # a knapsack over unit weights and a one-block matroid build the tu
        # row, right-hand side included, so the bound is the same to the bit
        graph = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=5, num_edges=30, seed=4))
        one_block = IndividualUniform(blocks=(tuple(range(graph.num_vertices)),), limits=(4,))
        tu = lp_upper_bound_modular(graph, 6, TotalUniform(4))
        assert lp_upper_bound_modular(graph, 6, TotalNonuniform(4.0)) == tu
        assert lp_upper_bound_modular(graph, 6, one_block) == tu


class TestBounds:
    @pytest.mark.parametrize("level, want", [
        ("none", (False, False)), ("lp", (False, True)), ("brute", (True, True)),
    ])
    def test_levels_under_every_regime(self, demo_graph, level, want):
        obj = ModularObjective(demo_graph)
        for cb in (TotalUniform(2), TotalNonuniform(2.5),
                   IndividualUniform.by_robot(demo_graph, [1, 1, 0])):
            opt, upt = certify.bounds(demo_graph, 3, cb, obj, level)
            assert (opt is not None, upt is not None) == want
            if opt is not None:
                assert opt <= upt

    def test_no_lp_for_a_submodular_objective(self):
        graph, pg, b, k = random_treeconn_instance(2)
        opt, upt = certify.bounds(graph, k, TotalUniform(b), TreeConnObjective(graph, pg), "brute")
        assert opt is not None and upt is None


class TestILP:
    def test_equals_brute_force(self):
        for seed in range(40):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            opt, _ = brute_force_opt(graph, k, TotalUniform(b), obj)
            assert ilp_opt_modular(graph, k, TotalUniform(b)) == pytest.approx(opt, abs=1e-9)

    def test_integral_root_branches_nothing(self):
        g = make_graph(2, [0, 1], [(0, 1)], [0.6])
        stats = {}
        ilp_opt_modular(g, 1, TotalUniform(1), stats=stats)
        assert stats["nodes"] == 0

    def test_solves_past_the_subset_count_at_an_integral_root(self):
        # 180 vertices at b=4: 43,268,956 feasible vertex subsets
        spec = GenSpec(num_robots=6, vertices_per_robot=30, num_edges=400, seed=1)
        graph = generate_exchange_graph(spec)
        stats = {}
        value = ilp_opt_modular(graph, 10, TotalUniform(4), stats=stats)
        assert stats == {"nodes": 0, "lp_solves": 1}
        assert value == pytest.approx(lp_upper_bound_modular(graph, 10, TotalUniform(4)), abs=1e-9)

    def test_node_guard_raises(self, monkeypatch):
        graph, b, k = random_modular_instance(169, max_vertices=16, max_edges=30)
        stats = {}
        opt, _ = brute_force_opt(graph, k, TotalUniform(b), ModularObjective(graph))
        assert ilp_opt_modular(graph, k, TotalUniform(b), stats=stats) == pytest.approx(opt, abs=1e-9)
        assert stats["nodes"] == 1
        monkeypatch.setattr(certify, "NODE_GUARD", 0)
        with pytest.raises(InstanceTooLargeError, match="branch and bound exceeds 0 nodes"):
            ilp_opt_modular(graph, k, TotalUniform(b))

    def test_dense_lp_guard_raises_before_allocating(self):
        # 10x200/5000 would need a 5002x7000 constraint matrix and a 480 MB tableau
        spec = GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
        graph = generate_exchange_graph(spec)
        with pytest.raises(InstanceTooLargeError, match="a 5002x7000 dense LP"):
            lp_upper_bound_modular(graph, 40, TotalUniform(20))
        with pytest.raises(InstanceTooLargeError, match="dense LP"):
            ilp_opt_modular(graph, 40, TotalUniform(20))

    def test_dense_lp_guard_counts_the_matrix_and_the_tableau(self, monkeypatch):
        # 3x5/30: one block row, the k row and 30 link rows over 15 + 30 columns;
        # the solve holds A (32 x 45) and the tableau beside it (33 x 78)
        graph = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=5, num_edges=30, seed=0))
        both = 32 * 45 + 33 * 78
        monkeypatch.setattr(certify, "LP_GUARD", both)
        assert lp_upper_bound_modular(graph, 4, TotalUniform(2)) > 0
        monkeypatch.setattr(certify, "LP_GUARD", both - 1)
        with pytest.raises(InstanceTooLargeError, match="a 32x45 dense LP"):
            lp_upper_bound_modular(graph, 4, TotalUniform(2))

    def test_slack_budgets_take_all(self, demo_graph):
        total = sum(e.p for e in demo_graph.edges)
        value = ilp_opt_modular(
            demo_graph, demo_graph.num_edges, TotalUniform(demo_graph.num_vertices)
        )
        assert value == pytest.approx(total, abs=1e-9)


class TestAlphaApriori:
    def test_constant_when_b_dominates(self):
        for b, k in ((5, 5), (10, 3), (200, 100)):
            assert alpha_apriori(b, k, 7) == pytest.approx(
                ONE_MINUS_1_OVER_E, abs=1e-12
            )

    def test_reference_point(self):
        # gamma = max(20/70, floor(70/41)/20) = 2/7
        expected = 1.0 - math.exp(-2.0 / 7.0)
        assert alpha_apriori(20, 70, 41) == pytest.approx(expected, abs=1e-12)
        assert alpha_apriori(20, 70, 41) == pytest.approx(0.248522706924714, abs=1e-12)

    def test_rejects_non_positive(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                alpha_apriori(*bad)

    def test_degree_only_floor_sampled(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            b = int(rng.integers(1, 201))
            k = int(rng.integers(1, 201))
            delta = int(rng.integers(1, 65))
            a = alpha_apriori(b, k, delta)
            assert 0.0 < a <= ONE_MINUS_1_OVER_E + 1e-12
            assert a >= 1.0 - math.exp(-1.0 / (delta + 1)) - 1e-12


class TestAlphaTilde:
    def test_constant_above_one(self):
        for kappa in (1.0, 1.5, 10.0):
            assert alpha_tilde(kappa, 9) == pytest.approx(ONE_MINUS_1_OVER_E, abs=1e-12)

    def test_minimum_at_inverse_sqrt_delta(self):
        for delta in (4, 9, 25, 41):
            kstar = 1.0 / math.sqrt(delta)
            at_star = alpha_tilde(kstar, delta)
            assert at_star == pytest.approx(
                1.0 - math.exp(-1.0 / math.sqrt(delta)), abs=1e-12
            )
            for kappa in np.linspace(0.01, 2.0, 199):
                assert alpha_tilde(float(kappa), delta) >= at_star - 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            alpha_tilde(0.0, 5)
        with pytest.raises(ValueError):
            alpha_tilde(0.5, 0)


class TestAlphaPosteriori:
    def test_vertex_budget_filled_gives_constant(self):
        graph, pg, _, _ = random_treeconn_instance(4)
        obj = TreeConnObjective(graph, pg)
        b = max(1, graph.num_vertices // 2)
        k = graph.num_edges + 1  # slack computation
        _, trace = v_greedy(graph, k, TotalUniform(b), obj)
        delta = max(1, graph.max_degree())
        _, a_v = alpha_posteriori(trace, b, k, delta)
        assert a_v == pytest.approx(ONE_MINUS_1_OVER_E, abs=1e-12)

    def test_edge_budget_filled_gives_constant(self):
        graph, pg, _, _ = random_treeconn_instance(6)
        obj = TreeConnObjective(graph, pg)
        k = max(1, graph.num_edges // 2)
        b = graph.num_vertices  # min(b, k) = k edges in phase one
        _, trace = e_greedy(graph, k, TotalUniform(b), obj)
        delta = max(1, graph.max_degree())
        a_e, _ = alpha_posteriori(trace, b, k, delta)
        assert a_e == pytest.approx(ONE_MINUS_1_OVER_E, abs=1e-12)

    def test_dominates_apriori(self):
        for seed in range(30):
            graph, pg, b, k = random_treeconn_instance(seed)
            delta = graph.max_degree()
            if delta < 1:
                continue
            obj = TreeConnObjective(graph, pg)
            _, trace = s_greedy(graph, k, TotalUniform(b), obj)
            a_e, a_v = alpha_posteriori(trace, b, k, delta)
            assert a_e >= 1.0 - math.exp(-min(1.0, b / k)) - 1e-12
            assert a_v >= 1.0 - math.exp(-min(1.0, (k // delta) / b)) - 1e-12
            assert max(a_e, a_v) >= alpha_apriori(b, k, delta) - 1e-12

    def test_foreign_trace_rejected(self, demo_graph):
        obj = ModularObjective(demo_graph)
        _, trace = m_greedy(demo_graph, 3, TotalUniform(2), obj)
        with pytest.raises(ValueError, match="a-posteriori"):
            alpha_posteriori(trace, 2, 3, 4)


class TestCertificate:
    def test_sandwich_on_random_instances(self):
        for seed in range(25):
            graph, b, k = random_modular_instance(seed)
            obj = ModularObjective(graph)
            cb = TotalUniform(b)
            plan, _ = m_greedy(graph, k, cb, obj)
            opt, _ = brute_force_opt(graph, k, cb, obj)
            upt = lp_upper_bound_modular(graph, k, TotalUniform(b))
            ratio = _ratio_lb(plan.achieved_value, upt)
            assert plan.achieved_value <= opt + 1e-9
            assert opt <= upt
            assert ratio is None or ratio <= 1.0 + 1e-9
