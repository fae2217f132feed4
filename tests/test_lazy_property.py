"""Property: every greedy planner makes the eager reference's choices, with no more work.

The shipped ``GreedySelector`` is lazy; conftest's ``EagerSelector`` evaluates
every candidate every round. Instances are drawn small, with probabilities,
broadcast costs and pose weights from short lists so that gains tie often and
the lowest-id tie rule is exercised. The upper bounds of vertex greedy, which
make it lazy, are checked against the exact gains round by round.
"""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopselect import (
    DCritObjective,
    GreedySelector,
    IndividualUniform,
    ModularObjective,
    PoseGraph,
    TotalNonuniform,
    TotalUniform,
    TreeConnObjective,
    e_greedy,
    m_greedy,
    planners,
    s_greedy,
    v_greedy,
)

from conftest import EagerSelector, eager, make_graph, random_connected_pose_graph

PROBABILITY = st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])
COST = st.sampled_from([0.5, 1.0, 1.5, 2.0]) | st.floats(0.1, 3.0)


@st.composite
def exchange_graphs(draw):
    """A small exchange graph with tie-prone probabilities and broadcast costs."""
    r = draw(st.integers(2, 3))
    robot_of = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=9))
    n = len(robot_of)
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if robot_of[u] != robot_of[v]]
    assume(cross)
    pairs = draw(st.lists(st.sampled_from(cross), min_size=1, max_size=14, unique=True))
    ps = draw(st.lists(PROBABILITY, min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(COST, min_size=n, max_size=n))
    return make_graph(r, robot_of, pairs, ps, weights=weights)


def budget(draw, graph, regime):
    n = graph.num_vertices
    if regime == "tu":
        return TotalUniform(draw(st.integers(0, n + 1)))
    if regime == "tn":
        # a sum of some costs puts a plan exactly on the limit
        picked = draw(st.lists(st.sampled_from([v.weight for v in graph.vertices]), max_size=n))
        return TotalNonuniform(math.fsum(picked) + draw(st.sampled_from([0.0, 0.4])))
    limits = draw(st.lists(st.integers(0, 3), min_size=graph.num_robots, max_size=graph.num_robots))
    return IndividualUniform.by_robot(graph, limits)


def assert_same_choices(planner, graph, k, cb, objective):
    want_plan, want = eager(planner, graph, k, cb, objective)
    plan, got = planner(graph, k, cb, objective)
    assert plan == want_plan
    assert got.steps == want.steps
    assert got.winner == want.winner
    assert got.exhausted == want.exhausted
    for arm, child in (want.children or {}).items():
        assert got.children[arm].steps == child.steps, arm
        assert got.children[arm].evaluations <= child.evaluations, arm
    assert got.evaluations <= want.evaluations


@settings(max_examples=300, deadline=None)
@given(data=st.data(), regime=st.sampled_from(["tu", "tn", "iu"]))
def test_modular_planners_match_eager(data, regime):
    graph = data.draw(exchange_graphs())
    cb = budget(data.draw, graph, regime)
    k = data.draw(st.integers(0, graph.num_edges + 1))
    objective = ModularObjective(graph)
    assert_same_choices(m_greedy, graph, k, cb, objective)
    if regime == "tu":
        for planner in (e_greedy, v_greedy, s_greedy):
            assert_same_choices(planner, graph, k, cb, objective)


def pose_graph_for(draw, graph, seed):
    """A random connected pose graph binding each edge of ``graph`` to a pose pair."""
    base = random_connected_pose_graph(np.random.default_rng(seed))
    d = base.num_poses
    pose_pair = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)
    candidates = {
        e.id: (*draw(pose_pair), draw(st.sampled_from([0.5, 1.0, 2.0]))) for e in graph.edges
    }
    return PoseGraph(num_poses=d, base_edges=base.base_edges, candidate_map=candidates)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([TreeConnObjective, DCritObjective]),
)
def test_logdet_planners_match_eager(data, seed, kind):
    graph = data.draw(exchange_graphs())
    pose_graph = pose_graph_for(data.draw, graph, seed)
    cb = budget(data.draw, graph, "tu")
    k = data.draw(st.integers(0, graph.num_edges + 1))
    objective = kind(graph, pose_graph)
    for planner in (e_greedy, v_greedy, s_greedy):
        assert_same_choices(planner, graph, k, cb, objective)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selector_with_upper_bounds_matches_eager(data):
    # gains fall round by round in tie-prone steps down to exactly 0; each
    # round's bounds lie at or above its gains and are 0.0 only where a gain is
    n = data.draw(st.integers(1, 8))
    drops = st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n)
    start = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    gains = [
        [max(g, 0.0) for g in itertools.accumulate(data.draw(drops), operator.sub,
                                                   initial=data.draw(start))]
        for _ in range(n)
    ]
    margins = st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=n + 1, max_size=n + 1)
    over = [data.draw(margins) for _ in range(n)]
    cost = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n))
    budget = data.draw(st.integers(0, sum(cost)))

    def run(selector):
        picks, spent = [], 0

        def fits(c):
            return cost[c] <= budget - spent

        def upper():
            return np.array([gains[c][len(picks)] + over[c][len(picks)] for c in range(n)])

        sel = selector(range(n), lambda c: gains[c][len(picks)], feasible=fits, upper=upper)
        while (pick := sel.best()) is not None:
            picks.append(pick)
            spent += cost[pick[0]]
        return picks, sel.evaluations

    picks, evaluations = run(GreedySelector)
    want, want_evaluations = run(EagerSelector)
    assert picks == want
    assert evaluations <= want_evaluations


def assert_vertex_bounds_hold(graph, objective):
    """At every round of ``v_greedy``'s run, each vertex's bound is at least its
    exact gain, and 0.0 only where that gain is 0.0."""
    run, _ = planners._vertex_run(graph, objective)
    while True:
        for vid, bound in enumerate(run._upper().tolist()):
            gain = run._gain(vid)
            assert bound >= gain, (len(run.steps), vid, bound, gain)
            assert bound > 0.0 or gain == 0.0, (len(run.steps), vid, gain)
        picks = len(run.steps)
        run.extend(picks + 1)
        if len(run.steps) == picks:
            return


@pytest.mark.parametrize("kind", [ModularObjective, TreeConnObjective, DCritObjective])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_vertex_bounds_are_upper_bounds_every_round(kind, data, seed):
    graph = data.draw(exchange_graphs())
    if kind is ModularObjective:
        objective = kind(graph)
    else:
        objective = kind(graph, pose_graph_for(data.draw, graph, seed))
    assert_vertex_bounds_hold(graph, objective)


def test_vertex_bound_covers_the_rounding_of_its_float_sum():
    # vertex 0's probabilities add up to 1.2999999999999998 in floats, in
    # any order, below its gain, the fsum 1.3: the (L + 2)·2⁻⁵² allowance
    # lifts the bound over it
    ps = [0.95, 0.2, 0.15]
    graph = make_graph(2, [0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)], ps)
    assert all((a + b) + c < math.fsum(ps) for a, b, c in itertools.permutations(ps))
    assert_vertex_bounds_hold(graph, ModularObjective(graph))


def test_vertex_bound_covers_a_log_det_set_gain_above_its_edges():
    # vertex 3's two edges of weight 1e12 glue poses 1 and 2; then vertex 1's
    # edge on (1, 2) has a quadratic form that cancels to a few ulps of P0,
    # and the set gain of vertex 1's two live edges exceeds the sum of their
    # one-edge gains by about 1.1e-10, which only gain_slack covers
    graph = make_graph(2, [0, 1, 0, 1], [(0, 1), (0, 3), (1, 2), (2, 3)], [1.0] * 4)
    candidates = {0: (0, 1, 1.0), 1: (1, 2, 1e12), 2: (1, 2, 1e6), 3: (1, 2, 1e12)}
    pose_graph = PoseGraph(3, ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)), candidates)
    assert_vertex_bounds_hold(graph, TreeConnObjective(graph, pose_graph))
