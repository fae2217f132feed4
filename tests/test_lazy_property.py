"""Property: every greedy planner makes the eager reference's choices, with no more work.

The shipped ``GreedySelector`` is lazy; conftest's ``EagerSelector`` evaluates
every candidate every round. Instances are drawn small, with probabilities,
broadcast costs and pose weights from short lists so that gains tie often and
the lowest-id tie rule is exercised.
"""

import itertools
import math
import operator

import numpy as np
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


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([TreeConnObjective, DCritObjective]),
)
def test_logdet_planners_match_eager(data, seed, kind):
    graph = data.draw(exchange_graphs())
    base = random_connected_pose_graph(np.random.default_rng(seed))
    d = base.num_poses
    pose_pair = st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)
    candidates = {
        e.id: (*data.draw(pose_pair), data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        for e in graph.edges
    }
    pose_graph = PoseGraph(num_poses=d, base_edges=base.base_edges, candidate_map=candidates)
    cb = budget(data.draw, graph, "tu")
    k = data.draw(st.integers(0, graph.num_edges + 1))
    objective = kind(graph, pose_graph)
    for planner in (e_greedy, v_greedy, s_greedy):
        assert_same_choices(planner, graph, k, cb, objective)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), slack=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_selector_with_feasibility_and_slack_matches_eager(data, slack):
    # gains fall round by round in tie-prone steps; a candidate stops fitting
    # once the picks have spent too much of the budget
    n = data.draw(st.integers(1, 8))
    drops = st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n)
    gains = [
        list(itertools.accumulate(data.draw(drops), operator.sub,
                                  initial=data.draw(st.sampled_from([1.0, 2.0, 3.0]))))
        for _ in range(n)
    ]
    cost = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n))
    budget = data.draw(st.integers(0, sum(cost)))

    def bounds(cs):  # exact: each candidate's first gain
        return np.array([gains[c][0] for c in cs])

    def run(selector):
        picks, spent = [], 0

        def fits(c):
            return cost[c] <= budget - spent

        sel = selector(range(n), lambda c: gains[c][len(picks)], bounds, feasible=fits,
                       slack=slack)
        while (pick := sel.best()) is not None:
            picks.append(pick)
            spent += cost[pick[0]]
        return picks, sel.evaluations

    picks, evaluations = run(GreedySelector)
    want, want_evaluations = run(EagerSelector)
    assert picks == want
    assert evaluations <= want_evaluations


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
