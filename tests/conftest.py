"""Shared fixtures and random-instance factories for the test suite."""

import contextlib
import itertools
import math
import signal

import numpy as np
import pytest

from loopselect import (
    Edge,
    ExchangeGraph,
    GenSpec,
    InstanceTooLargeError,
    PoseGraph,
    Vertex,
    demo_rendezvous_graph,
    generate_exchange_graph,
    generate_pose_graph,
    planners,
)
from loopselect.graph import WEIGHT_TOL

COVER_GUARD = 25   # max distinct endpoints for the exact cover search


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, rather than hang, if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class EagerSelector(planners.GreedySelector):
    """Reference argmax for ``planners.GreedySelector``, which it replaces only in
    its rounds: every round evaluates every feasible candidate left, in id
    order, and takes the first maximum out of the pool. It trusts no bound, so
    it has no use for ``upper``; ``extend`` and ``steps`` are the shipped
    run's."""

    def __init__(self, candidates, gain_fn, upper=None, **run):
        super().__init__((), gain_fn, upper, **run)
        self._pool = sorted(set(candidates))

    def __len__(self):
        return len(self._pool)

    def best(self):
        self._pool = [c for c in self._pool if self._feasible(c)]
        if not self._pool:
            return None
        gains = [self._gain(c) for c in self._pool]
        self.evaluations += len(gains)
        best_g = max(gains)
        return self._pool.pop(gains.index(best_g)), best_g


def eager(planner, *args):
    """``planner(*args)`` with the eager reference in place of the shipped selector."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "GreedySelector", EagerSelector)
        return planner(*args)


@pytest.fixture
def demo_graph():
    """3 robots x 3 observations, 8 candidate edges, min cover size 3."""
    return demo_rendezvous_graph()


def make_graph(num_robots, robot_of, pairs, ps, weights=None):
    """Small literal graph builder for hand-written cases."""
    n = len(robot_of)
    weights = weights or [1.0] * n
    vertices = tuple(
        Vertex(id=i, robot=robot_of[i], weight=weights[i]) for i in range(n)
    )
    edges = tuple(
        Edge(id=i, u=u, v=v, p=p) for i, ((u, v), p) in enumerate(zip(pairs, ps))
    )
    return ExchangeGraph(num_robots, vertices, edges)


def random_modular_instance(seed, max_vertices=12, max_edges=16):
    """Random exchange graph plus random TU budgets, sized for brute force."""
    rng = np.random.default_rng(seed)
    while True:
        r = int(rng.integers(2, 4))
        vpr = int(rng.integers(1, max_vertices // r + 1))
        n = r * vpr
        max_pairs = sum(
            1
            for u in range(n)
            for v in range(u + 1, n)
            if u // vpr != v // vpr
        )
        if max_pairs >= 1:
            break
    m = int(rng.integers(1, min(max_edges, max_pairs) + 1))
    graph = generate_exchange_graph(
        GenSpec(
            num_robots=r,
            vertices_per_robot=vpr,
            num_edges=m,
            seed=int(rng.integers(0, 2**31)),
        )
    )
    b = int(rng.integers(1, graph.num_vertices + 2))
    k = int(rng.integers(1, graph.num_edges + 2))
    return graph, b, k


def random_treeconn_instance(seed, max_vertices=10, max_edges=12, max_poses=8):
    """Random exchange graph + connected pose graph, sized for brute force."""
    rng = np.random.default_rng(seed)
    shapes = [
        (r, vpr)
        for r, vpr in ((2, 2), (2, 3), (2, 4), (3, 2))
        if r * vpr <= min(max_vertices, max_poses)
    ]
    r, vpr = shapes[int(rng.integers(0, len(shapes)))]
    n = r * vpr
    max_pairs = sum(
        1 for u in range(n) for v in range(u + 1, n) if u // vpr != v // vpr
    )
    m = int(rng.integers(1, min(max_edges, max_pairs) + 1))
    spec = GenSpec(
        num_robots=r,
        vertices_per_robot=vpr,
        num_edges=m,
        seed=int(rng.integers(0, 2**31)),
    )
    graph = generate_exchange_graph(spec)
    pose_graph = generate_pose_graph(spec, graph)
    b = int(rng.integers(1, graph.num_vertices + 1))
    k = int(rng.integers(1, graph.num_edges + 2))
    return graph, pose_graph, b, k


def random_connected_pose_graph(rng, max_poses=7, extra_edges=5):
    """Connected random pose graph with random positive weights (no candidates)."""
    d = int(rng.integers(2, max_poses + 1))
    edges = []
    for j in range(1, d):  # random spanning tree
        i = int(rng.integers(0, j))
        edges.append((i, j, float(rng.uniform(0.2, 2.0))))
    all_pairs = [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if not any({i, j} == {a, b} for a, b, _ in edges)
    ]
    n_extra = int(rng.integers(0, min(extra_edges, len(all_pairs)) + 1))
    if n_extra:
        for idx in rng.choice(len(all_pairs), size=n_extra, replace=False):
            i, j = all_pairs[int(idx)]
            edges.append((i, j, float(rng.uniform(0.2, 2.0))))
    return PoseGraph(num_poses=d, base_edges=tuple(edges), candidate_map={})


def spanning_tree_weight_sum(num_poses, weighted_edges):
    """Oracle: sum over all spanning trees of the product of edge weights.

    Enumerates every (num_poses - 1)-subset of the edge list and keeps the
    acyclic connected ones, so parallel edges count as distinct trees.
    """
    total = 0.0
    for combo in itertools.combinations(range(len(weighted_edges)), num_poses - 1):
        parent = list(range(num_poses))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        prod = 1.0
        for idx in combo:
            i, j, w = weighted_edges[idx]
            ri, rj = find(i), find(j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
            prod *= w
        if acyclic:
            total += prod
    return total


def min_vertex_cover_bruteforce(graph, edge_ids, weighted=False) -> set[int]:
    """Exact minimum vertex cover of the edge set ``edge_ids``.

    Minimizes cardinality, or total vertex weight when ``weighted``; ties
    break to the lexicographically smallest id set. Exponential-time branch
    and bound on the endpoints of the edge set, guarded to at most
    ``COVER_GUARD`` distinct endpoints. The tests' exact reference: the
    package itself needs no vertex cover.
    """
    edges = [graph.edge(eid) for eid in sorted(set(edge_ids))]
    if not edges:
        return set()
    candidates = sorted({e.u for e in edges} | {e.v for e in edges})
    if len(candidates) > COVER_GUARD:
        raise InstanceTooLargeError(
            f"instance too large for exact cover ({len(candidates)} candidate vertices)"
        )
    cost_of = {
        vid: (graph.vertex(vid).weight if weighted else 1.0) for vid in candidates
    }

    best_cost = math.inf
    best_key = None

    def covered(e, sel):
        return e.u in sel or e.v in sel

    def search(idx, selected, cost):
        nonlocal best_cost, best_key
        if cost - best_cost > WEIGHT_TOL:
            return
        while idx < len(edges) and covered(edges[idx], selected):
            idx += 1
        if idx == len(edges):
            key = tuple(sorted(selected))
            if cost < best_cost - WEIGHT_TOL or (
                abs(cost - best_cost) <= WEIGHT_TOL
                and (best_key is None or key < best_key)
            ):
                best_cost = cost
                best_key = key
            return
        e = edges[idx]
        for vid in sorted((e.u, e.v)):
            selected.add(vid)
            search(idx + 1, selected, cost + cost_of[vid])
            selected.discard(vid)

    search(0, set(), 0.0)
    return set(best_key)
