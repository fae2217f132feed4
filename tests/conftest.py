"""Shared fixtures and random-instance factories for the test suite."""

import contextlib
import dataclasses
import itertools
import logging
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
from loopselect.simplex import PIVOT_TOL, STALL

log = logging.getLogger(__name__)

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


def reference_simplex_max(c, A, b):
    """The bounded-variable simplex as it stood before its pivot step was cut to
    fewer array calls, kept verbatim as the reference ``simplex.simplex_max``
    must match bit for bit: every pivot, x, value, y and the DEBUG record
    (emitted here on this module's logger). It checks only the shapes and the
    sign of b, and runs each rank-one update as one block. ``STALL`` and
    ``PIVOT_TOL`` are imported into this module, so a test that changes
    ``simplex.STALL`` must change this module's ``STALL`` too."""
    c, b = (np.asarray(v, dtype=float) for v in (c, b))
    rows, cols = np.asarray(A.rows), np.asarray(A.cols)
    m, n = A.shape
    outside = len(rows) and (min(rows.min(), cols.min()) < 0 or rows.max() >= m or cols.max() >= n)
    if b.shape != (m,) or c.shape != (n,) or outside:
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < -PIVOT_TOL):
        raise ValueError("right-hand side must be non-negative")

    # tableau: columns = structural vars, slacks, rhs; last row = objective
    T = np.zeros((m + 1, n + m + 1))
    T[rows, cols] = A.vals
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:m, -1] = b
    T[-1, :n] = -c
    basis = list(range(n, n + m))
    upper = np.zeros(n, dtype=bool)  # structural variables held complemented, at 1
    reduced, rhs = T[-1, :-1], T[:, -1]  # views: track the objective row, rhs
    flat, width = T.ravel(), n + m + 1
    degenerate = pivots = degenerate_pivots = bland_pivots = flips = 0

    while True:
        if degenerate < STALL:  # Dantzig: most negative reduced cost
            entering = int(reduced.argmin())
            if reduced[entering] >= -PIVOT_TOL:
                break
        else:  # Bland: lowest index with improving cost
            improving = np.flatnonzero(reduced < -PIVOT_TOL)
            if improving.size == 0:
                break
            entering = int(improving[0])
        nonzero = (T[:, entering] != 0).nonzero()[0]  # a mask scans faster than floats
        col = T[nonzero, entering]
        # the ratio test in Python floats over the column's nonzero rows but the
        # last, the objective row: a basic variable falls to 0 (entry > 0) or a
        # basic indicator rises to 1 (entry < 0); a basic slack has no upper
        # bound, and an entry within PIVOT_TOL of 0 bounds nothing
        rows = nonzero[:-1]
        best, ratios = math.inf, []
        for row, entry, at in zip(rows.tolist(), col.tolist(), rhs[rows].tolist()):
            if entry > PIVOT_TOL:
                ratio = at / entry
            elif entry < -PIVOT_TOL and basis[row] < n:
                ratio = (1.0 - at) / -entry
            else:
                continue
            ratios.append((ratio, row, entry))
            if ratio < best:
                best = ratio

        if best >= (1.0 if entering < n else math.inf):  # it reaches its other bound first
            rhs[nonzero] -= col
            T[nonzero, entering] = -col
            upper[entering] = not upper[entering]
            degenerate = 0
            flips += 1
            continue

        # Bland: the lowest basis index among the ties
        _, leaving, element = min((basis[row], row, entry) for ratio, row, entry in ratios
                                  if ratio <= best + PIVOT_TOL)
        pivots += 1
        degenerate_pivots += best <= PIVOT_TOL
        bland_pivots += degenerate >= STALL
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        if element < 0:  # the basic indicator leaves at 1: complement it
            out = basis[leaving]
            T[leaving, out] = -1.0
            T[leaving, -1] -= 1.0
            upper[out] = not upper[out]

        cols = (T[leaving] != 0).nonzero()[0]
        kept = T[leaving, cols] / element  # the pivot row, divided
        # one rank-one update through the flat view; it spoils the pivot row,
        # which is then rewritten (cheaper than a mask)
        flat[nonzero[:, None] * width + cols] -= col[:, None] * kept
        T[leaving, cols] = kept
        basis[leaving] = entering

    log.debug("simplex %dx%d: %d pivots (%d degenerate, %d by Bland's rule), %d bound flips",
              m, n, pivots, degenerate_pivots, bland_pivots, flips)
    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    x[upper] = 1.0 - x[upper]
    return x, float(T[-1, -1]), np.maximum(T[-1, n:n + m], 0.0)


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


def reweighted_pose_graph(rng, pg, extra=3):
    """``pg`` with random base weights and ``extra`` random non-tree base edges:
    a ``dcrit`` prior M0 = L + eps·I other than the one its base gives."""
    base = [(i, j, float(rng.uniform(0.2, 2.0))) for i, j, _ in pg.base_edges]
    for _ in range(extra):
        i, j = rng.choice(pg.num_poses, size=2, replace=False)
        base.append((int(i), int(j), float(rng.uniform(0.2, 2.0))))
    return dataclasses.replace(pg, base_edges=tuple(base))


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
