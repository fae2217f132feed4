"""Synthetic instance generation: exchange graphs, pose graphs, ground truth.

All generation is a pure function of its spec and seed. Randomness uses
numpy's PCG64 generator (a named, documented algorithm with stable streams),
so instances reproduce exactly across platforms and sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Edge, ExchangeGraph, GroundTruth, Vertex
from .objectives import PoseGraph

__all__ = [
    "GenSpec",
    "GroundTruth",
    "generate_exchange_graph",
    "pair_count",
    "decode_pairs",
    "generate_pose_graph",
    "sample_ground_truth",
    "demo_rendezvous_graph",
]


@dataclass(frozen=True)
class GenSpec:
    """Knobs for synthetic instances.

    Either ``edge_density`` (fraction of all inter-robot pairs) or
    ``num_edges`` (exact count) selects how many candidate edges to draw.
    Probabilities are i.i.d. uniform on (0, 1) unless ``probabilities``
    supplies a fixed list. ``max_degree`` optionally caps the result (the
    most probable edges survive). :func:`generate_pose_graph` gives every
    observation its own pose.
    """

    num_robots: int = 2
    vertices_per_robot: int = 3
    edge_density: float | None = None
    num_edges: int | None = None
    probabilities: tuple[float, ...] | None = None
    seed: int = 0
    max_degree: int | None = None

    def __post_init__(self):
        if self.num_robots < 2:
            raise ValueError("need at least 2 robots")
        if self.vertices_per_robot < 1:
            raise ValueError("need at least 1 vertex per robot")
        if self.edge_density is None and self.num_edges is None:
            raise ValueError("set edge_density or num_edges")
        if self.edge_density is not None and not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge_density must be within [0, 1]")


def generate_exchange_graph(spec: GenSpec) -> ExchangeGraph:
    """Random r-partite exchange graph; deterministic per seed.

    Vertex ids are robot-major (robot 0 owns ids 0..V-1 and so on). The
    inter-robot pairs ``(u < v)`` are ranked lexicographically, m distinct
    ranks are sampled without replacement, then probabilities are drawn, then
    the optional degree cap is applied. The pair list is never built: each
    sampled rank is decoded to its pair by :func:`decode_pairs`, so memory is
    O(n + m) rather than O(n²).
    """
    rng = np.random.default_rng(spec.seed)
    r, nv = spec.num_robots, spec.vertices_per_robot
    vertices = range(r * nv), [i // nv for i in range(r * nv)], (1.0,) * (r * nv)
    num_pairs = pair_count(r, nv)
    m = spec.num_edges if spec.num_edges is not None else round(
        spec.edge_density * num_pairs
    )
    if not 0 <= m <= num_pairs:
        raise ValueError(
            f"infeasible density: want {m} edges out of {num_pairs} candidate pairs"
        )
    ranks = np.sort(rng.choice(num_pairs, size=m, replace=False)) if m else []
    us, vs = decode_pairs(ranks, r, nv)
    if spec.probabilities is not None:
        if len(spec.probabilities) != m:
            raise ValueError("fixed probability list must have one entry per edge")
        ps = list(spec.probabilities)
    else:
        ps = rng.uniform(0.0, 1.0, size=m).tolist()
    graph = ExchangeGraph.from_columns(r, vertices, (range(m), us.tolist(), vs.tolist(), ps))
    if spec.max_degree is not None:
        graph = graph.cap_degree(spec.max_degree)
    bad = graph.validate()
    if bad:
        raise AssertionError(f"generator produced an invalid graph: {bad}")
    return graph


def pair_count(num_robots: int, vertices_per_robot: int) -> int:
    """Number of inter-robot vertex pairs: ``V²·r(r-1)/2``."""
    nv = vertices_per_robot
    return nv * nv * num_robots * (num_robots - 1) // 2


def decode_pairs(ranks, num_robots: int, vertices_per_robot: int):
    """Pairs ``(us, vs)`` at the given ranks of the lexicographic pair list.

    The list is every inter-robot pair ``(u < v)`` in lexicographic order.
    Vertex u of robot q pairs with exactly the vertices of robots q+1..r-1,
    so its pairs hold ``(r-1-q)·V`` consecutive ranks from ``start[u]`` on,
    with v running up from ``(q+1)·V``. Costs O(n + len(ranks)).
    """
    r, nv = num_robots, vertices_per_robot
    ranks = np.asarray(ranks, dtype=np.int64)
    per_vertex = (r - 1 - np.arange(r * nv, dtype=np.int64) // nv) * nv
    start = np.cumsum(per_vertex) - per_vertex
    us = np.searchsorted(start, ranks, side="right") - 1
    return us, (us // nv + 1) * nv + ranks - start[us]


def generate_pose_graph(spec: GenSpec, graph: ExchangeGraph) -> PoseGraph:
    """Backbone pose graph aligned with a generated exchange graph.

    Exchange vertex i sits on pose i, and robot r's poses lie on grid row r.
    The base is one odometry chain through all poses in id order, so each
    robot's chain is bridged to the next and the base graph is connected.
    Every exchange edge maps to the pose pair of its endpoints. All base and
    candidate weights are 1.
    """
    r, nv = spec.num_robots, spec.vertices_per_robot
    num_poses = r * nv
    base = [(i, i + 1, 1.0) for i in range(num_poses - 1)]
    poses = tuple(
        (float(j), float(robot), 0.0)
        for robot in range(r)
        for j in range(nv)
    )
    eids, us, vs, _ = graph.edge_columns
    candidate_map = {eid: (u, v, 1.0) for eid, u, v in zip(eids, us, vs)}
    pg = PoseGraph(
        num_poses=num_poses,
        base_edges=tuple(base),
        candidate_map=candidate_map,
        anchor=0,
        poses=poses,
    )
    bad = pg.validate()
    if bad or not pg.is_connected():
        raise AssertionError(f"generator produced an invalid pose graph: {bad}")
    return pg


def sample_ground_truth(graph: ExchangeGraph, seed) -> GroundTruth:
    """One Bernoulli draw per edge with its own probability; deterministic per seed."""
    rng = np.random.default_rng(seed)
    draws = rng.random(graph.num_edges)
    return GroundTruth(
        realized=tuple(bool(d < p) for d, p in zip(draws, graph.edge_columns[3]))
    )


def demo_rendezvous_graph(probabilities=None) -> ExchangeGraph:
    """Canonical 3-robot demo instance: 9 observations, 8 candidate matches.

    Its minimum vertex cover has exactly 3 vertices (one per robot), which
    makes it a handy worked example for covers, budgets, and planner smoke
    tests. Pass 8 probabilities to override the defaults.
    """
    if probabilities is None:
        probabilities = (0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55)
    if len(probabilities) != 8:
        raise ValueError("need exactly 8 probabilities")
    vertices = tuple(Vertex(id=i, robot=i // 3, weight=1.0) for i in range(9))
    pairs = [(0, 4), (1, 3), (1, 7), (1, 8), (4, 6), (1, 6), (2, 4), (5, 6)]
    edges = tuple(
        Edge(id=i, u=u, v=v, p=p)
        for i, ((u, v), p) in enumerate(zip(pairs, probabilities))
    )
    return ExchangeGraph(3, vertices, edges)
