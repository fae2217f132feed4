"""Exchange graphs, communication budgets, plans, and cover primitives.

An exchange graph describes a multi-robot rendezvous: one vertex per
broadcastable observation (owned by exactly one robot, with a positive
broadcast cost) and one edge per candidate inter-robot match, annotated with
the probability that verifying the pair yields a true loop closure. Because
both observations of a pair live on different robots, the graph is r-partite.

A candidate edge can only be verified once at least one of its endpoints has
been broadcast, so the verifiable edge sets are exactly those covered by the
broadcast vertex set. Planners therefore produce a ``Plan``: an ordered
vertex selection plus an ordered edge selection covered by it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Vertex",
    "Edge",
    "ExchangeGraph",
    "Plan",
    "TotalUniform",
    "TotalNonuniform",
    "IndividualUniform",
    "CommBudget",
    "within_limit",
]

WEIGHT_TOL = 1e-9  # absolute tolerance for real-valued budget comparisons


class Vertex(NamedTuple):
    """One observation: owned by ``robot``, broadcast cost ``weight`` > 0."""

    id: int
    robot: int
    weight: float = 1.0


class Edge(NamedTuple):
    """Candidate match between observations ``u`` and ``v``, true with probability ``p``."""

    id: int
    u: int
    v: int
    p: float


@dataclass(frozen=True)
class Plan:
    """A broadcast/verify decision.

    ``vertices`` and ``edges`` preserve selection order. A plan is feasible
    for budgets (k, cb) when it verifies at most k edges, every selected edge
    is covered by the selected vertices, and the vertex set satisfies cb;
    see :meth:`ExchangeGraph.check_plan`.
    """

    vertices: tuple[int, ...] = ()
    edges: tuple[int, ...] = ()
    achieved_value: float = 0.0


def within_limit(weights, limit) -> bool:
    """The budget fit rule: ``weights`` sum to at most ``limit + WEIGHT_TOL``.

    ``math.fsum`` is the exact sum rounded once, so the verdict can only turn
    false as a weight grows or joins, whatever the order of ``weights``.
    """
    return math.fsum(weights) <= limit + WEIGHT_TOL


def _check_budget(value, what, kind):
    if not (isinstance(value, kind) and 0 <= value < math.inf):
        raise ValueError(f"{what} must be non-negative and finite ({kind.__name__}): {value!r}")


@dataclass(frozen=True)
class TotalUniform:
    """Broadcast at most ``b`` observations in total (cardinality constraint)."""

    b: int

    def __post_init__(self):
        _check_budget(self.b, "budget", numbers.Integral)


@dataclass(frozen=True)
class TotalNonuniform:
    """Total broadcast weight at most ``b`` (knapsack constraint)."""

    b: float

    def __post_init__(self):
        _check_budget(self.b, "budget", numbers.Real)


@dataclass(frozen=True)
class IndividualUniform:
    """At most ``limits[i]`` broadcasts from block i (partition matroid constraint).

    ``blocks`` must partition the vertex ids. :meth:`by_robot` builds the
    natural partition in which block i holds robot i's observations.
    """

    blocks: tuple[tuple[int, ...], ...]
    limits: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.limits):
            raise ValueError("need one limit per block")
        for b in self.limits:
            _check_budget(b, "block limit", numbers.Integral)

    @classmethod
    def by_robot(cls, graph, limits):
        """Partition vertices by owning robot; ``limits`` has one entry per robot."""
        limits = tuple(limits)
        if len(limits) != graph.num_robots:
            raise ValueError(
                f"expected {graph.num_robots} limits, got {len(limits)}"
            )
        blocks = tuple(
            tuple(v.id for v in graph.vertices if v.robot == r)
            for r in range(graph.num_robots)
        )
        return cls(blocks=blocks, limits=limits)


CommBudget = TotalUniform | TotalNonuniform | IndividualUniform


class ExchangeGraph:
    """Simple undirected r-partite graph of observations and candidate matches.

    Immutable after construction; every query is read-only and safe to call
    concurrently. Construction is permissive so that :meth:`validate` can
    report all invariant violations of an instance as data; parsers and
    generators are expected to reject instances with a non-empty report.
    """

    def __init__(self, num_robots, vertices, edges):
        self.num_robots = int(num_robots)
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._vmap = {v.id: v for v in self.vertices}
        self._emap = {e.id: e for e in self.edges}
        incident = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.u in incident:
                incident[e.u].append(e.id)
            if e.v in incident and e.v != e.u:
                incident[e.v].append(e.id)
        self._incident = {vid: tuple(eids) for vid, eids in incident.items()}
        self._ranked = None  # ranked_incident(), sorted at its first call
        self._arrays = None  # index_arrays(), built at its first call

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    def vertex(self, vid) -> Vertex:
        try:
            return self._vmap[vid]
        except KeyError:
            raise ValueError(f"unknown vertex id {vid!r}") from None

    def edge(self, eid) -> Edge:
        try:
            return self._emap[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def incident(self, vid) -> tuple[int, ...]:
        """Edge ids incident to one vertex."""
        self.vertex(vid)
        return self._incident.get(vid, ())

    def ranked_incident(self) -> dict[int, tuple[tuple[float, int], ...]]:
        """Each vertex's incident edges as keys ``(-p, edge id)``, sorted best first.

        Sorted once per graph, at the first call. The key tuples are
        immutable, so a caller copies the ones it means to change.
        """
        if self._ranked is None:
            key = {e.id: (-e.p, e.id) for e in self.edges}
            self._ranked = {
                vid: tuple(sorted(map(key.__getitem__, eids)))
                for vid, eids in self._incident.items()
            }
        return self._ranked

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, ends, p)``: the vertex ids in graph order, each edge's two
        endpoints as indices into ``vertices`` (a 2 x m array), and each edge's
        probability, in edge order.

        Built once per graph, at the first call. The arrays are read-only.
        """
        if self._arrays is None:
            index = {v.id: i for i, v in enumerate(self.vertices)}
            ids = np.array([v.id for v in self.vertices], dtype=np.intp)
            ends = np.array([[index[e.u] for e in self.edges], [index[e.v] for e in self.edges]],
                            dtype=np.intp)
            p = np.array([e.p for e in self.edges], dtype=float)
            for array in (ids, ends, p):
                array.setflags(write=False)
            self._arrays = ids, ends, p
        return self._arrays

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for an edgeless graph."""
        if not self.vertices:
            return 0
        return max(len(eids) for eids in self._incident.values())

    def edges_incident(self, vertex_ids) -> set[int]:
        """All edge ids with at least one endpoint in ``vertex_ids``."""
        out = set()
        for vid in vertex_ids:
            out.update(self.incident(vid))
        return out

    def is_cover(self, vertex_ids, edge_ids) -> bool:
        """True iff every edge in ``edge_ids`` has an endpoint in ``vertex_ids``."""
        vs = set(vertex_ids)
        for vid in vs:
            self.vertex(vid)
        for eid in edge_ids:
            e = self.edge(eid)
            if e.u not in vs and e.v not in vs:
                return False
        return True

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations of this instance; empty means valid."""
        return [message for _, message in self.violations()]

    def violations(self):
        """Yield ``(record, message)`` per invariant violation.

        ``record`` names what is at fault: ``("robots",)``, ``("vertex", i)``
        for ``self.vertices[i]``, ``("edge", i)`` for ``self.edges[i]``, or
        None for an id set with a gap and no repeated id. Parsers map it back
        to the line of that record.
        """
        num_robots, vmap = self.num_robots, self._vmap
        if num_robots < 2:
            yield ("robots",), f"num_robots must be at least 2, got {num_robots}"
        yield from _id_set_violations("vertex", self.vertices, vmap)
        for i, (vid, robot, weight) in enumerate(self.vertices):
            if not 0 <= robot < num_robots:
                yield ("vertex", i), f"vertex {vid}: robot {robot} out of range"
            if not weight > 0:
                yield ("vertex", i), f"vertex {vid}: weight must be positive"
        yield from _id_set_violations("edge", self.edges, self._emap)
        seen_pairs = set()
        for i, (eid, u, v, p) in enumerate(self.edges):
            a, b = vmap.get(u), vmap.get(v)
            pair = (u, v) if u < v else (v, u)
            if (a is not None and b is not None and a.robot != b.robot
                    and pair not in seen_pairs and 0.0 <= p <= 1.0):
                seen_pairs.add(pair)
                continue
            at = ("edge", i)
            if a is None or b is None:
                yield at, f"edge {eid}: unknown endpoint"
                continue
            if u == v:
                yield at, f"edge {eid}: self-loop"
                continue
            if a.robot == b.robot:
                yield at, f"edge {eid}: not r-partite (both endpoints on robot {a.robot})"
            if pair in seen_pairs:
                yield at, f"edge {eid}: duplicate of pair {pair}"
            seen_pairs.add(pair)
            if not 0.0 <= p <= 1.0:
                yield at, f"edge {eid}: probability out of range ({p})"

    # -- budgets and plans ---------------------------------------------------

    def budget_blocks(self, cb):
        """``(block_of, weight, limits)``: ``cb`` as limits on the summed weight of blocks.

        Cardinality is one block of unit weights, knapsack one block of
        broadcast costs, a partition matroid one unit-weight block per
        ``cb.blocks`` entry. The only place that reads what a budget means.
        Anything else, or blocks that do not partition the vertices (an
        unknown id, an id in two blocks, a vertex in none), is a ValueError.
        """
        vids = [v.id for v in self.vertices]
        weight = dict.fromkeys(vids, 1.0)
        if isinstance(cb, TotalNonuniform):
            weight = {v.id: v.weight for v in self.vertices}
        if isinstance(cb, (TotalUniform, TotalNonuniform)):
            return dict.fromkeys(vids, 0), weight, (cb.b,)
        if not isinstance(cb, IndividualUniform):
            raise ValueError(f"unsupported budget {cb!r}")
        block_of = {}
        for i, block in enumerate(cb.blocks):
            for vid in block:
                self.vertex(vid)
                if vid in block_of:
                    raise ValueError(f"vertex {vid} is in two budget blocks")
                block_of[vid] = i
        for vid in vids:
            if vid not in block_of:
                raise ValueError(f"vertex {vid} is outside every budget block")
        return block_of, weight, cb.limits

    def budget_satisfied(self, vertex_ids, cb) -> bool:
        """Whether every block's summed weight over ``vertex_ids`` is within its limit."""
        block_of, weight, limits = self.budget_blocks(cb)
        spent = [[] for _ in limits]
        for vid in set(vertex_ids):
            self.vertex(vid)
            spent[block_of[vid]].append(weight[vid])
        return all(map(within_limit, spent, limits))

    def check_plan(self, plan, k, cb) -> bool:
        """Feasibility of a plan under (k, cb).

        Checks the witness cover the plan carries rather than solving a cover
        existence problem: at most k edges, every selected edge covered by the
        selected vertices, and the vertex set within budget.
        """
        for vid in plan.vertices:
            self.vertex(vid)
        for eid in plan.edges:
            self.edge(eid)
        if len(plan.edges) > k:
            return False
        if not self.is_cover(plan.vertices, plan.edges):
            return False
        return self.budget_satisfied(plan.vertices, cb)

    # -- derived graphs -----------------------------------------------------

    def cap_degree(self, max_degree) -> "ExchangeGraph":
        """Subgraph in which every vertex keeps at most ``max_degree`` edges.

        Edges are admitted in order of decreasing probability (ties to the
        lower edge id) while both endpoints still have residual degree, so
        the most probable candidates survive. Kept edges are renumbered
        densely in ascending original-id order; vertices are unchanged.
        """
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        residual = {v.id: max_degree for v in self.vertices}
        admitted = []
        for e in sorted(self.edges, key=lambda e: (-e.p, e.id)):
            if residual.get(e.u, 0) > 0 and residual.get(e.v, 0) > 0:
                admitted.append(e)
                residual[e.u] -= 1
                residual[e.v] -= 1
        admitted.sort(key=lambda e: e.id)
        renumbered = tuple(
            Edge(id=i, u=e.u, v=e.v, p=e.p) for i, e in enumerate(admitted)
        )
        return ExchangeGraph(self.num_robots, self.vertices, renumbered)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExchangeGraph):
            return NotImplemented
        return (
            self.num_robots == other.num_robots
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return (
            f"ExchangeGraph(robots={self.num_robots}, "
            f"vertices={self.num_vertices}, edges={self.num_edges})"
        )


def _id_set_violations(kind, records, by_id):
    """The violation, if any, of ``records``' ids not being exactly 0..n-1.

    A repeated id is blamed on the first record that repeats one; a gap alone
    has no record at fault.
    """
    n = len(records)
    if len(by_id) == n and by_id.keys() == set(range(n)):
        return
    at, seen = None, set()
    for i, record in enumerate(records):
        if record.id in seen:
            at = (kind, i)
            break
        seen.add(record.id)
    yield at, f"{kind} ids must be dense, 0-based, and unique"
