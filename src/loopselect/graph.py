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

An ``ExchangeGraph`` stores its records as columns, one tuple per field;
the ``Vertex`` and ``Edge`` records, the lookups by id and the index arrays
of the numpy planners are derived from them at first use. ``GroundTruth``,
one draw of which candidates are true, sits here beside ``Plan``, so that the
parsers read and write it without importing the generator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

__all__ = [
    "Vertex",
    "Edge",
    "ExchangeGraph",
    "Plan",
    "GroundTruth",
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


@dataclass(frozen=True)
class GroundTruth:
    """Realized truth of every candidate edge (independent Bernoulli draws)."""

    realized: tuple[bool, ...]

    def true_count(self, edge_ids) -> int:
        return sum(1 for eid in edge_ids if self.realized[eid])


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
        blocks = {r: [] for r in range(graph.num_robots)}
        for vid, robot in zip(*graph.vertex_columns[:2]):
            if robot in blocks:
                blocks[robot].append(vid)
        return cls(blocks=tuple(map(tuple, blocks.values())), limits=limits)


CommBudget = TotalUniform | TotalNonuniform | IndividualUniform


class ExchangeGraph:
    """Simple undirected r-partite graph of observations and candidate matches.

    Stored as ``num_robots`` and seven columns, tuples in record order:
    ``vertex_columns`` is ``(ids, robots, weights)`` and ``edge_columns`` is
    ``(ids, us, vs, ps)``. Everything else is derived from them once, at its
    first use: the ``vertices`` and ``edges`` records, the id lookups,
    :meth:`index_arrays` and :meth:`ranked_incidences`, the one incidence
    index, which :meth:`incident` and :meth:`incidence_sums` read. Parsers
    and generators build a graph from
    columns (:meth:`from_columns`); the constructor takes records and
    transposes them into the same columns.

    Immutable after construction; every query is read-only and safe to call
    concurrently. Construction is permissive so that :meth:`validate` can
    report all invariant violations of an instance as data; parsers and
    generators are expected to reject instances with a non-empty report.
    """

    def __init__(self, num_robots, vertices, edges):
        self._set(num_robots, _transposed(vertices, 3), _transposed(edges, 4))

    @classmethod
    def from_columns(cls, num_robots, vertex_columns, edge_columns) -> "ExchangeGraph":
        """The graph of ``vertex_columns`` ``(ids, robots, weights)`` and
        ``edge_columns`` ``(ids, us, vs, ps)``, sequences of one entry per record."""
        graph = cls.__new__(cls)
        graph._set(num_robots, vertex_columns, edge_columns)
        return graph

    def _set(self, num_robots, vertex_columns, edge_columns):
        self.num_robots = int(num_robots)
        self.vertex_columns = tuple(map(tuple, vertex_columns))
        self.edge_columns = tuple(map(tuple, edge_columns))
        for what, columns, width in (("vertex", self.vertex_columns, 3),
                                     ("edge", self.edge_columns, 4)):
            if len(columns) != width or len(set(map(len, columns))) > 1:
                raise ValueError(f"need {width} {what} columns of one length")
        self._arrays = None  # index_arrays(), built at its first call

    # -- derived at first use -------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertex records, in column order."""
        return tuple(map(Vertex, *self.vertex_columns))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edge records, in column order."""
        return tuple(map(Edge, *self.edge_columns))

    @cached_property
    def _vertex_rows(self) -> dict:
        """Vertex id -> position in the columns (of its last record, if repeated)."""
        ids = self.vertex_columns[0]
        return dict(zip(ids, range(len(ids))))

    @cached_property
    def _edge_rows(self) -> dict:
        ids = self.edge_columns[0]
        return dict(zip(ids, range(len(ids))))

    @cached_property
    def _ends(self) -> np.ndarray:
        """Each edge's two endpoints as vertex rows (a 2 x m array), -1 where unknown."""
        _, us, vs, _ = self.edge_columns
        rows = self._vertex_rows.get
        ends = np.fromiter(map(rows, us + vs, repeat(-1)), np.intp, 2 * len(us))
        ends = ends.reshape(2, len(us))
        ends.setflags(write=False)
        return ends

    @cached_property
    def _p(self) -> np.ndarray:
        p = np.array(self.edge_columns[3], dtype=float)
        p.setflags(write=False)
        return p

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertex_columns[0])

    @property
    def num_edges(self):
        return len(self.edge_columns[0])

    def vertex_row(self, vid) -> int:
        """The position of vertex ``vid`` in ``vertex_columns`` and ``vertices``."""
        try:
            return self._vertex_rows[vid]
        except KeyError:
            raise ValueError(f"unknown vertex id {vid!r}") from None

    def edge_row(self, eid) -> int:
        """The position of edge ``eid`` in ``edge_columns`` and ``edges``."""
        try:
            return self._edge_rows[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid!r}") from None

    def vertex(self, vid) -> Vertex:
        return self.vertices[self.vertex_row(vid)]

    def edge(self, eid) -> Edge:
        return self.edges[self.edge_row(eid)]

    def incident(self, vid) -> tuple[int, ...]:
        """Edge ids incident to one vertex, in edge order; a self-loop once."""
        starts, flat = self.ranked_incidences()
        i = self.vertex_row(vid)
        return tuple(map(self.edge_columns[0].__getitem__,
                         sorted(flat[starts[i]:starts[i + 1]].tolist())))

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, ends, p)``: the vertex ids in graph order, each edge's two
        endpoints as indices into ``vertices`` (a 2 x m array), and each edge's
        probability, in edge order.

        Built once per graph, at the first call, from the columns; an edge
        with an unknown endpoint is a ValueError. The arrays are read-only.
        """
        if self._arrays is None:
            if (self._ends < 0).any():
                raise ValueError("an edge has an unknown endpoint")
            ids = np.array(self.vertex_columns[0], dtype=np.intp)
            ids.setflags(write=False)
            self._arrays = ids, self._ends, self._p
        return self._arrays

    def ranked_incidences(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, edges)``: every vertex's incident edges in one flat array, best first.

        ``edges[starts[i]:starts[i + 1]]`` holds the incident edges of
        ``vertices[i]`` as indices into ``edges``, by descending probability,
        ties to the lower edge id: a self-loop once, an unknown endpoint not
        at all, and a repeated vertex id's edges on its last row. The graph's
        one incidence index, sorted once, at the first call: one
        ``np.lexsort`` ranks the edges, then one stable ``argsort`` of their
        incidences, in rank order, groups them by owner. The owners are the
        narrowest unsigned integers that hold them, which numpy sorts by
        radix up to 16 bits. The arrays are read-only.
        """
        return self._index[:2]

    @cached_property
    def _index(self) -> tuple[np.ndarray, ...]:
        """``ranked_incidences()``'s ``(starts, edges)``, then each row's degree,
        whether it has an incidence, where its nonempty segment begins, and
        the rows in id order."""
        n = self.num_vertices
        rank = np.lexsort((np.array(self.edge_columns[0], dtype=np.int64), -self._p))
        # each ranked edge once per known endpoint, side by side; a self-loop once
        edges = np.repeat(rank, 2)
        owner = self._ends[:, rank].T.ravel()
        keep = owner >= 0
        keep[1::2] &= owner[1::2] != owner[::2]
        if not keep.all():
            edges, owner = edges[keep], owner[keep]
        edges = edges[np.argsort(owner.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")]
        starts = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=n), out=starts[1:])
        for array in (starts, edges):
            array.setflags(write=False)
        degree = np.diff(starts)
        touched = degree > 0
        by_id = np.lexsort((np.array(self.vertex_columns[0], dtype=np.int64),))
        return starts, edges, degree, touched, starts[:-1][touched], by_id

    def incidence_sums(self, terms, most=None) -> np.ndarray:
        """Each vertex's float sum of ``terms``, one term per entry of
        :meth:`ranked_incidences`' flat array, in ascending id order, widened
        for its rounding: a vertex with L = min(degree, ``most``) terms that
        can be nonzero (``most`` None: its degree) has its sum S multiplied by
        1 + (L + 2)·2⁻⁵², which covers the rounding of nonnegative terms'
        sum and of one more operation on S. A vertex with no incidence gets
        exactly 0.0, and so does one whose terms are all 0.
        """
        _, _, degree, touched, heads, by_id = self._index
        count = degree[touched] if most is None else np.minimum(degree[touched], most)
        sums = np.zeros(len(touched))
        # reduceat would give an empty segment the next one's first term
        sums[touched] = np.add.reduceat(terms, heads) * (1.0 + (count + 2) * 2.0**-52)
        return sums[by_id]

    def max_degree(self) -> int:
        """Maximum vertex degree; 0 for an edgeless graph."""
        u, v = self._ends
        # each known endpoint once, a self-loop once
        owner = np.concatenate((u[u >= 0], v[(v >= 0) & (v != u)]))
        return int(np.bincount(owner, minlength=self.num_vertices).max(initial=0))

    def edges_incident(self, vertex_ids) -> set[int]:
        """All edge ids with at least one endpoint in ``vertex_ids``."""
        out = set()
        for vid in vertex_ids:
            out.update(self.incident(vid))
        return out

    def is_cover(self, vertex_ids, edge_ids) -> bool:
        """True iff every edge in ``edge_ids`` has an endpoint in ``vertex_ids``."""
        chosen = set(vertex_ids)
        for vid in chosen:
            self.vertex_row(vid)
        _, us, vs, _ = self.edge_columns
        for eid in edge_ids:
            i = self.edge_row(eid)
            if us[i] not in chosen and vs[i] not in chosen:
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

        Each check runs once over the columns; only the records it flags are
        visited, in record order, a vertex's or an edge's messages in the
        order of the checks.
        """
        num_robots = self.num_robots
        vids, robots, weights = self.vertex_columns
        eids, us, vs, ps = self.edge_columns
        if num_robots < 2:
            yield ("robots",), f"num_robots must be at least 2, got {num_robots}"
        yield from _id_set_violations("vertex", vids)
        # equal robots share a code, so each distinct robot is checked once
        codes = {robot: c for c, robot in enumerate(dict.fromkeys(robots))}
        code = np.fromiter(map(codes.__getitem__, robots), np.intp, len(robots))
        off = np.array([not 0 <= robot < num_robots for robot in codes], dtype=bool)[code]
        light = ~(np.array(weights, dtype=float) > 0)
        for i in np.flatnonzero(off | light).tolist():
            if off[i]:
                yield ("vertex", i), f"vertex {vids[i]}: robot {robots[i]} out of range"
            if light[i]:
                yield ("vertex", i), f"vertex {vids[i]}: weight must be positive"
        yield from _id_set_violations("edge", eids)
        a, b = self._ends
        known = (a >= 0) & (b >= 0)
        loop = known & (a == b)
        pair = known & ~loop  # the edges whose endpoint pair counts as seen
        same, duplicate = np.zeros_like(known), np.zeros_like(known)
        same[pair] = code[a[pair]] == code[b[pair]]
        keys = (np.minimum(a, b) * len(vids) + np.maximum(a, b))[pair].tolist()
        if len(set(keys)) < len(keys):
            seen = set()
            for i, key in zip(np.flatnonzero(pair).tolist(), keys):
                duplicate[i] = key in seen
                seen.add(key)
        outside = ~((self._p >= 0.0) & (self._p <= 1.0))
        for i in np.flatnonzero(~known | loop | same | duplicate | outside).tolist():
            at, eid = ("edge", i), eids[i]
            if not known[i]:
                yield at, f"edge {eid}: unknown endpoint"
            elif loop[i]:
                yield at, f"edge {eid}: self-loop"
            else:
                if same[i]:
                    yield at, f"edge {eid}: not r-partite (both endpoints on robot {robots[a[i]]})"
                if duplicate[i]:
                    u, v = us[i], vs[i]
                    yield at, f"edge {eid}: duplicate of pair {(u, v) if u < v else (v, u)}"
                if outside[i]:
                    yield at, f"edge {eid}: probability out of range ({ps[i]})"

    # -- budgets and plans ---------------------------------------------------

    def budget_blocks(self, cb):
        """``(block_of, weight, limits)``: ``cb`` as limits on the summed weight of blocks.

        Cardinality is one block of unit weights, knapsack one block of
        broadcast costs, a partition matroid one unit-weight block per
        ``cb.blocks`` entry. The only place that reads what a budget means.
        Anything else, or blocks that do not partition the vertices (an
        unknown id, an id in two blocks, a vertex in none), is a ValueError.
        """
        vids, _, weights = self.vertex_columns
        weight = dict.fromkeys(vids, 1.0)
        if isinstance(cb, TotalNonuniform):
            weight = dict(zip(vids, weights))
        if isinstance(cb, (TotalUniform, TotalNonuniform)):
            return dict.fromkeys(vids, 0), weight, (cb.b,)
        if not isinstance(cb, IndividualUniform):
            raise ValueError(f"unsupported budget {cb!r}")
        block_of = {}
        for i, block in enumerate(cb.blocks):
            for vid in block:
                self.vertex_row(vid)
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
            self.vertex_row(vid)
            spent[block_of[vid]].append(weight[vid])
        return all(map(within_limit, spent, limits))

    def check_plan(self, plan, k, cb) -> bool:
        """Feasibility of a plan under (k, cb).

        Checks the witness cover the plan carries rather than solving a cover
        existence problem: at most k edges, every selected edge covered by the
        selected vertices, and the vertex set within budget.
        """
        for vid in plan.vertices:
            self.vertex_row(vid)
        for eid in plan.edges:
            self.edge_row(eid)
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
        residual = dict.fromkeys(self.vertex_columns[0], max_degree)
        eids, us, vs, ps = self.edge_columns
        admitted = []
        for i in sorted(range(self.num_edges), key=lambda i: (-ps[i], eids[i])):
            u, v = us[i], vs[i]
            if residual.get(u, 0) > 0 and residual.get(v, 0) > 0:
                admitted.append(i)
                residual[u] -= 1
                residual[v] -= 1
        admitted.sort(key=eids.__getitem__)
        kept = [[column[i] for i in admitted] for column in (us, vs, ps)]
        return ExchangeGraph.from_columns(
            self.num_robots, self.vertex_columns, (range(len(admitted)), *kept)
        )

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExchangeGraph):
            return NotImplemented
        return (
            self.num_robots == other.num_robots
            and self.vertex_columns == other.vertex_columns
            and self.edge_columns == other.edge_columns
        )

    def __repr__(self):
        return (
            f"ExchangeGraph(robots={self.num_robots}, "
            f"vertices={self.num_vertices}, edges={self.num_edges})"
        )


def _transposed(records, width):
    """``records`` as ``width`` columns."""
    return tuple(zip(*records)) or ((),) * width


def _id_set_violations(kind, ids):
    """The violation, if any, of ``ids`` not being exactly 0..n-1.

    A repeated id is blamed on the first record that repeats one; a gap alone
    has no record at fault.
    """
    n = len(ids)
    if ids == tuple(range(n)) or len(unique := set(ids)) == n and unique == set(range(n)):
        return
    at, seen = None, set()
    for i, vid in enumerate(ids):
        if vid in seen:
            at = (kind, i)
            break
        seen.add(vid)
    yield at, f"{kind} ids must be dense, 0-based, and unique"
