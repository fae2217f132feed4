"""Set-function objectives over candidate edges, plus the nested vertex objective.

Three normalized monotone objectives are provided:

* ``ModularObjective`` — expected number of true matches, the sum of edge
  probabilities. Modular, so marginal gains are constants.
* ``DCritObjective`` — expected log-determinant gain of an information matrix
  over a positive-definite prior. Each candidate edge contributes a rank-one
  term ``p(e) * w_e * a_e a_eᵀ`` on the anchored pose space, where ``a_e`` is
  the reduced incidence vector of the pose pair the edge constrains.
* ``TreeConnObjective`` — log of the gain in the weighted number of spanning
  trees of the pose graph (reduced-Laplacian log-determinant gain). Requires
  a connected base graph, which makes the objective monotone submodular.

Every objective offers two ways to evaluate it. ``value(edge_ids)`` is the
dense, stateless reference: for the log-det objectives it rebuilds the matrix
and refactorizes it, O(|S|d² + d³) per call. ``oracle()`` returns the state
of one planner run: ``gain(edge_ids)`` is the marginal gain of adding a set of
new edges to everything committed so far, ``commit(edge_ids)`` adds them, and
``value`` is the running objective value. The log-det oracle inverts the base
matrix once per run, reads a one-edge gain ``log1p(s aᵀM⁻¹a)`` off at most
three entries of the cached inverse (matrix determinant lemma, so it is never
negative) and commits by a Sherman–Morrison update, O(d²).

``g_modular`` is the nested objective on vertex sets: the best value of at
most k verifiable edges once a vertex set has been broadcast. For the modular
objective it has a closed form (sum of the top-k incident probabilities) and
is itself normalized, monotone, and submodular, which is what lets vertex
greedy planners run on it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import inv_pd, logdet_pd

__all__ = [
    "PoseGraph",
    "ModularObjective",
    "DCritObjective",
    "TreeConnObjective",
    "modular_value",
    "g_modular",
    "dcrit_value",
    "treeconn_value",
    "marginal",
]

DEFAULT_PRIOR_EPS = 1e-6  # diagonal regularization making the default prior PD


@dataclass(frozen=True)
class PoseGraph:
    """Pose-level backbone consumed by the information objectives.

    ``base_edges`` are the constraints present before any verification
    (odometry chains plus bridging priors), each ``(i, j, weight)`` with
    weight > 0 between pose ids. ``candidate_map`` binds an exchange-graph
    edge id to the pose pair ``(i, j, weight)`` a verified match would
    constrain. ``poses`` optionally carries planar (x, y, theta) coordinates;
    only counts and connectivity matter to the objectives. The ``anchor``
    pose is pinned, i.e. its row/column is deleted from incidence vectors and
    Laplacians.
    """

    num_poses: int
    base_edges: tuple[tuple[int, int, float], ...]
    candidate_map: dict[int, tuple[int, int, float]] = field(default_factory=dict)
    anchor: int = 0
    poses: tuple[tuple[float, float, float], ...] | None = None

    def validate(self) -> list[str]:
        bad = []
        if self.num_poses < 2:
            bad.append("need at least two poses")
        if not 0 <= self.anchor < self.num_poses:
            bad.append(f"anchor {self.anchor} out of range")
        if self.poses is not None and len(self.poses) != self.num_poses:
            bad.append("pose coordinate count does not match num_poses")
        for i, j, w in self.base_edges:
            if not (0 <= i < self.num_poses and 0 <= j < self.num_poses) or i == j:
                bad.append(f"base edge ({i},{j}) invalid")
            if not (w > 0 and math.isfinite(w)):
                bad.append(f"base edge ({i},{j}) weight must be positive and finite")
        for eid, (i, j, w) in self.candidate_map.items():
            if not (0 <= i < self.num_poses and 0 <= j < self.num_poses) or i == j:
                bad.append(f"candidate {eid}: pose pair ({i},{j}) invalid")
            if not (w > 0 and math.isfinite(w)):
                bad.append(f"candidate {eid}: weight must be positive and finite")
        return bad

    def is_connected(self) -> bool:
        """Connectivity of the base graph over all poses (union-find)."""
        parent = list(range(self.num_poses))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in self.base_edges:
            parent[find(i)] = find(j)
        roots = {find(i) for i in range(self.num_poses)}
        return len(roots) <= 1

    def reduced_incidence(self, i, j) -> np.ndarray:
        """Incidence vector of pose pair (i, j) with the anchor coordinate deleted."""
        a = np.zeros(self.num_poses)
        a[i] = 1.0
        a[j] = -1.0
        return np.delete(a, self.anchor)

    def base_laplacian_reduced(self) -> np.ndarray:
        """Weighted Laplacian of the base edges, anchor row/column deleted."""
        d = self.num_poses - 1
        L = np.zeros((d, d))
        for i, j, w in self.base_edges:
            a = self.reduced_incidence(i, j)
            L += w * np.outer(a, a)
        return L


class ModularObjective:
    """Expected number of true matches within an edge set: sum of probabilities."""

    kind = "modular"

    def __init__(self, graph):
        self.graph = graph

    def value(self, edge_ids) -> float:
        return math.fsum(self.graph.edge(eid).p for eid in set(edge_ids))

    def marginal(self, edge_ids, eid) -> float:
        if eid in set(edge_ids):
            raise ValueError(f"edge {eid} already selected")
        return self.graph.edge(eid).p

    def oracle(self) -> _ModularOracle:
        """Fresh gain/commit state for one planner run."""
        return _ModularOracle(self.graph)


def _fresh(committed, edge_ids) -> set[int]:
    """``edge_ids`` as a set; errors if any of them is already committed."""
    new = set(edge_ids)
    if not committed.isdisjoint(new):
        raise ValueError(f"edges {sorted(committed & new)} already committed")
    return new


class _ModularOracle:
    """Running modular value of one planner run.

    A gain is the ``math.fsum`` of the new edges' probabilities, the exact
    marginal rounded once: one edge gains exactly its probability, and a
    vertex's gain carries none of the rounding of the committed total, so it
    can only shrink as its new-edge set does (which lazy greedy relies on).
    ``value`` is the ``math.fsum`` of the committed probabilities, as in
    :meth:`ModularObjective.value`.
    """

    def __init__(self, graph):
        self._p = {e.id: e.p for e in graph.edges}
        self._committed: set[int] = set()
        self.value = 0.0

    def _sum(self, edge_ids) -> float:
        try:
            return math.fsum(map(self._p.__getitem__, edge_ids))
        except KeyError as err:
            raise ValueError(f"unknown edge id {err.args[0]!r}") from None

    def gain(self, edge_ids) -> float:
        return self._sum(_fresh(self._committed, edge_ids))

    def commit(self, edge_ids):
        committed = self._committed | _fresh(self._committed, edge_ids)
        self.value = self._sum(committed)
        self._committed = committed


class _LogDetOracle:
    """Determinant-lemma gains of one planner run over a cached inverse.

    ``_P`` holds M⁻¹ in pose coordinates with the anchor's row and column
    zero, so for an edge on pose pair (i, j) the reduced incidence vector a
    gives ``aᵀM⁻¹a = P[i,i] + P[j,j] - 2 P[i,j]`` and ``M⁻¹a = P[:,i] - P[:,j]``.
    """

    def __init__(self, pairs, M0, anchor):
        n = M0.shape[0] + 1
        keep = np.delete(np.arange(n), anchor)
        self._P = np.zeros((n, n))
        self._P[np.ix_(keep, keep)] = inv_pd(M0)
        self._pairs = pairs
        self._committed: set[int] = set()
        self.value = 0.0

    def _terms(self, new):
        """(i, j, s) of each edge in ``new`` with s > 0, in the given order."""
        try:
            terms = [self._pairs[eid] for eid in new]
        except KeyError as err:
            raise ValueError(f"unknown edge id {err.args[0]!r}") from None
        return [t for t in terms if t[2] != 0.0]

    def _quad(self, i, j) -> float:
        P = self._P
        # a quadratic form of a PD matrix; clamp the rounding below zero
        return max(float(P[i, i] + P[j, j] - 2.0 * P[i, j]), 0.0)

    def gain(self, edge_ids) -> float:
        terms = self._terms(sorted(_fresh(self._committed, edge_ids)))
        if not terms:
            return 0.0
        if len(terms) == 1:
            i, j, s = terms[0]
            return math.log1p(s * self._quad(i, j))
        # logdet(I + S½ AᵀM⁻¹A S½) for the r new edges at once
        I, J, s = (np.array(col) for col in zip(*terms))
        P = self._P
        G = P[np.ix_(I, I)] - P[np.ix_(I, J)] - P[np.ix_(J, I)] + P[np.ix_(J, J)]
        root = np.sqrt(s)
        K = np.eye(len(terms)) + root[:, None] * G * root[None, :]
        # det(K) >= 1 exactly, so only rounding could push this below zero
        return max(logdet_pd(K), 0.0)

    def commit(self, edge_ids):
        new = _fresh(self._committed, edge_ids)
        terms = self._terms(sorted(new))
        self._committed |= new
        P = self._P
        for i, j, s in terms:
            u = P[:, i] - P[:, j]
            sr = s * max(float(u[i] - u[j]), 0.0)
            P -= (s / (1.0 + sr)) * np.outer(u, u)
            self.value += math.log1p(sr)


class _RankOneLogDet:
    """logdet(M0 + sum of per-edge rank-one terms) - logdet(M0).

    Subclasses fix the base matrix M0. Each exchange edge e mapped to pose
    pair (i, j) with candidate weight w contributes ``p(e) * w * a aᵀ`` where
    a is the reduced incidence vector of (i, j). ``value`` rebuilds and
    refactorizes the matrix per query and is the dense reference; planners
    take their gains from :meth:`oracle`. Contributions are accumulated in
    ascending edge-id order so that zero-probability edges change nothing,
    bit for bit.
    """

    def __init__(self, graph, pose_graph, M0):
        bad = pose_graph.validate()
        if bad:
            raise ValueError("invalid pose graph: " + "; ".join(bad))
        missing = [e.id for e in graph.edges if e.id not in pose_graph.candidate_map]
        if missing:
            raise ValueError(f"candidate_map lacks exchange edges {missing}")
        self.graph = graph
        self.pose_graph = pose_graph
        self._M0 = np.asarray(M0, dtype=float)
        self._logdet0 = logdet_pd(self._M0)
        self._terms = {}
        self._pairs = {}
        for e in graph.edges:
            i, j, w = pose_graph.candidate_map[e.id]
            self._terms[e.id] = (pose_graph.reduced_incidence(i, j), e.p * w)
            self._pairs[e.id] = (i, j, e.p * w)

    def _matrix(self, edge_ids) -> np.ndarray:
        M = self._M0.copy()
        for eid in sorted(set(edge_ids)):
            try:
                a, s = self._terms[eid]
            except KeyError:
                raise ValueError(f"unknown edge id {eid!r}") from None
            if s != 0.0:
                M += s * np.outer(a, a)
        return M

    def value(self, edge_ids) -> float:
        return logdet_pd(self._matrix(edge_ids)) - self._logdet0

    def marginal(self, edge_ids, eid) -> float:
        selected = set(edge_ids)
        if eid in selected:
            raise ValueError(f"edge {eid} already selected")
        return self.value(selected | {eid}) - self.value(selected)

    def oracle(self) -> _LogDetOracle:
        """Fresh gain/commit state for one planner run (inverts M0 once)."""
        return _LogDetOracle(self._pairs, self._M0, self.pose_graph.anchor)


class DCritObjective(_RankOneLogDet):
    """Expected information gain in the D-optimality criterion.

    The prior must be symmetric positive definite. By default it is the base
    (odometry) information plus ``eps`` on the diagonal; pass ``prior`` to
    supply the matrix explicitly (shape ``(num_poses - 1,) * 2``).
    """

    kind = "dcrit"

    def __init__(self, graph, pose_graph, prior=None, eps=DEFAULT_PRIOR_EPS):
        if prior is None:
            d = pose_graph.num_poses - 1
            M0 = pose_graph.base_laplacian_reduced() + eps * np.eye(d)
        else:
            M0 = np.asarray(prior, dtype=float)
            if M0.ndim != 2 or M0.shape[0] != M0.shape[1]:
                raise ValueError("prior must be a square matrix")
            if M0.shape[0] != pose_graph.num_poses - 1:
                raise ValueError(
                    f"prior must be {pose_graph.num_poses - 1}x{pose_graph.num_poses - 1}"
                )
            if not np.allclose(M0, M0.T, atol=1e-12):
                raise ValueError("prior must be symmetric")
        try:
            super().__init__(graph, pose_graph, M0)
        except ValueError as err:
            if "positive definite" in str(err):
                raise ValueError("prior must be positive definite") from None
            raise


class TreeConnObjective(_RankOneLogDet):
    """Gain in log weighted spanning-tree count of the pose graph.

    By the matrix-tree theorem the log-determinant of the reduced weighted
    Laplacian equals the log of the weighted number of spanning trees, so the
    value of an edge set is the tree-connectivity gain over the base graph.
    The base graph must be connected (otherwise the base Laplacian is
    singular and the objective is not defined).
    """

    kind = "treeconn"

    def __init__(self, graph, pose_graph):
        if not pose_graph.is_connected():
            raise ValueError("base pose graph must be connected")
        super().__init__(graph, pose_graph, pose_graph.base_laplacian_reduced())


def modular_value(graph, edge_ids) -> float:
    """Sum of edge probabilities; 0 for the empty set."""
    return ModularObjective(graph).value(edge_ids)


def g_modular(graph, vertex_ids, k) -> tuple[float, tuple[int, ...]]:
    """Best modular value of at most k edges incident to ``vertex_ids``.

    Returns ``(value, witness)`` where the witness lists the chosen edge ids
    in descending-probability order (ties to the lower edge id). This is the
    closed-form inner solve: the top-k incident probabilities, or all of them
    when fewer than k are incident.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    incident = graph.edges_incident(vertex_ids)
    ranked = sorted(incident, key=lambda eid: (-graph.edge(eid).p, eid))
    witness = tuple(ranked[:k])
    return math.fsum(graph.edge(eid).p for eid in witness), witness


def dcrit_value(graph, pose_graph, edge_ids, prior=None, eps=DEFAULT_PRIOR_EPS) -> float:
    """One-shot D-criterion gain; see :class:`DCritObjective`."""
    return DCritObjective(graph, pose_graph, prior=prior, eps=eps).value(edge_ids)


def treeconn_value(graph, pose_graph, edge_ids) -> float:
    """One-shot tree-connectivity gain; see :class:`TreeConnObjective`."""
    return TreeConnObjective(graph, pose_graph).value(edge_ids)


def marginal(objective, edge_ids, eid) -> float:
    """Marginal gain of adding ``eid`` to ``edge_ids``; errors if already present."""
    return objective.marginal(edge_ids, eid)
