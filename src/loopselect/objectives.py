"""Set-function objectives over candidate edges, plus the nested vertex objective.

Three normalized monotone objectives are provided:

* ``ModularObjective`` — expected number of true matches, the sum of edge
  probabilities. Modular, so marginal gains are constants.
* ``DCritObjective`` — expected log-determinant gain of an information matrix
  over the prior M0, the base information plus ``DEFAULT_PRIOR_EPS`` on the
  diagonal. Each candidate edge contributes a rank-one
  term ``p(e) * w_e * a_e a_eᵀ`` on the anchored pose space, where ``a_e`` is
  the incidence vector of the pose pair the edge constrains.
* ``TreeConnObjective`` — log of the gain in the weighted number of spanning
  trees of the pose graph (reduced-Laplacian log-determinant gain). Requires
  a connected base graph, which makes the objective monotone submodular.

Every objective offers two ways to evaluate it. ``value(edge_ids)`` is the
dense, stateless reference: for the log-det objectives it rebuilds the matrix
and refactorizes it, O(|S| + d³) per call; M0 itself is factorized once.
``oracle()`` returns the state of one planner run: ``gain(edge_ids)`` is the
marginal gain of adding a set of new edges to everything committed so far,
``edge_gains(rows)`` is the one-edge gain of each of many edges at once, as
an array over edge rows, bit for bit what ``gain`` gives each of them,
``commit(edge_ids)`` adds them, and ``value`` is the running objective value,
which the greedy planners report as their achieved value. A greedy run takes
``edge_gains`` once per round, for the upper bounds it walks, and ``gain``
for the picks it confirms. A log-det objective makes its base
inverse once, at its first ``oracle()``, into a read-only P0 that every
oracle shares: ``treeconn`` from a spanning tree of the base graph in O(d²)
writes with no factorization (non-tree base edges folded in as low-rank
columns), ``dcrit`` from the Cholesky factor of its M0. An oracle keeps its
committed edges as a low-rank factor U, so that its inverse is P0 − UUᵀ, and
never writes P0. A one-edge gain ``log1p(s aᵀM⁻¹a)`` reads three entries of
P0 less a squared row difference of U (none while U is empty), O(|S|)
(matrix determinant lemma, so it is never negative), an r-edge gain is one
Cholesky of an r×r matrix, O(r³), and a commit appends one column to U,
O(d·|S|).

No objective keeps a copy of the exchange graph's edges. Each reads an edge
at the row that the graph's ``edge_row`` maps its id to, which raises
ValueError on an unknown id: the modular objective and its oracles read the
graph's probability column and array, and a log-det objective keeps one
table, ``_ijs``, of each edge's (i, j, p·w) as three columns by edge row,
which its oracles share. ``cholesky_pd``, ``chol_logdet`` and ``logdet_pd``
are the dense Cholesky helpers of ``value`` and of the ``dcrit`` prior.

``g_modular`` is the nested objective on vertex sets: the best value of at
most k verifiable edges once a vertex set has been broadcast. For the modular
objective it has a closed form (sum of the top-k incident probabilities) and
is itself normalized, monotone, and submodular, which is what lets vertex
greedy planners run on it directly. ``TopKOracle`` is its per-run state with
``gain(vid)``, ``commit(vid)`` and ``value``, in the same
style as ``oracle()``, plus ``upper_bounds()``, one numpy pass that bounds
every vertex's gain from above. Its one top-k state is the ascending row t
of the top k's values. With a vertex's uncovered probabilities q, read best
first from the graph's one flat array, both compute Σ(qᵢ − tᵢ)⁺: ``gain``
sums its positive terms exactly, with one ``math.fsum``, and
``upper_bounds`` sums them in floats and widens the sum by its rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "PoseGraph",
    "ModularObjective",
    "DCritObjective",
    "TreeConnObjective",
    "g_modular",
    "TopKOracle",
]

DEFAULT_PRIOR_EPS = 1e-6  # diagonal regularization that makes the dcrit prior PD
GAIN_BLOCK = 1024  # edge rows per _set_gains call of a log-det edge_gains pass


@dataclass(frozen=True)
class PoseGraph:
    """Pose-level backbone consumed by the information objectives.

    ``base_edges`` are the constraints present before any verification
    (odometry chains plus bridging priors), each ``(i, j, weight)`` with
    weight > 0 between pose ids. ``candidate_map`` binds an exchange-graph
    edge id to the pose pair ``(i, j, weight)`` a verified match would
    constrain. ``poses`` optionally carries planar (x, y, theta) coordinates;
    only counts and connectivity matter to the objectives. The ``anchor``
    pose is pinned, i.e. its row and column are dropped from Laplacians and
    information matrices.
    """

    num_poses: int
    base_edges: tuple[tuple[int, int, float], ...]
    candidate_map: dict[int, tuple[int, int, float]] = field(default_factory=dict)
    anchor: int = 0
    poses: tuple[tuple[float, float, float], ...] | None = None

    def validate(self) -> list[str]:
        return [message for _, message in self.violations()]

    def violations(self):
        """Iterate ``(record, message)`` per invariant violation.

        ``record`` names what is at fault: ``("anchor",)``, ``("base", index)``
        into ``base_edges``, ``("candidate", edge id)``, or None for the pose
        set as a whole. Parsers map it back to the line of that record. The
        graph is scanned once, at the first call, and the list kept, so the
        parser's check and an objective's cost one scan.
        """
        return iter(self._violations)

    @cached_property
    def _violations(self) -> list:
        return list(self._scan())

    def _scan(self):
        if self.num_poses < 2:
            yield None, "need at least two poses"
        if not 0 <= self.anchor < self.num_poses:
            yield ("anchor",), f"anchor {self.anchor} out of range"
        if self.poses is not None and len(self.poses) != self.num_poses:
            yield None, "pose coordinate count does not match num_poses"
        n = self.num_poses
        total = 0.0  # of the valid weights, in order
        for idx, (i, j, w) in enumerate(self.base_edges):
            if not (0 <= i < n and 0 <= j < n and i != j):
                yield ("base", idx), f"base edge ({i},{j}) invalid"
            if not 0 < w < math.inf:
                yield ("base", idx), f"base edge ({i},{j}) weight must be positive and finite"
            else:
                total += w
        for eid, (i, j, w) in self.candidate_map.items():
            if not (0 <= i < n and 0 <= j < n and i != j):
                yield ("candidate", eid), f"candidate {eid}: pose pair ({i},{j}) invalid"
            if not 0 < w < math.inf:
                yield ("candidate", eid), f"candidate {eid}: weight must be positive and finite"
            else:
                total += w
        # float addition is monotone, so no pose's sum, over some of these
        # weights in the same order, overflows unless this total does
        if total == math.inf:
            yield from self._overflow()

    def _overflow(self):
        """Yield the first base or candidate record, in the order :meth:`violations`
        checks them, whose weight takes some pose's summed incident weight past
        the float range: an entry of the log-det objectives' matrices would
        overflow. A candidate counts at its full weight, since p ≤ 1."""
        n, inf = self.num_poses, math.inf
        summed = [0.0] * n  # each pose's incident weight so far
        base = (("base", idx, edge) for idx, edge in enumerate(self.base_edges))
        candidates = (("candidate", eid, edge) for eid, edge in self.candidate_map.items())
        for kind, key, (i, j, w) in itertools.chain(base, candidates):
            if 0 <= i < n and 0 <= j < n and i != j and 0 < w < inf:
                summed[i] += w
                summed[j] += w
                if summed[i] == inf or summed[j] == inf:
                    v = i if summed[i] == inf else j
                    what = f"base edge ({i},{j})" if kind == "base" else f"candidate {key}:"
                    yield (kind, key), f"{what} weight overflows pose {v}'s summed weight"
                    return

    def renumbered(self, old_ids) -> PoseGraph:
        """This graph with its candidates bound under new ids: ``old_ids`` maps
        each new id to an old one, and a candidate it does not name is dropped.

        The kept candidates keep their order, so the copy of a valid graph is
        valid and takes its verdict instead of a scan: each candidate is
        checked alone, and every running weight sum, over a subsequence of
        the same terms in the same order, only shrinks. A graph with
        violations leaves its copy to be scanned.
        """
        new_id = {old: new for new, old in old_ids.items()}
        graph = replace(self, candidate_map={
            new_id[old]: edge for old, edge in self.candidate_map.items() if old in new_id
        })
        if not self._violations:
            graph.__dict__["_violations"] = []  # as the cached property would store it
        return graph

    def require_bound(self, edge_ids):
        """Raise ValueError unless ``candidate_map`` binds every id in ``edge_ids``."""
        missing = [eid for eid in edge_ids if eid not in self.candidate_map]
        if missing:
            raise ValueError(f"candidate_map lacks exchange edges {missing}")

    def spanning_tree(self) -> tuple[list[int], list[int | None]]:
        """Depth-first search of the base edges from the anchor (of a valid pose graph).

        Returns ``(order, up)``: the poses the anchor reaches, in preorder (so
        every subtree is a contiguous run of ``order``), and per pose the
        index in ``base_edges`` of its tree edge, the one that reached it
        (-1 for the anchor, None for a pose it does not reach). The other
        base edges, parallel ones included, are the non-tree edges. Edges
        are explored in ``base_edges`` order.
        """
        edges = self.base_edges
        adjacent = [[] for _ in range(self.num_poses)]
        for idx, (i, j, _) in enumerate(edges):
            adjacent[i].append(idx)
            adjacent[j].append(idx)
        up: list[int | None] = [None] * self.num_poses
        order: list[int] = []
        stack = [(self.anchor, -1)]
        while stack:
            v, idx = stack.pop()
            if up[v] is None:
                up[v] = idx
                order.append(v)
                for idx in reversed(adjacent[v]):
                    i, j, _ = edges[idx]
                    u = j if i == v else i
                    if up[u] is None:
                        stack.append((u, idx))
        return order, up

    def is_connected(self) -> bool:
        """Connectivity of the base graph over all poses (its spanning-tree search)."""
        return len(self.spanning_tree()[0]) == self.num_poses

    def base_laplacian_reduced(self) -> np.ndarray:
        """Weighted Laplacian of the base edges, anchor row/column dropped."""
        d = self.num_poses - 1
        return _with_edges(np.zeros((d, d)), self.base_edges, self.anchor)


def _anchored(n, anchor):
    """Index of the anchored block (all but the anchor's row and column) of an n×n matrix."""
    keep = np.delete(np.arange(n), anchor)
    return np.ix_(keep, keep)


def _with_edges(M, edges, anchor):
    """The anchored matrix M plus s·a aᵀ for each edge (i, j, s), a = e_i − e_j.

    One ``np.add.at`` in pose coordinates over the entries (i,i) (j,j) (i,j)
    (j,i), edge after edge, so every entry receives its ±s in the order of
    ``edges``: bit for bit the sum of dense outer products added in that
    order, at O(len(edges) + d²).
    """
    n = M.shape[0] + 1
    block = _anchored(n, anchor)
    P = np.zeros((n, n))
    P[block] = M
    if edges:
        I, J, s = (np.array(col) for col in zip(*edges))
        rows = np.column_stack((I, J, I, J)).ravel()
        cols = np.column_stack((I, J, J, I)).ravel()
        np.add.at(P, (rows, cols), np.column_stack((s, s, -s, -s)).ravel())
    return P[block]


def cholesky_pd(M) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive-definite M = LLᵀ.

    Raises ValueError if the factorization fails (matrix not PD).
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def chol_logdet(L) -> float:
    """log det LLᵀ = 2 Σ log L_ii, from a Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def logdet_pd(M) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Raises ValueError if the factorization fails (matrix not PD).
    """
    return chol_logdet(cholesky_pd(M))


def _terms(ijs, row, edge_ids):
    """The (i, j, s) of each id in ``edge_ids`` with s ≠ 0, in the given order,
    read from the columns ``ijs`` at the edge row ``row(id)``."""
    I, J, S = ijs
    terms = ((I.item(r), J.item(r), S.item(r)) for r in map(row, edge_ids))
    return [t for t in terms if t[2] != 0.0]


class ModularObjective:
    """Expected number of true matches within an edge set: sum of probabilities."""

    kind = "modular"

    def __init__(self, graph):
        self.graph = graph

    def value(self, edge_ids) -> float:
        p, row = self.graph.edge_columns[3], self.graph.edge_row
        return math.fsum(p[row(eid)] for eid in set(edge_ids))

    def marginal(self, edge_ids, eid) -> float:
        if eid in set(edge_ids):
            raise ValueError(f"edge {eid} already selected")
        return self.graph.edge_columns[3][self.graph.edge_row(eid)]

    def oracle(self) -> _ModularOracle:
        """Fresh gain/commit state for one planner run, reading the graph's columns."""
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
    vertex's gain carries none of the rounding of the committed total, so a
    float sum of its edges' gains, widened for its own rounding, bounds it
    (which vertex greedy relies on).
    ``value`` is the ``math.fsum`` of the committed probabilities, as in
    :meth:`ModularObjective.value`. An id is read through the graph's
    ``edge_row``, which raises ValueError on an unknown one.
    """

    gain_slack = 0.0  # how far a set's gain can exceed its edges' by rounding: not at all

    def __init__(self, graph):
        self._graph = graph
        self._committed: set[int] = set()
        self.value = 0.0

    def _sum(self, edge_ids) -> float:
        p = self._graph.edge_columns[3]
        return math.fsum(map(p.__getitem__, map(self._graph.edge_row, edge_ids)))

    def gain(self, edge_ids) -> float:
        return self._sum(_fresh(self._committed, edge_ids))

    def edge_gains(self, rows) -> np.ndarray:
        """The one-edge gain of each edge row in ``rows``: its probability, which
        is what :meth:`gain` gives the edge (``fsum`` of one term is that term),
        read from the graph's one read-only probability array."""
        return self._graph._p[rows]

    def commit(self, edge_ids):
        committed = self._committed | _fresh(self._committed, edge_ids)
        self.value = self._sum(committed)
        self._committed = committed


class _LogDetOracle:
    """Determinant-lemma gains of one planner run over a shared base inverse.

    ``_P0`` holds M0⁻¹ in pose coordinates with the anchor's row and column
    zero. The objective owns it, every oracle reads it and none writes it
    (it is read-only). The run's committed edges are the columns of a factor
    U, one row per pose, so that the current inverse is M⁻¹ = P0 − UUᵀ. For
    an edge on pose pair (i, j) with incidence vector a, and U_i the i-th row
    of U, ``aᵀM⁻¹a = P0[i,i] + P0[j,j] - 2 P0[i,j] - ‖U_i - U_j‖²`` and
    ``M⁻¹a = P0[:,i] - P0[:,j] - U(U_i - U_j)``. A commit of edge (i, j, s)
    takes u = M⁻¹a and sr = s aᵀu and appends the column ``u √(s/(1+sr))``,
    the Sherman–Morrison downdate of M⁻¹ written as a factor, at O(d·|S|).

    Edges are read from the objective's table ``_ijs``, its (i, j, s) columns,
    at the row the graph's ``edge_row`` gives an id. :func:`_set_gains` is
    the one gain arithmetic: :meth:`edge_gains` runs its r = 1 branch over
    many edges and a multi-edge :meth:`gain` its r ≥ 2 branch on one set,
    while a one-edge :meth:`gain` takes a short path that rounds as r = 1
    does.

    In exact arithmetic a set's gain is at most the sum of its edges' gains
    (submodularity); rounding can lift it above that sum where an edge's
    quadratic form cancels to a few ulps of P0's entries. ``gain_slack``
    bounds that excess with a wide margin.
    """

    gain_slack = 1e-9

    def __init__(self, row, ijs, P0):
        self._P0 = P0
        self._row, self._ijs = row, ijs
        # the first _m columns of _U are U; the rest is room to append
        self._U = np.empty((P0.shape[0], 8))
        self._m = 0
        self._committed: set[int] = set()
        self.value = 0.0

    def gain(self, edge_ids) -> float:
        if len(edge_ids) == 1:
            # one edge: no set to build and no order to fix
            (eid,) = edge_ids
            if eid in self._committed:
                raise ValueError(f"edges [{eid}] already committed")
            row = self._row(eid)
            I, J, S = self._ijs
            i, j, s = I.item(row), J.item(row), S.item(row)  # Python numbers index fastest
            P0 = self._P0
            q = P0[i, i] + P0[j, j] - 2.0 * P0[i, j]
            if self._m:  # less ‖U_i − U_j‖², which is exactly 0 while U has no column
                U = self._U[:, : self._m]
                w = U[i] - U[j]
                q -= w.dot(w)
            # a quadratic form of a PD matrix; clamp the rounding below zero
            return math.log1p(s * max(float(q), 0.0))
        ids = sorted(_fresh(self._committed, edge_ids))
        if not ids:
            return 0.0
        rows = np.array([list(map(self._row, ids))])
        U = self._U[:, : self._m]
        return _set_gains(self._P0, U, *(col[rows] for col in self._ijs))[0]

    def edge_gains(self, rows) -> np.ndarray:
        """The one-edge gain of each edge row in ``rows``, bit for bit what
        :meth:`gain` gives the uncommitted ones: :func:`_set_gains`'s r = 1.

        The rows go in blocks of ``GAIN_BLOCK``, so the gathered rows of U
        hold at most ``GAIN_BLOCK`` × |S| floats however many edges are live;
        :func:`_set_gains` is elementwise, so the blocks change no bit."""
        U = self._U[:, : self._m]
        out = np.empty(len(rows))
        for lo in range(0, len(rows), GAIN_BLOCK):
            I, J, s = (col[rows[lo:lo + GAIN_BLOCK], None] for col in self._ijs)
            out[lo:lo + GAIN_BLOCK] = _set_gains(self._P0, U, I, J, s)
        return out

    def commit(self, edge_ids):
        new = _fresh(self._committed, edge_ids)
        terms = _terms(self._ijs, self._row, sorted(new))
        self._committed |= new
        for i, j, s in terms:
            m = self._m
            if m == self._U.shape[1]:
                grown = np.empty((self._U.shape[0], 2 * m))
                grown[:, :m] = self._U
                self._U = grown
            self._U[:, m], sr = _downdate(self._P0, self._U[:, :m], i, j, s)
            self._m = m + 1
            self.value += math.log1p(sr)


def _set_gains(P0, U, I, J, s) -> list[float]:
    """The gains over M⁻¹ = P0 − UUᵀ of new edges given as (n, r) arrays: of n
    sets of one edge each for r = 1, and of one set (n = 1) of r edges for r ≥ 2.

    G = AᵀM⁻¹A is the gathers of P0 less WWᵀ, W = U_I − U_J. For r = 1 it is
    summed in the one-edge path's float order, w·w by the BLAS dot that
    ``w.dot(w)`` calls, and the gain is ``math.log1p(s·max(G, 0))``; every
    step is elementwise, one BLAS dot per edge or Python per element, so an
    edge gains the same bit for bit alone or in any batch. For r ≥ 2 the gain
    is logdet(I + K), K = S½GS½: with I + K = LLᵀ, the sum of ``log1p(x_c)``
    over the pivots' Schur increments x_c = K_cc − Σ_{a<c} L_ca², so a gain
    near 0 keeps its relative precision.
    """
    r = I.shape[1]
    if r == 1:
        I, J, s = I[:, 0], J[:, 0], s[:, 0]
        q = P0[I, I] + P0[J, J] - 2.0 * P0[I, J]
        if U.shape[1]:
            W = U[I]
            W -= U[J]  # in place: one n × |S| temporary fewer
            q -= (W[:, None, :] @ W[:, :, None])[:, 0, 0]
        q[0.0 > q] = 0.0  # max(q, 0.0), as gain() clamps the rounding
        return list(map(math.log1p, (s * q).tolist()))
    (I,), (J,), (s,) = I, J, s
    IJ = np.concatenate((I, J))
    D = P0[IJ[:, None], IJ]  # the set's 2r × 2r block of P0
    D = D[:, :r] - D[:, r:]
    K = D[:r] - D[r:]
    if U.shape[1]:
        W = U[I] - U[J]
        K -= W @ W.T
    root = np.sqrt(s)
    K *= root[:, None] * root
    x = K.diagonal().copy()
    L = np.linalg.cholesky(K + np.eye(r))
    L *= L
    for c in range(r - 1):
        x[c + 1 :] -= L[c + 1 :, c]
    x[0.0 > x] = 0.0  # I + K's pivots are >= 1 exactly; clamp the rounding
    return [math.fsum(map(math.log1p, x.tolist()))]


def _downdate(P0, U, i, j, s):
    """The factor column that adds edge (i, j, s) to M when M⁻¹ = P0 − UUᵀ, and s·aᵀM⁻¹a.

    With u = M⁻¹a, the column is ``u √(s/(1+sr))`` for sr = s aᵀu: the
    Sherman–Morrison downdate of M⁻¹ written as a factor, at O(d·|U|).
    """
    u = P0[:, i] - P0[:, j] - U @ (U[i] - U[j])
    sr = s * max(float(u[i] - u[j]), 0.0)
    return u * math.sqrt(s / (1.0 + sr)), sr


def _tree_inverse(pose_graph, order, up, parent, reach) -> np.ndarray:
    """M0⁻¹ of a connected base graph, in pose coordinates, from its spanning tree.

    ``(order, up)`` is :meth:`PoseGraph.spanning_tree`, rooted at the anchor;
    ``parent[v]`` is pose v's parent in it and ``reach[v]`` is R(v), the sum
    of 1/w along the anchor-to-v path. For the tree alone the inverse of the
    reduced Laplacian is P_T[i,j] = R(lca(i,j)), and the anchor's row and
    column are 0. A pose's row is its parent's row with R(v) written over the
    pose's own subtree, a contiguous run of the preorder, so P_T costs O(d²)
    writes and no factorization. Each non-tree base edge (extra or parallel)
    is then folded in once as a factor column, exactly as an oracle commits
    an edge, and P0 = P_T − U₀U₀ᵀ.
    """
    n = len(order)
    size = [1] * n  # of each pose's subtree
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    P = np.zeros((n, n))
    poses = np.array(order, dtype=np.intp)
    for a, v in enumerate(order[1:], 1):
        P[v] = P[parent[v]]
        P[v, poses[a : a + size[v]]] = reach[v]
    tree = {up[v] for v in order}
    extra = [edge for idx, edge in enumerate(pose_graph.base_edges) if idx not in tree]
    if extra:
        U0 = np.empty((n, len(extra)))
        for c, (i, j, w) in enumerate(extra):
            U0[:, c], _ = _downdate(P, U0[:, :c], i, j, w)
        P -= U0 @ U0.T
    return P


class _RankOneLogDet:
    """logdet(M0 + sum of per-edge rank-one terms) - logdet(M0).

    Subclasses fix the base matrix M0 (``_base``) and how its inverse is
    made (``_base_inverse``). Each exchange edge e mapped to pose pair (i, j)
    with candidate weight w is ``(i, j, p(e) * w)`` in ``_ijs``, the one table
    of the edges, three columns by edge row, and contributes
    ``p(e) * w * a aᵀ``, where a is the incidence vector of (i, j). ``value``
    rebuilds and refactorizes the matrix per query and is the dense
    reference; its first call builds M0 and logdet M0 unless the constructor
    did, so a ``treeconn`` objective that only plans never does. Planners
    take their gains from :meth:`oracle`. Contributions are accumulated in
    ascending edge-id order so that zero-probability edges change nothing,
    bit for bit.
    """

    def __init__(self, graph, pose_graph):
        bad = pose_graph.validate()
        if bad:
            raise ValueError("invalid pose graph: " + "; ".join(bad))
        eids, _, _, ps = graph.edge_columns
        pose_graph.require_bound(eids)
        self.graph = graph
        self.pose_graph = pose_graph
        self._reference = None  # (M0, logdet M0), made by _dense() on first use
        self._P0 = None  # M0⁻¹ in pose coordinates, made by the first oracle()
        bound = pose_graph.candidate_map
        I, J, w = np.array([bound[eid] for eid in eids], dtype=float).reshape(-1, 3).T
        self._ijs = I.astype(np.intp), J.astype(np.intp), w * np.array(ps, dtype=float)

    def _dense(self):
        """(M0, logdet M0), built on first use."""
        if self._reference is None:
            M0 = self._base()
            self._reference = M0, logdet_pd(M0)
        return self._reference

    def value(self, edge_ids) -> float:
        M0, logdet0 = self._dense()
        edges = _terms(self._ijs, self.graph.edge_row, sorted(set(edge_ids)))
        return logdet_pd(_with_edges(M0, edges, self.pose_graph.anchor)) - logdet0

    def marginal(self, edge_ids, eid) -> float:
        selected = set(edge_ids)
        if eid in selected:
            raise ValueError(f"edge {eid} already selected")
        return self.value(selected | {eid}) - self.value(selected)

    def oracle(self) -> _LogDetOracle:
        """Fresh gain/commit state for one planner run.

        The first call makes the base inverse and keeps it, read-only; every
        oracle reads that one array and copies nothing.
        """
        if self._P0 is None:
            P0 = self._base_inverse()
            P0.flags.writeable = False
            self._P0 = P0
        return _LogDetOracle(self.graph.edge_row, self._ijs, self._P0)


class DCritObjective(_RankOneLogDet):
    """Expected information gain in the D-optimality criterion.

    The prior M0 is the base (odometry) information plus ``DEFAULT_PRIOR_EPS``
    on the diagonal. The constructor's factor M0 = LLᵀ, the only one, checks
    that M0 is positive definite in floats and gives logdet M0; the first
    :meth:`oracle` makes the base inverse L⁻ᵀL⁻¹ of it.
    """

    kind = "dcrit"

    def __init__(self, graph, pose_graph):
        super().__init__(graph, pose_graph)
        d = pose_graph.num_poses - 1
        M0 = pose_graph.base_laplacian_reduced() + DEFAULT_PRIOR_EPS * np.eye(d)
        try:
            self._factor = cholesky_pd(M0)
        except ValueError:
            raise ValueError("base information matrix is not positive definite") from None
        self._reference = M0, chol_logdet(self._factor)

    def _base_inverse(self):
        L_inv = np.linalg.inv(self._factor)
        self._factor = None  # P0 is made once per objective; free L before L⁻ᵀL⁻¹
        n = L_inv.shape[0] + 1
        P0 = np.zeros((n, n))
        P0[_anchored(n, self.pose_graph.anchor)] = L_inv.T @ L_inv
        return P0


class TreeConnObjective(_RankOneLogDet):
    """Gain in log weighted spanning-tree count of the pose graph.

    By the matrix-tree theorem the log-determinant of the reduced weighted
    Laplacian equals the log of the weighted number of spanning trees, so the
    value of an edge set is the tree-connectivity gain over the base graph.
    The base graph must be connected (otherwise the base Laplacian is
    singular and the objective is not defined). Its spanning tree, rooted at
    the anchor, gives the base inverse with no factorization
    (:func:`_tree_inverse`). Its entries are the reaches R(v), sums of 1/w
    along tree paths, less what the non-tree edges take off, so the
    constructor rejects a graph whose largest R(v) passes a quarter of the
    float maximum: a one-edge gain sums four entries of P0 at most.
    """

    kind = "treeconn"

    def __init__(self, graph, pose_graph):
        super().__init__(graph, pose_graph)
        order, up = pose_graph.spanning_tree()
        if len(order) < pose_graph.num_poses:
            raise ValueError("base pose graph must be connected")
        # each pose's parent and R(v), the sum of 1/w along its path from the
        # anchor, by pose; the preorder reaches a parent first
        parent, reach = [0] * len(order), [0.0] * len(order)
        for v in order[1:]:
            i, j, w = pose_graph.base_edges[up[v]]
            parent[v] = j if i == v else i
            reach[v] = reach[parent[v]] + 1.0 / w
        far = max(order, key=reach.__getitem__)
        if reach[far] > np.finfo(float).max / 4:
            raise ValueError(f"invalid pose graph: pose {far}'s tree path sums 1/w past max/4")
        self._tree = order, up, parent, reach

    def _base(self):
        return self.pose_graph.base_laplacian_reduced()

    def _base_inverse(self):
        return _tree_inverse(self.pose_graph, *self._tree)


def g_modular(graph, vertex_ids, k) -> tuple[float, tuple[int, ...]]:
    """Best modular value of at most k edges incident to ``vertex_ids``.

    Returns ``(value, witness)`` where the witness lists the chosen edge ids
    in descending-probability order (ties to the lower edge id). This is the
    closed-form inner solve: the top-k incident probabilities, or all of them
    when fewer than k are incident.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    starts, flat = graph.ranked_incidences()
    edges = set()
    for i in map(graph.vertex_row, vertex_ids):
        edges.update(flat[starts[i]:starts[i + 1]].tolist())
    eids, _, _, ps = graph.edge_columns
    ranked = sorted(edges, key=lambda e: (-ps[e], eids[e]))[:k]
    return math.fsum(ps[e] for e in ranked), tuple(eids[e] for e in ranked)


class TopKOracle:
    """Incremental ``g_modular`` of one vertex-greedy run.

    Its one top-k state is the row t of the top k's values in ascending
    order: t₁ ≤ t₂ ≤ … ≤ t_k, an empty slot counting as 0.0, and +inf past
    the k-th, so that no key there enters. It also marks which edges the
    committed vertices cover. Each vertex's incident edges come best first
    from the graph's one incidence index,
    :meth:`~loopselect.graph.ExchangeGraph.ranked_incidences`; a vertex's
    uncovered probabilities q₁ ≥ q₂ ≥ … are those of its segment that no
    committed vertex covers yet. A commit marks the vertex's edges covered,
    which drops them from its neighbours' segments too, O(degree), and merges
    its probabilities into t, keeping the k largest.

    :meth:`gain` and :meth:`upper_bounds` read t with one formula. The terms
    qᵢ − tᵢ over the first min(k, degree) uncovered probabilities decrease,
    so the keys that enter the top k are those with a positive term (one
    that ties its slot adds exactly 0) and the exact gain is Σ(qᵢ − tᵢ)⁺.
    :meth:`gain` sums the entering qᵢ and −tᵢ with one ``math.fsum``: the
    exact gain rounded once, so a gain never grows as vertices are committed
    (lazy greedy relies on this), where a difference of two rounded values
    can grow by an ulp. ``value`` is the ``math.fsum`` of t's first k slots,
    bit-identical to ``g_modular`` of the committed vertices.

    :meth:`upper_bounds` sums the same positive parts in floats, one
    segmented sum for every vertex at once, O(m) work and memory whatever
    the degrees: the graph's
    :meth:`~loopselect.graph.ExchangeGraph.incidence_sums`, which owns the
    segment layout and the allowance. Its at most L = min(k, degree)
    nonzero terms and their sums each round by at most half an ulp of a
    result no larger than the segment's sum S, so widening S by the
    allowance ``(L + 2)·2⁻⁵²·S`` covers that rounding and the rounding of
    the gain itself. A sum of exactly 0.0 stays 0.0: no key enters such a
    vertex, and its gain is exactly 0.0.
    """

    def __init__(self, graph, k):
        if k < 0:
            raise ValueError("k must be non-negative")
        self._graph = graph
        self._starts, self._flat = graph.ranked_incidences()
        self._flat_p = graph.index_arrays()[2][self._flat]  # an unknown endpoint raises
        self._flat_row = np.repeat(np.arange(graph.num_vertices), np.diff(self._starts))
        self._seen = np.zeros(len(self._flat) + 1, dtype=np.intp)
        self._covered = np.zeros(graph.num_edges, dtype=bool)
        # no more than all m edges are ever covered, so min(k, m) slots hold the
        # top k; t is read at every rank of a segment, up to the largest degree
        self._k = min(k, graph.num_edges)
        self._floor = np.zeros(max(self._k, graph.max_degree()))
        self._floor[self._k:] = math.inf
        self.value = 0.0

    def _uncovered(self, vid) -> tuple[np.ndarray, np.ndarray]:
        """``vid``'s incident edges that no committed vertex covers, best first,
        and their probabilities."""
        i = self._graph.vertex_row(vid)
        segment = slice(self._starts[i], self._starts[i + 1])
        alive = ~self._covered[self._flat[segment]]
        return self._flat[segment][alive], self._flat_p[segment][alive]

    def gain(self, vid) -> float:
        q = self._uncovered(vid)[1][: self._k]
        t = self._floor[: len(q)]
        enter = q > t  # the positive terms qᵢ − tᵢ, a prefix
        return math.fsum([*q[enter].tolist(), *(-t[enter]).tolist()])

    def upper_bounds(self) -> np.ndarray:
        """An upper bound on the gain of every vertex, in ascending id order, 0.0
        exactly where the gain is 0.0.

        One segmented sum over every vertex's first min(k, degree) uncovered
        keys, widened by the allowance for its rounding (see the class).
        """
        alive = ~self._covered[self._flat]
        seen = self._seen  # seen[j]: the uncovered keys among the first j
        np.cumsum(alive, out=seen[1:])
        rank = seen[1:] - 1
        rank -= seen[self._starts][self._flat_row]  # among its segment's uncovered keys
        terms = self._floor[rank]
        # a covered key is -inf, so that it adds nothing either
        np.subtract(np.where(alive, self._flat_p, -math.inf), terms, out=terms)
        np.maximum(terms, 0.0, out=terms)
        return self._graph.incidence_sums(terms, most=self._k)

    def commit(self, vid):
        edges, q = self._uncovered(vid)
        self._covered[edges] = True
        k = self._k
        top = np.sort(np.concatenate((self._floor[:k], q)))[len(q):]  # the k largest
        self._floor[:k] = top
        self.value = math.fsum(top.tolist())
