"""Objective values against independent oracles, plus NMS property samples."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from loopselect import (
    DCritObjective,
    Edge,
    ExchangeGraph,
    ModularObjective,
    PoseGraph,
    TreeConnObjective,
    Vertex,
    dcrit_value,
    g_modular,
    marginal,
    modular_value,
    treeconn_value,
)
from loopselect.generate import GenSpec, generate_exchange_graph, generate_pose_graph
from loopselect.linalg import logdet_pd

from conftest import (
    make_graph,
    random_connected_pose_graph,
    random_treeconn_instance,
    spanning_tree_weight_sum,
)


def dcrit_oracle(prior, terms, edge_ids):
    """Dense slogdet re-implementation of the D-criterion gain."""
    M = np.array(prior, dtype=float)
    for eid in edge_ids:
        a, s = terms[eid]
        M = M + s * np.outer(a, a)
    return float(np.linalg.slogdet(M)[1] - np.linalg.slogdet(prior)[1])


class TestModular:
    def test_empty_is_zero(self, demo_graph):
        assert modular_value(demo_graph, []) == 0.0

    def test_sums_probabilities(self):
        g = make_graph(2, [0, 0, 1], [(0, 2), (1, 2)], [0.5, 0.25])
        assert modular_value(g, [0, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_all_certain_edges_count(self):
        g = make_graph(3, [0, 0, 0, 1, 1, 1, 2, 2, 2],
                       [(0, 4), (1, 3), (1, 7), (1, 8), (4, 6), (1, 6), (2, 4), (5, 6)],
                       [1.0] * 8)
        assert modular_value(g, range(8)) == 8.0

    def test_marginal_is_probability(self, demo_graph):
        obj = ModularObjective(demo_graph)
        assert obj.marginal([0, 1], 5) == demo_graph.edge(5).p

    def test_marginal_rejects_member(self, demo_graph):
        obj = ModularObjective(demo_graph)
        with pytest.raises(ValueError, match="already selected"):
            marginal(obj, [0, 1], 1)


class TestGModular:
    def test_empty_vertex_set(self, demo_graph):
        assert g_modular(demo_graph, [], 3) == (0.0, ())

    def test_top_k_of_one_vertex(self):
        g = make_graph(2, [0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)], [0.9, 0.8, 0.1])
        value, witness = g_modular(g, [0], 2)
        assert value == pytest.approx(1.7, abs=1e-15)
        assert witness == (0, 1)

    def test_ties_break_low_id(self):
        g = make_graph(2, [0, 1, 1], [(0, 1), (0, 2)], [0.5, 0.5])
        assert g_modular(g, [0], 1)[1] == (0,)

    def test_matches_exhaustive_inner_max(self):
        rng = np.random.default_rng(21)
        for seed in range(30):
            graph = generate_exchange_graph(
                GenSpec(num_robots=2, vertices_per_robot=4, num_edges=int(rng.integers(1, 13)),
                        seed=seed)
            )
            vids = [v.id for v in graph.vertices if rng.random() < 0.5]
            k = int(rng.integers(0, graph.num_edges + 2))
            incident = sorted(graph.edges_incident(vids))
            best = 0.0
            for s in range(min(k, len(incident)) + 1):
                for combo in itertools.combinations(incident, s):
                    best = max(best, sum(graph.edge(e).p for e in combo))
            value, witness = g_modular(graph, vids, k)
            assert value == pytest.approx(best, abs=1e-9)
            assert len(witness) <= k
            assert set(witness) <= set(incident)

    def test_consistency_with_modular_value(self, demo_graph):
        vids = [0, 1, 5]
        value, _ = g_modular(demo_graph, vids, demo_graph.num_edges)
        assert value == modular_value(demo_graph, demo_graph.edges_incident(vids))

    def test_exchange_inequality_sampled(self, demo_graph):
        # submodularity of the nested objective in its vertex argument
        rng = np.random.default_rng(9)
        vids = [v.id for v in demo_graph.vertices]
        for _ in range(300):
            k = int(rng.integers(0, 10))
            small = {v for v in vids if rng.random() < 0.3}
            big = small | {v for v in vids if rng.random() < 0.3}
            rest = [v for v in vids if v not in big]
            if not rest:
                continue
            v = rest[int(rng.integers(0, len(rest)))]
            gs = g_modular(demo_graph, small, k)[0]
            gsv = g_modular(demo_graph, small | {v}, k)[0]
            gq = g_modular(demo_graph, big, k)[0]
            gqv = g_modular(demo_graph, big | {v}, k)[0]
            assert gsv - gs >= gqv - gq - 1e-9
            assert gqv >= gq - 1e-12  # monotone


class TestDCrit:
    def _two_by_two(self):
        g = make_graph(2, [0, 1], [(0, 1)], [1.0])
        pg = PoseGraph(
            num_poses=3,
            base_edges=(),
            candidate_map={0: (0, 1, 1.0)},
            anchor=0,
        )
        return g, pg

    def test_empty_is_zero(self):
        g, pg = self._two_by_two()
        assert dcrit_value(g, pg, [], prior=np.eye(2)) == 0.0

    def test_identity_prior_rank_one(self):
        g, pg = self._two_by_two()
        value = dcrit_value(g, pg, [0], prior=np.eye(2))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_non_pd_prior_rejected(self):
        g, pg = self._two_by_two()
        with pytest.raises(ValueError, match="positive definite"):
            DCritObjective(g, pg, prior=np.diag([1.0, -1.0]))

    def test_non_symmetric_prior_rejected(self):
        g, pg = self._two_by_two()
        with pytest.raises(ValueError, match="symmetric"):
            DCritObjective(g, pg, prior=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            graph, pg, _, _ = random_treeconn_instance(seed)
            obj = DCritObjective(graph, pg)
            d = pg.num_poses - 1
            prior = pg.base_laplacian_reduced() + 1e-6 * np.eye(d)
            terms = {
                e.id: (pg.reduced_incidence(*pg.candidate_map[e.id][:2]),
                       e.p * pg.candidate_map[e.id][2])
                for e in graph.edges
            }
            for _ in range(5):
                sel = [e.id for e in graph.edges if rng.random() < 0.5]
                assert obj.value(sel) == pytest.approx(
                    dcrit_oracle(prior, terms, sel), abs=1e-8
                )


class TestTreeConn:
    def test_empty_is_zero(self):
        graph, pg, _, _ = random_treeconn_instance(0)
        assert treeconn_value(graph, pg, []) == 0.0

    def test_k4_completion_is_ln16(self):
        g = make_graph(2, [0, 0, 1, 1], [(0, 2), (0, 3), (1, 3)], [1.0, 1.0, 1.0])
        pg = PoseGraph(
            num_poses=4,
            base_edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
            candidate_map={0: (0, 2, 1.0), 1: (0, 3, 1.0), 2: (1, 3, 1.0)},
        )
        assert treeconn_value(g, pg, [0, 1, 2]) == pytest.approx(
            math.log(16.0), abs=1e-9
        )

    def test_disconnected_base_rejected(self):
        g = make_graph(2, [0, 1], [(0, 1)], [0.5])
        pg = PoseGraph(num_poses=3, base_edges=((0, 1, 1.0),),
                       candidate_map={0: (0, 1, 1.0)})
        with pytest.raises(ValueError, match="connected"):
            TreeConnObjective(g, pg)

    def test_matches_spanning_tree_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            base = random_connected_pose_graph(rng, max_poses=6, extra_edges=3)
            m = int(rng.integers(1, 5))
            pairs = []
            for i in range(m):
                a = int(rng.integers(0, base.num_poses))
                b = int(rng.integers(0, base.num_poses - 1))
                if b >= a:
                    b += 1
                pairs.append((a, b, float(rng.uniform(0.3, 1.5))))
            graph = make_graph(
                2,
                [0] * m + [1] * m,
                [(i, m + i) for i in range(m)],
                [float(rng.uniform(0.1, 1.0)) for _ in range(m)],
            )
            pg = PoseGraph(
                num_poses=base.num_poses,
                base_edges=base.base_edges,
                candidate_map={i: pairs[i] for i in range(m)},
            )
            sel = [e.id for e in graph.edges if rng.random() < 0.6]
            value = treeconn_value(graph, pg, sel)
            all_edges = list(base.base_edges) + [
                (pairs[e][0], pairs[e][1], graph.edge(e).p * pairs[e][2])
                for e in sel
            ]
            trees = spanning_tree_weight_sum(base.num_poses, all_edges)
            base_trees = spanning_tree_weight_sum(base.num_poses, list(base.base_edges))
            assert math.exp(value) * base_trees == pytest.approx(trees, rel=1e-8)

    def test_zero_probability_edge_has_zero_marginal(self):
        g = make_graph(2, [0, 0, 1, 1], [(0, 2), (1, 3)], [0.7, 0.0])
        pg = PoseGraph(
            num_poses=4,
            base_edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
            candidate_map={0: (0, 2, 1.0), 1: (1, 3, 1.0)},
        )
        obj = TreeConnObjective(g, pg)
        assert obj.marginal([0], 1) == 0.0


class TestNMSProperties:
    @pytest.mark.parametrize("kind", ["modular", "dcrit", "treeconn"])
    def test_sampled_monotone_submodular(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**31)
        graph, pg, _, _ = random_treeconn_instance(13)
        obj = {
            "modular": lambda: ModularObjective(graph),
            "dcrit": lambda: DCritObjective(graph, pg),
            "treeconn": lambda: TreeConnObjective(graph, pg),
        }[kind]()
        eids = [e.id for e in graph.edges]
        assert obj.value([]) == 0.0
        for _ in range(400):
            small = {e for e in eids if rng.random() < 0.3}
            big = small | {e for e in eids if rng.random() < 0.3}
            rest = [e for e in eids if e not in big]
            if not rest:
                continue
            e = rest[int(rng.integers(0, len(rest)))]
            assert obj.value(big) >= obj.value(small) - 1e-9
            assert obj.marginal(small, e) >= obj.marginal(big, e) - 1e-9


def random_pd_instance(rng, d, m):
    """DCrit objective over an explicit random SPD prior on d + 1 poses, m candidates."""
    A = rng.normal(size=(d, d))
    prior = A @ A.T + d * np.eye(d)
    pairs = []
    for _ in range(m):
        i, j = rng.choice(d + 1, size=2, replace=False)
        pairs.append((int(i), int(j), float(rng.uniform(0.1, 2.0))))
    graph = make_graph(
        2, [0] * m + [1] * m, [(e, m + e) for e in range(m)],
        [float(rng.uniform(0.0, 1.0)) for _ in range(m)],
    )
    pg = PoseGraph(num_poses=d + 1, base_edges=(),
                   candidate_map={e: pairs[e] for e in range(m)})
    return graph, pg, prior


def dense_matrix(obj, pg, prior, edge_ids):
    M = np.array(prior, dtype=float)
    for eid in edge_ids:
        i, j, w = pg.candidate_map[eid]
        a = pg.reduced_incidence(i, j)
        M = M + obj.graph.edge(eid).p * w * np.outer(a, a)
    return M


def disconnected_dcrit():
    """Three odometry chains with no bridges: the default eps prior is ill-conditioned."""
    spec = GenSpec(num_robots=3, vertices_per_robot=20, num_edges=80, seed=5)
    graph = generate_exchange_graph(spec)
    pg = generate_pose_graph(spec, graph)
    chains = tuple((i, j, w) for i, j, w in pg.base_edges if i // 20 == j // 20)
    pg = dataclasses.replace(pg, base_edges=chains)
    assert not pg.is_connected()
    return graph, pg


def oracle_cases():
    """(label, objective factory, graph) parameters covering every oracle."""
    cases = []
    for seed in (3, 13, 21):
        graph, pg, _, _ = random_treeconn_instance(seed)
        cases += [
            (f"modular-{seed}", lambda g=graph: ModularObjective(g), graph),
            (f"treeconn-{seed}", lambda g=graph, p=pg: TreeConnObjective(g, p), graph),
            (f"dcrit-{seed}", lambda g=graph, p=pg: DCritObjective(g, p), graph),
        ]
    spec = GenSpec(num_robots=5, vertices_per_robot=20, num_edges=120, seed=4)
    graph = generate_exchange_graph(spec)
    pg = generate_pose_graph(spec, graph)
    cases += [
        ("treeconn-5x20", lambda: TreeConnObjective(graph, pg), graph),
        ("dcrit-5x20", lambda: DCritObjective(graph, pg), graph),
    ]
    dgraph, dpg = disconnected_dcrit()
    cases.append(("dcrit-disconnected", lambda: DCritObjective(dgraph, dpg), dgraph))
    return [pytest.param(*case, id=case[0]) for case in cases]


class TestOracle:
    @pytest.mark.parametrize("label,make,graph", oracle_cases())
    def test_gains_non_negative_and_match_dense(self, label, make, graph):
        obj = make()
        rng = np.random.default_rng(len(label))
        oracle = obj.oracle()
        eids = [e.id for e in graph.edges]
        committed = []
        for _ in range(min(6, len(eids) - 1)):
            base = obj.value(committed)
            rest = [e for e in eids if e not in committed]
            queries = [(e,) for e in rest]
            queries += [
                tuple(int(e) for e in rng.choice(rest, size=min(3, len(rest)), replace=False))
                for _ in range(10)
            ]
            for X in queries:
                gain = oracle.gain(X)
                dense = obj.value(committed + list(X)) - base
                assert gain >= 0.0
                if dense > 1e-6:
                    assert abs(gain - dense) <= 1e-9 * dense, (X, gain, dense)
            pick = int(rng.choice(rest))
            oracle.commit((pick,))
            committed.append(pick)
            assert oracle.value == pytest.approx(obj.value(committed), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_tiny_probabilities_match_determinant_lemma(self, kind):
        # the dense difference loses most digits here; the oracle must not
        spec = GenSpec(num_robots=5, vertices_per_robot=40, num_edges=150,
                       probabilities=(1e-13,) * 150, seed=11)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        assert pg.num_poses == 200
        if kind == "treeconn":
            obj, prior = TreeConnObjective(graph, pg), pg.base_laplacian_reduced()
        else:
            obj = DCritObjective(graph, pg)
            prior = pg.base_laplacian_reduced() + 1e-6 * np.eye(pg.num_poses - 1)
        oracle = obj.oracle()
        committed = [0, 7, 42]
        oracle.commit(committed)
        M = dense_matrix(obj, pg, prior, committed)
        for e in graph.edges[1::2]:
            if e.id in committed:
                continue
            i, j, w = pg.candidate_map[e.id]
            a = pg.reduced_incidence(i, j)
            exact = math.log1p(e.p * w * float(a @ np.linalg.solve(M, a)))
            gain = oracle.gain((e.id,))
            assert gain > 0.0
            assert gain == pytest.approx(exact, rel=1e-9)

    def test_commit_matches_refactorization(self):
        # each gain after Sherman-Morrison updates equals log1p(s aᵀM⁻¹a) with
        # M⁻¹a from a dense solve of the refactorized matrix
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            graph, pg, prior = random_pd_instance(rng, d, 8)
            obj = DCritObjective(graph, pg, prior=prior)
            oracle = obj.oracle()
            committed = []
            for eid in rng.permutation(8)[:4].tolist():
                oracle.commit((eid,))
                committed.append(eid)
                M = dense_matrix(obj, pg, prior, committed)
                for e in graph.edges:
                    if e.id in committed:
                        continue
                    i, j, w = pg.candidate_map[e.id]
                    a = pg.reduced_incidence(i, j)
                    exact = math.log1p(e.p * w * float(a @ np.linalg.solve(M, a)))
                    assert oracle.gain((e.id,)) == pytest.approx(exact, rel=1e-10, abs=1e-14)

    def test_value_tracks_recompute(self):
        rng = np.random.default_rng(3)
        graph, pg, prior = random_pd_instance(rng, 6, 15)
        obj = DCritObjective(graph, pg, prior=prior)
        oracle = obj.oracle()
        M = np.array(prior)
        for eid in range(15):
            gain = oracle.gain((eid,))
            M_next = dense_matrix(obj, pg, M, [eid])
            direct = logdet_pd(M_next) - logdet_pd(M)
            assert gain == pytest.approx(direct, rel=1e-8, abs=1e-12)
            oracle.commit((eid,))
            M = M_next
            assert oracle.value == pytest.approx(logdet_pd(M) - logdet_pd(prior), rel=1e-8)

    @pytest.mark.parametrize("kind", ["modular", "treeconn"])
    def test_rejects_committed_and_unknown_edges(self, kind):
        graph, pg, _, _ = random_treeconn_instance(3)
        obj = ModularObjective(graph) if kind == "modular" else TreeConnObjective(graph, pg)
        oracle = obj.oracle()
        oracle.commit((0,))
        with pytest.raises(ValueError, match="already committed"):
            oracle.gain((0,))
        with pytest.raises(ValueError, match="already committed"):
            oracle.commit((0,))
        with pytest.raises(ValueError, match="unknown edge"):
            oracle.commit((0 + graph.num_edges,))
        assert oracle.value == pytest.approx(obj.value([0]), rel=1e-12)

    def test_modular_arithmetic_matches_dense(self, demo_graph):
        obj = ModularObjective(demo_graph)
        oracle = obj.oracle()
        oracle.commit((0, 3))
        assert oracle.value == obj.value([0, 3])
        assert oracle.gain((5,)) == obj.marginal([0, 3], 5)
        assert oracle.gain((5, 6)) == obj.value([0, 3, 5, 6]) - obj.value([0, 3])
        assert oracle.gain(()) == 0.0


class TestLinalg:
    def test_logdet_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            logdet_pd(np.diag([1.0, -2.0]))
