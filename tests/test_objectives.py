"""Objective values against independent oracles, plus NMS property samples."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    DCritObjective,
    Edge,
    ExchangeGraph,
    ModularObjective,
    PoseGraph,
    TopKOracle,
    TotalUniform,
    TreeConnObjective,
    Vertex,
    e_greedy,
    g_modular,
    m_greedy,
    s_greedy,
    v_greedy,
)
from loopselect import cli, objectives
from loopselect.generate import GenSpec, generate_exchange_graph, generate_pose_graph
from loopselect.objectives import DEFAULT_PRIOR_EPS, logdet_pd

from conftest import (
    make_graph,
    random_connected_pose_graph,
    random_treeconn_instance,
    reweighted_pose_graph,
    spanning_tree_weight_sum,
)


def incidence(pg, i, j):
    """Incidence vector of pose pair (i, j) with the anchor coordinate deleted."""
    a = np.zeros(pg.num_poses)
    a[i], a[j] = 1.0, -1.0
    return np.delete(a, pg.anchor)


def dcrit_oracle(prior, terms, edge_ids):
    """Dense slogdet re-implementation of the D-criterion gain."""
    M = np.array(prior, dtype=float)
    for eid in edge_ids:
        a, s = terms[eid]
        M = M + s * np.outer(a, a)
    return float(np.linalg.slogdet(M)[1] - np.linalg.slogdet(prior)[1])


class TestModular:
    def test_empty_is_zero(self, demo_graph):
        assert ModularObjective(demo_graph).value([]) == 0.0

    def test_sums_probabilities(self):
        g = make_graph(2, [0, 0, 1], [(0, 2), (1, 2)], [0.5, 0.25])
        assert ModularObjective(g).value([0, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_all_certain_edges_count(self):
        g = make_graph(3, [0, 0, 0, 1, 1, 1, 2, 2, 2],
                       [(0, 4), (1, 3), (1, 7), (1, 8), (4, 6), (1, 6), (2, 4), (5, 6)],
                       [1.0] * 8)
        assert ModularObjective(g).value(range(8)) == 8.0

    def test_marginal_is_probability(self, demo_graph):
        obj = ModularObjective(demo_graph)
        assert obj.marginal([0, 1], 5) == demo_graph.edge(5).p

    def test_marginal_rejects_member(self, demo_graph):
        obj = ModularObjective(demo_graph)
        with pytest.raises(ValueError, match="already selected"):
            obj.marginal([0, 1], 1)


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
        assert value == ModularObjective(demo_graph).value(demo_graph.edges_incident(vids))

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


@st.composite
def topk_runs(draw, least_k=1):
    """A small exchange graph with tied, zero and extreme probabilities, a k from
    ``least_k`` to past the edge count, and a commit order over some of its vertices."""
    r = draw(st.integers(2, 3))
    robot_of = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=9))
    n = len(robot_of)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if robot_of[u] != robot_of[v]]
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    p = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1 - 2**-53, 2**-1074]),
                  st.floats(0.0, 1.0))
    ps = draw(st.lists(p, min_size=len(pairs), max_size=len(pairs)))
    graph = make_graph(r, robot_of, pairs, ps)
    k = draw(st.integers(least_k, len(pairs) + 2))
    order = draw(st.permutations(range(n)))
    return graph, k, order[: draw(st.integers(0, n))]


def reference_topk_gain(graph, k, covered, top, vid):
    """g_modular's gain at ``vid``, recomputed: its incident keys filtered by the
    covered edges, the entering rule against the sorted top-k keys, one fsum."""
    new = sorted((-graph.edge(eid).p, eid) for eid in graph.incident(vid) if eid not in covered)
    entering = 0
    for key in new:
        slot = k - entering - 1
        if slot < 0 or (slot < len(top) and key > top[slot]):
            break
        entering += 1
    leaving = top[k - entering:]
    return math.fsum([-key[0] for key in new[:entering]] + [key[0] for key in leaving])


class TestTopKOracle:
    def test_gain_is_witness_difference_rounded_once(self):
        rng = np.random.default_rng(33)
        for seed in range(40):
            graph = generate_exchange_graph(
                GenSpec(num_robots=3, vertices_per_robot=5, num_edges=30, seed=seed)
            )
            k = int(rng.integers(1, 12))
            oracle = TopKOracle(graph, k)
            committed = []
            for vid in rng.permutation(graph.num_vertices).tolist():
                before_value, before = g_modular(graph, committed, k)
                for other in range(graph.num_vertices):
                    after = g_modular(graph, committed + [other], k)[1]
                    want = math.fsum(
                        [graph.edge(e).p for e in after] + [-graph.edge(e).p for e in before]
                    )
                    assert oracle.gain(other) == want, (seed, k, other)
                assert oracle.value == before_value
                oracle.commit(vid)
                committed.append(vid)
            assert oracle.value == g_modular(graph, committed, k)[0]

    def test_runs_on_one_graph_keep_their_own_lists(self):
        # every oracle of a graph starts from the graph's one sorted copy
        graph = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=6, num_edges=40, seed=5)
        )
        ranked = {
            v.id: tuple(sorted((-graph.edge(e).p, e) for e in graph.incident(v.id)))
            for v in graph.vertices
        }
        starts, edges = graph.ranked_incidences()

        def flat():
            return {
                v.id: tuple((-graph.edges[e].p, graph.edges[e].id)
                            for e in edges[starts[i]:starts[i + 1]].tolist())
                for i, v in enumerate(graph.vertices)
            }

        assert flat() == ranked
        first, second = TopKOracle(graph, 4), TopKOracle(graph, 4)
        for vid in (0, 7, 13, 3):
            first.commit(vid)
        again = graph.ranked_incidences()
        assert again[0] is starts and again[1] is edges and flat() == ranked
        assert not edges.flags.writeable
        fresh = TopKOracle(graph, 4)
        for vid in range(graph.num_vertices):
            assert second.gain(vid) == fresh.gain(vid) == g_modular(graph, [vid], 4)[0]
        for vid in (13, 12):
            second.commit(vid)
        assert second.value == g_modular(graph, [13, 12], 4)[0]
        assert first.value == g_modular(graph, [0, 7, 13, 3], 4)[0]

    def test_rejects_unknown_vertex(self, demo_graph):
        with pytest.raises(ValueError, match="unknown vertex"):
            TopKOracle(demo_graph, 3).gain(99)
        with pytest.raises(ValueError, match="unknown vertex"):
            TopKOracle(demo_graph, 3).commit(99)

    @settings(max_examples=300, deadline=None)
    @given(instance=topk_runs(least_k=0))
    def test_upper_bounds_hold_every_gain(self, instance):
        # isolated vertices have empty segments, which reduceat does not sum to 0
        graph, k, order = instance
        oracle = TopKOracle(graph, k)
        for vid in [None, *order]:
            if vid is not None:
                oracle.commit(vid)
            for other, bound in enumerate(oracle.upper_bounds().tolist()):
                gain = oracle.gain(other)
                assert bound >= gain, (k, order, other)
                # a gain is 0.0 exactly when no key enters, and then so is the bound
                assert (bound == 0.0) == (gain == 0.0), (k, order, other)

    def test_upper_bound_needs_its_allowance(self):
        # vertex 0 fills the top 2 with 0.32 and 0.59; vertex 1's keys 0.98 and
        # 0.77 push both out. Summed in floats, (0.98 - 0.32) + (0.77 - 0.59) is
        # 0.84, one ulp below the exact difference rounded once
        graph = make_graph(2, [0, 0, 1, 1, 1, 1], [(0, 2), (0, 3), (1, 4), (1, 5)],
                           [0.32, 0.59, 0.98, 0.77])
        oracle = TopKOracle(graph, 2)
        oracle.commit(0)
        unwidened = (0.98 - 0.32) + (0.77 - 0.59)
        gain = oracle.gain(1)
        assert gain == math.fsum([0.98, 0.77, -0.32, -0.59]) == 0.8400000000000001
        assert unwidened == 0.84 < gain <= oracle.upper_bounds()[1]

    def test_upper_bounds_are_exact_zero_where_nothing_enters(self):
        graph = make_graph(2, [0, 0, 1, 1, 1], [(0, 2), (0, 3), (1, 4)], [0.5, 0.5, 0.5])
        oracle = TopKOracle(graph, 2)
        oracle.commit(0)
        # vertex 1's 0.5 ties the top's lowest and loses on edge id: it gains 0
        assert oracle.gain(1) == 0.0
        assert oracle.upper_bounds().tolist() == [0.0] * 5
        # with k = 0 no key ever enters
        assert TopKOracle(graph, 0).upper_bounds().tolist() == [0.0] * 5

    def test_upper_bounds_follow_ascending_ids(self):
        # graph order 3, 7, 1, 5: no vertex sits where its id ranks
        vertices = [Vertex(3, 1), Vertex(7, 0), Vertex(1, 1), Vertex(5, 0)]
        edges = [Edge(0, 7, 3, 0.5), Edge(1, 5, 1, 0.25), Edge(2, 7, 1, 1.0)]
        oracle = TopKOracle(ExchangeGraph(2, vertices, edges), 1)
        oracle.commit(5)
        gains = [oracle.gain(vid) for vid in (1, 3, 5, 7)]
        bounds = oracle.upper_bounds().tolist()
        assert gains == [0.75, 0.25, 0.0, 0.75]
        assert all(b >= g for b, g in zip(bounds, gains)) and bounds[2] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(instance=topk_runs())
    def test_gains_match_filtered_reference_bit_for_bit(self, instance):
        graph, k, order = instance
        oracle = TopKOracle(graph, k)
        committed = []
        for vid in [None, *order]:
            if vid is not None:
                oracle.commit(vid)
                committed.append(vid)
            value, witness = g_modular(graph, committed, k)
            assert oracle.value.hex() == value.hex()
            covered = graph.edges_incident(committed)
            top = [(-graph.edge(eid).p, eid) for eid in witness]
            # t: the top k's values ascending, an empty slot as 0
            t = [Fraction(0)] * (k - len(witness)) + [Fraction(-key[0]) for key in top[::-1]]
            bounds = dict(zip(sorted(v.id for v in graph.vertices), oracle.upper_bounds()))
            for other in range(graph.num_vertices):
                if other in committed:
                    continue
                gain = oracle.gain(other)
                want = reference_topk_gain(graph, k, covered, top, other)
                assert gain.hex() == want.hex(), (k, committed, other)
                # Σ(qᵢ − tᵢ)⁺ in exact arithmetic over the first min(k, degree) keys
                q = sorted((graph.edge(eid).p for eid in graph.incident(other)
                            if eid not in covered), reverse=True)[:k]
                exact = sum((max(Fraction(qi) - ti, 0) for qi, ti in zip(q, t)), Fraction(0))
                assert gain == float(exact), (k, committed, other)
                assert Fraction(bounds[other]) >= exact, (k, committed, other)
                assert (bounds[other] == 0.0) == (exact == 0), (k, committed, other)


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
        assert DCritObjective(g, pg).value([]) == 0.0

    def test_non_pd_prior_rejected(self):
        # 1e20 + DEFAULT_PRIOR_EPS rounds to 1e20: the base's 2 x 2 block is
        # singular in floats, and the factorization names the base
        g, pg = self._two_by_two()
        pg = dataclasses.replace(pg, base_edges=((1, 2, 1e20),))
        with pytest.raises(ValueError, match="^base information .* not positive definite$"):
            DCritObjective(g, pg)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            graph, pg, _, _ = random_treeconn_instance(seed)
            obj = DCritObjective(graph, pg)
            d = pg.num_poses - 1
            prior = pg.base_laplacian_reduced() + 1e-6 * np.eye(d)
            terms = {
                e.id: (incidence(pg, *pg.candidate_map[e.id][:2]),
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
        assert TreeConnObjective(graph, pg).value([]) == 0.0

    def test_k4_completion_is_ln16(self):
        g = make_graph(2, [0, 0, 1, 1], [(0, 2), (0, 3), (1, 3)], [1.0, 1.0, 1.0])
        pg = PoseGraph(
            num_poses=4,
            base_edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
            candidate_map={0: (0, 2, 1.0), 1: (0, 3, 1.0), 2: (1, 3, 1.0)},
        )
        assert TreeConnObjective(g, pg).value([0, 1, 2]) == pytest.approx(
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
            value = TreeConnObjective(graph, pg).value(sel)
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
    """A DCrit instance on d + 1 poses and m candidates, and its prior M0: a
    random tree base plus random non-tree edges, all at random weights."""
    tree = tuple((int(rng.integers(0, j)), j, 1.0) for j in range(1, d + 1))
    pairs = []
    for _ in range(m):
        i, j = rng.choice(d + 1, size=2, replace=False)
        pairs.append((int(i), int(j), float(rng.uniform(0.1, 2.0))))
    graph = make_graph(
        2, [0] * m + [1] * m, [(e, m + e) for e in range(m)],
        [float(rng.uniform(0.0, 1.0)) for _ in range(m)],
    )
    pg = PoseGraph(num_poses=d + 1, base_edges=tree,
                   candidate_map={e: pairs[e] for e in range(m)})
    pg = reweighted_pose_graph(rng, pg)
    return graph, pg, pg.base_laplacian_reduced() + DEFAULT_PRIOR_EPS * np.eye(d)


def dense_matrix(obj, pg, prior, edge_ids):
    M = np.array(prior, dtype=float)
    for eid in edge_ids:
        i, j, w = pg.candidate_map[eid]
        a = incidence(pg, i, j)
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
            a = incidence(pg, i, j)
            exact = math.log1p(e.p * w * float(a @ np.linalg.solve(M, a)))
            gain = oracle.gain((e.id,))
            assert gain > 0.0
            assert gain == pytest.approx(exact, rel=1e-9, abs=0)

    def test_commit_matches_refactorization(self):
        # each gain over the base inverse less the committed factor UUᵀ equals
        # log1p(s aᵀM⁻¹a) with M⁻¹a from a dense solve of the refactorized matrix
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            graph, pg, prior = random_pd_instance(rng, d, 8)
            obj = DCritObjective(graph, pg)
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
                    a = incidence(pg, i, j)
                    exact = math.log1p(e.p * w * float(a @ np.linalg.solve(M, a)))
                    assert oracle.gain((e.id,)) == pytest.approx(exact, rel=1e-10, abs=1e-14)

    def test_value_tracks_recompute(self):
        rng = np.random.default_rng(3)
        graph, pg, prior = random_pd_instance(rng, 6, 15)
        obj = DCritObjective(graph, pg)
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


class TestSharedInverse:
    def test_base_inverse_is_read_only_and_never_changes(self):
        spec = GenSpec(num_robots=3, vertices_per_robot=8, num_edges=30, seed=6)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        obj = TreeConnObjective(graph, pg)
        P0 = obj.oracle()._P0
        assert P0 is obj._P0 and not P0.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            P0[1, 1] = 0.0
        before = P0.tobytes()
        s_greedy(graph, 6, TotalUniform(3), obj)
        cli.sweep_cells(graph, obj, cli.SweepSpec(bs=(2, 3), ks=(2, 6), planners=("sgreedy",)))
        assert obj._P0 is P0 and P0.tobytes() == before

    def test_one_inverse_per_objective(self, monkeypatch):
        # treeconn builds its base inverse from the spanning tree and inverts
        # nothing; dcrit's M0 is not a Laplacian: its constructor factorizes
        # M0 = LLᵀ, the one factorization of M0, and its first oracle inverts L
        builds, inversions, factored = [], [], []

        def built(pose_graph, *tree):
            builds.append(pose_graph.num_poses)
            return tree_inverse(pose_graph, *tree)

        def inverted(M):
            inversions.append(M.shape)
            return inv(M)

        def factorized(M):
            factored.append(np.array(M))
            return cholesky(M)

        tree_inverse, inv, cholesky = objectives._tree_inverse, np.linalg.inv, np.linalg.cholesky
        monkeypatch.setattr(objectives, "_tree_inverse", built)
        monkeypatch.setattr(np.linalg, "inv", inverted)
        monkeypatch.setattr(np.linalg, "cholesky", factorized)
        spec = GenSpec(num_robots=3, vertices_per_robot=8, num_edges=30, seed=6)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        L = pg.base_laplacian_reduced()
        for make, kind, M0 in ((TreeConnObjective, "treeconn", L),
                               (DCritObjective, "dcrit", L + DEFAULT_PRIOR_EPS * np.eye(len(L)))):
            obj = make(graph, pg)
            assert builds == [] and inversions == []  # construction and value() never invert
            obj.value([0, 1])
            assert builds == [] and inversions == []
            s_greedy(graph, 6, TotalUniform(3), obj)
            cells = cli.sweep_cells(graph, obj, cli.SweepSpec(bs=(3,), ks=(4, 6),
                                                              planners=("sgreedy",)))
            assert len(cells) == 2  # two cells: four more oracles
            if kind == "treeconn":
                assert builds == [pg.num_poses] and inversions == []
            else:
                assert builds == [] and inversions == [M0.shape] and obj._factor is None
            # M0 itself is factorized once: by treeconn's first value(), by dcrit's constructor
            assert sum(M.shape == M0.shape and np.array_equal(M, M0) for M in factored) == 1
            builds.clear()
            inversions.clear()
            factored.clear()

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_commits_leave_other_oracles_untouched(self, kind):
        spec = GenSpec(num_robots=3, vertices_per_robot=8, num_edges=30, seed=7)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        make = TreeConnObjective if kind == "treeconn" else DCritObjective
        obj = make(graph, pg)
        before = obj.oracle()
        used = obj.oracle()
        used.commit((0, 5, 9))
        used.commit(graph.edges_incident((3,)) - {0, 5, 9})
        after = obj.oracle()
        never = make(graph, pg).oracle()
        queries = [(e.id,) for e in graph.edges]
        queries += [tuple(sorted(graph.edges_incident((v.id,)))) for v in graph.vertices]
        for X in queries:
            want = never.gain(X)
            assert before.gain(X) == want and after.gain(X) == want, X


def small_block_cases():
    """(label, objective, graph) of small instances for the r-edge vertex gains."""
    cases = []
    for seed in range(12):
        graph, pg, _, _ = random_treeconn_instance(seed)
        cases.append((f"treeconn-{seed}", TreeConnObjective(graph, pg), graph))
    rng = np.random.default_rng(8)
    for seed in range(100, 108):
        graph, pg, _, _ = random_treeconn_instance(seed)
        pg = reweighted_pose_graph(rng, pg)
        cases.append((f"dcrit-reweighted-{seed}", DCritObjective(graph, pg), graph))
    return cases


class TestSmallBlockGain:
    def test_vertex_gains_match_dense_differences(self):
        blocks = 0
        for label, obj, graph in small_block_cases():
            oracle = obj.oracle()
            committed: set[int] = set()
            for v in sorted(graph.vertices, key=lambda v: -len(graph.incident(v.id))):
                base = obj.value(committed)
                for u in graph.vertices:  # every vertex's block of new edges
                    new = graph.edges_incident((u.id,)) - committed
                    blocks += len(new) == graph.max_degree() >= 2
                    gain = oracle.gain(new)
                    dense = obj.value(committed | new) - base
                    assert gain >= 0.0
                    assert abs(gain - dense) <= 1e-9, (label, u.id, gain, dense)
                new = graph.edges_incident((v.id,)) - committed
                oracle.commit(new)
                committed |= new
        assert blocks > 0  # some gains took blocks as large as the maximum degree

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_tiny_block_gain_is_the_trace(self, kind):
        # logdet(I + S½GS½) = Σ sₐGₐₐ to first order: log1p of each pivot's
        # increment keeps that, where log of the pivot 1 + 1e-14 would not
        spec = GenSpec(num_robots=3, vertices_per_robot=10, num_edges=40,
                       probabilities=(1e-14,) * 40, seed=12)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        if kind == "treeconn":
            obj, M0 = TreeConnObjective(graph, pg), pg.base_laplacian_reduced()
        else:
            obj = DCritObjective(graph, pg)
            M0 = pg.base_laplacian_reduced() + DEFAULT_PRIOR_EPS * np.eye(pg.num_poses - 1)
        oracle = obj.oracle()
        M0_inv = np.linalg.inv(M0)
        for v in graph.vertices:
            new = sorted(graph.edges_incident((v.id,)))
            if len(new) < 2:
                continue
            trace = 0.0
            for eid in new:
                i, j, w = pg.candidate_map[eid]
                a = incidence(pg, i, j)
                trace += graph.edge(eid).p * w * float(a @ M0_inv @ a)
            gain = oracle.gain(new)
            assert abs(gain - trace) <= 1e-6 * trace, (v.id, gain, trace)


def dense_laplacian(pg):
    """Reduced base Laplacian as a sum of dense outer products, in base-edge order."""
    L = np.zeros((pg.num_poses - 1,) * 2)
    for i, j, w in pg.base_edges:
        a = incidence(pg, i, j)
        L += w * np.outer(a, a)
    return L


def dense_value(obj, M0, edge_ids):
    """logdet(M0 + Σ s a aᵀ) - logdet(M0), adding every edge in ascending id order."""
    M = dense_matrix(obj, obj.pose_graph, M0, sorted(set(edge_ids)))
    return logdet_pd(M) - logdet_pd(M0)


@st.composite
def logdet_instances(draw):
    """A connected pose graph with any anchor, and candidates on repeated pose pairs.

    The base is a spanning path in random order plus extra edges that may
    repeat a pair; the candidates always repeat one pose pair and include a
    zero-probability edge.
    """
    n = draw(st.integers(2, 9))
    pose = st.integers(0, n - 1)
    pair = st.tuples(pose, pose).filter(lambda ij: ij[0] != ij[1])
    weight = st.floats(0.05, 4.0)
    path = draw(st.permutations(range(n)))
    base = [(path[t], path[t + 1]) for t in range(n - 1)]
    base = draw(st.permutations(base + draw(st.lists(pair, max_size=6))))
    pairs = draw(st.lists(pair, min_size=1, max_size=8))
    pairs += [pairs[0], draw(pair)]
    m = len(pairs)
    p = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    ps = draw(st.lists(p, min_size=m - 1, max_size=m - 1))
    ps.insert(draw(st.integers(0, m - 1)), 0.0)
    graph = make_graph(2, [0] * m + [1] * m, [(e, m + e) for e in range(m)], ps)
    pg = PoseGraph(
        num_poses=n,
        base_edges=tuple((i, j, draw(weight)) for i, j in base),
        candidate_map={e: (i, j, draw(weight)) for e, (i, j) in enumerate(pairs)},
        anchor=draw(pose),
    )
    return graph, pg


class TestScatterMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_bit_identical_to_outer_products(self, instance, data):
        graph, pg = instance
        L = dense_laplacian(pg)
        assert pg.base_laplacian_reduced().tobytes() == L.tobytes()
        eids = [e.id for e in graph.edges]
        cases = [
            (TreeConnObjective(graph, pg), L),
            (DCritObjective(graph, pg), L + DEFAULT_PRIOR_EPS * np.eye(pg.num_poses - 1)),
        ]
        for obj, M0 in cases:
            S = data.draw(st.lists(st.sampled_from(eids), max_size=2 * len(eids)))
            assert obj.value(S) == dense_value(obj, M0, S)
            assert obj.value(eids) == dense_value(obj, M0, eids)
            with pytest.raises(ValueError, match="unknown edge id"):
                obj.value(S + [len(eids)])


class TestFactorOracle:
    @settings(max_examples=150, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_gains_and_value_match_dense_after_commits(self, instance, data):
        # the oracle reads P0 - UUᵀ; after any commits its one-edge and r-edge
        # gains and its value agree with refactorizations of the dense matrix
        graph, pg = instance
        eids = [e.id for e in graph.edges]
        for obj in (TreeConnObjective(graph, pg), DCritObjective(graph, pg)):
            oracle = obj.oracle()
            committed: list[int] = []
            order = data.draw(st.permutations(eids))
            while True:
                base = obj.value(committed)
                rest = [e for e in eids if e not in committed]
                queries = [(e,) for e in rest]
                if len(rest) >= 2:
                    queries.append(tuple(data.draw(st.lists(
                        st.sampled_from(rest), min_size=2, max_size=len(rest), unique=True))))
                for X in queries:
                    dense = obj.value(committed + list(X)) - base
                    gain = oracle.gain(X)
                    assert gain >= 0.0
                    assert abs(gain - dense) <= 1e-9 * max(1.0, abs(dense)), (X, gain, dense)
                assert abs(oracle.value - base) <= 1e-9 * max(1.0, abs(base))
                if not order:
                    break
                size = data.draw(st.integers(1, min(3, len(order))))
                batch, order = order[:size], order[size:]
                oracle.commit(batch)
                committed += batch


class TestTreeInverse:
    """The tree-built base inverse of ``TreeConnObjective`` against the dense one."""

    # max-norm error relative to max |M0⁻¹|; 2,000 draws of the first
    # kind and 3,000 of the second stayed below 8e-14, a wide margin
    TOL = 1e-11

    def assert_matches_dense(self, pg):
        n = pg.num_poses
        dense = np.zeros((n, n))
        dense[objectives._anchored(n, pg.anchor)] = np.linalg.inv(pg.base_laplacian_reduced())
        P0 = TreeConnObjective(make_graph(1, [0], [], []), pg).oracle()._P0
        assert not P0.flags.writeable
        assert not P0[pg.anchor].any() and not P0[:, pg.anchor].any()
        assert np.abs(P0 - dense).max() <= self.TOL * np.abs(dense).max()

    @settings(max_examples=300, deadline=None)
    @given(instance=logdet_instances())
    def test_matches_dense_inverse(self, instance):
        # a spanning path in random order plus extra and parallel edges, any anchor
        _, pg = instance
        self.assert_matches_dense(dataclasses.replace(pg, candidate_map={}))

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_dense_inverse_on_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        pg = random_connected_pose_graph(rng, max_poses=9, extra_edges=6)
        pg = dataclasses.replace(pg, anchor=int(rng.integers(0, pg.num_poses)))
        self.assert_matches_dense(pg)

    def test_spanning_tree_searches_from_the_anchor(self):
        pg = PoseGraph(num_poses=4, base_edges=((1, 2, 1.0), (0, 1, 2.0), (0, 1, 3.0)), anchor=1)
        order, up = pg.spanning_tree()
        assert order[0] == 1 and sorted(order) == [0, 1, 2]
        assert up == [1, -1, 0, None]  # 0 by the first of its two parallel edges
        assert not pg.is_connected()
        with pytest.raises(ValueError, match="must be connected"):
            TreeConnObjective(make_graph(1, [0], [], []), pg)


class TestOneEdgeGain:
    @settings(max_examples=150, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_bit_identical_to_the_general_expression(self, instance, data):
        # the one-id path skips the set, the sort and, while nothing is
        # committed, the U term; it must round exactly as the full expression
        graph, pg = instance
        eids = [e.id for e in graph.edges]
        for obj in (TreeConnObjective(graph, pg), DCritObjective(graph, pg)):
            oracle = obj.oracle()
            for eid in data.draw(st.permutations(eids)):
                P0, U = oracle._P0, oracle._U[:, : oracle._m]
                for other in eids:
                    if other in oracle._committed:
                        continue
                    i, j, s = (col.item(graph.edge_row(other)) for col in obj._ijs)
                    w = U[i] - U[j]
                    want = math.log1p(
                        s * max(float(P0[i, i] + P0[j, j] - 2.0 * P0[i, j] - w.dot(w)), 0.0))
                    assert oracle.gain((other,)).hex() == want.hex()
                    assert oracle.gain({other}).hex() == want.hex()
                oracle.commit((eid,))
                with pytest.raises(ValueError, match=rf"edges \[{eid}\] already committed"):
                    oracle.gain((eid,))
            with pytest.raises(ValueError, match="unknown edge id"):
                oracle.gain((len(eids),))


class TestAchievedFromOracle:
    @settings(max_examples=150, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_every_planner_agrees_with_the_dense_value(self, instance, data):
        # achieved values come from the run's oracle: within 1e-9 of the dense
        # value() for log-det objectives and bit-equal to it for modular
        graph, pg = instance
        b = data.draw(st.integers(0, graph.num_vertices + 1))
        k = data.draw(st.integers(0, graph.num_edges + 1))
        cases = [
            (ModularObjective(graph), (m_greedy, e_greedy, v_greedy, s_greedy)),
            (TreeConnObjective(graph, pg), (e_greedy, v_greedy, s_greedy)),
            (DCritObjective(graph, pg), (e_greedy, v_greedy, s_greedy)),
        ]
        for obj, planners in cases:
            for planner in planners:
                plan, _ = planner(graph, k, TotalUniform(b), obj)
                dense = obj.value(plan.edges)
                if obj.kind == "modular":
                    assert plan.achieved_value.hex() == dense.hex(), planner
                else:
                    assert abs(plan.achieved_value - dense) <= 1e-9 * max(1.0, abs(dense))


class TestEdgeGains:
    """``edge_gains`` against one ``gain`` call per edge: the bounds edge greedy walks."""

    @staticmethod
    def assert_edge_gains_are_gains(graph, oracle):
        rest = [e.id for e in graph.edges if e.id not in oracle._committed]
        rows = np.array([graph.edge_row(eid) for eid in rest], dtype=np.intp)
        got = oracle.edge_gains(rows).tolist()
        assert [g.hex() for g in got] == [oracle.gain((eid,)).hex() for eid in rest]
        assert min(got, default=0.0) >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_logdet_edge_gains_are_gain_bit_for_bit_after_commits(self, instance, data):
        # repeated pose pairs and zero-probability edges among them
        graph, pg = instance
        eids = [e.id for e in graph.edges]
        for obj in (TreeConnObjective(graph, pg), DCritObjective(graph, pg)):
            oracle = obj.oracle()
            order = data.draw(st.permutations(eids))
            while True:
                self.assert_edge_gains_are_gains(graph, oracle)
                if not order:
                    break
                size = data.draw(st.integers(1, min(3, len(order))))
                oracle.commit(order[:size])
                order = order[size:]

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_logdet_edge_gains_are_gain_bit_for_bit_at_5x40(self, kind):
        spec = GenSpec(num_robots=5, vertices_per_robot=40, num_edges=300, seed=1)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        obj = TreeConnObjective(graph, pg) if kind == "treeconn" else DCritObjective(graph, pg)
        oracle = obj.oracle()
        for commit in ((), (0,), (7, 11, 150), tuple(range(20, 40))):
            oracle.commit(commit)
            self.assert_edge_gains_are_gains(graph, oracle)

    @settings(max_examples=150, deadline=None)
    @given(instance=topk_runs())
    def test_modular_edge_gains_are_gain_bit_for_bit(self, instance):
        graph, _, order = instance
        oracle = ModularObjective(graph).oracle()
        for vid in [None, *order]:
            if vid is not None:
                oracle.commit(graph.edges_incident((vid,)) - oracle._committed)
            self.assert_edge_gains_are_gains(graph, oracle)

    @pytest.mark.parametrize("kind", ["treeconn", "dcrit"])
    def test_tiny_multi_edge_gain_keeps_its_relative_precision(self, kind):
        # s = p·w near 1e-18: logdet(I + S½GS½) is the sum of the one-edge
        # gains to first order, and the log of a Cholesky pivot 1 + 1e-18,
        # which rounds to 1, would give 0.0
        spec = GenSpec(num_robots=3, vertices_per_robot=10, num_edges=40,
                       probabilities=(1e-18,) * 40, seed=12)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        obj = TreeConnObjective(graph, pg) if kind == "treeconn" else DCritObjective(graph, pg)
        oracle = obj.oracle()
        oracle.commit((0, 7))
        sets = [sorted(graph.edges_incident((v.id,)) - {0, 7}) for v in graph.vertices]
        sets = [X for X in sets if len(X) >= 2]
        assert sets
        for X in sets:
            g = oracle.gain(X)
            parts = math.fsum(oracle.gain((eid,)) for eid in X)
            assert 0.0 < parts < 1e-15
            assert abs(g - parts) <= 1e-9 * parts, (X, g, parts)


class TestEdgeRecordOrder:
    @settings(max_examples=100, deadline=None)
    @given(instance=logdet_instances(), data=st.data())
    def test_permuted_edge_records_change_no_bit(self, instance, data):
        # an objective reads an edge at the row the graph maps its id to, so
        # the same records in another order give every gain, bound and value
        graph, pg = instance  # edge e at row e
        eids = [e.id for e in graph.edges]
        perm = data.draw(st.permutations(range(len(eids))))
        shuffled = ExchangeGraph(graph.num_robots, graph.vertices, [graph.edges[k] for k in perm])
        order = data.draw(st.permutations(eids))
        sizes = [data.draw(st.integers(1, 3)) for _ in eids]

        def same(values):
            a, b = ([x.hex() for x in side] for side in values)
            assert a == b

        for make in (ModularObjective, lambda g: TreeConnObjective(g, pg),
                     lambda g: DCritObjective(g, pg)):
            objs = make(graph), make(shuffled)
            oracles = [obj.oracle() for obj in objs]
            rest, sizes_left = list(order), list(sizes)
            while True:
                rows = [np.array([g.edge_row(e) for e in rest], dtype=np.intp)
                        for g in (graph, shuffled)]
                same([o.edge_gains(r).tolist() for o, r in zip(oracles, rows)])
                same([[o.gain((e,)) for e in rest] + [o.gain(rest[:3])] for o in oracles])
                if not rest:
                    break
                size = sizes_left.pop()
                new, rest = rest[:size], rest[size:]
                for o in oracles:
                    o.commit(new)
                same([[o.value] for o in oracles])
                committed = order[: len(order) - len(rest)]
                same([[obj.value(committed)] for obj in objs])


class TestLinalg:
    def test_logdet_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            logdet_pd(np.diag([1.0, -2.0]))
