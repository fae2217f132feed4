"""Exchange-graph invariants, covers, budgets, and plan feasibility."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    Edge,
    ExchangeGraph,
    IndividualUniform,
    InstanceTooLargeError,
    ModularObjective,
    Plan,
    PoseGraph,
    TotalNonuniform,
    TotalUniform,
    Vertex,
    brute_force_opt,
    e_greedy,
    m_greedy,
)
from loopselect.generate import GenSpec, generate_exchange_graph

from conftest import make_graph, min_vertex_cover_bruteforce


class TestValidate:
    def test_demo_graph_is_valid(self, demo_graph):
        assert demo_graph.validate() == []

    def test_intra_robot_edge_flagged(self):
        g = make_graph(2, [0, 0, 1], [(0, 1)], [0.5])
        assert any("not r-partite" in v for v in g.validate())

    def test_probability_out_of_range(self):
        g = make_graph(2, [0, 1], [(0, 1)], [1.2])
        assert any("probability out of range" in v for v in g.validate())

    def test_self_loop_and_duplicates(self):
        g = ExchangeGraph(
            2,
            [Vertex(0, 0), Vertex(1, 1)],
            [Edge(0, 0, 0, 0.5), Edge(1, 0, 1, 0.5), Edge(2, 1, 0, 0.5)],
        )
        report = " ".join(g.validate())
        assert "self-loop" in report and "duplicate" in report

    def test_nondense_ids_flagged(self):
        g = ExchangeGraph(2, [Vertex(0, 0), Vertex(2, 1)], [])
        assert any("dense" in v for v in g.validate())

    def test_nonpositive_weight_flagged(self):
        g = ExchangeGraph(2, [Vertex(0, 0, weight=0.0), Vertex(1, 1)], [])
        assert any("weight" in v for v in g.validate())


def reference_exchange_messages(g):
    """The invariant checks as separate passes over the records, one check at a time."""
    out = []
    if g.num_robots < 2:
        out.append(f"num_robots must be at least 2, got {g.num_robots}")
    vids = [v.id for v in g.vertices]
    if sorted(vids) != list(range(len(vids))):
        out.append("vertex ids must be dense, 0-based, and unique")
    for v in g.vertices:
        if not 0 <= v.robot < g.num_robots:
            out.append(f"vertex {v.id}: robot {v.robot} out of range")
        if not v.weight > 0:
            out.append(f"vertex {v.id}: weight must be positive")
    eids = [e.id for e in g.edges]
    if sorted(eids) != list(range(len(eids))):
        out.append("edge ids must be dense, 0-based, and unique")
    robot = {v.id: v.robot for v in g.vertices}
    seen = set()
    for e in g.edges:
        if e.u not in robot or e.v not in robot:
            out.append(f"edge {e.id}: unknown endpoint")
            continue
        if e.u == e.v:
            out.append(f"edge {e.id}: self-loop")
            continue
        if robot[e.u] == robot[e.v]:
            out.append(f"edge {e.id}: not r-partite (both endpoints on robot {robot[e.u]})")
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair in seen:
            out.append(f"edge {e.id}: duplicate of pair {pair}")
        seen.add(pair)
        if not 0.0 <= e.p <= 1.0:
            out.append(f"edge {e.id}: probability out of range ({e.p})")
    return out


def reference_pose_messages(pg):
    out = []
    if pg.num_poses < 2:
        out.append("need at least two poses")
    if not 0 <= pg.anchor < pg.num_poses:
        out.append(f"anchor {pg.anchor} out of range")
    if pg.poses is not None and len(pg.poses) != pg.num_poses:
        out.append("pose coordinate count does not match num_poses")
    n = pg.num_poses
    for i, j, w in pg.base_edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            out.append(f"base edge ({i},{j}) invalid")
        if not (w > 0 and math.isfinite(w)):
            out.append(f"base edge ({i},{j}) weight must be positive and finite")
    for eid, (i, j, w) in pg.candidate_map.items():
        if not (0 <= i < n and 0 <= j < n) or i == j:
            out.append(f"candidate {eid}: pose pair ({i},{j}) invalid")
        if not (w > 0 and math.isfinite(w)):
            out.append(f"candidate {eid}: weight must be positive and finite")
    return out


small_id = st.integers(-1, 5)
odd_weight = st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.inf, math.nan])


class TestViolationsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.integers(0, 3),
        vertices=st.lists(st.builds(Vertex, small_id, st.integers(-1, 3), odd_weight), max_size=6),
        edges=st.lists(
            st.builds(Edge, small_id, small_id, small_id, st.sampled_from([-0.1, 0.0, 0.5, 1.0, 1.5])),
            max_size=8,
        ),
    )
    def test_exchange_messages_and_order(self, r, vertices, edges):
        g = ExchangeGraph(r, vertices, edges)
        assert g.validate() == reference_exchange_messages(g)
        for record, _ in g.violations():
            assert record is None or record == ("robots",) or (
                record[0] in ("vertex", "edge")
                and 0 <= record[1] < len(g.vertices if record[0] == "vertex" else g.edges)
            )

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(0, 4),
        anchor=small_id,
        base=st.lists(st.tuples(small_id, small_id, odd_weight), max_size=5),
        candidates=st.dictionaries(st.integers(0, 9), st.tuples(small_id, small_id, odd_weight), max_size=5),
        coords=st.none() | st.integers(0, 5).map(lambda n: ((0.0, 0.0, 0.0),) * n),
    )
    def test_pose_messages_and_order(self, d, anchor, base, candidates, coords):
        pg = PoseGraph(num_poses=d, base_edges=tuple(base), candidate_map=candidates,
                       anchor=anchor, poses=coords)
        assert pg.validate() == reference_pose_messages(pg)


class TestRecords:
    def test_named_tuple_contract(self):
        v, e = Vertex(3, 1, 2.5), Edge(id=0, u=1, v=2, p=0.25)
        assert repr(v) == "Vertex(id=3, robot=1, weight=2.5)"
        assert repr(e) == "Edge(id=0, u=1, v=2, p=0.25)"
        assert v == (3, 1, 2.5) and hash(v) == hash((3, 1, 2.5))
        assert Vertex(3, 1) == Vertex(id=3, robot=1, weight=1.0)
        eid, u, w, p = e
        assert (eid, u, w, p) == (0, 1, 2, 0.25)
        assert e._replace(p=0.5) == Edge(0, 1, 2, 0.5) and e.p == 0.25
        with pytest.raises(AttributeError):
            e.p = 0.5


class TestEdgesIncident:
    def test_empty_set(self, demo_graph):
        assert demo_graph.edges_incident([]) == set()

    def test_all_vertices_cover_all_edges(self, demo_graph):
        vids = [v.id for v in demo_graph.vertices]
        assert demo_graph.edges_incident(vids) == {e.id for e in demo_graph.edges}

    def test_min_cover_reaches_all_edges(self, demo_graph):
        cover = min_vertex_cover_bruteforce(
            demo_graph, [e.id for e in demo_graph.edges]
        )
        assert demo_graph.edges_incident(cover) == {e.id for e in demo_graph.edges}

    def test_unknown_vertex_errors(self, demo_graph):
        with pytest.raises(ValueError, match="unknown vertex"):
            demo_graph.edges_incident([99])

    def test_union_property(self, demo_graph):
        rng = np.random.default_rng(7)
        vids = [v.id for v in demo_graph.vertices]
        for _ in range(25):
            sel = [v for v in vids if rng.random() < 0.4]
            union = set()
            for v in sel:
                union |= demo_graph.edges_incident([v])
            assert demo_graph.edges_incident(sel) == union


class TestIndexArrays:
    def test_ends_index_the_vertex_order_not_the_ids(self):
        g = ExchangeGraph(2, [Vertex(1, 1), Vertex(0, 0), Vertex(2, 1)],
                          [Edge(0, 0, 1, 0.25), Edge(1, 2, 0, 0.5)])
        ids, ends, p = g.index_arrays()
        assert ids.tolist() == [1, 0, 2]
        assert ends.tolist() == [[1, 2], [0, 1]]
        assert p.tolist() == [0.25, 0.5]

    def test_built_once_and_read_only(self, demo_graph):
        arrays = demo_graph.index_arrays()
        assert demo_graph.index_arrays() is arrays
        assert not any(array.flags.writeable for array in arrays)


class TestIsCover:
    def test_empty_edges_always_covered(self, demo_graph):
        assert demo_graph.is_cover([], [])

    def test_min_cover_covers(self, demo_graph):
        cover = min_vertex_cover_bruteforce(
            demo_graph, [e.id for e in demo_graph.edges]
        )
        assert demo_graph.is_cover(cover, [e.id for e in demo_graph.edges])

    def test_unrelated_vertex_fails(self):
        g = make_graph(2, [0, 1, 0], [(0, 1)], [0.5])
        assert not g.is_cover([2], [0])

    def test_incident_edges_always_covered(self, demo_graph):
        rng = np.random.default_rng(3)
        vids = [v.id for v in demo_graph.vertices]
        for _ in range(25):
            sel = [v for v in vids if rng.random() < 0.5]
            assert demo_graph.is_cover(sel, demo_graph.edges_incident(sel))


class TestMaxDegreeAndCap:
    def test_edgeless(self):
        g = ExchangeGraph(2, [Vertex(0, 0), Vertex(1, 1)], [])
        assert g.max_degree() == 0

    def test_star(self):
        g = make_graph(2, [0] + [1] * 5, [(0, i) for i in range(1, 6)], [0.5] * 5)
        assert g.max_degree() == 5

    def test_cap_noop_when_under_cap(self, demo_graph):
        assert demo_graph.cap_degree(demo_graph.max_degree()) == demo_graph

    def test_cap_keeps_most_probable(self):
        ps = [0.1, 0.9, 0.3, 0.8, 0.5, 0.7, 0.2]
        g = make_graph(2, [0] + [1] * 7, [(0, i) for i in range(1, 8)], ps)
        capped = g.cap_degree(3)
        kept = sorted((capped.edge(e.id).u, capped.edge(e.id).v) for e in capped.edges)
        # highest p edges attach to vertices 2, 4, 6 (p = .9, .8, .7)
        assert kept == [(0, 2), (0, 4), (0, 6)]
        assert capped.max_degree() == 3

    def test_cap_is_subgraph_and_idempotent(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            g = generate_exchange_graph(
                GenSpec(num_robots=3, vertices_per_robot=4, edge_density=0.5, seed=seed)
            )
            dmax = int(rng.integers(1, 5))
            capped = g.cap_degree(dmax)
            assert capped.max_degree() <= dmax
            orig = {(e.u, e.v, e.p) for e in g.edges}
            assert {(e.u, e.v, e.p) for e in capped.edges} <= orig
            assert capped.cap_degree(dmax) == capped
            assert capped.validate() == []

    def test_bad_cap_rejected(self, demo_graph):
        with pytest.raises(ValueError):
            demo_graph.cap_degree(0)


class TestBudgets:
    def test_total_uniform(self, demo_graph):
        assert demo_graph.budget_satisfied([0, 1, 2], TotalUniform(3))
        assert not demo_graph.budget_satisfied([0, 1, 2, 3], TotalUniform(3))

    def test_total_nonuniform(self):
        g = make_graph(2, [0, 0, 1], [], [], weights=[1.5, 2.0, 1.0])
        assert not g.budget_satisfied([0, 1, 2], TotalNonuniform(4.0))
        assert g.budget_satisfied([0, 2], TotalNonuniform(4.0))

    def test_individual_uniform(self, demo_graph):
        cb = IndividualUniform.by_robot(demo_graph, [1, 1, 1])
        assert demo_graph.budget_satisfied([0, 3, 6], cb)
        assert not demo_graph.budget_satisfied([0, 1], cb)

    def test_vertex_outside_blocks_errors(self, demo_graph):
        cb = IndividualUniform(blocks=((0, 1),), limits=(2,))
        with pytest.raises(ValueError, match="outside every budget block"):
            demo_graph.budget_satisfied([5], cb)

    @pytest.mark.parametrize("cb, message", [
        (IndividualUniform(blocks=((0, 1),), limits=(2,)),
         "vertex 2 is outside every budget block"),
        (IndividualUniform(blocks=(tuple(range(9)), (4,)), limits=(1, 1)),
         "vertex 4 is in two budget blocks"),
        (IndividualUniform(blocks=(tuple(range(10)),), limits=(1,)), "unknown vertex id 9"),
        ("3", "unsupported budget"),
    ], ids=["missing", "overlap", "unknown", "not-a-budget"])
    @pytest.mark.parametrize("use", [
        lambda g, cb: g.budget_satisfied([0], cb),
        lambda g, cb: m_greedy(g, 3, cb, ModularObjective(g)),
        lambda g, cb: brute_force_opt(g, 3, cb, ModularObjective(g)),
    ], ids=["budget_satisfied", "m_greedy", "brute_force_opt"])
    def test_blocks_must_partition_the_vertices(self, demo_graph, cb, message, use):
        with pytest.raises(ValueError, match=message):
            use(demo_graph, cb)

    @pytest.mark.parametrize("make", [
        lambda g: TotalUniform(2.5),
        lambda g: TotalUniform(2.0),
        lambda g: IndividualUniform.by_robot(g, [1.7, 1, 1]),
        lambda g: IndividualUniform(blocks=((0, 1, 2),), limits=(0.5,)),
        lambda g: IndividualUniform(blocks=((0, 1, 2),), limits=(-1,)),
    ], ids=["tu-fraction", "tu-float", "by-robot-fraction", "iu-fraction", "iu-negative"])
    def test_budgets_must_be_integers(self, demo_graph, make):
        with pytest.raises(ValueError, match=r"must be non-negative and finite \(Integral\)"):
            make(demo_graph)

    def test_numpy_integer_budgets_are_accepted(self, demo_graph):
        cb = TotalUniform(np.int64(2))
        plan, _ = e_greedy(demo_graph, 3, cb, ModularObjective(demo_graph))
        assert demo_graph.check_plan(plan, 3, cb)
        iu = IndividualUniform.by_robot(demo_graph, np.array([1, 0, 2]))
        assert demo_graph.budget_satisfied([0, 6, 7], iu)
        assert not demo_graph.budget_satisfied([3], iu)

    def test_by_robot_needs_one_limit_per_robot(self, demo_graph):
        with pytest.raises(ValueError):
            IndividualUniform.by_robot(demo_graph, [1, 1])

    @pytest.mark.parametrize("cls", [TotalUniform, TotalNonuniform])
    @pytest.mark.parametrize("b", [-1, -0.5, math.nan, math.inf, -math.inf])
    def test_total_budget_rejects_negative_or_non_finite(self, cls, b):
        with pytest.raises(ValueError, match="non-negative and finite"):
            cls(b)

    def test_total_budgets_accept_zero(self, demo_graph):
        assert demo_graph.budget_satisfied([], TotalUniform(0))
        assert demo_graph.budget_satisfied([], TotalNonuniform(0.0))


class TestCheckPlan:
    def test_empty_plan(self, demo_graph):
        assert demo_graph.check_plan(Plan(), 0, TotalUniform(0))

    def test_two_vertex_three_edge_plan(self, demo_graph):
        # broadcast both hubs, verify three of their edges
        plan = Plan(vertices=(1, 4), edges=(0, 1, 2))
        assert demo_graph.check_plan(plan, 3, TotalUniform(2))

    def test_uncovered_edge_fails(self, demo_graph):
        plan = Plan(vertices=(0,), edges=(7,))  # edge 7 = (5, 6)
        assert not demo_graph.check_plan(plan, 3, TotalUniform(2))

    def test_more_edges_than_k_fails(self, demo_graph):
        plan = Plan(vertices=(1, 4), edges=(0, 1, 2))
        assert not demo_graph.check_plan(plan, 2, TotalUniform(2))

    def test_monotone_false_when_dropping_vertices(self, demo_graph):
        plan = Plan(vertices=(1, 4), edges=(0, 1, 2))
        cb = TotalUniform(2)
        assert demo_graph.check_plan(plan, 3, cb)
        for keep in itertools.combinations(plan.vertices, 1):
            sub = Plan(vertices=keep, edges=plan.edges)
            assert not demo_graph.check_plan(sub, 3, cb) or demo_graph.is_cover(
                keep, plan.edges
            )

    def test_bad_ids_error(self, demo_graph):
        with pytest.raises(ValueError):
            demo_graph.check_plan(Plan(vertices=(42,)), 3, TotalUniform(2))


class TestMinVertexCover:
    def test_empty(self, demo_graph):
        assert min_vertex_cover_bruteforce(demo_graph, []) == set()

    def test_demo_cover_size_three(self, demo_graph):
        cover = min_vertex_cover_bruteforce(
            demo_graph, [e.id for e in demo_graph.edges]
        )
        assert len(cover) == 3

    def test_single_edge_tie_breaks_low(self):
        g = make_graph(2, [0, 1], [(0, 1)], [0.5])
        assert min_vertex_cover_bruteforce(g, [0]) == {0}

    def test_weighted_prefers_light_vertex(self):
        g = make_graph(2, [0, 1], [(0, 1)], [0.5], weights=[5.0, 1.0])
        assert min_vertex_cover_bruteforce(g, [0], weighted=True) == {1}

    def test_optimality_vs_exhaustive(self):
        rng = np.random.default_rng(5)
        for seed in range(12):
            g = generate_exchange_graph(
                GenSpec(num_robots=2, vertices_per_robot=4, edge_density=0.6, seed=seed)
            )
            eids = [e.id for e in g.edges]
            cover = min_vertex_cover_bruteforce(g, eids)
            assert g.is_cover(cover, eids)
            vids = [v.id for v in g.vertices]
            best = min(
                (
                    len(sub)
                    for s in range(len(vids) + 1)
                    for sub in itertools.combinations(vids, s)
                    if g.is_cover(sub, eids)
                ),
            )
            assert len(cover) == best

    def test_guard(self):
        n = 30
        robot_of = [0] * 15 + [1] * 15
        pairs = [(i, 15 + i) for i in range(15)] + [(i, 16 + i) for i in range(14)]
        g = make_graph(2, robot_of, pairs, [0.5] * len(pairs))
        with pytest.raises(InstanceTooLargeError, match="too large"):
            min_vertex_cover_bruteforce(g, [e.id for e in g.edges])
