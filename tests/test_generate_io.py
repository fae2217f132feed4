"""Generators (determinism, validity, sampling statistics) and file round-trips."""

import math

import numpy as np
import pytest

from loopselect import (
    GenSpec,
    ParseError,
    PoseGraph,
    TotalUniform,
    TreeConnObjective,
    generate_exchange_graph,
    generate_pose_graph,
    modular_value,
    sample_ground_truth,
)
from loopselect.io import (
    parse_exchange_graph,
    parse_ground_truth,
    parse_pose_graph,
    serialize_exchange_graph,
    serialize_ground_truth,
    serialize_pose_graph,
)


class TestExchangeGeneration:
    def test_requested_shape(self):
        g = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=3, num_edges=8, seed=1)
        )
        assert g.validate() == []
        assert g.num_vertices == 9 and g.num_edges == 8

    def test_same_seed_same_graph(self):
        spec = GenSpec(num_robots=4, vertices_per_robot=5, edge_density=0.3, seed=9)
        assert generate_exchange_graph(spec) == generate_exchange_graph(spec)

    def test_distinct_seeds_distinct_graphs(self):
        texts = {
            serialize_exchange_graph(
                generate_exchange_graph(
                    GenSpec(num_robots=3, vertices_per_robot=4, edge_density=0.4, seed=s)
                )
            )
            for s in range(100)
        }
        assert len(texts) == 100

    def test_degree_cap_applied(self):
        g = generate_exchange_graph(
            GenSpec(num_robots=4, vertices_per_robot=6, edge_density=0.8, seed=2,
                    max_degree=5)
        )
        assert g.max_degree() <= 5
        assert g.validate() == []

    def test_infeasible_density_rejected(self):
        with pytest.raises(ValueError, match="infeasible density"):
            generate_exchange_graph(
                GenSpec(num_robots=2, vertices_per_robot=2, num_edges=10, seed=0)
            )

    def test_fixed_probabilities(self):
        g = generate_exchange_graph(
            GenSpec(num_robots=2, vertices_per_robot=2, num_edges=2, seed=0,
                    probabilities=(0.25, 0.75))
        )
        assert sorted(e.p for e in g.edges) == [0.25, 0.75]


class TestGroundTruth:
    def test_certain_edges(self):
        spec = GenSpec(num_robots=2, vertices_per_robot=3, num_edges=5, seed=3,
                       probabilities=(1.0,) * 5)
        g = generate_exchange_graph(spec)
        gt = sample_ground_truth(g, seed=0)
        assert all(gt.realized)

    def test_impossible_edges(self):
        spec = GenSpec(num_robots=2, vertices_per_robot=3, num_edges=5, seed=3,
                       probabilities=(0.0,) * 5)
        g = generate_exchange_graph(spec)
        gt = sample_ground_truth(g, seed=0)
        assert not any(gt.realized)

    def test_unbiased_monte_carlo(self):
        g = generate_exchange_graph(
            GenSpec(num_robots=2, vertices_per_robot=4, num_edges=10, seed=7)
        )
        plan_edges = [0, 2, 4, 6, 8]
        expectation = modular_value(g, plan_edges)
        per_draw_var = sum(g.edge(e).p * (1 - g.edge(e).p) for e in plan_edges)
        n = 10_000
        counts = [
            sample_ground_truth(g, seed=s).true_count(plan_edges) for s in range(n)
        ]
        mean = sum(counts) / n
        sigma = math.sqrt(per_draw_var / n)
        assert abs(mean - expectation) <= 3 * sigma


class TestPoseGeneration:
    def test_two_chains_bridged(self):
        spec = GenSpec(num_robots=2, vertices_per_robot=5, num_edges=4, seed=0)
        g = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, g)
        assert pg.num_poses == 10
        assert pg.is_connected()
        assert pg.validate() == []

    def test_candidate_map_covers_every_edge(self):
        spec = GenSpec(num_robots=3, vertices_per_robot=3, edge_density=0.5, seed=4)
        g = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, g)
        assert set(pg.candidate_map) == {e.id for e in g.edges}

    def test_treeconn_monotone_over_nested_plans(self):
        spec = GenSpec(num_robots=2, vertices_per_robot=4, num_edges=8, seed=11)
        g = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, g)
        obj = TreeConnObjective(g, pg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            order = rng.permutation(g.num_edges).tolist()
            cut = int(rng.integers(0, g.num_edges))
            inner, outer = order[:cut], order[: cut + 1]
            assert obj.value(outer) >= obj.value(inner) - 1e-9


class TestRoundTrips:
    def test_exchange_graph_byte_exact(self):
        for seed in range(10):
            g = generate_exchange_graph(
                GenSpec(num_robots=5, vertices_per_robot=3, edge_density=0.2, seed=seed)
            )
            text = serialize_exchange_graph(g)
            again = parse_exchange_graph(text)
            assert again == g
            assert serialize_exchange_graph(again) == text

    def test_pose_graph_byte_exact(self):
        spec = GenSpec(num_robots=3, vertices_per_robot=4, edge_density=0.3, seed=5)
        g = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, g)
        text = serialize_pose_graph(pg)
        again = parse_pose_graph(text)
        assert again == pg
        assert serialize_pose_graph(again) == text

    def test_ground_truth_round_trip(self):
        g = generate_exchange_graph(
            GenSpec(num_robots=2, vertices_per_robot=4, num_edges=9, seed=6)
        )
        gt = sample_ground_truth(g, seed=1)
        text = serialize_ground_truth(gt)
        assert parse_ground_truth(text) == gt
        assert serialize_ground_truth(parse_ground_truth(text)) == text


class TestStrictParsing:
    def test_unknown_record_cites_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_exchange_graph("robots 2\nwat 1 2 3\n")

    def test_intra_robot_edge_rejected(self):
        text = (
            "robots 2\n"
            "vertex 0 0 1.0\n"
            "vertex 1 0 1.0\n"
            "edge 0 0 1 0.5\n"
        )
        with pytest.raises(ParseError, match="r-partite"):
            parse_exchange_graph(text)

    def test_bad_field_count(self):
        with pytest.raises(ParseError, match="fields"):
            parse_exchange_graph("robots 2\nvertex 0 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="robots"):
            parse_exchange_graph("vertex 0 0 1.0\n")

    def test_pose_graph_bad_info_coefficient(self):
        text = (
            "VERTEX_SE2 0 0.0 0.0 0.0\n"
            "VERTEX_SE2 1 1.0 0.0 0.0\n"
            "EDGE_SE2 0 1 1.0 0.0 0.0 -1.0 0.0 0.0 1.0 0.0 1.0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_pose_graph(text)

    POSES = (
        "VERTEX_SE2 0 0.0 0.0 0.0\n"
        "VERTEX_SE2 1 1.0 0.0 0.0\n"
        "VERTEX_SE2 2 2.0 0.0 0.0\n"
    )

    @pytest.mark.parametrize(
        "record,line",
        [
            ("VERTEX_SE2 3 inf 0.0 0.0", 4),
            ("EDGE_SE2 0 1 1.0 0.0 0.0 inf 0.0 0.0 1.0 0.0 1.0", 4),
            ("EDGE_SE2 0 1 nan 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0", 4),
            ("CANDIDATE 0 0 2 inf", 4),
            ("CANDIDATE 0 0 2 nan", 4),
            ("FIX 0\nFIX 1", 5),
        ],
    )
    def test_pose_graph_rejects_non_finite_and_repeated_fix(self, record, line):
        text = self.POSES + record + "\nEDGE_SE2 1 2 1.0 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0\n"
        with pytest.raises(ParseError, match=f"^line {line}:"):
            parse_pose_graph(text)

    def test_exchange_graph_rejects_non_finite(self):
        with pytest.raises(ParseError, match="^line 3: weight must be finite"):
            parse_exchange_graph("robots 2\nvertex 0 0 1.0\nvertex 1 1 inf\n")

    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0])
    def test_pose_graph_validate_requires_finite_positive_weights(self, w):
        base = PoseGraph(num_poses=2, base_edges=((0, 1, w),))
        cand = PoseGraph(num_poses=2, base_edges=((0, 1, 1.0),), candidate_map={0: (0, 1, w)})
        assert any("positive and finite" in msg for msg in base.validate())
        assert any("positive and finite" in msg for msg in cand.validate())

    def test_ground_truth_bad_flag(self):
        with pytest.raises(ParseError, match="0 or 1"):
            parse_ground_truth("edge_id,realized\n0,2\n")

    def test_comments_and_blanks_tolerated(self):
        text = "# a comment\n\nrobots 2\nvertex 0 0 1.0\nvertex 1 1 1.0\n"
        g = parse_exchange_graph(text)
        assert g.num_vertices == 2
