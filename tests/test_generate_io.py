"""Generators (determinism, validity, sampling statistics) and file round-trips."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopselect import (
    GenSpec,
    ModularObjective,
    ParseError,
    PoseGraph,
    TotalUniform,
    TreeConnObjective,
    generate_exchange_graph,
    generate_pose_graph,
    sample_ground_truth,
)
from loopselect import io as lio
from loopselect.generate import GroundTruth, decode_pairs, pair_count
from loopselect.io import (
    load_exchange_graph,
    load_pose_graph,
    parse_exchange_graph,
    parse_ground_truth,
    parse_pose_graph,
    serialize_exchange_graph,
    serialize_ground_truth,
    serialize_pose_graph,
)

from conftest import make_graph

GOLDEN_PARSE_ERRORS = json.loads(
    (Path(__file__).parent / "golden_parse_errors.json").read_text()
)["cases"]


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


class TestPairDecoding:
    @settings(max_examples=100, deadline=None)
    @given(r=st.integers(2, 8), nv=st.integers(1, 12))
    def test_matches_nested_loop_enumeration(self, r, nv):
        pairs = [
            (u, v)
            for u in range(r * nv)
            for v in range(u + 1, r * nv)
            if u // nv != v // nv
        ]
        assert pair_count(r, nv) == len(pairs)
        us, vs = decode_pairs(np.arange(len(pairs)), r, nv)
        assert list(zip(us.tolist(), vs.tolist())) == pairs

    def test_peak_memory_at_10x200(self):
        spec = GenSpec(num_robots=10, vertices_per_robot=200, num_edges=5000, seed=0)
        tracemalloc.start()
        try:
            generate_exchange_graph(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a generator that listed all 1.8M pairs peaked at about 169 MiB
        assert peak < 20 * 2**20


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
        expectation = ModularObjective(g).value(plan_edges)
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


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def exchange_graphs(draw):
    r = draw(st.integers(2, 4))
    robot_of = draw(st.lists(st.integers(0, r - 1), max_size=8))
    n = len(robot_of)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if robot_of[u] != robot_of[v]]
    pairs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    ps = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(positive, min_size=n, max_size=n))
    return make_graph(r, robot_of, pairs, ps, weights=weights)


@st.composite
def pose_graphs(draw):
    d = draw(st.integers(2, 6))
    pose = st.integers(0, d - 1)

    def pose_edge():
        i, j = draw(st.lists(pose, min_size=2, max_size=2, unique=True))
        return i, j, draw(positive)

    coord = st.floats(-1e6, 1e6)
    return PoseGraph(
        num_poses=d,
        base_edges=tuple(pose_edge() for _ in range(draw(st.integers(0, 6)))),
        candidate_map={eid: pose_edge() for eid in draw(st.sets(st.integers(0, 20), max_size=6))},
        anchor=draw(pose),
        poses=tuple(draw(st.tuples(coord, coord, coord)) for _ in range(d)),
    )


# format -> (instances, serialize, parse, token separator)
FORMATS = {
    "exchange": (exchange_graphs(), serialize_exchange_graph, parse_exchange_graph, " "),
    "pose": (pose_graphs(), serialize_pose_graph, parse_pose_graph, " "),
    "truth": (
        st.builds(GroundTruth, st.lists(st.booleans(), max_size=12).map(tuple)),
        serialize_ground_truth,
        parse_ground_truth,
        ",",
    ),
}


@st.composite
def respaced(draw, text):
    """``text`` with other whitespace between, before and after the fields of
    each line, CRLF or LF endings, and blank and ``#`` lines in between."""
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t", "  \t"])
    filler = st.lists(
        st.sampled_from(["", "   ", "\t", "#", "# note", "  # indented", "#robots 9"]),
        max_size=2,
    )
    lines = []
    for line in text.splitlines():
        lines += draw(filler)
        first, *rest = line.split(" ")
        lines.append(draw(pad) + first + "".join(draw(gap) + t for t in rest) + draw(pad))
    lines += draw(filler)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


class TestFormatFuzz:
    @settings(max_examples=150, deadline=None)
    @given(fmt=st.sampled_from(sorted(FORMATS)), data=st.data())
    def test_round_trip_is_byte_identical(self, fmt, data):
        instances, serialize, parse, _ = FORMATS[fmt]
        instance = data.draw(instances)
        text = serialize(instance)
        assert serialize(parse(text)) == text
        if fmt != "truth":  # the whitespace-separated formats
            assert parse(data.draw(respaced(text))) == instance

    @settings(max_examples=300, deadline=None)
    @given(fmt=st.sampled_from(sorted(FORMATS)), data=st.data())
    def test_one_bad_token_cites_its_line(self, fmt, data):
        instances, serialize, parse, sep = FORMATS[fmt]
        lines = serialize(data.draw(instances)).splitlines()
        at = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(sep)
        i = data.draw(st.integers(0, len(tokens) - 1))
        bad = data.draw(st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "NaN"]),
            st.text(alphabet="xyz!?", min_size=1, max_size=4),
            st.none(),  # drop the field
        ))
        if bad is None:
            del tokens[i]
        else:
            tokens[i] = bad
        lines[at] = sep.join(tokens)
        with pytest.raises(ParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.line_no == at + 1, str(err.value)


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

    @pytest.mark.parametrize(
        "record,line",
        [
            ("CANDIDATE 0 0 7 1.0", 4),
            ("FIX 5", 4),
            ("EDGE_SE2 2 2 1.0 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0", 4),
        ],
    )
    def test_pose_graph_invariant_cites_record_line(self, record, line):
        text = self.POSES + record + "\nEDGE_SE2 1 2 1.0 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0\n"
        with pytest.raises(ParseError, match=f"^line {line}: invalid pose graph"):
            parse_pose_graph(text)

    def test_pose_graph_candidate_must_name_a_known_edge(self):
        text = self.POSES + "CANDIDATE 0 0 2 1.0\nCANDIDATE 3 1 2 1.0\n"
        assert set(parse_pose_graph(text, edge_ids={0, 3}).candidate_map) == {0, 3}
        with pytest.raises(ParseError, match="^line 5: candidate for edge 3"):
            parse_pose_graph(text, edge_ids={0, 1})

    @pytest.mark.parametrize(
        "record,line,what",
        [
            ("vertex 2 5 1.0", 4, "robot 5 out of range"),
            ("edge 1 0 2 0.5", 5, "unknown endpoint"),
            ("edge 1 1 0 0.5", 5, "duplicate of pair"),
            ("edge 1 0 1 1.5", 5, "probability out of range"),
            ("vertex 0 1 1.0", 4, "vertex ids must be dense, 0-based, and unique"),
            ("vertex 3 0 1.0", 1, "vertex ids must be dense, 0-based, and unique"),
            ("edge 0 0 1 0.5", 5, "edge ids must be dense, 0-based, and unique"),
            ("edge 2 0 1 0.5", 1, "edge ids must be dense, 0-based, and unique"),
        ],
    )
    def test_exchange_graph_invariant_cites_record_line(self, record, line, what):
        text = "robots 2\nvertex 0 0 1.0\nvertex 1 1 1.0\n"
        if record.startswith("vertex"):
            text += record + "\nedge 0 0 1 0.5\n"
        else:
            text += "edge 0 0 1 0.5\n" + record + "\n"
        with pytest.raises(ParseError, match=f"^line {line}: invalid exchange graph: .*{what}"):
            parse_exchange_graph(text)

    @pytest.mark.parametrize(
        "case", GOLDEN_PARSE_ERRORS, ids=lambda c: f"{c['format']}-{c['name']}"
    )
    def test_error_text_matches_golden(self, case):
        if case["format"] == "exchange":
            parse, args = parse_exchange_graph, ()
        else:
            ids = case.get("edge_ids")
            parse, args = parse_pose_graph, (None if ids is None else set(ids),)
        try:
            parse(case["text"], *args)
        except ParseError as err:
            assert str(err) == case["error"]
        else:
            assert case["error"] is None

    @pytest.mark.parametrize(
        "load,data,message",
        [
            (
                load_exchange_graph,
                b"robots 2\nvertex 0 0 1.0\nvertex 1 1 \xff1.0\n",
                "line 3: byte 0xff is not UTF-8 (invalid start byte)",
            ),
            (
                load_pose_graph,
                b"VERTEX_SE2 0 0.0 0.0 0.0\r\nVERTEX_SE2 1 1.0 0.0 0.0\r\n# caf\xe9\r\n",
                "line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)",
            ),
        ],
        ids=["exchange", "pose"],
    )
    def test_non_utf8_byte_cites_its_line(self, load, data, message, tmp_path):
        path = tmp_path / "instance"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(err.value) == f"{message} (in {path})"

    POSE = (
        "VERTEX_SE2 0 0.0 0.0 0.0\nVERTEX_SE2 1 1.0 0.0 0.0\nFIX 0\n"
        "EDGE_SE2 0 1 1.0 0.0 0.0 1.0 0.0 0.0 1.0 0.0 1.0\nCANDIDATE 0 0 1 0.5\n"
    )

    @pytest.mark.parametrize("old, new, message", [
        ("VERTEX_SE2 1 1.0", "VERTEX_SE2 1 1_0.0", "line 2: pose coordinate must be a number, got '1_0.0'"),
        ("VERTEX_SE2 1 1.0", "VERTEX_SE2 \u0661 1.0", "line 2: pose id must be an integer, got '\u0661'"),
        ("FIX 0", "FIX 0_0", "line 3: anchor id must be an integer, got '0_0'"),
        ("0.0 1.0 0.0 1.0\n", "0.0 1.0 0.0 1_0\n", "line 4: EDGE_SE2 field must be a number, got '1_0'"),
        ("CANDIDATE 0 0 1 0.5", "CANDIDATE 0 0 1 0.\u0665", "line 5: candidate weight must be a number, got '0.\u0665'"),
    ], ids=["underscore", "unicode-id", "anchor", "edge-field", "unicode-weight"])
    def test_pose_graph_rejects_underscores_and_non_ascii_digits(self, old, new, message):
        assert old in self.POSE
        with pytest.raises(ParseError) as err:
            parse_pose_graph(self.POSE.replace(old, new))
        assert str(err.value) == message

    def test_non_ascii_and_underscores_in_comments_still_parse(self):
        pose = "# café_notes\n" + self.POSE
        assert parse_pose_graph(pose) == parse_pose_graph(self.POSE)
        exchange = "robots 2\nvertex 0 0 1.0\nvertex 1 1 +1.0\nedge 0 0 1 0.5\n"
        assert parse_exchange_graph("# café_notes\n" + exchange) == parse_exchange_graph(exchange)

    def test_comments_keep_records_on_the_inline_path(self, monkeypatch):
        # a comment that fails the whole-text screen sends no record to the
        # field-by-field path; only the header records (robots, FIX) take it
        graph = generate_exchange_graph(GenSpec(num_robots=3, vertices_per_robot=6,
                                                num_edges=20, seed=2))
        exchange = serialize_exchange_graph(graph)
        pose = serialize_pose_graph(generate_pose_graph(GenSpec(
            num_robots=3, vertices_per_robot=6, num_edges=20, seed=2), graph))
        want = parse_exchange_graph(exchange), parse_pose_graph(pose)

        def only_headers(convert):
            def spy(line_no, token, what):
                assert what in ("robot count", "anchor id"), f"line {line_no}: {what}"
                return convert(line_no, token, what)
            return spy

        monkeypatch.setattr(lio, "_to_int", only_headers(lio._to_int))
        monkeypatch.setattr(lio, "_to_float", only_headers(lio._to_float))
        for text, parse, parsed in zip((exchange, pose), (parse_exchange_graph, parse_pose_graph),
                                       want):
            lines = text.splitlines(keepends=True)
            commented = "".join([lines[0], "# note_\u00e9\n", *lines[1:4], "  # a_b\n", *lines[4:]])
            assert parse(commented) == parsed

    @pytest.mark.parametrize("row", ["1_0,1", "\u0661,1"])
    def test_ground_truth_rejects_underscores_and_non_ascii_digits(self, row):
        text = "edge_id,realized\n" + "\n".join(f"{i},0" for i in range(11)) + "\n" + row + "\n"
        with pytest.raises(ParseError) as err:
            parse_ground_truth(text)
        assert str(err.value) == f"line 13: edge id must be an integer, got {row.split(',')[0]!r}"

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
