"""CLI contract: subcommands, exit codes, CSV artifacts, library equivalence."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from loopselect import (
    Edge,
    ExchangeGraph,
    alpha_apriori,
    IndividualUniform,
    ModularObjective,
    Plan,
    TotalNonuniform,
    TotalUniform,
    TreeConnObjective,
    m_greedy,
    s_greedy,
)
from loopselect import cli
from loopselect.cli import CERTIFY_HEADER, main
from loopselect.generate import demo_rendezvous_graph
from loopselect.io import load_exchange_graph, load_pose_graph, serialize_exchange_graph
from loopselect.objectives import PoseGraph

from conftest import make_graph, time_limit


GOLDEN_GENERATE = json.loads(
    (Path(__file__).parent / "golden_generate.json").read_text()
)["cases"]
OUTPUT_FLAG = {"exchange": "--output", "pose": "--pose-output", "truth": "--truth-output"}
INFEASIBLE = "plan file fails feasibility against this graph"


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "demo.exg"
    path.write_text(serialize_exchange_graph(demo_rendezvous_graph()))
    return path


@pytest.fixture
def wide_instance(tmp_path):
    """3 robots x 400 observations: more vertices than the default recursion limit."""
    path = tmp_path / "wide.exg"
    assert main([
        "generate", "--robots", "3", "--verts", "400", "--edges", "500",
        "--seed", "0", "--output", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def rendezvous_large(tmp_path_factory):
    """10 robots x 200 observations, 5000 candidates."""
    path = tmp_path_factory.mktemp("large") / "large.exg"
    assert main([
        "generate", "--robots", "10", "--verts", "200", "--edges", "5000",
        "--seed", "1", "--output", str(path),
    ]) == 0
    return path


@pytest.fixture
def costed_instance(tmp_path):
    """The demo graph with broadcast costs between 0.5 and 1.75."""
    graph = demo_rendezvous_graph()
    costs = [0.5, 1.25, 0.75, 1.0, 1.75, 0.5, 1.5, 0.75, 1.0]
    graph = ExchangeGraph(3, [v._replace(weight=w) for v, w in zip(graph.vertices, costs)],
                          graph.edges)
    path = tmp_path / "costed.exg"
    path.write_text(serialize_exchange_graph(graph))
    return path


def sweep_body(path):
    return [
        line.split(",") for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("b,")
    ]


class TestGenerate:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "g.exg"
        rc = main([
            "generate", "--robots", "5", "--verts", "4", "--density", "0.2",
            "--seed", "7", "--output", str(out),
        ])
        assert rc == 0
        graph = load_exchange_graph(out)
        assert graph.validate() == []

    def test_same_flags_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.exg", "b.exg"):
            out = tmp_path / name
            rc = main([
                "generate", "--robots", "3", "--verts", "3", "--edges", "6",
                "--seed", "3", "--output", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pose_and_truth_outputs(self, tmp_path):
        rc = main([
            "generate", "--robots", "2", "--verts", "4", "--edges", "5",
            "--seed", "1", "--output", str(tmp_path / "g.exg"),
            "--pose-output", str(tmp_path / "g.pose"),
            "--truth-output", str(tmp_path / "g.truth.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "g.pose").exists()
        assert (tmp_path / "g.truth.csv").read_text().startswith("edge_id,realized")

    @pytest.mark.parametrize(
        "case", GOLDEN_GENERATE, ids=lambda c: "_".join(c["args"]).replace("--", "")
    )
    def test_files_match_golden_hashes(self, case, tmp_path):
        argv = ["generate", *case["args"]]
        for name in case["sha256"]:
            argv += [OUTPUT_FLAG[name], str(tmp_path / name)]
        assert main(argv) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in case["sha256"]
        }
        assert got == case["sha256"]

    def test_missing_output_dir_fails(self, tmp_path):
        rc = main([
            "generate", "--robots", "2", "--verts", "2", "--edges", "1",
            "--output", str(tmp_path / "nope" / "g.exg"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags, message", [
        (["--robots", "1", "--edges", "1"], "need at least 2 robots"),
        (["--verts", "0", "--edges", "1"], "need at least 1 vertex per robot"),
        (["--density", "1.5"], "edge_density must be within [0, 1]"),
        (["--robots", "2", "--verts", "2", "--edges", "5"], "want 5 edges out of 4"),
        (["--edges", "3", "--cap-degree", "0"], "bad --cap-degree 0: must be at least 1"),
        (["--verts", "1_0"], "argument --verts: invalid int value: '1_0'"),
        (["--robots", "\u0663"], "argument --robots: invalid int value: '\u0663'"),
        (["--edges", "1_0"], "argument --edges: invalid int value: '1_0'"),
        (["--density", "0_5"], "argument --density: invalid float value: '0_5'"),
        (["--edges", "3", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
    ], ids=["robots", "verts", "density", "edges", "cap-degree", "verts-underscore",
            "robots-unicode", "edges-underscore", "density-underscore", "seed-underscore"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.exg"
        rc = main(["generate", *flags, "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["plan", "-b", "1", "-k", "1"],
    ["sweep", "-b", "1", "-k", "1"],
    ["certify", "--plan", "plan.json"],
])
@pytest.mark.parametrize("cap", ["0", "-2", "x", "1_0", "\u0664"])
def test_bad_cap_degree_is_usage_error_before_loading(tmp_path, capsys, argv, cap):
    # the input file does not exist: a data error would be exit 2; certify
    # reads the cap from its plan file, so any --cap-degree is unknown to it
    rc = main([*argv, "--input", str(tmp_path / "none.exg"), "--cap-degree", cap])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--cap-degree" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--edges", "1", "--output", "g.exg"],
    ["plan", "--planner", "random", "-b", "1", "-k", "1", "--input", "none.exg"],
    ["sweep", "--planners", "random", "-b", "1", "-k", "1", "--input", "none.exg"],
    ["sweep", "--planners", "sgreedy", "-b", "1", "-k", "1", "--input", "none.exg",
     "--output", "sweep.csv"],
], ids=["generate", "plan-random", "sweep-random", "sweep-sgreedy"])
def test_negative_seed_is_usage_error_before_loading(tmp_path, monkeypatch, capsys, argv):
    # the random planner crashed on numpy's "expected non-negative integer",
    # an sgreedy sweep wrote "# seed=-1", and generate's message did not name
    # the flag; the input file does not exist, so a data error would be exit 2
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "usage error: bad --seed '-1': must be non-negative\n"
    assert list(tmp_path.iterdir()) == []


class TestPlan:
    def test_demo_sgreedy_budgets(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rc = main([
            "plan", "--input", str(instance), "--planner", "sgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        assert rc == 0
        payload = json.loads(plan_path.read_text())
        assert len(payload["edges"]) <= 3
        assert len(payload["vertices"]) <= 2
        graph = demo_rendezvous_graph()
        from loopselect import Plan

        plan = Plan(
            vertices=tuple(payload["vertices"]),
            edges=tuple(payload["edges"]),
            achieved_value=payload["achieved_value"],
        )
        assert graph.check_plan(plan, 3, TotalUniform(2))

    @pytest.mark.parametrize("regime, planner, b", [
        ("tu", "sgreedy", "2"), ("tn", "mgreedy", "2.5"), ("iu", "mgreedy", "1/1/1"),
    ])
    def test_stdout_line(self, instance, capsys, regime, planner, b):
        # the alpha_apriori value is written as its CSV cell: empty outside tu
        rc = main(["plan", "--input", str(instance), "--planner", planner,
                   "--regime", regime, "-b", b, "-k", "3"])
        assert rc == 0
        line = capsys.readouterr().out
        fields = dict(f.split("=", 1) for f in line.split())
        assert set(fields) == {"planner", "value", "|V|", "|E|", "delta", "alpha_apriori"}
        want = repr(alpha_apriori(2, 3, int(fields["delta"]))) if regime == "tu" else ""
        assert line.endswith(f" alpha_apriori={want}\n")

    def test_zero_budget_empty_plan(self, instance, capsys):
        rc = main(["plan", "--input", str(instance), "-b", "0", "-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value=0.0" in out and "|E|=0" in out

    def test_matches_library_bit_for_bit(self, instance, capsys):
        rc = main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        graph = demo_rendezvous_graph()
        plan, _ = m_greedy(graph, 3, TotalUniform(2), ModularObjective(graph))
        assert f"value={plan.achieved_value!r}" in out

    def test_dcrit_objective_runs(self, tmp_path, capsys):
        main([
            "generate", "--robots", "2", "--verts", "3", "--edges", "4",
            "--seed", "2", "--output", str(tmp_path / "g.exg"),
            "--pose-output", str(tmp_path / "g.pose"),
        ])
        capsys.readouterr()
        rc = main([
            "plan", "--input", str(tmp_path / "g.exg"),
            "--pose-input", str(tmp_path / "g.pose"),
            "--objective", "dcrit", "--planner", "vgreedy", "-b", "2", "-k", "3",
        ])
        assert rc == 0
        assert "value=" in capsys.readouterr().out

    def test_cap_degree_keeps_pose_bindings(self, tmp_path, capsys):
        graph_path, pose_path = tmp_path / "g.exg", tmp_path / "g.pose"
        main([
            "generate", "--robots", "3", "--verts", "10", "--edges", "40",
            "--seed", "4", "--output", str(graph_path), "--pose-output", str(pose_path),
        ])
        plan_path = tmp_path / "plan.json"
        rc = main([
            "plan", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--objective", "treeconn", "--planner", "sgreedy", "-b", "3", "-k", "6",
            "--cap-degree", "2", "--output", str(plan_path),
        ])
        assert rc == 0
        payload = json.loads(plan_path.read_text())
        # the capped edge ids renumber the original ones; map them back by
        # endpoint pair and score the plan on the uncapped instance
        graph = load_exchange_graph(graph_path)
        capped = graph.cap_degree(2)
        original = {(e.u, e.v): e.id for e in graph.edges}
        edges = [original[capped.edge(eid).u, capped.edge(eid).v] for eid in payload["edges"]]
        want = TreeConnObjective(graph, load_pose_graph(pose_path)).value(edges)
        assert payload["achieved_value"] == pytest.approx(want, rel=1e-9)
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--plan", str(plan_path), "--level", "brute",
        ])
        assert rc == 0

    @pytest.mark.parametrize("planner", ["sgreedy", "egreedy", "vgreedy"])
    def test_treeconn_plan_factorizes_nothing(self, treeconn_files, monkeypatch, capsys,
                                              planner):
        # the base inverse comes from the spanning tree and the achieved value
        # from the run's oracle, so a treeconn plan never reaches dense algebra
        from loopselect import objectives

        graph, pose, _ = treeconn_files
        calls = []
        for name in ("logdet_pd", "cholesky_pd"):
            monkeypatch.setattr(objectives, name, lambda M, name=name: calls.append(name))
        assert main(["plan", "--input", str(graph), "--pose-input", str(pose),
                     "--objective", "treeconn", "--planner", planner,
                     "-b", "3", "-k", "6"]) == 0
        assert calls == []
        assert capsys.readouterr().out.startswith(f"planner={planner} value=")

    @pytest.mark.parametrize("regime, b", [("tu", "20"), ("tn", "20"), ("iu", "/".join(["2"] * 10))])
    def test_modular_plan_builds_no_edge_record(self, rendezvous_large, monkeypatch, capsys,
                                                regime, b):
        # the graph is stored as columns, and a modular plan reads nothing else
        built = []
        for name, module in list(sys.modules.items()):
            if name.startswith("loopselect") and getattr(module, "Edge", None) is Edge:
                monkeypatch.setattr(module, "Edge", lambda *a, **kw: built.append(a) or Edge(*a, **kw))
        assert main(["plan", "--input", str(rendezvous_large), "--planner", "mgreedy",
                     "--regime", regime, "-b", b, "-k", "40"]) == 0
        assert capsys.readouterr().out.startswith("planner=mgreedy value=")
        assert built == []

    def test_candidate_for_unknown_edge_is_data_error(self, tmp_path, capsys):
        graph_path, pose_path = tmp_path / "g.exg", tmp_path / "g.pose"
        rc = main([
            "generate", "--robots", "2", "--verts", "3", "--edges", "4", "--seed", "0",
            "--output", str(graph_path), "--pose-output", str(pose_path),
        ])
        assert rc == 0
        with pose_path.open("a") as fh:
            fh.write("CANDIDATE 99 0 4 1.0\n")
        line = len(pose_path.read_text().splitlines())
        capsys.readouterr()
        rc = main([
            "plan", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--objective", "treeconn", "-b", "1", "-k", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and "edge 99" in err

    @pytest.mark.parametrize("flag", ["--input", "--pose-input"])
    def test_data_error_names_its_file(self, instance, tmp_path, capsys, flag):
        # an exchange file where a pose file belongs, or a pose file where an
        # exchange file belongs: the message names the input at fault
        pose_path = tmp_path / "g.pose"
        main(["generate", "--edges", "3", "--output", str(tmp_path / "g.exg"),
              "--pose-output", str(pose_path)])
        bad = {"--input": pose_path, "--pose-input": instance}[flag]
        inputs = {"--input": instance, "--pose-input": pose_path, flag: bad}
        capsys.readouterr()
        rc = main(["plan", *(str(x) for kv in inputs.items() for x in kv), "-b", "1", "-k", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and err.endswith(f" (in {bad})\n")

    def test_regime_mismatch_is_usage_error(self, instance, capsys):
        rc = main([
            "plan", "--input", str(instance), "--planner", "egreedy",
            "--regime", "tn", "-b", "2.5", "-k", "3",
        ])
        assert rc == 1

    @pytest.mark.parametrize("regime, planner, b, message", [
        ("tu", "sgreedy", "2.5", "bad tu budget '2.5': not an integer"),
        ("tu", "sgreedy", "-1", "bad tu budget '-1': budget must be non-negative"),
        ("tn", "mgreedy", "nan", "bad tn budget 'nan'"),
        ("tn", "mgreedy", "inf", "bad tn budget 'inf'"),
        ("tn", "mgreedy", "-0.5", "bad tn budget '-0.5'"),
        ("iu", "mgreedy", "1/0.5/1", "bad iu limit '0.5': not an integer"),
        ("iu", "mgreedy", "1/-1/1", "bad iu budget '1/-1/1'"),
        ("iu", "mgreedy", "1/1", "bad iu budget '1/1': expected 3 limits"),
        ("tu", "sgreedy", "1_0", "bad tu budget '1_0': not a number: '1_0'"),
        ("tn", "mgreedy", "2.5_0", "bad tn budget '2.5_0': not a number: '2.5_0'"),
        ("iu", "mgreedy", "1/\u0661/1", "bad iu budget '1/\u0661/1': not a number: '\u0661'"),
    ], ids=["tu-fraction", "tu-negative", "tn-nan", "tn-inf", "tn-negative",
            "iu-fraction", "iu-negative", "iu-count", "tu-underscore", "tn-underscore",
            "iu-unicode"])
    def test_bad_budget_is_usage_error(self, instance, tmp_path, capsys, regime, planner, b,
                                       message):
        plan_path = tmp_path / "plan.json"
        rc = main([
            "plan", "--input", str(instance), "--planner", planner, "--regime", regime,
            "-b", b, "-k", "3", "--output", str(plan_path),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not plan_path.exists()

    def test_negative_k_is_usage_error(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rc = main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "-1", "--output", str(plan_path),
        ])
        assert rc == 1
        assert "usage error: bad k -1: must be non-negative" in capsys.readouterr().err
        assert not plan_path.exists()

    def test_fractional_k_is_usage_error(self, instance, capsys):
        rc = main(["plan", "--input", str(instance), "-b", "2", "-k", "4.5"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("regime, b, cb", [
        ("tu", "2.0", TotalUniform(2)),
        ("tn", "2.5", TotalNonuniform(2.5)),
        ("tn", "0", TotalNonuniform(0.0)),
    ], ids=["tu-2.0", "tn-2.5", "tn-0"])
    def test_valid_budget_plan_is_feasible(self, instance, tmp_path, regime, b, cb):
        plan_path = tmp_path / "plan.json"
        rc = main([
            "plan", "--input", str(instance), "--planner", "mgreedy", "--regime", regime,
            "-b", b, "-k", "3", "--output", str(plan_path),
        ])
        assert rc == 0
        payload = json.loads(plan_path.read_text())
        plan = Plan(tuple(payload["vertices"]), tuple(payload["edges"]), payload["achieved_value"])
        assert demo_rendezvous_graph().check_plan(plan, 3, cb)

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["plan", "--input", str(tmp_path / "absent.exg"), "-b", "2", "-k", "3"])
        assert rc == 2


class TestSweep:
    def test_alpha_only_extremes(self, tmp_path):
        out = tmp_path / "alpha.csv"
        rc = main([
            "sweep", "--alpha-only", "--delta", "41",
            "-b", "20:10:100", "-k", "20:10:100", "--output", str(out),
        ])
        assert rc == 0
        rows = sweep_body(out)
        values = [float(r[2]) for r in rows]
        assert min(values) == pytest.approx(0.18, abs=0.01)
        assert max(values) == pytest.approx(1 - math.exp(-1), abs=0.01)

    def test_alpha_tilde_constant_above_one(self, tmp_path):
        out = tmp_path / "tilde.csv"
        rc = main([
            "sweep", "--alpha-only", "--delta", "5", "-b", "10", "-k", "10",
            "--kappa-deltas", "5,41", "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        start = lines.index("kappa,delta,alpha_tilde") + 1
        for line in lines[start:]:
            kappa, _, val = line.split(",")
            if float(kappa) >= 1.0:
                assert float(val) == pytest.approx(1 - math.exp(-1), abs=1e-9)

    @pytest.mark.parametrize("flags", [
        ["--delta", "5", "-b", "10", "-k", "-1"],
        ["--delta", "5", "-b", "0", "-k", "4"],
        ["--delta", "-3", "-b", "10", "-k", "4"],
        ["--delta", "3", "-b", "1", "-k", "1:1e-12:2"],
        # 10**9 rows: refused by their count before any is computed
        ["--delta", "3", "-b", "1:1:1000", "-k", "1:1:1000", "--kappa-deltas", "1:1:1000"],
    ], ids=["k-negative", "b-zero", "delta-negative", "k-range-too-long", "grid-too-many-rows"])
    def test_alpha_only_bad_grid_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "alpha.csv"
        with time_limit(10):
            rc = main(["sweep", "--alpha-only", *flags, "--output", str(out)])
        assert rc == 1
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_only_needs_delta(self):
        rc = main(["sweep", "--alpha-only", "-b", "1:1:3", "-k", "1:1:3"])
        assert rc == 1

    def test_brute_certified_gaps_non_negative(self, instance, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy,sgreedy,random",
            "-b", "1:1:3", "-k", "2:2:6", "--certify", "brute",
            "--output", str(out),
        ])
        assert rc == 0
        body = sweep_body(out)
        assert len(body) == 3 * 3 * 3
        for row in body:
            gap = float(row[7])
            assert gap >= -1e-9
            assert float(row[5]) <= float(row[6])  # opt <= upt

    def test_lp_bound_holds_over_a_1e_10_edge(self, tmp_path):
        # the pivot loop stops before the 1e-10 edge enters, at 1.0; the dual
        # bound still counts it, so upt is the optimum, never below a plan
        path = tmp_path / "tiny.exg"
        path.write_text(serialize_exchange_graph(
            make_graph(2, [0, 1, 1], [(0, 1), (0, 2)], [1.0, 1e-10])))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(path), "--planners", "mgreedy,sgreedy",
            "-b", "3", "-k", "2", "--certify", "lp", "--output", str(out),
        ])
        assert rc == 0
        body = sweep_body(out)
        assert [row[2] for row in body] == ["mgreedy", "sgreedy"]
        for row in body:
            assert float(row[3]) == float(row[6]) == 1.0000000001  # achieved, upt
            assert float(row[7]) == 0.0 and float(row[11]) == 1.0  # gap_pct, ratio_lb

    def test_brute_guard_under_tn_downgrades(self, wide_instance, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(wide_instance), "--planners", "mgreedy", "--regime", "tn",
            "-b", "3", "-k", "5", "--certify", "brute", "--output", str(out),
        ])
        assert rc == 0
        assert "warning: brute guard exceeded at b=3 k=5" in capsys.readouterr().err
        row = out.read_text().splitlines()[-1].split(",")
        assert row[:3] == ["3", "5", "mgreedy"] and row[5] == ""

    def test_downgrade_warning_is_logged(self, wide_instance, tmp_path, capsys, caplog):
        rc = main([
            "sweep", "--input", str(wide_instance), "--planners", "mgreedy", "--regime", "tn",
            "-b", "3.0", "-k", "5", "--certify", "brute", "--output", str(tmp_path / "s.csv"),
        ])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: brute guard exceeded at b=3 k=5; downgrading certification\n")
        assert [(r.name, r.levelname) for r in caplog.records] == [("loopselect.cli", "WARNING")]

    def test_downgrade_on_a_logdet_objective_says_no_bound_ran(self, tmp_path, capsys):
        # the LP certifies only the modular objective, so past the brute guard
        # a treeconn cell is left without opt and upt
        graph, pose, out = tmp_path / "g.exg", tmp_path / "g.pose", tmp_path / "s.csv"
        assert main(["generate", "--robots", "5", "--verts", "40", "--edges", "300",
                     "--seed", "1", "--output", str(graph), "--pose-output", str(pose)]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "--input", str(graph), "--pose-input", str(pose), "--objective", "treeconn",
            "-b", "10", "-k", "10", "--certify", "brute", "--output", str(out),
        ]) == 0
        assert capsys.readouterr().err == (
            "warning: brute guard exceeded at b=10 k=10; no bound ran: "
            "the LP certifies only the modular objective\n")
        (row,) = sweep_body(out)
        assert row[:3] == ["10", "10", "sgreedy"] and row[5:7] == ["", ""]

    @pytest.mark.parametrize("certify", ["lp", "brute"])
    @pytest.mark.parametrize("regime, b", [("tn", "1.5,2.25,4"), ("iu", "1/1/0,1/1/1,2/1/2")])
    def test_every_regime_is_certified(self, costed_instance, tmp_path, regime, b, certify):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(costed_instance), "--planners", "mgreedy",
            "--regime", regime, "-b", b, "-k", "2,4", "--certify", certify,
            "--output", str(out),
        ])
        assert rc == 0
        body = sweep_body(out)
        assert len(body) == 6
        for row in body:
            achieved, upt = float(row[3]), float(row[6])
            assert achieved <= upt + 1e-9 and float(row[11]) == achieved / upt
            if certify == "brute":
                assert achieved <= float(row[5]) + 1e-9 and float(row[5]) <= upt
            else:
                assert row[5] == ""

    @pytest.mark.parametrize("certify", ["lp", "brute"])
    def test_lp_guard_is_three_and_never_a_brute_guard(self, instance, tmp_path, capsys,
                                                      monkeypatch, certify):
        from loopselect import certify as cert

        monkeypatch.setattr(cert, "LP_GUARD", 0)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy",
            "-b", "2", "-k", "3", "--certify", certify, "--output", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "dense LP" in err and "brute guard" not in err
        assert "hint: retry with --certify none or a smaller instance" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["-b", "2,2.0", "-k", "2"],
        ["-b", "2", "-k", "2,3,2.0"],
        ["-b", "2", "-k", "2", "--planners", "mgreedy,sgreedy,mgreedy"],
        ["--regime", "iu", "-b", "1/1/1,1/1/1", "-k", "2"],
        ["--regime", "iu", "-b", "1/1/1,1/1/1.0", "-k", "2"],
        ["--regime", "tn", "-b", "2,2.0", "-k", "2"],
    ], ids=["b", "k", "planner", "iu-limits", "iu-spelling", "tn"])
    def test_repeated_cell_is_usage_error(self, tmp_path, capsys, monkeypatch, flags):
        from loopselect import cli

        def ran(*args):
            raise AssertionError("a cell ran")

        for name in ("m_greedy", "s_greedy", "_load_inputs"):
            monkeypatch.setattr(cli, name, ran)
        monkeypatch.setattr(cli.cert, "lp_upper_bound_modular", ran)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--input", str(tmp_path / "absent.exg"), "--planners", "mgreedy",
                "--certify", "lp", *flags, "--output", str(out)]
        rc = main(argv)
        assert rc == 1
        assert "usage error: repeated " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["tu", "tn"])
    @pytest.mark.parametrize("flags, grid", [
        (["-b", "2,2.0", "-k", "3"], "b in 2,2.0"),
        (["-b", "2", "-k", "3,1e0,3.0"], "k in 3,1e0,3.0"),
    ], ids=["b", "k"])
    def test_repeated_value_quotes_the_tokens_given(self, tmp_path, capsys, regime, flags, grid):
        rc = main(["sweep", "--input", str(tmp_path / "absent.exg"), "--regime", regime, *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: repeated {grid}\n"

    @pytest.mark.parametrize("regime", ["tu", "tn"])
    def test_a_budget_cell_prints_its_number(self, instance, tmp_path, regime):
        # a grid list reaches the sweep as given; its rows print the numbers
        rows = {}
        for b in ("2.0,3", "2:1:3"):
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--input", str(instance), "--planners", "mgreedy",
                         "--regime", regime, "-b", b, "-k", "2.0,4", "--output", str(out)]) == 0
            rows[b] = [row[:3] for row in sweep_body(out)]
        assert rows["2.0,3"] == rows["2:1:3"] == [
            ["2", "2", "mgreedy"], ["2", "4", "mgreedy"], ["3", "2", "mgreedy"], ["3", "4", "mgreedy"]]

    def test_iu_grid_takes_limit_lists(self, instance, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy", "--regime", "iu",
            "-b", "1/1/1,2/0/1", "-k", "4", "--output", str(out),
        ])
        assert rc == 0
        body = sweep_body(out)
        graph = demo_rendezvous_graph()
        assert [row[0] for row in body] == ["1/1/1", "2/0/1"]
        for row, limits in zip(body, ([1, 1, 1], [2, 0, 1])):
            cb = IndividualUniform.by_robot(graph, limits)
            plan, _ = m_greedy(graph, 4, cb, ModularObjective(graph))
            assert graph.check_plan(plan, 4, cb)
            assert row[3] == repr(plan.achieved_value)

    @pytest.mark.parametrize("regime, b, k, message", [
        ("tu", "2.5", "4", "bad tu budget"),
        ("tu", "1:0.5:2", "4", "bad tu budget"),
        ("tu", "2", "4.5", "bad k"),
        ("tu", "2", "2,4.5", "bad k"),
        ("tn", "2.5,nan", "4", "bad tn budget"),
        ("tn", "-1", "4", "bad tn budget"),
        ("iu", "1/1/1,1/1", "4", "bad iu budget"),
        ("iu", "1/1/1,1/x/1", "4", "bad iu budget"),
        ("tu", "\u0662", "4", "bad grid spec"),
        ("tu", "2", "1:1_0:3", "bad grid spec"),
        ("iu", "1/1/1,1/1_0/1", "4", "bad iu budget"),
    ], ids=["tu-fraction", "tu-fractional-range", "k-fraction", "k-fraction-in-list",
            "tn-nan", "tn-negative", "iu-count", "iu-not-a-number", "b-unicode",
            "k-underscore-step", "iu-underscore"])
    def test_bad_grid_is_usage_error(self, instance, tmp_path, capsys, regime, b, k, message):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy", "--regime", regime,
            "-b", b, "-k", k, "--output", str(out),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["-1", "3,-1"])
    def test_negative_k_is_usage_error(self, instance, tmp_path, capsys, k):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy,sgreedy",
            "-b", "2", "-k", k, "--output", str(out),
        ])
        assert rc == 1
        assert "usage error: bad k" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_spec_library_entry(self):
        from loopselect import SweepSpec, sweep_cells

        graph = demo_rendezvous_graph()
        spec = SweepSpec(bs=(1, 2), ks=(2, 4), planners=("mgreedy",), certify="brute")
        cells = sweep_cells(graph, ModularObjective(graph), spec)
        assert len(cells) == 4
        for cell in cells:
            assert cell.achieved <= cell.opt + 1e-9

    @pytest.mark.parametrize("regime, planners, bs, certify", [
        ("tu", "mgreedy,egreedy,vgreedy,sgreedy,random", "1,3", "lp"),
        ("tn", "mgreedy", "1.5,2.25", "lp"),
        ("iu", "mgreedy", "1/1/0,2/1/2", "lp"),
        ("tu", "mgreedy,sgreedy", "3", "brute"),  # past the brute guard: lp
    ], ids=["tu", "tn", "iu", "brute-to-lp"])
    def test_cells_render_as_the_csv_rows(self, request, tmp_path, caplog, regime, planners, bs,
                                          certify):
        path = request.getfixturevalue(
            "wide_instance" if certify == "brute" else "costed_instance")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", str(path), "--regime", regime, "--planners", planners,
                     "-b", bs, "-k", "2,4", "--certify", certify, "--seed", "3",
                     "--output", str(out)]) == 0
        graph = load_exchange_graph(path)
        spec = cli.SweepSpec(bs=tuple(bs.split(",")), ks=(2, 4), regime=regime,
                             planners=tuple(planners.split(",")), certify=certify, seed=3)
        cells = cli.sweep_cells(graph, ModularObjective(graph), spec)
        assert [cli._cells(*cell) for cell in cells] == out.read_text().splitlines()[4:]
        assert all(cell.opt is None and cell.upt is not None for cell in cells)
        assert ("brute guard exceeded" in caplog.text) == (certify == "brute")

    @pytest.mark.parametrize("grid, message", [
        ({"planners": ("mgreedy", "wat")}, "unknown planner 'wat'"),
        ({"bs": ("x",)}, "bad tu budget 'x': could not convert string to float: 'x'"),
        ({"bs": ("2.5",)}, "bad tu budget '2.5': not an integer"),
        ({"ks": (-1,)}, "bad k -1: must be non-negative"),
    ], ids=["planner", "budget", "fraction", "k"])
    def test_library_errors_are_value_errors(self, grid, message):
        graph = demo_rendezvous_graph()
        spec = cli.SweepSpec(**{"bs": (2,), "ks": (3,), "planners": ("mgreedy",), **grid})
        with pytest.raises(ValueError) as err:
            cli.sweep_cells(graph, ModularObjective(graph), spec)
        assert str(err.value) == message

    @pytest.mark.parametrize("objective", ["dcrit", "treeconn"])
    def test_lp_on_a_log_det_objective_warns_once(self, tmp_path, capsys, objective):
        exg, pose, out = tmp_path / "g.exg", tmp_path / "g.pose", tmp_path / "sweep.csv"
        assert main(["generate", "--robots", "3", "--verts", "5", "--edges", "20", "--seed", "1",
                     "--output", str(exg), "--pose-output", str(pose)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--input", str(exg), "--pose-input", str(pose), "--objective",
                     objective, "-b", "2,3", "-k", "3,4", "--certify", "lp",
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: LP certification needs the modular objective; skipped\n")
        assert [row[6] for row in sweep_body(out)] == [""] * 4

    def test_empty_grid_rejected(self):
        from loopselect import SweepSpec

        with pytest.raises(ValueError, match="empty budget grid"):
            SweepSpec(bs=(), ks=(1,))

    def test_empty_planner_list_rejected(self):
        from loopselect import SweepSpec

        with pytest.raises(ValueError, match="empty planner list"):
            SweepSpec(bs=(1,), ks=(1,), planners=())

    @pytest.mark.parametrize("planners, message", [
        ("", "empty planner list"),
        (",", "empty planner list"),
        ("mgreedy,wat", "unknown planner 'wat'"),
    ])
    def test_bad_planner_list_is_usage_error(self, instance, tmp_path, capsys, planners,
                                             message):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--input", str(instance), "--planners", planners,
            "-b", "2", "-k", "4", "--output", str(out),
        ])
        assert rc == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_planner_fails_before_any_bound(self, instance, tmp_path, monkeypatch):
        from loopselect import cli

        def brute(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli.cert, "brute_force_opt", brute)
        monkeypatch.setattr(cli.cert, "lp_upper_bound_modular", brute)
        rc = main([
            "sweep", "--input", str(instance), "--planners", "mgreedy,wat",
            "--certify", "brute", "-b", "2", "-k", "4",
        ])
        assert rc == 1

    @pytest.mark.parametrize("objective, regime, planners, bs, certify", [
        ("modular", "tu", "mgreedy,egreedy,vgreedy,sgreedy,random", "3,0,12,1", "lp"),
        ("treeconn", "tu", "egreedy,sgreedy,vgreedy", "3,0,12,1", "none"),
        ("modular", "tn", "mgreedy", "2.5,0,4", "lp"),
        ("modular", "iu", "mgreedy", "1/1/1,0/2/1,2/2/2", "lp"),
    ])
    def test_grid_equals_its_one_cell_sweeps(self, tmp_path, objective, regime, planners, bs,
                                              certify):
        # tu cells share greedy runs across the grid; tn and iu cells run alone
        exg, pose = tmp_path / "g.exg", tmp_path / "g.pose"
        assert main([
            "generate", "--robots", "3", "--verts", "4", "--edges", "14", "--seed", "3",
            "--output", str(exg), "--pose-output", str(pose),
        ]) == 0
        ks = "6,0,2,30"

        def sweep(b, k):
            out = tmp_path / "sweep.csv"
            assert main([
                "sweep", "--input", str(exg), "--pose-input", str(pose),
                "--objective", objective, "--regime", regime, "--planners", planners,
                "-b", b, "-k", k, "--certify", certify, "--seed", "5", "--output", str(out),
            ]) == 0
            return out.read_text().splitlines()

        grid = sweep(bs, ks)
        cells = [sweep(b, k) for b in bs.split(",") for k in ks.split(",")]
        assert all(cell[:4] == grid[:4] for cell in cells)  # metadata and header
        assert grid[4:] == [row for cell in cells for row in cell[4:]]
        assert len(grid[4:]) == len(cells) * len(planners.split(","))

    def test_deterministic_output(self, instance, tmp_path):
        texts = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            rc = main([
                "sweep", "--input", str(instance), "--planners", "sgreedy",
                "-b", "2", "-k", "3", "--certify", "lp", "--output", str(out),
            ])
            assert rc == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--planner", "mgreedy", "-b", "4", "-k", "8"],
        ["plan", "--planner", "mgreedy", "--regime", "tn", "-b", "4.5", "-k", "8"],
        ["plan", "--planner", "sgreedy", "-b", "3", "-k", "10"],
        ["sweep", "--planners", "mgreedy,egreedy,vgreedy,sgreedy", "-b", "2,4", "-k", "4,8",
         "--certify", "lp"],
    ],
    ids=["plan-tu", "plan-tn", "plan-sgreedy", "sweep"],
)
def test_lazy_flag_is_a_no_op(tmp_path, capsys, argv):
    instance = tmp_path / "g.exg"
    assert main([
        "generate", "--robots", "3", "--verts", "6", "--edges", "30", "--seed", "4",
        "--output", str(instance),
    ]) == 0
    capsys.readouterr()
    outputs = []
    out = tmp_path / "out"
    for extra in ([], ["--lazy"]):
        assert main([*argv, "--input", str(instance), *extra, "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_lazy_flag_help_says_it_is_the_only_mode(capsys):
    for command in ("plan", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        # argparse wraps help to the terminal width
        help_text = " ".join(capsys.readouterr().out.split())
        assert "lazy greedy evaluation is the only mode" in help_text


class TestCertify:
    def test_mgreedy_ratio_within_guarantee(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(instance), "--plan", str(plan_path),
            "--level", "brute",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        row = out[1].split(",")
        achieved, opt, upt = float(row[4]), float(row[5]), float(row[6])
        assert achieved <= opt + 1e-9 and opt <= upt
        ratio = achieved / upt
        assert 1 - math.exp(-1) - 1e-9 <= ratio <= 1 + 1e-9

    def test_treeconn_plan_ratio_meets_guarantee(self, tmp_path, capsys):
        graph_path = tmp_path / "g.exg"
        pose_path = tmp_path / "g.pose"
        main([
            "generate", "--robots", "2", "--verts", "4", "--edges", "8",
            "--seed", "9", "--output", str(graph_path),
            "--pose-output", str(pose_path),
        ])
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--objective", "treeconn", "--planner", "sgreedy",
            "-b", "3", "-k", "4", "--output", str(plan_path),
        ])
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--plan", str(plan_path), "--level", "brute",
        ])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        achieved, opt, alpha = float(row[4]), float(row[5]), float(row[7])
        assert row[6] == ""  # no LP bound for submodular objectives
        assert achieved >= alpha * opt - 1e-9
        rc = main([
            "certify", "--input", str(graph_path), "--pose-input", str(pose_path),
            "--plan", str(plan_path), "--level", "lp",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == "warning: LP certification needs the modular objective; skipped\n"
        assert captured.out.splitlines()[1].split(",")[6] == ""

    @pytest.mark.parametrize("regime, b", [("tn", "2.25"), ("iu", "1/1/1")])
    def test_lp_level_bounds_every_regime(self, costed_instance, tmp_path, capsys, regime, b):
        plan_path = tmp_path / "plan.json"
        assert main([
            "plan", "--input", str(costed_instance), "--planner", "mgreedy",
            "--regime", regime, "-b", b, "-k", "3", "--output", str(plan_path),
        ]) == 0
        capsys.readouterr()
        rc = main(["certify", "--input", str(costed_instance), "--plan", str(plan_path),
                   "--level", "lp"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "warning" not in captured.err
        row = captured.out.splitlines()[1].split(",")
        assert row[5] == "" and float(row[4]) <= float(row[6]) + 1e-9

    def test_tampered_plan_rejected(self, instance, tmp_path):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "sgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        payload["vertices"] = []  # drop the witness cover
        payload["edges"] = [0, 1, 2]
        plan_path.write_text(json.dumps(payload))
        rc = main([
            "certify", "--input", str(instance), "--plan", str(plan_path),
            "--level", "lp",
        ])
        assert rc == 2


    def test_bad_budget_in_plan_file_is_data_error(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy", "--regime", "tn",
            "-b", "2.5", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        payload["b"] = "nan"
        plan_path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        assert "plan file: bad tn budget" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad, message", [
        ("b", "nan", "plan file: bad tn budget 'nan'"),
        ("k", -1, "plan file: bad k -1"),
        ("k", "three", "plan file: could not convert"),
        ("k", True, "plan file: not a number: True"),
        ("k", "1_0", "plan file: not a number: '1_0'"),
        ("b", False, "plan file: bad tn budget False: not a number: False"),
        ("regime", "xx", "plan file: unknown regime 'xx'"),
        ("objective", "xx", "plan file: unknown objective 'xx'"),
        ("vertices", [0, "1"], "plan file: vertices must be a list of integer ids"),
        ("edges", 7, "plan file: edges must be a list of integer ids"),
        ("achieved_value", "high", "plan file: could not convert"),
        ("cap_degree", 0, "plan file: bad cap_degree 0: must be at least 1"),
        ("cap_degree", 1.5, "plan file: bad cap_degree 1.5: not an integer"),
        ("cap_degree", "x", "plan file: could not convert"),
        ("cap_degree", True, "plan file: not a number: True"),
    ], ids=["b", "k-negative", "k-text", "k-boolean", "k-underscore", "b-boolean", "regime",
            "objective", "vertices", "edges", "achieved", "cap-zero", "cap-fraction", "cap-text",
            "cap-boolean"])
    def test_bad_field_cites_its_line(self, instance, tmp_path, capsys, key, bad, message):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy", "--regime", "tn",
            "-b", "2.5", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        payload[key] = bad
        text = json.dumps(payload, indent=1)
        plan_path.write_text(text)
        # every key of an indented plan file starts its own line
        want = next(
            no for no, row in enumerate(text.splitlines(), 1) if row.startswith(f' "{key}":')
        )
        assert want > 1
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: line {want}: {message}" in err and err.endswith(f" (in {plan_path})\n")

    def test_plan_file_carries_its_degree_cap(self, tmp_path, capsys):
        graph_path, plan_path = tmp_path / "g.exg", tmp_path / "plan.json"
        main([
            "generate", "--robots", "3", "--verts", "6", "--edges", "30", "--seed", "4",
            "--output", str(graph_path),
        ])
        rc = main([
            "plan", "--input", str(graph_path), "--planner", "mgreedy", "-b", "3", "-k", "4",
            "--cap-degree", "1", "--output", str(plan_path),
        ])
        assert rc == 0
        payload = json.loads(plan_path.read_text())
        assert list(payload)[-1] == "cap_degree" and payload["cap_degree"] == 1
        capsys.readouterr()
        certify = ["certify", "--input", str(graph_path), "--plan", str(plan_path)]
        assert main(certify) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == "1"  # delta of the capped instance
        assert float(row[4]) == pytest.approx(payload["achieved_value"], rel=1e-9)
        assert main([*certify, "--cap-degree", "1"]) == 1
        assert "unrecognized arguments: --cap-degree 1" in capsys.readouterr().err

    def test_plan_file_without_a_cap_is_uncapped(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        assert payload["cap_degree"] is None
        certify = ["certify", "--input", str(instance), "--plan", str(plan_path)]
        capsys.readouterr()
        outputs = []
        for text in (plan_path.read_text(), json.dumps({**payload, "cap_degree": 1}),
                     json.dumps({k: v for k, v in payload.items() if k != "cap_degree"})):
            plan_path.write_text(text)
            outputs.append((main(certify), capsys.readouterr().out))
        assert outputs[0][0] == 0 and outputs[2] == outputs[0]
        assert outputs[1][0] == 2  # the demo graph capped at 1 has other edges

    def test_stale_value_cites_its_line(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        rows = plan_path.read_text().splitlines()
        want = next(no for no, row in enumerate(rows, 1) if row.startswith(' "achieved_value":'))
        payload = json.loads(plan_path.read_text())
        payload["achieved_value"] *= 2.0
        plan_path.write_text(json.dumps(payload, indent=1))
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        assert f"error: line {want}: plan file's achieved_value" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"format": "other"}, "not a loopselect plan file"),
        ({"vertices": []}, INFEASIBLE),
        ({"vertices": [0, 99]}, f"{INFEASIBLE}: unknown vertex id 99"),
        ({"edges": [0, 99]}, f"{INFEASIBLE}: unknown edge id 99"),
    ], ids=["format", "infeasible", "unknown-vertex", "unknown-edge"])
    def test_whole_file_faults_cite_line_one(self, instance, tmp_path, capsys, change, message):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        payload.update(change)
        plan_path.write_text(json.dumps(payload, indent=1))
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        assert f"error: line 1: {message}" in capsys.readouterr().err

    def test_json_syntax_error_cites_its_line(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{\n "format": "loopselect-plan",\n "k": ,\n}\n')
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: line 3: plan file: Expecting value (column 7) (in {plan_path})\n"

    def test_missing_field_cites_line_one(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        del payload["edges"]
        plan_path.write_text(json.dumps(payload, indent=1))
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        assert "error: line 1: plan file: no 'edges'" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_non_utf8_byte_cites_its_line(self, instance, tmp_path, capsys, newline):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        rows = plan_path.read_text().splitlines()
        want = next(no for no, row in enumerate(rows, 1) if row.startswith(' "objective":'))
        data = newline.join(rows).encode()
        plan_path.write_bytes(data.replace(b'"modular"', b'"modul\xffar"'))
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: line {want}: byte 0xff is not UTF-8 (invalid start byte)" in err

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_newline_reads_and_cites_lines(self, instance, tmp_path, capsys, newline):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        rows = plan_path.read_text().splitlines()
        plan_path.write_bytes(newline.join(rows).encode())
        assert main(["certify", "--input", str(instance), "--plan", str(plan_path)]) == 0
        want = next(no for no, row in enumerate(rows, 1) if row.startswith(' "k":'))
        rows[want - 1] = ' "k": -1,'
        plan_path.write_bytes(newline.join(rows).encode())
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        assert rc == 2
        assert f"error: line {want}: plan file: bad k -1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, rc_want", [(1.0 + 1e-6, 2), (1.0 + 1e-12, 0)])
    def test_stored_value_must_match(self, instance, tmp_path, capsys, scale, rc_want):
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ])
        payload = json.loads(plan_path.read_text())
        payload["achieved_value"] *= scale
        plan_path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(instance), "--plan", str(plan_path),
            "--level", "lp",
        ])
        assert rc == rc_want
        if rc_want == 2:
            assert "disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("make", ["vertex-less", "edgeless"])
def test_empty_graphs_run_through_plan_sweep_and_certify(tmp_path, capsys, make):
    path, plan = tmp_path / "g.exg", tmp_path / "plan.json"
    if make == "vertex-less":
        path.write_text("robots 2\n")
    else:
        assert main(["generate", "--edges", "0", "--output", str(path)]) == 0
    assert main(["plan", "--input", str(path), "--planner", "mgreedy", "-b", "1", "-k", "1",
                 "--output", str(plan)]) == 0
    assert "value=0.0 " in capsys.readouterr().out
    assert main(["sweep", "--input", str(path), "--planners", "mgreedy,sgreedy,random",
                 "-b", "0,1", "-k", "0,1", "--certify", "lp"]) == 0
    rows = capsys.readouterr().out.splitlines()[4:]
    assert len(rows) == 12 and all(row.split(",")[3] == "0.0" for row in rows)
    assert main(["certify", "--input", str(path), "--plan", str(plan), "--level", "lp"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",1,1,0,0.0,,0.0,,,,")


class TestExitCodes:
    def test_unknown_planner_is_usage(self, instance):
        rc = main(["plan", "--input", str(instance), "--planner", "wat", "-b", "1", "-k", "1"])
        assert rc == 1

    def test_guard_exceeded_is_three(self, tmp_path, capsys):
        out = tmp_path / "big.exg"
        main([
            "generate", "--robots", "2", "--verts", "30", "--density", "0.15",
            "--seed", "2", "--output", str(out),
        ])
        plan_path = tmp_path / "plan.json"
        main([
            "plan", "--input", str(out), "--planner", "mgreedy",
            "-b", "25", "-k", "10", "--output", str(plan_path),
        ])
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(out), "--plan", str(plan_path),
            "--level", "brute",
        ])
        assert rc == 3

    def test_brute_guard_under_tn_is_three(self, wide_instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main([
            "plan", "--input", str(wide_instance), "--planner", "mgreedy", "--regime", "tn",
            "-b", "3", "-k", "5", "--output", str(plan_path),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "certify", "--input", str(wide_instance), "--plan", str(plan_path),
            "--level", "brute",
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "guard exceeded" in err
        assert "hint: retry with --level lp or a smaller instance" in err
        assert "--certify" not in err

    def test_certify_lp_guard_hint_does_not_suggest_lp(self, instance, tmp_path, capsys,
                                                       monkeypatch):
        from loopselect import certify as cert

        plan_path = tmp_path / "plan.json"
        assert main([
            "plan", "--input", str(instance), "--planner", "mgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ]) == 0
        monkeypatch.setattr(cert, "LP_GUARD", 0)
        capsys.readouterr()
        rc = main(["certify", "--input", str(instance), "--plan", str(plan_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "dense LP" in err
        assert "hint: retry with a smaller instance" in err

    @pytest.mark.parametrize("argv, message", [
        (["plan", "--objective", "treeconn", "--planner", "mgreedy", "-b", "2", "-k", "3"],
         "usage error: mgreedy requires the modular objective"),
        (["plan", "--objective", "treeconn", "-b", "2", "-k", "3"],
         "usage error: objective 'treeconn' needs --pose-input"),
        (["sweep", "-b", "2", "-k", "3"], "usage error: sweep needs --input (or use --alpha-only)"),
        (["sweep", "--alpha-only", "--delta", "3", "-b", ",", "-k", "2"],
         "usage error: empty budget grid"),
    ], ids=["mgreedy-treeconn", "treeconn-without-pose", "sweep-without-input",
            "alpha-only-empty-grid"])
    def test_usage_errors_exit_one(self, treeconn_files, capsys, argv, message):
        graph, pose, _ = treeconn_files
        if argv[0] == "plan":
            argv = [*argv, "--input", str(graph)]
        if "mgreedy" in argv:
            argv = [*argv, "--pose-input", str(pose)]
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"


@pytest.fixture
def treeconn_files(tmp_path, capsys):
    """A 3x4/10 instance, its pose file, and the argv of a treeconn plan, sweep
    and certify (of a plan made on them) without their input flags."""
    graph, pose, plan = tmp_path / "g.exg", tmp_path / "g.pose", tmp_path / "plan.json"
    assert main(["generate", "--robots", "3", "--verts", "4", "--edges", "10", "--seed", "1",
                 "--output", str(graph), "--pose-output", str(pose)]) == 0
    assert main(["plan", "--input", str(graph), "--pose-input", str(pose),
                 "--objective", "treeconn", "-b", "2", "-k", "3", "--output", str(plan)]) == 0
    capsys.readouterr()
    return graph, pose, {
        "plan": ["plan", "--objective", "treeconn", "-b", "2", "-k", "3"],
        "sweep": ["sweep", "--objective", "treeconn", "-b", "2", "-k", "3"],
        "certify": ["certify", "--plan", str(plan)],
    }


@pytest.mark.parametrize("cap", [[], ["--cap-degree", "1"]], ids=["uncapped", "capped"])
def test_a_treeconn_plan_scans_its_pose_graph_once(treeconn_files, monkeypatch, cap):
    # the parser's check and the objective's read one list of violations; the
    # cap's renumbered copy takes the parsed graph's verdict
    graph, pose, runs = treeconn_files
    scans, scan = [], PoseGraph._scan

    def counted(pose_graph):
        scans.append(pose_graph.num_poses)
        return scan(pose_graph)

    monkeypatch.setattr(PoseGraph, "_scan", counted)
    assert main([*runs["plan"], *cap, "--input", str(graph), "--pose-input", str(pose)]) == 0
    assert len(scans) == 1


class TestObjectiveDataErrors:
    @pytest.mark.parametrize("command", ["plan", "sweep", "certify"])
    @pytest.mark.parametrize("drop, message", [
        ("CANDIDATE 3 ", "candidate_map lacks exchange edges [3]"),
        ("EDGE_SE2 ", "base pose graph must be connected"),
    ], ids=["candidate-missing", "base-disconnected"])
    def test_rejected_pose_graph_names_its_file(self, treeconn_files, tmp_path, capsys,
                                                command, drop, message):
        graph, pose, runs = treeconn_files
        bad = tmp_path / "bad.pose"
        lines = pose.read_text().splitlines(keepends=True)
        bad.write_text("".join(line for line in lines if not line.startswith(drop)))
        assert main([*runs[command], "--input", str(graph), "--pose-input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message} (in {bad})\n"

    @pytest.mark.parametrize("command", ["plan", "sweep", "certify"])
    def test_overflowing_weights_exit_two_citing_their_line(self, treeconn_files, tmp_path,
                                                            capsys, command):
        # every information entry 1e308: the second base edge, (1,2), takes pose
        # 1's summed weight past the float range, where the log-det matrix
        # overflowed (plan exited 0, sweep wrote an empty cell, certify blamed
        # the plan file)
        graph, pose, runs = treeconn_files
        bad = tmp_path / "big.pose"
        lines = [line.split() for line in pose.read_text().splitlines()]
        for parts in lines:
            if parts[0] == "EDGE_SE2":
                parts[6:12] = ["1e308"] * 6
        bad.write_text("".join(" ".join(parts) + "\n" for parts in lines))
        line_no = [n for n, parts in enumerate(lines, 1) if parts[0] == "EDGE_SE2"][1]
        assert lines[line_no - 1][:3] == ["EDGE_SE2", "1", "2"]
        assert main([*runs[command], "--input", str(graph), "--pose-input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {line_no}: invalid pose graph: base edge (1,2) weight overflows"
            f" pose 1's summed weight (in {bad})\n"
        )

    @staticmethod
    def tiny_weight_files(tmp_path):
        """``generate --robots 2 --verts 3 --edges 4 --seed 1`` with every base
        information entry 1e-308, a treeconn plan made on the generated pose
        file, and the runs of plan, sweep and certify."""
        graph, pose, plan = tmp_path / "g.exg", tmp_path / "g.pose", tmp_path / "plan.json"
        assert main(["generate", "--robots", "2", "--verts", "3", "--edges", "4", "--seed", "1",
                     "--output", str(graph), "--pose-output", str(pose)]) == 0
        assert main(["plan", "--input", str(graph), "--pose-input", str(pose), "--objective",
                     "treeconn", "-b", "2", "-k", "2", "--output", str(plan)]) == 0
        tiny = tmp_path / "tiny.pose"
        lines = [line.split() for line in pose.read_text().splitlines()]
        for parts in lines:
            if parts[0] == "EDGE_SE2":
                parts[6:12] = ["1e-308", "0.0", "0.0", "1e-308", "0.0", "1e-308"]
        tiny.write_text("".join(" ".join(parts) + "\n" for parts in lines))
        flags = ["--input", str(graph), "--pose-input", str(tiny)]
        return tiny, {
            "plan": ["plan", "--objective", "treeconn", "-b", "2", "-k", "2", *flags],
            "sweep": ["sweep", "--objective", "treeconn", "-b", "2", "-k", "2", *flags],
            "certify": ["certify", "--plan", str(plan), *flags],
            "dcrit": ["plan", "--objective", "dcrit", "-b", "2", "-k", "2", *flags],
        }

    @pytest.mark.parametrize("command", ["plan", "sweep", "certify"])
    def test_tiny_base_weights_exit_two_naming_the_pose(self, tmp_path, capsys, command):
        # 1/w past the float range along pose 2's tree path (1e308 at pose 1, inf
        # at pose 2) overflowed treeconn's base inverse: plan exited 0 with
        # value=inf and sweep wrote inf cells
        tiny, runs = self.tiny_weight_files(tmp_path)
        capsys.readouterr()
        assert main(runs[command]) == 2
        assert capsys.readouterr().err == (
            "error: invalid pose graph: pose 2's tree path sums 1/w past max/4"
            f" (in {tiny})\n"
        )

    def test_tiny_base_weights_keep_dcrit_finite(self, tmp_path, capsys):
        _, runs = self.tiny_weight_files(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(runs["dcrit"]) == 0
        value = float(re.search(r"value=(\S+)", capsys.readouterr().out).group(1))
        assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("command", ["plan", "sweep", "certify"])
    def test_capped_pose_error_cites_the_pose_files_ids(self, tmp_path, capsys, command):
        # --cap-degree 3 renumbers candidate 9 to 7; the error names the file's id
        graph, pose, plan = tmp_path / "g.exg", tmp_path / "g.pose", tmp_path / "plan.json"
        assert main(["generate", "--robots", "3", "--verts", "4", "--edges", "16", "--seed",
                     "1", "--output", str(graph), "--pose-output", str(pose)]) == 0
        capped = ["--input", str(graph), "--cap-degree", "3"]
        flags = ["--objective", "treeconn", "-b", "2", "-k", "3", *capped]
        assert main(["plan", *flags, "--pose-input", str(pose), "--output", str(plan)]) == 0
        bad = tmp_path / "c9.pose"
        lines = pose.read_text().splitlines(keepends=True)
        bad.write_text("".join(line for line in lines if not line.startswith("CANDIDATE 9 ")))
        capsys.readouterr()
        argv = {"plan": ["plan", *flags], "sweep": ["sweep", *flags],
                "certify": ["certify", "--input", str(graph), "--plan", str(plan)]}[command]
        assert main([*argv, "--pose-input", str(bad)]) == 2
        message = f"error: candidate_map lacks exchange edges [9] (in {bad})\n"
        assert capsys.readouterr().err == message
        if command != "certify":  # the modular objective reads no pose graph
            assert main([command, "-b", "2", "-k", "3", *capped, "--pose-input", str(bad)]) == 0

    @pytest.mark.parametrize("command, owner, name", [
        ("plan", cli, "s_greedy"), ("sweep", cli, "s_greedy"), ("certify", cli.cert, "bounds"),
    ])
    def test_planner_and_certifier_errors_name_no_file(self, treeconn_files, capsys,
                                                       monkeypatch, command, owner, name):
        graph, pose, runs = treeconn_files

        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(owner, name, fail)
        # a ValueError that is no DataError is a bug, not a data error: it leaves
        # main unchanged rather than exiting 2 as "error: boom"
        with pytest.raises(ValueError, match="^boom$") as raised:
            main([*runs[command], "--input", str(graph), "--pose-input", str(pose)])
        assert type(raised.value) is ValueError
        assert capsys.readouterr().err == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "loopselect", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
    assert proc.stderr == ""


def test_grammar_is_built_once_per_process():
    # count the top-level parsers built in a fresh interpreter
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import loopselect
from loopselect.cli import main
at_import = built.count("loopselect")
for _ in range(2):
    assert main(["sweep", "--alpha-only", "--delta", "2", "-b", "1", "-k", "1"]) == 0
print(at_import, built.count("loopselect"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1"


class TestReportCells:
    """Every CSV cell comes from one rule: numbers as repr(float), None as an empty cell."""

    @pytest.mark.parametrize("delta", [5, 41])
    def test_alpha_only_cells_are_the_scalar_factor(self, tmp_path, delta):
        # the README grid; (40, 70) is a cell where a numpy grid differs in the last bit
        out = tmp_path / "alpha.csv"
        assert main([
            "sweep", "--alpha-only", "--delta", str(delta),
            "-b", "20:10:100", "-k", "20:10:100", "--output", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [f"# delta={delta}", "b,k,alpha_apriori"]
        want = [f"{b},{k},{alpha_apriori(b, k, delta)!r}"
                for b in range(20, 101, 10) for k in range(20, 101, 10)]
        assert lines[2:] == want
        assert f"40,70,{alpha_apriori(40, 70, delta)!r}" in lines

    def test_sweep_alpha_cell_equals_the_alpha_only_cell(self, instance, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--input", str(instance), "--planners", "sgreedy",
            "-b", "1:1:3", "-k", "2,5", "--output", str(sweep),
        ]) == 0
        delta = int(sweep.read_text().splitlines()[2].removeprefix("# delta="))
        capsys.readouterr()
        assert main(["sweep", "--alpha-only", "--delta", str(delta), "-b", "1:1:3",
                     "-k", "2,5"]) == 0
        surface = {tuple(line.split(",")[:2]): line.split(",")[2]
                   for line in capsys.readouterr().out.splitlines()[2:]}
        body = sweep_body(sweep)
        assert len(body) == 6
        for row in body:
            assert row[8] == surface[row[0], row[1]]

    def test_certify_row(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main([
            "plan", "--input", str(instance), "--planner", "sgreedy",
            "-b", "2", "-k", "3", "--output", str(plan_path),
        ]) == 0
        capsys.readouterr()
        assert main(["certify", "--input", str(instance), "--plan", str(plan_path),
                     "--level", "lp"]) == 0
        captured = capsys.readouterr()
        header, row = captured.out.splitlines()
        assert header == CERTIFY_HEADER
        cells = row.split(",")
        assert len(cells) == 11
        assert cells[:4] == [str(instance), "2", "3", "4"]
        assert cells[5] == ""  # opt: brute force only
        assert cells[8:10] == ["", ""]  # a plan file carries no trace
        assert float(cells[6]) > 0
        assert cells[10] == repr(float(cells[4]) / float(cells[6]))
        assert captured.err == f"ratio_lb={cells[10]}\n"

    def test_ratio_lb_is_empty_when_upt_is_zero(self, instance, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--input", str(instance), "--planners", "mgreedy",
            "-b", "2", "-k", "0", "--certify", "lp", "--output", str(out),
        ]) == 0
        (row,) = sweep_body(out)
        assert row[6] == "0.0" and row[11] == ""
        assert cli._ratio_lb(0.0, 0.0) is None and cli._ratio_lb(1.0, None) is None

    def test_factor_cells_outside_tu_are_empty(self, costed_instance, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--input", str(costed_instance), "--planners", "mgreedy",
            "--regime", "tn", "-b", "2.25", "-k", "3", "--output", str(out),
        ]) == 0
        (row,) = sweep_body(out)
        assert row[8:11] == ["", "", ""]


class TestNumberSyntax:
    """The command line reads numbers as the file formats spell them."""

    @pytest.mark.parametrize("argv", [
        ["plan", "-b", "2", "-k", "1_0"],
        ["plan", "-b", "2", "-k", "3", "--seed", "\u0661"],
        ["sweep", "-b", "2", "-k", "3", "--seed", "1_0"],
        ["sweep", "--alpha-only", "--delta", "\u0665", "-b", "2", "-k", "3"],
        ["sweep", "--alpha-only", "--delta", "5", "-b", "2", "-k", "3", "--kappa-deltas", "4_1"],
    ], ids=["plan-k", "plan-seed", "sweep-seed", "alpha-delta", "kappa-deltas"])
    def test_bad_number_is_usage_error(self, instance, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(instance), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["plan", "-b", "2", "-k", "1" * 400], f"bad k {'1' * 400}: not finite"),
        (["plan", "-b", "2", "-k", "-" + "1" * 400], f"bad k -{'1' * 400}: not finite"),
        (["plan", "-b", "1" * 400, "-k", "3"], f"bad tu budget '{'1' * 400}': not finite"),
        (["sweep", "-b", "2", "-k", f"2,{'1' * 400}"], f"bad k '{'1' * 400}': not finite"),
        (["sweep", "-b", "2", "-k", "2,1e400"], "bad k '1e400': not finite"),
        (["sweep", "--alpha-only", "--delta", "5", "-b", "2", "-k", "inf"],
         "bad k 'inf': not finite"),
    ], ids=["plan-k", "plan-negative-k", "plan-b", "sweep-k", "sweep-k-exponent", "alpha-k"])
    def test_number_past_the_float_range_is_usage_error(self, instance, tmp_path, capsys,
                                                       argv, message):
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(instance), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_boolean_k_in_plan_file_cites_its_line(self, instance, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main(["plan", "--input", str(instance), "-b", "2", "-k", "1",
                     "--output", str(plan_path)]) == 0
        text = plan_path.read_text().replace('"k": 1', '"k": true')
        plan_path.write_text(text)
        line = next(n for n, row in enumerate(text.splitlines(), 1) if '"k"' in row)
        capsys.readouterr()
        assert main(["certify", "--input", str(instance), "--plan", str(plan_path)]) == 2
        assert f"error: line {line}: plan file: not a number: True" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, values", [
        ("0:0.1:0.6", [0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        ("1:1:6", [1, 2, 3, 4, 5, 6]),
        ("20:10:100", [20, 30, 40, 50, 60, 70, 80, 90, 100]),
        ("0.5:0.25:1.4", [0.5, 0.75, 1, 1.25]),
        ("1e1:5:2e1", [10, 15, 20]),
        ("+1,-0,2.5", [1, 0, 2.5]),
        (f"1:1:{cli.GRID_MAX}", list(range(1, cli.GRID_MAX + 1))),
    ])
    def test_grid_steps_exactly(self, spec, values):
        grid = cli._parse_grid(spec)
        assert grid == values
        assert [type(v) for v in grid] == [type(v) for v in values]

    @pytest.mark.parametrize("spec", ["0:0:1", "0:-1:1", "0:1:inf", "-inf:1:0", "nan:1:2",
                                      "0:nan:1", "1:x:2", "1:2", "1:1:2:3", "1,x",
                                      "1:1e-12:2", "1:1e-999999:2", f"1:1:{cli.GRID_MAX + 1}"])
    def test_bad_grid_is_rejected(self, spec):
        quoted = re.escape(f"bad grid spec {spec!r}")
        with time_limit(10), pytest.raises(cli._UsageError, match=quoted):
            cli._parse_grid(spec)

    def test_tn_sweep_lists_the_decimals_as_written(self, costed_instance, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--input", str(costed_instance), "--planners", "mgreedy",
            "--regime", "tn", "-b", "0:0.1:0.6", "-k", "2", "--output", str(out),
        ]) == 0
        assert [row[0] for row in sweep_body(out)] == [
            "0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]
