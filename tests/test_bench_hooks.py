"""The benchmark's tracing hooks (``bench/spans.py``) still find every entry point.

``spans.installed`` rebinds module attributes of ``loopselect`` by name, so a
renamed or deleted function breaks traced benchmark runs; this runs a small
traced ``generate -> plan -> sweep`` through the CLI to catch that here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

from loopselect import cli, planners  # noqa: E402


def test_traced_plan_and_sweep(tmp_path):
    exg, pose = tmp_path / "g.exg", tmp_path / "g.pose"
    originals = (cli.m_greedy, planners.g_modular, planners._witness_cover)
    tracer = spans.Tracer()
    tracer.new_round()
    with spans.installed(tracer):
        assert cli.main([
            "generate", "--robots", "3", "--verts", "8", "--edges", "30",
            "--seed", "1", "--output", str(exg), "--pose-output", str(pose),
        ]) == 0
        for regime, b in (("tu", "3"), ("tn", "3"), ("iu", "1/1/1")):
            assert cli.main([
                "plan", "--input", str(exg), "--planner", "mgreedy",
                "--regime", regime, "-b", b, "-k", "6", "--lazy",
            ]) == 0
        assert cli.main([
            "plan", "--input", str(exg), "--pose-input", str(pose),
            "--objective", "treeconn", "--planner", "sgreedy", "-b", "3", "-k", "6",
        ]) == 0
        # the plan's value comes from its oracle; the sweep's normalized column
        # is the dense value(), which reaches objectives.logdet_pd
        assert cli.main([
            "sweep", "--input", str(exg), "--pose-input", str(pose),
            "--objective", "treeconn", "--planners", "sgreedy", "-b", "3", "-k", "6",
            "--output", str(tmp_path / "treeconn.csv"),
        ]) == 0
        assert cli.main([
            "sweep", "--input", str(exg), "--planners", "mgreedy,sgreedy,random",
            "-b", "2,3", "-k", "4", "--certify", "lp",
            "--output", str(tmp_path / "sweep.csv"),
        ]) == 0
    assert (cli.m_greedy, planners.g_modular, planners._witness_cover) == originals

    metrics = spans.layer_metrics(tracer, tracer.spans, tracer.counters)
    for name in (
        "planners.gain_evals", "planners.selections", "objectives.g_modular_calls",
        "objectives.value_calls", "objectives.construct_s", "graph.edges_incident_calls",
        "planners.m_greedy_s", "planners.e_greedy_s", "planners.v_greedy_s",
        "planners.s_greedy_s", "planners.witness_cover_s", "certify.lp_calls",
        "simplex.calls", "linalg.logdet_calls", "io.parse_s", "io.serialize_s",
    ):
        assert metrics[name] > 0, name
    # one g_modular call per m_greedy run: tu, iu, the knapsack's plain variant
    # (on unit weights its cost-benefit variant is a copy), two sweep cells
    assert metrics["objectives.g_modular_calls"] == 5
    assert 0 < metrics["planners.useful_eval_ratio"] <= 1.0

    # a sweep alone: the plans above would mask one that bypassed cli's names
    tracer.new_round()
    with spans.installed(tracer):
        assert cli.main(["sweep", "--input", str(exg), "--planners", "sgreedy", "-b", "2,3",
                         "-k", "4", "--output", str(tmp_path / "alone.csv")]) == 0
    alone = spans.layer_metrics(tracer, tracer.spans, tracer.counters)
    for name in ("planners.gain_evals", "planners.s_greedy_s", "objectives.construct_s"):
        assert alone[name] > 0, name
