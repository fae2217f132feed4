"""The package namespace: what it exports, and what a library process loads."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import loopselect
from loopselect.cli import main

SRC = Path(loopselect.__file__).resolve().parents[1]

# Every name ``from loopselect import *`` binds, by the submodule that owns it;
# each submodule is bound under its own name too.
EXPORTS = {
    "errors": ["DataError", "InstanceTooLargeError", "ParseError"],
    "graph": ["CommBudget", "Edge", "ExchangeGraph", "IndividualUniform", "Plan",
              "TotalNonuniform", "TotalUniform", "Vertex"],
    "objectives": ["DCritObjective", "ModularObjective", "PoseGraph", "TopKOracle",
                   "TreeConnObjective", "g_modular"],
    "planners": ["GreedySelector", "PlannerTrace", "TraceStep", "e_greedy", "m_greedy",
                 "random_baseline", "s_greedy", "v_greedy"],
    "certify": ["alpha_apriori", "alpha_posteriori", "alpha_tilde", "brute_force_opt",
                "ilp_opt_modular", "lp_upper_bound_modular"],
    "generate": ["GenSpec", "GroundTruth", "demo_rendezvous_graph", "generate_exchange_graph",
                 "generate_pose_graph", "sample_ground_truth"],
    "cli": ["SweepCell", "SweepSpec", "sweep_cells"],
    "io": [],
    "simplex": [],
}
NAMES = {name for module, names in EXPORTS.items() for name in (module, *names)}


def run_python(*args, timeout=60):
    """Run a fresh interpreter with this checkout's ``src`` first on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=timeout,
    )


class TestExports:
    def test_star_import_binds_the_pinned_names(self):
        namespace = {}
        exec("from loopselect import *", namespace)
        assert set(namespace) - {"__builtins__"} == NAMES
        assert sorted(loopselect.__all__) == sorted(NAMES)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_submodule_attribute(self, module):
        owner = importlib.import_module(f"loopselect.{module}")
        assert getattr(loopselect, module) is owner
        for name in EXPORTS[module]:
            assert getattr(loopselect, name) is getattr(owner, name), name

    def test_ground_truth_is_one_class(self):
        assert loopselect.GroundTruth is loopselect.generate.GroundTruth
        assert loopselect.GroundTruth is loopselect.graph.GroundTruth

    def test_dir_lists_every_name(self):
        assert NAMES <= set(dir(loopselect))
        assert "__version__" in dir(loopselect)

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            loopselect.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from loopselect import no_such_name", {})


class TestEntryPoints:
    def test_module_help_exits_0(self):
        proc = run_python("-m", "loopselect", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: loopselect")

    def test_console_script_help_exits_0(self):
        # the wrapper an installer writes for pyproject's [project.scripts] entry
        text = (SRC.parent / "pyproject.toml").read_text()
        module, attr = re.search(r'^loopselect = "([\w.]+):(\w+)"$', text, re.M).groups()
        script = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
        proc = run_python("-c", script, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout


# what a process that only parses and scores must not load
GUARDED = {"loopselect.cli", "loopselect.certify", "loopselect.planners", "loopselect.simplex",
           "loopselect.generate", "argparse", "decimal", "logging"}


def test_parse_and_objectives_load_no_planner_cli_or_lp(tmp_path):
    exg, pose = tmp_path / "g.exg", tmp_path / "g.pose"
    assert main(["generate", "--robots", "3", "--verts", "6", "--edges", "12", "--seed", "0",
                 "--output", str(exg), "--pose-output", str(pose)]) == 0
    script = f"""
import sys
import loopselect
assert not [m for m in sys.modules if m.startswith("loopselect.")]
from loopselect import io as lio
graph = lio.load_exchange_graph({str(exg)!r})
loopselect.ModularObjective(graph)
pose_graph = lio.load_pose_graph({str(pose)!r})
loopselect.TreeConnObjective(graph, pose_graph)
loopselect.DCritObjective(graph, pose_graph)
print(sorted(m for m in sys.modules if m.startswith("loopselect.")))
print(sorted(m for m in {sorted(GUARDED)!r} if m in sys.modules))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded, guarded = proc.stdout.splitlines()
    assert loaded == str([f"loopselect.{m}" for m in ("errors", "graph", "io", "objectives")])
    assert guarded == "[]"

