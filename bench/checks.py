"""Output checks for the benchmark's CLI steps.

Each ``check_<command>`` returns a list of problems (empty when the output is
correct). They read the step's output files and stdout and recompute what
they can through the library, independently of the process state the CLI
call used.
"""

from __future__ import annotations

import json

from loopselect import io as lio
from loopselect.graph import IndividualUniform, Plan, TotalNonuniform, TotalUniform
from loopselect.objectives import DCritObjective, ModularObjective, TreeConnObjective

CERT_TOL = 1e-7      # achieved may exceed the LP bound by at most this much
REL_TOL = 1e-9       # log-det objectives: relative agreement with the dense oracle


class InstanceState:
    """Library view of one generated instance, loaded once for the checks."""

    def __init__(self, files):
        self.files = files
        self.graph = None
        self.pose_graph = None
        self.plans: dict[str, dict] = {}
        self._objectives: dict[str, object] = {}

    def objective(self, name):
        if name not in self._objectives:
            if name == "modular":
                self._objectives[name] = ModularObjective(self.graph)
            elif name == "treeconn":
                self._objectives[name] = TreeConnObjective(self.graph, self.pose_graph)
            else:
                self._objectives[name] = DCritObjective(self.graph, self.pose_graph)
        return self._objectives[name]


def _same_value(objective_name, got, want) -> bool:
    if objective_name == "modular":
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(want), 1.0)


def _budget(regime, b, graph):
    # rebuilt here rather than taken from the CLI, so a CLI bug cannot pass its own check
    if regime == "tu":
        return TotalUniform(int(b))
    if regime == "tn":
        return TotalNonuniform(float(b))
    return IndividualUniform.by_robot(graph, [int(t) for t in str(b).split("/")])


def _round_trip(path, parse, serialize, what) -> tuple[object, list[str]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parsed = parse(text)
    if serialize(parsed) != text:
        return parsed, [f"{what} file is not in canonical form"]
    return parsed, []


def check_generate(state, argv) -> list[str]:
    problems = []
    state.graph, bad = _round_trip(
        state.files["exg"], lio.parse_exchange_graph, lio.serialize_exchange_graph, "exchange"
    )
    problems += bad
    want_edges = int(argv[argv.index("--edges") + 1])
    if state.graph.num_edges != want_edges:
        problems.append(f"generated {state.graph.num_edges} edges, asked for {want_edges}")
    if "--pose-output" in argv:
        state.pose_graph, bad = _round_trip(
            state.files["pose"], lio.parse_pose_graph, lio.serialize_pose_graph, "pose"
        )
        problems += bad
        if set(state.pose_graph.candidate_map) != {e.id for e in state.graph.edges}:
            problems.append("pose candidates do not match the exchange edges")
    if "--truth-output" in argv:
        truth, bad = _round_trip(
            state.files["truth"], lio.parse_ground_truth, lio.serialize_ground_truth, "truth"
        )
        problems += bad
        if len(truth.realized) != state.graph.num_edges:
            problems.append("ground truth does not cover every edge")
    return problems


def check_plan(state, step_id, path, stdout) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    state.plans[step_id] = payload
    plan = Plan(
        vertices=tuple(payload["vertices"]),
        edges=tuple(payload["edges"]),
        achieved_value=float(payload["achieved_value"]),
    )
    problems = []
    cb = _budget(payload["regime"], payload["b"], state.graph)
    if not state.graph.check_plan(plan, int(payload["k"]), cb):
        problems.append(f"plan fails check_plan under k={payload['k']} b={payload['b']}")
    name = payload["objective"]
    value = state.objective(name).value(plan.edges)
    if not _same_value(name, plan.achieved_value, value):
        problems.append(f"achieved {plan.achieved_value!r} but the objective gives {value!r}")
    if f"value={plan.achieved_value!r}" not in stdout:
        problems.append("printed value differs from the plan file")
    return problems


def check_sweep(state, step, path, header) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        return [f"sweep header {lines[:1]!r} differs from {header!r}"]
    columns = header.split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
    problems = []
    if len(rows) != step["rows"]:
        problems.append(f"{len(rows)} sweep rows, expected {step['rows']}")
    if len({(r["b"], r["k"]) for r in rows}) != step["cells"]:
        problems.append(f"sweep does not have {step['cells']} (b, k) cells")
    for r in rows:
        where = f"b={r['b']} k={r['k']} {r['planner']}"
        achieved, normalized = float(r["achieved"]), float(r["normalized"])
        if not 0.0 <= normalized <= 1.0:
            problems.append(f"{where}: normalized {normalized!r} outside [0, 1]")
        if step["certified"] and r["upt"] == "":
            problems.append(f"{where}: cell is not certified")
        if r["upt"] != "" and not achieved <= float(r["upt"]) + CERT_TOL:
            problems.append(f"{where}: achieved {achieved!r} above LP bound {r['upt']}")
    for plan_id in step.get("crosscheck", ()):
        payload = state.plans.get(plan_id)
        if payload is None:
            problems.append(f"no checked plan {plan_id!r} to compare with")
            continue
        match = [
            r for r in rows
            if (r["b"], r["k"], r["planner"]) == (str(payload["b"]), str(payload["k"]), payload["planner"])
        ]
        if len(match) != 1 or not _same_value(
            payload["objective"], float(match[0]["achieved"]), payload["achieved_value"]
        ):
            problems.append(f"sweep disagrees with plan {plan_id!r}")
    return problems


def check_certify(state, step, stdout, header) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return [f"certificate header {lines[:1]!r} differs from {header!r}"]
    if len(lines) != 2:
        return [f"expected one certificate row, got {len(lines) - 1}"]
    row = dict(zip(header.split(","), lines[1].split(",")))
    payload = state.plans[step["plan"]]
    problems = []
    achieved = float(row["achieved"])
    if not _same_value(payload["objective"], achieved, payload["achieved_value"]):
        problems.append(f"certified value {achieved!r} differs from the plan's")
    if row["upt"] == "":
        problems.append("certificate has no LP bound")
    elif not achieved <= float(row["upt"]) + CERT_TOL:
        problems.append(f"achieved {achieved!r} above LP bound {row['upt']}")
    if row["ratio_lb"] != "" and not 0.0 <= float(row["ratio_lb"]) <= 1.0 + CERT_TOL:
        problems.append(f"ratio_lb {row['ratio_lb']} outside [0, 1]")
    return problems
