"""Command-line front end: generate, plan, sweep, certify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 exact-computation
guard exceeded (enumeration, branch-and-bound nodes or dense LP size; a sweep
downgrades only the enumeration guard, to the LP bound). CSV outputs start
with a metadata comment block (seed, instance size, maximum degree) and a
header row, so every artifact is reproducible from its own header.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import partial

from . import certify as cert
from . import io as gio
from .errors import EnumerationGuardError, InstanceTooLargeError, ParseError
from .generate import GenSpec, generate_exchange_graph, generate_pose_graph, sample_ground_truth
from .graph import IndividualUniform, Plan, TotalNonuniform, TotalUniform
from .objectives import DCritObjective, ModularObjective, TreeConnObjective
from .planners import (
    e_greedy,
    m_greedy,
    random_baseline,
    s_greedy,
    v_greedy,
)

__all__ = ["main", "SweepSpec", "sweep_rows"]

PLANNERS = ("mgreedy", "egreedy", "vgreedy", "sgreedy", "random")
OBJECTIVES = ("modular", "dcrit", "treeconn")
REGIMES = ("tu", "tn", "iu")
LAZY_HELP = "no effect: lazy greedy evaluation is the only mode (kept for old scripts)"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _parse_grid(spec):
    """Grid syntax: a single value, 'a,b,c', or 'start:step:end' (inclusive)."""
    try:
        if ":" in spec:
            start, step, end = (float(t) for t in spec.split(":"))
            if step <= 0:
                raise ValueError
            values = []
            while start <= end + 1e-9:
                values.append(start)
                start += step
        else:
            values = [float(t) for t in spec.split(",") if t != ""]
    except ValueError:
        raise _UsageError(f"bad grid spec {spec!r}") from None
    return [int(v) if v.is_integer() else v for v in values]


def _integer(x, what) -> int:
    """``x`` (an int, or text such as '3' or '3.0') as an int; a fraction is a usage error."""
    if not float(x).is_integer():
        raise _UsageError(f"bad {what} {x!r}: not an integer")
    return int(float(x))


def _edge_budget(x) -> int:
    """``x`` as the number k of edges to verify; a fraction or a negative k is a usage error."""
    k = _integer(x, "k")
    if k < 0:
        raise _UsageError(f"bad k {x!r}: must be non-negative")
    return k


def _budget(regime, b, graph):
    """``regime``'s budget from ``b`` (tu: int, tn: float, iu: l0/l1/...), or a usage error."""
    try:
        if regime == "tu":
            return TotalUniform(_integer(b, "tu budget"))
        if regime == "tn":
            return TotalNonuniform(float(b))
        if regime == "iu":
            limits = [_integer(t, "iu limit") for t in str(b).split("/")]
            return IndividualUniform.by_robot(graph, limits)
    except ValueError as err:
        raise _UsageError(f"bad {regime} budget {b!r}: {err}") from None
    raise _UsageError(f"unknown regime {regime!r}")


def _alpha(cb, k, delta):
    """A-priori factor of the combined greedy, or None outside tu or below b, k, delta = 1."""
    if isinstance(cb, TotalUniform) and min(cb.b, k, delta) >= 1:
        return cert.alpha_apriori(cb.b, k, delta)
    return None


def _objective(name, graph, pose_graph):
    if name == "modular":
        return ModularObjective(graph)
    if pose_graph is None:
        raise _UsageError(f"objective {name!r} needs --pose-input")
    if name == "dcrit":
        return DCritObjective(graph, pose_graph)
    if name == "treeconn":
        return TreeConnObjective(graph, pose_graph)
    raise _UsageError(f"unknown objective {name!r}")


def _run_planner(name, graph, k, cb, objective, seed):
    """Run planner ``name``, a name ``_check_planner_regime`` has accepted."""
    if name == "random":
        return random_baseline(graph, k, cb, objective, seed)
    planner = {"mgreedy": m_greedy, "egreedy": e_greedy, "vgreedy": v_greedy, "sgreedy": s_greedy}
    return planner[name](graph, k, cb, objective)


def _check_planner_regime(planner, regime, objective_name):
    if planner not in PLANNERS:
        raise _UsageError(f"unknown planner {planner!r}")
    if planner == "mgreedy" and objective_name != "modular":
        raise _UsageError("mgreedy requires the modular objective")
    if planner in ("egreedy", "vgreedy", "sgreedy", "random") and regime != "tu":
        raise _UsageError(f"{planner} requires the tu regime")


def _meta_block(graph, seed):
    return [
        f"# seed={seed}",
        f"# robots={graph.num_robots} n={graph.num_vertices} m={graph.num_edges}",
        f"# delta={graph.max_degree()}",
    ]


def _infinite_budget_value(graph, objective):
    return objective.value([e.id for e in graph.edges])


# -- subcommands ----------------------------------------------------------------


def _cmd_generate(args):
    try:  # no input file here: every value is an argument
        spec = GenSpec(
            num_robots=args.robots,
            vertices_per_robot=args.verts,
            edge_density=args.density,
            num_edges=args.edges,
            seed=args.seed,
            max_degree=args.cap_degree,
        )
        graph = generate_exchange_graph(spec)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    gio.save_exchange_graph(graph, args.output)
    if args.pose_output:
        gio.save_pose_graph(generate_pose_graph(spec, graph), args.pose_output)
    if args.truth_output:
        gt = sample_ground_truth(graph, args.seed)
        with open(args.truth_output, "w", encoding="utf-8") as fh:
            fh.write(gio.serialize_ground_truth(gt))
    print(
        f"generated n={graph.num_vertices} m={graph.num_edges} "
        f"delta={graph.max_degree()} -> {args.output}"
    )
    return 0


def _load_inputs(args):
    graph = gio.load_exchange_graph(args.input)
    pose_graph = None
    if args.pose_input:
        edge_ids = {e.id for e in graph.edges}
        pose_graph = gio.load_pose_graph(args.pose_input, edge_ids)
    if args.cap_degree is not None:
        capped = graph.cap_degree(args.cap_degree)
        if pose_graph is not None:
            # cap_degree renumbers the kept edges; rebind each by its endpoint pair
            old_id = {(e.u, e.v): e.id for e in graph.edges}
            bound = pose_graph.candidate_map
            pose_graph = replace(pose_graph, candidate_map={
                e.id: bound[old_id[e.u, e.v]]
                for e in capped.edges
                if old_id[e.u, e.v] in bound
            })
        graph = capped
    return graph, pose_graph


def _cmd_plan(args):
    _edge_budget(args.k)
    graph, pose_graph = _load_inputs(args)
    _check_planner_regime(args.planner, args.regime, args.objective)
    objective = _objective(args.objective, graph, pose_graph)
    cb = _budget(args.regime, args.b, graph)
    plan, _trace = _run_planner(args.planner, graph, args.k, cb, objective, args.seed)
    delta = graph.max_degree()
    alpha = _alpha(cb, args.k, delta)
    if args.output:
        payload = {
            "format": "loopselect-plan",
            "planner": args.planner,
            "objective": args.objective,
            "regime": args.regime,
            "b": args.b,
            "k": args.k,
            "vertices": list(plan.vertices),
            "edges": list(plan.edges),
            "achieved_value": plan.achieved_value,
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    print(
        f"planner={args.planner} value={plan.achieved_value!r} "
        f"|V|={len(plan.vertices)} |E|={len(plan.edges)} delta={delta} "
        f"alpha_apriori={'' if alpha is None else alpha!r}"
    )
    return 0


def _key_lines(text) -> dict[str, int]:
    """The 1-based line of each top-level key of ``text``, a valid JSON object."""
    decoder = json.JSONDecoder()
    space = re.compile(r"[ \t\n\r]*")
    lines = {}
    pos = space.match(text).end() + 1  # past "{"
    while text.startswith('"', pos := space.match(text, pos).end()):
        key, pos = json.decoder.scanstring(text, pos + 1)
        lines[key] = text.count("\n", 0, pos) + 1
        pos = space.match(text, pos).end() + 1  # past ":"
        _, pos = decoder.raw_decode(text, space.match(text, pos).end())
        pos = space.match(text, pos).end() + 1  # past "," (or the closing "}")
    return lines


def _one_of(options, what, value):
    if value not in options:
        raise ValueError(f"unknown {what} {value!r}")
    return value


def _ids(what, value) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ValueError(f"{what} must be a list of integer ids")
    return tuple(value)


def _load_plan(path, graph):
    """``(plan, payload, k, cb, line)`` of a ``plan --output`` file.

    A bad field is a data error citing the line of its key (``line`` maps
    each key to it), a byte that is not UTF-8 one citing its own line; a file
    that is not a plan or lacks a field cites line 1.
    """
    # newlines translated as text mode would; _key_lines counts "\n"
    text = gio._read_text(path).replace("\r\n", "\n").replace("\r", "\n")
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != "loopselect-plan":
        raise ParseError(1, "not a loopselect plan file")
    line = _key_lines(text)

    def field(key, read):
        if key not in payload:
            raise ParseError(1, f"plan file: no {key!r}")
        try:
            return read(payload[key])
        except (_UsageError, ValueError, TypeError) as err:
            raise ParseError(line[key], f"plan file: {err}") from None

    field("objective", partial(_one_of, OBJECTIVES, "objective"))
    regime = field("regime", partial(_one_of, REGIMES, "regime"))
    k = field("k", _edge_budget)
    cb = field("b", lambda b: _budget(regime, b, graph))
    plan = Plan(
        vertices=field("vertices", partial(_ids, "vertices")),
        edges=field("edges", partial(_ids, "edges")),
        achieved_value=field("achieved_value", float),
    )
    return plan, payload, k, cb, line


def _cmd_certify(args):
    graph, pose_graph = _load_inputs(args)
    plan, payload, k, cb, line = _load_plan(args.plan, graph)
    objective = _objective(payload["objective"], graph, pose_graph)
    try:
        feasible, why = graph.check_plan(plan, k, cb), ""
    except ValueError as err:  # an id the graph does not have
        feasible, why = False, f": {err}"
    if not feasible:
        raise ParseError(1, f"plan file fails feasibility against this graph{why}")
    achieved = objective.value(plan.edges)
    if not math.isclose(plan.achieved_value, achieved, rel_tol=1e-9):
        raise ParseError(
            line["achieved_value"],
            f"plan file's achieved_value {plan.achieved_value!r} disagrees with "
            f"the recomputed {achieved!r}",
        )
    delta = graph.max_degree()

    opt, upt = cert.bounds(graph, k, cb, objective, args.level)
    if upt is None and args.level == "lp":
        print("warning: LP certification needs the modular objective; skipped", file=sys.stderr)
    c = cert.Certificate(
        achieved=achieved, opt=opt, upt=upt, alpha_apriori=_alpha(cb, k, delta) or 0.0
    )
    print(cert.CSV_HEADER)
    print(c.csv_row(args.input, payload["b"], k, delta))
    if c.ratio_lb is not None:
        print(f"ratio_lb={c.ratio_lb!r}", file=sys.stderr)
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: budgets x planners on a fixed instance.

    ``certify`` is "none", "lp", or "brute"; brute's enumeration guard downgrades
    a cell to "lp" with a warning. Cells run in deterministic (b, k, planner)
    order; a b, k (2 and 2.0 alike) or planner given twice is a ValueError.
    """

    bs: tuple = ()
    ks: tuple = ()
    objective: str = "modular"
    regime: str = "tu"
    planners: tuple = ("sgreedy",)
    certify: str = "none"
    seed: int = 0

    def __post_init__(self):
        if not self.bs or not self.ks:
            raise ValueError("empty budget grid")
        if not self.planners:
            raise ValueError("empty planner list")
        if self.certify not in ("none", "lp", "brute"):
            raise ValueError(f"unknown certification level {self.certify!r}")
        for what, values in (("b", self.bs), ("k", self.ks), ("planner", self.planners)):
            if len(set(values)) < len(values):
                raise ValueError(f"repeated {what} in {','.join(map(str, values))}")


def sweep_rows(graph, pose_graph, spec: SweepSpec) -> list[str]:
    """CSV lines (metadata comments, header, one row per grid cell)."""
    for p in spec.planners:
        _check_planner_regime(p, spec.regime, spec.objective)
    objective = _objective(spec.objective, graph, pose_graph)
    budgets = [(b, _budget(spec.regime, b, graph)) for b in spec.bs]
    ks = [_edge_budget(k) for k in spec.ks]
    norm = _infinite_budget_value(graph, objective)
    delta = graph.max_degree()

    rows = _meta_block(graph, spec.seed)
    rows.append(
        "b,k,planner,achieved,normalized,opt,upt,gap_pct,"
        "alpha_apriori,alpha_e_post,alpha_v_post,ratio_lb"
    )
    for b, cb in budgets:
        for k in ks:
            try:
                opt, upt = cert.bounds(graph, k, cb, objective, spec.certify)
            except EnumerationGuardError:
                print(f"warning: brute guard exceeded at b={b} k={k}; downgrading certification",
                      file=sys.stderr)
                opt, upt = cert.bounds(graph, k, cb, objective, "lp")
            ref = opt if opt is not None else upt
            alpha = _alpha(cb, k, delta)
            for planner in spec.planners:
                plan, trace = _run_planner(planner, graph, k, cb, objective, spec.seed)
                posterior = ["", ""]
                if planner in ("egreedy", "vgreedy", "sgreedy") and alpha is not None:
                    posterior = [repr(a) for a in cert.alpha_posteriori(trace, cb.b, k, delta)]
                achieved = plan.achieved_value
                rows.append(",".join([
                    str(b), str(k), planner, repr(achieved),
                    repr(achieved / norm) if norm > 0 else "",
                    "" if opt is None else repr(opt),
                    "" if upt is None else repr(upt),
                    repr((ref - achieved) / norm * 100.0) if ref is not None and norm > 0 else "",
                    repr(alpha or 0.0),
                    *posterior,
                    repr(achieved / upt) if upt not in (None, 0) else "",
                ]))
    return rows


def _alpha_surface_rows(bs, ks, delta, kappa_deltas):
    rows = [f"# delta={delta}", "b,k,alpha_apriori"]
    grid = cert.alpha_apriori_grid(bs, ks, delta)
    for i, b in enumerate(bs):
        for j, k in enumerate(ks):
            rows.append(f"{b},{k},{float(grid[i, j])!r}")
    if kappa_deltas:
        rows.append("kappa,delta,alpha_tilde")
        for d in kappa_deltas:
            for b in bs:
                for k in ks:
                    kappa = b / k
                    rows.append(f"{kappa!r},{d},{cert.alpha_tilde(kappa, d)!r}")
    return rows


def _write_rows(rows, output):
    text = "\n".join(rows) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args):
    # an iu budget is itself a list (l0/l1/...), so an iu grid is a comma list of them
    iu = args.regime == "iu" and not args.alpha_only
    bs = [t for t in args.b.split(",") if t] if iu else _parse_grid(args.b)
    ks = _parse_grid(args.k)
    if not bs or not ks:
        raise _UsageError("empty budget grid")

    if args.alpha_only:
        kappa_deltas = _parse_grid(args.kappa_deltas) if args.kappa_deltas else ()
        try:
            rows = _alpha_surface_rows(bs, ks, args.delta, kappa_deltas)
        except ValueError as err:  # no input file here: every value is an argument
            raise _UsageError(str(err)) from None
        _write_rows(rows, args.output)
        return 0

    if not args.input:
        raise _UsageError("sweep needs --input (or use --alpha-only)")
    try:
        spec = SweepSpec(
            bs=tuple(bs),
            ks=tuple(ks),
            objective=args.objective,
            regime=args.regime,
            planners=tuple(p.strip() for p in args.planners.split(",") if p.strip()),
            certify=args.certify,
            seed=args.seed,
        )
    except ValueError as err:
        raise _UsageError(str(err)) from None
    graph, pose_graph = _load_inputs(args)
    _write_rows(sweep_rows(graph, pose_graph, spec), args.output)
    return 0


# -- argument wiring --------------------------------------------------------------


def _build_parser():
    top = _Parser(prog="loopselect", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance to disk")
    g.add_argument("--robots", type=int, default=3)
    g.add_argument("--verts", type=int, default=3, help="vertices per robot")
    g.add_argument("--density", type=float, default=None)
    g.add_argument("--edges", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cap-degree", type=int, default=None)
    g.add_argument("--output", required=True)
    g.add_argument("--pose-output", default=None)
    g.add_argument("--truth-output", default=None)
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("plan", help="run one planner on one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--pose-input", default=None)
    p.add_argument("--objective", default="modular", choices=OBJECTIVES)
    p.add_argument("--regime", default="tu", choices=REGIMES)
    p.add_argument("--planner", default="sgreedy", choices=PLANNERS)
    p.add_argument("-b", required=True, help="budget (tu: int, tn: float, iu: l0/l1/...)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--lazy", action="store_true", help=LAZY_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-degree", type=int, default=None)
    p.add_argument("--output", default=None, help="plan JSON path")
    p.set_defaults(func=_cmd_plan)

    s = sub.add_parser("sweep", help="run a budget grid and emit CSV")
    s.add_argument("--input", default=None)
    s.add_argument("--pose-input", default=None)
    s.add_argument("--objective", default="modular", choices=OBJECTIVES)
    s.add_argument("--regime", default="tu", choices=REGIMES)
    s.add_argument("--planners", default="sgreedy", help="comma list of planners")
    s.add_argument("-b", required=True, help="grid: value, list, or start:step:end (iu: l0/l1/...,...)")
    s.add_argument("-k", required=True, help="grid: value, list, or start:step:end")
    s.add_argument("--certify", default="none", choices=["none", "lp", "brute"])
    s.add_argument("--lazy", action="store_true", help=LAZY_HELP)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cap-degree", type=int, default=None)
    s.add_argument("--alpha-only", action="store_true", help="emit guarantee surfaces, run nothing")
    s.add_argument("--delta", type=int, default=None, help="max degree for --alpha-only")
    s.add_argument("--kappa-deltas", default=None, help="emit budget-ratio curves for these deltas")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("certify", help="bound the quality of a saved plan")
    c.add_argument("--input", required=True)
    c.add_argument("--pose-input", default=None)
    c.add_argument("--plan", required=True)
    c.add_argument("--level", default="lp", choices=["lp", "brute"])
    c.add_argument("--cap-degree", type=int, default=None)
    c.set_defaults(func=_cmd_certify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep" and args.alpha_only and args.delta is None:
            raise _UsageError("--alpha-only needs --delta")
        if args.cap_degree is not None and args.cap_degree < 1:  # every command has it
            raise _UsageError(f"bad --cap-degree {args.cap_degree}: must be at least 1")
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InstanceTooLargeError as err:
        # a cheaper setting of the command's own flag; lp helps only past brute force's guard
        retry = {"sweep": "--certify none or "}.get(args.command, "")
        if args.command == "certify" and isinstance(err, EnumerationGuardError):
            retry = "--level lp or "
        print(f"guard exceeded: {err}", file=sys.stderr)
        print(f"hint: retry with {retry}a smaller instance", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
