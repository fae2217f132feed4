"""Command-line front end: generate, plan, sweep, certify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 exact-computation
guard exceeded (enumeration, branch-and-bound nodes or dense LP size; a sweep
downgrades only the enumeration guard, to the LP bound). CSV outputs start
with a metadata comment block (seed, instance size, maximum degree) and a
header row, so every artifact is reproducible from its own header. Numbers
are read in the file formats' syntax and written by one rule, ``_cells``.
A plan file records its ``--cap-degree``, and certify loads the instance
under it. A data error cites the line at fault and names its file.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cache, partial

from . import certify as cert
from . import io as gio
from .errors import EnumerationGuardError, InstanceTooLargeError, ParseError
from .generate import GenSpec, generate_exchange_graph, generate_pose_graph, sample_ground_truth
from .graph import IndividualUniform, Plan, TotalNonuniform, TotalUniform
from .objectives import DCritObjective, ModularObjective, TreeConnObjective
from .planners import e_greedy, m_greedy, random_baseline, s_greedy, v_greedy

__all__ = ["main", "SweepSpec", "sweep_rows"]

PLANNERS = ("mgreedy", "egreedy", "vgreedy", "sgreedy", "random")
OBJECTIVES = ("modular", "dcrit", "treeconn")
REGIMES = ("tu", "tn", "iu")
LAZY_HELP = "no effect: lazy greedy evaluation is the only mode (kept for old scripts)"
_FACTORS = "alpha_apriori,alpha_e_post,alpha_v_post,ratio_lb"
SWEEP_HEADER = "b,k,planner,achieved,normalized,opt,upt,gap_pct," + _FACTORS
CERTIFY_HEADER = "instance,b,k,delta,achieved,opt,upt," + _FACTORS


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _number(x) -> float:
    """``x``, a JSON number or text in the file formats' number syntax, as a float.

    An int past the float range reads as ±inf, as its digits do as text.
    """
    if isinstance(x, bool):
        raise ValueError(f"not a number: {x!r}")
    try:
        return float(gio._plain(x) if isinstance(x, str) else x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _typed(convert):
    """``convert`` (int or float) behind the file formats' number syntax, for ``type=``."""
    def read(text):
        return convert(gio._plain(text))
    read.__name__ = convert.__name__  # argparse names the type in its error
    return read


def _parse_grid(spec, what="grid value"):
    """Grid syntax: a single value, 'a,b,c', or 'start:step:end' (inclusive), stepped
    in exact decimal: '0:0.1:0.6' lists 0.3, not 0.30000000000000004. A listed
    value that is not finite is a usage error quoting ``what`` and its token."""
    try:
        if ":" in spec:
            start, step, end = (Decimal(gio._plain(t)) for t in spec.split(":"))
            if not (start.is_finite() and end.is_finite() and step > 0):
                raise ValueError
            values = []
            while start <= end:
                values.append(float(start))
                start += step
        else:
            values = []
            for t in filter(None, spec.split(",")):
                values.append(_number(t))
                if not math.isfinite(values[-1]):
                    raise _UsageError(f"bad {what} {t!r}: not finite")
    except (ValueError, ArithmeticError):  # decimal's errors are ArithmeticErrors
        raise _UsageError(f"bad grid spec {spec!r}") from None
    return [int(v) if v.is_integer() else v for v in values]


def _integer(x, what) -> int:
    """``x`` (see ``_number``) as an int; a fraction or a non-finite value is a usage error."""
    value = _number(x)
    if not math.isfinite(value):
        raise _UsageError(f"bad {what} {x!r}: not finite")
    if not value.is_integer():
        raise _UsageError(f"bad {what} {x!r}: not an integer")
    return int(value)


def _edge_budget(x) -> int:
    """``x`` as the number k of edges to verify; a fraction or a negative k is a usage error."""
    k = _integer(x, "k")
    if k < 0:
        raise _UsageError(f"bad k {x!r}: must be non-negative")
    return k


def _degree_cap(x, what):
    """``x`` (see ``_number``) as a degree cap: None (uncapped) or an int of at least 1."""
    cap = None if x is None else _integer(x, what)
    if cap is not None and cap < 1:
        raise _UsageError(f"bad {what} {x!r}: must be at least 1")
    return cap


def _budget(regime, b, graph):
    """``regime``'s budget from ``b`` (tu: int, tn: float, iu: l0/l1/...), or a usage error."""
    try:
        if regime == "tu":
            return TotalUniform(_integer(b, "tu budget"))
        if regime == "tn":
            return TotalNonuniform(_number(b))
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


def _ratio_lb(achieved, upt):
    """Lower bound on the empirical approximation ratio, achieved / upt; None unless upt > 0."""
    return achieved / upt if upt is not None and upt > 0 else None


def _cells(*values) -> str:
    """One CSV row: None is an empty cell, a number (a float) ``repr(float(x))``,
    and a label (b, k, delta, planner, instance) ``str(x)``."""
    return ",".join(
        "" if x is None else repr(float(x)) if isinstance(x, float) else str(x) for x in values
    )


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


def _run_planner(name, graph, k, cb, objective, seed, runs=None):
    """Run planner ``name``, a name ``_check_planner_regime`` has accepted.

    ``runs`` is the greedy planners' store of runs shared by the cells of one
    sweep (see :mod:`loopselect.planners`).
    """
    if name == "random":
        return random_baseline(graph, k, cb, objective, seed)
    planner = {"mgreedy": m_greedy, "egreedy": e_greedy, "vgreedy": v_greedy, "sgreedy": s_greedy}
    return planner[name](graph, k, cb, objective, runs=runs)


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


def _load_inputs(args, cap_degree):
    graph = gio.load_exchange_graph(args.input)
    pose_graph = None
    if args.pose_input:
        edge_ids = {e.id for e in graph.edges}
        pose_graph = gio.load_pose_graph(args.pose_input, edge_ids)
    if cap_degree is not None:
        capped = graph.cap_degree(cap_degree)
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
    graph, pose_graph = _load_inputs(args, args.cap_degree)
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
            "cap_degree": args.cap_degree,
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    print(
        f"planner={args.planner} value={plan.achieved_value!r} "
        f"|V|={len(plan.vertices)} |E|={len(plan.edges)} delta={delta} "
        f"alpha_apriori={_cells(alpha)}"
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


def _load_plan(args):
    """``(graph, objective, payload, k, cb, achieved)`` of the plan file ``args.plan``,
    checked on the instance loaded under its ``cap_degree``; ``achieved`` is recomputed.

    A data error names the file and cites the line of the key at fault (of a
    byte that is not UTF-8: its own line; of a file that is not a plan, lacks
    a key or is infeasible: line 1).
    """
    path = args.plan
    # newlines translated as text mode would; _key_lines counts "\n"
    text = gio._read_text(path).replace("\r\n", "\n").replace("\r", "\n")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.lineno, f"plan file: {err.msg} (column {err.colno})", path) from None
    if not isinstance(payload, dict) or payload.get("format") != "loopselect-plan":
        raise ParseError(1, "not a loopselect plan file", path)
    line = _key_lines(text)

    def field(key, read):
        if key not in payload:
            raise ParseError(1, f"plan file: no {key!r}", path)
        try:
            return read(payload[key])
        except (_UsageError, ValueError, TypeError) as err:
            raise ParseError(line[key], f"plan file: {err}", path) from None

    payload.setdefault("cap_degree", None)  # a file without the key is uncapped
    cap = field("cap_degree", partial(_degree_cap, what="cap_degree"))
    graph, pose_graph = _load_inputs(args, cap)
    name = field("objective", partial(_one_of, OBJECTIVES, "objective"))
    regime = field("regime", partial(_one_of, REGIMES, "regime"))
    k = field("k", _edge_budget)
    cb = field("b", lambda b: _budget(regime, b, graph))
    plan = Plan(
        vertices=field("vertices", partial(_ids, "vertices")),
        edges=field("edges", partial(_ids, "edges")),
        achieved_value=field("achieved_value", _number),
    )
    objective = _objective(name, graph, pose_graph)
    try:
        feasible, why = graph.check_plan(plan, k, cb), ""
    except ValueError as err:  # an id the graph does not have
        feasible, why = False, f": {err}"
    if not feasible:
        raise ParseError(1, f"plan file fails feasibility against this graph{why}", path)
    achieved = objective.value(plan.edges)
    if not math.isclose(plan.achieved_value, achieved, rel_tol=1e-9):
        raise ParseError(
            line["achieved_value"],
            f"plan file's achieved_value {plan.achieved_value!r} disagrees with "
            f"the recomputed {achieved!r}",
            path,
        )
    return graph, objective, payload, k, cb, achieved


def _cmd_certify(args):
    graph, objective, payload, k, cb, achieved = _load_plan(args)
    delta = graph.max_degree()

    opt, upt = cert.bounds(graph, k, cb, objective, args.level)
    if upt is None and args.level == "lp":
        print("warning: LP certification needs the modular objective; skipped", file=sys.stderr)
    ratio = _ratio_lb(achieved, upt)
    print(CERTIFY_HEADER)
    # a plan file carries no trace, so the a-posteriori factors stay empty
    print(_cells(args.input, payload["b"], k, delta, achieved, opt, upt,
                 _alpha(cb, k, delta), None, None, ratio))
    if ratio is not None:
        print(f"ratio_lb={_cells(ratio)}", file=sys.stderr)
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: budgets x planners on a fixed instance.

    ``certify`` is "none", "lp", or "brute"; brute's enumeration guard downgrades
    a cell to "lp" with a warning. Rows come in deterministic (b, k, planner)
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
    norm = objective.value([e.id for e in graph.edges])  # the infinite-budget value
    delta = graph.max_degree()

    runs = {}  # one greedy run per grid line; the planners read tu cells off its prefixes
    cells = {}  # (b index, k index) -> rows; computed k-major, so that one
    # m_greedy run serves every b of a k, and written b-major
    for j, k in enumerate(ks):
        for i, (b, cb) in enumerate(budgets):
            try:
                opt, upt = cert.bounds(graph, k, cb, objective, spec.certify)
            except EnumerationGuardError:
                print(f"warning: brute guard exceeded at b={b} k={k}; downgrading certification",
                      file=sys.stderr)
                opt, upt = cert.bounds(graph, k, cb, objective, "lp")
            ref = opt if opt is not None else upt
            alpha = _alpha(cb, k, delta)
            cells[i, j] = []
            for planner in spec.planners:
                plan, trace = _run_planner(planner, graph, k, cb, objective, spec.seed, runs)
                posterior = (None, None)
                if planner in ("egreedy", "vgreedy", "sgreedy") and alpha is not None:
                    posterior = cert.alpha_posteriori(trace, cb.b, k, delta)
                achieved = plan.achieved_value
                cells[i, j].append(_cells(
                    b, k, planner, achieved,
                    achieved / norm if norm > 0 else None,
                    opt, upt,
                    (ref - achieved) / norm * 100.0 if ref is not None and norm > 0 else None,
                    alpha, *posterior, _ratio_lb(achieved, upt),
                ))
    return [*_meta_block(graph, spec.seed), SWEEP_HEADER,
            *(row for i in range(len(budgets)) for j in range(len(ks)) for row in cells[i, j])]


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
    bs = [t for t in args.b.split(",") if t] if iu else _parse_grid(args.b, f"{args.regime} budget")
    ks = _parse_grid(args.k, "k")
    if not bs or not ks:
        raise _UsageError("empty budget grid")

    if args.alpha_only:
        kappa_deltas = _parse_grid(args.kappa_deltas, "delta") if args.kappa_deltas else ()
        rows = [f"# delta={args.delta}", "b,k,alpha_apriori"]
        try:  # no input file here: every value is an argument
            rows += [_cells(b, k, cert.alpha_apriori(b, k, args.delta)) for b in bs for k in ks]
            if kappa_deltas:
                rows.append("kappa,delta,alpha_tilde")
                rows += [_cells(b / k, d, cert.alpha_tilde(b / k, d))
                         for d in kappa_deltas for b in bs for k in ks]
        except ValueError as err:
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
    graph, pose_graph = _load_inputs(args, args.cap_degree)
    _write_rows(sweep_rows(graph, pose_graph, spec), args.output)
    return 0


# -- argument wiring --------------------------------------------------------------


@cache  # built on the first main() call, once per process
def _parser():
    top = _Parser(prog="loopselect", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance to disk")
    g.add_argument("--robots", type=_typed(int), default=3)
    g.add_argument("--verts", type=_typed(int), default=3, help="vertices per robot")
    g.add_argument("--density", type=_typed(float), default=None)
    g.add_argument("--edges", type=_typed(int), default=None)
    g.add_argument("--seed", type=_typed(int), default=0)
    g.add_argument("--cap-degree", type=_typed(int), default=None)
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
    p.add_argument("-k", type=_typed(int), required=True)
    p.add_argument("--lazy", action="store_true", help=LAZY_HELP)
    p.add_argument("--seed", type=_typed(int), default=0)
    p.add_argument("--cap-degree", type=_typed(int), default=None)
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
    s.add_argument("--seed", type=_typed(int), default=0)
    s.add_argument("--cap-degree", type=_typed(int), default=None)
    s.add_argument("--alpha-only", action="store_true", help="emit guarantee surfaces, run nothing")
    s.add_argument("--delta", type=_typed(int), default=None, help="max degree for --alpha-only")
    s.add_argument("--kappa-deltas", default=None, help="emit budget-ratio curves for these deltas")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("certify", help="bound the quality of a saved plan")
    c.add_argument("--input", required=True)
    c.add_argument("--pose-input", default=None)
    c.add_argument("--plan", required=True)
    c.add_argument("--level", default="lp", choices=["lp", "brute"])
    c.set_defaults(func=_cmd_certify)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "sweep" and args.alpha_only and args.delta is None:
            raise _UsageError("--alpha-only needs --delta")
        # certify reads the cap from its plan file instead
        _degree_cap(getattr(args, "cap_degree", None), "--cap-degree")
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
    except (OSError, ValueError) as err:  # ParseError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
