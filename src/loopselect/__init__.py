"""loopselect: budget-aware selection of inter-robot loop closures.

Given an exchange graph of candidate inter-robot matches, a verification
budget k, and a communication budget on broadcast observations, the planners
in this package pick a feasible (vertex set, edge set) pair maximizing a
normalized monotone (sub)modular objective, with certified approximation
factors and exact small-instance oracles.

Submodules load on first use (PEP 562): ``import loopselect`` imports none of
them, and ``loopselect.X`` or ``from loopselect import X`` imports the one
that owns ``X``. Parsing an instance and building its objective so loads only
``errors``, ``graph``, ``io`` and ``objectives``.
"""

import importlib

# Every exported name, by the submodule that owns it. Each submodule is
# exported under its own name as well.
_EXPORTS = {
    "errors": ("DataError", "InstanceTooLargeError", "ParseError"),
    "graph": (
        "CommBudget",
        "Edge",
        "ExchangeGraph",
        "IndividualUniform",
        "Plan",
        "TotalNonuniform",
        "TotalUniform",
        "Vertex",
    ),
    "objectives": (
        "DCritObjective",
        "ModularObjective",
        "PoseGraph",
        "TopKOracle",
        "TreeConnObjective",
        "g_modular",
    ),
    "planners": (
        "GreedySelector",
        "PlannerTrace",
        "TraceStep",
        "e_greedy",
        "m_greedy",
        "random_baseline",
        "s_greedy",
        "v_greedy",
    ),
    "certify": (
        "alpha_apriori",
        "alpha_posteriori",
        "alpha_tilde",
        "brute_force_opt",
        "ilp_opt_modular",
        "lp_upper_bound_modular",
    ),
    "generate": (
        "GenSpec",
        "GroundTruth",
        "demo_rendezvous_graph",
        "generate_exchange_graph",
        "generate_pose_graph",
        "sample_ground_truth",
    ),
    "cli": ("SweepCell", "SweepSpec", "sweep_cells"),
    "io": (),
    "simplex": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        owner = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
