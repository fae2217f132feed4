"""loopselect: budget-aware selection of inter-robot loop closures.

Given an exchange graph of candidate inter-robot matches, a verification
budget k, and a communication budget on broadcast observations, the planners
in this package pick a feasible (vertex set, edge set) pair maximizing a
normalized monotone (sub)modular objective, with certified approximation
factors and exact small-instance oracles.
"""

from .errors import DataError, InstanceTooLargeError, ParseError
from .graph import (
    CommBudget,
    Edge,
    ExchangeGraph,
    IndividualUniform,
    Plan,
    TotalNonuniform,
    TotalUniform,
    Vertex,
    min_vertex_cover_bruteforce,
)
from .objectives import (
    DCritObjective,
    ModularObjective,
    PoseGraph,
    TopKOracle,
    TreeConnObjective,
    g_modular,
)
from .planners import (
    GreedySelector,
    PlannerTrace,
    TraceStep,
    e_greedy,
    m_greedy,
    random_baseline,
    s_greedy,
    v_greedy,
)
from .certify import (
    alpha_apriori,
    alpha_posteriori,
    alpha_tilde,
    brute_force_opt,
    ilp_opt_modular,
    lp_upper_bound_modular,
)
from .generate import (
    GenSpec,
    GroundTruth,
    demo_rendezvous_graph,
    generate_exchange_graph,
    generate_pose_graph,
    sample_ground_truth,
)
from .cli import SweepCell, SweepSpec, sweep_cells

__version__ = "0.1.0"
