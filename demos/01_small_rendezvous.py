#!/usr/bin/env python3
"""Walk through the bundled 3-robot rendezvous instance.

Nine observations, eight candidate matches. We look at the unconstrained
exchange policy (a minimum vertex cover), then squeeze the same instance
through tight budgets (broadcast 2 observations, verify 3 matches) with every
planner and compare what each one salvages.
"""

from loopselect import (
    ModularObjective,
    TotalUniform,
    demo_rendezvous_graph,
    e_greedy,
    m_greedy,
    min_vertex_cover_bruteforce,
    random_baseline,
    s_greedy,
    v_greedy,
)

graph = demo_rendezvous_graph()
obj = ModularObjective(graph)
print(f"instance: {graph}")
print(f"max degree: {graph.max_degree()}")

all_edges = [e.id for e in graph.edges]
cover = sorted(min_vertex_cover_bruteforce(graph, all_edges))
print(f"\nwith no budgets, broadcasting a minimum cover verifies everything:")
print(f"  cover = {cover} (size {len(cover)})")
print(f"  total expected true matches = {obj.value(all_edges):.3f}")

b, k = 2, 3
cb = TotalUniform(b)
print(f"\nnow with budgets b={b} broadcasts, k={k} verifications:")
runs = [
    ("m-greedy", m_greedy(graph, k, cb, obj)[0]),
    ("e-greedy", e_greedy(graph, k, cb, obj)[0]),
    ("v-greedy", v_greedy(graph, k, cb, obj)[0]),
    ("s-greedy", s_greedy(graph, k, cb, obj)[0]),
    ("random", random_baseline(graph, k, cb, obj, seed=0)[0]),
]
for name, plan in runs:
    feasible = graph.check_plan(plan, k, cb)
    print(
        f"  {name:9s} value={plan.achieved_value:.3f} "
        f"broadcast={list(plan.vertices)} verify={list(plan.edges)} "
        f"feasible={feasible}"
    )
