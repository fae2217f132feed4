"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from loopselect import (
    DCritObjective,
    IndividualUniform,
    ModularObjective,
    PoseGraph,
    TotalNonuniform,
    TotalUniform,
    TreeConnObjective,
    alpha_apriori,
    alpha_apriori_grid,
    alpha_posteriori,
    alpha_tilde,
    brute_force_opt,
    demo_rendezvous_graph,
    e_greedy,
    g_modular,
    generate_exchange_graph,
    generate_pose_graph,
    ilp_opt_modular,
    lp_upper_bound_modular,
    m_greedy,
    min_vertex_cover_bruteforce,
    random_baseline,
    s_greedy,
    v_greedy,
)
from loopselect.generate import GenSpec
from loopselect.graph import Edge, ExchangeGraph, Vertex

from conftest import (
    eager,
    make_graph,
    random_connected_pose_graph,
    random_modular_instance,
    random_treeconn_instance,
    spanning_tree_weight_sum,
)

ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)
HEATMAP_BS = list(range(20, 101, 10))
HEATMAP_KS = list(range(20, 101, 10))


def _report(num, label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}{detail}")
    assert ok, f"criterion {num} failed: {label}{detail}"


@pytest.fixture(scope="module")
def tu_suite():
    """500 brute-forceable modular instances under the cardinality budget."""
    suite = []
    for seed in range(500):
        graph, b, k = random_modular_instance(seed)
        obj = ModularObjective(graph)
        cb = TotalUniform(b)
        plan, _ = m_greedy(graph, k, cb, obj)
        opt, _ = brute_force_opt(graph, k, cb, obj)
        suite.append((seed, graph, b, k, plan, opt))
    return suite


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    graph = demo_rendezvous_graph()
    cover = min_vertex_cover_bruteforce(graph, [e.id for e in graph.edges])
    ok = len(cover) == 3
    obj = ModularObjective(graph)
    cb = TotalUniform(2)
    plans = [
        m_greedy(graph, 3, cb, obj)[0],
        e_greedy(graph, 3, cb, obj)[0],
        v_greedy(graph, 3, cb, obj)[0],
        s_greedy(graph, 3, cb, obj)[0],
        random_baseline(graph, 3, cb, obj, seed=0)[0],
    ]
    for plan in plans:
        ok = ok and graph.check_plan(plan, 3, cb)
        ok = ok and len(plan.vertices) <= 2 and len(plan.edges) <= 3
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "worked example (cover size 3, all planners feasible at b=2, k=3)",
        ok and elapsed < 1.0,
        f" [{elapsed:.3f}s]",
    )


def test_criterion_02_guarantee_formulas():
    t0 = time.perf_counter()
    grid41 = alpha_apriori_grid(HEATMAP_BS, HEATMAP_KS, 41)
    grid5 = alpha_apriori_grid(HEATMAP_BS, HEATMAP_KS, 5)
    ok = abs(grid41.min() - 0.18) <= 0.01
    ok = ok and abs(grid41.max() - ONE_MINUS_1_OVER_E) <= 0.01
    ok = ok and abs(grid5.min() - 0.36) <= 0.01
    ok = ok and abs(grid5.max() - ONE_MINUS_1_OVER_E) <= 0.01
    for delta in (1, 2, 5, 41, 64):
        for kappa in np.linspace(1.0, 5.0, 41):
            ok = ok and abs(alpha_tilde(float(kappa), delta) - ONE_MINUS_1_OVER_E) <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "guarantee surface extremes and flat ratio curve",
        ok and elapsed < 1.0,
        f" [min41={grid41.min():.4f} min5={grid5.min():.4f} {elapsed:.3f}s]",
    )


def test_criterion_03_degree_floor():
    t0 = time.perf_counter()
    bs = np.arange(1, 201)
    ks = np.arange(1, 201)
    violations = 0
    for delta in range(1, 65):
        grid = alpha_apriori_grid(bs, ks, delta)
        floor = 1.0 - math.exp(-1.0 / (delta + 1))
        violations += int((grid < floor - 1e-12).sum())
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "degree-only lower bound over the full budget grid",
        violations == 0 and elapsed < 10.0,
        f" [violations={violations} {elapsed:.2f}s]",
    )


def test_criterion_04_modular_guarantees(tu_suite):
    t0 = time.perf_counter()
    violations = []
    rng = np.random.default_rng(123)
    for seed, graph, b, k, plan, opt in tu_suite:
        if plan.achieved_value < ONE_MINUS_1_OVER_E * opt - 1e-9:
            violations.append(("tu", seed))
        weights = [float(rng.uniform(0.5, 3.0)) for _ in graph.vertices]
        weighted = make_graph(
            graph.num_robots,
            [v.robot for v in graph.vertices],
            [(e.u, e.v) for e in graph.edges],
            [e.p for e in graph.edges],
            weights=weights,
        )
        budget = float(rng.uniform(1.0, sum(weights)))
        cb_tn = TotalNonuniform(budget)
        obj_w = ModularObjective(weighted)
        tn_plan, _ = m_greedy(weighted, k, cb_tn, obj_w)
        tn_opt, _ = brute_force_opt(weighted, k, cb_tn, obj_w)
        if tn_plan.achieved_value < 0.5 * ONE_MINUS_1_OVER_E * tn_opt - 1e-9:
            violations.append(("tn", seed))
        limits = [int(rng.integers(0, 3)) for _ in range(graph.num_robots)]
        cb_iu = IndividualUniform.by_robot(graph, limits)
        obj = ModularObjective(graph)
        iu_plan, _ = m_greedy(graph, k, cb_iu, obj)
        iu_opt, _ = brute_force_opt(graph, k, cb_iu, obj)
        if iu_plan.achieved_value < 0.5 * iu_opt - 1e-9:
            violations.append(("iu", seed))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "modular greedy guarantees on 500 instances (tu/tn/iu)",
        not violations and elapsed < 120.0,
        f" [violations={violations[:5]} {elapsed:.1f}s]",
    )


def test_criterion_05_degenerate_regime(tu_suite):
    subset = [(s, g, b, k, p, o) for s, g, b, k, p, o in tu_suite if b >= k]
    zero_gap = [
        s for s, g, b, k, plan, opt in subset
        if abs(plan.achieved_value - opt) <= 1e-9
    ]
    counterexamples = [
        s for s, g, b, k, plan, opt in subset
        if abs(plan.achieved_value - opt) > 1e-9
    ]
    fraction = len(zero_gap) / len(subset) if subset else float("nan")
    for s in counterexamples:
        print(f"  note: nonzero gap despite b >= k on instance seed {s}")
    # reported, not asserted: the zero-gap observation is empirical
    _report(
        5,
        "fraction of zero-gap instances when b >= k",
        bool(subset),
        f" [fraction={fraction:.3f} over n={len(subset)}]",
    )


def test_criterion_06_submodular_guarantees():
    t0 = time.perf_counter()
    violations = []
    for seed in range(200):
        graph, pg, b, k = random_treeconn_instance(seed)
        delta = graph.max_degree()
        if delta < 1:
            continue
        obj = TreeConnObjective(graph, pg)
        cb = TotalUniform(b)
        plan, trace = s_greedy(graph, k, cb, obj)
        opt, _ = brute_force_opt(graph, k, cb, obj)
        alpha = alpha_apriori(b, k, delta)
        if plan.achieved_value < alpha * opt - 1e-9:
            violations.append(("bound", seed))
        a_e, a_v = alpha_posteriori(trace, b, k, delta)
        if a_e < 1.0 - math.exp(-min(1.0, b / k)) - 1e-12:
            violations.append(("alpha_e", seed))
        if a_v < 1.0 - math.exp(-min(1.0, (k // delta) / b)) - 1e-12:
            violations.append(("alpha_v", seed))
        if max(a_e, a_v) < alpha - 1e-12:
            violations.append(("alpha_max", seed))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "combined greedy meets its factor on 200 tree-connectivity instances",
        not violations and elapsed < 300.0,
        f" [violations={violations[:5]} {elapsed:.1f}s]",
    )


def test_criterion_07_certification_sandwich(tu_suite):
    t0 = time.perf_counter()
    violations = []
    for seed, graph, b, k, plan, opt in tu_suite:
        ilp = ilp_opt_modular(graph, k, TotalUniform(b))
        upt = lp_upper_bound_modular(graph, k, TotalUniform(b))
        if abs(ilp - opt) > 1e-9:
            violations.append(("ilp", seed))
        if plan.achieved_value > opt + 1e-9:
            violations.append(("achieved", seed))
        if opt > upt + 1e-7:
            violations.append(("upt", seed))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "achieved <= ILP = brute <= LP on the full modular suite",
        not violations,
        f" [violations={violations[:5]} {elapsed:.1f}s]",
    )


def test_criterion_08_nms_properties():
    t0 = time.perf_counter()
    spec = GenSpec(num_robots=2, vertices_per_robot=4, num_edges=12, seed=42)
    graph = generate_exchange_graph(spec)
    pg = generate_pose_graph(spec, graph)
    objectives = {
        "modular": ModularObjective(graph),
        "dcrit": DCritObjective(graph, pg),
        "treeconn": TreeConnObjective(graph, pg),
    }
    eids = [e.id for e in graph.edges]
    violations = []
    for name, obj in objectives.items():
        if obj.value([]) != 0.0:
            violations.append((name, "normalization"))
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            small = frozenset(e for e in eids if rng.random() < 0.3)
            big = small | {e for e in eids if rng.random() < 0.3}
            rest = [e for e in eids if e not in big]
            if not rest:
                continue
            e = rest[int(rng.integers(0, len(rest)))]
            va, vb = obj.value(small), obj.value(big)
            vae, vbe = obj.value(small | {e}), obj.value(big | {e})
            if vb < va - 1e-9 or vae < va - 1e-9 or vbe < vb - 1e-9:
                violations.append((name, "monotonicity"))
                break
            if (vae - va) < (vbe - vb) - 1e-9:
                violations.append((name, "submodularity"))
                break
    # the nested objective keeps the same properties in its vertex argument
    rng = np.random.default_rng(11)
    vids = [v.id for v in graph.vertices]
    for _ in range(10_000):
        k = int(rng.integers(0, graph.num_edges + 2))
        small = frozenset(v for v in vids if rng.random() < 0.3)
        big = small | {v for v in vids if rng.random() < 0.3}
        rest = [v for v in vids if v not in big]
        if not rest:
            continue
        v = rest[int(rng.integers(0, len(rest)))]
        gs = g_modular(graph, small, k)[0]
        gsv = g_modular(graph, small | {v}, k)[0]
        gq = g_modular(graph, big, k)[0]
        gqv = g_modular(graph, big | {v}, k)[0]
        if (gsv - gs) < (gqv - gq) - 1e-9 or gqv < gq - 1e-9:
            violations.append(("g_modular", "exchange inequality"))
            break
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "sampled NMS properties (10^4 triples per objective)",
        not violations,
        f" [violations={violations} {elapsed:.1f}s]",
    )


def test_criterion_09_matrix_tree_oracle():
    t0 = time.perf_counter()
    g = make_graph(2, [0, 0, 1, 1], [(0, 2), (0, 3), (1, 3)], [1.0, 1.0, 1.0])
    pg = PoseGraph(
        num_poses=4,
        base_edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
        candidate_map={0: (0, 2, 1.0), 1: (0, 3, 1.0), 2: (1, 3, 1.0)},
    )
    ok = abs(TreeConnObjective(g, pg).value([0, 1, 2]) - math.log(16.0)) <= 1e-9
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        base = random_connected_pose_graph(rng, max_poses=7, extra_edges=4)
        m = int(rng.integers(1, 6))
        pairs = []
        for _ in range(m):
            a = int(rng.integers(0, base.num_poses))
            bnd = int(rng.integers(0, base.num_poses - 1))
            if bnd >= a:
                bnd += 1
            pairs.append((a, bnd, float(rng.uniform(0.3, 1.5))))
        graph = make_graph(
            2,
            [0] * m + [1] * m,
            [(i, m + i) for i in range(m)],
            [float(rng.uniform(0.1, 1.0)) for _ in range(m)],
        )
        pose = PoseGraph(
            num_poses=base.num_poses,
            base_edges=base.base_edges,
            candidate_map={i: pairs[i] for i in range(m)},
        )
        sel = [e.id for e in graph.edges if rng.random() < 0.6]
        value = TreeConnObjective(graph, pose).value(sel)
        combined = list(base.base_edges) + [
            (pairs[e][0], pairs[e][1], graph.edge(e).p * pairs[e][2]) for e in sel
        ]
        trees = spanning_tree_weight_sum(base.num_poses, combined)
        base_trees = spanning_tree_weight_sum(base.num_poses, list(base.base_edges))
        rel = abs(math.exp(value) * base_trees - trees) / trees
        worst = max(worst, rel)
        ok = ok and rel <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "tree-connectivity equals spanning-tree enumeration (50 graphs)",
        ok,
        f" [worst rel err={worst:.2e} {elapsed:.1f}s]",
    )


def test_criterion_10_baseline_dominance():
    t0 = time.perf_counter()
    bs = [2, 4, 6]
    ks = [4, 8, 12, 16, 20, 24, 28, 32]
    n_seeds = 100
    sums_greedy = {(b, k): 0.0 for b in bs for k in ks}
    sums_random = {(b, k): 0.0 for b in bs for k in ks}
    saturation_ok = True
    monotone_ok = True
    for seed in range(n_seeds):
        spec = GenSpec(num_robots=5, vertices_per_robot=3, num_edges=20, seed=seed)
        graph = generate_exchange_graph(spec)
        pg = generate_pose_graph(spec, graph)
        obj = TreeConnObjective(graph, pg)
        for b in bs:
            cb = TotalUniform(b)
            prev = -math.inf
            per_k = []
            for k in ks:
                plan, _ = s_greedy(graph, k, cb, obj)
                base, _ = random_baseline(graph, k, cb, obj, seed=seed)
                sums_greedy[(b, k)] += plan.achieved_value
                sums_random[(b, k)] += base.achieved_value
                per_k.append(plan.achieved_value)
                if plan.achieved_value < prev - 1e-9:
                    monotone_ok = False
                prev = plan.achieved_value
            if abs(per_k[-1] - per_k[-2]) > 1e-9:
                saturation_ok = False
    dominance_ok = all(
        sums_greedy[cell] >= sums_random[cell] for cell in sums_greedy
    )
    elapsed = time.perf_counter() - t0
    _report(
        10,
        "mean combined greedy beats the random baseline and saturates",
        dominance_ok and saturation_ok and monotone_ok,
        f" [dominance={dominance_ok} saturation={saturation_ok} "
        f"monotone={monotone_ok} {elapsed:.1f}s]",
    )


def test_criterion_11_determinism_and_lazy():
    t0 = time.perf_counter()
    ok = True
    for seed in range(100):
        graph, pg, b, k = random_treeconn_instance(seed)
        obj = TreeConnObjective(graph, pg)
        cb = TotalUniform(b)
        first_plan, first_tr = s_greedy(graph, k, cb, obj)
        second_plan, second_tr = s_greedy(graph, k, cb, obj)
        ok = ok and first_plan == second_plan
        ok = ok and [s.item for s in first_tr.steps] == [s.item for s in second_tr.steps]
        eager_plan, eager_tr = eager(s_greedy, graph, k, cb, obj)
        ok = ok and eager_plan == first_plan
        for arm in ("edge-arm", "vertex-arm"):
            eager_steps = [s.item for s in eager_tr.children[arm].steps]
            lazy_steps = [s.item for s in first_tr.children[arm].steps]
            ok = ok and eager_steps == lazy_steps
        ok = ok and first_tr.evaluations <= eager_tr.evaluations
    elapsed = time.perf_counter() - t0
    _report(
        11,
        "bit-identical reruns; lazy matches eager with <= evaluations (100 instances)",
        ok,
        f" [{elapsed:.1f}s]",
    )
