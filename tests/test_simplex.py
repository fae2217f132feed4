"""Direct tests of the dense boxed simplex and its dual bound, with scipy's HiGHS as an
independent oracle.

scipy is a test-only dependency: the package itself must never import it, which
the last test checks in a fresh interpreter.
"""

import functools
import json
import logging
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import loopselect
from loopselect import (
    ExchangeGraph, GenSpec, IndividualUniform, TotalNonuniform, TotalUniform, Vertex, certify,
    generate_exchange_graph, ilp_opt_modular, lp_upper_bound_modular, simplex,
)
from loopselect.certify import _modular_lp
from loopselect.simplex import dual_bound, simplex_max

from conftest import time_limit

GOLDEN = json.loads((Path(__file__).parent / "golden_lp_modular.json").read_text())
GOLDEN_LP = GOLDEN["values"]
BEALE = (
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def highs_max(c, A, b, bounds=(0, 1)):
    res = linprog(-np.asarray(c), A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def highs_modular(graph, k, b, fixed0=frozenset(), fixed1=frozenset()):
    """HiGHS on the modular LP with every vertex a variable, fixed ones pinned by bounds."""
    n, m = graph.num_vertices, graph.num_edges
    A = np.zeros((2 + m, n + m))
    A[0, :n] = 1.0
    A[1, n:] = 1.0
    for j, e in enumerate(graph.edges):
        A[2 + j, n + j] = 1.0
        A[2 + j, e.u] = A[2 + j, e.v] = -1.0
    rhs = np.concatenate([[b, k], np.zeros(m)])
    bounds = [(0, 0) if v in fixed0 else (1, 1) if v in fixed1 else (0, 1)
              for v in range(n)] + [(0, 1)] * m
    c = np.concatenate([np.zeros(n), [e.p for e in graph.edges]])
    return highs_max(c, A, rhs, bounds)


def certification_form_lp(seed):
    """Random A x <= b with b >= 0, zero right-hand sides for degeneracy, and
    upper bounds on every variable as rows of A, some inside the box."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    m = int(rng.integers(1, 12))
    A = rng.choice([-1.0, 0.0, 0.0, 0.0, 0.5, 1.0], size=(m, n))
    b = rng.choice([0.0, 0.0, 1.0, 2.5], size=m)
    A = np.vstack([A, np.eye(n)])
    b = np.concatenate([b, rng.integers(1, 4, size=n).astype(float)])
    c = rng.uniform(-0.5, 1.0, size=n)
    return c, A, b


@functools.lru_cache(maxsize=None)
def benchmark_graph(seed):
    """The modular-certified benchmark's instance shape: 6x30 observations, 400 candidates."""
    return generate_exchange_graph(
        GenSpec(num_robots=6, vertices_per_robot=30, num_edges=400, seed=seed)
    )


def entries_of(A):
    """The nonzeros of a dense A as ``dual_bound`` reads them."""
    rows, cols = np.nonzero(A)
    return rows, cols, np.asarray(A, dtype=float)[rows, cols]


def assert_optimal_point(c, A, b, x, value):
    assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)
    assert np.all(np.asarray(A) @ x <= np.asarray(b) + 1e-9)
    assert float(np.dot(c, x)) == pytest.approx(value, rel=1e-9, abs=1e-9)


def assert_agrees_with_highs(c, A, b):
    with time_limit(10):
        x, value, y = simplex_max(c, A, b)
    want = highs_max(c, A, b)
    assert value == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert_optimal_point(c, A, b, x, value)
    assert np.all(y >= 0) and y.shape == (len(b),)
    assert dual_bound(c, entries_of(A), b, y) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestTermination:
    def test_beale_cycling_example(self):
        # Beale (1955): Dantzig's rule with lowest-index ties cycles here
        c, A, b = BEALE
        with time_limit(10):
            x, value, _ = simplex_max(c, A, b)
        assert value == pytest.approx(1.25, abs=1e-12)
        assert_optimal_point(c, A, b, x, value)

    def test_unbounded_without_the_box_returns_the_box_vertex(self):
        # unbounded over x >= 0; the box stops it at (1, 1), HiGHS's value 2
        c, A, b = [1.0, 1.0], [[1.0, -1.0]], [1.0]
        with time_limit(10):
            x, value, y = simplex_max(c, A, b)
        assert list(x) == [1.0, 1.0]
        assert value == highs_max(c, A, b) == 2.0
        assert dual_bound(c, entries_of(A), b, y) == 2.0

    def test_negative_rhs_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            simplex_max([1.0], [[1.0], [-1.0]], [1.0, -0.5])

    def test_inconsistent_dimensions_raise(self):
        with pytest.raises(ValueError, match="dimensions"):
            simplex_max([1.0, 1.0], [[1.0]], [1.0])


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_certification_form(self, seed):
        assert_agrees_with_highs(*certification_form_lp(seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_modular_lp_with_fixed_vertices(self, seed):
        graph = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=5, num_edges=30, seed=seed)
        )
        rng = np.random.default_rng(seed)
        perm = [int(v) for v in rng.permutation(graph.num_vertices)]
        fixed0, fixed1 = frozenset(perm[:3]), frozenset(perm[3:5])
        for b, k in ((2, 4), (4, 8), (7, 30)):
            pi, value = _modular_lp(graph, k, TotalUniform(b), fixed0, fixed1)
            want = highs_modular(graph, k, b, fixed0, fixed1)
            assert value == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert set(pi) == set(range(graph.num_vertices)) - fixed0 - fixed1
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in pi.values())

    def test_modular_lp_infeasible_when_too_many_fixed_to_one(self):
        graph = generate_exchange_graph(
            GenSpec(num_robots=2, vertices_per_robot=3, num_edges=5, seed=0)
        )
        assert _modular_lp(graph, 3, TotalUniform(1), fixed1=frozenset({0, 1})) is None

    @pytest.mark.parametrize("b, k", [(4, 30), (12, 10)])
    def test_modular_lp_at_benchmark_scale(self, b, k, monkeypatch):
        solved = []

        def keep(c, A, rhs):
            x, value, y = simplex_max(c, A, rhs)
            solved.append((c, A, rhs, x))
            return x, value, y

        monkeypatch.setattr(certify, "simplex_max", keep)
        graph = benchmark_graph(1)
        _, value = _modular_lp(graph, k, TotalUniform(b))
        assert value == pytest.approx(highs_modular(graph, k, b), rel=1e-9)
        [(c, A, rhs, x)] = solved
        assert_optimal_point(c, A, rhs, x, value)


class TestBlandFallback:
    """``STALL = 0``: Bland's entering rule runs from the first pivot."""

    @pytest.fixture(autouse=True)
    def bland_from_the_start(self, monkeypatch):
        monkeypatch.setattr(simplex, "STALL", 0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_certification_form(self, seed):
        assert_agrees_with_highs(*certification_form_lp(seed))

    def test_modular_lp_at_benchmark_scale(self):
        graph = benchmark_graph(1)
        with time_limit(30):
            value = lp_upper_bound_modular(graph, 30, TotalUniform(4))
        assert value == pytest.approx(highs_modular(graph, 30, 4), rel=1e-9, abs=1e-9)

    def test_beale_terminates(self):
        with time_limit(10):
            _, value, _ = simplex_max(*BEALE)
        assert value == pytest.approx(1.25, abs=1e-12)


class TestDualBound:
    """``dual_bound``: any y gives a bound, evaluated with outward rounding."""

    @staticmethod
    def exact_bound(c, A, b, y):
        """bᵀy + Σ_j max(0, c_j - (Aᵀy)_j) over y clamped at 0, in exact rationals."""
        y = [max(Fraction(v), Fraction(0)) for v in y]
        box = (Fraction(cj) - sum(Fraction(row[j]) * yi for row, yi in zip(A, y))
               for j, cj in enumerate(c))
        return sum(Fraction(bi) * yi for bi, yi in zip(b, y)) + sum(max(d, 0) for d in box)

    def test_negative_duals_count_as_zero(self):
        # max x over -x <= 0 is 1; y = -1 taken as it is would claim 0 + max(0, 1 - 1) = 0
        assert dual_bound([1.0], entries_of([[-1.0]]), [0.0], [-1.0]) == 1.0

    def test_the_box_term_counts_what_the_rows_leave(self):
        # y = 0 leaves every variable to its box: the bound is the sum of the positive c
        c, A, b = [0.5, -2.0, 0.25], [[1.0, 1.0, 1.0]], [1.0]
        assert dual_bound(c, entries_of(A), b, [0.0]) == 0.75
        assert dual_bound(c, entries_of(A), b, [0.5]) == 0.5

    def test_products_that_underflow_round_outward(self):
        # b·y = 2**-2044 rounds to 0; so does -1·y in Aᵀy, which must round below 0
        tiny = 2.0**-1022
        assert dual_bound([0.0], entries_of([[0.0]]), [tiny], [tiny]) > 0
        assert dual_bound([0.0], entries_of([[-tiny]]), [0.0], [tiny]) > 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rounds_up_from_the_exact_value(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        entry = st.one_of(st.sampled_from([0.0, 0.0, -1.0, 1.0]), st.floats(0.05, 3.0))
        A = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
        c = data.draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(1e-12, 1e-9)),
                               min_size=n, max_size=n))
        b = data.draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
        y = data.draw(st.lists(st.floats(-1.0, 3.0), min_size=m, max_size=m))
        got = dual_bound(c, entries_of(A), b, y)
        want = self.exact_bound(c, A, b, y)
        assert Fraction(got) >= want  # sound: never below the exact bound
        assert got <= float(want) + 1e-15 * (1.0 + abs(float(want)))  # and tight

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_when_nothing_rounds(self, data):
        # eighths, small: every product and sum is a float, so no ulp is added
        eighth = st.integers(-16, 16).map(lambda i: i / 8)
        m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        A = [data.draw(st.lists(eighth, min_size=n, max_size=n)) for _ in range(m)]
        c = data.draw(st.lists(eighth, min_size=n, max_size=n))
        b = data.draw(st.lists(eighth.map(abs), min_size=m, max_size=m))
        y = data.draw(st.lists(eighth, min_size=m, max_size=m))
        assert Fraction(dual_bound(c, entries_of(A), b, y)) == self.exact_bound(c, A, b, y)

    @pytest.mark.parametrize("seed", range(40))
    def test_any_dual_vector_bounds_the_optimum(self, seed):
        c, A, b = certification_form_lp(seed)
        rng = np.random.default_rng(seed)
        _, _, y = simplex_max(c, A, b)
        for trial in (y, rng.uniform(-1.0, 2.0, size=len(b)), np.zeros(len(b))):
            bound = dual_bound(c, entries_of(A), b, trial)
            assert Fraction(bound) >= self.exact_bound(c, A, b, trial)
            assert bound >= highs_max(c, A, b) - 1e-9


@pytest.mark.parametrize("case", sorted(GOLDEN_LP))
def test_lp_value_matches_golden(case):
    # bit for bit, so a changed pivot sequence shows in the last digits
    spec = dict(item.split("=") for item in case.split(","))
    graph = benchmark_graph(int(spec["seed"]))
    value = lp_upper_bound_modular(graph, int(spec["k"]), TotalUniform(int(spec["b"])))
    assert value == float(GOLDEN_LP[case])


def test_golden_lp_covers_every_case():
    want = {
        f"seed={s},b={b},k={k}"
        for s in (1, 2, 3, 9101) for b in (4, 8, 12) for k in (10, 20, 30)
    }
    assert set(GOLDEN_LP) == want


def test_golden_lps_take_the_pinned_pivots(caplog):
    # one DEBUG record per solve: (rows, columns, pivots, degenerate pivots,
    # pivots by Bland's rule, bound flips); the counts pin the pivot sequence
    # whatever its float bits
    caplog.set_level(logging.DEBUG, logger="loopselect.simplex")
    for case in GOLDEN_LP:
        spec = dict(item.split("=") for item in case.split(","))
        lp_upper_bound_modular(
            benchmark_graph(int(spec["seed"])), int(spec["k"]), TotalUniform(int(spec["b"])))
    counts = [record.args for record in caplog.records if record.name == "loopselect.simplex"]
    assert len(counts) == len(GOLDEN_LP) == 36
    assert all(c[:2] == (402, 580) for c in counts)
    assert tuple(sum(c[i] for c in counts) for i in range(2, 6)) == (4042, 4016, 74, 669)


def test_pivot_counts_make_no_record_below_debug(caplog):
    caplog.set_level(logging.INFO, logger="loopselect")
    simplex_max(*BEALE)
    assert caplog.records == []


def golden_instance(regime, b, graph):
    """``(graph, cb)`` of a golden case: tn weighs the vertices, iu reads one limit per robot."""
    if regime == "tu":
        return graph, TotalUniform(int(b))
    if regime == "tn":
        weights = [Vertex(v.id, v.robot, 0.5 + (7 * v.id % 5) * 0.25) for v in graph.vertices]
        return ExchangeGraph(graph.num_robots, weights, graph.edges), TotalNonuniform(float(b))
    return graph, IndividualUniform.by_robot(graph, [int(limit) for limit in b.split("/")])


@pytest.mark.parametrize("case", sorted(GOLDEN["regimes"]["values"]))
def test_lp_value_matches_golden_under_every_regime(case):
    regime, *fields = case.split(",")
    spec = dict(item.split("=") for item in fields)
    graph, cb = golden_instance(regime, spec["b"], benchmark_graph(int(spec["seed"])))
    value = lp_upper_bound_modular(graph, int(spec["k"]), cb)
    assert value == float(GOLDEN["regimes"]["values"][case])


@pytest.mark.parametrize("case", sorted(GOLDEN["ilp"]["cases"]))
def test_ilp_value_and_branching_match_golden(case):
    regime, shape, *fields = case.split(",")
    spec = dict(item.split("=") for item in fields)
    robots, rest = shape.split("x")
    per_robot, edges = rest.split("/")
    graph = generate_exchange_graph(GenSpec(
        num_robots=int(robots), vertices_per_robot=int(per_robot), num_edges=int(edges),
        seed=int(spec["seed"]),
    ))
    graph, cb = golden_instance(regime, spec["b"], graph)
    stats = {}
    value = ilp_opt_modular(graph, int(spec["k"]), cb, stats=stats)
    want, nodes, lp_solves = GOLDEN["ilp"]["cases"][case]
    assert (value, stats["nodes"], stats["lp_solves"]) == (float(want), nodes, lp_solves)


def test_golden_branching_covers_every_regime():
    cases = GOLDEN["ilp"]["cases"].items()
    assert {case.split(",")[0] for case, _ in cases} == {"tu", "tn", "iu"}
    assert any(nodes > 1 for _, (_, nodes, _) in cases)


def test_runtime_does_not_import_scipy():
    code = (
        "import sys\n"
        "import loopselect.cli\n"
        "from loopselect import TotalUniform, demo_rendezvous_graph, ilp_opt_modular,"
        " lp_upper_bound_modular\n"
        "g = demo_rendezvous_graph()\n"
        "lp_upper_bound_modular(g, 3, TotalUniform(2))\n"
        "ilp_opt_modular(g, 3, TotalUniform(2))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(loopselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
