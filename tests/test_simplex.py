"""Direct tests of the dense boxed simplex and its dual bound, with scipy's HiGHS as an
independent oracle. Both take A as its nonzeros: ``entries_of`` turns the dense A
that HiGHS reads into that form.

scipy is a test-only dependency: the package itself must never import it, which
the last test checks in a fresh interpreter.
"""

import contextlib
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
from loopselect.simplex import Nonzeros, dual_bound, simplex_max

from conftest import reference_simplex_max, time_limit

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
    """The nonzeros of a dense A as ``simplex_max`` and ``dual_bound`` read them."""
    A = np.asarray(A, dtype=float)
    rows, cols = np.nonzero(A)
    return Nonzeros(rows, cols, A[rows, cols], A.shape)


def assert_optimal_point(c, A, b, x, value):
    """``x`` is in the box, meets the rows of A (a :class:`Nonzeros`) and is worth ``value``."""
    assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)
    Ax = np.bincount(A.rows, weights=A.vals * x[A.cols], minlength=A.shape[0])
    assert np.all(Ax <= np.asarray(b) + 1e-9)
    assert float(np.dot(c, x)) == pytest.approx(value, rel=1e-9, abs=1e-9)


@contextlib.contextmanager
def debug_args(*names):
    """The args of every DEBUG record the named loggers emit inside the block, by logger."""
    records = {name: [] for name in names}
    handlers = []
    for name in names:
        handler = logging.Handler(logging.DEBUG)
        handler.emit = lambda record, into=records[name]: into.append(record.args)
        logger = logging.getLogger(name)
        handlers.append((logger, handler, logger.level))
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        for logger, handler, level in handlers:
            logger.removeHandler(handler)
            logger.setLevel(level)


def assert_runs_as_the_reference(c, A, b):
    """``simplex_max`` and ``conftest.reference_simplex_max`` agree bit for bit: x,
    value, y and the DEBUG record (pivots, degenerate, by Bland's rule, flips)."""
    reference = reference_simplex_max.__module__
    with debug_args("loopselect.simplex", reference) as records:
        x, value, y = simplex_max(c, A, b)
        want_x, want_value, want_y = reference_simplex_max(c, A, b)
    assert x.tobytes() == want_x.tobytes()
    assert value.hex() == want_value.hex()
    assert y.tobytes() == want_y.tobytes()
    assert len(records[reference]) == 1
    assert records["loopselect.simplex"] == records[reference]
    return records[reference][0]


def assert_agrees_with_highs(c, A, b):
    entries = entries_of(A)
    with time_limit(10):
        x, value, y = simplex_max(c, entries, b)
    want = highs_max(c, A, b)
    assert value == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert_optimal_point(c, entries, b, x, value)
    assert np.all(y >= 0) and y.shape == (len(b),)
    assert dual_bound(c, entries, b, y) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestTermination:
    def test_beale_cycling_example(self):
        # Beale (1955): Dantzig's rule with lowest-index ties cycles here
        c, A, b = BEALE
        with time_limit(10):
            x, value, _ = simplex_max(c, entries_of(A), b)
        assert value == pytest.approx(1.25, abs=1e-12)
        assert_optimal_point(c, entries_of(A), b, x, value)

    def test_unbounded_without_the_box_returns_the_box_vertex(self):
        # unbounded over x >= 0; the box stops it at (1, 1), HiGHS's value 2
        c, A, b = [1.0, 1.0], [[1.0, -1.0]], [1.0]
        with time_limit(10):
            x, value, y = simplex_max(c, entries_of(A), b)
        assert list(x) == [1.0, 1.0]
        assert value == highs_max(c, A, b) == 2.0
        assert dual_bound(c, entries_of(A), b, y) == 2.0

    def test_negative_rhs_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            simplex_max([1.0], entries_of([[1.0], [-1.0]]), [1.0, -0.5])

    def test_inconsistent_dimensions_raise(self):
        with pytest.raises(ValueError, match="dimensions"):
            simplex_max([1.0, 1.0], entries_of([[1.0]]), [1.0])

    @pytest.mark.parametrize("row, col", [(1, 0), (0, 2), (-1, 0), (0, -1)])
    def test_a_nonzero_outside_the_shape_raises(self, row, col):
        # row 1 of a 1x2 A would land in the tableau's objective row, column 2 on a slack
        A = Nonzeros(np.array([row]), np.array([col]), np.array([1.0]), (1, 2))
        with pytest.raises(ValueError, match="dimensions"):
            simplex_max([1.0, 1.0], A, [1.0])

    def test_np_shape_reads_the_nonzeros_shape(self):
        # tracing wrappers size an LP with np.shape(A), as they would a dense A
        assert np.shape(entries_of(np.ones((3, 5)))) == (3, 5)


class TestInputChecks:
    """Each of these once gave a wrong answer, an unhelpful error or no answer at all."""

    ONE_ROW = Nonzeros(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]), (1, 2))

    def test_a_nan_cost_raises_instead_of_hanging(self):
        # argmin lands on the NaN, which no tolerance test stops: the loop never exited
        with time_limit(3), pytest.raises(ValueError, match="finite"):
            simplex_max(np.array([np.nan, 1.0]), self.ONE_ROW, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["c", "b", "A"])
    def test_a_non_finite_coefficient_raises_in_both(self, where, bad):
        # an infinite cost once came back as the value inf
        c, b, vals = np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0])
        {"c": c, "b": b, "A": vals}[where][0] = bad
        A = self.ONE_ROW._replace(vals=vals)
        with time_limit(3):
            with pytest.raises(ValueError, match="finite"):
                simplex_max(c, A, b)
            with pytest.raises(ValueError, match="finite"):
                dual_bound(c, A, b, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_dual_raises(self, bad):
        # y = [nan] once came back as the "bound" nan, y = [inf] as fsum's "-inf + inf"
        with time_limit(3), pytest.raises(ValueError, match="duals must be finite"):
            dual_bound([1.0, 1.0], self.ONE_ROW, [1.0], [bad])

    def test_a_dual_per_row(self):
        with pytest.raises(ValueError, match="dimensions"):
            dual_bound([1.0, 1.0], self.ONE_ROW, [1.0], [1.0, 1.0])

    def test_a_repeated_position_raises_in_both(self):
        # (0, 0) twice as 0.5: the tableau kept one 0.5 (x = [1, 0.5], value 1.5),
        # dual_bound summed both (bound 1.0) for the same object
        A = Nonzeros(np.array([0, 0, 0]), np.array([0, 0, 1]), np.array([0.5, 0.5, 1.0]), (1, 2))
        with time_limit(3):
            with pytest.raises(ValueError, match="inconsistent LP"):
                simplex_max([1.0, 1.0], A, [1.0])
            with pytest.raises(ValueError, match="inconsistent LP"):
                dual_bound([1.0, 1.0], A, [1.0], [1.0])

    @pytest.mark.parametrize("short", ["rows", "cols", "vals"])
    def test_nonzeros_of_unequal_lengths_raise_in_both(self, short):
        # a length-1 vals once broadcast into the tableau; dual_bound raised IndexError
        A = self.ONE_ROW._replace(**{short: getattr(self.ONE_ROW, short)[:1]})
        with time_limit(3):
            with pytest.raises(ValueError, match="inconsistent LP dimensions"):
                simplex_max([1.0, 1.0], A, [1.0])
            with pytest.raises(ValueError, match="inconsistent LP dimensions"):
                dual_bound([1.0, 1.0], A, [1.0], [1.0])

    @pytest.mark.parametrize("row, col", [(1, 0), (0, 2), (-1, 0), (0, -1), (1, -2)])
    def test_dual_bound_rejects_a_nonzero_outside_the_shape(self, row, col):
        # (1, -2) lands on the flat position of (0, 0) in a 2-column A
        A = Nonzeros(np.array([row]), np.array([col]), np.array([1.0]), (1, 2))
        with pytest.raises(ValueError, match="dimensions"):
            dual_bound([1.0, 1.0], A, [1.0], [1.0])


class TestAgainstTheReference:
    """``simplex_max`` against the kernel it replaced (``conftest``): the same IEEE
    operations in fewer array calls, so every pivot and every bit agree."""

    entry = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]),
                      st.floats(-3.0, 3.0))
    rhs = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 3.0))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_random_boxed_lps(self, data):
        # zero right-hand sides make degenerate vertices and ratio ties; a short
        # stall runs Bland's entering rule; a tiny block splits every update
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        A = np.array(data.draw(st.lists(st.lists(self.entry, min_size=n, max_size=n),
                                        min_size=m, max_size=m)))
        c = data.draw(st.lists(self.entry, min_size=n, max_size=n))
        b = data.draw(st.lists(self.rhs, min_size=m, max_size=m))
        stall = data.draw(st.sampled_from([0, 1, 2, simplex.STALL]))
        block = data.draw(st.sampled_from([1, 3, simplex.UPDATE_BLOCK]))
        with pytest.MonkeyPatch.context() as mp, time_limit(10):
            mp.setattr(simplex, "STALL", stall)
            mp.setitem(reference_simplex_max.__globals__, "STALL", stall)
            mp.setattr(simplex, "UPDATE_BLOCK", block)
            assert_runs_as_the_reference(c, entries_of(A), b)

    def test_beale_reaches_blands_rule(self):
        # Dantzig's rule cycles on Beale's example until STALL sends it to Bland's
        with time_limit(10):
            record = assert_runs_as_the_reference(BEALE[0], entries_of(BEALE[1]), BEALE[2])
        assert record[4] > 0

    @pytest.mark.parametrize("b, k", [(4, 30), (12, 10)])
    def test_tiny_update_blocks_change_no_bit(self, b, k, monkeypatch):
        # seed 1, b = 4, k = 30 has a 24 x 582 update; one row per block splits it 24 ways
        # against the reference, which runs every update as one block
        solved = []
        monkeypatch.setattr(certify, "simplex_max", lambda *lp: solved.append(lp) or simplex_max(*lp))
        lp_upper_bound_modular(benchmark_graph(1), k, TotalUniform(b))
        [lp] = solved
        monkeypatch.setattr(simplex, "UPDATE_BLOCK", 1)
        assert_runs_as_the_reference(*lp)


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
            assert isinstance(A, Nonzeros)
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
            _, value, _ = simplex_max(BEALE[0], entries_of(BEALE[1]), BEALE[2])
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
        _, _, y = simplex_max(c, entries_of(A), b)
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
    simplex_max(BEALE[0], entries_of(BEALE[1]), BEALE[2])
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
