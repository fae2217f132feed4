"""Direct tests of the dense simplex, with scipy's HiGHS as an independent oracle.

scipy is a test-only dependency: the package itself must never import it, which
the last test checks in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import loopselect
from loopselect import GenSpec, generate_exchange_graph
from loopselect.certify import _modular_lp
from loopselect.simplex import simplex_max

from conftest import time_limit


def highs_max(c, A, b, bounds=(0, None)):
    res = linprog(-np.asarray(c), A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def assert_optimal_point(c, A, b, x, value):
    assert np.all(x >= -1e-9)
    assert np.all(np.asarray(A) @ x <= np.asarray(b) + 1e-9)
    assert float(np.dot(c, x)) == pytest.approx(value, rel=1e-9, abs=1e-9)


class TestTermination:
    def test_beale_cycling_example(self):
        # Beale (1955): Dantzig's rule with lowest-index ties cycles here
        c = [0.75, -20.0, 0.5, -6.0]
        A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
        b = [0.0, 0.0, 1.0]
        with time_limit(10):
            x, value = simplex_max(c, A, b)
        assert value == pytest.approx(1.25, abs=1e-12)
        assert_optimal_point(c, A, b, x, value)

    def test_unbounded_raises(self):
        with time_limit(10), pytest.raises(ValueError, match="unbounded"):
            simplex_max([1.0, 1.0], [[1.0, -1.0]], [1.0])

    def test_negative_rhs_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            simplex_max([1.0], [[1.0], [-1.0]], [1.0, -0.5])

    def test_inconsistent_dimensions_raise(self):
        with pytest.raises(ValueError, match="dimensions"):
            simplex_max([1.0, 1.0], [[1.0]], [1.0])


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_certification_form(self, seed):
        # A x <= b with b >= 0, zero right-hand sides for degeneracy, and
        # upper bounds on every variable as rows of A
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, 12))
        A = rng.choice([-1.0, 0.0, 0.0, 0.0, 0.5, 1.0], size=(m, n))
        b = rng.choice([0.0, 0.0, 1.0, 2.5], size=m)
        A = np.vstack([A, np.eye(n)])
        b = np.concatenate([b, rng.integers(1, 4, size=n).astype(float)])
        c = rng.uniform(-0.5, 1.0, size=n)
        with time_limit(10):
            x, value = simplex_max(c, A, b)
        assert value == pytest.approx(highs_max(c, A, b), rel=1e-9, abs=1e-9)
        assert_optimal_point(c, A, b, x, value)

    @pytest.mark.parametrize("seed", range(12))
    def test_modular_lp_with_fixed_vertices(self, seed):
        graph = generate_exchange_graph(
            GenSpec(num_robots=3, vertices_per_robot=5, num_edges=30, seed=seed)
        )
        rng = np.random.default_rng(seed)
        perm = [int(v) for v in rng.permutation(graph.num_vertices)]
        fixed0, fixed1 = frozenset(perm[:3]), frozenset(perm[3:5])
        for b, k in ((2, 4), (4, 8), (7, 30)):
            pi, value = _modular_lp(graph, k, b, fixed0, fixed1)
            # oracle: all vertices as variables, fixed ones pinned by bounds
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
            assert value == pytest.approx(highs_max(c, A, rhs, bounds), rel=1e-9, abs=1e-9)
            assert set(pi) == set(range(n)) - fixed0 - fixed1
            assert all(-1e-9 <= v <= 1 + 1e-9 for v in pi.values())

    def test_modular_lp_infeasible_when_too_many_fixed_to_one(self):
        graph = generate_exchange_graph(
            GenSpec(num_robots=2, vertices_per_robot=3, num_edges=5, seed=0)
        )
        assert _modular_lp(graph, 3, 1, fixed1=frozenset({0, 1})) is None


def test_runtime_does_not_import_scipy():
    code = (
        "import sys\n"
        "import loopselect.cli\n"
        "from loopselect import demo_rendezvous_graph, ilp_opt_modular, lp_upper_bound_modular\n"
        "g = demo_rendezvous_graph()\n"
        "lp_upper_bound_modular(g, 3, 2)\n"
        "ilp_opt_modular(g, 3, 2)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(loopselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
