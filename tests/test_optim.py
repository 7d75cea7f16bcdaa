"""Optimizer kit: simplex, scalar scan, projected gradient."""
import numpy as np
import pytest

from qoct.optim import (
    OptimizerConfig,
    golden_section,
    nelder_mead,
    nelder_mead_restarts,
    projected_gradient,
    refine_basins,
    scalar_minimize,
)


def quadratic(x):
    return float(np.sum((np.asarray(x) - 1.0) ** 2))


def rosenbrock(x):
    x = np.asarray(x)
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestNelderMead:
    def test_convex_quadratic(self):
        r = nelder_mead(quadratic, np.zeros(4), OptimizerConfig(tol=1e-14, max_iter=4000))
        assert np.max(np.abs(r.x - 1.0)) < 1e-6

    def test_rosenbrock(self):
        cfg = OptimizerConfig(max_iter=8000, tol=1e-16)
        r = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert r.fun < 1e-8
        assert np.max(np.abs(r.x - 1.0)) < 1e-3

    def test_bound_active_optimum_respects_bounds(self):
        cfg = OptimizerConfig(bounds=((-1.0, 0.5), (-1.0, 0.5)), tol=1e-14)
        r = nelder_mead(quadratic, np.zeros(2), cfg)
        assert np.all(r.x <= 0.5) and np.all(r.x >= -1.0)
        assert np.max(np.abs(r.x - 0.5)) < 1e-6

    def test_nan_aborts(self):
        def bad(x):
            return np.nan
        with pytest.raises(RuntimeError):
            nelder_mead(bad, np.zeros(2))

    def test_deterministic_restarts(self):
        cfg = OptimizerConfig(restarts=5, seed=7, bounds=((-2.0, 2.0),) * 3)
        r1 = nelder_mead_restarts(rosenbrock_3, np.zeros(3), cfg)
        r2 = nelder_mead_restarts(rosenbrock_3, np.zeros(3), cfg)
        assert np.array_equal(r1.x, r2.x)
        assert r1.fun == r2.fun

    def test_status_reported(self):
        r = nelder_mead(quadratic, np.zeros(2), OptimizerConfig(max_iter=3))
        assert r.status == "max-iter"


def rosenbrock_3(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestScalarMinimize:
    def test_unique_minimum(self):
        x, v = scalar_minimize(lambda x: (x - 2.0435) ** 2, (1.6, 2.5))
        assert abs(x - 2.0435) < 1e-8

    def test_two_basin_global_selection(self):
        def f(x):
            return min((x - 0.3) ** 2 + 0.5, 3.0 * (x - 2.1) ** 2)
        x, v = scalar_minimize(f, (0.0, 3.0))
        assert abs(x - 2.1) < 1e-8

    def test_refine_basins_finds_global_basin_of_scan(self):
        def f(x):
            return min((x - 0.3) ** 2 + 0.5, 3.0 * (x - 2.1) ** 2)
        xs = np.linspace(0.0, 3.0, 400)
        x, v = refine_basins(f, xs, [f(x) for x in xs])
        assert abs(x - 2.1) < 1e-8
        assert (x, v) == scalar_minimize(f, (0.0, 3.0))

    def test_density_doubling_stable(self):
        def f(x):
            return np.sin(5.0 * x) + 0.1 * x ** 2
        x1, _ = scalar_minimize(f, (-3.0, 3.0), n_scan=400)
        x2, _ = scalar_minimize(f, (-3.0, 3.0), n_scan=800)
        assert abs(x1 - x2) < 1e-8

    def test_golden_section(self):
        x, v = golden_section(lambda x: (x - 0.7) ** 2, 0.0, 2.0, tol=1e-12)
        assert abs(x - 0.7) < 1e-6


class TestProjectedGradient:
    def test_box_constrained_quadratic_kkt(self):
        A = np.diag([1.0, 4.0, 9.0])
        b = np.array([2.0, 2.0, 2.0])

        def f(x):
            return float(0.5 * x @ A @ x - b @ x)

        def g(x):
            return A @ x - b

        r = projected_gradient(f, g, np.zeros(3), (-1.0, 1.0),
                               OptimizerConfig(max_iter=4000, tol=1e-14))
        # unconstrained optimum (2, 0.5, 2/9) clipped at the box in dim 0
        np.testing.assert_allclose(r.x, [1.0, 0.5, 2.0 / 9.0], atol=1e-8)

    def test_monotone_trace(self):
        A = np.diag([1.0, 10.0])
        f = lambda x: float(0.5 * x @ A @ x)
        g = lambda x: A @ x
        r = projected_gradient(f, g, np.array([1.0, 1.0]), (-2.0, 2.0),
                               OptimizerConfig(max_iter=200, tol=1e-12),
                               keep_trace=True)
        diffs = np.diff(r.trace)
        assert np.all(diffs <= 0.0)

    def test_target_stop(self):
        f = lambda x: float(np.sum(x ** 2))
        g = lambda x: 2.0 * x
        r = projected_gradient(f, g, np.full(4, 3.0), (-5.0, 5.0),
                               OptimizerConfig(max_iter=2000), target=1e-10)
        assert r.fun <= 1e-10
        assert r.status == "converged"

    def test_max_step_cap(self):
        f = lambda x: float(np.sum(x ** 2))
        g = lambda x: 2.0 * x
        trace = [np.full(2, 4.0)]

        def f_watch(x):
            trace.append(np.array(x))
            return f(x)

        projected_gradient(f_watch, g, trace[0], (-5.0, 5.0),
                           OptimizerConfig(max_iter=50), step0=100.0, max_step=0.1)
        moves = [np.max(np.abs(b - a)) for a, b in zip(trace[1:], trace[2:])]
        assert max(moves) <= 0.1 + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(bounds=((1.0, 0.0),))
