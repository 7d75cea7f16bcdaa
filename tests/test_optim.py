"""Optimizer kit: simplex, scalar scan, projected gradient, Gauss-Newton root solves."""
import numpy as np
import pytest

from qoct import optim
from qoct.optim import (
    ROOT_TOL,
    _DAMPING,
    _lm_steps,
    box_root,
    dip_roots,
    gauss_newton,
    golden_section,
    grid_vertex,
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
        r = nelder_mead(quadratic, np.zeros(4), 4000, 1e-14)
        assert np.max(np.abs(r.x - 1.0)) < 1e-6

    def test_rosenbrock(self):
        r = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), 8000, 1e-16)
        assert r.fun < 1e-8
        assert np.max(np.abs(r.x - 1.0)) < 1e-3

    def test_bound_active_optimum_respects_bounds(self):
        r = nelder_mead(quadratic, np.zeros(2), 2000, 1e-14, bounds=((-1.0, 0.5), (-1.0, 0.5)))
        assert np.all(r.x <= 0.5) and np.all(r.x >= -1.0)
        assert np.max(np.abs(r.x - 0.5)) < 1e-6

    def test_nan_aborts(self):
        def bad(x):
            return np.nan
        with pytest.raises(RuntimeError):
            nelder_mead(bad, np.zeros(2), 2000, 1e-10)

    def test_deterministic_restarts(self):
        def draw(rng):
            return rng.uniform(-2.0, 2.0, 3)
        r1 = nelder_mead_restarts(rosenbrock_3, np.zeros(3), draw, 5, 2000, 1e-10,
                                  bounds=((-2.0, 2.0),) * 3)
        r2 = nelder_mead_restarts(rosenbrock_3, np.zeros(3), draw, 5, 2000, 1e-10,
                                  bounds=((-2.0, 2.0),) * 3)
        assert np.array_equal(r1.x, r2.x)
        assert r1.fun == r2.fun

    def test_status_reported(self):
        r = nelder_mead(quadratic, np.zeros(2), 3, 1e-10)
        assert r.status == "max-iter"


def lane_objectives(n):
    """Eight scalar objectives, one per problem: shifted quadratics,
    Rosenbrock-like valleys, sines and rugged bowls (whose simplexes shrink)."""
    rng = np.random.default_rng(n)
    out = []
    for i in range(8):
        c = rng.uniform(-1.5, 1.5, n)
        if i % 4 == 0:
            out.append(lambda x, c=c: float(np.sum((np.asarray(x) - c) ** 2)))
        elif i % 4 == 1:
            out.append(lambda x, c=c: float(np.sum(100.0 * (x - c) ** 2 * (1 + x[0] ** 2))
                                             + (1.0 - x[0]) ** 2))
        elif i % 4 == 2:
            out.append(lambda x, c=c: float(np.sum(np.sin(3.0 * x + c)) + 0.1 * np.sum(x ** 2)))
        else:
            out.append(lambda x, c=c: float(np.sum(np.cos(37.0 * (x - c)) + 0.5 * (x - c) ** 2)))
    return out


def reference_nelder_mead(f, x0, lo, hi, max_iter, tol):
    """Sequential one-point Nelder-Mead, written apart from ``optim.nelder_mead``.

    The rules it shares with ``nelder_mead``: coefficients 1, 2, 1/2, 1/2; an
    axis-aligned start of 5% of each box side (0.05 on a flat side,
    0.05 max(|x0|, 1) unbounded, 1e-8 where the step is lost in x0); every
    point clipped into the box; vertices ordered by ``np.argsort`` (its
    tie order); the centroid summed in vertex order; a stop once
    |f_worst - f_best| <= tol (1 + |f_best|), then the first best vertex.
    Returns (x, fun, status, n_eval, iterations stepped, shrinking iterations).
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if lo is None:
        clip = lambda x: x
        step = 0.05 * np.maximum(np.abs(x0), 1.0)
    else:
        lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
        clip = lambda x: np.minimum(np.maximum(x, lo), hi)
        step = np.where(hi > lo, 0.05 * (hi - lo), 0.05)
    base = clip(x0)
    simplex = [base]
    for i in range(n):
        v = base.copy()
        v[i] += step[i] if base[i] + step[i] != base[i] else 1e-8
        simplex.append(clip(v))
    fs = [f(v) for v in simplex]
    n_eval, shrinks, status = n + 1, [], "max-iter"
    for it in range(max_iter):
        order = np.argsort(fs)
        simplex, fs = [simplex[i] for i in order], [fs[i] for i in order]
        if abs(fs[-1] - fs[0]) <= tol * (1.0 + abs(fs[0])):
            status = "converged"
            break
        c = sum(simplex[:-1]) / n
        w = simplex[-1]
        xr = clip(c + 1.0 * (c - w))
        fr = f(xr)
        n_eval += 1
        if fr < fs[0]:
            xe = clip(c + 2.0 * (c - w))
            fe = f(xe)
            n_eval += 1
            simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            simplex[-1], fs[-1] = xr, fr
        else:
            xc = clip(c + 0.5 * (w - c))
            fc = f(xc)
            n_eval += 1
            if fc < fs[-1]:
                simplex[-1], fs[-1] = xc, fc
            else:
                b = simplex[0]
                simplex = [b] + [clip(b + 0.5 * (v - b)) for v in simplex[1:]]
                fs = [fs[0]] + [f(v) for v in simplex[1:]]
                n_eval += n
                shrinks.append(it)
    else:
        it = max_iter
    best = int(np.argmin(fs))
    return simplex[best], fs[best], status, n_eval, it, shrinks


def assert_matches_reference(r, ref):
    assert np.array_equal(r.x, ref[0])
    assert r.fun == ref[1]
    assert (r.status, r.n_eval) == ref[2:4]


def lane_problem(n):
    """Mixed problems on boxes with a flat side, the rugged ones twice, and an
    iteration cap at which some runs have converged and the others have
    not."""
    fs = lane_objectives(n)
    rng = np.random.default_rng(10 + n)
    starts = rng.uniform(-1.0, 1.0, (len(fs), n))
    lo = np.repeat(rng.uniform(-2.0, -0.5, (len(fs), 1)), n, axis=1)
    hi = rng.uniform(0.2, 2.0, (len(fs), n))
    hi[1, 0] = lo[1, 0]  # a degenerate box side
    twins = np.arange(3, len(fs), 4)
    fs += [fs[b] for b in twins]
    starts, lo, hi = (np.vstack([a, a[twins]]) for a in (starts, lo, hi))
    return fs, starts, lo, hi, {1: 15, 2: 40, 3: 60}[n]


class TestReference:
    """Every simplex entry point against the sequential reference, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bounded_lanes(self, n):
        fs, starts, lo, hi, max_iter = lane_problem(n)
        runs = [nelder_mead(f, x, max_iter, 1e-10, bounds=tuple(zip(a, b)))
                for f, x, a, b in zip(fs, starts, lo, hi)]
        assert {r.status for r in runs} == {"converged", "max-iter"}
        refs = [reference_nelder_mead(f, x, a, b, max_iter, 1e-10)
                for f, x, a, b in zip(fs, starts, lo, hi)]
        assert any(ref[5] for ref in refs)
        for b, (r, ref) in enumerate(zip(runs, refs)):
            assert_matches_reference(r, ref)
            assert np.all(r.x >= lo[b]) and np.all(r.x <= hi[b])

    def test_unbounded_lanes(self):
        fs = lane_objectives(2)
        starts = np.random.default_rng(3).uniform(-1.0, 1.0, (len(fs), 2))
        for f, x in zip(fs, starts):
            ref = reference_nelder_mead(f, x, None, None, 200, 1e-12)
            assert_matches_reference(nelder_mead(f, x, 200, 1e-12), ref)

    @pytest.mark.parametrize("bounds", [None, ((-2.0, 2.0),) * 3], ids=["free", "box"])
    def test_restarts_pick_the_first_lowest_reference_run(self, bounds):
        def draw(rng):
            return rng.uniform(-2.0, 2.0, 3)
        lo, hi = (None, None) if bounds is None else (-2.0, 2.0)
        best = nelder_mead_restarts(rosenbrock_3, np.zeros(3), draw, 5, 300, 1e-10,
                                    bounds=bounds)
        rng = np.random.default_rng(0)
        starts = [np.zeros(3)] + [draw(rng) for _ in range(4)]
        refs = [reference_nelder_mead(rosenbrock_3, s, lo, hi, 300, 1e-10) for s in starts]
        assert_matches_reference(best, min(refs, key=lambda ref: ref[1]))


class TestCallCounts:
    @pytest.mark.parametrize("bounds", [None, ((-2.0, 2.0),) * 3], ids=["free", "box"])
    def test_scalar_objective_called_once_per_counted_point(self, bounds):
        seen = []

        def f(x):
            seen.append(1)
            return rosenbrock_3(x)

        def draw(rng):
            return rng.uniform(-2.0, 2.0, 3)
        nelder_mead_restarts(f, np.zeros(3), draw, 5, 300, 1e-10, bounds=bounds)
        lo, hi = (None, None) if bounds is None else (-2.0, 2.0)
        rng = np.random.default_rng(0)
        starts = [np.zeros(3)] + [draw(rng) for _ in range(4)]
        assert len(seen) == sum(reference_nelder_mead(rosenbrock_3, s, lo, hi, 300, 1e-10)[3]
                                for s in starts)
        seen.clear()
        r = nelder_mead(f, np.zeros(3), 300, 1e-10, bounds=bounds)
        assert len(seen) == r.n_eval

    def test_restarts_are_runs_of_the_module_nelder_mead(self, monkeypatch):
        # the benchmark tracer counts restart runs by wrapping optim.nelder_mead;
        # every restart ends on the flat floor |x| <= 0.5, so the first run wins
        runs = []

        def spy(*args, **kwargs):
            runs.append(nelder_mead(*args, **kwargs))
            return runs[-1]

        def f(x):
            return float(max(abs(x[0]) - 0.5, 0.0))
        monkeypatch.setattr(optim, "nelder_mead", spy)
        best = nelder_mead_restarts(f, np.array([2.5]), lambda rng: rng.uniform(-3.0, 3.0, 1),
                                    5, 2000, 1e-10, bounds=((-3.0, 3.0),))
        assert len(runs) == 5 and {r.fun for r in runs} == {0.0}
        assert best is runs[0]


class TestLockstep:
    """Restarts and bounds: a NaN in any run aborts, inverted bounds are
    rejected, and the first run at the lowest cost wins."""

    def test_nan_in_one_lane_aborts(self):
        # the third restart starts where the objective is NaN
        def f(x):
            return np.nan if x[0] < -2.0 else float(np.sum(x ** 2))

        starts = iter([np.array([1.0, 1.0]), np.array([-2.5, 1.0]), np.array([2.0, 2.0])])
        with pytest.raises(RuntimeError, match="NaN"):
            nelder_mead_restarts(f, np.ones(2), lambda rng: next(starts), 4, 100, 1e-10,
                                 bounds=((-3.0, 3.0),) * 2)

        # NaN only at the points a step discards: lane 2's objective is NaN
        # off the points its sequential run evaluates, which that run never sees
        visited = set()

        def record(x):
            visited.add(tuple(x))
            return quadratic(x)
        alone = reference_nelder_mead(record, np.ones(2), -3.0, 3.0, 100, 1e-10)

        def g(X, lanes):
            return [np.nan if b == 2 and tuple(x) not in visited else quadratic(x)
                    for x, b in zip(X, lanes)]
        assert_matches_reference(nelder_mead(lambda x: g(x[None], [2])[0], np.ones(2), 100,
                                             1e-10, bounds=((-3.0, 3.0),) * 2), alone)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda x: 0.0, np.zeros(2), 10, 1e-10, bounds=((0.0, 1.0), (0.5, 0.4)))

    def test_restarts_return_first_lane_at_the_minimum(self):
        # every restart ends on the flat floor |x| <= 0.5, each at its own x
        def f(x):
            return float(max(abs(x[0]) - 0.5, 0.0))
        def draw(rng):
            return np.array([rng.uniform(-3.0, 3.0)])
        bounds = ((-3.0, 3.0),)
        best = nelder_mead_restarts(f, np.array([2.5]), draw, 5, 2000, 1e-10, bounds=bounds)
        rng = np.random.default_rng(0)
        starts = [np.array([2.5])] + [draw(rng) for _ in range(4)]
        runs = [nelder_mead(f, s, 2000, 1e-10, bounds=bounds) for s in starts]
        assert len({float(r.x[0]) for r in runs}) > 1 and {r.fun for r in runs} == {0.0}
        assert np.array_equal(best.x, runs[0].x)


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

        r = projected_gradient(f, g, np.zeros(3), (-1.0, 1.0), 4000, 1e-14)
        # unconstrained optimum (2, 0.5, 2/9) clipped at the box in dim 0
        np.testing.assert_allclose(r.x, [1.0, 0.5, 2.0 / 9.0], atol=1e-8)

    def test_monotone_trace(self):
        A = np.diag([1.0, 10.0])
        f = lambda x: float(0.5 * x @ A @ x)
        g = lambda x: A @ x
        accepted = []

        def g_watch(x):
            # the gradient is taken once per iteration, at the accepted iterate
            accepted.append(f(x))
            return g(x)

        r = projected_gradient(f, g_watch, np.array([1.0, 1.0]), (-2.0, 2.0), 200, 1e-12)
        diffs = np.diff(accepted + [r.fun])
        assert len(diffs) > 1 and np.all(diffs <= 0.0)

    def test_target_stop(self):
        f = lambda x: float(np.sum(x ** 2))
        g = lambda x: 2.0 * x
        r = projected_gradient(f, g, np.full(4, 3.0), (-5.0, 5.0), 2000, 1e-10, target=1e-10)
        assert r.fun <= 1e-10
        assert r.status == "converged"

    def test_max_step_cap(self):
        f = lambda x: float(np.sum(x ** 2))
        g = lambda x: 2.0 * x
        trace = [np.full(2, 4.0)]

        def f_watch(x):
            trace.append(np.array(x))
            return f(x)

        projected_gradient(f_watch, g, trace[0], (-5.0, 5.0), 50, 1e-10,
                           step0=100.0, max_step=0.1)
        moves = [np.max(np.abs(b - a)) for a, b in zip(trace[1:], trace[2:])]
        assert max(moves) <= 0.1 + 1e-12


def same(X, lanes):
    return X


def one_lane(f, x0, max_steps=25, repair=same):
    """``gauss_newton`` on one lane of the row function ``f(X)``."""
    (r,) = gauss_newton(lambda X, lanes: f(X), [x0], 1e-7, 1e-20, max_steps, repair)
    return r


class TestGaussNewton:
    @staticmethod
    def circle_and_line(X):
        # x0^2 + x1^2 = 2 and x0 = x1: roots (1, 1) and (-1, -1)
        X = np.asarray(X)
        return np.column_stack([X[:, 0] ** 2 + X[:, 1] ** 2 - 2.0, X[:, 0] - X[:, 1]])

    def test_square_system_converges_to_root(self):
        r = one_lane(self.circle_and_line, [2.0, 0.5])
        assert r.status == "converged" and r.fun <= 1e-20
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-10)
        assert 0 < r.n_iter <= 25

    def test_one_call_of_n_plus_1_rows_per_accepted_step(self):
        calls = []

        def f(X):
            calls.append(len(X))
            return self.circle_and_line(X)

        r = one_lane(f, [2.0, 0.5])
        assert set(calls) == {3}
        assert r.n_eval == sum(calls)
        # no step of this solve needed damping
        assert len(calls) == r.n_iter + 1

    def test_underdetermined_step_is_minimum_norm(self):
        # two equations a.x = 1 and b.x = 0 in three unknowns: the first step
        # from 0 lands on the nearest root, the minimum-norm solution
        A = np.array([[1.0, 2.0, -2.0], [0.5, -1.0, 3.0]])
        r = one_lane(lambda X: np.asarray(X) @ A.T - [1.0, 0.0], np.zeros(3))
        np.testing.assert_allclose(r.x, np.linalg.pinv(A) @ [1.0, 0.0], atol=1e-8)
        assert r.n_iter <= 2

    def test_rank_one_start_is_damped_not_thrown_away(self):
        # at the start both equations have the gradient (1, 1), so J has
        # rank one and the undamped step is very long; damped steps reach a
        # root, x0 = 0.5 or 0.1 on the line x0 + x1 = 1
        def f(X):
            X = np.asarray(X)
            s = X[:, 0] + X[:, 1] - 1.0
            return np.column_stack([s, s + (X[:, 0] - 0.3) ** 2 - 0.04])

        r = one_lane(f, [0.3, 0.2])
        assert r.status == "converged"
        assert min(abs(r.x[0] - 0.5), abs(r.x[0] - 0.1)) < 1e-9
        assert r.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_no_root_stalls_early(self):
        # |F|^2 = (x^2 + 1)^2 + x^2 >= 1 everywhere: the solve stops when
        # steps stop paying
        r = one_lane(lambda X: np.column_stack([np.asarray(X)[:, 0] ** 2 + 1.0,
                                                np.asarray(X)[:, 0]]), [3.0])
        assert r.status == "stalled" and r.n_iter < 25
        assert r.fun >= 1.0

    def test_repair_keeps_every_evaluated_iterate_in_the_domain(self):
        seen = []

        def f(X):
            seen.append(np.array(X[0]))
            return self.circle_and_line(X)

        r = one_lane(f, [2.0, 0.5], repair=lambda X, lanes: np.clip(X, 0.2, 1.5))
        assert all(np.all((0.2 <= x) & (x <= 1.5)) for x in seen)
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-10)

    def test_nonfinite_start_raises(self):
        with pytest.raises(RuntimeError, match="not finite"):
            one_lane(lambda X: np.full((len(X), 2), np.nan), [1.0])

    def test_step_cap_reports_max_iter(self):
        r = one_lane(self.circle_and_line, [2.0, 0.5], max_steps=1)
        assert r.status == "max-iter" and r.n_iter == 1 and r.fun > 1e-20

    def test_lanes_take_the_steps_and_bits_of_each_lane_alone(self):
        # lanes of four problems, one of them twice, and a lane converged at
        # its start: each result has the bits of the lane solved alone, and
        # each round is one call over the active lanes
        problems = [
            (self.circle_and_line, [2.0, 0.5]),
            (lambda X: np.column_stack([np.sin(X[:, 0]) + X[:, 1] ** 2 - 0.5,
                                        X[:, 0] * X[:, 1] - 0.1]), [0.3, 0.9]),
            (lambda X: np.column_stack([X[:, 0] ** 2 + 1.0, X[:, 1]]), [3.0, 0.2]),
            (self.circle_and_line, [-3.0, -0.5]),
            (self.circle_and_line, [1.0, 1.0]),
            (self.circle_and_line, [2.0, 0.5]),
        ]
        calls = []

        def f(X, lanes):
            calls.append(len(X))
            return np.vstack([problems[b][0](x[None]) for x, b in zip(X, lanes)])

        def box(X, lanes):
            return np.clip(X, -2.5, 2.5)

        runs = gauss_newton(f, [x0 for _, x0 in problems], 1e-7, 1e-20, 25, box)
        alone = [one_lane(g, x0, repair=box) for g, x0 in problems]
        assert {r.status for r in runs} == {"converged", "stalled"}
        for r, a in zip(runs, alone):
            assert (r.x.tobytes(), r.fun, r.status, r.n_iter, r.n_eval) == \
                (a.x.tobytes(), a.fun, a.status, a.n_iter, a.n_eval)
        assert len(calls) == max(a.n_eval for a in alone) // 3
        assert sum(calls) == sum(a.n_eval for a in alone)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_damped_steps_solve_the_stacked_least_squares_system(self, n):
        # against lstsq on [J; sqrt(lam |J|^2) I] s = [-F; 0], rank-deficient
        # and zero Jacobians included; lstsq itself loses up to 4e-9 of the
        # damped steps of a rank-one J, which the closed form keeps exact
        rng = np.random.default_rng(n)
        J = rng.normal(size=(40, 2, n))
        J[5:15, 1] = 2.0 * J[5:15, 0]  # rank one
        J[15:17] = 0.0
        F = rng.normal(size=(40, 2))
        lam = rng.choice(_DAMPING, 40)
        lam[:10] = 0.0
        S = _lm_steps(J, F, lam)
        for j, f, l, s in zip(J, F, lam, S):
            A = np.vstack([j, np.sqrt(l * np.sum(j * j)) * np.eye(n)])
            ref = np.linalg.lstsq(A, np.r_[-f, np.zeros(n)], rcond=None)[0]
            np.testing.assert_allclose(s, ref, rtol=0.0, atol=1e-8 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("lanes", [1, 8, 96])
    def test_damped_steps_keep_the_bits_of_three_gram_dot_products(self, n, lanes):
        # the Gram entries come from one batched product; the steps must be
        # bit for bit those of taking p, q and t as three separate dot products
        rng = np.random.default_rng(100 * n + lanes)
        J = rng.normal(size=(lanes, 2, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (lanes, 1, 1))
        J[1::3, 1] = -1.7 * J[1::3, 0]  # rank one
        J[2::5] = 0.0
        F = rng.normal(size=(lanes, 2))
        for lam in (np.zeros(lanes), rng.choice(_DAMPING, lanes)):
            assert _lm_steps(J, F, lam).tobytes() == dot_product_lm_steps(J, F, lam).tobytes()


def dot_product_lm_steps(J, F, lam):
    """``_lm_steps`` with the Gram entries p, q and t as three dot products per lane."""
    J0, J1 = J[:, 0], J[:, 1]
    F0, F1 = F[:, 0], F[:, 1]
    p, q, t = (np.einsum("ln,ln->l", a, b) for a, b in ((J0, J0), (J0, J1), (J1, J1)))
    minors = J0[:, :, None] * J1[:, None, :] - J0[:, None, :] * J1[:, :, None]
    det = 0.5 * np.einsum("lij,lij->l", minors, minors)
    tr = p + t
    mu = lam * tr
    g = 0.5 * tr + np.hypot(0.5 * (p - t), q)
    one = det <= (np.finfo(float).eps * max(2, J.shape[2]) * g) ** 2
    d = np.where(one, np.where(g > 0.0, g * (g + mu), 1.0), det + mu * (tr + mu))
    w0 = np.where(one, p * F0 + q * F1, (t + mu) * F0 - q * F1) / d
    w1 = np.where(one, q * F0 + t * F1, (p + mu) * F1 - q * F0) / d
    return -(J0 * w0[:, None] + J1 * w1[:, None])


def synthetic(g):
    """F(T, omega) = (g(T), omega - 1) at the rows of X: roots where g(T) = 0."""
    def f_rows(X):
        X = np.asarray(X)
        return np.column_stack([g(X[:, 0]), X[:, 1] - 1.0])
    return f_rows


SCAN_TS = np.arange(2.0, 12.0, 0.1)
SCAN_WS = np.linspace(0.5, 1.5, 11)


class TestDipRoots:
    def test_roots_come_in_increasing_t(self):
        roots = list(dip_roots(synthetic(np.sin), SCAN_TS, 0.1, SCAN_WS, 1))
        assert [r.status for r in roots] == ["converged"] * 3
        np.testing.assert_allclose([r.x[0] for r in roots], np.pi * np.arange(1, 4), atol=1e-12)
        assert all(r.fun <= ROOT_TOL for r in roots)
        # the first root is the one a search takes, whatever the chunk size
        first = next(dip_roots(synthetic(np.sin), SCAN_TS, 0.1, SCAN_WS, 4))
        assert first.x.tobytes() == roots[0].x.tobytes()

    def test_root_is_held_to_its_box(self):
        # the only root, T = 5, lies outside the box: every iterate stays in
        # it, and the solve ends there without converging
        seen = []

        def f(X):
            seen.append(np.array(X[0]))
            return synthetic(lambda T: T - 5.0)(X)

        r = box_root(f, [3.0, 1.2], [2.0, 0.0], [4.0, 2.0])
        assert r.status != "converged"
        assert all(2.0 <= x[0] <= 4.0 and 0.0 <= x[1] <= 2.0 for x in seen)
        assert r.x[0] == 4.0

    def test_box_root_takes_the_earliest_converged_start(self):
        # starts near 2 pi and pi converge to their own roots, and the
        # earlier is taken; a start held off its root does not count
        f = synthetic(np.sin)
        r = box_root(f, [[6.0, 1.2], [3.5, 0.8]], [2.0, 0.0], [8.0, 2.0])
        assert r.status == "converged" and abs(r.x[0] - np.pi) < 1e-12
        r = box_root(synthetic(lambda T: T - 5.0), [[3.0, 1.2], [4.5, 1.0]], [2.0, 0.0],
                     [4.0, 2.0])
        assert r.status != "converged" and r.x[0] == 4.0

    def test_stalled_dip_is_solved_again_from_its_neighbouring_rows(self, monkeypatch):
        # the solve from the dip's vertex is made to stall; the second call
        # starts from the vertices of the rows on either side of the dip
        real, calls = optim.gauss_newton, []

        def first_stalls(f_rows, starts, *args):
            calls.append(np.array(starts))
            out = real(f_rows, starts, *args)
            if len(calls) == 1:
                out[0].status = "stalled"
            return out

        monkeypatch.setattr(optim, "gauss_newton", first_stalls)
        r = next(dip_roots(synthetic(np.sin), SCAN_TS, 0.1, SCAN_WS, 1))
        assert r.status == "converged" and abs(r.x[0] - np.pi) < 1e-12
        j = int(np.flatnonzero(SCAN_TS == calls[0][0, 0])[0]) + 1
        assert calls[0].shape == (1, 2) and calls[1].shape == (2, 2)
        np.testing.assert_array_equal(calls[1][:, 0], SCAN_TS[[j - 2, j]])

    def test_refuses_when_target_met_at_scan_start(self):
        with pytest.raises(RuntimeError, match="scan start"):
            next(dip_roots(synthetic(lambda T: T - 2.0), SCAN_TS, 0.1, SCAN_WS, 1))

    def test_yields_nothing_when_no_dip_converges(self):
        # cos(T) + 1.01 dips at pi and 3 pi without reaching zero
        solves = []

        def f(X):
            if len(X) <= 3:
                solves.append(len(X))
            return synthetic(lambda T: np.cos(T) + 1.01)(X)

        assert list(dip_roots(f, SCAN_TS, 0.1, SCAN_WS, 4)) == []
        assert solves


class TestGridVertex:
    def test_follows_a_root_between_grid_points(self):
        xs = np.linspace(0.0, 1.0, 11)
        f, x = grid_vertex((xs - 0.537) ** 2, xs)
        assert x == pytest.approx(0.537, abs=1e-12) and f == pytest.approx(0.0, abs=1e-12)

    def test_grid_end_returns_the_end_point(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert grid_vertex((xs - 1.3) ** 2, xs) == (pytest.approx(0.09), 1.0)
