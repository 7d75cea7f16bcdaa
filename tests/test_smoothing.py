"""Smoothing schemes, smoothness objectives, spectra, perturbative amplitude."""
import functools
import tracemalloc

import numpy as np
import pytest

from qoct import optim, pmp, smoothing
from qoct.dynamics import (
    SIGMA_X,
    SIGMA_Z,
    TARGET_TOL,
    ModelParams,
    gate_cost,
    propagation_cells,
    rabi_protocol,
    total_pairs,
    total_unitary,
)
from qoct.protocols import (
    BangSequence,
    OneParamBB,
    Sampled,
    TanhProtocol,
    ThirdHarmonic,
    segment_durations_values,
)
from qoct.smoothing import (
    constrained_smooth_optimize,
    fourier_spectrum,
    min_tanh_time,
    min_third_harmonic_time,
    optimize_tanh,
    optimize_third_harmonic,
    power_cost,
    power_gradient,
    project_to_gate,
    resonance_pairs,
    smoothness_cost,
    smoothness_gradient,
    tanh_protocol,
)
from qoct.xgate import GateProblem, min_gate_time, rabi_fidelity_curve
from reference import perturbative_amplitude

X02 = GateProblem("x", ModelParams(u_max=0.2))
T_RABI_02 = np.pi / 0.2


class TestTanhScheme:
    def test_protocol_factory_mirrors(self):
        proto = tanh_protocol([0.5, 1.1], 4.0, 4.0, ModelParams(u_max=0.2))
        assert proto.times == (0.5, 1.1, 2.9, 3.5)

    def test_optimize_reports_feasible_protocol(self):
        run = optimize_tanh(4, 4.0, 0.90 * T_RABI_02, X02)
        t = np.linspace(0.0, run.T, 8001)
        assert np.max(np.abs(run.protocol.u(t))) <= 0.2 + 1e-9
        s = np.linspace(0.0, run.T / 2, 301)
        np.testing.assert_allclose(run.protocol.u(run.T / 2 + s),
                                   run.protocol.u(run.T / 2 - s), atol=1e-12)

    def test_perfect_gate_achievable_below_rabi_time(self):
        run = optimize_tanh(4, 4.0, 0.90 * T_RABI_02, X02)
        assert run.cost_plus_1 <= 1e-6

    @pytest.mark.parametrize("gap", ["equal", "one ulp"])
    def test_colliding_free_times_are_repaired(self, gap):
        # two free times driven together make T - t round to one float for
        # both, and the mirrored times would stop increasing strictly
        a = 1.68322712
        b = a if gap == "equal" else np.nextafter(a, 2.0)
        problem = GateProblem("x", ModelParams(u_max=0.1))
        T = 0.79 * np.pi / 0.1
        run = optimize_tanh(2, 4.0, T, problem, x0=[a, b])
        times = run.protocol.times
        assert len(times) == 4
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    # the minimum tanh times of the fig5a recipe, in units of T_Rabi, and the
    # floor at 2 where rounding T omega0 / (2 pi) gives 1 (u = 0.9, 0.8 T_Rabi)
    @pytest.mark.parametrize("u_max, frac, n_pairs",
                             [(0.1, 0.89, 9), (0.2, 0.85, 4), (0.3, 0.89, 3),
                              (0.4, 0.85, 2), (0.5, 0.93, 2), (0.9, 0.8, 2)])
    def test_resonance_pairs(self, u_max, frac, n_pairs):
        assert resonance_pairs(frac * np.pi / u_max, ModelParams(u_max=u_max)) == n_pairs

    def test_min_time_scan_runs_one_count_per_point(self, monkeypatch):
        calls = []

        def spy(n_pairs, beta, T, problem, **kwargs):
            run = optimize_tanh(n_pairs, beta, T, problem, **kwargs)
            calls.append((n_pairs, T, kwargs.get("x0"), run))
            return run

        monkeypatch.setattr(smoothing, "optimize_tanh", spy)
        problem = GateProblem("x", ModelParams(u_max=0.4))
        T, run = min_tanh_time(problem)
        assert calls[-1][3] is run and run.T == T
        fracs = [c[1] / (np.pi / 0.4) for c in calls]
        np.testing.assert_allclose(fracs, 0.78 + 0.01 * np.arange(len(calls)), atol=1e-12)
        assert calls[0][2] is None
        for n, T_k, _, _ in calls:
            assert n == resonance_pairs(T_k, problem.params)
        # the count stays 2 over this scan, so every later point is warm
        for (_, _, _, prev), (_, T_k, x0, _) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(
                x0, np.clip(prev.extras["times"], 1e-9, T_k / 2 * (1 - 1e-9)))

    def test_min_time_run_is_a_root(self):
        problem = GateProblem("x", ModelParams(u_max=0.4))
        _, run = min_tanh_time(problem)
        assert run.converged and run.extras["residual"] <= 1e-20
        assert 0 < run.extras["solver_steps"] <= 25

    @pytest.mark.parametrize("u_max", [0.1, 0.4])
    def test_min_time_pulse_matches_ode_oracle(self, u_max):
        problem = GateProblem("x", ModelParams(u_max=u_max))
        _, run = min_tanh_time(problem)
        assert_gate_under_ode_oracle(run.protocol, problem.params)


def assert_gate_under_ode_oracle(proto, params):
    """The pulse is a perfect X gate under an adaptive integrator that shares
    no code with the Magnus propagation, and C agrees with ``total_unitary``."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def rhs(t, y):
        H = 0.5 * params.omega0 * SIGMA_Z + proto.u(t) * SIGMA_X
        return (-1j * H @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, proto.T), np.eye(2, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    c_ode = gate_cost(sol.y[:, -1].reshape(2, 2), "x")
    c_grid = gate_cost(total_unitary(proto, params), "x")
    assert c_ode + 1.0 <= 1e-8
    assert abs(c_ode - c_grid) <= 1e-9


def restarted_third_harmonic_search(T, problem):
    """Fixed-T minimum of the gate cost over the whole (omega, R) box, as (C + 1, omega, R).

    The search ``optimize_third_harmonic`` ran before it became a root solve:
    restarted Nelder-Mead from (omega0, -0.05) and five drawn points, in the
    bound-free coordinates omega = omega0 (3/4 + (1/2) sin^2 y) and
    R = -1/8 + (9/8) sin^2 z, so every vertex is feasible and the search
    covers the interior of the box as well as its faces.
    """
    params = problem.params
    w0 = params.omega0
    lo = np.array([0.75 * w0, -0.125])
    span = np.array([0.5 * w0, 1.125])

    def to_physical(x):
        return lo + span * np.sin(np.asarray(x, dtype=float)) ** 2

    def to_free(p):
        return np.arcsin(np.sqrt(np.clip((np.asarray(p, dtype=float) - lo) / span, 0.0, 1.0)))

    def cost(x):
        proto = ThirdHarmonic(params.u_max, T, *to_physical(x))
        return gate_cost(total_unitary(proto, params), "x")

    def draw(rng):
        return to_free((rng.uniform(0.9 * w0, 1.1 * w0), rng.uniform(-0.125, 0.4)))

    r = optim.nelder_mead_restarts(cost, to_free((w0, -0.05)), draw, 6, 1500, 1e-12)
    return (r.fun + 1.0, *(float(v) for v in to_physical(r.x)))


@functools.lru_cache(maxsize=None)
def face_root_time(u_max):
    """T of the earliest perfect third-harmonic gate at ``u_max``."""
    return min_third_harmonic_time(GateProblem("x", ModelParams(u_max=u_max)))[0]


class TestThirdHarmonic:
    def test_optimize_single_point(self):
        run = optimize_third_harmonic(0.92 * T_RABI_02, X02)
        assert run.cost_plus_1 <= 1e-6
        assert run.extras["ratio"] < 0.0
        assert -0.125 - 1e-12 <= run.extras["ratio"] <= 1.0

    def test_search_moves_along_ratio_bound(self):
        # the root at 0.88 T_Rabi lies next to R = -1/8, where the solve
        # starts; it must move off that face into the box to reach it
        run = optimize_third_harmonic(0.88 * T_RABI_02, X02)
        assert run.cost_plus_1 <= 1e-8
        assert -0.125 < run.extras["ratio"] < 0.0

    @pytest.mark.parametrize("u_max", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("at", ["T*", "T*+0.005", "0.95", "1.0", "1.05"])
    def test_root_solve_finds_the_restarted_search_minimum(self, u_max, at):
        # at and above the face root's T the root solve from the face finds
        # the perfect gate that restarted Nelder-Mead over the box finds
        problem = GateProblem("x", ModelParams(u_max=u_max))
        t_rabi = np.pi / u_max
        T = {"T*": face_root_time(u_max), "T*+0.005": face_root_time(u_max) + 0.005 * t_rabi,
             "0.95": 0.95 * t_rabi, "1.0": t_rabi, "1.05": 1.05 * t_rabi}[at]
        run = optimize_third_harmonic(T, problem)
        assert run.converged and run.cost_plus_1 <= 1e-13
        assert run.extras["residual"] <= optim.ROOT_TOL
        assert 0 < run.extras["solver_steps"] <= optim.ROOT_STEPS
        _, w, R = restarted_third_harmonic_search(T, problem)
        assert abs(run.extras["omega"] - w) <= 1e-6
        assert abs(run.extras["ratio"] - R) <= 1e-6

    @pytest.mark.parametrize("u_max", [0.05, 0.2, 0.5])
    def test_root_solve_does_not_converge_before_the_face_root(self, u_max):
        problem = GateProblem("x", ModelParams(u_max=u_max))
        run = optimize_third_harmonic(face_root_time(u_max) - 0.005 * np.pi / u_max, problem)
        assert not run.converged
        assert run.cost_plus_1 > TARGET_TOL

    def test_min_time_run_is_a_face_root(self):
        # u = 0.35 is the grid amplitude whose Gauss-Newton solve stops
        # closest to its 1e-20 tolerance (6.2e-21, before its extra step)
        problem = GateProblem("x", ModelParams(u_max=0.35))
        T, run = min_third_harmonic_time(problem)
        assert run.T == T and run.converged
        assert run.extras["residual"] <= 1e-20
        assert 0 < run.extras["solver_steps"] <= 25
        assert run.extras["ratio"] == -0.125 and run.extras["dT_dR"] > 0.0
        # the reported residual is |U00|^2 of the returned pulse itself
        u00 = total_unitary(run.protocol, problem.params)[0, 0]
        assert abs(u00) ** 2 == pytest.approx(run.extras["residual"], rel=1e-6, abs=1e-28)
        assert 0.0 <= run.cost_plus_1 <= 1e-13

    def test_face_slope_is_the_rate_of_the_root_time_in_the_ratio(self):
        # solve the gate in (T, omega) at R = -1/8 + d and -1/8 + 2d from the
        # face root: the quotients q(d) = (T(d) - T*)/d differ from dT/dR by
        # a d + O(d^2) with a about 2700, so 2 q(d) - q(2d) cancels the first
        # order and what is left, second order in d plus the slope's own
        # forward-difference error, is below 1% of q(2d) - q(d)
        params = X02.params
        T0, run = min_third_harmonic_time(X02)
        slope = run.extras["dT_dR"]
        assert slope == pytest.approx(30.458, abs=1e-3)

        def quotient(d):
            R = smoothing._R_FACE + d
            r = optim.box_root(
                lambda X: smoothing._third_rows(np.column_stack([X, np.full(len(X), R)]), params),
                [T0, run.extras["omega"]], [0.9 * T0, 0.96 * params.omega0],
                [1.1 * T0, 1.04 * params.omega0])
            assert r.status == "converged"
            return (r.x[0] - T0) / d

        q1, q2 = quotient(1e-5), quotient(2e-5)
        assert abs(2.0 * q1 - q2 - slope) <= 0.01 * abs(q2 - q1)

    def test_root_digits_independent_of_solve_start(self):
        # 15 starts in the dip at u_max = 0.2: a solve stopped at the first
        # iterate within 1e-20 returned 4 different 12-digit T*
        params = X02.params
        lo, hi = (13.4, params.omega0 * 0.96), (13.8, params.omega0 * 1.04)
        roots = []
        for T0 in np.linspace(13.55, 13.65, 5):
            for w0 in (2.01, 2.015, 2.02):
                r = optim.box_root(lambda X: smoothing._face_rows(X, params), [T0, w0], lo, hi)
                assert r.status == "converged"
                roots.append(r.x[0])
        assert {f"{T:.12g}" for T in roots} == {f"{roots[0]:.12g}"}
        assert max(roots) - min(roots) <= 1e-13 * roots[0]

    def test_slow_damped_trial_does_not_end_a_solve_in_a_dip_with_a_root(self):
        # from (13.575, 2.025) the undamped second step overshoots T by
        # -0.249 and the first damped trial that lowers |U00|^2 gains 0.2%:
        # a solve stopped there as stalled at |U00|^2 = 1.7e-5, while the
        # next rung gains 36% and the solve goes on to the dip's root
        params = X02.params
        lo, hi = (13.4, params.omega0 * 0.96), (13.8, params.omega0 * 1.04)
        r = optim.box_root(lambda X: smoothing._face_rows(X, params), [13.575, 2.025], lo, hi)
        assert r.status == "converged" and r.fun <= optim.ROOT_TOL
        assert r.x[0] == pytest.approx(13.5993679169, abs=1e-10)

    def test_converged_box_root_evaluates_no_point_twice(self):
        # from (13.575, 2.03) the solve takes 5 Gauss-Newton steps, one call
        # each after the start's, and the extra step costs one row from the
        # F and J the solve ended with: 7 calls, none at a point seen before
        params = X02.params
        lo, hi = (13.4, params.omega0 * 0.96), (13.8, params.omega0 * 1.04)
        points = []

        def f_rows(X):
            points.append(tuple(X[0]))
            return smoothing._face_rows(X, params)

        r = optim.box_root(f_rows, [13.575, 2.03], lo, hi)
        assert r.status == "converged" and r.n_iter == 6
        assert len(points) == 7 and len(set(points)) == 7
        assert r.n_eval == 6 * 3 + 1

    @pytest.mark.parametrize("u_max", [0.2, 0.4])
    def test_no_perfect_gate_one_scan_step_before_the_root(self, u_max):
        # The root is the earliest on the face R = -1/8; fixed-T Nelder-Mead
        # over the whole (omega, R) box, interior included, misses the gate
        # 0.005 T_Rabi earlier (C+1 of 1.9e-5 at 0.2 and 2.3e-4 at 0.4), and
        # so does the fixed-T root solve.
        problem = GateProblem("x", ModelParams(u_max=u_max))
        T, run = min_third_harmonic_time(problem)
        early = T - 0.005 * np.pi / u_max
        assert restarted_third_harmonic_search(early, problem)[0] > TARGET_TOL
        assert not optimize_third_harmonic(early, problem).converged

    @pytest.mark.parametrize("u_max", [0.1, 0.4])
    def test_min_time_pulse_matches_ode_oracle(self, u_max):
        problem = GateProblem("x", ModelParams(u_max=u_max))
        _, run = min_third_harmonic_time(problem)
        assert_gate_under_ode_oracle(run.protocol, problem.params)

    def test_witness_beyond_rwa_limit_matches_ode_oracle(self):
        # A perfect gate at 0.855 T_Rabi (14.5% reduction, above the RWA
        # limit 1/9 of this pulse family) checked by an adaptive integrator
        # that shares no code with the piecewise-constant propagators.
        proto = ThirdHarmonic(u_max=0.4, T=0.855 * np.pi / 0.4,
                              omega=1.98438740146, ratio=-0.121988495268)
        assert_gate_under_ode_oracle(proto, ModelParams(u_max=0.4))

    def test_flatter_profile_than_pure_cosine(self):
        run = optimize_third_harmonic(0.92 * T_RABI_02, X02)
        T = run.T
        w, R = run.extras["omega"], run.extras["ratio"]
        t = np.linspace(T / 2 - 0.3, T / 2 + 0.3, 101)
        mixed = np.abs(run.protocol.u(t))
        cosine = 0.2 * np.abs(np.cos(w * (t - T / 2)))
        assert np.mean(mixed) > np.mean(cosine)


class TestSmoothnessObjectives:
    def test_constant_control_is_flat(self):
        p = Sampled(2.0, 0.5, np.full(64, 0.3))
        assert smoothness_cost(p) == 0.0
        assert np.max(np.abs(smoothness_gradient(p))) == 0.0

    def test_cosine_matches_continuum_integral(self):
        # C_smooth(u_max cos(w t), [0, T]) -> u_max^2 w^2 T / 4 for whole periods
        w, u_max = 2.0, 0.2
        T = 4.0 * np.pi / w * 2.0
        n = 1000
        mids = (np.arange(n) + 0.5) * (T / n)
        p = Sampled(T, u_max, u_max * np.cos(w * mids))
        expected = 0.25 * u_max ** 2 * w ** 2 * T
        assert abs(smoothness_cost(p) - expected) < 0.01 * expected

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        vals = 0.1 * rng.standard_normal(40)
        p = Sampled(1.7, 0.5, vals)
        g = smoothness_gradient(p)
        h = 1e-7
        for i in (0, 1, 17, 39):
            vp, vm = vals.copy(), vals.copy()
            vp[i] += h
            vm[i] -= h
            fd = (smoothness_cost(Sampled(1.7, 0.5, vp))
                  - smoothness_cost(Sampled(1.7, 0.5, vm))) / (2 * h)
            assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(g[i]))

    def test_power_objective(self):
        p = Sampled(2.0, 0.5, np.full(10, 0.3))
        assert abs(power_cost(p) - 0.5 * 0.09 * 2.0) < 1e-12
        np.testing.assert_allclose(power_gradient(p), 0.3 * 0.2, atol=1e-15)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            smoothness_cost(Sampled(1.0, 0.5, np.array([0.1, 0.2])))


def _lstsq_active_set_step(u, F, J, u_max):
    """The active-set step with np.linalg.lstsq's SVD solve on the free columns."""
    free = np.ones(u.size, dtype=bool)
    while free.any():
        step = np.zeros_like(u)
        step[free] = np.linalg.lstsq(J[:, free], -F, rcond=None)[0]
        leaving = ((u >= u_max) & (step > 0.0)) | ((u <= -u_max) & (step < 0.0))
        if not leaving.any():
            return step
        free &= ~leaving
    return None


def _step_problem(kind: str, n: int, share: float):
    """Cells u, rows F and exact Jacobian J of a random n-cell control at 0.9 T_Rabi.

    u_max is 0.2, and about ``share`` of the cells sit at +-u_max.
    """
    problem = GateProblem(kind, ModelParams(u_max=0.2))
    cost = problem.cost_spec()
    rng = np.random.default_rng(n)
    u = rng.uniform(-0.15, 0.15, n)
    bound = rng.random(n) < share
    u[bound] = rng.choice([-0.2, 0.2], n)[bound]
    U, jacobian = pmp.unitary_and_jacobian(Sampled(0.9 * T_RABI_02, 0.2, u), problem.params,
                                           cost)
    return u, cost.rows(U[0, 0], U[1, 0]), jacobian()


class TestProjection:
    def test_recovers_perturbed_optimal_pulse(self):
        res = min_gate_time(X02, with_report=False)
        T = 1.02 * res.t_star
        proto = OneParamBB(res.omega_eff, T, X02.params.u_max, sign=-1)
        n_t = 400
        mids = (np.arange(n_t) + 0.5) * (T / n_t)
        rng = np.random.default_rng(4)
        vals = np.clip(np.asarray(proto.u(mids)) + 0.02 * rng.standard_normal(n_t),
                       -0.2, 0.2)
        projected, info = project_to_gate(vals, T, X02, tol=1e-8)
        c = gate_cost(total_unitary(projected, X02.params), "x")
        assert c + 1.0 <= 1e-8
        assert np.max(np.abs(projected.values)) <= 0.2 + 1e-9

    @pytest.mark.parametrize("n_t", [401, 1000])
    def test_every_iterate_cost_has_the_bits_of_total_unitary(self, n_t, monkeypatch):
        # C + 1 = |F|^2 comes from the prefix scan's up-sweep; on every iterate
        # it must be cost.gap of total_pairs bit for bit, so no stop or stall
        # decision moves
        seen = []
        scan = pmp.unitary_and_jacobian

        def spy(proto, params, cost):
            U, jacobian = scan(proto, params, cost)
            seen.append((proto, U))
            return U, jacobian

        monkeypatch.setattr(pmp, "unitary_and_jacobian", spy)
        res = min_gate_time(X02, with_report=False)
        T = 1.02 * res.t_star
        mids = (np.arange(n_t) + 0.5) * (T / n_t)
        vals = np.asarray(OneParamBB(res.omega_eff, T, X02.params.u_max, sign=-1).u(mids))
        vals += 0.02 * np.random.default_rng(n_t).standard_normal(n_t)
        projected, info = project_to_gate(vals, T, X02, tol=1e-8)
        assert len(seen) == info.n_eval >= 3
        assert seen[-1][0] is projected
        cost = X02.cost_spec()
        for proto, U in seen:
            (a, b), = total_pairs([proto], X02.params)
            assert U[:, 0].tobytes() == np.array([a, b]).tobytes()
            assert float(cost.gap(U[0, 0], U[1, 0])).hex() == float(cost.gap(a, b)).hex()
        assert info.fun == float(cost.gap(*total_pairs([projected], X02.params)[0]))

    @pytest.mark.parametrize("kind, n, share", [
        ("x", 1000, 0.0), ("pt", 1000, 0.0), ("x", 1000, 0.4), ("pt", 1000, 0.4),
        ("x", 1, 0.0), ("x", 2, 0.0), ("pt", 1, 0.0)])
    def test_active_set_step_is_the_svd_minimum_norm_step(self, kind, n, share):
        # the Gram step against np.linalg.lstsq's on the same active set; n = 1
        # and 2 leave fewer free cells than rows
        u, F, J = _step_problem(kind, n, share)
        step = smoothing._active_set_step(u, F, J, 0.2)
        ref = _lstsq_active_set_step(u, F, J, 0.2)
        assert np.array_equal(step == 0.0, ref == 0.0)
        assert (ref == 0.0).any() == (share > 0.0)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["x", "pt"])
    def test_active_set_step_none_when_no_cell_is_free(self, kind):
        u, F, J = _step_problem(kind, 50, 0.0)
        # every cell at the bound that its unconstrained step points past
        u = 0.2 * np.sign(np.linalg.lstsq(J, -F, rcond=None)[0])
        assert _lstsq_active_set_step(u, F, J, 0.2) is None
        assert smoothing._active_set_step(u, F, J, 0.2) is None

    def test_fails_below_minimum_time(self):
        res = min_gate_time(X02, with_report=False)
        T = 0.9 * res.t_star
        n_t = 300
        mids = (np.arange(n_t) + 0.5) * (T / n_t)
        vals = 0.2 * np.cos(2.0 * (mids - T / 2))
        with pytest.raises(RuntimeError):
            project_to_gate(vals, T, X02, tol=1e-8, max_iter=600)


class TestConstrainedSmoothing:
    def test_small_run_converges_and_stays_put_at_optimum(self):
        # the Rabi cosine at T_Rabi is already the smoothest member of the
        # feasible set, so the iteration must stay at its projection
        run = constrained_smooth_optimize(T_RABI_02, X02, n_t=250, initial="rabi",
                                          max_outer=300)
        assert run.converged
        assert run.cost_plus_1 <= 1e-6
        assert run.trace[-1][1] <= run.trace[0][1] * 1.005
        assert np.max(np.abs(run.protocol.values)) <= 0.2 + 1e-9

    def test_bang_bang_start_meets_stopping_rule(self):
        # the time-rescaled bang-bang start of `qoct repro fig6` must settle
        # within the default budget, as the Rabi start does
        run = constrained_smooth_optimize(0.9 * T_RABI_02, X02, n_t=1000, initial="bb")
        assert run.converged
        assert run.extras["n_outer"] < 400
        assert run.cost_plus_1 <= 1e-6

    def test_bang_bang_start_at_the_rabi_time_leaves_two_free_cells(self, monkeypatch):
        # from bb at 1.0 T_Rabi the active set leaves as few as two free cells
        # for the three rows of X, where a Gram step needs its eigenvalue cutoff
        free = []
        step_of = smoothing._active_set_step

        def spy(u, F, J, u_max):
            step = step_of(u, F, J, u_max)
            free.append(np.count_nonzero(step))
            return step

        monkeypatch.setattr(smoothing, "_active_set_step", spy)
        run = constrained_smooth_optimize(T_RABI_02, X02, n_t=1000, initial="bb")
        assert min(free) == 2
        assert run.converged and run.cost_plus_1 <= 1e-10
        assert run.extras["n_outer"] == 351
        assert run.extras["c_smooth"] == pytest.approx(0.882030657965, abs=5e-13)

    @pytest.mark.parametrize("frac, initial",
                             [(0.8, "rabi"), (0.9, "rabi"), (1.0, "rabi"), (0.9, "bb")])
    def test_acceptance_pulses_are_gates_under_ode_oracle(self, frac, initial):
        # the pulses of acceptance criterion 8, each cell integrated by an
        # adaptive solver that shares no code with the closed-form cells
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        run = constrained_smooth_optimize(frac * T_RABI_02, X02, n_t=1000, initial=initial)
        vals, dt = run.protocol.values, run.protocol.dt
        n = vals.size
        H = SIGMA_Z[None] + vals[:, None, None] * SIGMA_X[None]  # omega0 / 2 = 1

        def rhs(t, y):
            return (-1j * H @ y.reshape(n, 2, 2)).ravel()

        start = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).ravel()
        sol = solve_ivp(rhs, (0.0, dt), start, method="DOP853", rtol=1e-13, atol=1e-13)
        assert sol.success
        U = np.eye(2, dtype=complex)
        for cell in sol.y[:, -1].reshape(n, 2, 2):
            U = cell @ U
        assert gate_cost(U, "x") + 1.0 <= 1e-10

    def test_descends_from_rough_initial(self):
        n_t = 250
        mids = (np.arange(n_t) + 0.5) * (T_RABI_02 / n_t)
        rough = np.clip(0.2 * np.cos(2.0 * (mids - T_RABI_02 / 2))
                        + 0.05 * np.sign(np.sin(9.7 * mids)), -0.2, 0.2)
        run = constrained_smooth_optimize(T_RABI_02, X02, n_t=n_t, initial=rough,
                                          max_outer=300)
        assert run.cost_plus_1 <= 1e-6
        assert run.trace[-1][1] < run.trace[0][1]

    def test_power_objective_supported(self):
        run = constrained_smooth_optimize(T_RABI_02, X02, n_t=200, initial="rabi",
                                          objective="power", max_outer=120)
        assert run.cost_plus_1 <= 1e-6

    def test_mixed_objective_supported(self):
        run = constrained_smooth_optimize(T_RABI_02, X02, n_t=200, initial="rabi",
                                          objective="mixed:0.5", max_outer=60)
        assert run.cost_plus_1 <= 1e-6

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            constrained_smooth_optimize(T_RABI_02, X02, n_t=200, objective="nope")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_nonfinite_mixed_weight_rejected_before_work(self, weight, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(smoothing, "_initial_control", no_work)
        with pytest.raises(ValueError, match="weight"):
            constrained_smooth_optimize(T_RABI_02, X02, n_t=100, initial="rabi",
                                        objective=f"mixed:{weight}")


class TestFourierSpectrum:
    def test_constant_pulse_single_line(self):
        p = Sampled(3.0, 0.5, np.full(8, 0.5))
        freqs, amps = fourier_spectrum(p, n_max=6)
        assert abs(amps[0] - 3.0) < 1e-12
        assert np.max(np.abs(amps[1:])) < 1e-10

    def test_single_bang_matches_closed_form(self):
        T = 2.0
        p = BangSequence(T, 0.5, (), (0.5,))
        freqs, amps = fourier_spectrum(p, n_max=5)
        for n in range(1, 6):
            w = 2 * np.pi * n / T
            ref = (1.0 - np.exp(-1j * w * T)) / (1j * w)
            assert abs(amps[n] - ref) < 1e-12

    def test_normalization_uses_u_max(self):
        p = Sampled(3.0, 0.5, np.full(8, 0.25))
        _, amps = fourier_spectrum(p, n_max=2)
        assert abs(amps[0] - 1.5) < 1e-12

    def test_negative_line_count_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            fourier_spectrum(Sampled(3.0, 0.5, np.full(8, 0.25)), n_max=-1)

    @pytest.mark.parametrize("proto", [
        BangSequence(5.0, 0.4, (0.7, 2.2, 4.1), (0.4, -0.4, 0.4, -0.4)),
        OneParamBB(1.9, 9.0, 0.3),
    ], ids=["bang", "one-param"])
    def test_cells_have_the_bits_of_two_exponentials_per_cell(self, proto):
        # each cell's integral written with its own two exponentials
        durs, vals = segment_durations_values(proto)
        edges = np.concatenate([[0.0], np.cumsum(durs)])
        edges[-1] = proto.T
        a, b = edges[:-1], edges[1:]
        rel = vals / proto.u_max
        n_max = 40
        w = 2.0 * np.pi * (np.arange(n_max + 1) / proto.T)[1:, None]
        cell = (np.exp(-1j * w * a[None, :]) - np.exp(-1j * w * b[None, :])) / (1j * w)
        freqs, amps = fourier_spectrum(proto, n_max=n_max)
        assert amps[1:].tolist() == (cell @ rel).tolist()
        assert amps[0] == np.sum(rel * (b - a))

    @pytest.mark.parametrize("proto", [
        ThirdHarmonic(0.2, 14.0, 0.45, 0.1),
        ThirdHarmonic(0.2, np.pi / 0.2, 2.0, 0.0),
        TanhProtocol(0.2, 12.0, 4.0, (1.5, 3.0, 9.0, 10.5)),
        Sampled(3.0, 0.5, np.linspace(-0.5, 0.5, 97)),
    ], ids=["third", "rabi", "tanh", "sampled"])
    def test_uniform_grid_lines_match_the_cell_sum_in_long_double(self, proto):
        durs, vals = segment_durations_values(proto)
        edges = np.concatenate([[0.0], np.cumsum(durs)])
        edges[-1] = proto.T
        rel = vals / proto.u_max
        freqs, amps = fourier_spectrum(proto, n_max=40)
        assert amps[0] == np.sum(rel * (edges[1:] - edges[:-1]))
        err = np.abs(amps[1:] - _long_double_lines(rel, proto.T, 40))
        assert np.max(err) <= 2e-13 * np.max(np.abs(amps))

    def test_lines_past_the_grid_are_dft_aliases(self):
        # a piecewise-constant pulse on N cells has no line at nonzero multiples of N/T
        p = Sampled(3.0, 0.5, [0.5, -0.2, 0.1, 0.4, -0.5, 0.3, 0.0, -0.1])
        freqs, amps = fourier_spectrum(p, n_max=20)
        err = np.abs(amps[1:] - _long_double_lines(p.values / p.u_max, p.T, 20))
        assert np.max(err) <= 2e-13 * np.max(np.abs(amps))
        assert abs(amps[8]) < 1e-15 and abs(amps[16]) < 1e-15

    def test_uniform_grid_builds_no_table_of_exponentials(self):
        # the R = 0 Rabi pulse, sampled on 40,000 cells; a 40 x 40,001
        # complex table alone would take 26 MB
        proto = ThirdHarmonic(0.2, np.pi / 0.2, 2.0, 0.0)
        tracemalloc.start()
        try:
            fourier_spectrum(proto)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _long_double_lines(rel, T: float, n_max: int) -> np.ndarray:
    """Lines 1..n_max of the per-cell sum on edges k T / N, in np.longdouble.

    Cell k adds rel_k (e^(-i w k T/N) - e^(-i w (k+1) T/N)) / (i w) at
    w = 2 pi n / T, whose phases 2 pi (n k mod N) / N are reduced in integers.
    """
    rel = np.asarray(rel, dtype=np.longdouble)
    N = rel.size
    k = np.arange(N + 1)
    two_pi = 8 * np.arctan(np.longdouble(1))
    cos, sin = np.cos(two_pi * np.arange(N) / N), np.sin(two_pi * np.arange(N) / N)
    out = np.empty(n_max, dtype=complex)
    for n in range(1, n_max + 1):
        c, s = cos[(n * k) % N], sin[(n * k) % N]
        w = two_pi * n / np.longdouble(T)
        # (E_k - E_(k+1)) / (i w) with E = c - i s
        re = -np.sum(rel * (s[:-1] - s[1:])) / w
        im = -np.sum(rel * (c[:-1] - c[1:])) / w
        out[n - 1] = complex(float(re), float(im))
    return out


def _long_double_x_gap(durs, vals, omega0: float = 2.0) -> float:
    """C_X + 1 = |a|^2 + (Re b)^2 of the product of closed-form cells, in np.longdouble.

    Cell k is [[a, -b*], [b, a*]] with a = cos(W d) - i h sin(W d)/W and
    b = -i u sin(W d)/W, h = omega0/2 and W = sqrt(h^2 + u^2), formed from
    the float64 inputs in extended precision and multiplied by a pairwise
    tree, cell 0 acting first.
    """
    d = np.asarray(durs, dtype=np.longdouble)
    u = np.asarray(vals, dtype=np.longdouble)
    h = np.longdouble(omega0) / 2
    w = np.sqrt(h * h + u * u)
    c, s = np.cos(w * d), np.sin(w * d) / w
    a = np.empty(d.shape, dtype=np.clongdouble)
    b = np.empty(d.shape, dtype=np.clongdouble)
    a.real, a.imag = c, -h * s
    b.real, b.imag = 0, -u * s
    while len(a) > 1:
        m = len(a) - len(a) % 2
        a0, b0, a1, b1 = a[0:m:2], b[0:m:2], a[1:m:2], b[1:m:2]
        na, nb = a1 * a0 - np.conjugate(b1) * b0, b1 * a0 + np.conjugate(a1) * b0
        a, b = np.concatenate([na, a[m:]]), np.concatenate([nb, b[m:]])
    return float(a[0].real ** 2 + a[0].imag ** 2 + b[0].real ** 2)


class TestCostAgainstLongDouble:
    """A reported C + 1 agrees with an extended-precision product of the same cells."""

    def test_constrained_pulse(self):
        run = constrained_smooth_optimize(0.9 * T_RABI_02, X02, n_t=1000, initial="rabi")
        p = run.protocol
        ref = _long_double_x_gap(np.full(p.n_t, p.dt), p.values)
        assert abs(run.cost_plus_1 - ref) <= 1e-5 * ref + 1e-18, (run.cost_plus_1, ref)

    def test_rabi_pulse_at_small_amplitude(self):
        # 20,000 Magnus cells
        params = ModelParams(u_max=0.01)
        durs, vals = propagation_cells(rabi_protocol(params))
        ref = _long_double_x_gap(durs, vals)
        ((u, value),) = rabi_fidelity_curve([0.01])
        assert abs(value - ref) <= 1e-5 * ref + 1e-18, (value, ref)


class TestPerturbativeAmplitude:
    def test_no_drive_no_amplitude(self):
        assert perturbative_amplitude([0.0, 0.0], 2.0, 1.3) == 0.0

    def test_resonant_term_grows_linearly(self):
        # the amplitude tracks the linear resonant term -i V1 t / 2 to within
        # the bounded counter-rotating remainder |V1/2 (1-e^{4it})/4| <= V1/4
        V1 = 0.01
        for t in (1.0, 2.0, 4.0, 16.0, 64.0):
            v = perturbative_amplitude([V1], 2.0, t)
            assert abs(v - (-1j * V1 * t / 2.0)) <= V1 / 4.0 + 1e-15
        grown = [abs(perturbative_amplitude([V1], 2.0, t)) for t in (4.0, 16.0, 64.0)]
        assert grown[0] < grown[1] < grown[2]

    def test_matches_quadrature_oracle(self):
        V = [0.02, 0.0, 0.008]
        w = 1.9
        t_final = 0.8
        ts = np.linspace(0.0, t_final, 20001)
        u = sum(v * np.cos((k + 1) * w * ts) for k, v in enumerate(V))
        integrand = -1j * u * np.exp(1j * 2.0 * ts)
        direct = np.trapezoid(integrand, ts)
        model = perturbative_amplitude(V, w, t_final)
        assert abs(direct - model) < 1e-8

    def test_resonant_denominator_limit(self):
        # N omega = omega0 exactly: the resonant pair term becomes -i t
        val = perturbative_amplitude([0.02], 2.0, 3.0)
        expected = 0.01 * (-1j * 3.0 + (1.0 - np.exp(1j * 4.0 * 3.0)) / 4.0)
        assert abs(val - expected) < 1e-12
