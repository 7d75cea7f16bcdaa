"""Adjoint machinery, switching function, control-Hamiltonian, planar geometry."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoct import pmp
from qoct.dynamics import (
    KET_0,
    SIGMA_0,
    BlochPoint,
    ModelParams,
    gate_cost,
    pair_apply,
    pair_matrix,
    propagate,
    state_from_bloch,
    state_prep_cost,
    terminal_cost,
    total_unitary,
)
from qoct.pmp import (
    CostSpec,
    audit,
    control_hamiltonian,
    cost_and_gradient,
    certified_audit,
    endpoint_costate,
    omega_eff_from_ratio,
    switching_function,
    unitary_and_jacobian,
)
from qoct.protocols import BangSequence, Sampled, segment_durations_values
from reference import alpha, analytical_switching, bloch_velocity, constant_propagator

P02 = ModelParams(u_max=0.2)
P05 = ModelParams(u_max=0.5)

SP_COST = CostSpec("sp", init=state_from_bloch(BlochPoint(0.7 * np.pi, 0.0)),
                   target=state_from_bloch(BlochPoint(0.35 * np.pi, np.pi)))


def random_sampled(seed=3, n=160, T=4.0, u_max=0.3):
    rng = np.random.default_rng(seed)
    vals = u_max * np.tanh(np.cumsum(rng.standard_normal(n)) / 7.0)
    return Sampled(T, u_max, vals)


def _two_trajectory_terminal_adjoints(cost, finals):
    """The Wirtinger costate 2 dC/d<psi(T)| of the two-trajectory form, one column per state.

    ``finals`` is the (2, m) block of final states: psi_i evolved for state
    preparation, U|0> and U|1> for a gate.  It is the reference whose Phi
    and H_oc the costate 2 E F of ``CostSpec``, on one trajectory, must
    reproduce.
    """
    if cost.kind == "sp":
        target = np.asarray(cost.target, dtype=complex)
        return (-2.0 * np.vdot(target, finals[:, 0]) * target)[:, None]
    u10, u01 = finals[1, 0], finals[0, 1]
    if cost.kind == "x":
        a0 = a1 = -(u10 + u01) / 2.0
    elif cost.kind == "y":
        a0, a1 = -(u10 - u01) / 2.0, (u10 - u01) / 2.0
    else:
        a0, a1 = -u10, -u01
    return np.array([[0.0, a1], [a0, 0.0]], dtype=complex)


def _two_trajectory_phi_hoc(protocol, params, cost, n_samples):
    """Phi and H_oc summed over the columns of the two-trajectory costate block, and a size.

    The size is the larger norm at T of that block's columns and of the
    one-trajectory costate 2 E F, |2 F|: both Phi's round on that scale.
    """
    traj = propagate(protocol, params, SIGMA_0, n_samples)
    P = traj.states[..., :, 0]
    a, b = P[-1]
    psi0 = cost.initial_state()[:, None] if cost.kind == "sp" else np.eye(2, dtype=complex)
    lam_T = _two_trajectory_terminal_adjoints(cost, pair_apply(P[-1], psi0))
    size = max(np.linalg.norm(lam_T, axis=0).max(), 2.0 * np.linalg.norm(cost.rows(a, b)))
    psi = pair_apply(P, psi0)
    lam = pair_apply(P, pair_apply(np.array([np.conjugate(a), -b]), lam_T))
    phi = np.imag(lam[:, 0].conj() * psi[:, 1] + lam[:, 1].conj() * psi[:, 0]).sum(axis=-1)
    phi_z = np.imag(lam[:, 0].conj() * psi[:, 0] - lam[:, 1].conj() * psi[:, 1]).sum(axis=-1)
    durs, vals = segment_durations_values(protocol)
    bounds = np.concatenate([[0.0], np.cumsum(durs)])
    u = vals[np.clip(np.searchsorted(bounds, traj.times, side="right") - 1, 0, len(vals) - 1)]
    return phi, 0.5 * params.omega0 * phi_z + u * phi, size


class TestCostCostate:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["sp", "x", "y", "pt"]), T=st.floats(0.5, 8.0),
           u_max=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
           angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi),
                            st.floats(-np.pi, np.pi)))
    def test_phi_and_hoc_match_the_two_trajectory_costate(self, kind, T, u_max, seed, angles):
        # the two costates differ by a real multiple of psi along the
        # trajectory, which adds Re[-i <psi|A|psi>] = 0 for Hermitian A; a
        # costate much larger than Phi, as near the top of the cost (C ~ 0),
        # rounds on its own scale
        rng = np.random.default_rng(seed)
        n = int(np.ceil(T / rng.uniform(0.02, 0.05)))
        proto = Sampled(T, u_max, rng.uniform(-u_max, u_max, n))
        params = ModelParams(u_max=u_max)
        cost = CostSpec(kind) if kind != "sp" else CostSpec(
            "sp", init=state_from_bloch(BlochPoint(angles[0], 0.0)),
            target=state_from_bloch(BlochPoint(angles[1], angles[2])))
        rep = audit(proto, params, cost, n_samples=401)
        phi, hoc, size = _two_trajectory_phi_hoc(proto, params, cost, 401)
        scale = max(np.max(np.abs(phi)), size)
        assert np.max(np.abs(rep.phi - phi)) <= 1e-12 * scale
        assert np.max(np.abs(rep.hoc - hoc)) <= 1e-12 * scale


class TestGradientOracle:
    @pytest.mark.parametrize("kind", ["sp", "x", "y", "pt"])
    def test_phi_gradient_matches_central_differences(self, kind):
        proto = random_sampled()
        params = ModelParams(u_max=0.3)
        cost = SP_COST if kind == "sp" else CostSpec(kind)
        c0, grad = cost_and_gradient(proto, params, cost)
        rng = np.random.default_rng(11)
        idx = rng.choice(proto.n_t, 20, replace=False)
        h = 1e-5
        scale = np.max(np.abs(grad))
        for i in idx:
            vp = proto.values.copy()
            vm = proto.values.copy()
            vp[i] += h
            vm[i] -= h
            args = (cost.init, cost.target) if kind == "sp" else ()
            f = (lambda U: state_prep_cost(U, *args)) if kind == "sp" \
                else (lambda U: gate_cost(U, kind))
            cp = f(total_unitary(Sampled(proto.T, 0.3, vp), params))
            cm = f(total_unitary(Sampled(proto.T, 0.3, vm), params))
            assert abs((cp - cm) / (2 * h) - grad[i]) < 1e-5 * scale

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["sp", "x", "y", "pt"]), T=st.floats(0.5, 8.0),
           u_max=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1),
           angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi),
                            st.floats(-np.pi, np.pi)))
    @example(kind="sp", T=1.0, u_max=0.2, seed=0, angles=(0.0, 0.0, -np.pi))
    def test_gradient_matches_central_differences_on_random_controls(
            self, kind, T, u_max, seed, angles):
        # the gradient is exact for the piecewise-constant control, so the
        # 1e-5 bound only has to hold the central differences' own error
        rng = np.random.default_rng(seed)
        n = int(np.ceil(T / rng.uniform(0.02, 0.05)))
        proto = Sampled(T, u_max, rng.uniform(-u_max, u_max, n))
        params = ModelParams(u_max=u_max)
        cost = CostSpec(kind) if kind != "sp" else CostSpec(
            "sp", init=state_from_bloch(BlochPoint(angles[0], 0.0)),
            target=state_from_bloch(BlochPoint(angles[1], angles[2])))
        _, grad = cost_and_gradient(proto, params, cost)
        scale = np.max(np.abs(grad))
        h = 1e-5
        for i in rng.choice(n, min(n, 8), replace=False):
            vp, vm = proto.values.copy(), proto.values.copy()
            vp[i] += h
            vm[i] -= h
            cp = cost.value(total_unitary(Sampled(T, u_max + h, vp), params))
            cm = cost.value(total_unitary(Sampled(T, u_max + h, vm), params))
            assert abs((cp - cm) / (2 * h) - grad[i]) <= 1e-5 * scale

    @pytest.mark.parametrize("cost", [SP_COST, CostSpec("x"), CostSpec("y"), CostSpec("pt")],
                             ids=["sp", "x", "y", "pt"])
    def test_cost_value_consistent(self, cost):
        proto = random_sampled()
        params = ModelParams(u_max=0.3)
        c0, _ = cost_and_gradient(proto, params, cost)
        U = total_unitary(proto, params)
        ref = terminal_cost(U, cost.kind, cost.init, cost.target)
        assert abs(c0 - ref) < 1e-12
        assert abs(cost.value(U) - ref) < 1e-12
        # C + 1 = |F|^2 on random SU(2) pairs, against the matrix formula
        x = np.random.default_rng(11).standard_normal((500, 4))
        ab = (x / np.linalg.norm(x, axis=1, keepdims=True)).view(complex)
        gap = cost.gap(ab[:, 0], ab[:, 1])
        ref = terminal_cost(pair_matrix(ab), cost.kind, cost.init, cost.target) + 1.0
        assert gap.shape == (500,)
        np.testing.assert_allclose(gap, ref, rtol=0.0, atol=1e-15)

    def test_state_prep_value_not_below_minus_one(self):
        # a final state e^(ig) |target> overlaps the target perfectly, and the
        # summed |<target|f>|^2 can round one ulp above 1
        rng = np.random.default_rng(18)
        values = []
        for theta, phi, g in rng.uniform((0.0, -np.pi, 0.0), np.pi, (400, 3)):
            target = state_from_bloch(BlochPoint(theta, phi))
            cost = CostSpec("sp", init=KET_0, target=target)
            f0, f1 = np.exp(1j * g) * target  # the first column of U = [[f0, -f1*], [f1, f0*]]
            values.append(cost.value(np.array([[f0, -np.conj(f1)], [f1, np.conj(f0)]])))
        assert min(values) == -1.0
        assert max(values) <= -1.0 + 1e-15


class TestGateJacobian:
    def test_x_gradient_is_twice_jt_f(self):
        # C_X + 1 = |a|^2 + (Re b)^2 = |F|^2 on SU(2), so grad C_X = 2 J^T F
        proto = random_sampled(n=400)
        params = ModelParams(u_max=0.3)
        cost = CostSpec("x")
        _, grad = cost_and_gradient(proto, params, cost)
        U, jacobian = unitary_and_jacobian(proto, params, cost)
        jtf = 2.0 * jacobian().T @ cost.rows(U[0, 0], U[1, 0])
        np.testing.assert_allclose(jtf, grad, rtol=0.0, atol=1e-12 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("n", [1, 7, 999, 1000])
    def test_scan_unitary_has_the_bits_of_total_unitary(self, n):
        proto = random_sampled(n=n)
        params = ModelParams(u_max=0.3)
        U, jacobian = unitary_and_jacobian(proto, params, CostSpec("x"))
        assert U.tobytes() == total_unitary(proto, params).tobytes()
        again = unitary_and_jacobian(proto, params, CostSpec("x"))[1]()
        assert jacobian().tobytes() == again.tobytes()

    @pytest.mark.parametrize("kind", ["sp", "x", "y", "pt"])
    def test_matches_central_differences(self, kind):
        proto = random_sampled()
        params = ModelParams(u_max=0.3)
        cost = SP_COST if kind == "sp" else CostSpec(kind)
        J = unitary_and_jacobian(proto, params, cost)[1]()
        assert J.shape == ((2 if kind in ("sp", "pt") else 3), proto.n_t)
        h = 1e-5

        def rows(values):
            U = total_unitary(Sampled(proto.T, 0.3 + h, values), params)
            return cost.rows(U[0, 0], U[1, 0])

        for i in np.random.default_rng(12).choice(proto.n_t, 20, replace=False):
            vp, vm = proto.values.copy(), proto.values.copy()
            vp[i] += h
            vm[i] -= h
            # the differences carry about 1e-11 of rounding and h^2 of truncation
            np.testing.assert_allclose((rows(vp) - rows(vm)) / (2 * h), J[:, i],
                                       rtol=0.0, atol=1e-9)


class TestControlHamiltonian:
    def test_zero_control_self_adjoint_pair_gives_zero(self):
        proto = BangSequence(2.0, 0.2, (), (0.0,))
        traj = propagate(proto, P02, state_from_bloch(BlochPoint(0.3, 1.1)), n_samples=51)
        # adjoint equal to the forward state: expectation of H is real,
        # so Re[-i <psi|H|psi>] vanishes
        hoc = control_hamiltonian(traj.states, traj.states, proto.u(traj.times), P02)
        assert hoc.shape == (51,)
        assert np.max(np.abs(hoc)) < 1e-12

    def test_segmentwise_constant_for_any_protocol(self):
        proto = BangSequence(3.0, 0.5, (0.9, 2.0), (0.5, -0.5, 0.5))
        rep = audit(proto, P05, SP_COST, n_samples=3001)
        assert rep.hoc_seg_max_dev < 1e-8

    def test_hoc_estimates_dT_derivative(self, gate_results):
        # H_oc(T) ~ dC/dT across re-optimized protocols at fixed structure
        from qoct.xgate import GateProblem, one_param_protocol, optimize_omega_eff
        problem = GateProblem("x", ModelParams(u_max=0.5))
        res = gate_results[0.5]
        T = 0.985 * res.t_star
        delta = 0.01 * T
        costs = {}
        for Tq in (T - delta, T, T + delta):
            w, c, _ = optimize_omega_eff(Tq, problem)
            costs[Tq] = c
        fd = (costs[T + delta] - costs[T - delta]) / (2 * delta)
        w, _, _ = optimize_omega_eff(T, problem)
        proto = one_param_protocol(w, T, problem, sign=-1)
        rep = audit(proto, problem.params, CostSpec("x"), n_samples=3001)
        hoc_T = float(np.mean(rep.hoc))
        assert abs(hoc_T - fd) < 0.05 * abs(fd)


class TestSwitchingFunction:
    def test_zero_adjoint_gives_zero_phi(self):
        proto = BangSequence(2.0, 0.2, (), (0.2,))
        psi = propagate(proto, P02, KET_0, n_samples=41).states
        phi = switching_function(np.zeros_like(psi), psi)
        assert phi.shape == (41,)
        assert np.max(np.abs(phi)) == 0.0

    def test_sign_opposite_to_control_at_gate_optimum(self, gate_results):
        rep = gate_results[0.2].report
        assert rep.sign_fraction >= 0.999

    def test_phi_second_derivative_obeys_bang_ode(self, gate_results):
        from qoct.xgate import GateProblem, one_param_protocol, optimize_omega_eff
        problem = GateProblem("x", ModelParams(u_max=0.2))
        res = gate_results[0.2]
        T = 0.999 * res.t_star
        w, _, _ = optimize_omega_eff(T, problem)
        proto = one_param_protocol(w, T, problem, sign=-1)
        rep = audit(proto, problem.params, CostSpec("x"), n_samples=8001)
        t, phi = rep.times, rep.phi
        dt = t[1] - t[0]
        u = np.asarray(proto.u(t))
        ddphi = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / dt ** 2
        resid = ddphi + problem.params.big_omega ** 2 * phi[1:-1] \
            + 4.0 * u[1:-1] * rep.lambda0
        switches = np.asarray(proto.to_bang_sequence().switch_times)
        keep = np.min(np.abs(t[1:-1, None] - switches[None, :]), axis=1) > 3 * dt
        assert np.max(np.abs(resid[keep])) < 1e-4 * np.max(np.abs(phi))


class TestOmegaEff:
    def test_zero_ratio_gives_big_omega(self):
        assert abs(omega_eff_from_ratio(0.0, P05) - P05.big_omega) < 1e-14

    def test_small_amplitude_limit(self):
        p = ModelParams(u_max=1e-8)
        assert abs(omega_eff_from_ratio(0.0, p) - 2.0) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            omega_eff_from_ratio(1e9, P05)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(0.05, 1.0))
    def test_never_exceeds_big_omega_for_positive_ratio(self, ratio, u):
        p = ModelParams(u_max=u)
        arg = 4.0 * ratio * u / p.big_omega ** 2
        if arg > 1.0:
            return
        assert omega_eff_from_ratio(ratio, p) <= p.big_omega + 1e-12

    def test_fitted_values_reproduce_gate_frequency(self, gate_results):
        res = gate_results[0.5]
        rep = res.report
        w_formula = omega_eff_from_ratio(rep.lambda0 / rep.A, ModelParams(u_max=0.5))
        assert abs(w_formula - res.omega_eff) / res.omega_eff < 1e-12


class TestAnalyticalSwitching:
    def test_zero_offset_pure_cosine(self):
        t = np.linspace(0.0, 4.0, 200)
        W = P05.big_omega
        phi = analytical_switching(1.3, 0.0, W, 4.0, P05, t)
        np.testing.assert_allclose(phi, 1.3 * np.cos(W * (t - 2.0)), atol=1e-12)

    def test_zeros_spaced_by_pi_over_omega_eff(self):
        A, lam0 = 1.0, 0.05
        W = P05.big_omega
        off = 4.0 * 0.5 * lam0 / W ** 2
        chi = np.arcsin(off / A)
        w_eff = W / (1.0 + 2.0 * chi / np.pi)
        T = 6.0
        t = np.linspace(0.0, T, 400001)
        phi = analytical_switching(A, lam0, w_eff, T, P05, t)
        sgn = np.sign(phi)
        zeros = t[:-1][sgn[1:] != sgn[:-1]]
        gaps = np.diff(zeros)
        np.testing.assert_allclose(gaps, np.pi / w_eff, rtol=1e-3)

    def test_overlays_computed_phi_at_gate_optimum(self, gate_results):
        res = gate_results[0.2]
        rep = res.report
        model = analytical_switching(rep.A, rep.lambda0, rep.omega_eff, res.t_star,
                                     ModelParams(u_max=0.2), rep.times)
        assert np.max(np.abs(model - rep.phi)) < 1e-3 * rep.max_abs_phi


class TestPlanarGeometry:
    def test_equator_is_singular_arc(self):
        assert abs(alpha(BlochPoint(np.pi / 2, 0.5 * np.pi))) < 1e-12

    def test_quadrant_signs(self):
        assert alpha(BlochPoint(0.3 * np.pi, 0.5 * np.pi)) > 0.0
        assert alpha(BlochPoint(0.7 * np.pi, 0.5 * np.pi)) < 0.0

    def test_boundary_signals(self):
        with pytest.raises(ValueError, match="on-boundary"):
            alpha(BlochPoint(0.3 * np.pi, 0.0))
        with pytest.raises(ValueError, match="on-boundary"):
            alpha(BlochPoint(0.3 * np.pi, np.pi))
        with pytest.raises(ValueError, match="on-boundary"):
            alpha(BlochPoint(0.0, 0.5))

    def test_alpha_sign_changes_only_on_dividing_arcs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = rng.uniform(0.05, np.pi - 0.05)
            ph = rng.uniform(-np.pi + 0.05, np.pi - 0.05)
            if min(abs(ph), abs(abs(ph) - np.pi)) < 0.05 or abs(th - np.pi / 2) < 1e-12:
                continue
            a = alpha(BlochPoint(th, ph))
            expected = np.sign(np.cos(th) * np.sin(ph))  # cot(theta)/sin(phi) sign
            assert np.sign(a) == expected

    def test_lie_derivative_on_singular_arc(self):
        # d(alpha)/dt along u = -u_max equals -4 u_max on the equator
        u = -P05.u_max
        b = BlochPoint(np.pi / 2, 0.6 * np.pi)
        td, pd = bloch_velocity(b, u, P05)
        h = 1e-6
        ap = alpha(BlochPoint(b.theta + td * h, b.phi + pd * h))
        am = alpha(BlochPoint(b.theta - td * h, b.phi - pd * h))
        assert abs((ap - am) / (2 * h) - (-4.0 * P05.u_max)) < 1e-6

    def test_bloch_velocity_free_rotation(self):
        td, pd = bloch_velocity(BlochPoint(0.4 * np.pi, 0.3), 0.0, P05)
        assert td == 0.0 and abs(pd - 2.0) < 1e-14

    def test_bloch_velocity_zero_polar_rate_at_phi_zero(self):
        td, _ = bloch_velocity(BlochPoint(0.4 * np.pi, 0.0), 0.5, P05)
        assert abs(td) < 1e-15

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            bloch_velocity(BlochPoint(0.0, 0.0), 0.1, P05)

    def test_velocity_matches_propagated_states(self):
        from qoct.dynamics import bloch_from_state
        b = BlochPoint(0.6 * np.pi, 0.9)
        u = 0.37
        psi = state_from_bloch(b)
        h = 1e-6
        bp = bloch_from_state(constant_propagator(h, u, P05) @ psi)
        bm = bloch_from_state(constant_propagator(h, u, P05).conj().T @ psi)
        td_fd = (bp.theta - bm.theta) / (2 * h)
        pd_fd = (bp.phi - bm.phi) / (2 * h)
        td, pd = bloch_velocity(b, u, P05)
        assert abs(td_fd - td) < 1e-6
        assert abs(pd_fd - pd) < 1e-6


class TestAuditInvariants:
    def test_report_json_fields(self):
        proto = BangSequence(2.0, 0.5, (0.8,), (0.5, -0.5))
        rep = audit(proto, P05, SP_COST, n_samples=801)
        summary = rep.summary()
        for key in ("lambda0", "A", "omega_eff", "hoc_max_dev", "sign_fraction",
                    "singular_residence"):
            assert key in summary

    def test_summary_writes_rounding_level_hoc_dev_as_zero(self):
        # H_oc is exactly constant on every bang, so a deviation of a few
        # 1e-16 is rounding and must not change the written summary
        proto = BangSequence(2.0, 0.5, (0.8,), (0.5, -0.5))
        rep = audit(proto, P05, SP_COST, n_samples=801)
        a = dataclasses.replace(rep, hoc_seg_max_dev=2.1e-16)
        b = dataclasses.replace(rep, hoc_seg_max_dev=5.7e-16)
        assert a.summary() == b.summary()
        assert a.summary()["hoc_max_dev"] == 0.0
        assert dataclasses.replace(rep, hoc_seg_max_dev=1e-12).summary()["hoc_max_dev"] == 0.0
        assert dataclasses.replace(rep, hoc_seg_max_dev=1e-6).summary()["hoc_max_dev"] == 1e-6
        assert a.hoc_seg_max_dev == 2.1e-16  # the in-memory figure stays raw

    def test_long_pulse_audit_builds_only_the_sampled_prefixes(self):
        # verify's 100,003-row pulse: the audit reads 4,001 entry states, so it
        # must not hold a prefix pair and a state block for every cell
        n = 100_003
        T = np.pi / 0.2
        proto = Sampled(T, 0.2, 0.2 * np.cos(2.0 * ((np.arange(n) + 0.5) * T / n - T / 2)))
        cost = CostSpec("x")
        tracemalloc.start()
        try:
            audit(proto, P02, cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13e6

    def test_singular_residence_counts_equator_coast(self):
        # the coast is singular where Phi vanishes on it identically, which
        # the endpoint costate at T* shows; the cost's own costate vanishes
        # there with C + 1, and its Phi is rounding
        from qoct.state_prep import StatePrepProblem, best_bsb, _bsb_protocol
        problem = StatePrepProblem(BlochPoint(0.7 * np.pi, 0.0),
                                   BlochPoint(0.35 * np.pi, np.pi),
                                   ModelParams(u_max=0.8))
        cand = best_bsb(problem)
        proto = _bsb_protocol(cand, problem.params)
        rep = certified_audit(proto, problem.params, problem.cost_spec())
        assert abs(rep.singular_residence - cand["coast"]) <= 1e-12 * proto.T


# the gate-search centres: X with 4, 8 and 32 switches, Y and population transfer
GATE_CENTRES = [("x", 0.48), ("x", 0.20), ("x", 0.0502), ("y", 0.30), ("pt", 0.30)]


def _gate_problem(kind, u):
    from qoct.xgate import GateProblem
    return GateProblem(kind, ModelParams(u_max=u))


@pytest.fixture(scope="module")
def centre_roots():
    from qoct.xgate import min_gate_time
    return {(kind, u): min_gate_time(_gate_problem(kind, u)) for kind, u in GATE_CENTRES}


def _sp_problem(u):
    from qoct.state_prep import StatePrepProblem
    return StatePrepProblem(BlochPoint(0.7 * np.pi, 0.0), BlochPoint(0.35 * np.pi, np.pi),
                            ModelParams(u_max=u))


@pytest.fixture(scope="module")
def bsb_winners():
    """find_time_optimal, with its report, at three amplitudes of the BSB plateau."""
    from qoct.state_prep import find_time_optimal
    return {u: find_time_optimal(_sp_problem(u)) for u in (0.7, 0.85, 1.0)}


class TestCostRows:
    @pytest.mark.parametrize("source", ["random", "bsb"])
    @pytest.mark.parametrize("kind", ["sp", "x", "y", "pt"])
    def test_rows_are_the_endpoint_states_read_on_the_final_state(self, bsb_winners,
                                                                 kind, source):
        # F_i = Re<e_i|U psi(0)>, and C + 1 = |F|^2 on SU(2); the inputs are a
        # random control and the BSB winner at u = 0.85
        problem = _sp_problem(0.85)
        if source == "bsb":
            proto, params = bsb_winners[0.85].protocol(), problem.params
        else:
            proto, params = random_sampled(), ModelParams(u_max=0.3)
        cost = problem.cost_spec() if kind == "sp" else CostSpec(kind)
        U = total_unitary(proto, params)
        F = cost.rows(U[0, 0], U[1, 0])
        E = cost.endpoint_states()
        assert F.shape == (E.shape[1],) == ((3,) if kind in ("x", "y") else (2,))
        np.testing.assert_allclose(F, np.real(E.conj().T @ (U @ cost.initial_state())),
                                   rtol=0.0, atol=1e-15)
        assert abs(F @ F - (cost.value(U) + 1.0)) < 1e-14
        # elementwise over stacks of pairs, with the rows on the last axis
        stack = np.stack([U[:, 0], U[:, 0].conj()])
        assert np.array_equal(cost.rows(stack[:, 0], stack[:, 1])[0], F)


class TestEndpointCostate:
    """The costate at T* from the multipliers of a minimum time's endpoint rows."""

    @pytest.mark.parametrize("kind,u", GATE_CENTRES)
    def test_report_at_t_star_certifies_the_root(self, centre_roots, kind, u):
        res = centre_roots[kind, u]
        rep = res.report
        assert rep.certificate_residual <= 1e-13
        assert rep.sign_fraction == 1.0
        assert rep.sign_margin <= 1e-13
        assert rep.hoc_seg_max_dev < 1e-8
        assert abs(np.linalg.norm(rep.mu) - 1.0) < 1e-14
        # the audited protocol is the root's own square wave at T*
        assert rep.times[-1] == res.t_star
        w = omega_eff_from_ratio(rep.lambda0 / rep.A, ModelParams(u_max=u))
        assert abs(w - res.omega_eff) / res.omega_eff < 1e-12
        summary = rep.summary()
        assert summary["certificate_residual"] == rep.certificate_residual
        assert summary["mu"] == [float(m) for m in rep.mu]

    @pytest.mark.parametrize("kind,u", GATE_CENTRES)
    def test_moving_one_switch_breaks_the_certificate(self, centre_roots, kind, u):
        res = centre_roots[kind, u]
        seq = res.protocol.to_bang_sequence()
        ts = list(seq.switch_times)
        ts[0] += 0.01 * (ts[1] - ts[0])  # 1% of the first middle bang
        moved = BangSequence(seq.T, seq.u_max, tuple(ts), seq.values)
        problem = _gate_problem(kind, u)
        rep = certified_audit(moved, problem.params, problem.cost_spec())
        assert rep.certificate_residual >= 1e-3
        assert rep.hoc_global_dev >= 1e-3
        assert rep.sign_margin >= 1e-4

    @pytest.mark.parametrize("factor", [1.001, 1.01, 1.05])
    @pytest.mark.parametrize("kind,u", GATE_CENTRES)
    def test_any_symmetric_wave_is_an_extremal(self, centre_roots, kind, u, factor):
        # the certificate tells a PMP extremal, not a minimum time: a
        # symmetric square wave off the root frequency passes it too
        from qoct.xgate import one_param_protocol
        res = centre_roots[kind, u]
        problem = _gate_problem(kind, u)
        proto = one_param_protocol(factor * res.omega_eff, res.t_star, problem,
                                   sign=-1, parity=res.parity)
        rep = certified_audit(proto, problem.params, problem.cost_spec())
        assert rep.certificate_residual <= 1e-13
        assert rep.sign_fraction == 1.0
        assert rep.sign_margin <= 1e-13

    def test_lambda0_over_a_is_well_conditioned_in_t_star(self):
        # lambda0 and A come from the protocol at T*, so a move of T* by a
        # few ulp moves their ratio by rounding only
        from qoct.xgate import min_gate_time, one_param_protocol
        problem = _gate_problem("x", 0.03)
        res = min_gate_time(problem, with_report=False)
        ratios = []
        T = res.t_star
        for _ in range(5):
            proto = one_param_protocol(res.omega_eff, T, problem, sign=-1, parity=res.parity)
            rep = certified_audit(proto, problem.params, problem.cost_spec())
            ratios.append(rep.lambda0 / rep.A)
            T = np.nextafter(T, np.inf)
        assert np.max(np.abs(np.array(ratios) / ratios[0] - 1.0)) <= 1e-12

    def test_cost_costate_unchanged_without_final_adjoints(self):
        # without a final adjoint the costate is the cost's own, 2 E F on the
        # pair that audit's propagation ends at
        proto = BangSequence(3.0, 0.5, (0.9, 2.0), (0.5, -0.5, 0.5))
        cost = CostSpec("x")
        a_T, b_T = propagate(proto, P05, SIGMA_0, 801).states[-1, :, 0]
        a = audit(proto, P05, cost, n_samples=801)
        b = audit(proto, P05, cost, n_samples=801,
                  final_adjoint=2.0 * (cost.endpoint_states() @ cost.rows(a_T, b_T)))
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.hoc, b.hoc)
        assert "mu" not in a.summary() and "certificate_residual" not in a.summary()

    @pytest.mark.parametrize("u", [0.7, 0.85, 1.0])
    def test_bsb_report_at_t_star_certifies_the_winner(self, bsb_winners, u):
        res = bsb_winners[u]
        assert str(res.structure) == "BSB"
        rep = res.report
        assert rep.certificate_residual <= 1e-13
        assert rep.sign_fraction == 1.0
        assert rep.sign_margin <= 1e-13
        assert rep.hoc_seg_max_dev < 1e-8
        assert abs(np.linalg.norm(rep.mu) - 1.0) < 1e-14
        assert rep.times[-1] == res.t_star
        assert rep.summary()["mu"] == [float(m) for m in rep.mu]
        # the coast is singular: Phi vanishes on it identically
        t1, t2 = res.switch_times
        assert rep.singular_residence == t2 - t1

    def test_moving_the_first_bsb_switch_breaks_the_certificate(self, bsb_winners):
        seq = bsb_winners[0.85].protocol()
        t1, t2 = seq.switch_times
        moved = BangSequence(seq.T, seq.u_max, (t1 + 0.01 * (t2 - t1), t2), seq.values)
        problem = _sp_problem(0.85)
        rep = certified_audit(moved, problem.params, problem.cost_spec())
        assert rep.certificate_residual >= 1e-4
        assert rep.sign_margin >= 1e-4
        assert rep.singular_residence == 0.0

    def test_bsb_winner_is_audited_once_without_a_second_search(self, monkeypatch):
        from qoct import pmp, state_prep

        def second_search(*args, **kwargs):
            raise AssertionError("a structure search besides the closed form")

        audited = []
        real_audit = pmp.audit

        def spy(protocol, *args, **kwargs):
            audited.append(protocol)
            return real_audit(protocol, *args, **kwargs)

        monkeypatch.setattr(state_prep, "optimize_structure", second_search)
        monkeypatch.setattr(pmp, "audit", spy)
        res = state_prep.find_time_optimal(_sp_problem(0.85))
        assert str(res.structure) == "BSB"
        assert audited == [res.protocol()]

    def test_needs_a_switch(self):
        with pytest.raises(ValueError, match="switch"):
            endpoint_costate(BangSequence(2.0, 0.5, (), (0.5,)), P05, CostSpec("x"))


class TestBangArcs:
    """Phi's sinusoid on a bang: exact extremes, and the exact measure of a sign-rule breach."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(0.01, 30.0), st.floats(-1.5, 1.5))
    def test_extremes_and_measure_match_a_dense_grid(self, c0, c1, c2, theta_end, level):
        # a grid step of at most 1.5e-3: the grid's extremes lie within
        # R step^2 / 8 of the true ones, and its share above the level
        # within a step per crossing
        theta = np.linspace(0.0, theta_end, 20_001)
        f = c0 + c1 * np.cos(theta) + c2 * np.sin(theta)
        coefficients = np.array([[c0], [c1], [c2], [theta_end]])
        hi, lo = pmp._extremes(*coefficients)
        assert f.max() <= hi[0] + 1e-12 and hi[0] - f.max() <= 1e-6
        assert f.min() >= lo[0] - 1e-12 and f.min() - lo[0] <= 1e-6
        # the grid's rounding cannot tell f from the level within 1e-9
        measure = pmp._measure_above(*coefficients, level)[0]
        assert measure >= theta_end * ((f > level + 1e-9).mean() - 1e-3)
        assert measure <= theta_end * ((f > level - 1e-9).mean() + 1e-3)

    def test_sign_fraction_is_the_measure_of_the_breach(self, centre_roots):
        # a switch moved off the root: the exact fraction matches the share of
        # a dense sampling of the closed form where u Phi breaks the rule
        res = centre_roots["x", 0.20]
        seq = res.protocol.to_bang_sequence()
        ts = list(seq.switch_times)
        ts[0] += 0.01 * (ts[1] - ts[0])
        moved = BangSequence(seq.T, seq.u_max, tuple(ts), seq.values)
        problem = _gate_problem("x", 0.20)
        rep = certified_audit(moved, problem.params, problem.cost_spec())
        lam_T, _, _ = endpoint_costate(moved, problem.params, problem.cost_spec())
        dense = audit(moved, problem.params, problem.cost_spec(), n_samples=400_001,
                      final_adjoint=lam_T)
        breach = moved.u(dense.times) * dense.phi > 1e-6 * rep.max_abs_phi * 0.20
        assert rep.sign_fraction < 1.0
        assert abs(rep.sign_fraction - (1.0 - breach.mean())) <= 2e-5
        assert abs(dense.max_abs_phi - np.abs(dense.phi).max()) <= 1e-9


@pytest.fixture(scope="module")
def centre_protocols(centre_roots, bsb_winners):
    """The gate-search and stateprep-search centres: (name, bang protocol, params, cost)."""
    from qoct.state_prep import find_time_optimal
    out = []
    for kind, u in GATE_CENTRES:
        problem = _gate_problem(kind, u)
        out.append((f"{kind} {u}", centre_roots[kind, u].protocol, problem.params,
                    problem.cost_spec()))
    for u in (0.104, 0.16, 0.85):
        problem = _sp_problem(u)
        res = bsb_winners[u] if u in bsb_winners else find_time_optimal(problem,
                                                                         with_report=False)
        out.append((f"sp {u}", res.protocol(), problem.params, problem.cost_spec()))
    return out


class TestClosedFormMatchesPropagation:
    """The closed-form audit of a bang protocol and the propagated audit agree.

    On the same protocol the two differ by rounding.  ``as_sampled`` puts
    each switch on the edge of its cell, up to half a cell (pi/16000) away,
    which moves Phi and H_oc by about 1e-4 of max|Phi|.  Both sides read the
    endpoint costate of the bang protocol.
    """

    @pytest.mark.parametrize("index", range(8))
    def test_same_protocol_agrees_to_rounding(self, centre_protocols, index):
        name, proto, params, cost = centre_protocols[index]
        lam_T, _, _ = endpoint_costate(proto, params, cost)
        exact = audit(proto, params, cost, final_adjoint=lam_T)
        sampled = pmp._sampled_audit(proto, params, cost, 4001, lam_T)
        scale = exact.max_abs_phi
        assert np.array_equal(exact.times, sampled.times)
        assert np.max(np.abs(exact.phi - sampled.phi)) <= 1e-12 * scale, name
        assert np.max(np.abs(exact.hoc - sampled.hoc)) <= 1e-12 * scale, name
        # lambda0 is minus H_oc's mean over time, exact or over the samples:
        # where H_oc differs between bangs, off an extremal, the two differ
        # by its spread times about a sample step per switch
        n_switch = len(segment_durations_values(proto)[1]) - 1
        spread = exact.hoc_global_dev * (1.0 + abs(exact.lambda0))
        assert abs(exact.lambda0 - sampled.lambda0) <= (
            1e-12 * scale + spread * (n_switch + 1) / 4000), name
        assert exact.hoc_seg_max_dev == 0.0 and sampled.hoc_seg_max_dev <= 1e-12
        assert (exact.A is None) == (sampled.A is None)
        if exact.A is not None:
            assert abs(exact.A - sampled.A) <= 1e-12 * scale
        # the samples skip 2 grid steps either side of each switch, and a
        # sample counts its whole step
        tol = (4 * n_switch + 2) / 4000
        assert abs(exact.sign_fraction - sampled.sign_fraction) <= tol, name

    @pytest.mark.parametrize("index", range(8))
    def test_as_sampled_agrees_to_its_cells(self, centre_protocols, index):
        from qoct.protocols import as_sampled
        name, proto, params, cost = centre_protocols[index]
        lam_T, _, _ = endpoint_costate(proto, params, cost)
        exact = audit(proto, params, cost, final_adjoint=lam_T)
        cells = audit(as_sampled(proto), params, cost, final_adjoint=lam_T)
        scale = exact.max_abs_phi
        assert np.array_equal(exact.times, cells.times)
        assert np.max(np.abs(exact.phi - cells.phi)) <= 1e-3 * scale, name
        assert np.max(np.abs(exact.hoc - cells.hoc)) <= 1e-3 * scale, name
        assert abs(exact.lambda0 - cells.lambda0) <= 1e-4 * scale, name
        assert cells.hoc_seg_max_dev <= 1e-12
        if exact.A is not None:
            assert abs(exact.A - cells.A) <= 1e-4 * scale, name
        assert abs(exact.sign_fraction - cells.sign_fraction) <= 0.01, name
