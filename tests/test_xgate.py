"""Gate synthesis: one-parameter family, frequency search, asymptotics."""
import numpy as np
import pytest

from qoct import xgate
from qoct.dynamics import ModelParams, rabi_pi_time, total_unitary
from qoct.optim import scalar_minimize
from qoct.xgate import (
    GateProblem,
    asymptotic_ratio_model,
    min_gate_time,
    one_param_cost,
    one_param_protocol,
    optimize_omega_eff,
    rabi_fidelity_curve,
)

X05 = GateProblem("x", ModelParams(u_max=0.5))


class TestOneParamProtocol:
    def test_sign_degeneracy_exact(self):
        for w in (1.9, 2.0435, 2.2):
            cp = one_param_cost(w, 1.69 * np.pi, X05, sign=+1.0)
            cm = one_param_cost(w, 1.69 * np.pi, X05, sign=-1.0)
            assert abs(cp - cm) < 1e-12

    def test_even_switch_count_for_x(self):
        proto = one_param_protocol(2.0435, 1.69 * np.pi, X05)
        assert len(proto.to_bang_sequence().switch_times) % 2 == 0

    def test_odd_segment_count_and_equal_ends(self):
        seq = one_param_protocol(2.0435, 1.69 * np.pi, X05).to_bang_sequence()
        durs = seq.durations
        assert len(durs) % 2 == 1
        tbar = np.pi / 2.0435
        assert abs(durs[0] - durs[-1]) < 1e-6 * tbar


class TestMinGateTime:
    def test_half_amplitude_regression(self, gate_results):
        res = gate_results[0.5]
        assert 0.75 <= res.ratio <= 0.85
        assert abs(res.omega_eff - 2.0435) / 2.0435 < 5e-3
        assert res.n_switch == 4
        assert res.cost + 1.0 <= 1e-6

    def test_transpose_symmetry_at_optimum(self, gate_results):
        res = gate_results[0.5]
        U = total_unitary(res.protocol.to_bang_sequence(), ModelParams(u_max=0.5))
        assert np.max(np.abs(U - U.T)) < 1e-10

    def test_omega_eff_below_big_omega(self, gate_results):
        for u, res in gate_results.items():
            assert res.omega_eff < ModelParams(u_max=u).big_omega

    def test_first_and_last_bangs_equal(self, gate_results):
        for res in gate_results.values():
            durs = res.protocol.to_bang_sequence().durations
            tbar = np.pi / res.omega_eff
            assert abs(durs[0] - durs[-1]) < 1e-6 * tbar
            np.testing.assert_allclose(durs[1:-1], tbar, rtol=1e-9)

    def test_y_gate_completes_with_odd_parity(self):
        res = min_gate_time(GateProblem("y", ModelParams(u_max=0.5)),
                            with_report=False)
        assert res.parity == "odd"
        assert res.cost + 1.0 <= 1e-6
        assert res.n_switch % 2 == 1

    def test_population_transfer_no_slower_than_x(self, gate_results):
        res = min_gate_time(GateProblem("pt", ModelParams(u_max=0.5)),
                            with_report=False)
        assert res.t_star <= gate_results[0.5].t_star + 1e-6

    def test_frequency_scanned_once_at_t_star(self, monkeypatch):
        scanned = []
        scan = xgate.optimize_omega_eff

        def counting(T, problem, *args, **kw):
            scanned.append(T)
            return scan(T, problem, *args, **kw)

        monkeypatch.setattr(xgate, "optimize_omega_eff", counting)
        res = min_gate_time(X05, with_report=False)
        assert scanned.count(res.t_star) == 1


class TestOptimizeOmegaEff:
    def test_finds_known_frequency_at_optimum(self, gate_results):
        res = gate_results[0.2]
        w, c, parity = optimize_omega_eff(res.t_star, GateProblem("x", ModelParams(u_max=0.2)))
        assert abs(w - 1.9899) / 1.9899 < 5e-3
        assert parity == "even"

    def test_density_doubling_stable(self):
        T = 1.69 * np.pi
        w1, _, _ = optimize_omega_eff(T, X05, n_scan=400)
        w2, _, _ = optimize_omega_eff(T, X05, n_scan=800)
        assert abs(w1 - w2) < 1e-6


class TestBatchedScan:
    @pytest.mark.parametrize("kind", ["x", "y", "pt"])
    @pytest.mark.parametrize("u_max", [0.48, 0.2, 0.0502, 0.3])
    def test_batched_costs_equal_scalar_loop_bitwise(self, kind, u_max):
        problem = GateProblem(kind, ModelParams(u_max=u_max))
        ws = np.linspace(0.8 * problem.params.omega0, 1.1 * problem.params.big_omega, 400)
        for frac in (0.6, 0.8, 1.0, 1.2):
            T = frac * rabi_pi_time(problem.params)
            for parity in ("even", "odd"):
                batch = one_param_cost(ws, T, problem, 1.0, parity)
                loop = np.array([one_param_cost(w, T, problem, 1.0, parity) for w in ws])
                np.testing.assert_array_equal(batch.view(np.uint64), loop.view(np.uint64))

    @pytest.mark.parametrize("kind", ["x", "pt"])
    def test_scan_matches_scalar_minimize_exactly(self, kind):
        problem = GateProblem(kind, ModelParams(u_max=0.5))
        T = 1.69 * np.pi
        w, c, parity = optimize_omega_eff(T, problem)
        bracket = (0.8 * problem.params.omega0, 1.1 * problem.params.big_omega)
        ref = scalar_minimize(lambda x: one_param_cost(x, T, problem, 1.0, parity), bracket)
        assert (w, c) == ref


class TestAsymptoticModel:
    def test_block_matches_leading_order(self):
        u = 0.01
        out = asymptotic_ratio_model(u)
        block = out["block"]
        target = np.array([[-1.0, 2j * u], [2j * u, -1.0]])
        assert np.max(np.abs(block - target)) < 10.0 * u ** 2

    def test_small_amplitude_period_count(self):
        out = asymptotic_ratio_model(0.01)
        assert out["n_periods"] in (78, 79)
        assert abs(out["ratio"] - np.pi / 4.0) < 0.015

    def test_y_variant_same_asymptote(self):
        out = asymptotic_ratio_model(0.01, kind="y")
        assert abs(out["ratio"] - np.pi / 4.0) < 0.02

    def test_threshold_flag_reported(self):
        out = asymptotic_ratio_model(0.01)
        # the N-quantization residual is O(u^2) > 1e-3*u at this amplitude
        assert out["cost"] + 1.0 < 1e-3
        assert out["met_threshold"] in (True, False)


class TestRabiCurve:
    def test_positive_everywhere_and_shrinking(self):
        curve = rabi_fidelity_curve([0.01, 0.1, 0.3, 0.5])
        errs = dict(curve)
        assert all(v > 0.0 for v in errs.values())
        assert errs[0.01] < errs[0.5]
