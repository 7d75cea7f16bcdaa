"""Gate synthesis: one-parameter family, frequency search, asymptotics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoct import optim, pmp, xgate
from qoct.dynamics import (
    ModelParams,
    gate_cost,
    ordered_product,
    rabi_pi_time,
    segment_propagators,
    total_unitary,
)
from qoct.optim import scalar_minimize
from qoct.protocols import OneParamBB, square_wave
from reference import square_wave_pairs
from qoct.xgate import (
    GateProblem,
    _square_wave_pairs,
    asymptotic_ratio_model,
    min_gate_time,
    one_param_cost,
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
        proto = OneParamBB(2.0435, 1.69 * np.pi, X05.params.u_max)
        assert len(proto.to_bang_sequence().switch_times) % 2 == 0

    def test_odd_segment_count_and_equal_ends(self):
        seq = OneParamBB(2.0435, 1.69 * np.pi, X05.params.u_max).to_bang_sequence()
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

    def test_returned_point_is_a_root(self):
        res = min_gate_time(X05, with_report=False)
        bounds, vals = square_wave(res.omega_eff, res.t_star, 0.5, res.sign, res.parity)
        U = ordered_product(segment_propagators(bounds[1:] - bounds[:-1], vals, X05.params))
        assert abs(U[0, 0]) ** 2 <= 1e-20
        fresh = one_param_cost(res.omega_eff, res.t_star, X05, res.sign, res.parity)
        assert np.float64(res.cost).view(np.uint64) == np.float64(fresh).view(np.uint64)
        assert res.n_switch == len(res.protocol.to_bang_sequence().switch_times)

    def test_no_converged_dip_raises(self, monkeypatch):
        tried = []

        def never(f_rows, starts, *args):
            tried.append(starts[0][0])
            return [optim.OptimResult(x=np.asarray(x, dtype=float), fun=1.0, status="stalled")
                    for x in starts]

        monkeypatch.setattr(optim, "gauss_newton", never)
        with pytest.raises(RuntimeError, match="reaches the gate"):
            min_gate_time(X05, with_report=False)
        assert tried

    def test_report_audits_the_root_without_a_second_search(self, monkeypatch):
        def second_search(*args, **kwargs):
            raise AssertionError("a frequency search besides the root's")

        audited = []
        audit = pmp.audit

        def spy(protocol, *args, **kwargs):
            audited.append(protocol)
            return audit(protocol, *args, **kwargs)

        monkeypatch.setattr(xgate, "optimize_omega_eff", second_search)
        monkeypatch.setattr(pmp, "audit", spy)
        res = min_gate_time(X05)
        assert audited == [res.protocol]


GRID = [float(round(u, 10)) for u in np.linspace(0.05, 0.5, 10)]


def oracle_square_wave(omega, T, u_max, sign, parity):
    """Cell bounds and values of sign * u_max * Sgn[carrier(omega (t - T/2))]."""
    n = int(omega * T / (2.0 * np.pi)) + 2
    if parity == "even":
        offs = (0.5 + np.arange(-n, n)) * np.pi / omega
    else:
        offs = np.arange(-n, n + 1) * np.pi / omega
    cuts = T / 2.0 + offs[np.abs(offs) < T / 2.0]
    bounds = np.concatenate([[0.0], cuts, [T]])
    mids = 0.5 * (bounds[:-1] + bounds[1:]) - T / 2.0
    carrier = np.cos if parity == "even" else np.sin
    return bounds, sign * u_max * np.sign(carrier(omega * mids))


def oracle_gap(res, kind, u_max, omega0=2.0):
    """C + 1 of the returned gate, propagated cell by cell through eigh.

    H = (omega0/2) sigma_z + u sigma_x on each cell.  C + 1 is written
    through unitarity, without the cancellation in 1 - |.|^2:
    C_X + 1 = |U00|^2 + |U10 - U01|^2/4, C_Y + 1 = |U00|^2 + |U10 + U01|^2/4
    and C_PT + 1 = (|U00|^2 + |U11|^2)/2.
    """
    bounds, vals = oracle_square_wave(res.omega_eff, res.t_star, u_max, res.sign, res.parity)
    U = np.eye(2, dtype=complex)
    for dt, u in zip(np.diff(bounds), vals):
        lam, V = np.linalg.eigh(np.array([[omega0 / 2.0, u], [u, -omega0 / 2.0]]))
        U = (V * np.exp(-1j * lam * dt)) @ V.conj().T @ U
    a00, a11 = abs(U[0, 0]) ** 2, abs(U[1, 1]) ** 2
    return {"x": a00 + abs(U[1, 0] - U[0, 1]) ** 2 / 4.0,
            "y": a00 + abs(U[1, 0] + U[0, 1]) ** 2 / 4.0,
            "pt": (a00 + a11) / 2.0}[kind]


class TestFirstRootAndOracle:
    """T* is the first root, and an independent propagator confirms the gate."""

    @pytest.mark.parametrize("kind", ["x", "y", "pt"])
    @pytest.mark.parametrize("u_max", GRID)
    def test_first_root_confirmed_by_eigh_oracle(self, kind, u_max):
        problem = GateProblem(kind, ModelParams(u_max=u_max))
        res = min_gate_time(problem, with_report=False)
        assert res.residual <= 1e-20
        assert oracle_gap(res, kind, u_max) <= 1e-20
        T_before = res.t_star - 1e-3 * rabi_pi_time(problem.params)
        _, c, _ = optimize_omega_eff(T_before, problem)
        assert c + 1.0 > 1e-6

    def test_small_amplitude_first_root_confirmed_by_eigh_oracle(self):
        # the dip is wider here: the optimized C+1 is 6.3e-7 at T* - 1e-3
        # T_Rabi and first falls below 1e-6 about 1.9e-3 T_Rabi before T*.
        # From 3e-3 T_Rabi before T*, where it is above 1e-6, it must fall
        # monotonically, so no earlier root hides in the band
        problem = GateProblem("x", ModelParams(u_max=0.01))
        res = min_gate_time(problem, with_report=False)
        assert res.residual <= 1e-20
        assert oracle_gap(res, "x", 0.01) <= 1e-20
        t_rabi = rabi_pi_time(problem.params)
        gaps = [optimize_omega_eff(res.t_star - k * 2.5e-4 * t_rabi, problem)[1] + 1.0
                for k in range(12, 0, -1)]
        assert gaps[0] > 1e-6
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_root_past_the_dip_bracket_confirmed_by_eigh_oracle(self):
        # the scan's dip is at T = 49.19 (index 30) and the first root,
        # T* = 49.3038, lies past it, toward the dip's right neighbour
        problem = GateProblem("x", ModelParams(u_max=0.0503845))
        res = min_gate_time(problem, with_report=False)
        assert res.residual <= 1e-20
        assert oracle_gap(res, "x", 0.0503845) <= 1e-20
        assert abs(res.t_star - 49.303781345) < 1e-6
        T_before = res.t_star - 1e-3 * rabi_pi_time(problem.params)
        _, c, _ = optimize_omega_eff(T_before, problem)
        assert c + 1.0 > 1e-6

    def test_root_digits_independent_of_newton_start(self):
        # the scan at u_max = 0.0505 dips at indices 29 and 31; a solve stopped
        # at the first iterate within ROOT_TOL returned roots 5.5e-11 apart
        problem = GateProblem("x", ModelParams(u_max=0.0505))
        t_rabi = rabi_pi_time(problem.params)
        step = min(0.01 * t_rabi, (2.0 * np.pi / problem.params.omega0) / 8.0)
        ts = np.arange(0.6 * t_rabi, 1.2 * t_rabi + 1e-12, step)
        ws = xgate._frequency_grid(problem, 400)
        roots = []
        for j in (29, 31):
            w_dip = ws[int(np.argmin(one_param_cost(ws, ts[j], problem, 1.0, "even")))]
            r = optim.box_root(lambda X: xgate._u00_rows(X, problem, "even"), [ts[j], w_dip],
                               [ts[27], ws[0]], [ts[33], ws[-1]])
            roots.append((r.x[0], r.x[1], r.fun, r.n_iter))
        (t_a, _, r_a, _), (t_b, _, r_b, _) = roots
        assert max(r_a, r_b) <= optim.ROOT_TOL
        assert abs(t_a - t_b) <= 1e-13 * t_a
        assert f"{t_a:.12g}" == f"{t_b:.12g}"

    def test_wide_dip_root_past_the_bracket_confirmed_by_eigh_oracle(self):
        # as at u_max = 0.01 the dip is wide: the optimized C+1 is 1.29e-6 at
        # T* - 3e-3 T_Rabi and must fall monotonically from there to T*
        problem = GateProblem("x", ModelParams(u_max=0.105))
        res = min_gate_time(problem, with_report=False)
        assert res.residual <= 1e-20
        assert oracle_gap(res, "x", 0.105) <= 1e-20
        assert abs(res.t_star - 23.618429220) < 1e-6
        t_rabi = rabi_pi_time(problem.params)
        gaps = [optimize_omega_eff(res.t_star - k * 2.5e-4 * t_rabi, problem)[1] + 1.0
                for k in range(12, -1, -1)]
        assert gaps[0] > 1e-6
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSmallAmplitudesAndParities:
    """Every parity's first root is found, and population transfer takes the earlier."""

    @pytest.mark.parametrize("kind", ["x", "y", "pt"])
    @pytest.mark.parametrize("u_max", [0.011, 0.02, 0.026])
    def test_small_amplitude_root_confirmed_by_eigh_oracle(self, kind, u_max):
        res = min_gate_time(GateProblem(kind, ModelParams(u_max=u_max)), with_report=False)
        assert res.residual <= 1e-20
        assert oracle_gap(res, kind, u_max) <= 1e-20

    @pytest.mark.parametrize("u_max", [0.01, 0.05, 0.1])
    def test_population_transfer_time_is_the_earlier_parity(self, u_max):
        # C_PT + 1 = |U00|^2 on either wave, so T*_PT = min(T*_X, T*_Y)
        t = {kind: min_gate_time(GateProblem(kind, ModelParams(u_max=u_max)),
                                 with_report=False).t_star for kind in ("x", "y", "pt")}
        assert abs(t["pt"] - min(t["x"], t["y"])) <= 1e-12 * t["pt"]


def expm_u00_squared(res, u_max, omega0=2.0):
    """|U00|^2 of the returned square wave, propagated bang by bang through scipy's expm."""
    expm = pytest.importorskip("scipy.linalg").expm
    bounds, vals = oracle_square_wave(res.omega_eff, res.t_star, u_max, res.sign, res.parity)
    U = np.eye(2, dtype=complex)
    for dt, u in zip(np.diff(bounds), vals):
        U = expm(-1j * dt * np.array([[omega0 / 2.0, u], [u, -omega0 / 2.0]])) @ U
    return abs(U[0, 0]) ** 2


class TestRefusedDips:
    """Amplitudes where the scan sees one dip and the solve from its vertex stalls off the root.

    The root lies in the dip's box, and a start from the vertex of the scan
    row before or after the dip reaches it.  T/T_Rabi is pinned where the
    root was checked to be the earliest on a dense grid.
    """

    @pytest.mark.parametrize("kind, u_max, ratio", [
        ("x", 0.02757, None), ("x", 0.03655, None), ("x", 0.0542, None),
        ("x", 0.075, 0.7811752), ("x", 0.1214, 0.7862190), ("x", 0.17631, None),
        ("x", 0.22829, 0.7759148), ("y", 0.07882, 0.7800068)])
    def test_refused_amplitude_returns_a_root(self, kind, u_max, ratio):
        res = min_gate_time(GateProblem(kind, ModelParams(u_max=u_max)), with_report=False)
        assert res.residual <= optim.ROOT_TOL
        assert expm_u00_squared(res, u_max) <= optim.ROOT_TOL
        if ratio is not None:
            assert abs(res.ratio - ratio) < 1e-6


class TestRowsPerCall:
    """The scan's residual calls take several T rows, and every root keeps its bits.

    The amplitudes are the gate-search benchmark's band centres and those of
    ``TestRefusedDips``, whose first solves stall.
    """

    @staticmethod
    def first_roots(problem, monkeypatch, chunk=None):
        """(the scan's rows per call, first root) per parity, scanned at ``chunk`` rows if given."""
        seen = []

        def spy(f_rows, ts, step, ws):
            for r in optim.dip_roots(f_rows, ts, step, ws):
                seen.append((optim.SCAN_ROWS, r))
                yield r

        monkeypatch.setattr(xgate, "dip_roots", spy)
        if chunk is not None:
            monkeypatch.setattr(optim, "SCAN_ROWS", chunk)
        min_gate_time(problem, with_report=False)
        return seen

    @pytest.mark.parametrize("kind, u_max", [
        ("x", 0.48), ("x", 0.20), ("x", 0.0502), ("y", 0.30), ("pt", 0.30),
        ("x", 0.02757), ("x", 0.03655), ("x", 0.0542), ("x", 0.075), ("x", 0.1214),
        ("x", 0.17631), ("x", 0.22829), ("y", 0.07882)])
    def test_roots_equal_one_row_per_call(self, kind, u_max, monkeypatch):
        problem = GateProblem(kind, ModelParams(u_max=u_max))
        rows = self.first_roots(problem, monkeypatch)
        single = self.first_roots(problem, monkeypatch, chunk=1)
        assert len(rows) == len(single) == len(problem.parities())
        for (chunk, r), (_, r1) in zip(rows, single):
            assert chunk > 1
            assert r.x.tobytes() == r1.x.tobytes()
            assert (r.fun, r.n_iter, r.status) == (r1.fun, r1.n_iter, r1.status)


def n_mid(X, parity):
    """Middle bangs of the square wave at the rows (T, omega) of X: its switch count less one."""
    cycles = X[:, 0] * X[:, 1] / (2.0 * np.pi)
    if parity == "even":
        return np.maximum(2.0 * np.maximum(np.ceil(cycles - 0.5), 0.0) - 1.0, 0.0)
    return 2.0 * (np.ceil(cycles) - 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_square_wave_pairs_equal_five_cell_reference_bitwise(seed):
    # the cells share one W and the cos/sin of their durations; the reference
    # takes hypot, cos and sin for each of the five cells
    rng = np.random.default_rng(seed)
    seen = set()  # middle-bang counts: odd on the even wave (or 0), even on the odd wave
    for u_max in np.exp(rng.uniform(np.log(0.005), np.log(3.0), 12)):
        problem = GateProblem("pt", ModelParams(u_max=float(u_max)))
        X = np.column_stack((rng.uniform(0.0, 1.3, 300) * rabi_pi_time(problem.params),
                             rng.uniform(0.5 * problem.params.omega0,
                                         1.3 * problem.params.big_omega, 300)))
        for parity in ("even", "odd"):
            seen.update(n_mid(X, parity).tolist())
            for sign in (1.0, -1.0):
                new = _square_wave_pairs(X, problem, sign, parity)
                ref = square_wave_pairs(X, problem, sign, parity)
                np.testing.assert_array_equal(new.view(np.uint64), ref.view(np.uint64))
    assert {0.0, 1.0} <= seen
    assert any(m % 2 == 1 and m > 1 for m in seen) and any(m % 2 == 0 and m > 0 for m in seen)


SWEEP = np.geomspace(0.02, 1.0, 80)


@pytest.mark.parametrize("kind", ["x", "y", "pt"])
def test_amplitude_sweep_refuses_nothing_and_t_star_never_rises(kind):
    # a control admissible at u_max is admissible at every larger u_max, so
    # the minimum time cannot rise with it; no reference solution is needed
    t_star = [min_gate_time(GateProblem(kind, ModelParams(u_max=float(u))),
                            with_report=False).t_star for u in SWEEP]
    rises = [(float(u), a, b) for u, a, b in zip(SWEEP[1:], t_star, t_star[1:]) if b > a]
    assert not rises


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.6, 1.2), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]))
def test_square_wave_parity_reduces_gate_costs_to_u00(u_max, t_frac, w_frac, sign):
    """An even wave has U01 = U10 and an odd one U01 = -U10, so C + 1 = |U00|^2.

    Drawn over the gate search's domain: T in [0.6, 1.2] T_Rabi and omega in
    the frequency scan's range.  C + 1 also carries the product's unitarity
    defect, which grows with the segment count (to 4.5e-14 on 2000 random
    cases of up to 50 segments), hence its looser bound.
    """
    params = ModelParams(u_max=u_max)
    T = t_frac * rabi_pi_time(params)
    omega = 0.8 * params.omega0 + w_frac * (1.1 * params.big_omega - 0.8 * params.omega0)
    for parity, kinds, flip in (("even", ("x", "pt"), 1.0), ("odd", ("y", "pt"), -1.0)):
        bounds, vals = square_wave(omega, T, u_max, sign, parity)
        U = ordered_product(segment_propagators(bounds[1:] - bounds[:-1], vals, params))
        assert abs(U[0, 1] - flip * U[1, 0]) <= 1e-14
        for kind in kinds:
            assert abs(gate_cost(U, kind) + 1.0 - abs(U[0, 0]) ** 2) <= 1e-13


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
    @pytest.mark.parametrize("u_max", [0.005, 0.02, 0.1, 0.5])
    def test_period_power_matches_cell_product(self, u_max):
        # the reference multiplies every cell of the scalar square wave
        problem = GateProblem("pt", ModelParams(u_max=u_max))
        ws = np.linspace(0.8 * problem.params.omega0, 1.1 * problem.params.big_omega, 400)
        for frac in (0.6, 0.8):
            T = frac * rabi_pi_time(problem.params)
            for parity in ("even", "odd"):
                for sign in (1.0, -1.0):
                    ref = []
                    for w in ws:
                        bounds, vals = square_wave(w, T, u_max, sign, parity)
                        cells = segment_propagators(np.diff(bounds), vals, problem.params)
                        ref.append(gate_cost(ordered_product(cells), "pt"))
                    power = one_param_cost(ws, T, problem, sign, parity)
                    np.testing.assert_allclose(power + 1.0, np.array(ref) + 1.0,
                                               rtol=0.0, atol=1e-11)

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

    @pytest.mark.parametrize("u_max, kind", [(0.01, "x"), (0.01, "y"), (0.05, "x")])
    def test_powers_match_repeated_product(self, u_max, kind):
        # the reference multiplies the block once per power, as a loop
        out = asymptotic_ratio_model(u_max, kind)
        P, costs = np.eye(2, dtype=complex), []
        for _ in range(int(np.ceil(np.pi / (4.0 * u_max) * 1.5)) + 4):
            P = out["block"] @ P
            costs.append(gate_cost(P, kind))
        costs = np.array(costs)
        hits = np.flatnonzero(costs + 1.0 <= 1e-3 * u_max)
        k = hits[0] if hits.size else np.argmin(costs)
        assert out["n_periods"] == k + 1
        assert out["met_threshold"] == bool(hits.size)
        assert abs(out["cost"] - costs[k]) <= 1e-12

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
