"""State-preparation search: switching-time costs, structures, BSB geometry."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoct.dynamics import (
    BlochPoint,
    ModelParams,
    bloch_from_state,
    ordered_product,
    propagate,
    segment_propagators,
    state_from_bloch,
    state_prep_cost,
)
from qoct.optim import golden_section
from qoct.state_prep import (
    StatePrepProblem,
    StructureLabel,
    best_bsb,
    bsb_candidates,
    canonicalize_bangs,
    cost_of_switchings,
    find_time_optimal,
    optimize_structure,
    _axis_rate,
    _bang_costs,
    _bloch_vec,
    _equator_angles,
    _rot,
)

DEFAULT_INIT = BlochPoint(0.7 * np.pi, 0.0)
DEFAULT_TARGET = BlochPoint(0.35 * np.pi, np.pi)


def problem_at(u_max: float) -> StatePrepProblem:
    return StatePrepProblem(DEFAULT_INIT, DEFAULT_TARGET, ModelParams(u_max=u_max))


class TestCostOfSwitchings:
    def test_short_time_limit_is_initial_overlap(self):
        p = problem_at(0.5)
        psi_i, psi_t = p.states()
        c = cost_of_switchings([], [0.5], 1e-9, p)
        assert abs(c - (-abs(np.vdot(psi_t, psi_i)) ** 2)) < 1e-8

    def test_repair_sorts_times(self):
        p = problem_at(0.5)
        c1 = cost_of_switchings([1.2, 0.4], [0.5, -0.5, 0.5], 2.0, p)
        c2 = cost_of_switchings([0.4, 1.2], [0.5, -0.5, 0.5], 2.0, p)
        assert c1 == c2

    def test_against_fine_grid_taylor_integrator(self):
        # independent oracle: 4th-order Taylor steps snapped to the segments
        p = problem_at(0.5)
        times = [0.53, 1.31]
        values = np.array([0.5, -0.5, 0.5])
        T = 2.2
        c = cost_of_switchings(times, values, T, p)
        psi = p.states()[0]
        bounds = [0.0, *times, T]
        for (a, b), u in zip(zip(bounds[:-1], bounds[1:]), values):
            H = np.array([[1.0, u], [u, -1.0]], dtype=complex)
            n = int(np.ceil((b - a) / 2.2e-5))
            A = -1j * H * ((b - a) / n)
            eye = np.eye(2, dtype=complex)
            step = eye + A + A @ A / 2.0 + A @ A @ A / 6.0 + A @ A @ A @ A / 24.0
            psi = np.linalg.matrix_power(step, n) @ psi
        c_ref = -abs(np.vdot(p.states()[1], psi)) ** 2
        assert abs(c - c_ref) < 1e-8


lane = st.tuples(
    st.integers(0, 9),                        # switch count
    st.floats(0.05, 12.0),                    # T
    st.lists(st.floats(-0.2, 1.2), min_size=9, max_size=9),  # times / T, some clipped
    st.lists(st.sampled_from([1.0, -1.0, 0.0]), min_size=10, max_size=10),
)


class TestBangKernel:
    """Batched costs equal the per-lane scalar path bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(lane, min_size=1, max_size=7), st.integers(0, 4),
           st.floats(0.05, 1.5), st.floats(0.0, np.pi), st.floats(0.0, np.pi),
           st.floats(-3.0, 3.0))
    def test_padded_lanes_equal_scalar_path(self, lanes, extra, u_max, th_i, th_t, ph):
        params = ModelParams(u_max=u_max)
        psi_i = state_from_bloch(BlochPoint(th_i, 0.0))
        psi_t = state_from_bloch(BlochPoint(th_t, ph))
        K = max(k for k, *_ in lanes) + extra  # padding beyond the longest lane too
        times = np.empty((len(lanes), K))
        values = np.empty((len(lanes), K + 1))
        refs, units = [], []
        for b, (k, T, frac, signs) in enumerate(lanes):
            t = T * np.array(frac[:k])
            v = u_max * np.array(signs[:k + 1])
            times[b] = np.concatenate([t, np.full(K - k, T)])
            values[b] = np.concatenate([v, np.full(K - k, v[-1])])
            bounds = np.concatenate([[0.0], np.sort(t.clip(0.0, T)), [T]])
            U = ordered_product(segment_propagators(np.diff(bounds), v, params))
            units.append(U)
            refs.append(state_prep_cost(U, psi_i, psi_t))
        Ts = [T for _, T, _, _ in lanes]
        costs = _bang_costs(times, Ts, values, psi_i, psi_t, params)
        assert costs.tolist() == refs
        stacked = state_prep_cost(np.array(units), psi_i, psi_t)
        assert stacked.shape == (len(lanes),) and stacked.tolist() == refs


class TestOptimizeStructure:
    def test_single_bang_matches_golden_section_oracle(self):
        # minimum over T of the single-bang cost, found two independent ways
        p = problem_at(0.5)

        def cost_at(T):
            _, c, _ = optimize_structure(StructureLabel("bb", 0, 1), T, p)
            return c

        t1, c1 = golden_section(cost_at, 0.05, 2.5, tol=1e-9)

        psi_i, psi_t = p.states()
        h = np.array([0.5, 0.0, 1.0])
        n = h / np.linalg.norm(h)
        rate = 2.0 * np.linalg.norm(h)

        def overlap_cost(T):
            # Rodrigues rotation of the Bloch vector, no propagators involved
            def bloch(psi):
                return np.array([2 * (psi[0].conjugate() * psi[1]).real,
                                 2 * (psi[0].conjugate() * psi[1]).imag,
                                 abs(psi[0]) ** 2 - abs(psi[1]) ** 2])
            r = bloch(psi_i)
            a = rate * T
            r2 = (r * np.cos(a) + np.cross(n, r) * np.sin(a)
                  + n * np.dot(n, r) * (1 - np.cos(a)))
            rt = bloch(psi_t)
            return -0.5 * (1.0 + np.dot(r2, rt))

        t2, c2 = golden_section(overlap_cost, 0.05, 2.5, tol=1e-9)
        assert abs(c1 - c2) < 1e-8
        assert abs(t1 - t2) < 1e-5

    def test_bb6_point_matches_known_layout(self):
        p = problem_at(0.11)
        T = 3.4285 * np.pi
        x0 = 0.232 * np.pi + 0.5584 * np.pi * np.arange(6)
        times, cost, values = optimize_structure(StructureLabel("bb", 6, 1), T, p,
                                                 seeds=4, x0=x0)
        assert cost + 1.0 < 1e-4
        durs = np.diff(np.concatenate([[0.0], times, [T]]))
        mids = durs[1:-1]
        assert abs(np.mean(mids) - 0.56 * np.pi) < 0.01 * np.pi
        assert np.mean(mids) > 0.497 * np.pi
        tbar = np.mean(mids)
        assert np.max(np.abs(mids - tbar)) < 1e-3 * tbar

    def test_deterministic(self):
        p = problem_at(0.5)
        a = optimize_structure(StructureLabel("bb", 2, 1), 1.3 * np.pi, p, seeds=3)
        b = optimize_structure(StructureLabel("bb", 2, 1), 1.3 * np.pi, p, seeds=3)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestBsbConstruction:
    def test_candidates_reach_target_exactly(self):
        p = problem_at(0.8)
        for cand in bsb_candidates(p)[:3]:
            c = cost_of_switchings([cand["t1"], cand["t1"] + cand["coast"]],
                                   [cand["s1"] * 0.8, 0.0, cand["s2"] * 0.8],
                                   cand["T"], p)
            assert c + 1.0 < 1e-10

    def test_coast_rides_equator(self):
        p = problem_at(0.8)
        res = find_time_optimal(p, with_report=False)
        assert res.structure.kind == "bsb"
        proto = res.protocol()
        psi_i = state_from_bloch(p.init)
        traj = propagate(proto, p.params, psi_i, n_samples=4001)
        t1, t2 = res.switch_times
        mask = (traj.times > t1 + 1e-9) & (traj.times < t2 - 1e-9)
        thetas = np.array([bloch_from_state(s).theta for s in traj.states[mask]])
        assert np.max(np.abs(thetas - np.pi / 2)) < 1e-6
        phis = np.unwrap([bloch_from_state(s).phi for s in traj.states[mask]])
        dt = traj.times[1] - traj.times[0]
        rate = (phis[-1] - phis[0]) / (dt * (mask.sum() - 1))
        assert abs(rate - 2.0) < 1e-6

    def test_equator_angles_off_the_phi_zero_arc(self):
        # azimuths other than 0 and pi make the cross term C nonzero, which
        # the equator-crossing angles must carry with the right sign
        p = StatePrepProblem(BlochPoint(0.7 * np.pi, 0.3), DEFAULT_TARGET,
                             ModelParams(u_max=0.85))
        r_i, r_t = (_bloch_vec(s) for s in p.states())
        landed = []
        for s in (1, -1):
            n, _ = _axis_rate(s * 0.85, p.params)
            landed += [_rot(n, a, r_i)[2] for a in _equator_angles(r_i, n)]
            landed += [_rot(n, -a, r_t)[2]
                       for a in _equator_angles(r_t, n, backward=True)]
        assert len(landed) >= 4
        assert np.max(np.abs(landed)) < 1e-12
        best = bsb_candidates(p)[0]
        c = cost_of_switchings([best["t1"], best["t1"] + best["coast"]],
                               [best["s1"] * 0.85, 0.0, best["s2"] * 0.85],
                               best["T"], p)
        assert c + 1.0 <= 1e-6

    def test_singular_duration_monotone_toward_critical_amplitude(self):
        coasts = [best_bsb(problem_at(u))["coast"] for u in (0.65, 0.7, 0.8, 1.0)]
        assert all(a < b for a, b in zip(coasts, coasts[1:]))


class TestCanonicalize:
    def test_drops_zero_segments_and_merges(self):
        times, values, label = canonicalize_bangs(
            [1e-12, 0.8, 1.5], [0.5, -0.5, -0.5, 0.5], 2.0)
        assert label.kind == "bb" and label.n_switch == 1
        np.testing.assert_allclose(times, [1.5])
        np.testing.assert_allclose(values, [-0.5, 0.5])

    def test_labels_bsb(self):
        _, _, label = canonicalize_bangs([0.4, 0.9], [0.5, 0.0, -0.5], 1.5)
        assert label.kind == "bsb"


class TestFindTimeOptimal:
    def test_bb2_wins_at_half_amplitude(self):
        res = find_time_optimal(problem_at(0.5), with_report=False)
        assert str(res.structure) == "BB-2"
        assert res.cost + 1.0 < 1e-6
        # the metastable BSB candidate exists but takes longer
        bsb_T = best_bsb(problem_at(0.5))["T"]
        assert res.t_star < bsb_T

    def test_bsb_wins_at_large_amplitude(self):
        res = find_time_optimal(problem_at(0.8), with_report=False)
        assert str(res.structure) == "BSB"
        assert res.diagnostics["singular_duration"] > 1e-3 * res.t_star

    def test_t_star_monotone_in_amplitude(self):
        ts = [find_time_optimal(problem_at(u), with_report=False).t_star
              for u in (0.3, 0.5, 0.8, 1.0)]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    def test_not_found_reported(self):
        res = find_time_optimal(problem_at(0.05), t_max=0.2 * np.pi,
                                with_report=False)
        assert not res.found
        with pytest.raises(ValueError):
            res.protocol()

    def test_hit_before_first_coarse_step_bisects_from_zero(self):
        # the only coarse time, t_max = 0.2 < pi/4, hits; no time before it missed
        p = StatePrepProblem(BlochPoint(0.0, 0.0), BlochPoint(0.001, 0.0),
                             ModelParams(u_max=0.2))
        res = find_time_optimal(p, t_max=0.2, with_report=False)
        assert res.found and 0.0 < res.t_star <= 0.2
        assert res.cost <= -1.0 + 1e-6

    def test_phi_and_hoc_vanish_jointly_at_t_star(self):
        from qoct.state_prep import report_near_optimum
        p = problem_at(0.5)
        res = find_time_optimal(p, with_report=False)
        rep_at = report_near_optimum(res.structure, res.t_star, res.switch_times,
                                     res.values, p, shrink=0.9999)
        rep_below = report_near_optimum(res.structure, res.t_star, res.switch_times,
                                        res.values, p, shrink=0.95)
        assert rep_at.max_abs_phi < 0.10 * rep_below.max_abs_phi
        assert abs(rep_at.lambda0) < 0.10 * abs(rep_below.lambda0)

    def test_accepted_optimum_passes_pmp_checks(self):
        res = find_time_optimal(problem_at(0.5))
        rep = res.report
        assert rep.sign_fraction >= 0.999
        assert rep.hoc_seg_max_dev < 1e-8
        assert rep.lambda0 > 0.0  # H_oc constant and negative below T*
        assert np.all(rep.hoc < 0.0)
