"""State-preparation search: switching-time costs, structures, BSB geometry."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoct.dynamics import (
    TARGET_TOL,
    BlochPoint,
    ModelParams,
    bloch_from_state,
    cell_pairs,
    ordered_product,
    pair_product,
    propagate,
    segment_propagators,
    state_from_bloch,
)
from qoct import optim, state_prep
from qoct.optim import golden_section
from qoct.pmp import CostSpec
from qoct.state_prep import (
    StatePrepProblem,
    StructureLabel,
    bsb_candidates,
    canonicalize_bangs,
    cost_of_switchings,
    find_time_optimal,
    optimize_structure,
    _axis_rate,
    _bang_costs,
    _bloch_vec,
    _equator_angles,
    _reduced_to_times,
    _rot,
    _scan_optima,
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

reduced_lane = st.tuples(
    st.integers(1, 8),                        # switch count; BB-1 is searched alone
    st.booleans(),                            # BSB values, when the count is 2
    st.floats(0.05, 12.0),                    # T
    st.floats(0.0, 1.0),                      # t0 / T
    st.floats(0.0, 1.0),                      # tbar, as a share of its box
)


class TestBangKernel:
    """Batched costs equal the per-lane scalar path bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(lane, min_size=1, max_size=7), st.integers(0, 4),
           st.floats(0.05, 1.5), st.floats(0.0, np.pi), st.floats(0.0, np.pi),
           st.floats(-3.0, 3.0))
    def test_padded_lanes_equal_scalar_path(self, lanes, extra, u_max, th_i, th_t, ph):
        params = ModelParams(u_max=u_max)
        cost = CostSpec("sp", init=state_from_bloch(BlochPoint(th_i, 0.0)),
                        target=state_from_bloch(BlochPoint(th_t, ph)))
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
            # the unpadded lane alone, as a one-pair stack
            refs.append(cost.gap(U[None, 0, 0], U[None, 1, 0])[0])
        Ts = [T for _, T, _, _ in lanes]
        gaps = _bang_costs(times, Ts, values, cost, params)
        assert gaps.tolist() == refs
        units = np.array(units)
        stacked = cost.gap(units[:, 0, 0], units[:, 1, 0])
        assert stacked.shape == (len(lanes),) and stacked.tolist() == refs

    @settings(max_examples=150, deadline=None)
    @given(st.lists(reduced_lane, min_size=1, max_size=9), st.booleans(),
           st.floats(0.05, 1.5), st.floats(0.0, np.pi), st.floats(0.0, np.pi),
           st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    @example(lanes=[(6, False, 10.0, 0.9, 1.0), (3, False, 4.0, 0.0, 0.0)], one_dim=False,
             u_max=0.104, th_i=0.7 * np.pi, th_t=0.35 * np.pi, ph=np.pi, seed=0)
    # the product of this lane's cells drifts 2.1e-15 from unit norm
    @example(lanes=[(1, False, 1.0, 0.0, 0.0)] * 8
             + [(8, False, 7.840786318715502, 0.96875, 5.960464477539063e-08)],
             one_dim=False, u_max=1.05, th_i=1.0, th_t=1.0, ph=0.0, seed=0)
    def test_reduced_rows_equal_bang_costs_on_padded_times(self, lanes, one_dim, u_max,
                                                           th_i, th_t, ph, seed):
        # rows in the scan's box: t0 in [0, T], tbar in [1e-9, T/(k-1)], so
        # t0 + (k-1) tbar runs up to 2T and the clip at T is exercised
        params = ModelParams(u_max=u_max)
        psi_i = state_from_bloch(BlochPoint(th_i, 0.0))
        psi_t = state_from_bloch(BlochPoint(th_t, ph))
        if one_dim:
            lanes = [(1, False, *rest) for _, _, *rest in lanes]
        else:
            lanes = [(max(k, 2), bsb, *rest) for k, bsb, *rest in lanes]
        kmax = max(k for k, *_ in lanes)
        lane_T, lane_k, lane_values, X = [], [], [], []
        for k, bsb, T, f0, f1 in lanes:
            if bsb and k == 2:
                v = np.array([u_max, 0.0, -u_max])
            else:
                v = state_prep._bb_values(k, 1, u_max)
            lane_T.append(T)
            lane_k.append(k)
            lane_values.append(np.pad(v, (0, kmax - k), mode="edge"))
            X.append([f0 * T, 0.0] if k == 1 else [f0 * T, 1e-9 + f1 * (T / (k - 1) - 1e-9)])
        lane_T, lane_k, lane_values = np.array(lane_T), np.array(lane_k), np.array(lane_values)
        # rows in any order, lanes repeated, as the lane search asks for them
        rows = np.random.default_rng(seed).integers(0, len(lanes), 3 * len(lanes))
        X = np.array(X)[rows]
        cost = CostSpec("sp", init=psi_i, target=psi_t)
        G = state_prep._reduced_rows(lane_T, lane_k, lane_values, cost, params)(X, rows)
        assert G.shape == (len(rows), 2)
        times = np.full((len(rows), kmax), lane_T[rows, None])
        for r, lane in enumerate(rows):
            k = lane_k[lane]
            times[r, :k] = X[r, 0] + X[r, 1] * np.arange(k) if k > 1 else X[r, 0]
        ref = _bang_costs(times, lane_T[rows], lane_values[rows], cost, params)
        np.testing.assert_allclose((G * G).sum(axis=1), ref, rtol=0.0, atol=2e-15)


class TestScanLanes:
    @pytest.mark.parametrize("warm", [False, True], ids=["seeded", "warm"])
    def test_no_two_lanes_of_a_structure_share_a_start(self, warm, monkeypatch):
        seen = []
        solve = optim.gauss_newton

        def spy(f_rows, starts, *args):
            seen.append(np.array(starts, dtype=float))
            return solve(f_rows, starts, *args)

        monkeypatch.setattr(optim, "gauss_newton", spy)
        p = problem_at(0.3)
        T = 2.0 * np.pi
        for s in (StructureLabel("bb", 1, 1), StructureLabel("bb", 2, -1),
                  StructureLabel("bb", 4, 1)):
            start = None
            if warm:
                start = np.array([0.3, 0.0]) if s.n_switch == 1 else np.array([0.2, 0.9])
            seen.clear()
            _scan_optima([s], [T], [start], p)
            (starts,) = seen
            assert len(np.unique(starts, axis=0)) == len(starts), str(s)

    def test_drawn_starts_are_each_structures_own_generator_draws(self, monkeypatch):
        # one call draws for all structures; each structure's drawn starts
        # must keep the bits of a fresh default_rng(0)'s uniform draws at its T
        seen = []
        solve = optim.gauss_newton

        def spy(f_rows, starts, *args):
            seen.append(np.array(starts, dtype=float))
            return solve(f_rows, starts, *args)

        monkeypatch.setattr(optim, "gauss_newton", spy)
        structures = [StructureLabel("bb", k, s) for k, s in
                      ((1, 1), (2, -1), (0, 1), (5, 1), (1, -1), (8, -1))]
        Ts = [0.7, 2.9, 1.0, 7.3, 4.4, 12.1]
        warms = [None, np.array([0.2, 0.5]), None, None, np.array([1.5, 0.0]),
                 np.array([0.3, 1.1])]
        _scan_optima(structures, Ts, warms, problem_at(0.3))
        (starts,) = seen
        row = 0
        for s, T, warm in zip(structures, Ts, warms):
            k = s.n_switch
            if k == 0:
                continue
            rng = np.random.default_rng(0)
            drawn = [[rng.uniform(0.0, T), 0.0] if k == 1 else
                     [rng.uniform(0.0, T / (k + 1)), rng.uniform(0.3, 1.0) * T / (k - 1)]
                     for _ in range(state_prep._SCAN_DRAWS)]
            if warm is not None:
                assert starts[row].tobytes() == warm.tobytes()
                row += 1
            assert starts[row:row + len(drawn)].tobytes() == np.array(drawn).tobytes(), str(s)
            row += len(drawn) + state_prep._GRID_SEEDS
        assert row == len(starts)


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
        times, cost, values = optimize_structure(StructureLabel("bb", 6, 1), T, p, x0=x0)
        assert cost + 1.0 < 1e-4
        durs = np.diff(np.concatenate([[0.0], times, [T]]))
        mids = durs[1:-1]
        assert abs(np.mean(mids) - 0.56 * np.pi) < 0.01 * np.pi
        assert np.mean(mids) > 0.497 * np.pi
        tbar = np.mean(mids)
        assert np.max(np.abs(mids - tbar)) < 1e-3 * tbar

    def test_bsb_refused(self):
        # BSB is the closed-form construction; the reduced search is BB's alone
        with pytest.raises(ValueError, match="BSB"):
            optimize_structure(StructureLabel("bsb", 2, 1), 3.0, problem_at(0.85))

    def test_deterministic(self):
        p = problem_at(0.5)
        a = optimize_structure(StructureLabel("bb", 2, 1), 1.3 * np.pi, p)
        b = optimize_structure(StructureLabel("bb", 2, 1), 1.3 * np.pi, p)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def free_time_optimum(structure, T, problem, x0, restarts=12):
    """Lowest cost of a restarted Nelder-Mead over all k switch times of a BB structure, free.

    The reference search: every switch time is its own coordinate (sorted
    and clipped by the cost), and the restarts start from x0 and from
    stratified draws.
    """
    k = structure.n_switch
    values = structure.lead_sign * problem.params.u_max * (-1.0) ** np.arange(k + 1)

    def draw(rng):
        return np.sort(T * (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k)

    return optim.nelder_mead_restarts(
        lambda x: cost_of_switchings(x, values, T, problem), x0, draw, restarts, 2000, 1e-10,
        bounds=((0.0, T),) * k).fun


@pytest.fixture(scope="module")
def optima():
    """find_time_optimal at the BB-6, BB-4, BB-2 and BSB plateaus."""
    return {u: find_time_optimal(problem_at(u), with_report=False)
            for u in (0.11, 0.16, 0.5, 0.85)}


class TestSingleSearch:
    def test_t_star_times_are_the_winning_lane(self, monkeypatch):
        hits = []

        def spy(structures, Ts, *args):
            out = scan(structures, Ts, *args)
            hits.extend((s, T, r.x, r.fun) for s, T, r in zip(structures, Ts, out)
                        if r.fun <= TARGET_TOL)
            return out

        scan = state_prep._scan_optima
        monkeypatch.setattr(state_prep, "_scan_optima", spy)
        # at u = 0.5 the winning lane is a BB-3 with a switch clipped to 0
        # or T, whose canonical form is BB-2
        for u, lane_label, label in ((0.16, "BB-4", "BB-4"), (0.5, "BB-3", "BB-2")):
            hits.clear()
            p = problem_at(u)
            res = find_time_optimal(p, with_report=False)
            assert str(res.structure) == label
            # the winner is the first lane at T* whose canonical structure is the result's
            for s, T, x, _ in hits:
                times = _reduced_to_times(x, s, T)
                values = state_prep._bb_values(s.n_switch, s.lead_sign, u)
                if T == res.t_star and canonicalize_bangs(times, values, T)[2] == res.structure:
                    break
            assert T == res.t_star and str(s) == lane_label
            assert res.cost == cost_of_switchings(times, values, res.t_star, p)
            canonical, canonical_values, _ = canonicalize_bangs(times, values, res.t_star)
            assert np.array(res.switch_times).tobytes() == canonical.tobytes()
            assert res.values == tuple(canonical_values)

    def test_bsb_alone_runs_no_lane_search(self, optima, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a lane search ran")

        monkeypatch.setattr(state_prep, "_scan_optima", no_scan)
        res = find_time_optimal(problem_at(0.85), structures=[StructureLabel("bsb", 2, 1)],
                                with_report=False)
        default = optima[0.85]
        assert (res.t_star, res.structure, res.switch_times) == \
            (default.t_star, default.structure, default.switch_times)

    @pytest.mark.parametrize("u, label", [(0.11, "BB-6"), (0.16, "BB-4"), (0.5, "BB-2")])
    def test_no_worse_than_free_times_below_t_star(self, optima, u, label):
        res = optima[u]
        assert str(res.structure) == label
        p = problem_at(u)
        T = 0.999 * res.t_star
        x0 = np.array(res.switch_times) * 0.999
        times, cost, values = optimize_structure(res.structure, T, p, x0=x0)
        assert cost <= free_time_optimum(res.structure, T, p, x0) + 1e-12
        assert cost == cost_of_switchings(times, values, T, p)
        durs = np.diff(np.concatenate([[0.0], times, [T]]))
        mids = durs[1:-1]
        assert np.max(np.abs(mids - mids[0])) <= 1e-12 * mids[0]


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
        coasts = [bsb_candidates(problem_at(u))[0]["coast"] for u in (0.65, 0.7, 0.8, 1.0)]
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
        bsb_T = bsb_candidates(problem_at(0.5))[0]["T"]
        assert res.t_star < bsb_T

    def test_bsb_wins_at_large_amplitude(self):
        res = find_time_optimal(problem_at(0.8), with_report=False)
        assert str(res.structure) == "BSB"
        assert res.diagnostics["singular_duration"] > 1e-3 * res.t_star

    def test_t_star_monotone_in_amplitude(self):
        ts = [find_time_optimal(problem_at(u), with_report=False).t_star
              for u in (0.3, 0.5, 0.8, 1.0)]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("forced", ["max-iter", "stalled"])
    def test_stalled_misses_counted(self, forced, monkeypatch):
        # every lane is made to end with the forced status; a miss is a
        # structure whose best scan or refinement residual stays above the target
        solve, scan = optim.gauss_newton, state_prep._scan_optima
        misses = []

        def forced_solve(*args):
            runs = solve(*args)
            for r in runs:
                r.status = forced
            return runs

        def spy(structures, *args):
            optima = scan(structures, *args)
            # BB-0 has no lanes: nothing of it can stall
            misses.extend(s.n_switch > 0 and r.fun > TARGET_TOL
                          for s, r in zip(structures, optima))
            return optima

        monkeypatch.setattr(optim, "gauss_newton", forced_solve)
        monkeypatch.setattr(state_prep, "_scan_optima", spy)
        res = find_time_optimal(problem_at(0.5), with_report=False)
        assert res.found and sum(misses) > 0
        expected = sum(misses) if forced == "max-iter" else 0
        assert res.diagnostics["stalled_misses"] == expected

    def test_not_found_reported(self):
        res = find_time_optimal(problem_at(0.05), t_max=0.2 * np.pi,
                                with_report=False)
        assert not res.found
        with pytest.raises(ValueError):
            res.protocol()

    def test_hit_before_first_coarse_step_bisects_from_zero(self):
        # the only coarse time, t_max = 0.2 < pi/4, hits; no time before it missed
        p = StatePrepProblem(BlochPoint(0.0, 0.0), BlochPoint(0.003, 0.0),
                             ModelParams(u_max=0.2))
        res = find_time_optimal(p, t_max=0.2, with_report=False)
        assert res.found and 0.0 < res.t_star <= 0.2
        assert res.cost <= -1.0 + 1e-6

    @pytest.mark.parametrize("dtheta", [0.0, 1e-3], ids=["equal", "within-tol"])
    def test_already_solved_problem_refused(self, dtheta):
        # 1 - cos^2(dtheta / 2) = 2.5e-7 <= TARGET_TOL: T = 0 already meets the target
        p = StatePrepProblem(BlochPoint(1.0, 0.0), BlochPoint(1.0 + dtheta, 0.0),
                             ModelParams(u_max=0.2))
        with pytest.raises(ValueError, match="already"):
            find_time_optimal(p, with_report=False)

    def test_phi_and_hoc_vanish_jointly_at_t_star(self):
        from qoct.state_prep import report_near_optimum
        p = problem_at(0.5)
        res = find_time_optimal(p, with_report=False)
        rep_at = report_near_optimum(res.structure, res.t_star, res.switch_times, p,
                                     shrink=0.9999)
        rep_below = report_near_optimum(res.structure, res.t_star, res.switch_times, p,
                                        shrink=0.95)
        assert rep_at.max_abs_phi < 0.10 * rep_below.max_abs_phi
        assert abs(rep_at.lambda0) < 0.10 * abs(rep_below.lambda0)

    def test_accepted_optimum_passes_pmp_checks(self):
        res = find_time_optimal(problem_at(0.5))
        rep = res.report
        assert rep.sign_fraction >= 0.999
        assert rep.hoc_seg_max_dev < 1e-8
        assert rep.lambda0 > 0.0  # H_oc constant and negative below T*
        assert np.all(rep.hoc < 0.0)


def _turn(r, angle):
    """R_z(angle) r, for Bloch vectors on the first axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * r[0] - s * r[1], s * r[0] + c * r[1], r[2]])


def _bloch_angle(r, q):
    return np.arctan2(np.linalg.norm(np.cross(r, q, axis=0), axis=0), np.sum(r * q, axis=0))


class TestSpeedLimit:
    @pytest.mark.parametrize("omega0", [1.0, 2.0, 3.3])
    def test_rotating_frame_bound_and_its_sign(self, omega0):
        # random piecewise-constant controls: the Bloch vector seen in the
        # frame rotating with the drift travels at most 2 u_max T
        rng = np.random.default_rng(7)
        params = ModelParams(u_max=1.0, omega0=omega0)
        right, wrong = [], []
        for n_cells in (1, 2, 3, 5, 8, 13, 21, 34):
            lanes = 250
            u_max = rng.uniform(0.02, 1.5, lanes)
            durs = rng.exponential(rng.uniform(0.05, 2.0, lanes), (n_cells, lanes))
            values = u_max * np.where(rng.random((n_cells, lanes)) < 0.5,
                                      rng.choice([-1.0, 1.0], (n_cells, lanes)),
                                      rng.uniform(-1.0, 1.0, (n_cells, lanes)))
            T = durs.sum(axis=0)
            theta, phi = np.arccos(rng.uniform(-1.0, 1.0, lanes)), rng.uniform(-np.pi, np.pi, lanes)
            psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            a, b = np.moveaxis(pair_product(cell_pairs(durs, values, params)), -1, 0)
            final = np.array([a * psi[0] - np.conj(b) * psi[1], b * psi[0] + np.conj(a) * psi[1]])
            r_i, r_T = _bloch_vec(psi), _bloch_vec(final)
            right.append(_bloch_angle(r_i, _turn(r_T, -omega0 * T)) - 2.0 * u_max * T)
            wrong.append(_bloch_angle(r_i, _turn(r_T, omega0 * T)) - 2.0 * u_max * T)
        assert np.max(right) <= 1e-12
        assert np.max(wrong) > 0.1

    @pytest.mark.parametrize("omega0, u_max, T", [(2.0, 0.104, 3.0), (1.0, 0.5, 1.3),
                                                  (3.3, 1.2, 0.4), (2.0, 0.3, 5.1)])
    def test_predicate_threshold_in_the_rotating_frame(self, omega0, u_max, T):
        # targets whose rotating-frame angle from the initial state lies just
        # inside or just outside 2 u_max T plus the angle a hit may miss by
        rng = np.random.default_rng(3)
        hit_angle = 2.0 * np.arcsin(np.sqrt(TARGET_TOL))
        for _ in range(5):
            r_i = rng.normal(size=3)
            r_i /= np.linalg.norm(r_i)
            e = np.cross(r_i, rng.normal(size=3))
            e /= np.linalg.norm(e)
            for share, excluded in ((0.99, False), (1.01, True)):
                d = 2.0 * u_max * T + share * hit_angle
                r_t = _turn(np.cos(d) * r_i + np.sin(d) * e, omega0 * T)
                p = StatePrepProblem(
                    *(BlochPoint(np.arccos(r[2]), np.arctan2(r[1], r[0])) for r in (r_i, r_t)),
                    ModelParams(u_max=u_max, omega0=omega0))
                assert state_prep._speed_limit_excludes(p, T) is excluded

    @pytest.mark.parametrize("u", [0.104, 0.16, 0.85])
    def test_excluded_grid_times_miss_at_benchmark_centres(self, u):
        p = problem_at(u)
        excluded = [T for T in 0.25 * np.pi * np.arange(1, 20)
                    if state_prep._speed_limit_excludes(p, T)]
        assert excluded
        for T in excluded:
            # the scan's own lanes for every BB structure, and the grid
            # oracle's for BSB (both trailing signs) and BB alike
            kmax = int(np.ceil(2.0 * T / np.pi)) + 2
            structures = [StructureLabel("bb", k, s) for k in range(kmax + 1) for s in (1, -1)]
            optima = _scan_optima(structures, [T] * len(structures), [None] * len(structures), p)
            assert all(r.fun > TARGET_TOL for r in optima), T
            oracle = grid_oracle(p, T)
            assert "BSB" in oracle and min(oracle.values()) > TARGET_TOL, T

    def test_speed_limit_skip_at_bsb_time_ends_scan(self, monkeypatch):
        # a grid time at or above the BSB time ends the scan whether it is
        # searched and misses or the speed limit rules it out
        p = problem_at(0.85)
        bsb_T = bsb_candidates(p)[0]["T"]
        T_end = 0.5 * np.pi
        assert 0.25 * np.pi < bsb_T <= T_end
        scan, excludes = state_prep._scan_optima, state_prep._speed_limit_excludes
        scanned = []

        def missing_scan(structures, Ts, *args):
            scanned.extend(Ts)
            if Ts[0] == T_end:  # the coarse scan at T_end: every structure misses
                return [optim.OptimResult(x=r.x, fun=1.0, status="stalled")
                        for r in scan(structures, Ts, *args)]
            return scan(structures, Ts, *args)

        monkeypatch.setattr(state_prep, "_scan_optima", missing_scan)
        searched = find_time_optimal(p, with_report=False)
        assert T_end in scanned
        scanned.clear()
        monkeypatch.setattr(state_prep, "_speed_limit_excludes",
                            lambda problem, T: T == T_end or excludes(problem, T))
        skipped = find_time_optimal(p, with_report=False)
        assert max(scanned, default=0.0) < T_end
        assert skipped.diagnostics["candidates"] == searched.diagnostics["candidates"]
        assert skipped.diagnostics["candidates"] == [(bsb_T, "BSB")]
        assert (skipped.t_star, skipped.structure, skipped.switch_times) == \
            (searched.t_star, searched.structure, searched.switch_times)
        assert skipped.diagnostics["speed_limit_skips"] == \
            searched.diagnostics["speed_limit_skips"] + 1


def grid_oracle(problem, T):
    """Lowest |G|^2 at T of every structure the scan searches there, by label.

    BSB and BB-0 to BB-(ceil(omega0 T / pi) + 2), both leading signs (BSB
    both trailing signs too), each in its (t0, tbar) box: a 64 x 64 grid
    (256 points of t0 for BB-1) in one pair-kernel call per segment-value
    set, then Gauss-Newton from its 8 best grid points, all sets' lanes in
    one solve.  The grid's starts are the scan's independent check.
    """
    params = problem.params
    kmax = int(np.ceil(params.omega0 * T / np.pi)) + 2
    structures = [StructureLabel("bsb", 2, s) for s in (1, -1)]
    structures += [StructureLabel("bb", k, s) for k in range(kmax + 1) for s in (1, -1)]
    u = params.u_max
    sets = [(s, np.array([s.lead_sign * u, 0.0, s2 * u])) for s in structures[:2]
            for s2 in (1.0, -1.0)]
    sets += [(s, state_prep._bb_values(s.n_switch, s.lead_sign, u)) for s in structures[2:]]
    lane_values = np.array([np.pad(v, (0, kmax + 1 - len(v)), mode="edge") for _, v in sets])
    rows = state_prep._reduced_rows(np.full(len(sets), T),
                                    np.array([s.n_switch for s, _ in sets]), lane_values,
                                    problem.cost_spec(), params)
    best, starts, owners = {}, [], []
    for i, (s, _) in enumerate(sets):
        lo, hi = state_prep._box(s, T) if s.n_switch else ((0.0, 0.0), (0.0, 0.0))
        if s.n_switch == 1:
            X = np.column_stack([np.linspace(lo[0], hi[0], 256), np.zeros(256)])
        else:
            X = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 64),
                                     np.linspace(lo[1], hi[1], 64)), axis=-1).reshape(-1, 2)
        r2 = (rows(X, np.full(len(X), i)) ** 2).sum(axis=1)
        best[str(s)] = min(best.get(str(s), np.inf), r2.min())
        if s.n_switch:
            starts += list(X[np.argsort(r2, kind="stable")[:8]])
            owners += [i] * 8
    owners = np.array(owners)
    boxes = np.array([state_prep._box(sets[i][0], T) for i in owners])
    runs = optim.gauss_newton(lambda X, lanes: rows(X, owners[lanes]), starts,
                              lambda X, lanes: X.clip(boxes[lanes, 0], boxes[lanes, 1]))
    for i, r in zip(owners, runs):
        label = str(sets[i][0])
        best[label] = min(best[label], r.fun)
    return best


class TestGridOracle:
    """No structure reaches the target 2e-3 pi before T*, twice the refinement's resolution."""

    @pytest.mark.parametrize("u", [0.104, 0.16, 0.85, 0.35, 0.11])
    def test_every_structure_misses_just_before_t_star(self, u, optima):
        res = optima[u] if u in optima else find_time_optimal(problem_at(u), with_report=False)
        p = problem_at(u)
        early = grid_oracle(p, res.t_star - 2e-3 * np.pi)
        assert min(early.values()) > TARGET_TOL, early
        # and the oracle sees the winner's hit at T* itself
        assert grid_oracle(p, res.t_star)[str(res.structure)] <= TARGET_TOL

    @pytest.mark.parametrize("u", [0.104, 0.16, 0.85, 0.35, 0.11])
    def test_winner_searched_alone_keeps_every_bit(self, u, monkeypatch):
        # a structure's lanes do not depend on the structures searched beside
        # it, which is what lets the refinement stop refining the others
        p = problem_at(u)
        res, lane = winning_lane(p, monkeypatch)
        alone = find_time_optimal(p, structures=[lane], with_report=False)
        assert (alone.t_star, alone.structure) == (res.t_star, res.structure)
        assert np.array(alone.switch_times).tobytes() == np.array(res.switch_times).tobytes()


def winning_lane(problem, monkeypatch):
    """find_time_optimal's result, and the structure whose lane it took (BSB for BSB).

    The lane is a structure that hit at T* with the result's canonical
    structure and switch times.
    """
    hits = []
    scan = state_prep._scan_optima

    def spy(structures, Ts, *args):
        out = scan(structures, Ts, *args)
        hits.extend((s, T, r.x) for s, T, r in zip(structures, Ts, out) if r.fun <= TARGET_TOL)
        return out

    monkeypatch.setattr(state_prep, "_scan_optima", spy)
    res = find_time_optimal(problem, with_report=False)
    monkeypatch.setattr(state_prep, "_scan_optima", scan)
    if res.structure.kind == "bsb":
        return res, StructureLabel("bsb", 2, 1)
    u = problem.params.u_max
    for s, T, x in hits:
        times, _, label = canonicalize_bangs(_reduced_to_times(x, s, T),
                                             state_prep._bb_values(s.n_switch, s.lead_sign, u), T)
        if T == res.t_star and label == res.structure and \
                times.tobytes() == np.array(res.switch_times).tobytes():
            return res, s
    raise AssertionError("no lane at T* gives the result")


class TestPruning:
    """The refinement stops refining a hit once its bracket starts a resolution above the best."""

    # at 0.852785 both leading signs of BB-3 stop refining, at different times
    @pytest.mark.parametrize("u", [0.104, 0.35, 0.5, 0.85, 0.852785])
    def test_no_structure_refines_once_it_cannot_win(self, u, monkeypatch):
        calls = []
        scan = state_prep._scan_optima

        def spy(structures, Ts, *args):
            out = scan(structures, Ts, *args)
            calls.append([(s, T, r.fun <= TARGET_TOL) for s, T, r in zip(structures, Ts, out)])
            return out

        monkeypatch.setattr(state_prep, "_scan_optima", spy)
        p = problem_at(u)
        res = find_time_optimal(p, with_report=False)
        resolution = 1e-3 * np.pi
        bsb_T = min([t for t, label in res.diagnostics["candidates"] if label == "BSB"],
                    default=np.inf)
        # the coarse scan ends at the first call with a hit; every later call
        # refines, with one or more probes of each structure still refining
        first = next(i for i, call in enumerate(calls) if any(hit for *_, hit in call))
        T_hit = calls[first][0][1]
        lo = {s: T_hit - 0.25 * np.pi for s, _, hit in calls[first] if hit}
        hits = {s: [T_hit] for s in lo}
        for call in calls[first + 1:]:
            best = min([bsb_T] + [min(h) for h in hits.values()])
            for s, T, hit in call:
                assert lo[s] < best + resolution, (str(s), T)
                assert lo[s] < T < min(hits[s])
            # hi becomes each structure's lowest hit probe, lo its highest miss below
            for s, T, hit in call:
                if hit:
                    hits[s].append(T)
            for s, T, hit in call:
                if not hit and T < min(hits[s]):
                    lo[s] = max(lo[s], T)
        best_T = min(t for t, _ in res.diagnostics["candidates"])
        assert res.diagnostics["pruned"]
        signed = {f"BB-{s.n_switch}{'+' if s.lead_sign > 0 else '-'}": s for s in hits}
        labels = [label for _, label in res.diagnostics["pruned"]]
        assert len(set(labels)) == len(labels)
        for t, label in res.diagnostics["pruned"]:
            # the structure of that label and leading sign last hit at t;
            # its refined time would lie above lo, outside the tie set
            s = signed[label]
            assert min(hits[s]) == t and lo[s] >= best_T + resolution, (t, label)
        # the candidates and the pruned hits are every hit structure, once
        assert len(res.diagnostics["candidates"]) + len(res.diagnostics["pruned"]) == \
            len(hits) + (bsb_T < np.inf)


bracket = st.integers(0, 300).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo + 2, lo + 300)))


class TestRefinement:
    """The probe choice, and the calls it makes at the benchmark amplitudes."""

    @settings(max_examples=300, deadline=None)
    @given(bracket, st.one_of(st.none(), st.floats(-50.0, 650.0), st.just(np.inf)))
    @example(bracket=(0, 256), zero=100.5)
    @example(bracket=(7, 9), zero=8.0)
    @example(bracket=(0, 3), zero=None)
    def test_probes_at_least_halve_the_bracket(self, bracket, zero):
        lo, hi = bracket
        probes = state_prep._probe_cells(lo, hi, zero)
        assert probes and probes == sorted(set(probes))
        assert all(lo < k < hi for k in probes)
        edges = [lo, *probes, hi]
        assert max(b - a for a, b in zip(edges, edges[1:])) <= -(-(hi - lo) // 2)
        if zero is not None and lo <= zero < hi:
            # the cell holding the estimate is a sub-bracket of its own
            k = int(np.floor(zero))
            assert k in edges and k + 1 in edges

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 20.0), st.floats(1e-3, 10.0), st.floats(0.01, 2.0),
           st.floats(0.01, 2.0), st.floats(0.5, 1.0), st.integers(1, 256))
    def test_probes_pin_the_zero_of_a_linear_miss_line(self, z, slope, d2, d21, share, above):
        # misses on g = slope (z - T) below z, the bracket from the latest
        # miss to `above` cells past z, in cells of `share` times the
        # resolution: the cell holding z is probed at both ends (or bounded
        # by the bracket), so one call can close the bracket
        resolution = 1e-3 * np.pi
        t2 = z - d2
        t1 = t2 - d21
        misses = [(t1, slope * (z - t1)), (t2, slope * (z - t2))]
        t_e = state_prep._line_zero(misses)
        assert t_e == pytest.approx(z, rel=1e-12, abs=1e-12)
        cell = share * resolution
        lo, hi = 0, int(np.ceil(d2 / cell)) + above
        probes = state_prep._probe_cells(lo, hi, (t_e - t2) / cell)
        times = [t2 + k * cell for k in [lo, *probes, hi]]
        below = max(t for t in times if t <= t_e)
        above = min(t for t in times if t > t_e)
        assert above - below <= resolution * (1 + 1e-9)

    def test_line_zero_needs_a_falling_line(self):
        assert state_prep._line_zero([]) is None
        assert state_prep._line_zero([(1.0, 0.3)]) is None
        assert state_prep._line_zero([(1.0, 0.3), (2.0, 0.3)]) is None
        assert state_prep._line_zero([(1.0, 0.2), (2.0, 0.3)]) is None
        # the two latest misses make the line
        assert state_prep._line_zero([(0.5, 0.1), (1.0, 0.3), (2.0, 0.1)]) == 2.5

    @pytest.mark.parametrize("u", [0.104, 0.16, 0.35, 0.5, 0.85])
    def test_no_structure_takes_more_calls_than_bisection(self, u, monkeypatch):
        calls = []
        scan = state_prep._scan_optima

        def spy(structures, Ts, *args):
            out = scan(structures, Ts, *args)
            calls.append([(s, T, r.fun <= TARGET_TOL) for s, T, r in zip(structures, Ts, out)])
            return out

        monkeypatch.setattr(state_prep, "_scan_optima", spy)
        find_time_optimal(problem_at(u), with_report=False)
        first = next(i for i, call in enumerate(calls) if any(hit for *_, hit in call))
        refined = calls[first + 1:]
        assert refined
        width = 0.25 * np.pi  # every centre's first hit lies on the coarse grid
        most = int(np.ceil(np.log2(width / (1e-3 * np.pi))))
        per_structure = {}
        for call in refined:
            for s in {s for s, _, _ in call}:
                per_structure[s] = per_structure.get(s, 0) + 1
        assert max(per_structure.values()) <= most, per_structure
        assert len(refined) <= most


class TestSearchPath:
    def test_winner_does_not_depend_on_the_skipped_scan_times(self, monkeypatch):
        # searching the grid times that the speed limit rules out changes
        # the scan's warm starts; the winner at T* must not move with them
        p = problem_at(0.35)
        normal = find_time_optimal(p, with_report=False)
        monkeypatch.setattr(state_prep, "_speed_limit_excludes", lambda problem, T: False)
        searched = find_time_optimal(p, with_report=False)
        assert searched.diagnostics["speed_limit_skips"] == 0
        assert normal.diagnostics["speed_limit_skips"] > 0
        assert searched.t_star == normal.t_star
        assert searched.structure == normal.structure
        assert searched.switch_times == normal.switch_times


class TestBenchmarkCentres:
    """The stateprep-search band centres, pinned bit for bit.

    theta 0.7 pi, phi 0 -> theta 0.35 pi, phi pi at the centres of the BB-6,
    BB-4 and BSB bands.  The search's T*, structure and switch times, and
    the calls and rows of its Gauss-Newton residual rows, are pinned as they
    are, so that a change of kernel shows any last-bit move of the search
    and any change in the work it does.
    """

    PINS = {
        0.104: (10.799224746714915, "BB-6",
                (0.8037164404971963, 2.5441584481302932, 4.28460045576339, 6.025042463396487,
                 7.765484471029584, 9.50592647866268),
                222, 23922),
        0.16: (7.60854470791278, "BB-4",
               (0.7165341385901854, 2.5234153018298424, 4.330296465069499, 6.137177628309156),
               217, 20268),
        0.85: (1.2960387770314266, "BSB", (0.5641715699230018, 0.805533730316944),
               102, 4323),
    }

    @pytest.mark.parametrize("u", sorted(PINS))
    def test_search_pinned(self, u, monkeypatch):
        calls, rows = [], []
        solve = optim.gauss_newton

        def spy(f_rows, *args):
            def counted(X, lanes):
                calls.append(1)
                rows.append(len(lanes))
                return f_rows(X, lanes)
            return solve(counted, *args)

        monkeypatch.setattr(optim, "gauss_newton", spy)
        res = find_time_optimal(problem_at(u), with_report=False)
        t_star, label, times, n_calls, n_rows = self.PINS[u]
        assert res.t_star == t_star
        assert str(res.structure) == label
        assert res.switch_times == times
        assert (len(calls), sum(rows)) == (n_calls, n_rows)
