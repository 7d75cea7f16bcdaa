"""Exact propagators, Bloch maps, and terminal costs."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoct import dynamics
from qoct.dynamics import (
    KET_0,
    KET_1,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Z,
    BlochPoint,
    ModelParams,
    bloch_angles,
    bloch_from_state,
    cell_pairs,
    constant_propagator,
    gate_cost,
    ordered_product,
    pair_apply,
    pair_levels,
    pair_matrix,
    pair_prefixes,
    pair_product,
    prefix_states,
    propagate,
    rabi_pi_time,
    rabi_protocol,
    segment_derivatives,
    segment_propagators,
    state_from_bloch,
    state_prep_cost,
    terminal_cost,
    total_pairs,
    total_unitary,
)
from qoct.pmp import CostSpec
from qoct.protocols import (
    BangSequence,
    TanhProtocol,
    ThirdHarmonic,
    as_sampled,
    mirrored_tanh_times,
)

P05 = ModelParams(u_max=0.5)


def taylor_step_oracle(t, u, n_steps=1_000_000):
    """Product integrator: matrix power of a 4th-order Taylor exponential step."""
    H = np.array([[1.0, u], [u, -1.0]], dtype=complex)
    A = -1j * H * (t / n_steps)
    step = SIGMA_0 + A + A @ A / 2.0 + A @ A @ A / 6.0 + A @ A @ A @ A / 24.0
    return np.linalg.matrix_power(step, n_steps)


class TestConstantPropagator:
    def test_free_evolution_is_diagonal_phase(self):
        t = 0.83
        U = constant_propagator(t, 0.0, P05)
        np.testing.assert_allclose(U, np.diag([np.exp(-1j * t), np.exp(1j * t)]),
                                   atol=1e-14)

    def test_zero_time_is_identity(self):
        np.testing.assert_allclose(constant_propagator(0.0, 0.37, P05), SIGMA_0,
                                   atol=1e-15)

    def test_zero_duration_segment_is_exact_identity(self):
        U = segment_propagators(np.zeros(4), [0.5, -0.5, 0.0, 0.37], P05)
        for Uk in U:
            np.testing.assert_array_equal(Uk, SIGMA_0)

    def test_identity_padding_at_end_keeps_product_bits(self):
        rng = np.random.default_rng(5)
        for n in range(1, 40):
            durs, vals = rng.uniform(0.0, 3.0, n), rng.choice([-0.5, 0.5], n)
            ref = ordered_product(segment_propagators(durs, vals, P05))
            for pad in (1, 2, 7):
                padded = segment_propagators(np.r_[durs, np.zeros(pad)],
                                             np.r_[vals, np.full(pad, 0.5)], P05)
                np.testing.assert_array_equal(ordered_product(padded), ref)

    def test_matches_fine_grid_product_integrator(self):
        U = constant_propagator(1.3, 0.37, P05)
        U_ref = taylor_step_oracle(1.3, 0.37)
        assert np.max(np.abs(U - U_ref)) < 1e-8

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            constant_propagator(-0.1, 0.2, P05)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 20.0), u=st.floats(-1.0, 1.0))
    def test_unitary_and_special(self, t, u):
        U = constant_propagator(t, u, ModelParams(u_max=1.0))
        np.testing.assert_allclose(U.conj().T @ U, SIGMA_0, atol=1e-12)
        assert abs(np.linalg.det(U) - 1.0) < 1e-12


class TestPropagate:
    def test_single_segment_matches_constant_propagator(self):
        proto = BangSequence(1.7, 0.5, (), (0.5,))
        traj = propagate(proto, P05, KET_0, n_samples=11)
        np.testing.assert_allclose(traj.final,
                                   constant_propagator(1.7, 0.5, P05) @ KET_0,
                                   atol=1e-13)

    def test_semigroup_split(self):
        one = BangSequence(2.0, 0.5, (), (0.5,))
        two = BangSequence(2.0, 0.5, (0.7,), (0.5, 0.5))
        np.testing.assert_allclose(total_unitary(one, P05), total_unitary(two, P05),
                                   atol=1e-13)

    def test_composition_over_subintervals(self):
        proto = BangSequence(2.4, 0.5, (0.5, 1.1, 1.9), (0.5, -0.5, 0.5, -0.5))
        traj = propagate(proto, P05, KET_0, n_samples=241)
        s = 1.3
        first = BangSequence(s, 0.5, (0.5, 1.1), (0.5, -0.5, 0.5))
        second = BangSequence(2.4 - s, 0.5, (1.9 - s,), (0.5, -0.5))
        psi_s = propagate(first, P05, KET_0, n_samples=3).final
        psi_T = propagate(second, P05, psi_s, n_samples=3).final
        assert np.max(np.abs(traj.final - psi_T)) < 1e-10

    def test_norm_conserved_along_trajectory(self):
        proto = BangSequence(3.0, 0.5, (1.0, 2.0), (0.5, -0.5, 0.5))
        traj = propagate(proto, P05, KET_0, n_samples=301)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_adjoint_norm_conserved(self):
        lam0 = np.array([0.3 - 0.1j, 1.2 + 0.4j])
        proto = BangSequence(3.0, 0.5, (1.2,), (0.5, -0.5))
        traj = propagate(proto, P05, lam0, n_samples=301)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - np.linalg.norm(lam0))) < 1e-10

    @pytest.mark.parametrize("u_max", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("variant", ["rabi", "tanh", "third"])
    def test_smooth_protocols_match_ode_oracle(self, variant, u_max):
        # the Magnus propagation against an adaptive integrator that shares no
        # code with it, at 0.9 T_Rabi for the tanh and third-harmonic pulses
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        params = ModelParams(u_max=u_max)
        T = 0.9 * np.pi / u_max
        if variant == "rabi":
            proto = rabi_protocol(params)
        elif variant == "tanh":
            n = max(2, round(T / np.pi))
            first = 0.5 * (T - (2 * n - 1) * np.pi / 2) + np.pi / 2 * np.arange(n)
            proto = TanhProtocol(u_max=u_max, T=T, beta=4.0,
                                 times=mirrored_tanh_times(first, T))
        else:
            proto = ThirdHarmonic(u_max=u_max, T=T, omega=2.0, ratio=-0.1)

        def rhs(t, y):
            H = 0.5 * params.omega0 * SIGMA_Z + proto.u(t) * SIGMA_X
            return (-1j * H @ y.reshape(2, 2)).ravel()

        sol = solve_ivp(rhs, (0.0, proto.T), SIGMA_0.ravel(), method="DOP853",
                        rtol=1e-13, atol=1e-13)
        assert sol.success
        U_ode = sol.y[:, -1].reshape(2, 2)
        U = total_unitary(proto, params)
        assert np.max(np.abs(U - U_ode)) <= 2e-8
        assert abs(gate_cost(U, "x") - gate_cost(U_ode, "x")) <= 1e-8

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            propagate(BangSequence(1.0, 0.5, (), (0.5,)), P05, KET_0, n_samples=1)


# cell counts for the prefix scan: the edges, squares, primes (carried odd
# levels) and one 10^4 + 1 (one cell past a power-of-ten square)
SCAN_SIZES = st.one_of(st.integers(0, 3), st.integers(2, 40).map(lambda k: k * k),
                       st.sampled_from([5, 7, 13, 31, 101, 997, 4099]), st.just(10_001))


class TestPrefixStates:
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_rows_match_prefix_products(self, n):
        rng = np.random.default_rng(n)
        ab = cell_pairs(rng.uniform(0.0, 0.5, n), rng.uniform(-0.5, 0.5, n), P05)
        units = pair_matrix(ab)
        psi0 = state_from_bloch(BlochPoint(1.1, 0.4))
        states = prefix_states(ab, psi0, np.arange(n + 1))
        assert states.shape == (n + 1, 2)
        np.testing.assert_array_equal(states[0], psi0)
        for k in range(1, n + 1):
            ref = ordered_product(units[:k]) @ psi0
            assert np.max(np.abs(states[k] - ref)) < 1e-14


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.floats(0.01, 2.0))
    def test_prefix_unitaries_unitary(self, n, seed, u_max):
        rng = np.random.default_rng(seed)
        params = ModelParams(u_max=u_max)
        ab = cell_pairs(rng.uniform(0.0, 1.0, n), rng.uniform(-u_max, u_max, n), params)
        P = prefix_states(ab, SIGMA_0, np.arange(n + 1))
        assert P.shape == (n + 1, 2, 2)
        np.testing.assert_array_equal(P[0], SIGMA_0)
        defect = np.abs(P.conj().transpose(0, 2, 1) @ P - SIGMA_0).max()
        assert defect < 1e-12
        # a block of states is the prefix unitaries applied to it
        psi0 = state_from_bloch(BlochPoint(1.1, 0.4))
        np.testing.assert_allclose(prefix_states(ab, psi0, np.arange(n + 1)), P @ psi0, rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(n=SCAN_SIZES, m=st.sampled_from([None, 1, 2, 3]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, m=None, seed=0)
    @example(n=10_001, m=2, seed=1)
    def test_matches_sequential_loop(self, n, m, seed):
        rng = np.random.default_rng(seed)
        ab = cell_pairs(rng.uniform(0.0, 1.0, n), rng.uniform(-0.5, 0.5, n), P05)
        shape = (2,) if m is None else (2, m)
        initial = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        initial /= np.linalg.norm(initial, axis=0)
        ref = [initial]
        for U in pair_matrix(ab):
            ref.append(U @ ref[-1])
        states = prefix_states(ab, initial, np.arange(n + 1))
        assert states.shape == (n + 1,) + shape
        np.testing.assert_array_equal(states[0], initial)
        assert np.abs(states - np.array(ref)).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(n=SCAN_SIZES, seed=st.integers(0, 2**32 - 1))
    @example(n=0, seed=0)
    @example(n=1, seed=0)
    @example(n=10_001, seed=1)
    def test_scan_last_row_has_the_bits_of_pair_product(self, n, seed):
        rng = np.random.default_rng(seed)
        ab = cell_pairs(rng.uniform(0.0, 1.0, n), rng.uniform(-0.5, 0.5, n), P05)
        if n == 0:  # no cells: the one row of prefix_states is the initial block
            np.testing.assert_array_equal(prefix_states(ab, SIGMA_0, [0]), [SIGMA_0])
            return
        P = pair_prefixes(pair_levels(ab))
        assert P.shape == (n + 1, 2)
        assert P[0].tobytes() == np.array([1.0, 0.0], dtype=complex).tobytes()
        assert P[-1].tobytes() == pair_product(ab).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 999, 10_001])
    @pytest.mark.parametrize("m", [None, 2])
    def test_chosen_rows_have_the_bits_of_the_full_down_sweep(self, n, m):
        # a row must have the bits of the down-sweep's prefix applied to the
        # block, in any order, with repeats, and at both ends; 46 indices
        # walk down the tree alone for n = 999 and 10,001, and take the full
        # down-sweep for n <= 5
        rng = np.random.default_rng(n)
        ab = cell_pairs(rng.uniform(0.0, 1.0, n), rng.uniform(-0.5, 0.5, n), P05)
        initial = SIGMA_0 if m == 2 else state_from_bloch(BlochPoint(1.1, 0.4))
        k = np.concatenate([[n, 0, n // 2, n // 2, 0, n], rng.integers(0, n + 1, 40)])
        ref = pair_apply(pair_prefixes(pair_levels(ab))[k], initial.reshape(2, -1))
        states = prefix_states(ab, initial, k)
        assert states.shape == (k.size,) + initial.shape
        assert states.tobytes() == ref.reshape(states.shape).tobytes()

    def test_indices_outside_the_cells_rejected(self):
        ab = cell_pairs(np.full(3, 0.5), np.zeros(3), P05)
        for k in ([4], [-1]):
            with pytest.raises(ValueError, match="prefix indices"):
                prefix_states(ab, KET_0, np.array(k))


# cell counts for the pairwise tree: the smallest, odd counts (a carried last
# element), powers of two (no carry), 1000 and 100,003
PRODUCT_SIZES = st.sampled_from([1, 2, 3, 5, 7, 13, 31, 101, 4, 8, 16, 64, 256, 1000, 100_003])


def random_cells(rng, shape, u_max, d_max):
    """segment_propagators cells of durations up to d_max and |u| up to 1.2 u_max."""
    return segment_propagators(rng.uniform(0.0, d_max, shape),
                               rng.uniform(-1.2 * u_max, 1.2 * u_max, shape),
                               ModelParams(u_max=u_max))


class TestOrderedProduct:
    @settings(max_examples=60, deadline=None)
    @given(n=PRODUCT_SIZES, lanes=st.sampled_from([(), (1,), (3,), (40,), (2, 3), (4, 5)]),
           seed=st.integers(0, 2**32 - 1), u_max=st.floats(0.01, 1.5),
           d_max=st.floats(0.0, 6.0))
    @example(n=100_003, lanes=(), seed=0, u_max=1.0, d_max=6.0)
    @example(n=1000, lanes=(4, 5), seed=1, u_max=0.2, d_max=6.0)
    def test_matches_sequential_matmul_loop(self, n, lanes, seed, u_max, d_max):
        # stacks (n,), (n, M) and (n, K, B); the long stack alone only as (n,)
        if n > 1000:
            lanes = ()
        rng = np.random.default_rng(seed)
        units = random_cells(rng, (n,) + lanes, u_max, d_max)
        # the loop multiplies in extended precision: in float64 its own
        # rounding reaches 1.2e-13 over 100,003 cells of d_max = 1e-11
        ref = np.broadcast_to(SIGMA_0, lanes + (2, 2)).astype(np.clongdouble)
        for U in units.astype(np.clongdouble):
            ref = np.matmul(U, ref)
        out = ordered_product(units)
        assert out.shape == lanes + (2, 2)
        # |U_ij| <= 1, so the bound is relative to the unitary's norm
        assert np.abs(out - ref).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("lanes", [(), (5,), (60,), (3, 4)])
    def test_output_is_exactly_su2_form_and_reads_only_first_column(self, n, lanes):
        rng = np.random.default_rng(n)
        units = random_cells(rng, (n,) + lanes, 0.3, 4.0)
        out = ordered_product(units)
        np.testing.assert_array_equal(out[..., 0, 1], -np.conjugate(out[..., 1, 0]))
        np.testing.assert_array_equal(out[..., 1, 1], np.conjugate(out[..., 0, 0]))
        spoiled = units.copy()
        spoiled[..., :, 1] = np.nan
        np.testing.assert_array_equal(ordered_product(spoiled), out)

    @pytest.mark.parametrize("shape", [(9, 60), (300,), (5, 3), (17,), (2, 200)])
    def test_both_layouts_agree_bitwise(self, shape, monkeypatch):
        rng = np.random.default_rng(len(shape))
        units = random_cells(rng, shape, 0.48, 3.0)
        monkeypatch.setattr(dynamics, "_PAIR_AXIS_MAX_CELLS", 0)
        separate = ordered_product(units)
        monkeypatch.setattr(dynamics, "_PAIR_AXIS_MAX_CELLS", 10**9)
        side_by_side = ordered_product(units)
        assert separate.tobytes() == side_by_side.tobytes()


class TestPairKernel:
    """cell_pairs and pair_product are the kernel under segment_propagators and ordered_product."""

    # cells times lanes: 9 and 140 below _PAIR_AXIS_MAX_CELLS = 256, 540 and
    # 1000 above it
    @pytest.mark.parametrize("shape", [(9,), (7, 20), (9, 60), (1000,), (5, 4, 7)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pairs_equal_ordered_product_of_cells_bitwise(self, shape, order):
        rng = np.random.default_rng(sum(shape))
        durs = np.asarray(rng.uniform(0.0, 4.0, shape), order=order)
        vals = np.asarray(rng.choice([0.48, -0.48, 0.0, 0.3], shape), order=order)
        durs[-1] = 0.0  # zero-duration pads, as the scan's rows end
        ab = pair_product(cell_pairs(durs, vals, P05))
        U = ordered_product(segment_propagators(durs, vals, P05))
        assert ab.shape == shape[1:] + (2,)
        assert ab.tobytes() == np.ascontiguousarray(U[..., :, 0]).tobytes()

    def test_total_pairs_rows_have_the_bits_of_total_unitary(self):
        # smooth protocols of different lengths, so most rows are padded,
        # and a bang sequence, whose exact segments are its cells
        params = ModelParams(u_max=0.2)
        protos = [ThirdHarmonic(u_max=0.2, T=T, omega=w, ratio=R)
                  for T, w, R in [(13.6, 1.99, -0.125), (14.9, 2.02, 0.3), (2.1, 1.5, 1.0)]]
        protos += [TanhProtocol(u_max=0.2, T=9.0, beta=4.0,
                                times=mirrored_tanh_times([1.2, 3.0], 9.0)),
                   BangSequence(4.0, 0.2, (1.0, 2.5), (0.2, -0.2, 0.2))]
        ab = total_pairs(protos, params)
        ref = np.array([total_unitary(p, params)[:, 0] for p in protos])
        assert ab.shape == (len(protos), 2)
        assert ab.tobytes() == ref.tobytes()

    def test_cells_keep_the_closed_form_bits(self):
        # [[c - i h s, -i u s], [-i u s, c + i h s]], c = cos(W d), s = sin(W d)/W,
        # written out; the zero durations give exact identities with +0 parts
        rng = np.random.default_rng(8)
        durs = np.r_[rng.uniform(0.0, 20.0, 500), np.zeros(6), -np.zeros(2)]
        vals = np.r_[rng.uniform(-1.0, 1.0, 500), [0.5, -0.5, 0.0, -0.0, 0.3, 0.0, 0.5, 0.0]]
        w = np.hypot(1.0, vals)
        c, s = np.cos(w * durs), np.sin(w * durs) / w
        U = segment_propagators(durs, vals, P05)
        assert U[:, 0, 0].tobytes() == (c - 1j * s * 1.0).tobytes()
        assert U[:, 1, 1].tobytes() == (c + 1j * s * 1.0).tobytes()
        assert U[:, 0, 1].tobytes() == U[:, 1, 0].tobytes() == (-1j * s * vals).tobytes()

    @pytest.mark.parametrize("lanes", [(), (1,), (60,), (3, 4)])
    def test_pair_cost_equals_matrix_cost_bitwise(self, lanes):
        # the state-prep C + 1 = |G|^2 of a stack of product pairs has the bits
        # of each pair's alone, as a one-pair stack, as numpy scalars and as
        # Python complex numbers (numpy's complex product of two 0-d scalars
        # may round otherwise than its array loop, so G is formed in real
        # arithmetic), and C agrees with the matrix's overlap
        rng = np.random.default_rng(len(lanes))
        shape = (9,) + lanes
        pairs = cell_pairs(rng.uniform(0.0, 6.0, shape), rng.uniform(-0.5, 0.5, shape), P05)
        ab = pair_product(pairs)
        a, b = ab[..., 0], ab[..., 1]
        psi_i = state_from_bloch(BlochPoint(0.7 * np.pi, 0.0))
        psi_t = state_from_bloch(BlochPoint(0.35 * np.pi, np.pi))
        cost = CostSpec("sp", init=psi_i, target=psi_t)
        gap = cost.gap(a, b)
        assert np.shape(gap) == lanes
        a1, b1 = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
        alone = [cost.gap(x, y)[0] for x, y in zip(a1, b1)]
        assert np.ravel(gap).tobytes() == np.array(alone).tobytes()
        scalars = [cost.gap(x, y) for x, y in zip(np.ravel(a), np.ravel(b))]
        assert np.ravel(gap).tobytes() == np.array(scalars).tobytes()
        python = [cost.gap(complex(x), complex(y)) for x, y in zip(np.ravel(a), np.ravel(b))]
        assert np.ravel(gap).tobytes() == np.array(python).tobytes()
        U = np.empty(lanes + (2, 2), dtype=complex)
        U[..., 0, 0], U[..., 1, 0] = a, b
        U[..., 0, 1], U[..., 1, 1] = -np.conjugate(b), np.conjugate(a)
        matmul = U @ psi_i  # an independent reference: the complex overlap
        ref = -np.abs(np.sum(np.conjugate(psi_t) * matmul, axis=-1)) ** 2
        np.testing.assert_allclose(gap - 1.0, ref, rtol=0.0, atol=8 * np.finfo(float).eps)


class TestSegmentDerivatives:
    @pytest.mark.parametrize("u", [0.0, 0.1, -0.25, 0.5, -0.5, 0.6, -0.6])
    def test_matches_central_differences_in_u(self, u):
        # |u| up to 1.2 u_max (u_max = 0.5), from short cells to several periods
        durs = np.array([1e-3, 0.014, 0.3, 1.7, 6.0])
        vals = np.full(len(durs), u)
        h = 1e-6
        fd = (segment_propagators(durs, vals + h, P05)
              - segment_propagators(durs, vals - h, P05)) / (2.0 * h)
        dab = segment_derivatives(durs, vals, P05)
        assert dab.shape == (len(durs), 2)
        # dU/du = [[alpha, -beta*], [beta, alpha*]], the matrix of the pair
        assert np.abs(pair_matrix(dab) - fd).max() <= 1e-8

    def test_zero_duration_cell_has_zero_derivative(self):
        dab = segment_derivatives(np.zeros(3), [0.0, 0.3, -0.5], P05)
        np.testing.assert_array_equal(dab, np.zeros((3, 2)))


class TestBlochMaps:
    def test_north_pole(self):
        np.testing.assert_allclose(state_from_bloch(BlochPoint(0.0, 0.0)), KET_0,
                                   atol=1e-15)

    def test_equator_phi_pi(self):
        psi = state_from_bloch(BlochPoint(np.pi / 2, np.pi))
        np.testing.assert_allclose(psi, np.array([1.0, -1.0]) / np.sqrt(2.0),
                                    atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, np.pi), st.floats(-np.pi * 0.9999, np.pi),
           st.floats(-np.pi, np.pi))
    def test_round_trip_up_to_global_phase(self, theta, phi, gphase):
        psi = state_from_bloch(BlochPoint(theta, phi)) * np.exp(1j * gphase)
        b = bloch_from_state(psi)
        psi2 = state_from_bloch(b)
        overlap = abs(np.vdot(psi, psi2))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            bloch_from_state(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            bloch_angles(np.array([KET_0, np.zeros(2)]))

    def test_stack_equals_per_row_loop_bitwise(self):
        # the poles (with global phases and a 1e-15 residue), the equator,
        # both sides of the phi = +-pi wrap, and scaled random states
        rng = np.random.default_rng(11)
        rows = [KET_0, KET_1, 1j * KET_0, -1j * KET_1, [1.0, 1e-15], [1e-15j, 1.0]]
        for phi in (0.0, 0.5, np.pi / 2, -2.0, np.pi, -np.pi + 1e-9, np.pi - 1e-9):
            rows.append(state_from_bloch(BlochPoint(np.pi / 2, phi)))
        rows += [[1.0, -1.0 - 1e-17j], [1.0, -1.0 + 1e-17j], [2.0, -2.0], [-1.0, 1.0 + 1e-16j]]
        rows += list(rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)))
        states = np.array(rows, dtype=complex)
        theta, phi = bloch_angles(states)
        assert theta.shape == phi.shape == (len(states),)
        loop = [bloch_from_state(psi) for psi in states]
        assert [b.theta for b in loop] == theta.tolist()
        assert [b.phi for b in loop] == phi.tolist()
        assert np.all((0.0 <= theta) & (theta <= np.pi))
        assert np.all((-np.pi < phi) & (phi <= np.pi))
        np.testing.assert_array_equal(theta[:4], [0.0, np.pi, 0.0, np.pi])
        np.testing.assert_array_equal(phi[:6], 0.0)
        np.testing.assert_allclose(theta[6:13], np.pi / 2, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(phi[6:13], [0.0, 0.5, np.pi / 2, -2.0, np.pi,
                                               -np.pi + 1e-9, np.pi - 1e-9], rtol=0.0, atol=1e-15)
        # phi just below -pi wraps to pi, and -pi itself is stored as pi
        assert phi[13] == phi[15] == np.pi
        assert np.pi - 1e-15 < phi[14] <= np.pi
        # against the polar form: |psi0| = cos(theta/2), psi1 psi0* ~ e^(i phi)
        norm = np.linalg.norm(states, axis=1)
        np.testing.assert_allclose(np.cos(theta / 2.0), np.abs(states[:, 0]) / norm, atol=1e-14)
        rel = states[17:, 1] * np.conjugate(states[17:, 0])
        np.testing.assert_allclose(np.exp(1j * phi[17:]), rel / np.abs(rel), atol=1e-13)

    def test_phi_minus_pi_is_stored_as_pi(self):
        b = BlochPoint(0.3, -np.pi)
        assert b.phi == np.pi
        assert np.array_equal(state_from_bloch(b), state_from_bloch(BlochPoint(0.3, np.pi)))

    @pytest.mark.parametrize("phi", [-np.pi - 1e-9, -4.0, 3.2])
    def test_phi_outside_range_rejected(self, phi):
        with pytest.raises(ValueError):
            BlochPoint(0.3, phi)


class TestCosts:
    def test_state_prep_identity(self):
        psi = state_from_bloch(BlochPoint(1.0, 0.3))
        assert abs(state_prep_cost(SIGMA_0, psi, psi) + 1.0) < 1e-14

    def test_state_prep_orthogonal(self):
        assert abs(state_prep_cost(SIGMA_0, KET_0, KET_1)) < 1e-14

    def test_gate_cost_sigma_x(self):
        assert abs(gate_cost(SIGMA_X, "x") + 1.0) < 1e-14
        assert abs(gate_cost(SIGMA_X, "pt") + 1.0) < 1e-14
        assert abs(gate_cost(SIGMA_X, "y")) < 1e-14

    def test_gate_cost_global_phase_insensitive(self):
        for phase in (0.3, 1.2, -2.0):
            assert abs(gate_cost(np.exp(1j * phase) * SIGMA_X, "x") + 1.0) < 1e-14

    @pytest.mark.parametrize("kind", ["x", "y", "pt"])
    def test_gate_cost_on_stack_matches_per_matrix_bitwise(self, kind):
        rng = np.random.default_rng(3)
        stack = segment_propagators(rng.uniform(0.0, 20.0, 5000), rng.uniform(-1.0, 1.0, 5000),
                                    P05)
        batch = gate_cost(stack, kind)
        loop = np.array([gate_cost(U, kind) for U in stack])
        assert batch.shape == (5000,)
        np.testing.assert_array_equal(batch.view(np.uint64), loop.view(np.uint64))

    def test_state_prep_cost_matches_vdot_loop(self):
        # the overlap was one np.vdot per matrix; the real-arithmetic form
        # reorders the sums, so it agrees to a few units in the last place
        rng = np.random.default_rng(4)
        stack = segment_propagators(rng.uniform(0.0, 20.0, 5000), rng.uniform(-1.0, 1.0, 5000),
                                    P05)
        psi_i = state_from_bloch(BlochPoint(0.7 * np.pi, 0.0))
        psi_t = state_from_bloch(BlochPoint(0.35 * np.pi, np.pi))
        loop = np.array([-abs(np.vdot(psi_t, U @ psi_i)) ** 2 for U in stack])
        batch = state_prep_cost(stack, psi_i, psi_t)
        np.testing.assert_allclose(batch, loop, rtol=0.0, atol=8 * np.finfo(float).eps)
        assert [state_prep_cost(U, psi_i, psi_t) for U in stack[:50]] == batch[:50].tolist()

    def test_state_prep_cost_not_below_minus_one(self):
        # |<psi| e^(-i phi) |psi>|^2 is 1, but the summed overlap rounds one
        # ulp above it for some phases
        psi = state_from_bloch(BlochPoint(0.3 * np.pi, 1.0))
        stack = np.exp(-1j * np.linspace(0.0, 2.0 * np.pi, 256))[:, None, None] * SIGMA_0
        costs = state_prep_cost(stack, psi, psi)
        assert np.min(costs) == -1.0
        assert [state_prep_cost(U, psi, psi) for U in stack] == costs.tolist()

    @pytest.mark.parametrize("kind", ["x", "pt"])
    def test_gate_cost_not_below_minus_one(self, kind):
        # a perfect third-harmonic gate on the face R = -1/8, whose summed
        # |U10 + U01|^2 / 4 rounds to about 7e-15 above 1
        proto = ThirdHarmonic(u_max=0.1, T=28.083255197870233, omega=1.9984826847617694,
                              ratio=-0.125)
        U = total_unitary(proto, ModelParams(u_max=0.1))
        assert gate_cost(U, kind) >= -1.0
        assert gate_cost(np.stack([U, U]), kind).tolist() == [gate_cost(U, kind)] * 2

    def test_identity_gives_zero(self):
        assert gate_cost(SIGMA_0, "x") == 0.0
        assert gate_cost(SIGMA_0, "pt") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(-1.0, 1.0), st.floats(0.0, np.pi),
           st.floats(-np.pi * 0.999, np.pi))
    def test_costs_bounded(self, t, u, theta, phi):
        U = constant_propagator(t, u, ModelParams(u_max=1.0))
        psi = state_from_bloch(BlochPoint(theta, phi))
        for kind in ("x", "y", "pt"):
            c = gate_cost(U, kind)
            assert -1.0 - 1e-12 <= c <= 1e-12
        c = state_prep_cost(U, psi, KET_0)
        assert -1.0 - 1e-12 <= c <= 1e-12

    def test_terminal_cost_dispatch(self):
        assert terminal_cost(SIGMA_X, "x") == gate_cost(SIGMA_X, "x")
        assert terminal_cost(SIGMA_0, "sp", KET_0, KET_1) == 0.0

    def test_state_prep_at_bb6_optimum(self):
        # the six-switch optimum at u_max = 0.11 reaches the global minimum;
        # warm-started from the known equal-middle-bang layout
        from qoct.state_prep import StatePrepProblem, StructureLabel, optimize_structure
        params = ModelParams(u_max=0.11)
        problem = StatePrepProblem(BlochPoint(0.7 * np.pi, 0.0),
                                   BlochPoint(0.35 * np.pi, np.pi), params)
        T = 3.4287 * np.pi
        tbar = 0.5584 * np.pi
        x0 = 0.2322 * np.pi + tbar * np.arange(6)
        times, cost, values = optimize_structure(StructureLabel("bb", 6, 1), T,
                                                 problem, x0=x0)
        psi_i, psi_t = problem.states()
        proto = BangSequence(T, 0.11, tuple(times), tuple(values))
        c = state_prep_cost(total_unitary(proto, params), psi_i, psi_t)
        assert c + 1.0 < 1e-4


class TestRabiProtocol:
    def test_even_about_midpoint_and_peak(self):
        proto = rabi_protocol(P05)
        T = proto.T
        assert abs(proto.u(T / 2) - 0.5) < 1e-14
        s = np.linspace(0.0, T / 2, 41)
        np.testing.assert_allclose(proto.u(T / 2 + s), proto.u(T / 2 - s), atol=1e-14)

    def test_duration(self):
        assert abs(rabi_protocol(P05).T - 2.0 * np.pi) < 1e-14
        assert abs(rabi_pi_time(ModelParams(u_max=0.1)) - 10.0 * np.pi) < 1e-12

    def test_full_dynamics_gate_incomplete_at_half_amplitude(self):
        # the exact dynamics leaves a visible gate error at u_max = 0.5
        # (value cross-checked against an independent adaptive integrator)
        U = total_unitary(rabi_protocol(P05), P05)
        err = gate_cost(U, "x") + 1.0
        assert err > 1e-3
        assert abs(err - 4.0561186e-3) < 1e-8

    def test_reduction_amplitude_bound(self):
        proto = rabi_protocol(P05)
        s = as_sampled(proto)
        assert np.max(np.abs(s.values)) <= 0.5 + 1e-12


@pytest.mark.parametrize("field", ["u_max", "omega0"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_model_params_reject_nonpositive_or_nonfinite(field, bad):
    with pytest.raises(ValueError, match=field):
        ModelParams(**{"u_max": 0.2, field: bad})
