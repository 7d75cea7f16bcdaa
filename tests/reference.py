"""Reference formulas, and frozen copies of qoct code, that only the tests compare qoct against.

None of them is called by the package: each states a known result in its
simplest form, so that a test can check qoct's own, faster or more general
computation of the same quantity.  The frozen copy of the root engine
(``gauss_newton``, ``lm_steps``, ``fd_rows``) pins its rounds, rows and bits,
so that a change meant only to make it cheaper can show that it changed
nothing else.
"""
import numpy as np

from qoct import optim
from qoct.dynamics import BlochPoint, ModelParams, cell_pairs, pair_product, segment_propagators
from qoct.pmp import _hoc, _q_vectors
from qoct.xgate import _su2_power


def constant_propagator(t: float, u: float, params: ModelParams) -> np.ndarray:
    """Closed-form evolution operator for a constant control over duration t."""
    if t < 0:
        raise ValueError("duration must be nonnegative")
    return segment_propagators(t, u, params)


def analytical_switching(A: float, lambda0: float, omega_eff: float, T: float,
                         params: ModelParams, times: np.ndarray) -> np.ndarray:
    """Closed-form switching function of the even one-parameter BB protocol.

    Piecewise cosine of frequency W with the offset alternating by
    +/- 4 u_max lambda0 / W^2 on consecutive zero-spacing segments
    Tbar = pi/omega_eff centered at T/2; each segment carries an accumulated
    phase 2 chi so the function stays continuous with zeros exactly on the
    segment boundaries.  Reduces to A cos(W (t - T/2)) when lambda0 = 0.
    """
    W = params.big_omega
    off = 4.0 * params.u_max * abs(lambda0) / W ** 2
    tbar = np.pi / omega_eff
    chi = (np.pi / 2.0) * (W / omega_eff - 1.0)
    s = np.asarray(times, dtype=float) - T / 2.0
    k = np.round(s / tbar)
    parity = 1.0 - 2.0 * np.mod(k, 2.0)
    return A * np.cos(W * s - 2.0 * chi * k) + parity * off


def switching_function(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Phi = Re[-i <lambda|sigma_x|psi>] of adjoint and forward states (..., 2).

    dC/du(t) = Phi(t) dt.  It is Q_x of ``qoct.pmp._q_vectors``.
    """
    return _q_vectors(lam, psi)[..., 0]


def control_hamiltonian(lam: np.ndarray, psi: np.ndarray, u: np.ndarray,
                        params: ModelParams) -> np.ndarray:
    """H_oc = Re[-i <lambda|H|psi>] of states (..., 2), u the control per row."""
    return _hoc(_q_vectors(lam, psi), u, params)


def alpha(b: BlochPoint) -> float:
    """Quadrant scalar alpha = 2 cot(theta) / sin(phi); zero on the equator.

    The arcs phi in {0, +/-pi} and the poles divide the sphere; evaluation
    there raises ValueError('on-boundary').
    """
    if min(abs(b.phi), abs(abs(b.phi) - np.pi)) < 1e-12:
        raise ValueError("on-boundary: alpha diverges at phi in {0, +/-pi}")
    if min(b.theta, np.pi - b.theta) < 1e-12:
        raise ValueError("on-boundary: alpha undefined at the poles")
    return 2.0 / (np.tan(b.theta) * np.sin(b.phi))


def bloch_velocity(b: BlochPoint, u: float, params: ModelParams) -> tuple[float, float]:
    """(theta_dot, phi_dot) = (-2 u sin(phi), omega0 - 2 u cos(phi) cot(theta))."""
    if min(b.theta, np.pi - b.theta) < 1e-12:
        raise ValueError("Bloch velocity is undefined at the poles")
    tdot = -2.0 * u * np.sin(b.phi)
    pdot = params.omega0 - 2.0 * u * np.cos(b.phi) / np.tan(b.theta)
    return float(tdot), float(pdot)


def perturbative_amplitude(V, omega: float, t: float) -> complex:
    """First-order excited amplitude for a multi-harmonic drive at small t.

    For u(t) = sum_N V_N cos(N omega t) acting on the ground state in the
    rotating frame (omega0 = 2), each harmonic contributes a resonant pair term
    (1 - e^(i (omega0 - N omega) t)) / (omega0 - N omega) plus its
    counter-rotating partner; an exactly resonant denominator takes the
    limit value -i t.
    """
    w0 = 2.0

    def g(x: float) -> complex:
        if abs(x) < 1e-12:
            return -1j * t
        return (1.0 - np.exp(1j * x * t)) / x

    out = 0.0 + 0.0j
    for k, vn in enumerate(np.atleast_1d(np.asarray(V, dtype=float))):
        N = k + 1
        out += (vn / 2.0) * (g(w0 - N * omega) + g(w0 + N * omega))
    return complex(out)


def square_wave_pairs(X, problem, sign: float, parity: str) -> np.ndarray:
    """Cayley-Klein pairs (U00, U10) of the square wave at the rows (T, omega) of X.

    The five cells E_first, P's two bangs, Q and E_last each go through
    ``cell_pairs`` with their own duration and value, so each takes its own
    hypot, cos and sin; then U = E_last Q P^m E_first as in
    ``qoct.xgate._square_wave_pairs``, which shares W and the cos/sin of
    the durations the cells have in common.
    """
    T, w = np.asarray(X, dtype=float).T
    tau = np.pi / w
    cycles = 0.5 * T / tau
    if parity == "even":
        n_right = np.maximum(np.ceil(cycles - 0.5), 0.0)
        n_switch, v_first = 2.0 * n_right, 1.0
    else:
        n_right = np.ceil(cycles) - 1.0
        n_switch, v_first = 2.0 * n_right + 1.0, -1.0
    v0 = sign * problem.params.u_max * v_first * (1.0 - 2.0 * (n_right % 2))
    n_mid = np.maximum(n_switch - 1.0, 0.0)
    edge = 0.5 * (T - n_mid * tau)
    v_last = v0 * (1.0 - 2.0 * (n_switch % 2))
    cells = cell_pairs(np.array([edge, tau, tau, (n_mid % 2) * tau, edge]),
                       np.array([v0, -v0, v0, -v0, v_last]), problem.params)
    cells[2] = _su2_power(pair_product(cells[1:3]), n_mid // 2)
    return pair_product(cells[[0, 2, 3, 4]])


# ``optim.gauss_newton``'s damping ladder and decrease threshold, frozen
_DAMPING = np.array((0.0,) + tuple(10.0 ** k for k in range(-8, 1)))
_MIN_DECREASE = 0.01


def gauss_newton(f_rows, starts, repair) -> list[optim.OptimResult]:
    """A frozen copy of ``optim.gauss_newton``: the engine's rounds, rows and bits, pinned.

    The same lanes, Levenberg-Marquardt ladder and stopping rules, written
    as plainly as possible: every lane's state is updated by ``np.where``
    and the running lanes are compacted after each round.  It reads
    ``optim.ROOT_TOL``, ``optim.ROOT_STEPS`` and ``optim.FD_STEP`` at call
    time, as the engine does.
    """
    X = np.array(starts, dtype=float)
    B, n = X.shape
    lanes = np.arange(B)
    X = repair(X, lanes)
    F, J, r = fd_rows(f_rows, X, lanes)
    if not np.isfinite(r).all():
        raise RuntimeError(f"residual is not finite at x0={X[~np.isfinite(r)][0]!r}")
    n_eval = np.full(B, n + 1)
    steps = np.zeros(B, dtype=int)
    rung = np.zeros(B, dtype=int)
    out = [None] * B

    def retire(done, status):
        for i in np.flatnonzero(done):
            out[lanes[i]] = optim.OptimResult(x=X[i], fun=float(r[i]), status=str(status[i]),
                                              n_eval=int(n_eval[i]), n_iter=int(steps[i]),
                                              F=F[i], J=J[i])
        return ~done

    end = (r <= optim.ROOT_TOL) | (optim.ROOT_STEPS == 0)
    keep = retire(end, np.where(r <= optim.ROOT_TOL, "converged", "max-iter"))
    X, F, J, r, lanes = X[keep], F[keep], J[keep], r[keep], lanes[keep]
    n_eval, steps, rung = n_eval[keep], steps[keep], rung[keep]
    climbed = np.zeros(len(lanes), dtype=bool)
    while lanes.size:
        xt = repair(X + lm_steps(J, F, _DAMPING[rung]), lanes)
        Ft, Jt, rt = fd_rows(f_rows, xt, lanes)
        n_eval += n + 1
        model = F + (J * (xt - X)[:, None, :]).sum(axis=2)
        gain = r - rt
        take = (rt <= optim.ROOT_TOL) | (gain >= _MIN_DECREASE * r)
        stall = ~take & (gain > 0.0) & (gain >= 0.5 * (r - (model * model).sum(axis=1)))
        moved = take | stall
        X = np.where(moved[:, None], xt, X)
        F = np.where(moved[:, None], Ft, F)
        J = np.where(moved[:, None, None], Jt, J)
        r = np.where(moved, rt, r)
        steps += moved
        rung = np.where(moved, np.where(climbed, rung, np.maximum(rung - 1, 0)), rung + 1)
        climbed = ~moved
        conv = moved & (r <= optim.ROOT_TOL)
        stall |= rung == len(_DAMPING)
        end = conv | stall | (steps == optim.ROOT_STEPS)
        if end.any():
            keep = retire(end, np.where(conv, "converged", np.where(stall, "stalled", "max-iter")))
            X, F, J, r, lanes = X[keep], F[keep], J[keep], r[keep], lanes[keep]
            n_eval, steps, rung, climbed = n_eval[keep], steps[keep], rung[keep], climbed[keep]
    return out


def lm_steps(J, F, lam) -> np.ndarray:
    """A frozen copy of ``optim._lm_steps``: both branches evaluated on every lane."""
    J0, J1 = J[:, 0], J[:, 1]
    F0, F1 = F[:, 0], F[:, 1]
    G = np.einsum("lin,ljn->lij", J, J)
    p, q, t = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
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


def fd_rows(f_rows, X, lanes):
    """A frozen copy of ``optim._fd_rows``: F, forward-difference J and |F|^2 from one call."""
    L, n = X.shape
    offsets = optim.FD_STEP * np.eye(n + 1, n, -1)
    rows = np.asarray(f_rows((X[:, None] + offsets).reshape(-1, n), np.repeat(lanes, n + 1)),
                      dtype=float).reshape(L, n + 1, -1)
    F = rows[:, 0]
    J = (rows[:, 1:] - F[:, None]).transpose(0, 2, 1) / optim.FD_STEP
    return F, J, (F * F).sum(axis=1)
