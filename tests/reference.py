"""Closed-form reference formulas that only the tests compare qoct against.

None of them is called by the package: each states a known result in its
simplest form, so that a test can check qoct's own, faster or more general
computation of the same quantity.
"""
import numpy as np

from qoct.dynamics import BlochPoint, ModelParams, cell_pairs, pair_product, segment_propagators
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
