"""Pontryagin machinery: adjoint fields, switching function, control-Hamiltonian.

The first-order optimality conditions used throughout:

* the switching function Phi(t) = Re[-i <lambda|sigma_x|psi>] is the gradient
  density of the terminal cost with respect to the control, and an optimal
  bang control obeys u* = -u_max Sgn[Phi];
* the control-Hamiltonian H_oc(t) = Re[-i <lambda|H(t)|psi>] is constant
  along an extremal.  For the cost's costate lambda(T) = 2 dC/d<psi(T)|
  it is negative for T < T*, and at a perfect gate that costate, Phi and
  H_oc all vanish.  At a minimum time T* the costate comes instead from
  the multipliers of the endpoint equations (``endpoint_costate``), and
  Phi and H_oc are nonzero there;
* along each bang segment Phi obeys Phi'' = -W^2 Phi - 4 u |lambda0| with
  W^2 = omega0^2 + 4 u_max^2, which makes Phi a piecewise cosine whose zeros
  are spaced by pi/omega_eff.

Forward and adjoint states are both taken from the prefix unitaries
P_k = U_(k-1) ... U_0 of one propagation: the forward states are P_k psi(0)
and, since the adjoint obeys the same Schroedinger equation, the adjoints
are P_k P_n^dag lambda(T).  Every cost has one trajectory, from
``CostSpec.initial_state()``, and its own costate comes from its real
endpoint rows F: lambda(T) = 2 sum_i F_i e_i (``CostSpec``).

The P_k are Cayley-Klein pairs from one prefix scan over the cells
(``dynamics.pair_levels`` up the pairwise tree and ``dynamics.pair_prefixes``
down it, log2(n) vectorized levels each way), applied to states by
``dynamics.pair_apply``.  For a piecewise-constant control the Jacobian of
the rows, and with it the cost gradient 2 J^T F, is exact, not a quadrature
of Phi: it pairs the prefixes with the closed-form cell derivative dU/du,
itself a pair (``dynamics.segment_derivatives``), as in GRAPE (Khaneja et
al., J. Magn. Reson. 172, 296 (2005); de Fouquieres et al., J. Magn. Reson.
212, 412 (2011)).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    KET_0,
    SIGMA_0,
    BlochPoint,
    ModelParams,
    _cells,
    cell_pairs,
    pair_apply,
    pair_levels,
    pair_matrix,
    pair_mul,
    pair_prefixes,
    propagate,
)
from .protocols import BangSequence, OneParamBB, Protocol, Sampled, segment_durations_values

__all__ = [
    "CostSpec",
    "OptimalityReport",
    "switching_function",
    "control_hamiltonian",
    "cost_and_gradient",
    "unitary_and_jacobian",
    "endpoint_costate",
    "certified_audit",
    "omega_eff_from_ratio",
    "analytical_switching",
    "fit_switching_amplitude",
    "alpha",
    "bloch_velocity",
    "audit",
]


@dataclass(frozen=True)
class CostSpec:
    """A terminal cost, written as real endpoint rows on one trajectory.

    The trajectory starts at ``initial_state()``: |0> for a gate kind
    ('x', 'y', 'pt'), ``init`` for state preparation ('sp', which also needs
    ``target``).  On U in SU(2) the cost is C = |F|^2 - 1, with the rows
    F_i = Re<e_i|U psi(0)> of the states e_i of ``endpoint_states()``, so
    its costate is lambda(T) = 2 dC/d<psi(T)| = 2 sum_i F_i e_i
    (transversality; Bryson & Ho, *Applied Optimal Control*, 1975, ch. 3).
    Every search and report of qoct reads its terminal cost here, from the
    Cayley-Klein pair (a, b) = (U00, U10): ``gap`` gives C + 1 = |F|^2 and
    ``value`` gives C.
    """

    kind: str  # 'sp' | 'x' | 'y' | 'pt'
    init: np.ndarray | None = None
    target: np.ndarray | None = None

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("sp", "x", "y", "pt"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if kind == "sp":
            if self.init is None or self.target is None:
                raise ValueError("state-prep cost needs init and target states")
            # G = c_a a + c_a' a* + c_b b + c_b' b*, as the real coefficients of
            # (Re a, Im a, Re b, Im b) in Re G and in Im G
            (i0, i1), (t0, t1) = (np.asarray(v, dtype=complex) for v in (self.init, self.target))
            ca, cac, cb, cbc = -t1 * i0, t0 * i1, t0 * i0, t1 * i1
            object.__setattr__(self, "_sp_coefficients", tuple(float(c) for c in (
                ca.real + cac.real, cac.imag - ca.imag, cb.real + cbc.real, cbc.imag - cb.imag,
                ca.imag + cac.imag, ca.real - cac.real, cb.imag + cbc.imag, cb.real - cbc.real)))

    def initial_state(self) -> np.ndarray:
        """The state psi(0) that the rows read at T: |0> for a gate, ``init`` for state prep."""
        return np.asarray(self.init, dtype=complex) if self.kind == "sp" else KET_0

    def endpoint_states(self) -> np.ndarray:
        """The states e_i, as the columns of a (2, m) block, of the rows F_i = Re<e_i|psi(T)>.

        A gate's rows are read on psi(T) = U|0> = (a, b): e_i = |0>, i|0>
        (Re a, Im a) and, for X, |1> (Re b) or, for Y, i|1> (Im b); with
        C_X + 1 = |a|^2 + (Re b)^2, C_Y + 1 = |a|^2 + (Im b)^2 and C_PT + 1 =
        |a|^2.  State preparation's are (Re G, Im G) of G = <t_perp|U|psi_i>,
        t_perp the state orthogonal to the target: e_i = t_perp, i t_perp,
        with |G|^2 = 1 - |<target|U|psi_i>|^2.
        """
        if self.kind == "sp":
            t0, t1 = np.conjugate(np.asarray(self.target, dtype=complex))
            t_perp = np.array([-t1, t0])
            return np.column_stack([t_perp, 1j * t_perp])
        E = np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0 if self.kind == "x" else 1j]])
        return E[:, :2] if self.kind == "pt" else E

    def rows(self, a, b) -> np.ndarray:
        """The rows F of the matrices U = [[a, -b*], [b, a*]], elementwise over stacks of pairs.

        F is on a last axis of length m, the columns of ``endpoint_states()``.
        F is real-linear in (a, b), so on the pairs of dU/du it gives the
        rows' derivatives.  The rows are written out rather than taken as
        Re(E^H U psi(0)), which costs time and bits on the scans' stacks.
        State preparation's (Re G, Im G) are real 4-term sums in (Re a,
        Im a, Re b, Im b), one rounding per operation, so a pair has the same
        rows alone, as numpy scalars, and in any stack.
        """
        if self.kind == "sp":
            p0, p1, p2, p3, q0, q1, q2, q3 = self._sp_coefficients
            ar, ai, br, bi = a.real, a.imag, b.real, b.imag
            F = np.empty(np.shape(a) + (2,))
            F[..., 0] = (p0 * ar + p1 * ai) + (p2 * br + p3 * bi)
            F[..., 1] = (q0 * ar + q1 * ai) + (q2 * br + q3 * bi)
            return F
        if self.kind == "pt":
            return np.stack((a.real, a.imag), axis=-1)
        return np.stack((a.real, a.imag, b.real if self.kind == "x" else b.imag), axis=-1)

    def gap(self, a, b):
        """C + 1 = |F|^2 of ``rows(a, b)``, elementwise over stacks of pairs.

        The sum of squares is the one ``optim.gauss_newton`` takes of its
        rows, so a lane's ``fun`` has the bits of ``gap`` at its x.  Near a
        target it keeps its relative accuracy, where C + 1 formed as 1 minus
        an overlap cancels to rounding.
        """
        F = self.rows(a, b)
        return (F * F).sum(axis=-1)

    def value(self, U: np.ndarray) -> float:
        """Terminal cost C = ``gap`` - 1 of the total evolution operator U in SU(2)."""
        return float(self.gap(U[0, 0], U[1, 0]) - 1.0)


def switching_function(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Phi = Re[-i <lambda|sigma_x|psi>] of adjoint and forward states (..., 2).

    dC/du(t) = Phi(t) dt.
    """
    return np.imag(lam[..., 0].conj() * psi[..., 1] + lam[..., 1].conj() * psi[..., 0])


def control_hamiltonian(lam: np.ndarray, psi: np.ndarray, u: np.ndarray,
                        params: ModelParams) -> np.ndarray:
    """H_oc = Re[-i <lambda|H|psi>] of states (..., 2), u the control per row."""
    phi_z = np.imag(lam[..., 0].conj() * psi[..., 0] - lam[..., 1].conj() * psi[..., 1])
    return 0.5 * params.omega0 * phi_z + u * switching_function(lam, psi)


def cost_and_gradient(protocol: Sampled, params: ModelParams, cost: CostSpec):
    """Terminal cost and its exact gradient in the cell values of a Sampled control.

    C + 1 = |F|^2 on SU(2), so dC/du = 2 J^T F with the rows F and their
    Jacobian J from ``unitary_and_jacobian``: the exact derivative of the
    piecewise-constant propagation, from one prefix scan and the closed-form
    dU/du.  By Duhamel's formula for dU/du it equals the integral of Phi
    over each cell, with no quadrature error.
    """
    U, jacobian = unitary_and_jacobian(protocol, params, cost)
    return cost.value(U), 2.0 * (cost.rows(U[0, 0], U[1, 0]) @ jacobian())


def unitary_and_jacobian(protocol: Sampled, params: ModelParams, cost: CostSpec):
    """Total unitary of a Sampled control, and a function giving the Jacobian of the cost's rows.

    The Jacobian (m, n) is exact, of ``cost.rows`` in the n cell values.
    One set of cell terms and one up-sweep (``pair_levels``) give U with the
    bits of ``total_unitary``; the down-sweep and the cell derivatives run
    only when the function is called.  On pairs, dU/du_k = S_k (dU_k/du) P_k
    with S_k = U P_(k+1)^dag.
    """
    ab, derivatives = _cells(np.full(protocol.n_t, protocol.dt), protocol.values, params)
    levels = list(pair_levels(ab))

    def jacobian():
        a, b = pair_prefixes(levels).T
        s = pair_mul(a[-1], b[-1], np.conjugate(a[1:]), -b[1:])
        return cost.rows(*pair_mul(*s, *pair_mul(*derivatives().T, a[:-1], b[:-1]))).T

    return pair_matrix(np.concatenate(levels[-1])), jacobian


def endpoint_costate(protocol: BangSequence | OneParamBB, params: ModelParams, cost: CostSpec):
    """Costate at T of a minimum-time bang protocol, from the multipliers of its endpoint rows.

    A minimum time minimizes T subject to the m rows F_i = Re<e_i|psi(T)> = 0
    of ``cost.endpoint_states()`` on psi(0) = ``cost.initial_state()``.
    Transversality gives lambda(T) = sum_i mu_i e_i (Pontryagin et al.,
    1962; Bryson & Ho, *Applied Optimal Control*, 1975, ch. 3), and the
    maximum principle asks the switching function Phi_mu = sum_i mu_i Phi_i
    of that costate to vanish at every switch s_j.  So mu is the null
    vector of the switch matrix M[j, i] = Phi_i(s_j), the last right
    singular vector of M, with |mu| = 1.  M comes from the prefix pairs at
    the switches of one prefix scan.  The residual is sigma_min / sigma_max
    of M, or 0 with fewer switches than rows, where a null vector always
    exists.  It certifies a PMP extremal, not a minimum time: a symmetric
    square wave passes at any frequency.

    mu's sign makes the first bang obey u = -u_max Sgn[Phi_mu], read from
    Phi_mu(0).

    Returns lambda(T) (2,) for ``audit``, the residual and mu.
    """
    durs, vals = segment_durations_values(protocol)
    if len(vals) < 2:
        raise ValueError("the endpoint costate needs at least one switch")
    P = pair_prefixes(pair_levels(cell_pairs(durs, vals, params)))
    a, b = P[-1]
    E = cost.endpoint_states()
    # conj(lambda_i) and psi at 0 and at the switches, lambda_i(T) = e_i
    # carried back by U^dag
    lam = pair_apply(P[:-1], pair_apply(np.array([np.conjugate(a), -b]), E)).conj()
    psi = pair_apply(P[:-1], cost.initial_state()[:, None])
    M = np.imag(lam[:, 0] * psi[:, 1] + lam[:, 1] * psi[:, 0])
    _, s, vt = np.linalg.svd(M[1:])
    residual = float(s[-1] / s[0]) if len(s) == E.shape[1] else 0.0
    mu = vt[-1]
    if vals[0] * (M[0] @ mu) > 0.0:
        mu = -mu
    return E @ mu, residual, mu


def certified_audit(protocol: BangSequence | OneParamBB, params: ModelParams,
                    cost: CostSpec) -> OptimalityReport:
    """``audit`` of a minimum-time bang protocol at T* on its ``endpoint_costate``.

    The report carries the costate's ``certificate_residual`` and ``mu``.
    """
    final_adjoint, residual, mu = endpoint_costate(protocol, params, cost)
    report = audit(protocol, params, cost, final_adjoint=final_adjoint)
    report.certificate_residual, report.mu = residual, mu
    return report


def omega_eff_from_ratio(lambda0_over_A: float, params: ModelParams) -> float:
    """Frequency of the switching-function zeros, W / (1 + (2/pi) asin(4 r u_max / W^2))."""
    W = params.big_omega
    arg = 4.0 * lambda0_over_A * params.u_max / W ** 2
    if abs(arg) > 1.0:
        raise ValueError("lambda0/A ratio outside the admissible range")
    return W / (1.0 + (2.0 / np.pi) * math.asin(arg))


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


def fit_switching_amplitude(times: np.ndarray, phi: np.ndarray,
                            boundaries: np.ndarray, values: np.ndarray,
                            lambda0: float, params: ModelParams) -> float | None:
    """Least-squares amplitude A of the analytical switching form.

    Fitted over middle bang segments only (first/last excluded); inside a
    segment the extremum of Phi sits at the midpoint and the sign is
    opposite to the control, so the model is linear in A.
    """
    W = params.big_omega
    off = 4.0 * params.u_max * abs(lambda0) / W ** 2
    num = 0.0
    den = 0.0
    for k in range(1, len(values) - 1):
        if values[k] == 0.0:
            continue
        mask = (times >= boundaries[k]) & (times <= boundaries[k + 1])
        if not np.any(mask):
            continue
        mid = 0.5 * (boundaries[k] + boundaries[k + 1])
        sk = -np.sign(values[k])
        basis = sk * np.cos(W * (times[mask] - mid))
        resid = phi[mask] - sk * off
        num += float(np.dot(basis, resid))
        den += float(np.dot(basis, basis))
    if den == 0.0:
        return None
    return num / den


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


# H_oc is exactly constant on every bang, so a bang-bang or cell-wise
# protocol leaves a relative spread of a few 1e-16, pure rounding; the
# written summary gives a spread at or below this as 0.0
_HOC_DEV_ROUNDING = 1e-12


@dataclass
class OptimalityReport:
    """Sampled PMP diagnostics for one protocol/cost pair.

    ``summary`` is what the result files carry; it writes a rounding-level
    ``hoc_seg_max_dev`` as 0.0, which the field itself keeps raw.  A report
    on the costate of ``endpoint_costate`` also carries that costate's
    ``certificate_residual`` and multipliers ``mu``, and writes them.
    """

    times: np.ndarray
    phi: np.ndarray
    hoc: np.ndarray
    lambda0: float
    A: float | None
    omega_eff: float | None
    hoc_seg_max_dev: float  # relative, max over segments
    hoc_global_dev: float  # relative spread across the whole protocol
    sign_fraction: float
    singular_residence: float
    max_abs_phi: float
    certificate_residual: float | None = None
    mu: np.ndarray | None = None

    def summary(self) -> dict:
        out = {
            "lambda0": self.lambda0,
            "A": self.A,
            "omega_eff": self.omega_eff,
            "hoc_max_dev": (self.hoc_seg_max_dev
                            if self.hoc_seg_max_dev > _HOC_DEV_ROUNDING else 0.0),
            "sign_fraction": self.sign_fraction,
            "singular_residence": self.singular_residence,
        }
        if self.mu is not None:
            out["certificate_residual"] = self.certificate_residual
            out["mu"] = [float(m) for m in self.mu]
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def audit(protocol: Protocol, params: ModelParams, cost: CostSpec,
          n_samples: int = 4001, final_adjoint=None) -> OptimalityReport:
    """Evaluate the PMP diagnostics of a protocol against a terminal cost.

    The costate ends at ``final_adjoint`` (2,), or at the cost's own
    costate lambda(T) = 2 sum_i F_i e_i (``CostSpec``) when it is None.

    Sign consistency counts samples with u * Phi <= 1e-6 * max|Phi| * u_max,
    excluding samples within two grid steps of a switching instant.
    Singular residence accumulates time spent with u = 0 while
    |theta - pi/2| < 1e-3.
    """
    traj = propagate(protocol, params, SIGMA_0, n_samples)
    P = traj.states[..., :, 0]
    a, b = P[-1]
    if final_adjoint is None:
        final_adjoint = 2.0 * (cost.endpoint_states() @ cost.rows(a, b))
    lam0 = pair_apply(np.array([np.conjugate(a), -b]), final_adjoint[:, None])[:, 0]
    states = pair_apply(P, np.column_stack([cost.initial_state(), lam0]))
    psi, lam = states[..., 0], states[..., 1]
    times = traj.times
    phi = switching_function(lam, psi)

    # merge equal-value cells so dense Sampled grids recover their true
    # piecewise structure (bang segments); smooth pulses stay cell-resolved
    raw_durs, raw_vals = segment_durations_values(protocol)
    keep_seg = np.concatenate([[True], np.abs(np.diff(raw_vals)) > 0.0])
    starts = np.flatnonzero(keep_seg)
    vals = raw_vals[starts]
    cum = np.concatenate([[0.0], np.cumsum(raw_durs)])
    boundaries = np.concatenate([cum[starts], [protocol.T]])
    durs = np.diff(boundaries)

    seg_idx = np.clip(np.searchsorted(boundaries, times, side="right") - 1,
                      0, len(vals) - 1)
    # the control at each sample is taken from its segment, so that samples
    # landing exactly on a cell edge do not leak across segments
    u = vals[seg_idx]
    hoc = control_hamiltonian(lam, psi, u, params)

    counts = np.bincount(seg_idx, minlength=len(vals)).astype(float)
    sums = np.bincount(seg_idx, weights=hoc, minlength=len(vals))
    with np.errstate(invalid="ignore", divide="ignore"):
        seg_mean = sums / counts
    dev = np.abs(hoc - seg_mean[seg_idx])
    seg_dev = np.zeros(len(vals))
    np.maximum.at(seg_dev, seg_idx, dev)
    with np.errstate(invalid="ignore"):
        rel = seg_dev / (1.0 + np.abs(seg_mean))
    hoc_seg_max_dev = float(np.nanmax(rel)) if len(vals) else 0.0
    hoc_global_dev = float((hoc.max() - hoc.min()) / (1.0 + abs(hoc.mean())))

    lambda0 = float(-np.mean(hoc))
    max_abs_phi = float(np.max(np.abs(phi)))

    # sign consistency away from sign switches of the control
    dt_grid = times[1] - times[0]
    flips = boundaries[1:-1][np.sign(vals[1:]) != np.sign(vals[:-1])]
    keep = np.ones(len(times), dtype=bool)
    for sw in flips:
        keep &= np.abs(times - sw) > 2 * dt_grid
    if max_abs_phi > 0.0 and np.any(keep):
        viol = (u[keep] * phi[keep]) > 1e-6 * max_abs_phi * params.u_max
        sign_fraction = float(1.0 - viol.mean())
    else:
        sign_fraction = 1.0

    # singular-arc residence
    z = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
    on_arc = (np.abs(u) < 1e-12) & (np.abs(np.arccos(np.clip(z, -1, 1)) - np.pi / 2) < 1e-3)
    singular_residence = float(on_arc.sum() * dt_grid)

    # middle-bang frequency and amplitude fit; only meaningful when the
    # interior consists of full-amplitude bangs (not for singular segments
    # or smooth pulses)
    omega_eff = None
    A = None
    if len(vals) >= 3 and np.all(np.abs(np.abs(vals[1:-1]) - params.u_max) < 1e-9 * params.u_max):
        tbar = float(np.mean(durs[1:-1]))
        omega_eff = float(np.pi / tbar)
        A = fit_switching_amplitude(times, phi, boundaries, vals, lambda0, params)

    return OptimalityReport(
        times=times, phi=phi, hoc=hoc, lambda0=lambda0, A=A, omega_eff=omega_eff,
        hoc_seg_max_dev=hoc_seg_max_dev, hoc_global_dev=hoc_global_dev,
        sign_fraction=sign_fraction, singular_residence=singular_residence,
        max_abs_phi=max_abs_phi,
    )
