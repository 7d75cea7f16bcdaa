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
  are spaced by pi/omega_eff.  ``audit`` takes that sinusoid and the
  constant H_oc of every bang in closed form from psi and lambda at the
  bang's start, so a bang protocol's sign rule and singular coasts are
  decided exactly, not on samples.

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

    dC/du(t) = Phi(t) dt.  It is Q_x of ``_q_vectors``.
    """
    return _q_vectors(lam, psi)[..., 0]


def control_hamiltonian(lam: np.ndarray, psi: np.ndarray, u: np.ndarray,
                        params: ModelParams) -> np.ndarray:
    """H_oc = Re[-i <lambda|H|psi>] of states (..., 2), u the control per row."""
    return _hoc(_q_vectors(lam, psi), u, params)


def _q_vectors(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Q_l = Im<lambda|sigma_l|psi>, l = x, y, z, on a last axis, of states (..., 2).

    Q_x is Phi; the only place where Phi and Q_z are formed.
    """
    l0, l1 = np.conjugate(lam[..., 0]), np.conjugate(lam[..., 1])
    p0, p1 = psi[..., 0], psi[..., 1]
    return np.stack((np.imag(l0 * p1 + l1 * p0), np.real(l1 * p0 - l0 * p1),
                     np.imag(l0 * p0 - l1 * p1)), axis=-1)


def _hoc(Q: np.ndarray, u, params: ModelParams) -> np.ndarray:
    """H_oc = (omega0/2) Q_z + u Q_x of Q vectors (..., 3) and controls u."""
    return 0.5 * params.omega0 * Q[..., 2] + u * Q[..., 0]


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
    Phi_mu(0).  Phi_i is the Q_x of ``_q_vectors`` on the costate block
    lambda_i, as every Phi of this module is.

    Returns lambda(T) (2,) for ``audit``, the residual and mu.
    """
    _, vals, P = _bang_prefixes(protocol, params)
    if len(vals) < 2:
        raise ValueError("the endpoint costate needs at least one switch")
    a, b = P[-1]
    E = cost.endpoint_states()
    # lambda_i and psi at 0 and at the switches, states on the last axis;
    # lambda_i(T) = e_i carried back by U^dag
    lam = pair_apply(P[:-1], pair_apply(np.array([np.conjugate(a), -b]), E)).swapaxes(1, 2)
    psi = pair_apply(P[:-1], cost.initial_state()[:, None]).swapaxes(1, 2)
    M = _q_vectors(lam, psi)[..., 0]
    _, s, vt = np.linalg.svd(M[1:])
    residual = float(s[-1] / s[0]) if len(s) == E.shape[1] else 0.0
    mu = vt[-1]
    if vals[0] * (M[0] @ mu) > 0.0:
        mu = -mu
    return E @ mu, residual, mu


def certified_audit(protocol: BangSequence | OneParamBB, params: ModelParams,
                    cost: CostSpec) -> OptimalityReport:
    """``audit`` of a minimum-time bang protocol at T* on its ``endpoint_costate``.

    The costate and the closed-form audit each read psi and lambda from a
    prefix scan of the bangs (``_bang_prefixes``).  The report carries the
    costate's ``certificate_residual`` and ``mu``; on an extremal its
    ``sign_margin`` is at rounding level (below 1e-13 at the benchmark
    centres), and a switch moved off it by 1% of a bang reads a margin of
    1e-4 or more.
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


# H_oc is exactly constant on every bang, so a cell-wise protocol leaves a
# relative spread of a few 1e-16, pure rounding; the written summary gives a
# spread at or below this as 0.0
_HOC_DEV_ROUNDING = 1e-12

# u Phi counts against the sign rule above this fraction of u_max max|Phi|,
# and a bang protocol's coast is singular where |Phi| stays within this
# fraction of max|Phi| of zero
_SIGN_TOL = 1e-6


@dataclass
class OptimalityReport:
    """PMP diagnostics for one protocol/cost pair.

    ``times``, ``phi`` and ``hoc`` are the samples that ``phi_hoc.csv``
    carries.  ``summary`` is what the result files carry; it writes a
    rounding-level ``hoc_seg_max_dev`` as 0.0, which the field itself keeps
    raw.  A report on the costate of ``endpoint_costate`` also carries that
    costate's ``certificate_residual`` and multipliers ``mu``, and writes
    them.
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
    sign_margin: float
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
            "sign_margin": self.sign_margin,
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
    Phi and H_oc are given at ``n_samples`` equally spaced times.

    A ``BangSequence`` or ``OneParamBB`` is audited in closed form
    (``_bang_audit``): on each bang Phi is a sinusoid and H_oc a constant,
    from psi and lambda at the bang's start, so the sign rule, the sign
    margin and the singular coasts are exact, not sampled.  Any other
    protocol (``Sampled`` cells, smooth pulses) is propagated to the
    samples (``_sampled_audit``).  Both read the segments with equal
    neighbours merged, and ``omega_eff`` = pi / the mean middle-bang
    duration and ``A``, the amplitude of Phi's sinusoid on the middle
    bangs, are reported when every middle segment is a full bang.
    """
    if isinstance(protocol, (BangSequence, OneParamBB)):
        return _bang_audit(protocol, params, cost, n_samples, final_adjoint)
    return _sampled_audit(protocol, params, cost, n_samples, final_adjoint)


def _initial_costate(a, b, cost: CostSpec, final_adjoint) -> np.ndarray:
    """lambda(0) = U^dag lambda(T) for the total pair (a, b); lambda(T) as in ``audit``."""
    if final_adjoint is None:
        final_adjoint = 2.0 * (cost.endpoint_states() @ cost.rows(a, b))
    return pair_apply(np.array([np.conjugate(a), -b]), final_adjoint[:, None])[:, 0]


def _arcs(Q: np.ndarray, vals: np.ndarray, params: ModelParams):
    """Phi = c0 + c1 cos(w tau) + c2 sin(w tau) and H_oc on bangs of values vals entered at Q.

    On a bang of value v, H = W n.sigma with W = sqrt(h^2 + v^2), h =
    omega0/2 and n = (v, 0, h)/W, and psi and lambda both evolve by
    exp(-i H tau).  So Q rotates about n at the rate w = 2W, dQ/dtau =
    w n x Q, and its x component is Phi: c0 = n_x (n.Q), c1 = Q_x - c0 and
    c2 = (n x Q)_x = -(h/W) Q_y (the bang arcs of Boscain & Chitour, SIAM
    J. Control Optim. 44, 111 (2005)).  H_oc = W n.Q = v Q_x + h Q_z is
    constant on the bang.  Returns (c0, c1, c2, w, H_oc), one entry per bang.
    """
    h = 0.5 * params.omega0
    W = np.hypot(h, vals)
    hoc = _hoc(Q, vals, params)
    c0 = vals * hoc / W ** 2
    return c0, Q[:, 0] - c0, -(h / W) * Q[:, 1], 2.0 * W, hoc


def _merged(durs, vals, T: float):
    """Boundaries, values and first cells of the segments (durs, vals), equal neighbours merged."""
    starts = np.flatnonzero(np.concatenate([[True], np.abs(np.diff(vals)) > 0.0]))
    cum = np.concatenate([[0.0], np.cumsum(durs)])
    return np.concatenate([cum[starts], [T]]), vals[starts], starts


def _omega_eff(boundaries, vals, params: ModelParams) -> float | None:
    """pi / the mean middle-segment duration; None unless every middle segment is a full bang."""
    if len(vals) >= 3 and np.all(np.abs(np.abs(vals[1:-1]) - params.u_max) < 1e-9 * params.u_max):
        return float(np.pi / np.mean(np.diff(boundaries)[1:-1]))
    return None


def _bang_prefixes(protocol: BangSequence | OneParamBB, params: ModelParams):
    """Segments (durations, values) of a bang protocol and the prefix pairs (K + 1, 2) of them.

    One prefix scan: ``cell_pairs``, ``pair_levels`` up the tree and
    ``pair_prefixes`` down it; row k is P_k at the start of segment k, the
    last row the whole product.  ``endpoint_costate`` and ``audit`` both
    read their states from it.
    """
    durs, vals = segment_durations_values(protocol)
    return durs, vals, pair_prefixes(pair_levels(cell_pairs(durs, vals, params)))


def _extremes(c0, c1, c2, theta_end):
    """Max and min of c0 + c1 cos(theta) + c2 sin(theta) over theta in [0, theta_end], elementwise.

    The sinusoid is c0 + R cos(theta - phi); its extremes lie at the ends
    or at the first theta >= 0 where theta - phi is a multiple of pi.
    """
    R = np.hypot(c1, c2)
    phi = np.arctan2(c2, c1)
    end = c0 + c1 * np.cos(theta_end) + c2 * np.sin(theta_end)
    lo_end, hi_end = np.minimum(c0 + c1, end), np.maximum(c0 + c1, end)
    hi = np.where(np.mod(phi, 2.0 * np.pi) <= theta_end, c0 + R, hi_end)
    lo = np.where(np.mod(phi + np.pi, 2.0 * np.pi) <= theta_end, c0 - R, lo_end)
    return hi, lo


def _measure_above(c0, c1, c2, theta_end, level):
    """Measure of theta in [0, theta_end] with c0 + c1 cos(theta) + c2 sin(theta) > level.

    With c0 + R cos(theta - phi), the set is cos(theta - phi) > g = (level -
    c0)/R: the arcs theta - phi + delta in [0, 2 delta) mod 2 pi, delta =
    arccos g.  The measure of those arcs on [0, y] is M(y) = floor(y / 2 pi)
    2 delta + min(y mod 2 pi, 2 delta), and on [0, theta_end] it is
    M(theta_end + s) - M(s) with s = delta - phi.
    """
    R = np.hypot(c1, c2)
    num = level - c0
    g = np.divide(num, R, out=np.where(num < 0.0, -1.0, 1.0), where=R > 0.0)
    width = 2.0 * np.arccos(np.clip(g, -1.0, 1.0))
    shift = 0.5 * width - np.arctan2(c2, c1)
    two_pi = 2.0 * np.pi

    def M(y):
        return np.floor(y / two_pi) * width + np.minimum(np.mod(y, two_pi), width)

    return M(theta_end + shift) - M(shift)


def _bang_audit(protocol: BangSequence | OneParamBB, params: ModelParams, cost: CostSpec,
                n_samples: int, final_adjoint) -> OptimalityReport:
    """``audit`` of a bang protocol in closed form, from one prefix pass over its segments.

    psi and lambda at each segment start give Q and with it each bang's
    sinusoid and H_oc (``_arcs``), which are evaluated at the sample times.
    H_oc is constant on each bang, so ``hoc_seg_max_dev`` is 0 and
    ``lambda0`` is minus its time average.  With M = max|Phi|, exact from
    each bang's extremes:
    * ``sign_fraction`` is 1 - the measure of the time where
      u Phi > 1e-6 M u_max, over T;
    * ``sign_margin`` is the largest u Phi / (u_max M) on any bang, 0 or a
      rounding-level value on an extremal;
    * ``singular_residence`` is the duration of the coasts (u = 0) on which
      |Phi| stays within 1e-6 M of zero;
    * ``A`` is the mean amplitude sqrt(c1^2 + c2^2) of the middle bangs.
    """
    durs, vals, P = _bang_prefixes(protocol, params)
    T = protocol.T
    lam0 = _initial_costate(*P[-1], cost, final_adjoint)
    states = pair_apply(P[:-1], np.column_stack([cost.initial_state(), lam0]))
    c0, c1, c2, w, H = _arcs(_q_vectors(states[..., 1], states[..., 0]), vals, params)

    starts = np.concatenate([[0.0], np.cumsum(durs)])
    starts[-1] = T
    times = np.linspace(0.0, T, n_samples)
    seg = np.clip(np.searchsorted(starts, times, side="right") - 1, 0, len(vals) - 1)
    theta = w[seg] * (times - starts[seg])
    phi = c0[seg] + c1[seg] * np.cos(theta) + c2[seg] * np.sin(theta)

    theta_end = w * durs
    hi, lo = _extremes(c0, c1, c2, theta_end)
    peak = np.maximum(hi, -lo)
    max_abs_phi = float(peak.max())
    bang = np.abs(vals) >= 1e-12
    worst = np.where(vals > 0.0, vals * hi, vals * lo)[bang] / params.u_max
    sign_margin = float(worst.max() / max_abs_phi) if max_abs_phi > 0.0 and worst.size else 0.0
    # u Phi > level reads s Phi > level / |u| with s = sign(u), on s times the sinusoid
    sgn = np.sign(vals[bang])
    level = _SIGN_TOL * max_abs_phi * params.u_max / np.abs(vals[bang])
    bad = _measure_above(sgn * c0[bang], sgn * c1[bang], sgn * c2[bang], theta_end[bang], level)
    sign_fraction = float(1.0 - (bad / w[bang]).sum() / T)
    coast = ~bang & (peak <= _SIGN_TOL * max_abs_phi)

    lambda0 = -float(H @ durs) / T
    boundaries, merged_vals, first = _merged(durs, vals, T)
    omega_eff = _omega_eff(boundaries, merged_vals, params)
    A = None
    if omega_eff is not None:
        A = float(np.mean(np.hypot(c1, c2)[first[1:-1]]))
    return OptimalityReport(
        times=times, phi=phi, hoc=H[seg], lambda0=lambda0, A=A, omega_eff=omega_eff,
        hoc_seg_max_dev=0.0, hoc_global_dev=float((H.max() - H.min()) / (1.0 + abs(lambda0))),
        sign_fraction=sign_fraction, sign_margin=sign_margin,
        singular_residence=float(durs[coast].sum()), max_abs_phi=max_abs_phi,
    )


def _sampled_audit(protocol: Protocol, params: ModelParams, cost: CostSpec,
                   n_samples: int, final_adjoint) -> OptimalityReport:
    """``audit`` of any protocol on states propagated to the sample times.

    Sign consistency counts samples with u * Phi <= 1e-6 * max|Phi| * u_max,
    excluding samples within two grid steps of a switching instant, and
    ``sign_margin`` is the largest u Phi / (u_max max|Phi|) over the same
    samples.  Singular residence accumulates time spent with u = 0 while
    |theta - pi/2| < 1e-3.  Phi, H_oc and ``A`` all come from one Q
    (``_q_vectors``) per sample: ``A`` is the mean amplitude of Phi's
    sinusoid on the middle bangs (``_arcs``), from Q at each one's first
    sample.
    """
    traj = propagate(protocol, params, SIGMA_0, n_samples)
    P = traj.states[..., :, 0]
    lam0 = _initial_costate(*P[-1], cost, final_adjoint)
    states = pair_apply(P, np.column_stack([cost.initial_state(), lam0]))
    psi = states[..., 0]
    times = traj.times
    Q = _q_vectors(states[..., 1], psi)
    phi = Q[:, 0]

    # merge equal-value cells so dense Sampled grids recover their true
    # piecewise structure (bang segments); smooth pulses stay cell-resolved
    boundaries, vals, _ = _merged(*segment_durations_values(protocol), protocol.T)
    seg_idx = np.clip(np.searchsorted(boundaries, times, side="right") - 1,
                      0, len(vals) - 1)
    # the control at each sample is taken from its segment, so that samples
    # landing exactly on a cell edge do not leak across segments
    u = vals[seg_idx]
    hoc = _hoc(Q, u, params)

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
    sign_fraction, sign_margin = 1.0, 0.0
    if max_abs_phi > 0.0 and np.any(keep):
        up = u[keep] * phi[keep]
        sign_fraction = float(1.0 - (up > _SIGN_TOL * max_abs_phi * params.u_max).mean())
        sign_margin = float(up.max() / (params.u_max * max_abs_phi))

    # singular-arc residence
    z = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
    on_arc = (np.abs(u) < 1e-12) & (np.abs(np.arccos(np.clip(z, -1, 1)) - np.pi / 2) < 1e-3)
    singular_residence = float(on_arc.sum() * dt_grid)

    # the middle bangs' amplitude, from Q at the first sample of each
    omega_eff = _omega_eff(boundaries, vals, params)
    A = None
    if omega_eff is not None:
        first = np.searchsorted(seg_idx, np.arange(1, len(vals) - 1))
        first = first[seg_idx[first] == np.arange(1, len(vals) - 1)]
        if first.size:
            _, c1, c2, _, _ = _arcs(Q[first], u[first], params)
            A = float(np.mean(np.hypot(c1, c2)))

    return OptimalityReport(
        times=times, phi=phi, hoc=hoc, lambda0=lambda0, A=A, omega_eff=omega_eff,
        hoc_seg_max_dev=hoc_seg_max_dev, hoc_global_dev=hoc_global_dev,
        sign_fraction=sign_fraction, sign_margin=sign_margin,
        singular_residence=singular_residence, max_abs_phi=max_abs_phi,
    )
