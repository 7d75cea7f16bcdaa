"""Minimum-time X/Y-gate and population-transfer synthesis.

The time-optimal gate protocol is bang-bang with equal middle bangs and
equal first/last bangs, which reduces the search at fixed T to the single
frequency of a signed square wave (even in t - T/2 for X, odd for Y; both
parities are legitimate for population transfer).  An even wave's
propagator has U01 = U10 and an odd wave's U01 = -U10, so C_X + 1 on the
even wave, C_Y + 1 on the odd wave and C_PT + 1 on either all equal
|U00|^2, and a perfect gate is a root of U00(T, omega) = 0: two real
equations in two unknowns.  The middle bangs of the wave repeat one period,
so its propagator is a power of that period's SU(2) matrix, taken in closed
form.  The minimum gate time is the first root along a scan upward in T,
found for each parity by ``optim.dip_roots``: at each dip of |U00|^2 over a
frequency grid it solves for the root by damped Gauss-Newton; the earliest
root over the parities wins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pmp
from .dynamics import (
    ModelParams,
    cell_pairs,
    pair_matrix,
    pair_product,
    rabi_pi_time,
    rabi_protocol,
    total_pairs,
)
from .optim import ROOT_TOL, dip_roots, refine_basins
from .pmp import CostSpec, OptimalityReport
from .protocols import OneParamBB

__all__ = [
    "GateProblem",
    "GateSearchResult",
    "one_param_cost",
    "optimize_omega_eff",
    "min_gate_time",
    "asymptotic_ratio_model",
    "rabi_fidelity_curve",
]


@dataclass(frozen=True)
class GateProblem:
    kind: str  # 'x' | 'y' | 'pt'
    params: ModelParams

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in ("x", "y", "pt"):
            raise ValueError("gate kind must be 'x', 'y', or 'pt'")

    def parities(self) -> tuple[str, ...]:
        if self.kind == "x":
            return ("even",)
        if self.kind == "y":
            return ("odd",)
        return ("even", "odd")

    def cost_spec(self) -> CostSpec:
        return CostSpec(self.kind)


@dataclass
class GateSearchResult:
    t_star: float
    omega_eff: float
    parity: str
    sign: int
    n_switch: int
    ratio: float
    cost: float
    residual: float  # |U00|^2 of the returned protocol
    newton_steps: int
    protocol: OneParamBB
    report: OptimalityReport | None


def one_param_cost(omega_eff, T: float, problem: GateProblem,
                   sign: float = 1.0, parity: str = "even"):
    """Gate cost of the square-wave protocol, from the power of its period.

    ``omega_eff`` may be a 1-D array of frequencies, giving one cost each;
    every cost has the bits of the single-frequency call.
    """
    w = np.asarray(omega_eff, dtype=float)
    X = np.column_stack(np.broadcast_arrays(T, w.reshape(-1)))
    ab = _square_wave_pairs(X, problem, sign, parity).reshape(w.shape + (2,))
    return problem.cost_spec().gap(ab[..., 0], ab[..., 1]) - 1.0


def _su2_power(ab: np.ndarray, m) -> np.ndarray:
    """Pairs of P^m for the SU(2) matrices P of pairs ab (..., 2) and integer powers m >= 0.

    The eigenvalues of P are exp(+-i alpha), with cos alpha = Re a and
    sin alpha = sqrt((Im a)^2 + |b|^2), so by Cayley-Hamilton (Chebyshev
    polynomials of the second kind)

        P^m = c1 P - c0 1,   c1 = sin(m alpha)/sin alpha,   c0 = sin((m-1) alpha)/sin alpha,

    whose pair is (c1 a - c0, c1 b).  alpha is taken by atan2, which stays
    accurate where P is close to -1, the resonant period at small u_max.
    """
    a, b = ab[..., 0], ab[..., 1]
    sin_a = np.sqrt(a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    alpha = np.arctan2(sin_a, a.real)
    out = (np.sin(m * alpha) / sin_a)[..., None] * ab
    out[..., 0] -= np.sin((m - 1) * alpha) / sin_a
    return out


def _square_wave_pairs(X, problem: GateProblem, sign: float, parity: str) -> np.ndarray:
    """Cayley-Klein pairs (U00, U10) of ``square_wave``'s protocol at the rows (T, omega) of X.

    U = E_last Q P^m E_first.  With tau = pi/omega the switches sit at
    (k + 1/2) tau (even) or k tau (odd) from T/2, strictly inside (0, T).
    For n switches the wave is an edge bang of length e = (T - (n - 1) tau)/2
    and value v0, n - 1 middle bangs of length tau alternating from -v0, and
    an edge bang of length e and value v0 (-1)^n.  So the middle bangs are
    m = (n - 1) // 2 periods P = U(tau, v0) U(tau, -v0), followed by
    Q = U(tau, -v0) when n - 1 is odd.  Every row is evaluated elementwise,
    so it has the bits of the same (T, omega) alone.

    Every bang has |u| = u_max, so the five cells share one
    W = hypot(omega0/2, u_max), and their three durations e, tau and Q's tau
    or 0 take cos and sin twice, of W e and W tau (cos 0 = 1 and sin 0 = 0
    exactly).  The pairs come from ``cell_pairs``'s expressions on those
    terms, so each has the bits of ``cell_pairs`` on the five cells.
    """
    T, w = np.asarray(X, dtype=float).T
    tau = np.pi / w
    cycles = 0.5 * T / tau  # omega T / (2 pi)
    if parity == "even":  # n_right switches right of T/2, mirrored left of it
        n_right = np.maximum(np.ceil(cycles - 0.5), 0.0)
        n_switch, v_first = 2.0 * n_right, 1.0
    else:  # the crossing at T/2 is a switch of its own
        n_right = np.ceil(cycles) - 1.0
        n_switch, v_first = 2.0 * n_right + 1.0, -1.0
    v0 = sign * problem.params.u_max * v_first * (1.0 - 2.0 * (n_right % 2))
    n_mid = np.maximum(n_switch - 1.0, 0.0)
    edge = 0.5 * (T - n_mid * tau)
    v_last = v0 * (1.0 - 2.0 * (n_switch % 2))
    h = 0.5 * problem.params.omega0
    W = np.hypot(h, problem.params.u_max)
    th = W * np.array([edge, tau])
    c, s = np.cos(th), np.sin(th) / W
    q = n_mid % 2 == 1  # Q's duration is tau, else 0
    c = np.array([c[0], c[1], c[1], np.where(q, c[1], 1.0), c[0]])
    s = np.array([s[0], s[1], s[1], np.where(q, s[1], 0.0), s[0]])
    cells = np.empty(c.shape + (2,), dtype=complex)
    np.subtract(c, (1j * h) * s, out=cells[..., 0])
    np.multiply(-1j * s, np.array([v0, -v0, v0, -v0, v_last]), out=cells[..., 1])
    cells[2] = _su2_power(pair_product(cells[1:3]), n_mid // 2)
    return pair_product(cells[[0, 2, 3, 4]])  # E_first, P^m, Q, E_last


# U00 = 0 on either wave is population transfer's rows, (Re U00, Im U00)
_PT_COST = CostSpec("pt")


def _u00_rows(X, problem: GateProblem, parity: str) -> np.ndarray:
    """(Re U00, Im U00) of the square wave at the rows (T, omega) of X, one row each."""
    return _PT_COST.rows(*_square_wave_pairs(X, problem, -1.0, parity).T)


def _frequency_grid(problem: GateProblem, n_scan: int) -> np.ndarray:
    return np.linspace(0.8 * problem.params.omega0, 1.1 * problem.params.big_omega, n_scan)


def optimize_omega_eff(T: float, problem: GateProblem, n_scan: int = 400):
    """Globally minimize the gate cost over the switching frequency at fixed T.

    Dense coarse scan over [0.8 omega0, 1.1 Omega], all frequencies in one
    call, plus golden-section refinement around every basin, for each
    admissible parity; both overall protocol signs are degenerate (checked
    in the tests), so only the canonical +1 sign is scanned.  Returns
    (omega_eff, cost, parity).  No search calls it; the tests use it as the
    oracle that no gate lies below T*.
    """
    ws = _frequency_grid(problem, n_scan)
    best = (np.inf, None, None)
    for parity in problem.parities():
        cs = one_param_cost(ws, T, problem, 1.0, parity)
        w, c = refine_basins(lambda w: one_param_cost(w, T, problem, 1.0, parity), ws, cs)
        if c < best[0]:
            best = (c, w, parity)
    return best[1], best[0], best[2]


def min_gate_time(problem: GateProblem, with_report: bool = True) -> GateSearchResult:
    """Smallest T at which the square-wave protocol completes the gate exactly.

    T is scanned upward from 0.6 T_Rabi in steps of min(0.01 T_Rabi, an
    eighth of the natural period 2 pi/omega0), up to 1.2 T_Rabi.  Each
    admissible parity's root of U00(T, omega) = 0 is the first that
    ``optim.dip_roots`` finds on that parity's wave, over the 400-point
    frequency grid of ``optimize_omega_eff``: it solves the dips of |U00|^2
    by damped Gauss-Newton, each held to its bracket of the scan, widened by
    one step to the right, and to the grid's frequencies, down to |U00|^2 <=
    ``optim.ROOT_TOL``.  A dip whose solve from its vertex does not converge
    is solved again from the vertices of its neighbouring rows.  The scan
    evaluates ``optim.SCAN_ROWS`` T rows per residual call; every row is
    evaluated alone, so the roots are those of one row per call, bit for
    bit.  The second parity (population transfer) scans only up to one step
    past the first parity's root, and the earliest root over the parities
    is T*.
    ``newton_steps`` counts the Gauss-Newton steps of its solve.  The
    optimality report audits the returned protocol at T* with the costate
    of ``pmp.endpoint_costate`` (``pmp.certified_audit``), whose residual
    and multipliers it carries.
    """
    t_rabi = rabi_pi_time(problem.params)
    # at small u_max a dip of the scanned cost is about one natural period
    # wide, and 0.01 T_Rabi is a whole period at u_max = 0.01
    step = min(0.01 * t_rabi, (2.0 * np.pi / problem.params.omega0) / 8.0)
    ts = np.arange(0.6 * t_rabi, 1.2 * t_rabi + 1e-12, step)
    ws = _frequency_grid(problem, 400)

    roots = {}  # parity -> the OptimResult of its first root, x = (T, omega)
    for p in problem.parities():
        if roots:  # scan on while ts[j - 1] is at most one step past the earliest root
            t_first = min(r.x[0] for r in roots.values())
            ts = ts[:np.searchsorted(ts, t_first + step, side="right") + 1]
        root = next(dip_roots(lambda X: _u00_rows(X, problem, p), ts, step, ws), None)
        if root is not None:
            roots[p] = root
    if not roots:
        raise RuntimeError(
            f"no T in [0.6, 1.2] * T_Rabi reaches the gate (|U00|^2 <= {ROOT_TOL})")
    parity = min(roots, key=lambda p: roots[p].x[0])
    t_star, w_opt = (float(v) for v in roots[parity].x)

    # the +/-u* degeneracy lets us return the canonical orientation (middle
    # bang at -u_max), which matches the A > 0 form of the analytical
    # switching function
    cost = one_param_cost(w_opt, t_star, problem, -1.0, parity)
    proto = OneParamBB(omega_eff=w_opt, T=t_star, u_max=problem.params.u_max, sign=-1,
                       parity=parity)
    seq = proto.to_bang_sequence()

    report = None
    if with_report:
        report = pmp.certified_audit(proto, problem.params, problem.cost_spec())
    return GateSearchResult(t_star=t_star, omega_eff=w_opt, parity=parity, sign=-1,
                            n_switch=len(seq.switch_times), ratio=float(t_star / t_rabi),
                            cost=float(cost), residual=roots[parity].fun,
                            newton_steps=roots[parity].n_iter, protocol=proto, report=report)


def asymptotic_ratio_model(u_max: float, kind: str = "x") -> dict:
    """Small-amplitude estimate of T*/T_Rabi from powers of a one-period block.

    The block is a symmetric bang-bang cell over one natural period t0:
    U(t0/4, +u) U(t0/2, -u) U(t0/4, +u) for X (the Y variant uses two half
    periods), which tends to -exp(-2i u_max sigma_x) as u_max -> 0.  The
    smallest power N completing the gate within eps = 1e-3 u_max gives
    ratio = N t0 / T_Rabi -> pi/4.  The N-quantization leaves an O(u_max^2)
    cost residual, so when no power up to 1.5 pi/(4 u_max) + 4 meets eps the
    best N is reported with ``met_threshold`` False.
    """
    params = ModelParams(u_max=u_max)
    t0 = 2.0 * np.pi / params.omega0
    if kind.lower() == "x":
        durs = np.array([t0 / 4.0, t0 / 2.0, t0 / 4.0])
        vals = np.array([u_max, -u_max, u_max])
    else:
        durs = np.array([t0 / 2.0, t0 / 2.0])
        vals = np.array([-u_max, u_max])
    block = pair_product(cell_pairs(durs, vals, params))
    ns = np.arange(1, int(np.ceil(np.pi / (4.0 * u_max) * 1.5)) + 5)
    powers = _su2_power(np.broadcast_to(block, ns.shape + (2,)), ns)
    gaps = CostSpec(kind).gap(powers[:, 0], powers[:, 1])
    hits = np.flatnonzero(gaps <= 1e-3 * u_max)
    met = hits.size > 0
    k = int(hits[0]) if met else int(np.argmin(gaps))
    n = int(ns[k])
    t_rabi = np.pi / u_max
    return {"n_periods": n, "ratio": n * t0 / t_rabi, "cost": float(gaps[k] - 1.0),
            "met_threshold": met, "block": pair_matrix(block)}


def rabi_fidelity_curve(u_values) -> list[tuple[float, float]]:
    """Full-dynamics C_X + 1 = |F|^2 of the resonant Rabi pi-pulse over an amplitude grid."""
    out = []
    for u in np.asarray(u_values, dtype=float):
        params = ModelParams(u_max=float(u))
        a, b = total_pairs([rabi_protocol(params)], params)[0]
        out.append((float(u), float(CostSpec("x").gap(a, b))))
    return out
