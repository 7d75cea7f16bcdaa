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
form.  The minimum gate time is located by scanning T upward, on each
parity's frequency-optimized cost, until the cost dips, then solving for
the root in that dip by Newton's method; the earliest root over the
parities wins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pmp
from .dynamics import (
    TARGET_TOL,
    ModelParams,
    gate_cost,
    ordered_product,
    rabi_pi_time,
    rabi_protocol,
    segment_propagators,
    total_unitary,
)
from .optim import grid_vertex, refine_basins
from .pmp import CostSpec, OptimalityReport
from .protocols import OneParamBB

__all__ = [
    "GateProblem",
    "GateSearchResult",
    "one_param_protocol",
    "one_param_cost",
    "optimize_omega_eff",
    "min_gate_time",
    "asymptotic_ratio_model",
    "rabi_fidelity_curve",
]

# a root of U00(T, omega) is accepted when |U00|^2 is at most this
ROOT_TOL = 1e-20
# Newton steps on one dip before the T scan moves on
_NEWTON_MAX_STEPS = 12
# central-difference step of the Newton Jacobian, relative to T and omega
_NEWTON_REL_STEP = 1e-6


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


def one_param_protocol(omega_eff: float, T: float, problem: GateProblem,
                       sign: int = 1, parity: str | None = None) -> OneParamBB:
    """The signed square-wave protocol at a given switching frequency."""
    if parity is None:
        parity = problem.parities()[0]
    return OneParamBB(omega_eff=omega_eff, T=T, u_max=problem.params.u_max,
                      sign=sign, parity=parity)


def one_param_cost(omega_eff, T: float, problem: GateProblem,
                   sign: float = 1.0, parity: str = "even"):
    """Gate cost of the square-wave protocol, from the power of its period.

    ``omega_eff`` may be a 1-D array of frequencies, giving one cost each;
    every cost has the bits of the single-frequency call.
    """
    return gate_cost(_square_wave_unitary(omega_eff, T, problem, sign, parity), problem.kind)


def _su2_power(P: np.ndarray, m) -> np.ndarray:
    """P^m for SU(2) matrices P (..., 2, 2) and integer powers m >= 0 (...).

    The eigenvalues of P are exp(+-i a), with cos a = Re P00 and
    sin a = sqrt((Im P00)^2 + |P10|^2), so by Cayley-Hamilton (Chebyshev
    polynomials of the second kind)

        P^m = [sin(m a)/sin a] P - [sin((m-1) a)/sin a] 1.

    a is taken by atan2, which stays accurate where P is close to -1, the
    resonant period at small u_max.
    """
    a, b = P[..., 0, 0], P[..., 1, 0]
    sin_a = np.sqrt(a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    alpha = np.arctan2(sin_a, a.real)
    out = (np.sin(m * alpha) / sin_a)[..., None, None] * P
    c0 = np.sin((m - 1) * alpha) / sin_a
    out[..., 0, 0] -= c0
    out[..., 1, 1] -= c0
    return out


def _square_wave_unitary(omega_eff, T: float, problem: GateProblem, sign: float, parity: str):
    """Propagator of ``square_wave``'s protocol as U = E_last Q P^m E_first.

    With tau = pi/omega the switches sit at (k + 1/2) tau (even) or k tau
    (odd) from T/2, strictly inside (0, T).  For n switches the wave is an
    edge bang of length e = (T - (n - 1) tau)/2 and value v0, n - 1 middle
    bangs of length tau alternating from -v0, and an edge bang of length e
    and value v0 (-1)^n.  So the middle bangs are m = (n - 1) // 2 periods
    P = U(tau, v0) U(tau, -v0), followed by Q = U(tau, -v0) when n - 1 is
    odd.  A single frequency is evaluated as a one-element array, so it has
    the bits of the same frequency in a batch.
    """
    w = np.asarray(omega_eff, dtype=float)
    tau = np.pi / w.reshape(-1)
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
    cells = segment_propagators(np.array([edge, tau, tau, (n_mid % 2) * tau, edge]),
                                np.array([v0, -v0, v0, -v0, v_last]), problem.params)
    cells[2] = _su2_power(ordered_product(cells[1:3]), n_mid // 2)
    U = ordered_product(cells[[0, 2, 3, 4]])  # E_first, P^m, Q, E_last
    return U.reshape(w.shape + (2, 2))


def _frequency_grid(problem: GateProblem, n_scan: int) -> np.ndarray:
    return np.linspace(0.8 * problem.params.omega0, 1.1 * problem.params.big_omega, n_scan)


def optimize_omega_eff(T: float, problem: GateProblem, n_scan: int = 400):
    """Globally minimize the gate cost over the switching frequency at fixed T.

    Dense coarse scan over [0.8 omega0, 1.1 Omega], all frequencies in one
    call, plus golden-section refinement around every basin, for each
    admissible parity; both overall protocol signs are degenerate (checked
    in the tests), so only the canonical +1 sign is scanned.  Returns
    (omega_eff, cost, parity).
    """
    ws = _frequency_grid(problem, n_scan)
    best = (np.inf, None, None)
    for parity in problem.parities():
        cs = one_param_cost(ws, T, problem, 1.0, parity)
        w, c = refine_basins(lambda w: one_param_cost(w, T, problem, 1.0, parity), ws, cs)
        if c < best[0]:
            best = (c, w, parity)
    return best[1], best[0], best[2]


def _newton_root(T0: float, w0: float, problem: GateProblem, parity: str,
                 t_bracket: tuple[float, float], w_bracket: tuple[float, float]):
    """Newton's method on (Re U00, Im U00) in (T, omega), from (T0, w0).

    The Jacobian is taken by central differences, on the wave of the
    returned orientation (sign -1).  Once |U00|^2 <= ROOT_TOL at a T inside
    ``t_bracket``, one more step is taken and kept if its |U00|^2 is no
    larger and it stays inside both brackets: the tolerance alone fixes T
    only to about |U00| / |dU00/dT|, so its last digits would depend on the
    start point.  Returns (T, omega, |U00|^2, steps), or None when an
    iterate leaves T > 0 or the omega bracket, the Jacobian is singular, the
    steps run out or the root lies outside ``t_bracket``.  Only the root is
    held to ``t_bracket``: a first step from a dip may overshoot it and
    still converge back.
    """
    def f(x):
        u00 = _square_wave_unitary(x[1], x[0], problem, -1.0, parity)[0, 0]
        return np.array([u00.real, u00.imag])

    x = np.array([T0, w0])
    root = None  # the first iterate within ROOT_TOL
    for steps in range(_NEWTON_MAX_STEPS + 2):
        F = f(x)
        r = float(F @ F)
        if root is not None:  # the one step past the tolerance
            if r <= root[2] and t_bracket[0] <= x[0] <= t_bracket[1]:
                return float(x[0]), float(x[1]), r, steps
            return root
        if r <= ROOT_TOL:
            if not t_bracket[0] <= x[0] <= t_bracket[1]:
                return None
            root = (float(x[0]), float(x[1]), r, steps)
        elif steps == _NEWTON_MAX_STEPS:
            break
        J = np.column_stack([(f(x + d) - f(x - d)) / (2.0 * d[j])
                             for j, d in enumerate(np.diag(_NEWTON_REL_STEP * x))])
        try:
            x = x - np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        if not (x[0] > 0.0 and w_bracket[0] <= x[1] <= w_bracket[1]):
            break
    return root


def min_gate_time(problem: GateProblem, with_report: bool = True) -> GateSearchResult:
    """Smallest T at which the square-wave protocol completes the gate exactly.

    T is scanned upward from 0.6 T_Rabi in steps of min(0.01 T_Rabi, an
    eighth of the natural period 2 pi/omega0).  Each admissible parity has
    its own cost profile: at each T, the vertex (cost, omega) of the
    parabola through the best point of the 400-point frequency grid of
    ``optimize_omega_eff`` and its two neighbours.  At each local minimum
    of a profile, in increasing T, Newton's method solves U00(T, omega) = 0
    from the dip's vertex; the first root inside the dip's bracket of the
    scan, widened by one step to the right, with |U00|^2 <= ROOT_TOL, is
    that parity's root.  Once a root is found the other parity scans on
    while its dip candidate lies at most one step past it, and the earliest
    root over the parities is T*.
    The scan stops at 1.2 T_Rabi.  The optimality report is produced at
    0.999 T*, where lambda0 is small but nonzero.
    """
    t_rabi = rabi_pi_time(problem.params)
    # at small u_max a dip of the scanned cost is about one natural period
    # wide, and 0.01 T_Rabi is a whole period at u_max = 0.01
    step = min(0.01 * t_rabi, (2.0 * np.pi / problem.params.omega0) / 8.0)
    ts = np.arange(0.6 * t_rabi, 1.2 * t_rabi + 1e-12, step)
    ws = _frequency_grid(problem, 400)

    profiles = {p: [] for p in problem.parities()}  # (cost, omega) at each scanned T
    roots = {}  # parity -> (T, omega, |U00|^2, Newton steps)
    for j, T in enumerate(ts):
        if len(roots) == len(profiles) or (
                roots and ts[j - 1] > min(r[0] for r in roots.values()) + step):
            break
        for p, prof in profiles.items():
            if p in roots:
                continue
            prof.append(grid_vertex(one_param_cost(ws, T, problem, 1.0, p), ws))
            if j == 0 and prof[0][0] <= -1.0 + TARGET_TOL:
                raise RuntimeError("gate already complete at 0.6 T_Rabi, the scan start")
            if j >= 2 and prof[j - 2][0] >= prof[j - 1][0] <= prof[j][0]:
                root = _newton_root(ts[j - 1], prof[j - 1][1], problem, p,
                                    (ts[j - 2], T + step), (ws[0], ws[-1]))
                if root is not None:
                    roots[p] = root
    if not roots:
        raise RuntimeError(
            f"no T in [0.6, 1.2] * T_Rabi reaches the gate (|U00|^2 <= {ROOT_TOL})")
    parity = min(roots, key=lambda p: roots[p][0])
    t_star, w_opt, residual, newton_steps = roots[parity]

    # the +/-u* degeneracy lets us return the canonical orientation (middle
    # bang at -u_max), which matches the A > 0 form of the analytical
    # switching function
    cost = one_param_cost(w_opt, t_star, problem, -1.0, parity)
    proto = one_param_protocol(w_opt, t_star, problem, sign=-1, parity=parity)
    n_switch = len(proto.to_bang_sequence().switch_times)

    report = None
    if with_report:
        T_r = 0.999 * t_star
        w_r, _, parity_r = optimize_omega_eff(T_r, problem)
        proto_r = one_param_protocol(w_r, T_r, problem, sign=-1, parity=parity_r)
        report = pmp.audit(proto_r, problem.params, problem.cost_spec())
    return GateSearchResult(t_star=t_star, omega_eff=w_opt, parity=parity, sign=-1,
                            n_switch=int(n_switch), ratio=float(t_star / t_rabi),
                            cost=float(cost), residual=residual,
                            newton_steps=int(newton_steps), protocol=proto, report=report)


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
    block = ordered_product(segment_propagators(durs, vals, params))
    ns = np.arange(1, int(np.ceil(np.pi / (4.0 * u_max) * 1.5)) + 5)
    costs = gate_cost(_su2_power(np.broadcast_to(block, ns.shape + (2, 2)), ns), kind)
    hits = np.flatnonzero(costs + 1.0 <= 1e-3 * u_max)
    met = hits.size > 0
    k = int(hits[0]) if met else int(np.argmin(costs))
    n = int(ns[k])
    t_rabi = np.pi / u_max
    return {"n_periods": n, "ratio": n * t0 / t_rabi, "cost": float(costs[k]),
            "met_threshold": met, "block": block}


def rabi_fidelity_curve(u_values) -> list[tuple[float, float]]:
    """Full-dynamics C_X + 1 of the resonant Rabi pi-pulse over an amplitude grid."""
    out = []
    for u in np.asarray(u_values, dtype=float):
        params = ModelParams(u_max=float(u))
        U = total_unitary(rabi_protocol(params), params)
        out.append((float(u), float(gate_cost(U, "x") + 1.0)))
    return out
