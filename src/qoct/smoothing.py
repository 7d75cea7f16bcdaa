"""Fidelity-preserving smoothing of bang-bang gate protocols.

Three schemes, all meaningful only for T above the bang-bang minimum time:

* tanh: replace each step by tanh(beta (t - t_i)) and solve for the
  (mirrored) switching times of a perfect gate;
* third harmonic: a two-harmonic cosine pulse with mixing ratio R in
  [-1/8, 1], whose R = 0 member at omega0 is the resonant Rabi pulse; at
  fixed T a perfect gate is a root in (omega, R), and the earliest one is a
  root in (T, omega) on the face R = -1/8;
* constrained smoothing: on a free piecewise-constant grid, alternate a
  descent step on a smoothness objective with a projection back onto the
  perfect-gate set, by Gauss-Newton on the gate's two or three real
  equations with the amplitude bound kept as an active set.

A discrete Fourier diagnostic of the odd-harmonic structure rounds out the
module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim, pmp
from .dynamics import (
    TARGET_TOL,
    ModelParams,
    rabi_pi_time,
    total_pairs,
)
from .pmp import CostSpec
from .protocols import (
    BangSequence,
    OneParamBB,
    Protocol,
    Sampled,
    TanhProtocol,
    ThirdHarmonic,
    mirrored_tanh_times,
    segment_durations_values,
)
from .xgate import GateProblem, min_gate_time

__all__ = [
    "SmoothingRun",
    "tanh_protocol",
    "optimize_tanh",
    "resonance_pairs",
    "min_tanh_time",
    "optimize_third_harmonic",
    "min_third_harmonic_time",
    "smoothness_cost",
    "smoothness_gradient",
    "power_cost",
    "power_gradient",
    "project_to_gate",
    "constrained_smooth_optimize",
    "fourier_spectrum",
]

@dataclass
class SmoothingRun:
    scheme: str  # 'tanh' | 'third' | 'constrained'
    T: float
    params: ModelParams
    protocol: Protocol
    cost_plus_1: float  # C + 1 = |F|^2 of the protocol (``CostSpec.gap``)
    # the optimizer converged and, for tanh and third, C + 1 <= TARGET_TOL;
    # for the third harmonic's minimum time also dT/dR > 0 at its face root
    converged: bool
    extras: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)  # (iter, c_smooth, c_gate_plus_1)


def tanh_protocol(times, beta: float, T: float, params: ModelParams) -> TanhProtocol:
    """Smoothed bang-bang waveform from the first half of the switching times.

    Only the first N times are free; the rest are fixed by the mirror
    t_i = T - t_(2N+1-i), which keeps u even about T/2.
    """
    return TanhProtocol(u_max=params.u_max, T=T, beta=beta,
                        times=mirrored_tanh_times(times, T))


# The tanh and third-harmonic pulses are even about T/2, so their U10 is
# imaginary and C_X + 1 = |U00|^2: a perfect X gate is a root of the two real
# equations F = (Re U00, Im U00), which their fixed-T and minimum-time solves
# find with the tolerance, step budget and difference step of ``optim``'s
# roots.  Those are population transfer's rows.


def _u00_rows(protocols, params: ModelParams) -> np.ndarray:
    """(Re U00, Im U00) of each protocol, one row each, from one batched propagation."""
    return CostSpec("pt").rows(*total_pairs(protocols, params).T)


def _free_tanh_times(x, T: float) -> np.ndarray:
    """Free switching times repaired, not penalized, into (0, T/2).

    They are sorted, clipped and then spaced at least 1e-12 T apart, so that
    the mirrored times T - t stay distinct floats and all 2N times strictly
    increase.  Times already that far apart pass unchanged.
    """
    hi = 0.5 * T * (1.0 - 1e-12)
    gap = 1e-12 * T
    t = np.sort(np.clip(np.asarray(x, dtype=float), 1e-9, hi))
    for i in range(1, len(t)):
        t[i] = max(t[i], t[i - 1] + gap)
    return np.minimum(t, hi - gap * np.arange(len(t) - 1, -1, -1))


def _tanh_seed(n_pairs: int, T: float, params: ModelParams) -> np.ndarray:
    """Resonant-structure guess: equal middle bangs of ~pi/omega0."""
    tbar = np.pi / params.omega0
    t0 = 0.5 * (T - (2 * n_pairs - 1) * tbar)
    if t0 <= 0:
        tbar = T / (2 * n_pairs + 0.5)
        t0 = tbar / 4.0
    first = t0 + tbar * np.arange(n_pairs)
    return np.clip(first, 1e-6 * T, T / 2.0 - 1e-6 * T)


def optimize_tanh(n_pairs: int, beta: float, T: float, problem: GateProblem,
                  x0=None) -> SmoothingRun:
    """Solve for a perfect X gate in the N free tanh switching times at fixed T.

    Damped Gauss-Newton on F = (Re U00, Im U00), one lane of
    ``optim.gauss_newton``, from ``x0``, or from equal middle bangs of about
    pi/omega0; every iterate's times are repaired by ``_free_tanh_times``.
    ``extras`` holds the solve's |U00|^2 (``residual``), step count
    (``solver_steps``) and ``optim.OptimResult`` status (``solver_status``);
    ``converged`` means the solve reached |U00|^2 <= 1e-20 and C + 1 <=
    TARGET_TOL.  The number of switchings 2N should follow the resonance
    estimate of ``resonance_pairs``, which the scan and the command line use.
    """
    params = problem.params

    def repair(X, lanes):
        return np.array([_free_tanh_times(x, T) for x in X])

    def f_rows(X, lanes):
        return _u00_rows([tanh_protocol(_free_tanh_times(x, T), beta, T, params) for x in X],
                         params)

    start = x0 if x0 is not None else _tanh_seed(n_pairs, T, params)
    (r,) = optim.gauss_newton(f_rows, [start], repair)
    proto = tanh_protocol(r.x, beta, T, params)
    cost1 = float(problem.cost_spec().gap(*total_pairs([proto], params)[0]))
    return SmoothingRun(scheme="tanh", T=T, params=params, protocol=proto,
                        cost_plus_1=cost1,
                        converged=r.status == "converged" and cost1 <= TARGET_TOL,
                        extras={"beta": beta, "times": tuple(float(t) for t in r.x),
                                "n_pairs": n_pairs, "residual": r.fun,
                                "solver_steps": r.n_iter, "solver_status": r.status})


def resonance_pairs(T: float, params: ModelParams) -> int:
    """Resonance count of tanh edge pairs at T: N = round(T omega0 / (2 pi)), at least 2.

    Middle bangs of about pi/omega0 fit about this many pairs into T.
    """
    return max(2, round(T / np.pi * params.omega0 / 2.0))


def min_tanh_time(problem: GateProblem, beta: float = 4.0) -> tuple[float, SmoothingRun]:
    """Smallest T with a perfect tanh gate, scanning [0.78, 1.05] T_Rabi upward.

    Each scan point runs ``optimize_tanh`` at the resonance count
    ``resonance_pairs``, warm-started from the previous point's free times
    while the count is unchanged and cold after it steps.  The first point
    in steps of 0.01 T_Rabi whose solve converges is returned, so the
    measurement resolution is 0.01 T_Rabi.
    """
    t_rabi = rabi_pi_time(problem.params)
    prev = None
    for frac in np.arange(0.78, 1.05 + 1e-12, 0.01):
        T = frac * t_rabi
        n = resonance_pairs(T, problem.params)
        x0 = None
        if prev is not None and prev.extras["n_pairs"] == n:
            x0 = np.clip(prev.extras["times"], 1e-9, T / 2 * (1 - 1e-9))
        prev = optimize_tanh(n, beta, T, problem, x0=x0)
        if prev.converged:
            return T, prev
    raise RuntimeError("tanh scheme did not reach the gate fidelity in the scan range")


# the face R = -1/8 of the third-harmonic pulse, where its earliest perfect
# gate lies, and the frequency grid of the face scan, in units of omega0
_R_FACE = -0.125
_FACE_GRID = np.linspace(0.96, 1.04, 17)


def _third_rows(X, params: ModelParams) -> np.ndarray:
    """F = (Re U00, Im U00) of the two-harmonic pulses (T, omega, R) in the rows of X."""
    return _u00_rows([ThirdHarmonic(params.u_max, *x) for x in X], params)


def _face_rows(X, params: ModelParams) -> np.ndarray:
    """``_third_rows`` of the pulses (T, omega) on the face R = -1/8 in the rows of X."""
    return _third_rows(np.column_stack([X, np.full(len(X), _R_FACE)]), params)


def optimize_third_harmonic(T: float, problem: GateProblem) -> SmoothingRun:
    """Solve for a perfect X gate in frequency and third-harmonic mixing ratio at fixed T.

    Damped Gauss-Newton on F = (Re U00, Im U00) in (omega, R), one lane of
    ``optim.gauss_newton`` through ``optim.box_root`` and its one extra
    step, from (omega0, -1/8) on the face where the earliest gate lies.
    Every iterate is clipped into
    omega in [3/4, 5/4] omega0 and R in [-1/8, 1 - ``optim.FD_STEP``], so
    that the forward-difference neighbour of R stays a ratio ``ThirdHarmonic``
    admits.  ``extras`` holds the solve's |U00|^2 (``residual``), step
    count (``solver_steps``) and ``optim.OptimResult`` status
    (``solver_status``); ``converged`` means the solve reached
    |U00|^2 <= 1e-20 and C + 1 <= TARGET_TOL.  Below the face root's T
    there is no gate and the solve stalls: the returned pulse is where it
    stopped, not the family's closest gate, and ``solver_status`` says so.
    """
    params = problem.params
    w0 = params.omega0
    r = optim.box_root(lambda X: _third_rows(np.column_stack([np.full(len(X), T), X]), params),
                       [w0, _R_FACE], [0.75 * w0, _R_FACE], [1.25 * w0, 1.0 - optim.FD_STEP])
    w, R = (float(v) for v in r.x)
    proto = ThirdHarmonic(u_max=params.u_max, T=T, omega=w, ratio=R)
    cost1 = float(problem.cost_spec().gap(*total_pairs([proto], params)[0]))
    return SmoothingRun(scheme="third", T=T, params=params, protocol=proto,
                        cost_plus_1=cost1,
                        converged=r.status == "converged" and cost1 <= TARGET_TOL,
                        extras={"omega": w, "ratio": R, "residual": r.fun,
                                "solver_steps": r.n_iter, "solver_status": r.status})


def _face_slope(T: float, w: float, params: ModelParams) -> float:
    """dT/dR along the perfect-gate curve F(T, omega, R) = 0 at a face root.

    By the implicit-function theorem d(T, omega)/dR = -J^-1 dF/dR, with J
    the 2x2 Jacobian in (T, omega); the 2x3 Jacobian in (T, omega, R) is
    the root engine's forward difference (``optim._fd_rows``, R stepping
    into the box), from one batched call.  dT/dR > 0 says that moving off
    the face into R > -1/8 costs time, so the face root is a local minimum
    of T over the pulse family.  NaN when J is singular.
    """
    _, (D,), _ = optim._fd_rows(lambda X, lanes: _third_rows(X, params),
                                np.array([[T, w, _R_FACE]]), np.zeros(1, dtype=int))
    try:
        return float(np.linalg.solve(D[:, :2], -D[:, 2])[0])
    except np.linalg.LinAlgError:
        return math.nan


def min_third_harmonic_time(problem: GateProblem) -> tuple[float, SmoothingRun]:
    """Earliest perfect X gate of the two-harmonic pulse, a root on the face R = -1/8.

    The first root of U00(T, omega) = 0 that ``optim.dip_roots`` finds
    scanning T upward over [0.84, 1.02] T_Rabi in steps of 0.005 T_Rabi,
    ``optim.SCAN_ROWS`` times per batched propagation, over a 17-point
    frequency grid over omega0 [0.96, 1.04] at R = -1/8.  Each dip of |U00|^2 is solved by
    damped Gauss-Newton in (T, omega), held to the dip's bracket of the scan,
    widened by one step to the right, and to the grid's frequencies, so the
    root has the precision of the solve rather than of the grid.  ``extras``
    holds its |U00|^2 (``residual``), the Gauss-Newton steps
    (``solver_steps``) and dT/dR along the perfect-gate curve (``dT_dR``,
    ``_face_slope``); ``converged`` means C + 1 <= TARGET_TOL and dT/dR > 0.
    Raises RuntimeError when no dip of the scan holds a root.
    """
    params = problem.params
    t_rabi = rabi_pi_time(params)
    ts = np.arange(0.84, 1.02 + 1e-12, 0.005) * t_rabi
    root = next(optim.dip_roots(lambda X: _face_rows(X, params), ts, 0.005 * t_rabi,
                                params.omega0 * _FACE_GRID), None)
    if root is None:
        raise RuntimeError(
            "third-harmonic scheme did not reach the gate fidelity in the scan range")
    T, w = (float(v) for v in root.x)
    slope = _face_slope(T, w, params)
    proto = ThirdHarmonic(u_max=params.u_max, T=T, omega=w, ratio=_R_FACE)
    cost1 = float(problem.cost_spec().gap(*total_pairs([proto], params)[0]))
    return T, SmoothingRun(scheme="third", T=T, params=params, protocol=proto,
                           cost_plus_1=cost1, converged=cost1 <= TARGET_TOL and slope > 0.0,
                           extras={"omega": w, "ratio": _R_FACE, "residual": root.fun,
                                   "solver_steps": root.n_iter, "dT_dR": slope})


def smoothness_cost(protocol: Sampled) -> float:
    """C_smooth = 1/2 int(u_dot^2) dt by first differences on the cell grid."""
    u = protocol.values
    if u.size < 3:
        raise ValueError("need at least three cells")
    return float(0.5 * np.sum(np.diff(u) ** 2) / protocol.dt)


def smoothness_gradient(protocol: Sampled) -> np.ndarray:
    """Gradient -u_ddot * dt with Neumann ends u_dot(0) = u_dot(T) = 0."""
    u = protocol.values
    if u.size < 3:
        raise ValueError("need at least three cells")
    g = np.empty_like(u)
    g[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / protocol.dt
    g[0] = -(u[1] - u[0]) / protocol.dt
    g[-1] = (u[-1] - u[-2]) / protocol.dt
    return g


def power_cost(protocol: Sampled) -> float:
    """C_power = 1/2 int(u^2) dt."""
    return float(0.5 * np.sum(protocol.values ** 2) * protocol.dt)


def power_gradient(protocol: Sampled) -> np.ndarray:
    return protocol.values * protocol.dt


_OBJECTIVES = {
    "smooth": (smoothness_cost, smoothness_gradient),
    "power": (power_cost, power_gradient),
}


def _objective_funcs(objective):
    if isinstance(objective, str) and objective.startswith("mixed:"):
        w = float(objective.split(":", 1)[1])
        if not math.isfinite(w):
            raise ValueError(f"mixed objective weight must be finite, got {w!r}")

        def cost(p):
            return smoothness_cost(p) + w * power_cost(p)

        def grad(p):
            return smoothness_gradient(p) + w * power_gradient(p)

        return cost, grad
    try:
        return _OBJECTIVES[objective]
    except KeyError:
        raise ValueError(f"unknown smoothing objective {objective!r}") from None


def project_to_gate(values: np.ndarray, T: float, problem: GateProblem,
                    tol: float = 1e-10, max_iter: int = 5000):
    """Project a sampled control onto the perfect-gate set C = -1 in the box |u| <= u_max.

    Active-set Gauss-Newton on the gate's two or three real equations
    F(u) = 0 (``CostSpec.rows``; C + 1 = |F|^2).  Each step takes the
    minimum-norm step -J_f^+ F on the free cells, drops the cells at
    +/-u_max that this step would push out of the box and solves again, and
    clips the result into the box.  The minimum-norm step is the first-order
    nearest point of the constraint set (Rosen, J. SIAM 9, 514 (1961);
    Nocedal & Wright, Numerical Optimization, ch. 15), and it is taken from
    the 2x2 or 3x3 Gram matrix of the free columns (``_active_set_step``),
    not from an SVD of the m x n Jacobian.  Each iterate is
    propagated once (``pmp.unitary_and_jacobian``): C + 1 = |F|^2 comes
    from the prefix scan's up-sweep through ``CostSpec.gap``, and the
    down-sweep and the Jacobian only while |F|^2 > ``tol``.  The stop test,
    the stall test and the returned ``fun`` all read |F|^2, as
    ``optim.gauss_newton``'s ``fun`` does.  Raises RuntimeError when a step
    does not lower |F|^2, as below the bang-bang minimum T*, when no cell is
    left free, or when ``max_iter`` steps do not reach ``tol``.  ``n_eval``
    of the returned result counts the evaluations of |F|^2.
    """
    params = problem.params
    u_max = params.u_max
    cost = problem.cost_spec()
    u = np.clip(np.asarray(values, dtype=float), -u_max, u_max)
    best = np.inf
    for n_eval in range(1, max_iter + 2):
        proto = Sampled(T, u_max, u)
        U, jacobian = pmp.unitary_and_jacobian(proto, params, cost)
        gap = float(cost.gap(U[0, 0], U[1, 0]))
        if gap <= tol:
            return proto, optim.OptimResult(x=u, fun=gap, status="converged", n_eval=n_eval)
        if gap >= best or n_eval > max_iter:
            break
        best = gap
        step = _active_set_step(u, cost.rows(U[0, 0], U[1, 0]), jacobian(), u_max)
        if step is None:
            break
        u = np.clip(u + step, -u_max, u_max)
    raise RuntimeError(
        f"projection onto the perfect-gate set stalled at C+1 = {gap:.3e}; "
        "the evolution time is probably below the bang-bang minimum T*")


def _active_set_step(u: np.ndarray, F: np.ndarray, J: np.ndarray, u_max: float):
    """Minimum-norm solution of J du = -F on the cells free to move, or None if none is.

    With J_f the Jacobian (m, n) with the fixed cells' columns zeroed, the
    step is -J_f^T G^+ F from the m x m Gram matrix G = J_f J_f^T, since
    J_f^+ = J_f^T (J_f J_f^T)^+.  G^+ comes from ``np.linalg.eigh``, keeping
    at most min(m, free cells) eigenvalues, and of those only the ones above
    m eps lambda_max.  G squares the condition number of J_f, so the step
    agrees with an SVD's minimum-norm step to rounding only while cond(J_f)
    stays below about 1e7; a numerically singular J_f loses its smallest
    direction here, where the SVD would step along it.

    A cell at +/-u_max is held fixed once the step would push it out of the
    box; the step is solved again on the remaining cells until no cell at a
    bound points outward.
    """
    m = len(F)
    free = np.ones(u.size, dtype=bool)
    while n_free := np.count_nonzero(free):
        Jf = J * free
        w, V = np.linalg.eigh(Jf @ Jf.T)
        keep = w > m * np.finfo(float).eps * w[-1]
        keep[:m - min(m, n_free)] = False  # eigh sorts w ascending
        Vk = V[:, keep]
        step = (Vk @ ((Vk.T @ -F) / w[keep])) @ Jf
        leaving = ((u >= u_max) & (step > 0.0)) | ((u <= -u_max) & (step < 0.0))
        if not leaving.any():
            return step
        free &= ~leaving
    return None


def _initial_control(initial, T: float, n_t: int, problem: GateProblem) -> np.ndarray:
    params = problem.params
    mids = (np.arange(n_t) + 0.5) * (T / n_t)
    if isinstance(initial, np.ndarray):
        if initial.size != n_t:
            raise ValueError("initial control array must have n_t entries")
        return np.clip(np.asarray(initial, dtype=float), -params.u_max, params.u_max)
    if initial in (None, "bb"):
        # time-optimal bang-bang pulse, time-rescaled onto [0, T]
        res = min_gate_time(problem, with_report=False)
        return np.asarray(res.protocol.u(mids * (res.t_star / T)), dtype=float)
    if initial == "rabi":
        # the resonant cosine: the two-harmonic pulse at omega0 with R = 0
        initial = ThirdHarmonic(params.u_max, T, params.omega0, 0.0)
    if hasattr(initial, "u"):
        return np.clip(np.asarray(initial.u(mids), dtype=float),
                       -params.u_max, params.u_max)
    raise ValueError(f"unsupported initial control {initial!r}")


def constrained_smooth_optimize(T: float, problem: GateProblem, n_t: int = 1000,
                                initial="bb", objective="smooth",
                                max_outer: int = 400) -> SmoothingRun:
    """Minimize a smoothness objective subject to a perfect gate and |u| <= u_max.

    Alternates (a) projection onto C = -1 (``project_to_gate``, active-set
    Gauss-Newton to C + 1 <= 1e-10), and (b) a descent step on the objective
    scaled so its largest component is ``du_cap`` (u_max/5 initially), until
    consecutive projected iterates differ by at most u_max/4000 everywhere.
    A fixed u_max/5 kick re-injects structure faster than the projection
    removes it, so the kick is halved whenever the objective stagnates, and
    every 50 iterations, down to u_max/8000, which lets the iteration settle
    and reach the stopping tolerance.  The returned control is the projected
    (constraint-satisfying) iterate.  ``extras`` counts the outer iterations
    (``n_outer``) and the Gauss-Newton steps of all projections
    (``projection_steps``).  The smoothness cost needs ``n_t`` >= 3 cells;
    fewer raise ValueError.
    """
    if n_t < 3:
        raise ValueError(f"n_t must be at least 3 cells, got {n_t}")
    params = problem.params
    du_cap = params.u_max / 5.0
    obj_cost, obj_grad = _objective_funcs(objective)

    u_tilde = _initial_control(initial, T, n_t, problem)
    trace = []
    prev = None
    proto = None
    converged = False
    best_obj = np.inf
    stall = 0
    cap_floor = params.u_max / 8000.0
    steps = 0
    for it in range(max_outer):
        proto, proj = project_to_gate(u_tilde, T, problem)
        steps += proj.n_eval - 1  # every evaluation but the last is followed by a step
        u_n = proto.values
        c_obj = obj_cost(proto)
        trace.append((it, c_obj, proj.fun))  # the projection's own C + 1 at its control
        if prev is not None and float(np.max(np.abs(u_n - prev))) <= params.u_max / 4000.0:
            converged = True
            break
        # shrink the kick when the objective stalls, and on a slow fixed
        # schedule so the stopping tolerance is eventually reachable
        if c_obj < best_obj - 1e-12:
            best_obj, stall = c_obj, 0
        else:
            stall += 1
        if (stall >= 3 or (it + 1) % 50 == 0) and du_cap > cap_floor:
            du_cap = max(0.5 * du_cap, cap_floor)
            stall = 0
        prev = u_n
        g = obj_grad(proto)
        gmax = float(np.max(np.abs(g)))
        step = 0.0 if gmax == 0.0 else du_cap / gmax
        u_tilde = np.clip(u_n - step * g, -params.u_max, params.u_max)
    return SmoothingRun(scheme="constrained", T=T, params=params, protocol=proto,
                        cost_plus_1=trace[-1][2], converged=converged,
                        extras={"objective": objective, "n_t": n_t,
                                "c_smooth": trace[-1][1], "n_outer": len(trace),
                                "projection_steps": steps, "final_du_cap": du_cap},
                        trace=trace)


def fourier_spectrum(protocol: Protocol, n_max: int = 40):
    """Normalized pulse spectrum u~(f_n) = int u/u_max e^(-2 pi i f_n t) dt, f_n = n/T.

    Integrates every piecewise-constant cell in closed form, so bang
    protocols are exact and smooth protocols use their midpoint samples.
    Bang protocols (``BangSequence``, ``OneParamBB``) sum the cell integrals
    with one exponential per edge.  On the uniform grid of ``Sampled`` and
    the smooth protocols, with N cells of width dt = T/N, edge k's
    exponential is the DFT kernel e^(-2 pi i n k / N), so line n is
    (1 - e^(-i w_n dt)) / (i w_n) times one FFT of the cell values at
    n mod N: lines n >= N are DFT aliases.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    durs, vals = segment_durations_values(protocol)
    T = protocol.T
    edges = np.concatenate([[0.0], np.cumsum(durs)])
    edges[-1] = T
    rel = vals / protocol.u_max
    n = np.arange(n_max + 1)
    freqs = n / T
    omega = 2.0 * np.pi * freqs
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = np.sum(rel * (edges[1:] - edges[:-1]))
    if isinstance(protocol, (BangSequence, OneParamBB)):
        w = omega[1:, None]
        # one exponential per edge, shared by the two cells that meet there
        E = np.exp(-1j * w * edges[None, :])
        amps[1:] = ((E[:, :-1] - E[:, 1:]) / (1j * w)) @ rel
    else:
        w = omega[1:]
        dt = T / rel.size
        amps[1:] = (1.0 - np.exp(-1j * w * dt)) / (1j * w) * np.fft.fft(rel)[n[1:] % rel.size]
    return freqs, amps
