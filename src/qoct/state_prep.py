"""Time-optimal state preparation: structure enumeration, T* scan, u_c search.

Candidate protocol structures are multi-bang sequences (BB-k, k switchings
between +/-u_max) and bang-singular-bang (BSB), whose singular segment must
ride the Bloch equator with u = 0.  The search scans the evolution time
upward per structure until the terminal cost reaches -1, refines by
bisection, and picks the structure with the smallest T*, breaking ties
toward fewer switchings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim, pmp
from .dynamics import (
    TARGET_TOL,
    BlochPoint,
    ModelParams,
    ordered_product,
    segment_propagators,
    state_from_bloch,
    state_prep_cost,
)
from .pmp import CostSpec, OptimalityReport
from .protocols import BangSequence

__all__ = [
    "StatePrepProblem",
    "StructureLabel",
    "SearchResult",
    "cost_of_switchings",
    "optimize_structure",
    "bsb_candidates",
    "best_bsb",
    "find_time_optimal",
    "critical_amplitude",
]


@dataclass(frozen=True)
class StatePrepProblem:
    init: BlochPoint
    target: BlochPoint
    params: ModelParams

    def states(self) -> tuple[np.ndarray, np.ndarray]:
        return state_from_bloch(self.init), state_from_bloch(self.target)

    def cost_spec(self) -> CostSpec:
        psi_i, psi_t = self.states()
        return CostSpec("sp", init=psi_i, target=psi_t)


@dataclass(frozen=True)
class StructureLabel:
    """Protocol structure: 'bb' with n_switch switchings, or 'bsb'."""

    kind: str  # 'bb' | 'bsb'
    n_switch: int
    lead_sign: int = 1

    def __post_init__(self):
        if self.kind not in ("bb", "bsb"):
            raise ValueError("kind must be 'bb' or 'bsb'")
        if self.kind == "bsb" and self.n_switch != 2:
            raise ValueError("bsb has exactly two switchings")
        if self.kind == "bb" and self.n_switch < 0:
            raise ValueError("switching count must be nonnegative")
        if self.lead_sign not in (1, -1):
            raise ValueError("lead_sign must be +1 or -1")

    def __str__(self):
        return "BSB" if self.kind == "bsb" else f"BB-{self.n_switch}"


@dataclass
class SearchResult:
    found: bool
    t_star: float | None
    structure: StructureLabel | None
    switch_times: tuple[float, ...]
    values: tuple[float, ...]
    cost: float | None
    report: OptimalityReport | None
    diagnostics: dict = field(default_factory=dict)

    def protocol(self) -> BangSequence:
        if not self.found:
            raise ValueError("no protocol: search did not reach the target fidelity")
        return BangSequence(self.t_star, max(abs(v) for v in self.values),
                            self.switch_times, self.values)


# Nelder-Mead restarts of the free-switch-time polish at T* and at the
# report time just below it
_POLISH_SEEDS = 12


def _bb_values(n_switch: int, lead_sign: int, u_max: float) -> np.ndarray:
    return lead_sign * u_max * (-1.0) ** np.arange(n_switch + 1)


def canonicalize_bangs(times, values, T: float):
    """Drop segments no longer than 1e-7 T and merge equal neighbours.

    Optimizers frequently park a switch on top of another (or at 0 or T),
    which leaves a protocol whose nominal switching count overstates the
    real one; the canonical form recovers the true structure label.
    Returns (switch_times, values, label).
    """
    bounds = np.concatenate([[0.0], np.sort(np.asarray(times, dtype=float)), [T]])
    durs = np.diff(bounds)
    vals = np.asarray(values, dtype=float)
    kept = [(d, v) for d, v in zip(durs, vals) if d > 1e-7 * T]
    merged: list[list[float]] = []
    for d, v in kept:
        if merged and abs(merged[-1][1] - v) < 1e-12:
            merged[-1][0] += d
        else:
            merged.append([d, v])
    out_durs = np.array([d for d, _ in merged])
    out_vals = np.array([v for _, v in merged])
    out_durs *= T / out_durs.sum()
    switch_times = np.cumsum(out_durs)[:-1]
    kind = "bsb" if np.any(out_vals == 0.0) and len(out_vals) == 3 else "bb"
    lead = 1 if out_vals[0] >= 0 else -1
    label = StructureLabel(kind, len(switch_times) if kind == "bb" else 2, lead)
    return switch_times, out_vals, label


def _bang_costs(times, T, values, psi_i, psi_t, params: ModelParams) -> np.ndarray:
    """State-prep costs of B bang sequences, one per row.

    Row b switches at ``times[b]`` between the segment values ``values[b]``
    over [0, T[b]].  Unordered or out-of-range times are repaired (sorted and
    clipped) rather than penalized, so simplex optimizers see a continuous
    landscape.  A row with fewer switchings is padded at the end with times
    at T[b]: its padded segments last zero time, are exact identities, and
    leave the row's cost bit for bit as it is unpadded.
    """
    T = np.asarray(T, dtype=float)[:, None]
    # ndarray.clip and the slice difference: np.clip's and np.diff's dispatch
    # cost as much as the arithmetic here
    times = np.sort(np.asarray(times, dtype=float).clip(0.0, T), axis=1)
    bounds = np.concatenate([np.zeros_like(T), times, T], axis=1)
    durs = bounds[:, 1:] - bounds[:, :-1]
    values = np.asarray(values, dtype=float)
    return state_prep_cost(ordered_product(segment_propagators(durs.T, values.T, params)),
                           psi_i, psi_t)


def cost_of_switchings(times, values, T: float, problem: StatePrepProblem) -> float:
    """Terminal cost of a piecewise-constant protocol given interior switch times."""
    psi_i, psi_t = problem.states()
    return float(_bang_costs(np.asarray(times, dtype=float)[None], [T],
                             np.asarray(values, dtype=float)[None], psi_i, psi_t,
                             problem.params)[0])


def optimize_structure(structure: StructureLabel, T: float, problem: StatePrepProblem,
                       seeds: int = 20, x0=None) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """Best switch times for a structure at fixed T, by restarted Nelder-Mead.

    Switch times are free variables (with sort/clip repair); for BSB both
    trailing-bang signs are tried.  The restarts of every sign are lanes of
    one lockstep Nelder-Mead, and the first lane reaching the lowest cost
    wins.  Returns (times, cost, segment values), deterministic.
    """
    psi_i, psi_t = problem.states()
    params = problem.params
    k = 2 if structure.kind == "bsb" else structure.n_switch

    if structure.kind == "bsb":
        value_sets = [np.array([structure.lead_sign * params.u_max, 0.0, s2 * params.u_max])
                      for s2 in (1.0, -1.0)]
    else:
        value_sets = [_bb_values(k, structure.lead_sign, params.u_max)]

    if k == 0:
        vals = value_sets[0]
        return np.empty(0), cost_of_switchings((), vals, T, problem), tuple(vals)

    def sampler(rng):
        return np.sort(T * (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k)

    start = (np.asarray(x0, dtype=float) if x0 is not None
             else sampler(np.random.default_rng(1)))
    starts = []
    for _ in value_sets:
        rng = np.random.default_rng(0)
        starts += [start] + [sampler(rng) for _ in range(seeds - 1)]
    lane_values = np.repeat(value_sets, len(starts) // len(value_sets), axis=0)
    lane_T = np.full(len(starts), T)

    def obj(X, lanes):
        return _bang_costs(X, lane_T[lanes], lane_values[lanes], psi_i, psi_t, params)

    runs = optim.lockstep_nelder_mead(obj, starts, 0.0, T, 2000, 1e-10)
    best = min(range(len(runs)), key=lambda i: runs[i].fun)
    times = np.sort(np.clip(runs[best].x, 0.0, T))
    return times, runs[best].fun, tuple(float(v) for v in lane_values[best])


# ---------------------------------------------------------------------------
# bang-singular-bang construction
#
# A bang rotates the Bloch vector about the tilted axis (u, 0, omega0/2) at
# angular rate 2*sqrt((omega0/2)^2 + u^2); the singular segment (u = 0) rides
# the equator with phi advancing at rate omega0.  The minimum-time BSB is
# therefore: shortest bang from the initial state onto the equator, a coast,
# and the shortest backward bang from the target onto the equator, with the
# coast bridging the two equator azimuths.
# ---------------------------------------------------------------------------


def _bloch_vec(psi: np.ndarray) -> np.ndarray:
    return np.array([2.0 * (psi[0].conjugate() * psi[1]).real,
                     2.0 * (psi[0].conjugate() * psi[1]).imag,
                     abs(psi[0]) ** 2 - abs(psi[1]) ** 2])


def _axis_rate(u: float, params: ModelParams):
    h = np.array([u, 0.0, 0.5 * params.omega0])
    norm = np.linalg.norm(h)
    return h / norm, 2.0 * norm


def _rot(n: np.ndarray, ang: float, r: np.ndarray) -> np.ndarray:
    return (r * np.cos(ang) + np.cross(n, r) * np.sin(ang)
            + n * np.dot(n, r) * (1.0 - np.cos(ang)))


def _equator_angles(r0: np.ndarray, n: np.ndarray, backward: bool = False):
    """Rotation angles in [0, 2pi) at which the circle through r0 crosses z=0."""
    A = n[2] * np.dot(n, r0)
    B = (r0 - n * np.dot(n, r0))[2]
    C = np.cross(n, r0)[2] * (-1.0 if backward else 1.0)
    R = np.hypot(B, C)
    if R < abs(A):
        return []
    ph = np.arctan2(C, B)
    base = np.arccos(np.clip(-A / R, -1.0, 1.0))
    return sorted({round(float((ph + s * base) % (2.0 * np.pi)), 13) for s in (1.0, -1.0)})


def bsb_candidates(problem: StatePrepProblem) -> list[dict]:
    """All bang-equator / coast / equator-bang realizations, sorted by total time."""
    params = problem.params
    psi_i, psi_t = problem.states()
    r_i, r_t = _bloch_vec(psi_i), _bloch_vec(psi_t)
    out = []
    for s1 in (1, -1):
        n1, rate1 = _axis_rate(s1 * params.u_max, params)
        for a1 in _equator_angles(r_i, n1):
            p1 = _rot(n1, a1, r_i)
            phi1 = np.arctan2(p1[1], p1[0])
            for s2 in (1, -1):
                n2, rate2 = _axis_rate(s2 * params.u_max, params)
                for a2 in _equator_angles(r_t, n2, backward=True):
                    p2 = _rot(n2, -a2, r_t)
                    if abs(p2[2]) > 1e-9:
                        continue
                    phi2 = np.arctan2(p2[1], p2[0])
                    coast = float((phi2 - phi1) % (2.0 * np.pi)) / params.omega0
                    t1, t2 = a1 / rate1, a2 / rate2
                    out.append({"T": t1 + coast + t2, "t1": t1, "coast": coast,
                                "t2": t2, "s1": s1, "s2": s2})
    out.sort(key=lambda c: c["T"])
    return out


def best_bsb(problem: StatePrepProblem) -> dict | None:
    cands = bsb_candidates(problem)
    return cands[0] if cands else None


def _bsb_protocol(cand: dict, params: ModelParams) -> BangSequence:
    t1 = cand["t1"]
    t2 = t1 + cand["coast"]
    vals = (cand["s1"] * params.u_max, 0.0, cand["s2"] * params.u_max)
    return BangSequence(cand["T"], params.u_max, (t1, t2), vals)


def _default_structures(problem: StatePrepProblem, t_max: float) -> list[StructureLabel]:
    kmax = math.ceil(problem.params.omega0 * t_max / np.pi) + 2
    out = [StructureLabel("bsb", 2, 1)]
    for k in range(kmax + 1):
        for s in (1, -1):
            out.append(StructureLabel("bb", k, s))
    return out


# Nelder-Mead restarts per structure at each time of the T* scan and bisection
_SCAN_RESTARTS = 6


def _reduced_times(X, ks, T) -> np.ndarray:
    """Switch times of reduced coordinates, one row per row of X.

    One column is the single switch time of BB-1; two are (t0, tbar), the
    equal-middle-bang form t0 + j tbar (j < k), exact for BB extremals, whose
    rows are padded with T to the largest k.  The times are neither sorted
    nor clipped: ``_bang_costs`` does both.
    """
    if X.shape[1] < 2:
        return X
    j = np.arange(np.max(ks))
    return np.where(j < ks[:, None], X[:, :1] + X[:, 1:] * j, T[:, None])


def _reduced_to_times(x, structure: StructureLabel, T: float) -> np.ndarray:
    times = _reduced_times(np.asarray(x, dtype=float)[None], np.array([structure.n_switch]),
                           np.array([T]))[0]
    return np.sort(times.clip(0.0, T))


def _scan_optima(structures: list[StructureLabel], Ts: list[float], warms: list,
                 problem: StatePrepProblem, seed: int) -> list[tuple[np.ndarray, float]]:
    """Best reduced coordinates and cost of each BB structure at its own T.

    A structure's _SCAN_RESTARTS Nelder-Mead runs start from its warm start
    (or a seeded draw) and then from seeded draws.  The runs of all
    structures are lanes of one lockstep call per coordinate count: BB-1 in
    its switch time, k >= 2 in (t0, tbar).  BB-0 has nothing to optimize.
    """
    psi_i, psi_t = problem.states()
    params = problem.params
    out = [None] * len(structures)
    zero = [j for j, s in enumerate(structures) if s.n_switch == 0]
    if zero:
        costs = _bang_costs(np.empty((len(zero), 0)), [Ts[j] for j in zero],
                            [_bb_values(0, structures[j].lead_sign, params.u_max) for j in zero],
                            psi_i, psi_t, params)
        for j, c in zip(zero, costs):
            out[j] = (np.empty(0), float(c))
    for dim in (1, 2):
        group = [j for j, s in enumerate(structures) if min(s.n_switch, 2) == dim]
        if not group:
            continue
        kmax = max(structures[j].n_switch for j in group)
        starts, lo, hi, lane_values = [], [], [], []
        for j in group:
            s, T, k = structures[j], Ts[j], structures[j].n_switch
            if dim == 1:
                box = ((0.0,), (T,))
                sampler = lambda rng, T=T: rng.uniform(0.0, T, 1)
            else:
                box = ((0.0, 1e-9), (T, T / (k - 1)))
                sampler = lambda rng, T=T, k=k: np.array([rng.uniform(0.0, T / (k + 1)),
                                                          rng.uniform(0.3, 1.0) * T / (k - 1)])
            rng = np.random.default_rng(seed)
            starts.append(warms[j] if warms[j] is not None
                          else sampler(np.random.default_rng(seed)))
            starts += [sampler(rng) for _ in range(_SCAN_RESTARTS - 1)]
            lo += [box[0]] * _SCAN_RESTARTS
            hi += [box[1]] * _SCAN_RESTARTS
            values = np.pad(_bb_values(k, s.lead_sign, params.u_max), (0, kmax - k), mode="edge")
            lane_values += [values] * _SCAN_RESTARTS
        lane_T = np.repeat([Ts[j] for j in group], _SCAN_RESTARTS)
        lane_k = np.repeat([structures[j].n_switch for j in group], _SCAN_RESTARTS)
        lane_values = np.array(lane_values)

        def obj(X, lanes):
            times = _reduced_times(X, lane_k[lanes], lane_T[lanes])
            return _bang_costs(times, lane_T[lanes], lane_values[lanes, :times.shape[1] + 1],
                               psi_i, psi_t, params)

        runs = optim.lockstep_nelder_mead(obj, starts, lo, hi, 1500, 1e-12)
        for i, j in enumerate(group):
            r = min(runs[i * _SCAN_RESTARTS:(i + 1) * _SCAN_RESTARTS], key=lambda r: r.fun)
            out[j] = (r.x, r.fun)
    return out


def find_time_optimal(problem: StatePrepProblem, structures: list[StructureLabel] | None = None,
                      t_max: float | None = None, seed: int = 0,
                      with_report: bool = True) -> SearchResult:
    """Smallest T reaching cost <= -1 + TARGET_TOL over candidate structures.

    BB structures are scanned on a shared T grid of step pi/4 (in the fast
    equal-middle-bang form, both leading signs) and refined by bisection to
    1e-3 pi; the minimal BSB time comes from the closed-form equator
    construction, validated by propagation.  The winner is re-optimized
    with fully free switch times, and its optimality report is evaluated at
    0.999 T* where the PMP quantities are small but nonzero.  Ties break
    toward fewer switchings.
    """
    params = problem.params
    if t_max is None:
        t_max = np.pi + np.pi / params.u_max
    coarse_step = 0.25 * np.pi
    resolution = 1e-3 * np.pi

    if structures is None:
        structures = _default_structures(problem, t_max)
    bb_structs = list(dict.fromkeys(s for s in structures if s.kind == "bb"))
    want_bsb = any(s.kind == "bsb" for s in structures)

    bsb = best_bsb(problem) if want_bsb else None
    bsb_T = bsb["T"] if bsb is not None else np.inf
    if bsb is not None:
        proto = _bsb_protocol(bsb, params)
        c = cost_of_switchings(proto.switch_times, proto.values, proto.T, problem)
        if c > -1.0 + TARGET_TOL:  # construction must be self-consistent
            bsb, bsb_T = None, np.inf

    warm: dict = {}
    hits: dict = {}
    T_hit = None
    T_miss = 0.0  # the last coarse time that missed
    for j in range(1, int(np.ceil(t_max / coarse_step)) + 1):
        T = min(j * coarse_step, t_max)
        kmax_here = math.ceil(params.omega0 * T / np.pi) + 2
        scan = [s for s in bb_structs if s.n_switch <= kmax_here]
        keys = [(s.n_switch, s.lead_sign) for s in scan]
        optima = _scan_optima(scan, [T] * len(scan), [warm.get(key) for key in keys],
                              problem, seed)
        for s, key, (x, c) in zip(scan, keys, optima):
            warm[key] = x
            if c <= -1.0 + TARGET_TOL:
                hits[key] = (s, x)
        if hits or bsb_T <= T:
            T_hit = T
            break
        T_miss = T

    candidates = []  # (t_star, effective n_switch, bsb_last, structure-or-None, payload)
    if T_hit is not None:
        # every hit bisects from the last coarse time that missed (on the
        # grid, T_hit - coarse_step is that time with the bits it always had);
        # the hits step together, each at its own midpoint
        found = list(hits.values())
        lo = [T_hit - coarse_step if T_hit == j * coarse_step else T_miss] * len(found)
        hi = [T_hit] * len(found)
        x_best = [np.asarray(x, dtype=float) for _, x in found]
        while steps := [i for i in range(len(found)) if hi[i] - lo[i] > resolution]:
            mids = [0.5 * (lo[i] + hi[i]) for i in steps]
            optima = _scan_optima([found[i][0] for i in steps], mids,
                                  [x_best[i] * (mid / hi[i]) for i, mid in zip(steps, mids)],
                                  problem, seed)
            for i, mid, (x, c) in zip(steps, mids, optima):
                if c <= -1.0 + TARGET_TOL:
                    hi[i], x_best[i] = mid, np.asarray(x, dtype=float)
                else:
                    lo[i] = mid
        for (s, _), t_hi, x in zip(found, hi, x_best):
            _, _, eff = canonicalize_bangs(_reduced_to_times(x, s, t_hi),
                                           _bb_values(s.n_switch, s.lead_sign, params.u_max),
                                           t_hi)
            candidates.append((t_hi, eff.n_switch, 1, s, x))
    if bsb is not None and bsb_T <= t_max:
        candidates.append((bsb_T, 2, 0, None, bsb))

    if not candidates:
        return SearchResult(False, None, None, (), (), None, None,
                            {"t_max": t_max, "reason": "no structure reached fidelity"})

    # smallest refined T wins; within the refinement resolution ties break
    # toward fewer switchings, then toward the singular structure (the exact
    # extremal when both complete at indistinguishable times)
    candidates.sort(key=lambda c: (c[0], c[1]))
    best_T = candidates[0][0]
    near = sorted((c for c in candidates if c[0] <= best_T + resolution),
                  key=lambda c: (c[1], c[2], c[0]))
    t_star, _, _, s_win, x_win = near[0]

    if s_win is None:  # BSB wins
        cand = x_win
        structure = StructureLabel("bsb", 2, cand["s1"])
        proto = _bsb_protocol(cand, params)
        times = np.asarray(proto.switch_times)
        values = proto.values
        cost = cost_of_switchings(times, values, t_star, problem)
        diag = {"singular_duration": cand["coast"], "bsb": dict(cand)}
    else:
        times0 = _reduced_to_times(x_win, s_win, t_star)
        times, cost, values = optimize_structure(s_win, t_star, problem,
                                                 seeds=_POLISH_SEEDS, x0=times0)
        times, values, structure = canonicalize_bangs(times, values, t_star)
        values = tuple(float(v) for v in values)
        diag = {"singular_duration": 0.0}
    diag["t_max"] = t_max
    diag["candidates"] = [(c[0], "BSB" if c[3] is None else str(c[3])) for c in candidates]

    report = None
    if with_report:
        report = report_near_optimum(structure, t_star, times, values, problem)
    return SearchResult(True, float(t_star), structure, tuple(float(t) for t in times),
                        tuple(float(v) for v in values), float(cost), report, diag)


def report_near_optimum(structure: StructureLabel, t_star: float, times, values,
                        problem: StatePrepProblem, shrink: float = 0.999) -> OptimalityReport:
    """Audit the re-optimized protocol at T slightly below T*.

    At T* both Phi and H_oc vanish and the sign test is vacuous, so the
    diagnostics are evaluated at shrink * T* where lambda0 is small but
    finite.
    """
    T = shrink * t_star
    x0 = np.asarray(times, dtype=float) * shrink
    opt_times, _, opt_values = optimize_structure(structure, T, problem,
                                                  seeds=_POLISH_SEEDS, x0=x0)
    opt_times, opt_values, _ = canonicalize_bangs(opt_times, opt_values, T)
    proto = BangSequence(T, problem.params.u_max, tuple(opt_times), tuple(opt_values))
    return pmp.audit(proto, problem.params, problem.cost_spec())


def critical_amplitude(problem: StatePrepProblem, bracket: tuple[float, float]) -> float:
    """Amplitude below which the optimal protocol loses its singular segment.

    Bisects to a bracket of width 0.01 on the predicate "the time-optimal
    structure is BSB with a singular segment longer than 1e-3 T*".  The
    bracket must straddle the transition (predicate true at u_hi, false at
    u_lo).
    """
    def predicate(u: float) -> bool:
        p = StatePrepProblem(problem.init, problem.target,
                             ModelParams(u_max=u, omega0=problem.params.omega0))
        res = find_time_optimal(p, with_report=False)
        if not res.found or res.structure.kind != "bsb":
            return False
        return res.diagnostics.get("singular_duration", 0.0) > 1e-3 * res.t_star

    u_lo, u_hi = bracket
    if predicate(u_lo):
        raise ValueError("bracket does not straddle the transition: BSB already optimal at u_lo")
    if not predicate(u_hi):
        raise ValueError("bracket does not straddle the transition: BSB not optimal at u_hi")
    while u_hi - u_lo > 1e-2:
        mid = 0.5 * (u_lo + u_hi)
        if predicate(mid):
            u_hi = mid
        else:
            u_lo = mid
    return 0.5 * (u_lo + u_hi)
