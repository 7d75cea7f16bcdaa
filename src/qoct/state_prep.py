"""Time-optimal state preparation: structure enumeration, T* scan, u_c search.

Candidate protocol structures are multi-bang sequences (BB-k, k switchings
between +/-u_max) and bang-singular-bang (BSB), whose singular segment must
ride the Bloch equator with u = 0.  The search scans the evolution time
upward per structure until the terminal cost reaches -1, refines each
hit's minimum time by probes placed where the miss residual extrapolates to
zero, and picks the structure with the smallest T*, breaking ties toward
fewer switchings.  At a fixed T every BB structure is searched in
at most two reduced coordinates: the equal-middle-bang form (t0, tbar) of
a BB-k extremal, or the single switch time of BB-1.  Hit or miss at
(structure, T) is a root solve of G = <t_perp| U |psi_i> = 0 in those
coordinates, t_perp the state orthogonal to the target, for which
|G|^2 = 1 - F: every structure's starts are lanes of one damped
Gauss-Newton call, and a hit is a lane ending at |G|^2 <= TARGET_TOL.
The minimum-time BSB is a closed-form construction with no search.
The scan searches no time that a speed limit rules out: in the frame
rotating with the drift the Bloch vector turns at angular speed at most
2 u_max, so no control reaches a target farther than 2 u_max T away there.
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
    cell_pairs,
    pair_product,
    state_from_bloch,
    total_pairs,
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
    # |G|^2 of the winner at T* (of its closed-form protocol for BSB) and
    # the Gauss-Newton steps of the lane that found it (0 for BSB)
    residual: float | None
    solver_steps: int | None
    diagnostics: dict = field(default_factory=dict)

    def protocol(self) -> BangSequence:
        if not self.found:
            raise ValueError("no protocol: search did not reach the target fidelity")
        return BangSequence(self.t_star, max(abs(v) for v in self.values),
                            self.switch_times, self.values)


def _signed(structure: StructureLabel) -> str:
    """A BB label with its leading sign, BB-k+ or BB-k-, as the diagnostics name it."""
    return f"{structure}{'+' if structure.lead_sign > 0 else '-'}"


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


def _bang_costs(times, T, values, cost: CostSpec, params: ModelParams) -> np.ndarray:
    """C + 1 = |G|^2 (``cost.gap``) of B bang sequences, one per row.

    Row b switches at ``times[b]`` between the segment values ``values[b]``
    over [0, T[b]].  Unordered or out-of-range times are sorted and clipped
    into [0, T[b]] before the durations are taken.  A row with fewer
    switchings is padded at the end with times at T[b]: its padded segments
    last zero time, are exact identities, and leave the row's |G|^2 bit for
    bit as it is unpadded.  The durations go through the Cayley-Klein pair
    kernel, cells first, as in ``_reduced_rows``.
    """
    T = np.asarray(T, dtype=float)[None]
    # cells first; ndarray.clip and the slice difference: np.clip's and
    # np.diff's dispatch cost as much as the arithmetic here
    times = np.sort(np.asarray(times, dtype=float).T.clip(0.0, T), axis=0)
    bounds = np.concatenate([np.zeros_like(T), times, T])
    durs = bounds[1:] - bounds[:-1]
    values = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    return cost.gap(*pair_product(cell_pairs(durs, values, params)).T)


def cost_of_switchings(times, values, T: float, problem: StatePrepProblem) -> float:
    """Terminal cost of a piecewise-constant protocol given interior switch times."""
    (gap,) = _bang_costs([times], [T], [values], problem.cost_spec(), problem.params)
    return float(gap) - 1.0


def optimize_structure(structure: StructureLabel, T: float, problem: StatePrepProblem,
                       x0=None) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """Best switch times for a BB structure at fixed T, by the scan's reduced search.

    BB-1 is searched in its switch time and BB-k (k >= 2) in (t0, tbar); see
    ``_scan_optima``.  BSB has no search: its minimum time is the closed
    form of ``bsb_candidates``, and a BSB label raises ValueError.  The
    switch times ``x0``, if given, warm-start the search as (x0[0], their
    mean spacing).  Where the target is out of reach at T, the best lane's
    solve stops near a minimum of the cost without reaching it, and
    Nelder-Mead finishes the minimization from there, in the same box.
    Returns (times, cost, segment values), deterministic.
    """
    if structure.kind == "bsb":
        raise ValueError("BSB is the closed-form construction of bsb_candidates, not a search")
    warm = None
    if x0 is not None and structure.n_switch > 0:
        t = np.sort(np.asarray(x0, dtype=float))
        warm = np.array([t[0], (t[-1] - t[0]) / max(len(t) - 1, 1)])
    (r,) = _scan_optima([structure], [T], [warm], problem)
    values = tuple(float(v) for v in _bb_values(structure.n_switch, structure.lead_sign,
                                                problem.params.u_max))
    x = r.x
    if r.status not in ("converged", "exact"):
        # minimized on |G|^2 rather than the cost, which rounds near -1
        rows = _reduced_rows(np.array([T]), np.array([structure.n_switch]), np.array([values]),
                             problem.cost_spec(), problem.params)

        def residual(x):
            F = rows(x[None], [0])[0]
            return float(F @ F)

        x = optim.nelder_mead(residual, x, 1500, 1e-15, bounds=tuple(zip(*_box(structure, T)))).x
    times = _reduced_to_times(x, structure, T)
    return times, cost_of_switchings(times, values, T, problem), values


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


# the largest Bloch angle between a hit's final state and the target:
# 1 - F = sin^2(angle / 2) <= TARGET_TOL
_HIT_ANGLE = 2.0 * math.asin(math.sqrt(TARGET_TOL))
# |G| at the hit threshold, the zero of the refinement's miss line
_SQRT_TOL = math.sqrt(TARGET_TOL)


def _speed_limit_excludes(problem: StatePrepProblem, T: float) -> bool:
    """Whether no control with |u| <= u_max can reach the target by time T.

    In the frame rotating with the drift, q(t) = R_z(-omega0 t) r(t), a
    control only turns the Bloch vector about an axis in the xy-plane, at
    angular speed 2|u| <= 2 u_max.  So a hit at T needs the angle between
    r_i and R_z(-omega0 T) r_t to be at most 2 u_max T + _HIT_ANGLE, up to
    a 1e-9 rounding margin.  atan2 keeps the angle accurate near 0 and pi,
    where acos loses digits.
    """
    psi_i, psi_t = problem.states()
    r_i, r_t = _bloch_vec(psi_i), _bloch_vec(psi_t)
    a = problem.params.omega0 * T
    c, s = math.cos(a), math.sin(a)
    q = np.array([c * r_t[0] + s * r_t[1], c * r_t[1] - s * r_t[0], r_t[2]])
    angle = math.atan2(np.linalg.norm(np.cross(r_i, q)), np.dot(r_i, q))
    return angle > 2.0 * problem.params.u_max * T + _HIT_ANGLE + 1e-9


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


# drawn Gauss-Newton starts per structure at each time of the T* scan, the
# refinement and the report, run besides the structure's warm start when it
# has one; every structure draws the same uniforms of
# np.random.default_rng(0), scaled to its box.  The
# _GRID_SEEDS best points of a _GRID_SIDE x _GRID_SIDE grid over the box
# start lanes too.
_SCAN_DRAWS = 5
_GRID_SIDE = 8
_GRID_SEEDS = 2


def _box(structure: StructureLabel, T: float):
    """The (lo, hi) corners of a structure's box in (t0, tbar) at T.

    t0 lies in [0, T]; BB-1's tbar is fixed at 0 (its one switch time is
    t0), and the k switch times of the others keep tbar in [1e-9, T/(k-1)].
    """
    k = structure.n_switch
    return ((0.0, 0.0), (T, 0.0)) if k == 1 else ((0.0, 1e-9), (T, T / (k - 1)))


def _equal_bangs(X, k: int) -> np.ndarray:
    """Switch times of reduced coordinates (t0, tbar), one row per row of X.

    The k switch times t0 + j tbar (j < k) are the equal-middle-bang form,
    exact for BB extremals; BB-1's one switch time is t0, whatever tbar.
    The times are neither clipped nor, for tbar < 0, ordered.
    """
    return X[:, :1] + X[:, 1:] * np.arange(k)


def _reduced_to_times(x, structure: StructureLabel, T: float) -> np.ndarray:
    times = _equal_bangs(np.asarray(x, dtype=float)[None], structure.n_switch)[0]
    return np.sort(times.clip(0.0, T))


def _reduced_rows(lane_T, lane_k, lane_values, cost: CostSpec, params: ModelParams):
    """The scan's residual rows f(X, lanes): the state-prep ``cost.rows`` of reduced coordinates.

    Lane l has time ``lane_T[l]``, ``lane_k[l]`` switchings and segment
    values ``lane_values[l]``, padded at the end to one more than the
    largest k.  A row's switch times are its ``_equal_bangs`` times padded
    with T, and the durations go through the pair kernel of ``_bang_costs``,
    so |F|^2 agrees with its |G|^2 to rounding.  The scan's box
    keeps t0 >= 0 and tbar >= 1e-9, so t0 + j tbar already rises with j and
    clipping at T keeps it rising, and the durations need no sort.  The
    values are lane constants made once here, stored cells first like the
    durations and like ``_bang_costs``'s cells.
    """
    kmax = lane_values.shape[1] - 1
    # per lane, cells first: the values, and the floor of each switch time
    # (0, or T for padding, which pins it to T) followed by T itself
    floor_T = np.where(np.arange(kmax + 1)[:, None] < lane_k, 0.0, lane_T)
    lane_consts = np.stack([lane_values.T, floor_T])

    def rows(X, lanes):
        values, floor_T = lane_consts.take(lanes, axis=2)
        durs = np.empty((kmax + 1, len(lanes)))
        times, T = durs[:-1], floor_T[-1]
        np.maximum(_equal_bangs(X, kmax).T, floor_T[:-1], out=times)
        np.minimum(times, T, out=times)
        durs[-1] = T
        durs[1:] -= times  # numpy buffers the overlapping operand
        return cost._sp_rows(pair_product(cell_pairs(durs, values, params)))

    return rows


def _scan_optima(structures: list[StructureLabel], Ts: list[float], warms: list,
                 problem: StatePrepProblem) -> list[optim.OptimResult]:
    """The best Gauss-Newton lane of each BB structure.

    Each structure is searched at its own T, in (t0, tbar) and in its
    ``_box``, on its ``_bb_values``.  Its lanes start from its warm start,
    if it has one, from _SCAN_DRAWS drawn points, and from the _GRID_SEEDS
    best points of a _GRID_SIDE x _GRID_SIDE grid over its box
    (_GRID_SIDE^2 points of t0 for BB-1), every structure's grid in one
    call: a solve only finds the root of the basin it starts in, and the
    grid sees basins the draws miss.  The draws are those of a fresh
    ``np.random.default_rng(0)`` per structure, made for all structures at
    once from the generator's first 2 _SCAN_DRAWS uniforms.  The lanes of
    all structures solve G = 0 (``_reduced_rows``) in one
    ``optim.gauss_newton`` call, every trial clipped into its lane's box.  A structure's best lane is the
    first with its lowest |G|^2 (``fun``).  BB-0 has nothing to solve: its
    result is |G|^2 of its one protocol, status 'exact'.
    """
    params = problem.params
    ks = np.array([s.n_switch for s in structures])
    Ts = np.array(Ts, dtype=float)
    # every structure's _bb_values, padded at the end with its last value
    signs = np.array([s.lead_sign for s in structures])
    values = (signs * params.u_max)[:, None] * (-1.0) ** np.minimum(np.arange(ks.max() + 1),
                                                                   ks[:, None])
    rows = _reduced_rows(Ts, ks, values, problem.cost_spec(), params)
    out = [None] * len(structures)
    solved = np.flatnonzero(ks)
    if solved.size:
        T, k = Ts[solved, None], ks[solved, None]
        one = k == 1
        lo, hi = np.array([_box(structures[j], Ts[j]) for j in solved]).transpose(1, 0, 2)
        # the draws of np.random.default_rng(0) that each structure makes:
        # rng.uniform(a, b) is a + (b - a) U, and BB-1 draws t0 alone
        U = np.random.default_rng(0).random(2 * _SCAN_DRAWS)
        draws = np.stack([np.where(one, T * U[:_SCAN_DRAWS], T / (k + 1) * U[0::2]),
                          np.where(one, 0.0, (0.3 + (1.0 - 0.3) * U[1::2]) * T
                                   / np.maximum(k - 1, 1))], axis=-1)
        # the unit grid, and BB-1's line of as many t0
        side = np.linspace(0.0, 1.0, _GRID_SIDE)
        square = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
        line = np.column_stack([np.linspace(0.0, 1.0, _GRID_SIDE ** 2), np.zeros(_GRID_SIDE ** 2)])
        unit = np.where(one[:, :, None], line, square)
        grid = lo[:, None] + (hi - lo)[:, None] * unit
        F = rows(grid.reshape(-1, 2), np.repeat(solved, _GRID_SIDE ** 2))
        r2 = (F * F).sum(axis=1).reshape(len(solved), -1)
        seeds = grid[np.arange(len(solved))[:, None],
                     np.argsort(r2, axis=1, kind="stable")[:, :_GRID_SEEDS]]
        # per structure: its warm start, if any, then its draws and seeds
        warm = np.array([warms[j] is not None for j in solved])
        own = _SCAN_DRAWS + _GRID_SEEDS
        starts = np.insert(np.concatenate([draws, seeds], axis=1).reshape(-1, 2),
                           own * np.flatnonzero(warm),
                           np.reshape([warms[j] for j in solved[warm]], (-1, 2)), axis=0)
        counts = own + warm
        first = np.cumsum(counts) - counts
        lane_set = np.repeat(solved, counts)
        lane_lo, lane_hi = np.repeat(lo, counts, axis=0), np.repeat(hi, counts, axis=0)
        runs = optim.gauss_newton(
            lambda X, lanes: rows(X, lane_set.take(lanes)), starts,
            lambda X, lanes: np.minimum(np.maximum(X, lane_lo[lanes]), lane_hi[lanes]))
        for j, start, count in zip(solved, first, counts):
            out[j] = min(runs[start:start + count], key=lambda r: r.fun)
    zero = np.flatnonzero(ks == 0)
    if zero.size:
        F = rows(np.zeros((len(zero), 2)), zero)
        for j, f in zip(zero, F):
            out[j] = optim.OptimResult(x=np.zeros(2), fun=float(f @ f), status="exact")
    return out


def _line_zero(misses) -> float | None:
    """Where the line through a structure's two latest misses falls to zero, if it falls.

    ``misses`` lists the misses (t, g) in ascending t, g = |G| -
    sqrt(TARGET_TOL) of the structure's best lane at time t (in any linear
    unit of time).  Below its first hit the best |G| falls about linearly in
    T, since G = 0 has a fold there, so the zero estimates the first hit.
    None with fewer than two misses or a line that does not fall.
    """
    if len(misses) < 2:
        return None
    (t1, g1), (t2, g2) = misses[-2:]
    return t2 + g2 * (t2 - t1) / (g1 - g2) if t1 < t2 and g1 > g2 else None


def _probe_cells(lo: int, hi: int, zero: float | None) -> list[int]:
    """The grid points, ascending, that one refinement call probes in a bracket (lo, hi).

    The bracket and the probes are in whole cells of the refinement grid,
    and ``zero`` is ``_line_zero``'s estimate in cells (None for none).  The probes are the two ends of the cell holding the
    estimate, moved inside [lo, hi], and kept where they lie strictly
    inside (lo, hi).  The midpoint, rounded down to a grid point, is probed
    too whenever those would leave a sub-bracket wider than half of (lo, hi)
    rounded up, so that every call at least halves the bracket, as bisection
    does: with no estimate it is the one probe.
    """
    probes = []
    if zero is not None:
        k = math.floor(min(max(zero, lo), hi - 1))
        probes = [j for j in (k, k + 1) if lo < j < hi]
    edges = [lo, *probes, hi]
    if max(b - a for a, b in zip(edges, edges[1:])) > (hi - lo + 1) // 2:
        probes = sorted({*probes, (lo + hi) // 2})
    return probes


def find_time_optimal(problem: StatePrepProblem, structures: list[StructureLabel] | None = None,
                      t_max: float | None = None, with_report: bool = True) -> SearchResult:
    """Smallest T reaching cost <= -1 + TARGET_TOL over candidate structures.

    BB structures are scanned on a shared T grid of step pi/4 (in the fast
    equal-middle-bang form, both leading signs) and every hit at the first
    grid time that hits is refined to 1e-3 pi, the resolution; the minimal
    BSB time comes from the closed-form equator construction, validated by
    propagation; only BB structures are lane searches, and with none asked
    for the scan runs no search.  A BB winner is the refinement's best
    Gauss-Newton lane at T* as it is, and its
    optimality report is ``report_near_optimum``'s at 0.999 T*: a BB winner
    is a root above the fold, not an extremal.  The BSB winner's report
    audits its own protocol at T* (``pmp.certified_audit``), on the costate
    of the endpoint rows (Re G, Im G).  Ties break toward fewer switchings.
    ``residual`` is the winner's |G|^2 at T* and ``solver_steps`` its lane's
    steps: a BB winner's ``fun`` as its lane found it, and for BSB |G|^2 of
    its closed-form protocol (``total_pairs`` and ``CostSpec.gap``, the
    path of every protocol's terminal cost) and 0.  ``cost`` is
    ``residual`` - 1.

    The refinement brackets each hit between the last coarse time that
    missed and the hit, on one grid of 2^m equal cells no wider than the
    resolution (the points bisection would probe), and stops when a
    bracket is one cell.  Each call probes the ends of the cell where the
    line through the structure's two latest misses (coarse misses count)
    falls to zero (``_line_zero``), and the midpoint too wherever that pair
    alone would not halve the bracket (``_probe_cells``), so no structure
    takes more calls than bisection would, and the pair often closes the
    bracket at once.  All structures' probes go into one ``_scan_optima``
    call, each warm-started from its best hit scaled.  hi becomes the
    lowest hit probe and lo the highest miss below it.

    A hit stops refining once its bracket's low end lies at least a
    resolution above the earliest hit of any structure, or above the BSB
    time when BSB is a candidate (the fathoming test of branch and bound):
    its refined time would lie more than a resolution above the winner's,
    outside the tie set.  Lanes are independent, so the winner keeps every
    bit it has with all hits refined.  ``diagnostics["candidates"]`` holds
    the (refined time, label) of each structure refined to the end and of
    BSB, and ``diagnostics["pruned"]`` the (last hit time, label) of each
    that stopped early, an upper bound on its minimum time.  Their BB labels
    carry the leading sign, BB-k+ or BB-k-, since both signs of one k can
    hit; ``structure`` and ``str(StructureLabel)`` stay BB-k.
    ``diagnostics["stalled_misses"]`` counts the scan and refinement misses
    whose best lane used up its Gauss-Newton steps ('max-iter') rather than
    stalling: such a miss may be a slow solve rather than a time too short.
    It counts the probes of the structures still refined alone.

    A grid time that the speed limit rules out counts as a miss without a
    search, and ``diagnostics["speed_limit_skips"]`` counts them.  In the
    frame rotating with the drift the Bloch vector moves at angular speed
    2|u| <= 2 u_max, so a hit at T needs angle(r_i, R_z(-omega0 T) r_t) <=
    2 u_max T + 2 asin(sqrt(TARGET_TOL)), the last term being how far a
    hit's final state may lie from the target.  A ruled-out time at or
    above the BSB time still ends the scan.

    Raises ValueError if the initial state already meets the target, since
    no T > 0 is then minimal.
    """
    params = problem.params
    if t_max is None:
        t_max = np.pi + np.pi / params.u_max
    elif not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    spec = problem.cost_spec()
    if spec.gap(1.0, 0.0) <= TARGET_TOL:  # the identity's pair
        raise ValueError("the initial state already meets the target (T* = 0)")
    coarse_step = 0.25 * np.pi
    resolution = 1e-3 * np.pi

    if structures is None:
        structures = _default_structures(problem, t_max)
    bb_structs = list(dict.fromkeys(s for s in structures if s.kind == "bb"))
    want_bsb = any(s.kind == "bsb" for s in structures)

    bsb = next(iter(bsb_candidates(problem)), None) if want_bsb else None
    bsb_T = bsb["T"] if bsb is not None else np.inf
    if bsb is not None:
        bsb_proto = _bsb_protocol(bsb, params)
        bsb_gap = float(spec.gap(*total_pairs([bsb_proto], params)[0]))
        if bsb_gap > TARGET_TOL:  # construction must be self-consistent
            bsb, bsb_T = None, np.inf

    warm: dict = {}
    hits: dict = {}
    misses: dict = {}  # per structure, (T, |G| - sqrt(TARGET_TOL)) of its misses
    T_hit = None
    T_miss = 0.0  # the last coarse time that missed
    # misses decided by a best lane that ran out of Gauss-Newton steps
    stalled = 0
    skips = 0  # coarse times the speed limit rules out, missed without a search
    for j in range(1, int(np.ceil(t_max / coarse_step)) + 1):
        T = min(j * coarse_step, t_max)
        if _speed_limit_excludes(problem, T):
            skips += 1
        else:
            kmax_here = math.ceil(params.omega0 * T / np.pi) + 2
            scan = [s for s in bb_structs if s.n_switch <= kmax_here]
            keys = [(s.n_switch, s.lead_sign) for s in scan]
            optima = _scan_optima(scan, [T] * len(scan), [warm.get(key) for key in keys],
                                  problem) if scan else []
            for s, key, r in zip(scan, keys, optima):
                warm[key] = r.x
                if r.fun <= TARGET_TOL:
                    hits[key] = (s, r)
                else:
                    misses.setdefault(key, []).append((T, math.sqrt(r.fun) - _SQRT_TOL))
                    stalled += r.status == "max-iter"
        if hits or bsb_T <= T:
            T_hit = T
            break
        T_miss = T

    candidates = []  # (t_star, effective n_switch, bsb_last, structure-or-None, payload)
    pruned = []  # (last hit time, label) of the hits that stopped refining
    if T_hit is not None:
        # every hit refines from the last coarse time that missed (on the
        # grid, T_hit - coarse_step is that time with the bits it always had)
        # on one grid: the fewest equal cells of that bracket, a power of two,
        # no wider than the resolution, whose points are bisection's
        # midpoints.  A bracket of one cell is one no wider than the
        # resolution, and wider ones refine.  Brackets, probes and the miss
        # lines are in cells from lo0.
        lo0 = T_hit - coarse_step if T_hit == j * coarse_step else T_miss
        n_cells = 2 ** max(math.ceil(math.log2((T_hit - lo0) / resolution)), 0)
        cell = (T_hit - lo0) / n_cells

        def at(k):
            return lo0 + k * cell

        found = list(hits.values())
        lo, hi = [0] * len(found), [n_cells] * len(found)
        best = [r for _, r in found]
        seen = [[((T - lo0) / cell, g) for T, g in misses.get((s.n_switch, s.lead_sign), [])]
                for s, _ in found]
        steps, dropped = list(range(len(found))), []
        while True:
            # a hit whose bracket starts a resolution above the earliest hit
            # or the BSB time (inf unless BSB is a candidate, which it is
            # whenever it lies below T_hit) would refine to a time above
            # best T + resolution, outside the tie set: it stops refining
            # (the fathoming test of branch and bound)
            bound = min([bsb_T, *map(at, hi)]) + resolution
            steps = [i for i in steps if hi[i] - lo[i] > 1]
            dropped += [i for i in steps if at(lo[i]) >= bound]
            if not (steps := [i for i in steps if at(lo[i]) < bound]):
                break
            # all hits' probes in one call, each warm-started from its best hit
            probes = [(i, k) for i in steps
                      for k in _probe_cells(lo[i], hi[i], _line_zero(seen[i]))]
            optima = _scan_optima([found[i][0] for i, _ in probes], [at(k) for _, k in probes],
                                  [best[i].x * (at(k) / at(hi[i])) for i, k in probes], problem)
            # hi becomes a structure's lowest hit probe and lo the highest
            # miss below it; its misses above that hit are not on its line
            for (i, k), r in zip(probes, optima):
                if r.fun <= TARGET_TOL and k < hi[i]:
                    hi[i], best[i] = k, r
            for (i, k), r in zip(probes, optima):
                if r.fun > TARGET_TOL:
                    stalled += r.status == "max-iter"
                    if k < hi[i]:
                        lo[i] = max(lo[i], k)
                        seen[i] = sorted([*seen[i], (k, math.sqrt(r.fun) - _SQRT_TOL)])
        for i, ((s, _), r) in enumerate(zip(found, best)):
            t_hi = at(hi[i])
            if i in dropped:
                pruned.append((t_hi, _signed(s)))
                continue
            _, _, eff = canonicalize_bangs(_reduced_to_times(r.x, s, t_hi),
                                           _bb_values(s.n_switch, s.lead_sign, params.u_max),
                                           t_hi)
            candidates.append((t_hi, eff.n_switch, 1, s, r))
    if bsb is not None and bsb_T <= t_max:
        candidates.append((bsb_T, 2, 0, None, bsb))

    if not candidates:
        return SearchResult(False, None, None, (), (), None, None, None, None,
                            {"t_max": t_max, "reason": "no structure reached fidelity",
                             "stalled_misses": stalled, "speed_limit_skips": skips})

    # smallest refined T wins; within the refinement resolution ties break
    # toward fewer switchings, then toward the singular structure (the exact
    # extremal when both complete at indistinguishable times)
    candidates.sort(key=lambda c: (c[0], c[1]))
    best_T = candidates[0][0]
    near = sorted((c for c in candidates if c[0] <= best_T + resolution),
                  key=lambda c: (c[1], c[2], c[0]))
    t_star, _, _, s_win, win = near[0]

    if s_win is None:  # BSB wins
        structure = StructureLabel("bsb", 2, win["s1"])
        times, values = np.asarray(bsb_proto.switch_times), bsb_proto.values
        residual, solver_steps = bsb_gap, 0
        diag = {"singular_duration": win["coast"], "bsb": dict(win)}
    else:
        times = _reduced_to_times(win.x, s_win, t_star)
        values = _bb_values(s_win.n_switch, s_win.lead_sign, params.u_max)
        residual, solver_steps = win.fun, win.n_iter
        times, values, structure = canonicalize_bangs(times, values, t_star)
        diag = {"singular_duration": 0.0}
    cost = residual - 1.0
    diag["t_max"] = t_max
    diag["stalled_misses"] = stalled
    diag["speed_limit_skips"] = skips
    diag["candidates"] = [(c[0], "BSB" if c[3] is None else _signed(c[3])) for c in candidates]
    diag["pruned"] = pruned

    report = None
    if with_report:
        report = (pmp.certified_audit(bsb_proto, params, spec) if s_win is None
                  else report_near_optimum(structure, t_star, times, problem))
    return SearchResult(True, float(t_star), structure, tuple(float(t) for t in times),
                        tuple(float(v) for v in values), float(cost), report,
                        float(residual), int(solver_steps), diag)


def report_near_optimum(structure: StructureLabel, t_star: float, times,
                        problem: StatePrepProblem, shrink: float = 0.999) -> OptimalityReport:
    """Audit a BB structure's optimum at T slightly below T*.

    A BB winner is a root of G above the fold, not a PMP extremal, so the
    endpoint costate does not certify it.  The audit takes its costate from
    the cost, and at T* that costate, Phi and H_oc all vanish and the sign
    test is vacuous, so the diagnostics are evaluated at shrink * T* where
    lambda0 is small but finite.  The protocol there is
    ``optimize_structure``'s, warm-started from the switch times at T*
    scaled by ``shrink``.
    """
    T = shrink * t_star
    x0 = np.asarray(times, dtype=float) * shrink
    opt_times, _, opt_values = optimize_structure(structure, T, problem, x0=x0)
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
