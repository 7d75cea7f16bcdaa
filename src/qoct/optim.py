"""Derivative-free, gradient-based and root-finding optimizers shared by the search modules.

All routines are deterministic (restart draws come from one fixed generator),
respect box bounds exactly (iterates are clipped, never merely penalized),
and report a status instead of raising on slow convergence.  Every minimum
time, and every fixed-T gate of the tanh and third-harmonic pulses, is
decided by root solves of one complex equation, written as two real
residuals, through one damped Gauss-Newton engine, ``gauss_newton``, which
advances many independent lanes with one residual call per round.  The state
preparation's hit-or-miss solves run every structure's starts as its lanes;
the minimum times of the square-wave gate and of the third-harmonic pulse
are the first root of U00(T, omega) = 0 along a scan in T: ``dip_roots``
scans for the dips and solves each by ``box_root``, lanes held to the
dip's box; the third harmonic's fixed-T gate is one ``box_root`` lane in
(omega, R).  Nelder-Mead, one sequential simplex per run, serves only the
minimization behind a BB state-prep winner's report at 0.999 T*, where no
root exists; the BSB winner's report is at T* and needs no search.

The engine's settings (``ROOT_TOL``, ``ROOT_STEPS``, ``FD_STEP``) and the
scan's rows per call (``SCAN_ROWS``) are constants of this module, read at
call time; no caller passes them.  Every Jacobian is a forward difference
from ``_fd_rows``, the one place an exact Jacobian would replace them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import TARGET_TOL

__all__ = [
    "OptimResult",
    "nelder_mead",
    "nelder_mead_restarts",
    "scalar_minimize",
    "refine_basins",
    "grid_vertex",
    "golden_section",
    "projected_gradient",
    "gauss_newton",
    "box_root",
    "dip_roots",
]

# The root solves stop at |F|^2 <= ROOT_TOL, after at most ROOT_STEPS steps,
# with forward-difference Jacobians of step FD_STEP (``_fd_rows``, the one
# difference stencil of the package).  ``gauss_newton`` reads them at call time.
ROOT_TOL = 1e-20
ROOT_STEPS = 25
FD_STEP = 1e-7
# T rows that ``dip_roots`` evaluates per residual call.  Over the five
# gate-search band centres (X u_max 0.48, 0.20, 0.0502, Y 0.30, PT 0.30) in
# process, ``min_gate_time`` took a median of 39.9 / 37.3 / 29.5 / 26.4 /
# 26.7 / 35.2 ms at 1 / 2 / 3 / 4 / 5 / 6 rows on a 2-vCPU guest; 3 and 4
# rows stay within that host's noise of each other.  The square wave and the
# third harmonic evaluate every row alone, so their roots do not depend on it.
SCAN_ROWS = 4


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    status: str  # 'converged' | 'max-iter' | 'line-search-failed' | 'stalled'
    n_eval: int = 0
    n_iter: int = 0  # steps taken, where the routine counts them
    # gauss_newton only: F and its forward-difference Jacobian at x
    F: np.ndarray | None = None
    J: np.ndarray | None = None


def nelder_mead(f, x0, max_iter: int, tol: float, bounds=None) -> OptimResult:
    """Reflect/expand/contract/shrink simplex minimization with bound clipping.

    ``bounds`` holds a (lo, hi) pair per dimension, or is None.  The
    coefficients are 1, 2, 1/2 and 1/2.  The start is axis-aligned, with
    steps of 5% of each bound range when bounded (0.05 on a flat side) and
    0.05 max(|x0|, 1) otherwise (1e-8 where a step is lost in x0).  Every
    point is clipped into the box.  The search stops 'converged' when the
    simplex's cost spread is at most ``tol * (1 + |best|)``, or 'max-iter'
    after ``max_iter`` iterations, and returns its best vertex, the first on
    ties.  Raises ValueError if a bound's lo exceeds its hi and RuntimeError
    if the objective returns NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    if bounds is None:
        # a box of +-inf, which clipping leaves every point of
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        steps = 0.05 * np.maximum(np.abs(x0), 1.0)
    else:
        lo, hi = np.array(bounds, dtype=float).T
        if np.any(lo > hi):
            raise ValueError("bound lo must not exceed hi")
        steps = np.where(hi > lo, 0.05 * (hi - lo), 0.05)

    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    def feval(x):
        v = float(f(x))
        if np.isnan(v):
            raise RuntimeError(f"objective returned NaN at x={x!r}")
        return v

    base = clip(x0)
    S = np.repeat(base[None], n + 1, axis=0)
    diag = np.arange(n)
    S[diag + 1, diag] = clip(base + np.where(base + steps != base, steps, 1e-8))
    F = np.array([feval(x) for x in S])
    n_eval, status = n + 1, "max-iter"
    for _ in range(max_iter):
        order = np.argsort(F)
        S, F = S[order], F[order]
        if F[-1] - F[0] <= tol * (1.0 + abs(F[0])):
            status = "converged"
            break
        centroid = S[:-1].sum(axis=0) / n
        # reflection, expansion and contraction lie at c + coef * (c - worst)
        d = centroid - S[-1]
        reflect = clip(centroid + d)
        fr = feval(reflect)
        n_eval += 1
        if fr < F[0]:
            expand = clip(centroid + 2.0 * d)
            fe = feval(expand)
            n_eval += 1
            S[-1], F[-1] = (expand, fe) if fe < fr else (reflect, fr)
        elif fr < F[-2]:
            S[-1], F[-1] = reflect, fr
        else:
            contract = clip(centroid - 0.5 * d)
            fc = feval(contract)
            n_eval += 1
            if fc < F[-1]:
                S[-1], F[-1] = contract, fc
            else:
                # shrink toward the best vertex
                S[1:] = clip(S[0] + 0.5 * (S[1:] - S[0]))
                F[1:] = [feval(x) for x in S[1:]]
                n_eval += n
    best = int(np.argmin(F))
    return OptimResult(x=S[best], fun=float(F[best]), status=status, n_eval=n_eval)


def nelder_mead_restarts(f, x0, draw, n_starts: int, max_iter: int, tol: float,
                         bounds=None) -> OptimResult:
    """Best of ``n_starts`` ``nelder_mead`` runs: from ``x0``, then from drawn points.

    ``draw(rng)`` returns one more start point; the draws come from
    ``np.random.default_rng(0)``, all before the first run.  The first run
    reaching the lowest cost wins.  No search calls it; the tests use it as
    a reference global search, and the benchmark's tracer wraps it.
    """
    rng = np.random.default_rng(0)
    starts = [x0] + [draw(rng) for _ in range(n_starts - 1)]
    return min((nelder_mead(f, x, max_iter, tol, bounds) for x in starts), key=lambda r: r.fun)


def golden_section(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def scalar_minimize(f, bracket: tuple[float, float], n_scan: int = 400,
                    tol: float = 1e-12) -> tuple[float, float]:
    """Global scalar minimization: dense coarse scan, then golden-section
    refinement around every local basin of the scan; returns the best."""
    lo, hi = bracket
    xs = np.linspace(lo, hi, max(3, n_scan))
    return refine_basins(f, xs, np.array([f(x) for x in xs]), tol)


def refine_basins(f, xs, fs, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section refinement of ``f`` around every local basin of a scan.

    ``fs`` holds f at the increasing points ``xs``.  Each interior local
    minimum and the scan's global minimum are refined between their
    neighbours; returns the best (x, f(x)), the scanned points included.
    """
    fs = np.asarray(fs)
    interior = np.flatnonzero((fs[1:-1] <= fs[:-2]) & (fs[1:-1] <= fs[2:])) + 1
    basins = set(int(i) for i in interior)
    basins.add(int(np.argmin(fs)))
    best = (float(xs[np.argmin(fs)]), float(np.min(fs)))
    for i in basins:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, len(xs) - 1)]
        x, v = golden_section(f, a, b, tol)
        if v < best[1]:
            best = (x, v)
    return best


def grid_vertex(fs: np.ndarray, xs: np.ndarray) -> tuple[float, float]:
    """(f, x) at the vertex of the parabola through a scan's best point and
    its two neighbours; the best point itself at the scan's ends.

    ``fs`` holds f at the equally spaced points ``xs``.  Near a simple root
    of a function whose square is scanned, the square is nearly quadratic,
    so the vertex follows the root between grid points.
    """
    k = int(np.argmin(fs))
    if 0 < k < len(fs) - 1:
        lo, mid, hi = (float(c) for c in fs[k - 1:k + 2])
        curv = lo - 2.0 * mid + hi
        if curv > 0.0:
            return (mid - (hi - lo) ** 2 / (8.0 * curv),
                    float(xs[k] + (xs[k + 1] - xs[k]) * (lo - hi) / (2.0 * curv)))
    return float(fs[k]), float(xs[k])


def projected_gradient(f, grad_f, x0, bounds, max_iter: int, tol: float,
                       target: float | None = None, step0: float = 1.0,
                       max_step: float | None = None) -> OptimResult:
    """Projected gradient descent with backtracking line search on a box.

    Stops when the objective reaches ``target`` (if given), when the
    projected step stalls below ``tol``, or after ``max_iter`` iterations.
    Every accepted step lowers the objective.  ``max_step``
    caps the sup-norm of every accepted move, which keeps the iterate close
    to the descent path (useful when the routine serves as an approximate
    nearest-point projection).
    """
    lo, hi = bounds
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = float(f(x))
    n_eval = 1
    step = step0
    status = "max-iter"
    for _ in range(max_iter):
        if target is not None and fx <= target:
            status = "converged"
            break
        g = np.asarray(grad_f(x), dtype=float)
        gmax = float(np.max(np.abs(g)))
        if max_step is not None and gmax > 0:
            step = min(step, max_step / gmax)
        moved = False
        for _ls in range(60):
            cand = np.clip(x - step * g, lo, hi)
            fc = float(f(cand))
            n_eval += 1
            if fc < fx - 1e-16:
                delta = float(np.max(np.abs(cand - x)))
                x, fx = cand, fc
                step *= 1.6  # re-grow after a success so steps track curvature
                moved = True
                if target is None and delta <= tol:
                    status = "converged"
                break
            step *= 0.5
        if not moved:
            status = "line-search-failed" if (target is not None and fx > target) else "converged"
            break
        if status == "converged":
            break
    return OptimResult(x=x, fun=fx, status=status, n_eval=n_eval)


# Levenberg-Marquardt damping factors that ``gauss_newton`` tries, in units
# of the squared Frobenius norm of J, and the relative decrease of |F|^2
# that takes a trial
_DAMPING = np.array((0.0,) + tuple(10.0 ** k for k in range(-8, 1)))
_MIN_DECREASE = 0.01
_EPS = np.finfo(float).eps
# the rung a step taken at its first try lets the next step start from
_RUNG_DOWN = np.maximum(np.arange(len(_DAMPING)) - 1, 0)


def gauss_newton(f_rows, starts, repair) -> list[OptimResult]:
    """Damped Gauss-Newton root solves of F(x) = 0 on B lanes at once, F with 2 real components.

    ``starts`` is (B, n).  ``f_rows(X, lanes)`` returns F at the rows of X
    (k, n) as a (k, 2) array, row i belonging to lane ``lanes[i]``;
    ``repair(X, lanes)`` maps rows back into their lanes' domains (the
    identity where every x is admissible) and is applied to the starts and
    to every trial point.  The settings are the module's, read at call
    time: tolerance ``ROOT_TOL``, at most ``ROOT_STEPS`` steps per lane, and
    Jacobians from ``_fd_rows`` (step ``FD_STEP``).  A trial is a point and
    its forward-difference neighbours, n + 1 rows, and each round makes one
    call over the trials of all active lanes.  A trial step solves
    min |J s + F|^2 + lam |J|^2 |s|^2 (``_lm_steps``); lam = 0 gives the
    minimum-norm Gauss-Newton step -J^+ F.

    A lane takes its trial when |F|^2 falls by at least 1% or to ``ROOT_TOL``,
    and otherwise climbs the damping ladder ``_DAMPING``.  A step taken at
    the first rung it tried lets the next step start one rung lower, so
    steps return to Gauss-Newton near a root (Levenberg-Marquardt; Nocedal
    & Wright, Numerical Optimization, ch. 10); a step that needed a climb
    keeps its rung for the next one.  A trial that lowers |F|^2 by less
    than 1% is a stall only where the linear model predicted no more (it
    gained at least half the model's decrease): that trial is taken and the
    lane ends 'stalled'.  Where the model overshot, the lane climbs on.  A
    lane ends 'converged' at |F|^2 <= ``ROOT_TOL``, 'stalled' also when no rung
    lowers |F|^2, and 'max-iter' after ``ROOT_STEPS`` steps.  Each result's ``fun`` is |F(x)|^2,
    ``n_eval`` counts its lane's rows, ``n_iter`` its steps, and ``F`` and
    ``J`` hold F and its Jacobian at x.  Raises RuntimeError if F is not
    finite at a start; a trial where it is not counts as no decrease.

    Most of a state-prep search is this loop's fixed cost per round.  The
    running lanes' state is updated in place and compacted only in rounds
    where lanes end; on a 2-vCPU host a round's own work, beside a 2-row
    residual of about 1 us, takes about 51, 51, 55 and 67 us at 1, 3, 10 and
    40 lanes, where it took 82, 84, 90 and 109 us with every lane's state
    replaced by ``np.where`` and compacted each round (in process, against
    the frozen copy of that loop in ``tests/reference.py``).
    """
    X = np.array(starts, dtype=float)
    B, n = X.shape
    lanes = np.arange(B)
    X = repair(X, lanes)
    F, J, r = _fd_rows(f_rows, X, lanes)
    if not np.isfinite(r).all():
        raise RuntimeError(f"residual is not finite at x0={X[~np.isfinite(r)][0]!r}")
    F = F.copy()  # a view of f_rows' array; the state arrays are updated in place
    out = [None] * B
    steps = np.zeros(B, dtype=int)
    rung = np.zeros(B, dtype=int)
    fresh = np.ones(B, dtype=bool)  # the lane's last trial was taken, or it has made none
    conv = r <= ROOT_TOL
    stall = np.zeros(B, dtype=bool)
    end = conv | (ROOT_STEPS == 0)
    rounds = 0
    # the state arrays hold the lanes still running, in lane order
    while True:
        if np.count_nonzero(end):
            for i in end.nonzero()[0].tolist():
                out[lanes[i]] = OptimResult(
                    x=X[i], fun=float(r[i]),
                    status="converged" if conv[i] else "stalled" if stall[i] else "max-iter",
                    n_eval=(n + 1) * (rounds + 1), n_iter=int(steps[i]), F=F[i], J=J[i])
            keep = (~end).nonzero()[0]
            if not keep.size:
                return out
            X, F, r, lanes, steps, rung, fresh = (
                a.take(keep, axis=0) for a in (X, F, r, lanes, steps, rung, fresh))
            J = J[keep]  # ``take`` would lose J's layout, and with it the bits of sums over n
        xt = repair(X + _lm_steps(J, F, _DAMPING.take(rung)), lanes)
        Ft, Jt, rt = _fd_rows(f_rows, xt, lanes)
        rounds += 1
        gain = r - rt  # NaN where F is not finite at the trial
        conv = rt <= ROOT_TOL
        moved = conv | (gain >= _MIN_DECREASE * r)
        stall = ~moved & (gain > 0.0)
        if np.count_nonzero(stall):  # a gain below 1%: did the model predict more?
            model = F + (J * (xt - X)[:, None, :]).sum(axis=2)
            stall &= gain >= 0.5 * (r - (model * model).sum(axis=1))
            moved |= stall
        np.copyto(X, xt, where=moved[:, None])
        np.copyto(F, Ft, where=moved[:, None])
        np.copyto(J, Jt, where=moved[:, None, None])
        np.copyto(r, rt, where=moved)
        steps += moved
        rung = np.where(moved, np.where(fresh, _RUNG_DOWN.take(rung), rung), rung + 1)
        fresh = moved
        stall |= rung == len(_DAMPING)
        end = conv | stall | (steps == ROOT_STEPS)


def _lm_steps(J, F, lam) -> np.ndarray:
    """Minimum-norm minimizers s of |J s + F|^2 + lam |J|^2 |s|^2, one per lane.

    J is (L, 2, n), F (L, 2) and lam (L,).  With the 2 x 2 Gram matrix
    G = J J^T, its larger eigenvalue g and mu = lam tr G, s = -J^T (G + mu I)^+ F,
    closed-form over all lanes.  det G is the sum of J's squared 2 x 2
    minors (Cauchy-Binet), accurate also where J is nearly singular.  A G
    whose smaller eigenvalue is at most (eps max(2, n))^2 g, the cutoff of
    ``np.linalg.pinv`` on J's singular values, counts as rank one: then
    J^T (G + mu I)^+ F = J^T G F / (g (g + mu)), which keeps F's part in the
    null space of J^T out of the step also when mu > 0.  Every lane takes
    the rank-two form; only when some lane has det G <= (2 eps max(2, n)
    tr G)^2, which every rank-one lane has as g <= tr G, are g and the
    rank-one form made, and the rank-one lanes take it.
    """
    J0, J1 = J[:, 0], J[:, 1]
    F0, F1 = F[:, 0], F[:, 1]
    G = np.einsum("lin,ljn->lij", J, J)
    p, q, t = G[:, 0, 0], G[:, 0, 1], G[:, 1, 1]
    outer = J0[:, :, None] * J1[:, None, :]
    minors = outer - outer.transpose(0, 2, 1)
    det = 0.5 * np.einsum("lij,lij->l", minors, minors)
    tr = p + t
    mu = lam * tr
    # rank two: (G + mu I)^-1 F, through the adjugate of G + mu I
    d = det + mu * (tr + mu)
    qF0, qF1 = q * F0, q * F1
    w0 = (t + mu) * F0 - qF1
    w1 = (p + mu) * F1 - qF0
    cut = _EPS * max(2, J.shape[2])
    if np.count_nonzero(det <= (2.0 * cut * tr) ** 2):  # else no lane is rank one, as g <= tr
        g = 0.5 * tr + np.hypot(0.5 * (p - t), q)
        one = det <= (cut * g) ** 2
        d = np.where(one, np.where(g > 0.0, g * (g + mu), 1.0), d)
        w0 = np.where(one, p * F0 + qF1, w0)
        w1 = np.where(one, qF0 + t * F1, w1)
    w0 /= d
    w1 /= d
    return -(J0 * w0[:, None] + J1 * w1[:, None])


def _fd_rows(f_rows, X, lanes):
    """F at the rows of X (L, n), their Jacobians (L, m, n) and |F|^2, from one call.

    Each row x is evaluated with its forward-difference neighbours
    x + FD_STEP e_j, and column j of its Jacobian is their difference from
    F(x) over FD_STEP.  Every Jacobian of the root solves and of
    ``smoothing``'s face slope comes from here.
    """
    L, n = X.shape
    rows = np.asarray(f_rows(X.repeat(n + 1, axis=0) + _offsets(L, n, FD_STEP),
                             lanes.repeat(n + 1)), dtype=float).reshape(L, n + 1, -1)
    F = rows[:, 0]
    J = (rows[:, 1:] - F[:, None]).transpose(0, 2, 1) / FD_STEP
    return F, J, np.add.reduce(F * F, axis=1)


@lru_cache(maxsize=256)
def _offsets(L: int, n: int, step: float) -> np.ndarray:
    """``_fd_rows``'s offsets for L rows, read-only: per row a zero row, then ``step`` I."""
    offsets = np.tile(step * np.eye(n + 1, n, -1), (L, 1))
    offsets.flags.writeable = False
    return offsets


def box_root(f_rows, x0, lo, hi) -> OptimResult:
    """Root of F in the box [lo, hi] by ``gauss_newton``, every iterate in the box.

    ``f_rows(X)`` returns F at the rows of X.  ``x0`` is one start (n,) or a
    block of starts (k, n), solved as the lanes of one call; the result is
    the converged lane whose root has the smallest first coordinate, or the
    first lane's when none converges.  The solve stops at |F|^2 <=
    ``ROOT_TOL``, which fixes x only to about |F| / |J|, so the last digits
    of its x would depend on the start.  A converged solve therefore takes
    one more Gauss-Newton step, -J^+ F from the F and J the solve ended
    with, clipped into the box and kept if |F|^2 is no larger.  The result
    is ``gauss_newton``'s, with the kept step counted in ``n_iter`` and its
    row in ``n_eval``.
    """
    def clip(X, lanes):
        return np.minimum(np.maximum(X, lo), hi)

    results = gauss_newton(lambda X, lanes: f_rows(X), np.atleast_2d(x0), clip)
    r = min((r for r in results if r.status == "converged"), key=lambda r: r.x[0],
            default=results[0])
    if r.status != "converged":
        return r
    xt = clip(r.x + _lm_steps(r.J[None], r.F[None], np.zeros(1))[0], None)
    Ft = np.asarray(f_rows(xt[None]), dtype=float)[0]
    rt = float(Ft @ Ft)
    r.n_eval += 1
    if rt <= r.fun:
        r.x, r.fun, r.F, r.J, r.n_iter = xt, rt, Ft, None, r.n_iter + 1
    return r


def dip_roots(f_rows, ts, step: float, ws):
    """Roots of F(T, omega) = 0 at the dips of a scan upward in T, in increasing T.

    ``f_rows(X)`` returns F at the rows (T, omega) of X as a (k, m) array.
    The scan evaluates the grid ``ws`` (equally spaced) at ``SCAN_ROWS``
    times of ``ts`` per call, read at call time; its profile at each T is
    the ``grid_vertex`` (|F|^2, omega) of that grid.  The rows per call
    trade the fixed cost of a call against the rows a call evaluates past
    the dip that ends the scan: when ``f_rows`` evaluates each row alone, as
    the square wave and the third harmonic do, the dips, their solves and
    the roots are the same at any ``SCAN_ROWS``.  At each local minimum of
    the profile, at
    ts[j - 1], ``box_root`` solves F = 0 from the vertex in the box
    [ts[j - 2], ts[j] + step] x [ws[0], ws[-1]].  A solve from the vertex
    can stall at a minimum of |F|^2 that is not a root while a root lies in
    the same box, so a solve that does not converge is followed by one from
    the vertices of the rows ts[j - 2] and ts[j], both starts in one call.
    Every converged solve is yielded as its ``OptimResult``, x = (T, omega).
    Raises RuntimeError when the first profile point already has |F|^2 <=
    ``TARGET_TOL``: the scan starts too late to see the first root.
    """
    prof = []  # (|F|^2, omega) at each scanned T
    for start in range(0, len(ts), SCAN_ROWS):
        block = ts[start:start + SCAN_ROWS]
        F = np.asarray(f_rows(np.column_stack([np.repeat(block, len(ws)),
                                               np.tile(ws, len(block))])))
        prof += [grid_vertex(r, ws) for r in (F ** 2).sum(axis=1).reshape(len(block), -1)]
        if start == 0 and prof[0][0] <= TARGET_TOL:
            raise RuntimeError(f"|F|^2 <= {TARGET_TOL} already at T = {ts[0]}, the scan start")
        for j in range(max(start, 2), len(prof)):
            if prof[j - 2][0] >= prof[j - 1][0] <= prof[j][0]:
                lo, hi = [ts[j - 2], ws[0]], [ts[j] + step, ws[-1]]
                r = box_root(f_rows, [ts[j - 1], prof[j - 1][1]], lo, hi)
                if r.status != "converged":
                    r = box_root(f_rows, [[ts[i], prof[i][1]] for i in (j - 2, j)], lo, hi)
                if r.status == "converged":
                    yield r
