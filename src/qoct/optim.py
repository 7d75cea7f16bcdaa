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
"""
from __future__ import annotations

from dataclasses import dataclass

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
# with forward-difference Jacobians of step FD_STEP.
ROOT_TOL = 1e-20
ROOT_STEPS = 25
FD_STEP = 1e-7


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


def gauss_newton(f_rows, starts, h: float, tol: float, max_steps: int,
                 repair) -> list[OptimResult]:
    """Damped Gauss-Newton root solves of F(x) = 0 on B lanes at once, F with 2 real components.

    ``starts`` is (B, n).  ``f_rows(X, lanes)`` returns F at the rows of X
    (k, n) as a (k, 2) array, row i belonging to lane ``lanes[i]``;
    ``repair(X, lanes)`` maps rows back into their lanes' domains (the
    identity where every x is admissible) and is applied to the starts and
    to every trial point.  A trial is a point and its forward-difference
    neighbours x + h e_j, n + 1 rows, and each round makes one call over the
    trials of all active lanes.  A trial step solves min |J s + F|^2 +
    lam |J|^2 |s|^2 (``_lm_steps``); lam = 0 gives the minimum-norm
    Gauss-Newton step -J^+ F.

    A lane takes its trial when |F|^2 falls by at least 1% or to ``tol``,
    and otherwise climbs the damping ladder ``_DAMPING``.  A step taken at
    the first rung it tried lets the next step start one rung lower, so
    steps return to Gauss-Newton near a root (Levenberg-Marquardt; Nocedal
    & Wright, Numerical Optimization, ch. 10); a step that needed a climb
    keeps its rung for the next one.  A trial that lowers |F|^2 by less
    than 1% is a stall only where the linear model predicted no more (it
    gained at least half the model's decrease): that trial is taken and the
    lane ends 'stalled'.  Where the model overshot, the lane climbs on.  A
    lane ends 'converged' at |F|^2 <= ``tol``, 'stalled' also when no rung
    lowers |F|^2, and 'max-iter' after ``max_steps`` steps.  Each result's ``fun`` is |F(x)|^2,
    ``n_eval`` counts its lane's rows, ``n_iter`` its steps, and ``F`` and
    ``J`` hold F and its Jacobian at x.  Raises RuntimeError if F is not
    finite at a start; a trial where it is not counts as no decrease.
    """
    X = np.array(starts, dtype=float)
    B, n = X.shape
    lanes = np.arange(B)
    X = repair(X, lanes)
    # a point and its forward-difference neighbours x + h e_j
    offsets = np.vstack([np.zeros(n), h * np.eye(n)])
    F, J, r = _fd_rows(f_rows, X, lanes, offsets)
    if not np.isfinite(r).all():
        raise RuntimeError(f"residual is not finite at x0={X[~np.isfinite(r)][0]!r}")
    n_eval = np.full(B, n + 1)
    steps = np.zeros(B, dtype=int)
    rung = np.zeros(B, dtype=int)
    out = [None] * B

    def retire(done, status):
        for i in np.flatnonzero(done):
            out[lanes[i]] = OptimResult(x=X[i], fun=float(r[i]), status=str(status[i]),
                                        n_eval=int(n_eval[i]), n_iter=int(steps[i]),
                                        F=F[i], J=J[i])
        return ~done

    # the state arrays hold the lanes still running, in lane order
    end = (r <= tol) | (max_steps == 0)
    keep = retire(end, np.where(r <= tol, "converged", "max-iter"))
    X, F, J, r, lanes = X[keep], F[keep], J[keep], r[keep], lanes[keep]
    n_eval, steps, rung = n_eval[keep], steps[keep], rung[keep]
    climbed = np.zeros(len(lanes), dtype=bool)
    while lanes.size:
        xt = repair(X + _lm_steps(J, F, _DAMPING[rung]), lanes)
        Ft, Jt, rt = _fd_rows(f_rows, xt, lanes, offsets)
        n_eval += n + 1
        model = F + (J * (xt - X)[:, None, :]).sum(axis=2)
        gain = r - rt  # NaN where F is not finite at the trial
        take = (rt <= tol) | (gain >= _MIN_DECREASE * r)
        stall = ~take & (gain > 0.0) & (gain >= 0.5 * (r - (model * model).sum(axis=1)))
        moved = take | stall
        X = np.where(moved[:, None], xt, X)
        F = np.where(moved[:, None], Ft, F)
        J = np.where(moved[:, None, None], Jt, J)
        r = np.where(moved, rt, r)
        steps += moved
        rung = np.where(moved, np.where(climbed, rung, np.maximum(rung - 1, 0)), rung + 1)
        climbed = ~moved  # the lane's last trial failed
        conv = moved & (r <= tol)
        stall |= rung == len(_DAMPING)
        end = conv | stall | (steps == max_steps)
        if end.any():
            keep = retire(end, np.where(conv, "converged", np.where(stall, "stalled", "max-iter")))
            X, F, J, r, lanes = X[keep], F[keep], J[keep], r[keep], lanes[keep]
            n_eval, steps, rung, climbed = n_eval[keep], steps[keep], rung[keep], climbed[keep]
    return out


def _lm_steps(J, F, lam) -> np.ndarray:
    """Minimum-norm minimizers s of |J s + F|^2 + lam |J|^2 |s|^2, one per lane.

    J is (L, 2, n), F (L, 2) and lam (L,).  With the 2 x 2 Gram matrix
    G = J J^T, its larger eigenvalue g and mu = lam tr G, s = -J^T (G + mu I)^+ F,
    closed-form over all lanes.  det G is the sum of J's squared 2 x 2
    minors (Cauchy-Binet), accurate also where J is nearly singular.  A G
    whose smaller eigenvalue is at most (eps max(2, n))^2 g, the cutoff of
    ``np.linalg.pinv`` on J's singular values, counts as rank one: then
    J^T (G + mu I)^+ F = J^T G F / (g (g + mu)), which keeps F's part in the
    null space of J^T out of the step also when mu > 0.
    """
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


def _fd_rows(f_rows, X, lanes, offsets):
    """F at the rows of X, their forward-difference Jacobians and |F|^2, from one call.

    ``offsets`` is (n + 1, n): a zero row, then h times the identity.
    """
    L, n = X.shape
    rows = np.asarray(f_rows((X[:, None] + offsets).reshape(-1, n), np.repeat(lanes, n + 1)),
                      dtype=float).reshape(L, n + 1, -1)
    F = rows[:, 0]
    J = (rows[:, 1:] - F[:, None]).transpose(0, 2, 1) / offsets[1, 0]
    return F, J, (F * F).sum(axis=1)


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

    results = gauss_newton(lambda X, lanes: f_rows(X), np.atleast_2d(x0), FD_STEP, ROOT_TOL,
                           ROOT_STEPS, clip)
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


def dip_roots(f_rows, ts, step: float, ws, chunk: int):
    """Roots of F(T, omega) = 0 at the dips of a scan upward in T, in increasing T.

    ``f_rows(X)`` returns F at the rows (T, omega) of X as a (k, m) array.
    The scan evaluates the grid ``ws`` (equally spaced) at ``chunk`` times
    of ``ts`` per call; its profile at each T is the ``grid_vertex``
    (|F|^2, omega) of that grid.  ``chunk`` trades the fixed cost of a call
    against the rows a call evaluates past the dip that ends the scan: when
    ``f_rows`` evaluates each row alone, as the square wave and the third
    harmonic do, the dips, their solves and the roots are the same at every
    ``chunk``.  At each local minimum of the profile, at
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
    for start in range(0, len(ts), chunk):
        block = ts[start:start + chunk]
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
