"""Derivative-free, gradient-based and root-finding optimizers shared by the search modules.

All routines are deterministic (restart draws come from one fixed generator),
respect box bounds exactly (iterates are clipped, never merely penalized),
and report a status instead of raising on slow convergence.  The minimum
times of the square-wave gate and of the third-harmonic pulse are both the
first root of U00(T, omega) = 0 along a scan in T: ``dip_roots`` scans for
the dips and solves each by ``box_root``, damped Gauss-Newton
(``gauss_newton``) held to the dip's box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TARGET_TOL

__all__ = [
    "OptimResult",
    "nelder_mead",
    "nelder_mead_restarts",
    "lockstep_nelder_mead",
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


def nelder_mead(f, x0, max_iter: int, tol: float, bounds=None) -> OptimResult:
    """Reflect/expand/contract/shrink simplex minimization with bound clipping.

    One lane of ``lockstep_nelder_mead``'s engine, evaluating only the points
    its steps use; ``bounds`` holds a (lo, hi) pair per dimension, or is None.
    Raises RuntimeError if the objective returns NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    lo, hi = _box(bounds)
    return _simplex(_by_rows(f), x0[None], lo, hi, max_iter, tol, False)[0]


def nelder_mead_restarts(f, x0, draw, n_starts: int, max_iter: int, tol: float,
                         bounds=None) -> OptimResult:
    """Best of ``n_starts`` Nelder-Mead runs: from ``x0``, then from drawn points.

    ``draw(rng)`` returns one more start point; the draws come from
    ``np.random.default_rng(0)``.  The runs are lanes of one engine run that
    evaluates only the points their steps use, as ``nelder_mead`` does, and
    the first run reaching the lowest cost wins.
    """
    rng = np.random.default_rng(0)
    starts = [np.asarray(x0, dtype=float)] + [draw(rng) for _ in range(n_starts - 1)]
    lo, hi = _box(bounds)
    runs = _simplex(_by_rows(f), np.array(starts), lo, hi, max_iter, tol, False)
    return min(runs, key=lambda r: r.fun)


def _box(bounds):
    if bounds is None:
        return None, None
    return np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])


def _by_rows(f):
    """A lane objective that calls the scalar objective ``f`` on each row."""
    return lambda X, lanes: [float(f(x)) for x in X]


def lockstep_nelder_mead(f, starts, lo, hi, max_iter: int, tol: float) -> list[OptimResult]:
    """Nelder-Mead on B independent lanes, advanced together.

    ``starts`` is (B, n); ``lo`` and ``hi`` are box bounds broadcastable to
    (B, n), or both None for an unbounded search.  ``f(X, lanes)`` returns
    the objective at the rows of X (m, n), row i belonging to lane
    ``lanes[i]``.  Each iteration evaluates the reflection, expansion and
    contraction point of every active lane in one call, the speculative
    form of parallel Nelder-Mead (Lee & Wiswall, Comput. Econ. 30, 171
    (2007)); only an iteration in which some lane shrinks makes a second
    call.  Each lane takes exactly the steps (and gets exactly the bits) of a
    run on its own, and its ``n_eval`` counts only the points those steps
    use.  A lane stops when its simplex's cost spread is at most
    ``tol * (1 + |best|)`` or after ``max_iter`` iterations; the results
    come back in lane order.

    Raises RuntimeError if the objective returns NaN, also at an expansion
    or contraction point that the lane's step then discards.
    """
    return _simplex(f, starts, lo, hi, max_iter, tol, True)


def _simplex(f, starts, lo, hi, max_iter, tol, speculate):
    """The engine behind the Nelder-Mead entry points.

    With ``speculate`` every iteration makes one call of ``f`` over the
    reflection, expansion and contraction points of all active lanes;
    without it, one call for the reflections and one for each of the
    expansions and contractions the lanes then take.
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    # the reflection, expansion and contraction points are c + coef * (c - worst)
    coef = np.array([alpha, gamma, -rho])[:, None, None]
    X0 = np.array(starts, dtype=float)
    B, n = X0.shape
    # axis-aligned initial simplex; steps of 5% of each bound range when
    # bounded, otherwise scale-aware absolute steps (and a box of +-inf,
    # which clipping leaves every point of)
    if lo is None:
        steps = 0.05 * np.maximum(np.abs(X0), 1.0)
        lo, hi = np.full((B, n), -np.inf), np.full((B, n), np.inf)
    else:
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (B, n))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (B, n))
        if np.any(lo > hi):
            raise ValueError("bound lo must not exceed hi")
        steps = np.where(hi > lo, 0.05 * (hi - lo), 0.05)

    def clip(x, lo, hi):
        # lo and hi are the active lanes' bounds, broadcast against x
        return np.minimum(np.maximum(x, lo), hi)

    def feval(X, lanes):
        v = np.asarray(f(X, lanes), dtype=float)
        if np.isnan(v).any():
            raise RuntimeError(f"objective returned NaN at x={X[np.argmax(np.isnan(v))]!r}")
        return v

    lanes = np.arange(B)
    base = clip(X0, lo, hi)
    S = np.repeat(base[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    S[:, diag + 1, diag] = clip(base + np.where(base + steps != base, steps, 1e-8), lo, hi)
    F = feval(S.reshape(B * (n + 1), n), np.repeat(lanes, n + 1)).reshape(B, n + 1)
    n_eval = np.full(B, n + 1)

    x_out = np.empty((B, n))
    f_out = np.empty(B)
    n_eval_out = np.empty(B, dtype=int)
    converged = np.zeros(B, dtype=bool)

    def retire(done, conv):
        # a finished lane reports its best vertex, the first on ties
        best = np.argmin(F[done], axis=1)
        x_out[lanes[done]] = S[done, best]
        f_out[lanes[done]] = F[done, best]
        n_eval_out[lanes[done]] = n_eval[done]
        converged[lanes[done]] = conv

    rows = np.arange(B)  # 0, 1, ... over the active lanes
    for _ in range(max_iter):
        order = np.argsort(F, axis=1)
        F, S = F[rows[:, None], order], S[rows[:, None], order]
        # sorted, so the spread F[:, -1] - F[:, 0] is never negative
        keep = F[:, -1] - F[:, 0] > tol * (1.0 + np.abs(F[:, 0]))
        if not keep.all():
            retire(~keep, True)
            S, F, n_eval, lanes = S[keep], F[keep], n_eval[keep], lanes[keep]
            lo, hi, rows = lo[keep], hi[keep], rows[:len(lanes)]
            if not lanes.size:
                break
        L = len(lanes)
        centroid = S[:, :-1].sum(axis=1) / n
        P = clip(centroid + coef * (centroid - S[:, -1]), lo, hi)
        # V holds the costs at P; the step of each lane replaces its worst
        # vertex: the reflection when f0 <= fr < f[-2], else the better of
        # expansion and reflection when fr < f0, else the contraction if it
        # beats the worst; a lane whose contraction fails shrinks toward its
        # best vertex instead
        if speculate:
            V = feval(P.reshape(3 * L, n), np.concatenate([lanes] * 3)).reshape(3, L)
            expand, contract = V[0] < F[:, 0], V[0] >= F[:, -2]
        else:
            V = np.full((3, L), np.inf)
            V[0] = feval(P[0], lanes)
            expand, contract = V[0] < F[:, 0], V[0] >= F[:, -2]
            V[1, expand] = feval(P[1, expand], lanes[expand])
            V[2, contract] = feval(P[2, contract], lanes[contract])
        n_eval += 1 + expand + contract
        use_e = expand & (V[1] < V[0])
        use_c = contract & (V[2] < F[:, -1])
        shrink = (contract & ~use_c).nonzero()[0]
        if shrink.size:
            # toward the best vertex, from the simplex before the step
            b = S[shrink, :1]
            Q = clip(b + sigma * (S[shrink, 1:] - b), lo[shrink, None], hi[shrink, None])
        step = use_e + 2 * use_c
        S[:, -1], F[:, -1] = P[step, rows], V[step, rows]
        if shrink.size:
            S[shrink, 1:] = Q
            F[shrink, 1:] = feval(Q.reshape(-1, n), np.repeat(lanes[shrink], n)).reshape(-1, n)
            n_eval[shrink] += n
    if lanes.size:
        retire(np.ones(len(lanes), dtype=bool), False)
    return [OptimResult(x=x_out[b], fun=float(f_out[b]),
                        status="converged" if converged[b] else "max-iter",
                        n_eval=int(n_eval_out[b])) for b in range(B)]


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
# below which its step counts as stalled
_DAMPING = (0.0,) + tuple(10.0 ** k for k in range(-8, 1))
_MIN_DECREASE = 0.01


def gauss_newton(f_rows, x0, h: float, tol: float, max_steps: int, repair) -> OptimResult:
    """Damped Gauss-Newton root solve of F(x) = 0, F with m real components, x with n.

    ``f_rows(X)`` returns F at the rows of X (k, n) as a (k, m) array, so
    each iterate x and its forward-difference neighbours x + h e_j are one
    call of n + 1 rows.  Each step solves min |J s + F|^2 + lam |J|^2 |s|^2
    by least squares (``np.linalg.lstsq``); lam = 0 gives the
    minimum-norm Gauss-Newton step -J^+ F.  The damping lam runs up the
    ladder ``_DAMPING`` until |F|^2 decreases, starting one rung below the
    last accepted one, so steps return to Gauss-Newton near a root
    (Levenberg-Marquardt; Nocedal & Wright, Numerical Optimization, ch. 10).
    ``repair`` maps ``x0`` and each trial point back into the domain (the
    identity where every x is admissible).  A trial's rows are those of its
    own Jacobian, so an accepted step costs one call.  Stops with
    'converged' at |F|^2 <= ``tol``, 'stalled' when no damping decreases
    |F|^2 or a step decreases it by less than 1%, and 'max-iter' after
    ``max_steps`` steps.  ``fun`` is |F(x)|^2, ``n_eval`` counts the rows
    evaluated and ``n_iter`` the steps taken.  Raises RuntimeError if F is
    not finite at the start; a trial where it is not counts as no decrease.
    """
    x = repair(np.asarray(x0, dtype=float))
    n = len(x)
    F, J, r = _fd_rows(f_rows, x, h)
    if not np.isfinite(r):
        raise RuntimeError(f"residual is not finite at x0={x!r}")
    n_eval, steps, rung = n + 1, 0, 0
    status = "converged"
    while r > tol:
        if steps == max_steps:
            status = "max-iter"
            break
        scale = float(np.sum(J * J))
        for k in range(rung, len(_DAMPING)):
            A = np.vstack([J, np.sqrt(_DAMPING[k] * scale) * np.eye(n)])
            xt = repair(x + np.linalg.lstsq(A, np.r_[-F, np.zeros(n)], rcond=None)[0])
            Ft, Jt, rt = _fd_rows(f_rows, xt, h)
            n_eval += n + 1
            if rt < r:
                break
        else:
            status = "stalled"
            break
        steps += 1
        slow = rt > (1.0 - _MIN_DECREASE) * r
        x, F, J, r, rung = xt, Ft, Jt, rt, max(k - 1, 0)
        if slow and r > tol:
            status = "stalled"
            break
    return OptimResult(x=x, fun=r, status=status, n_eval=n_eval, n_iter=steps)


def _fd_rows(f_rows, x, h: float):
    """F(x), its forward-difference Jacobian of step h and |F(x)|^2, from one call."""
    X = np.repeat(x[None], len(x) + 1, axis=0)
    X[1:] += h * np.eye(len(x))
    F = np.asarray(f_rows(X), dtype=float)
    return F[0], (F[1:] - F[0]).T / h, float(F[0] @ F[0])


def box_root(f_rows, x0, lo, hi) -> OptimResult:
    """Root of F in the box [lo, hi] by ``gauss_newton``, every iterate clipped into it.

    The solve stops at |F|^2 <= ``ROOT_TOL``, which fixes x only to about
    |F| / |J|, so the last digits of its x would depend on ``x0``.  A
    converged solve therefore takes one more Gauss-Newton step, -J^+ F
    clipped into the box, kept if |F|^2 is no larger.  The result is
    ``gauss_newton``'s, with the kept step counted in ``n_iter`` and its
    rows in ``n_eval``.
    """
    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    r = gauss_newton(f_rows, x0, FD_STEP, ROOT_TOL, ROOT_STEPS, clip)
    if r.status != "converged":
        return r
    F, J, _ = _fd_rows(f_rows, r.x, FD_STEP)
    xt = clip(r.x + np.linalg.lstsq(J, -F, rcond=None)[0])
    Ft = np.asarray(f_rows(xt[None]), dtype=float)[0]
    rt = float(Ft @ Ft)
    r.n_eval += len(xt) + 2
    if rt <= r.fun:
        r.x, r.fun, r.n_iter = xt, rt, r.n_iter + 1
    return r


def dip_roots(f_rows, ts, step: float, ws, chunk: int):
    """Roots of F(T, omega) = 0 at the dips of a scan upward in T, in increasing T.

    ``f_rows(X)`` returns F at the rows (T, omega) of X as a (k, m) array.
    The scan evaluates the grid ``ws`` (equally spaced) at ``chunk`` times
    of ``ts`` per call; its profile at each T is the ``grid_vertex``
    (|F|^2, omega) of that grid.  At each local minimum of the profile, at
    ts[j - 1], ``box_root`` solves F = 0 from the vertex in the box
    [ts[j - 2], ts[j] + step] x [ws[0], ws[-1]]; every converged solve is
    yielded as its ``OptimResult``, x = (T, omega).  Raises RuntimeError
    when the first profile point already has |F|^2 <= ``TARGET_TOL``: the
    scan starts too late to see the first root.
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
                r = box_root(f_rows, [ts[j - 1], prof[j - 1][1]],
                             [ts[j - 2], ws[0]], [ts[j] + step, ws[-1]])
                if r.status == "converged":
                    yield r
