"""Derivative-free and gradient-based optimizers shared by the search modules.

All routines are deterministic for a fixed seed, respect box bounds exactly
(iterates are clipped, never merely penalized), and report a status instead
of raising on slow convergence.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OptimizerConfig",
    "OptimResult",
    "nelder_mead",
    "nelder_mead_restarts",
    "lockstep_nelder_mead",
    "scalar_minimize",
    "refine_basins",
    "golden_section",
    "projected_gradient",
]


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 2000
    tol: float = 1e-10
    restarts: int = 20
    seed: int = 0
    bounds: tuple | None = None  # per-dimension (lo, hi)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.bounds is not None:
            for lo, hi in self.bounds:
                if lo > hi:
                    raise ValueError("bound lo must not exceed hi")


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    status: str  # 'converged' | 'max-iter' | 'line-search-failed'
    n_eval: int = 0
    trace: list = field(default_factory=list)


def nelder_mead(f, x0, config: OptimizerConfig = OptimizerConfig()) -> OptimResult:
    """Reflect/expand/contract/shrink simplex minimization with bound clipping.

    One lane of ``lockstep_nelder_mead``.  Raises RuntimeError if the
    objective returns NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    lo, hi = _box(config.bounds)
    return lockstep_nelder_mead(_by_rows(f), x0[None], lo, hi,
                                config.max_iter, config.tol)[0]


def nelder_mead_restarts(f, x0, config: OptimizerConfig = OptimizerConfig(),
                         sampler=None) -> OptimResult:
    """Best of ``config.restarts`` Nelder-Mead runs from seeded start points.

    ``sampler(rng)`` draws additional start points; the provided ``x0`` is
    always tried first.  The runs are lanes of one ``lockstep_nelder_mead``
    call, and the first run reaching the lowest cost wins.  Deterministic for
    a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    starts = [np.asarray(x0, dtype=float)]
    for _ in range(max(0, config.restarts - 1)):
        if sampler is not None:
            start = sampler(rng)
        elif config.bounds is not None:
            start = np.array([rng.uniform(lo, hi) for lo, hi in config.bounds])
        else:
            start = np.asarray(x0, dtype=float) * (1.0 + 0.3 * rng.standard_normal(len(np.atleast_1d(x0))))
        starts.append(start)
    lo, hi = _box(config.bounds)
    runs = lockstep_nelder_mead(_by_rows(f), np.array(starts), lo, hi,
                                config.max_iter, config.tol)
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
    ``lanes[i]``.  Every reflect, expand, contract and shrink phase makes one
    call over the lanes that need it, and each lane takes exactly the steps
    (and gets exactly the bits) of a run on its own.  A lane stops when its
    simplex's cost spread is at most ``tol * (1 + |best|)`` or after
    ``max_iter`` iterations; the results come back in lane order.

    Raises RuntimeError if the objective returns NaN.
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    X0 = np.array(starts, dtype=float)
    B, n = X0.shape
    if lo is not None:
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (B, n))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (B, n))
        if np.any(lo > hi):
            raise ValueError("bound lo must not exceed hi")

    def clip(x, lanes):
        if lo is None:
            return x
        return np.minimum(np.maximum(x, lo[lanes]), hi[lanes])

    def feval(X, lanes):
        v = np.asarray(f(X, lanes), dtype=float)
        if np.any(np.isnan(v)):
            raise RuntimeError(f"objective returned NaN at x={X[np.argmax(np.isnan(v))]!r}")
        return v

    # axis-aligned initial simplex; steps of 5% of each bound range when
    # bounded, otherwise scale-aware absolute steps
    lanes = np.arange(B)
    if lo is not None:
        steps = np.where(hi > lo, 0.05 * (hi - lo), 0.05)
    else:
        steps = 0.05 * np.maximum(np.abs(X0), 1.0)
    base = clip(X0, lanes)
    S = np.repeat(base[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    S[:, diag + 1, diag] = clip(base + np.where(base + steps != base, steps, 1e-8), lanes)
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

    for _ in range(max_iter):
        order = np.argsort(F, axis=1)
        rows = np.arange(len(F))[:, None]
        F, S = F[rows, order], S[rows, order]
        keep = np.abs(F[:, -1] - F[:, 0]) > tol * (1.0 + np.abs(F[:, 0]))
        if not keep.all():
            retire(~keep, True)
            S, F, n_eval, lanes = S[keep], F[keep], n_eval[keep], lanes[keep]
            if not lanes.size:
                break
        centroid = np.mean(S[:, :-1], axis=1)
        worst = S[:, -1]
        xr = clip(centroid + alpha * (centroid - worst), lanes)
        fr = feval(xr, lanes)
        n_eval += 1
        # (xr, fr) becomes each lane's replacement for its worst vertex: the
        # reflection when f0 <= fr < f[-2], else the better of expansion and
        # reflection when fr < f0, else the contraction if it beats the worst;
        # a lane whose contraction fails shrinks toward its best vertex instead
        expand = np.flatnonzero(fr < F[:, 0])
        contract = np.flatnonzero(fr >= F[:, -2])
        if expand.size:
            c, ln = centroid[expand], lanes[expand]
            xe = clip(c + gamma * (c - worst[expand]), ln)
            fe = feval(xe, ln)
            n_eval[expand] += 1
            better = fe < fr[expand]
            xr[expand[better]] = xe[better]
            fr[expand[better]] = fe[better]
        shrink = contract[:0]
        if contract.size:
            c, ln = centroid[contract], lanes[contract]
            xc = clip(c + rho * (worst[contract] - c), ln)
            fc = feval(xc, ln)
            n_eval[contract] += 1
            ok = fc < F[contract, -1]
            xr[contract[ok]] = xc[ok]
            fr[contract[ok]] = fc[ok]
            shrink = contract[~ok]
        replace = np.ones(len(lanes), dtype=bool)
        replace[shrink] = False
        S[replace, -1] = xr[replace]
        F[replace, -1] = fr[replace]
        if shrink.size:
            ln = np.repeat(lanes[shrink], n)
            b = S[shrink, :1]
            P = clip((b + sigma * (S[shrink, 1:] - b)).reshape(-1, n), ln)
            S[shrink, 1:] = P.reshape(-1, n, n)
            F[shrink, 1:] = feval(P, ln).reshape(-1, n)
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


def projected_gradient(f, grad_f, x0, bounds, config: OptimizerConfig = OptimizerConfig(),
                       target: float | None = None, step0: float = 1.0,
                       max_step: float | None = None,
                       keep_trace: bool = False) -> OptimResult:
    """Projected gradient descent with backtracking line search on a box.

    Stops when the objective reaches ``target`` (if given), when the
    projected step stalls below tolerance, or at the iteration cap.  The
    objective trace is monotone nonincreasing by construction.  ``max_step``
    caps the sup-norm of every accepted move, which keeps the iterate close
    to the descent path (useful when the routine serves as an approximate
    nearest-point projection).
    """
    lo, hi = bounds
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = float(f(x))
    n_eval = 1
    step = step0
    trace = [fx] if keep_trace else []
    status = "max-iter"
    for _ in range(config.max_iter):
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
                if keep_trace:
                    trace.append(fx)
                step *= 1.6  # re-grow after a success so steps track curvature
                moved = True
                if target is None and delta <= config.tol:
                    status = "converged"
                break
            step *= 0.5
        if not moved:
            status = "line-search-failed" if (target is not None and fx > target) else "converged"
            break
        if status == "converged":
            break
    return OptimResult(x=x, fun=fx, status=status, n_eval=n_eval, trace=trace)
