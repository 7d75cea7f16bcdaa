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


def _clip(x, bounds):
    if bounds is None:
        return x
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.minimum(np.maximum(x, lo), hi)


def nelder_mead(f, x0, config: OptimizerConfig = OptimizerConfig()) -> OptimResult:
    """Reflect/expand/contract/shrink simplex minimization with bound clipping.

    Raises RuntimeError if the objective returns NaN.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    bounds = config.bounds
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    def feval(x):
        v = float(f(x))
        if np.isnan(v):
            raise RuntimeError(f"objective returned NaN at x={x!r}")
        return v

    # axis-aligned initial simplex; steps of 5% of each bound range when
    # bounded, otherwise scale-aware absolute steps
    if bounds is not None:
        steps = np.array([0.05 * (hi - lo) if hi > lo else 0.05 for lo, hi in bounds])
    else:
        steps = 0.05 * np.maximum(np.abs(x0), 1.0)
    simplex = [np.array(_clip(x0, bounds), dtype=float)]
    for i in range(n):
        p = simplex[0].copy()
        p[i] += steps[i] if p[i] + steps[i] != p[i] else 1e-8
        simplex.append(np.array(_clip(p, bounds)))
    fvals = [feval(p) for p in simplex]
    n_eval = n + 1

    status = "max-iter"
    for _ in range(config.max_iter):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if abs(fvals[-1] - fvals[0]) <= config.tol * (1.0 + abs(fvals[0])):
            status = "converged"
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = _clip(centroid + alpha * (centroid - simplex[-1]), bounds)
        fr = feval(xr)
        n_eval += 1
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
            continue
        if fr < fvals[0]:
            xe = _clip(centroid + gamma * (centroid - simplex[-1]), bounds)
            fe = feval(xe)
            n_eval += 1
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
            continue
        xc = _clip(centroid + rho * (simplex[-1] - centroid), bounds)
        fc = feval(xc)
        n_eval += 1
        if fc < fvals[-1]:
            simplex[-1], fvals[-1] = xc, fc
            continue
        for i in range(1, n + 1):
            simplex[i] = _clip(simplex[0] + sigma * (simplex[i] - simplex[0]), bounds)
            fvals[i] = feval(simplex[i])
        n_eval += n

    best = int(np.argmin(fvals))
    return OptimResult(x=simplex[best], fun=fvals[best], status=status, n_eval=n_eval)


def nelder_mead_restarts(f, x0, config: OptimizerConfig = OptimizerConfig(),
                         sampler=None) -> OptimResult:
    """Best of ``config.restarts`` Nelder-Mead runs from seeded start points.

    ``sampler(rng)`` draws additional start points; the provided ``x0`` is
    always tried first.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    best = nelder_mead(f, x0, config)
    for _ in range(max(0, config.restarts - 1)):
        if sampler is not None:
            start = sampler(rng)
        elif config.bounds is not None:
            start = np.array([rng.uniform(lo, hi) for lo, hi in config.bounds])
        else:
            start = np.asarray(x0, dtype=float) * (1.0 + 0.3 * rng.standard_normal(len(np.atleast_1d(x0))))
        r = nelder_mead(f, start, config)
        if r.fun < best.fun:
            best = r
    return best


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
