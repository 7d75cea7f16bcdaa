"""Exact unitary dynamics of H(t) = (omega0/2) sigma_z + u(t) sigma_x.

With the convention omega0 = 2 used throughout, a constant control u evolves
the qubit by

    U(t, u) = cos(W t) 1 - i sin(W t) (sigma_z + u sigma_x) / W,   W = sqrt(1 + u^2),

so piecewise-constant protocols propagate exactly as ordered products of
closed-form 2x2 unitaries, and the derivative dU/du of each cell is closed
form as well.  Smooth protocols propagate by the fourth-order
commutator-free Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), which is a
product of two such constant-control cells per step.  Every cell lies in
SU(2), [[a, -b*], [b, a*]], so one kernel carries the Cayley-Klein pairs
(a, b) alone, at half the arithmetic of 2x2 products: ``cell_pairs`` builds
them, ``pair_product`` multiplies them, and ``total_pairs`` runs it over a
stack of protocols, one row each.  A terminal cost is read from the
product's pair by ``pmp.CostSpec``, as C + 1 = |F|^2 of its real endpoint
rows F.  ``segment_propagators``, ``ordered_product`` and ``total_unitary``
are the kernel with its pairs written out as matrices, and ``gate_cost``,
``state_prep_cost`` and ``terminal_cost`` the costs of any 2x2 matrix.  No
search or report calls these six: they are the reference formulas for
arbitrary matrices, such as the ODE and ``expm`` results the tests compare
against.  The levels of the kernel's pairwise tree (``pair_levels``) give
every prefix product by a down-sweep (``pair_prefixes``), which serves the
adjoints, gradients and Jacobians of ``pmp``.  ``prefix_states``, and
through it ``propagate``, walks the same tree down for the cells it is
asked for alone when they are few, at log2(n) products per cell, with the
bits of the full down-sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocols import (
    _SMOOTH,
    Protocol,
    ThirdHarmonic,
    _require_finite_positive,
    segment_durations_values,
)

__all__ = [
    "SIGMA_0",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "KET_0",
    "KET_1",
    "TARGET_TOL",
    "ModelParams",
    "BlochPoint",
    "Trajectory",
    "cell_pairs",
    "segment_propagators",
    "segment_derivatives",
    "pair_mul",
    "pair_apply",
    "pair_matrix",
    "pair_product",
    "pair_levels",
    "pair_prefixes",
    "prefix_states",
    "propagation_cells",
    "total_unitary",
    "total_pairs",
    "propagate",
    "state_from_bloch",
    "bloch_angles",
    "bloch_from_state",
    "state_prep_cost",
    "gate_cost",
    "terminal_cost",
    "rabi_protocol",
    "rabi_pi_time",
]

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)

# C + 1 at or below which a terminal cost counts as reaching its target:
# the gate or state the searches stop at and the CLI's exit-3 threshold
TARGET_TOL = 1e-6

# Magnus steps per unit of T/pi for smooth protocols.  A step [t, t + h]
# samples u at the Gauss nodes t + (1/2 -+ sqrt(3)/6) h and applies two
# constant-control cells of length h/2 whose values mix those samples with
# the weights below (first cell first); the error in U stays below 2e-8 for
# u_max in [0.05, 0.5], checked against an adaptive ODE solver in the tests.
MAGNUS_STEPS_PER_PI = 100
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_CF4_WEIGHTS = 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 3.0

# pair_product keeps a and b side by side up to this many cells (cells times
# lanes) and reduces them as separate arrays above it.  On a 2-vCPU
# guest the side-by-side layout took half the time on state-prep stacks such
# as (7, 1) and the separate one half the time on a (160, 100) gate-scan
# block; the two cross between 64 and 512 cells.
_PAIR_AXIS_MAX_CELLS = 256
_NEG_FIRST = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class ModelParams:
    """Qubit model: natural frequency omega0 (default 2) and control bound u_max."""

    u_max: float
    omega0: float = 2.0

    def __post_init__(self):
        _require_finite_positive(self, "u_max", "omega0")

    @property
    def big_omega(self) -> float:
        """Angular frequency of the switching-function oscillation at |u| = u_max."""
        return float(np.sqrt(self.omega0 ** 2 + 4.0 * self.u_max ** 2))


@dataclass(frozen=True)
class BlochPoint:
    """Bloch-sphere angles, polar theta in [0, pi] and azimuthal phi in (-pi, pi].

    phi = -pi names the same meridian as pi and is stored as pi.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError("theta must lie in [0, pi]")
        if self.phi == -np.pi:
            object.__setattr__(self, "phi", np.pi)
        if not (-np.pi < self.phi <= np.pi + 1e-15):
            raise ValueError("phi must lie in (-pi, pi]")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # (n, 2) or, for a block of m states, (n, 2, m) complex

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _cells(durations, values, params: ModelParams):
    """``cell_pairs``, and a function giving ``segment_derivatives`` from the same terms."""
    d = np.asarray(durations, dtype=float)
    values = np.asarray(values, dtype=float)
    h = 0.5 * params.omega0
    w = np.hypot(h, values)
    th = w * d
    c, s = np.cos(th), np.sin(th) / w
    ab = np.empty(c.shape + (2,), dtype=complex)
    np.subtract(c, (1j * h) * s, out=ab[..., 0])
    np.multiply(-1j * s, values, out=ab[..., 1])

    def derivatives():
        dc = -values * d * s
        ds = values * (d * c - s) / w ** 2
        return np.stack((dc - (1j * h) * ds, -1j * (values * ds + s)), axis=-1)

    return ab, derivatives


def cell_pairs(durations, values, params: ModelParams) -> np.ndarray:
    """Cayley-Klein pairs (a, b) = (U00, U10) of the closed-form cells, on a last axis.

    One pair per (duration, value) segment, a = cos(W d) - i h sin(W d)/W
    and b = -i u sin(W d)/W; the cell is [[a, -b*], [b, a*]].
    """
    return _cells(durations, values, params)[0]


def segment_propagators(durations, values, params: ModelParams) -> np.ndarray:
    """Batched closed-form propagators, one per (duration, value) segment.

    The matrices of ``cell_pairs``; no search or report calls this.  A
    closed-form cell is symmetric, so U01 is b itself; U11 is a* + 0, whose
    added zero gives a zero-duration cell the +0 imaginary part of
    cos(W d) + i h sin(W d)/W rather than -0.
    """
    ab = cell_pairs(durations, values, params)
    U = np.empty(ab.shape + (2,), dtype=complex)
    U[..., :, 0] = ab
    U[..., 0, 1] = ab[..., 1]
    U[..., 1, 1] = np.conjugate(ab[..., 0]) + 0.0
    return U


def segment_derivatives(durations, values, params: ModelParams) -> np.ndarray:
    """Pairs (alpha, beta) of the closed-form dU/du, one per (duration, value) segment.

    u is real, so dU/du = [[alpha, -beta*], [beta, alpha*]] like the cell.
    With c = cos(W d), s = sin(W d)/W and dW/du = u/W, dc/du = -u d s and
    ds/du = u (d c - s)/W^2, so alpha = dc/du - i h ds/du and
    beta = -i (u ds/du + s), regular at u = 0 (W >= h > 0).
    """
    return _cells(durations, values, params)[1]()


def pair_mul(a1, b1, a0, b0):
    """Pair of [[a1, -b1*], [b1, a1*]] @ [[a0, -b0*], [b0, a0*]], elementwise over stacks.

    Real combinations of SU(2) matrices, such as dU/du, keep the form.
    """
    a = a1 * a0
    a -= np.conjugate(b1) * b0  # in place: one temporary fewer on long stacks
    b = b1 * a0
    b += np.conjugate(a1) * b0
    return a, b


def pair_apply(ab: np.ndarray, block: np.ndarray) -> np.ndarray:
    """[[a, -b*], [b, a*]] @ block for pairs (..., 2) and blocks (..., 2, m), column by column."""
    a, b = ab[..., 0], ab[..., 1]
    out = np.empty(np.broadcast_shapes(a.shape, block.shape[:-2]) + block.shape[-2:], complex)
    for j in range(block.shape[-1]):  # loops along the stack, not along m <= 2
        x0, x1 = block[..., 0, j], block[..., 1, j]
        out[..., 0, j] = a * x0 - np.conjugate(b) * x1
        out[..., 1, j] = b * x0 + np.conjugate(a) * x1
    return out


def pair_matrix(ab: np.ndarray) -> np.ndarray:
    """The matrices [[a, -b*], [b, a*]] of pairs ab (..., 2), as (..., 2, 2)."""
    U = np.empty(ab.shape + (2,), dtype=complex)
    U[..., :, 0] = ab
    col = U[..., :, 1]
    np.conjugate(ab[..., ::-1], out=col)
    np.negative(col[..., 0], out=col[..., 0])
    return U


def _carry(level: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """A reduction level, with the unpaired last element of an odd ``prev`` appended."""
    return np.concatenate([level, prev[-1:]]) if len(prev) % 2 else level


def pair_product(ab: np.ndarray) -> np.ndarray:
    """Cayley-Klein pair of the product of cells ab[k], k = 0 acting first.

    ``ab`` is (n, ..., 2), n >= 1: n cells for every lane of the middle
    axes, each cell the pair (a, b) of the SU(2) matrix [[a, -b*], [b, a*]]
    on the last axis.  Products of the form keep it, so each level of a
    pairwise tree (``pair_levels``) multiplies pairs by ``pair_mul`` over the
    whole stack (Pauly et al., IEEE Trans. Med. Imaging 10, 53 (1991)).
    That is half the arithmetic of a 2x2 product, and it avoids numpy's
    stacked ``matmul``, which costs about 0.5 us per 2x2 matrix.  Returns
    the pair (..., 2) of the whole product.

    Stacks of at most ``_PAIR_AXIS_MAX_CELLS`` cells (n times the lanes)
    keep a and b side by side on the last axis, which takes fewer numpy
    calls per level; larger stacks reduce a and b as separate arrays, whose
    longer inner loops run faster.  Both evaluate the same expressions
    elementwise, so their results agree bit for bit.
    """
    ab = np.asarray(ab)
    if ab.size > 2 * _PAIR_AXIS_MAX_CELLS:
        for a, b in pair_levels(ab):
            pass
        return np.stack((a[0], b[0]), axis=-1)
    while (m := len(ab)) > 1:
        ab0, ab1 = ab[0:m - 1:2], ab[1::2]
        new = ab1 * ab0[..., :1]
        # (-b1*, a1*) times b0
        new += np.conjugate(ab1[..., ::-1]) * (ab0[..., 1:] * _NEG_FIRST)
        ab = _carry(new, ab)
    return ab[0]


def pair_levels(ab: np.ndarray):
    """Up-sweep of the prefix scan: the levels (a, b) of ``pair_product``'s tree.

    Yields the cells of ``ab`` (n, ..., 2), n >= 1, then each level:
    neighbours 2i (acting first) and 2i + 1 multiplied by ``pair_mul``, an
    odd level's last element carried unchanged, up to the whole product.
    """
    a, b = ab[..., 0], ab[..., 1]
    yield a, b
    while (m := len(a)) > 1:
        new_a, new_b = pair_mul(a[1::2], b[1::2], a[0:m - 1:2], b[0:m - 1:2])
        a, b = _carry(new_a, a), _carry(new_b, b)
        yield a, b


def pair_prefixes(levels) -> np.ndarray:
    """Down-sweep of the prefix scan: pairs (n + 1, ..., 2) of P_k = U[k-1] ... U[0].

    From the ``pair_levels`` of n cells, down the tree (Blelloch, "Prefix sums
    and their applications", 1990): an even element's prefix is its
    parent's, an odd one's is its even neighbour times that.  P_0 is the
    identity and P_n the top of the tree.  Each level holds its a and b as
    two contiguous arrays, which the returned pairs view along the last axis.
    """
    *lower, top = levels
    top = np.stack(top)[:, 0]  # (a, b) of the whole product
    P = np.stack((np.ones_like(top), top), axis=1)  # the prefixes of the top level
    P[1, 0] = 0.0
    for a, b in reversed(lower):
        m = len(a)
        E, P = P, np.empty((2, m + 1) + top.shape[1:], complex)
        P[:, 0:m:2] = E[:, :-1]
        P[0, 1:m:2], P[1, 1:m:2] = pair_mul(a[0:m - 1:2], b[0:m - 1:2], *E[:, :m // 2])
    P[:, -1] = top
    return np.moveaxis(P, 0, -1)


def ordered_product(units: np.ndarray) -> np.ndarray:
    """Product U[n-1] @ ... @ U[0] (index 0 acts first) by ``pair_product``.

    ``units`` is (n, ..., 2, 2), a stack of n cells for every lane of the
    trailing axes.  No search or report calls this; it serves
    ``total_unitary``.

    Precondition: every cell has the SU(2) form [[a, -b*], [b, a*]], as the
    ``segment_propagators`` cells, their zero-duration identity pads and the
    Magnus cells of ``propagation_cells`` all have.  Only the Cayley-Klein
    pair (a, b) = (U00, U10) is read; U01 and U11 are not.  The product's
    pair is rebuilt once as [[a, -b*], [b, a*]].
    """
    return pair_matrix(pair_product(np.asarray(units)[..., :, 0]))


def prefix_states(ab: np.ndarray, initial: np.ndarray, k) -> np.ndarray:
    """States entering the cells k: row i is U[k_i - 1] @ ... @ U[0] @ initial.

    ``ab`` holds the Cayley-Klein pairs (n, 2) of n cells (``cell_pairs``),
    ``initial`` is one state (2,) or a block of states (2, m), whose 2x2
    identity gives the prefix unitaries P_k themselves, and ``k`` is a 1-D
    array of indices in [0, n], in any order and repeated at will; k = n
    gives the final state or block.  Row i has the bits of
    ``pair_apply(pair_prefixes(levels)[k_i], initial)``.

    After one up-sweep (``pair_levels``), when the indices are fewer than
    n / (the tree's depth), each distinct index walks down the tree alone,
    through the ``pair_mul`` steps that ``pair_prefixes`` takes for it, in
    the same order: log2(n) products per index, so an audit that samples a
    100,003-cell pulse 4,001 times builds no prefix of the other cells.
    With more indices the full down-sweep costs less, and it runs instead.
    The rows agree with the sequential product to rounding (about 1e-14),
    not bit for bit.
    """
    initial = np.asarray(initial, dtype=complex)
    k = np.asarray(k)
    n = len(ab)
    if k.size and (k.min() < 0 or k.max() > n):
        raise ValueError(f"prefix indices must lie in [0, {n}]")
    levels = list(pair_levels(np.asarray(ab)))
    block = initial.reshape(2, -1)
    if n and k.size * len(levels) >= n:
        states = pair_apply(pair_prefixes(levels), block)[k]
        return states.reshape(k.shape + initial.shape)
    cells, rows = np.unique(k, return_inverse=True)
    P = np.zeros(cells.shape + (2,), complex)
    P[:, 0] = 1.0  # P_0, and with no cells P_n, is the identity
    j = cells[cells < n]
    if n and j.size < cells.size:
        P[-1] = np.stack(levels[-1], axis=-1)[0]
    a, b = P[:j.size].T  # views: the walk writes into P
    for depth in range(len(levels) - 2, -1, -1):
        odd = np.flatnonzero((j >> depth) & 1)
        i = (j[odd] >> depth) - 1
        la, lb = levels[depth]
        a[odd], b[odd] = pair_mul(la[i], lb[i], a[odd], b[odd])
    return pair_apply(P, block)[rows].reshape(k.shape + initial.shape)


def propagation_cells(protocol: Protocol):
    """(durations, values) of the constant-control cells that propagate a protocol.

    Piecewise-constant protocols give their exact segments.  A smooth one
    gives two cells of length h/2 per Magnus step of length h, with
    ``MAGNUS_STEPS_PER_PI`` steps per unit of T/pi.  The cell values mix the
    control at the two Gauss nodes and reach 1.155 u_max: they are not
    samples of the pulse, which ``segment_durations_values`` gives instead.
    """
    if not isinstance(protocol, _SMOOTH):
        return segment_durations_values(protocol)
    n = math.ceil(MAGNUS_STEPS_PER_PI * protocol.T / np.pi)
    h = protocol.T / n
    nodes = (np.arange(n)[:, None] + _GAUSS_NODES) * h
    vals = np.asarray(protocol.u(nodes), dtype=float) @ _CF4_WEIGHTS.T
    return np.full(2 * n, 0.5 * h), vals.ravel()


def total_unitary(protocol: Protocol, params: ModelParams) -> np.ndarray:
    """Total evolution operator of a protocol over [0, T], as a 2x2 matrix.

    No search or report calls this: they read ``total_pairs``.  It is the
    matrix reference that the tests compare the pair kernel against.
    """
    durs, vals = propagation_cells(protocol)
    return ordered_product(segment_propagators(durs, vals, params))


def total_pairs(protocols, params: ModelParams) -> np.ndarray:
    """Cayley-Klein pairs (U00, U10) of the total unitaries of many protocols, (rows, 2).

    Each protocol's ``propagation_cells`` fill one row of a (cells, rows)
    stack, shorter rows padded at the end with zero-duration identity
    cells, and one ``pair_product`` multiplies every row.  The padding
    leaves the bits of each row's product alone, so row k has the bits of
    ``total_unitary(protocols[k], params)[:, 0]``.
    """
    cells = [propagation_cells(p) for p in protocols]
    n = max(len(d) for d, _ in cells)
    durs = np.zeros((n, len(cells)))
    vals = np.zeros((n, len(cells)))
    for k, (d, v) in enumerate(cells):
        durs[:len(d), k] = d
        vals[:len(v), k] = v
    return pair_product(cell_pairs(durs, vals, params))


def propagate(protocol: Protocol, params: ModelParams, initial: np.ndarray,
              n_samples: int = 2001) -> Trajectory:
    """Propagate a state (2,) or a block of states (2, m) on a uniform grid.

    Piecewise-constant protocols are integrated exactly; within each segment
    the sampled states are U(t - t_seg, u_seg) applied to the segment-entry
    state, so there is no time-stepping error anywhere.  Every cell and
    sample is a Cayley-Klein pair (``cell_pairs``), the entry states of the
    cells that hold a sample come from ``prefix_states`` and the samples from
    ``pair_apply``, so a pulse of many more cells than samples builds only
    the prefixes it samples.  The identity as ``initial`` samples the
    evolution operator U(t) itself.

    A smooth protocol is propagated through its Magnus cells
    (``propagation_cells``), which are fourth order at step boundaries and
    at T (errors of about 1e-8 at u_max = 0.2).  A sample inside a step sees
    a cell value rather than the pulse and is only second order there (1.6e-5
    to 3.2e-5 at u_max = 0.2).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    durs, vals = propagation_cells(protocol)
    bounds = np.concatenate([[0.0], np.cumsum(durs)])
    bounds[-1] = protocol.T
    initial = np.asarray(initial, dtype=complex)
    times = np.linspace(0.0, protocol.T, n_samples)
    seg = np.clip(np.searchsorted(bounds, times, side="right") - 1, 0, len(durs) - 1)
    entry = prefix_states(cell_pairs(durs, vals, params), initial.reshape(2, -1), seg)
    local = cell_pairs(times - bounds[seg], vals[seg], params)
    states = pair_apply(local, entry).reshape((n_samples,) + initial.shape)
    return Trajectory(times=times, states=states)


def state_from_bloch(b: BlochPoint) -> np.ndarray:
    """|psi> = [cos(theta/2), sin(theta/2) e^{i phi}]."""
    return np.array([np.cos(b.theta / 2.0),
                     np.sin(b.theta / 2.0) * np.exp(1j * b.phi)], dtype=complex)


def bloch_angles(states) -> tuple[np.ndarray, np.ndarray]:
    """Bloch angles (theta, phi) of a stack of states (n, 2), after removing global phases.

    Each state is normalized, and its phase fixed so the first amplitude is
    real and nonnegative; at either pole (an amplitude below 1e-14) phi = 0.
    theta lies in [0, pi] and phi in (-pi, pi].  Every ufunc runs on
    contiguous real rows, so a state has the same angles alone (as
    ``bloch_from_state`` takes them) as in any stack: numpy rounds some
    functions differently in its loops over contiguous and strided input.
    """
    psi = np.ascontiguousarray(states, dtype=complex).reshape(-1, 2)
    re0, im0, re1, im1 = psi.view(float).T.copy()
    # the sums in np.linalg.norm's order (whose BLAS dot may fuse a multiply
    # and an add), and the division as numpy divides complex by real numbers:
    # a product with the reciprocal
    norm = np.sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))
    if np.any(norm < 1e-14):
        raise ValueError("zero vector has no Bloch representation")
    scale = 1.0 / norm
    for part in (re0, im0, re1, im1):
        part *= scale
    a0, a1 = np.hypot(re0, im0), np.hypot(re1, im1)
    theta = (2.0 * np.arctan2(a1, a0)).clip(0.0, np.pi)
    phi = np.arctan2(im1, re1) - np.arctan2(im0, re0)
    phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
    phi[phi <= -np.pi + 1e-15] = np.pi
    phi[(a0 < 1e-14) | (a1 < 1e-14)] = 0.0
    return theta, phi


def bloch_from_state(psi: np.ndarray) -> BlochPoint:
    """Bloch angles of one state: the one-row case of ``bloch_angles``."""
    theta, phi = bloch_angles(np.asarray(psi)[None])
    return BlochPoint(theta=float(theta[0]), phi=float(phi[0]))


def _overlap_cost(f0, f1, target: np.ndarray):
    """-|<target|f>|^2 of final states f = (f0, f1), clamped at -1.

    The overlap is formed in real arithmetic, one rounding per operation,
    so a state's cost has the same bits alone and in any stack.  A perfect
    overlap can round one ulp above 1, hence the clamp.
    """
    p0, q0, p1, q1 = f0.real, f0.imag, f1.real, f1.imag
    a, b = np.real(target), np.imag(target)
    re = (a[0] * p0 + b[0] * q0) + (a[1] * p1 + b[1] * q1)
    im = (a[0] * q0 - b[0] * p0) + (a[1] * q1 - b[1] * p1)
    return np.maximum(-(re * re + im * im), -1.0)


def state_prep_cost(U_total: np.ndarray, init: np.ndarray,
                    target: np.ndarray) -> float | np.ndarray:
    """Terminal cost -|<target| U |init>|^2, in [-1, 0].

    ``U_total`` may be any 2x2 matrix or a stack (..., 2, 2), giving one
    cost per matrix.  U |init> is written out by rows, which has the bits of
    ``U @ init``.  No search or report calls this: they read C + 1 = |G|^2
    from ``pmp.CostSpec``, which does not cancel near the target.  It is the
    reference formula for any 2x2 matrix, such as an ODE or ``expm`` result.
    """
    U = np.asarray(U_total)
    return _overlap_cost(U[..., 0, 0] * init[0] + U[..., 0, 1] * init[1],
                         U[..., 1, 0] * init[0] + U[..., 1, 1] * init[1], target)


def gate_cost(U_total: np.ndarray, kind: str) -> float | np.ndarray:
    """Gate terminal costs C_X, C_Y, C_PT, each in [-1, 0].

    C_X = -|<1|U|0> + <0|U|1>|^2 / 4 demands equal transfer phases in both
    directions; C_Y uses the difference; C_PT ignores phases entirely.
    ``U_total`` may be a stack (..., 2, 2), giving one cost per matrix.  A
    perfect gate's sums can round a few ulp above 1, hence the clamp at -1.
    No search or report calls this: they read C + 1 = |F|^2 from
    ``pmp.CostSpec``.  It is the reference formula for any 2x2 matrix, such
    as an ODE or ``expm`` result.
    """
    u10 = U_total[..., 1, 0]
    u01 = U_total[..., 0, 1]
    kind = kind.lower()
    if kind == "x":
        c = -0.25 * _abs2(u10 + u01)
    elif kind == "y":
        c = -0.25 * _abs2(u10 - u01)
    elif kind == "pt":
        c = -0.5 * (_abs2(u10) + _abs2(u01))
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return np.maximum(c, -1.0)


def _abs2(z):
    """|z|^2 with the bits of the scalar ``abs(z) ** 2`` on arrays as well.

    ``np.abs(z) ** 2`` on an array differs from it in the last bit: the array
    ``abs`` and the array square take other code paths than the scalar ones.
    """
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def terminal_cost(U_total: np.ndarray, kind: str,
                  init: np.ndarray | None = None,
                  target: np.ndarray | None = None) -> float:
    """``state_prep_cost`` for kind 'sp', with ``init`` and ``target``; else ``gate_cost``.

    A reference formula, like those two: no search or report calls it.
    """
    if kind.lower() in ("sp", "state_prep"):
        return state_prep_cost(U_total, init, target)
    return gate_cost(U_total, kind)


def rabi_pi_time(params: ModelParams) -> float:
    """Duration pi/u_max of the resonant Rabi pi-pulse."""
    return np.pi / params.u_max


def rabi_protocol(params: ModelParams) -> ThirdHarmonic:
    """Resonant Rabi pi-pulse u_max cos(omega0 (t - T/2)) with T = pi/u_max.

    It is the two-harmonic pulse at omega0 with mixing ratio R = 0.
    """
    return ThirdHarmonic(u_max=params.u_max, T=rabi_pi_time(params), omega=params.omega0,
                         ratio=0.0)
