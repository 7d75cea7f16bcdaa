"""Exact unitary dynamics of H(t) = (omega0/2) sigma_z + u(t) sigma_x.

With the convention omega0 = 2 used throughout, a constant control u evolves
the qubit by

    U(t, u) = cos(W t) 1 - i sin(W t) (sigma_z + u sigma_x) / W,   W = sqrt(1 + u^2),

so piecewise-constant protocols propagate exactly as ordered products of
closed-form 2x2 unitaries.  Smooth protocols are reduced to a dense uniform
grid first (see :mod:`qoct.protocols`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocols import (
    DEFAULT_POINTS_PER_PI,
    Protocol,
    RabiProtocol,
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
    "constant_propagator",
    "segment_propagators",
    "prefix_states",
    "total_unitary",
    "propagate",
    "state_from_bloch",
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
    """Bloch-sphere angles, polar theta in [0, pi] and azimuthal phi in (-pi, pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError("theta must lie in [0, pi]")
        if not (-np.pi < self.phi <= np.pi + 1e-15):
            raise ValueError("phi must lie in (-pi, pi]")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled on a uniform time grid plus the total evolution operator."""

    times: np.ndarray
    states: np.ndarray  # (n, 2) complex
    total: np.ndarray  # (2, 2) complex

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def constant_propagator(t: float, u: float, params: ModelParams) -> np.ndarray:
    """Closed-form evolution operator for a constant control over duration t."""
    if t < 0:
        raise ValueError("duration must be nonnegative")
    h = 0.5 * params.omega0
    w = np.hypot(h, u)
    c = np.cos(w * t)
    s = np.sin(w * t) / w
    return np.array([[c - 1j * s * h, -1j * s * u],
                     [-1j * s * u, c + 1j * s * h]], dtype=complex)


def segment_propagators(durations, values, params: ModelParams) -> np.ndarray:
    """Batched closed-form propagators, one per (duration, value) segment."""
    durations = np.asarray(durations, dtype=float)
    values = np.asarray(values, dtype=float)
    h = 0.5 * params.omega0
    w = np.hypot(h, values)
    th = w * durations
    c = np.cos(th)
    s = np.sin(th) / w
    U = np.empty(durations.shape + (2, 2), dtype=complex)
    U[..., 0, 0] = c - 1j * s * h
    U[..., 1, 1] = c + 1j * s * h
    U[..., 0, 1] = -1j * s * values
    U[..., 1, 0] = -1j * s * values
    return U


def ordered_product(units: np.ndarray) -> np.ndarray:
    """Product U[n-1] @ ... @ U[0] (index 0 acts first) by pairwise reduction."""
    units = np.asarray(units)
    if units.ndim == 2:
        return units
    while units.shape[0] > 1:
        if units.shape[0] % 2:
            tail = units[-1]
            units = np.concatenate([np.matmul(units[1:-1:2], units[0:-1:2]),
                                    tail[None]], axis=0)
        else:
            units = np.matmul(units[1::2], units[0::2])
    return units[0]


def prefix_states(units: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States entering each segment: row k is U[k-1] @ ... @ U[0] @ psi0.

    Returns n+1 rows for n segments, the last being the final state.  The
    adjoint sweep is the same recursion run backward on the daggers:
    ``prefix_states(U.conj().transpose(0, 2, 1)[::-1], lam_T)[::-1]``.
    """
    states = np.empty((len(units) + 1, 2), dtype=complex)
    states[0] = psi0
    for k in range(len(units)):
        states[k + 1] = units[k] @ states[k]
    return states


def total_unitary(protocol: Protocol, params: ModelParams,
                  points_per_pi: int = DEFAULT_POINTS_PER_PI) -> np.ndarray:
    """Total evolution operator of a protocol over [0, T]."""
    durs, vals = segment_durations_values(protocol, points_per_pi)
    return ordered_product(segment_propagators(durs, vals, params))


def propagate(protocol: Protocol, params: ModelParams,
              initial: np.ndarray | None = None, n_samples: int = 2001,
              points_per_pi: int = DEFAULT_POINTS_PER_PI) -> Trajectory:
    """Propagate a state through a protocol, sampling it on a uniform grid.

    Piecewise-constant protocols are integrated exactly; within each segment
    the sampled states are U(t - t_seg, u_seg) applied to the segment-entry
    state, so there is no time-stepping error anywhere.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    psi0 = KET_0 if initial is None else np.asarray(initial, dtype=complex)
    durs, vals = segment_durations_values(protocol, points_per_pi)
    units = segment_propagators(durs, vals, params)

    bounds = np.concatenate([[0.0], np.cumsum(durs)])
    bounds[-1] = protocol.T
    entry = prefix_states(units, psi0)

    times = np.linspace(0.0, protocol.T, n_samples)
    seg = np.clip(np.searchsorted(bounds, times, side="right") - 1, 0, len(durs) - 1)
    local = segment_propagators(times - bounds[seg], vals[seg], params)
    states = np.einsum("nij,nj->ni", local, entry[seg])
    return Trajectory(times=times, states=states, total=ordered_product(units))


def state_from_bloch(b: BlochPoint) -> np.ndarray:
    """|psi> = [cos(theta/2), sin(theta/2) e^{i phi}]."""
    return np.array([np.cos(b.theta / 2.0),
                     np.sin(b.theta / 2.0) * np.exp(1j * b.phi)], dtype=complex)


def bloch_from_state(psi: np.ndarray) -> BlochPoint:
    """Bloch angles of a state, after removing the global phase.

    The phase is fixed so the first amplitude is real and nonnegative; at the
    south pole (c0 = 0) the second amplitude is rotated real positive and
    phi = 0 is returned.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm < 1e-14:
        raise ValueError("zero vector has no Bloch representation")
    psi = psi / norm
    a0, a1 = abs(psi[0]), abs(psi[1])
    theta = 2.0 * np.arctan2(a1, a0)
    if a0 < 1e-14 or a1 < 1e-14:
        phi = 0.0
    else:
        phi = float(np.angle(psi[1]) - np.angle(psi[0]))
        phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
        if phi <= -np.pi + 1e-15:
            phi = np.pi
    return BlochPoint(theta=float(np.clip(theta, 0.0, np.pi)), phi=phi)


def state_prep_cost(U_total: np.ndarray, init: np.ndarray,
                    target: np.ndarray) -> float | np.ndarray:
    """Terminal cost -|<target| U |init>|^2, in [-1, 0].

    ``U_total`` may be a stack (..., 2, 2), giving one cost per matrix.  Each
    overlap is still one ``np.vdot``: the vectorized overlaps (einsum,
    matmul, elementwise) differ from it in the last bit.
    """
    final = U_total @ init
    if final.ndim == 1:
        return -abs(np.vdot(target, final)) ** 2
    costs = [-abs(np.vdot(target, psi)) ** 2 for psi in final.reshape(-1, 2)]
    return np.array(costs).reshape(final.shape[:-1])


def gate_cost(U_total: np.ndarray, kind: str) -> float | np.ndarray:
    """Gate terminal costs C_X, C_Y, C_PT, each in [-1, 0].

    C_X = -|<1|U|0> + <0|U|1>|^2 / 4 demands equal transfer phases in both
    directions; C_Y uses the difference; C_PT ignores phases entirely.
    ``U_total`` may be a stack (..., 2, 2), giving one cost per matrix.
    """
    u10 = U_total[..., 1, 0]
    u01 = U_total[..., 0, 1]
    kind = kind.lower()
    if kind == "x":
        return -0.25 * _abs2(u10 + u01)
    if kind == "y":
        return -0.25 * _abs2(u10 - u01)
    if kind == "pt":
        return -0.5 * (_abs2(u10) + _abs2(u01))
    raise ValueError(f"unknown gate kind {kind!r}")


def _abs2(z):
    """|z|^2 with the bits of the scalar ``abs(z) ** 2`` on arrays as well.

    ``np.abs(z) ** 2`` on an array differs from it in the last bit: the array
    ``abs`` and the array square take other code paths than the scalar ones.
    """
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def terminal_cost(U_total: np.ndarray, kind: str,
                  init: np.ndarray | None = None,
                  target: np.ndarray | None = None) -> float:
    if kind.lower() in ("sp", "state_prep"):
        return state_prep_cost(U_total, init, target)
    return gate_cost(U_total, kind)


def rabi_pi_time(params: ModelParams) -> float:
    """Duration pi/u_max of the resonant Rabi pi-pulse."""
    return np.pi / params.u_max


def rabi_protocol(params: ModelParams) -> RabiProtocol:
    """Resonant Rabi pi-pulse, even about T/2, with T = pi/u_max."""
    return RabiProtocol(u_max=params.u_max, T=rabi_pi_time(params), omega0=params.omega0)
