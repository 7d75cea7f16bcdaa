"""Control-protocol families for the driven qubit.

Every protocol evaluates u(t) on [0, T], carries its own amplitude bound
``u_max``, and can be sampled onto a uniform piecewise-constant ``Sampled``
grid for pulse files and spectra.  Piecewise-constant families additionally
expose exact segment boundaries so the dynamics can use closed-form
per-segment propagators; smooth ones are propagated by :mod:`qoct.dynamics`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

__all__ = [
    "BangSequence",
    "OneParamBB",
    "TanhProtocol",
    "ThirdHarmonic",
    "Sampled",
    "Protocol",
    "as_sampled",
    "segment_durations_values",
    "square_wave",
    "protocol_to_dict",
    "protocol_from_dict",
    "DEFAULT_POINTS_PER_PI",
]

# Midpoint samples per unit of T/pi when a smooth pulse is written as cells:
# pulse files, spectra and audits.  Propagation does not use these samples.
DEFAULT_POINTS_PER_PI = 8000


def _store_finite_tuple(protocol, name: str) -> None:
    """Store field ``name`` as a tuple of floats, refusing non-finite entries."""
    xs = tuple(float(x) for x in np.atleast_1d(np.asarray(getattr(protocol, name),
                                                          dtype=float)))
    if not all(math.isfinite(x) for x in xs):
        raise ValueError(f"{name} must be finite, got {xs!r}")
    object.__setattr__(protocol, name, xs)


def _require_finite_positive(protocol, *names: str) -> None:
    for name in names:
        v = getattr(protocol, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class BangSequence:
    """Piecewise-constant control with values restricted to {+u_max, -u_max, 0}.

    ``switch_times`` are the interior switching instants, strictly increasing
    inside (0, T); ``values`` holds one entry per segment.
    """

    T: float
    u_max: float
    switch_times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        _store_finite_tuple(self, "switch_times")
        _store_finite_tuple(self, "values")
        _require_finite_positive(self, "T", "u_max")
        ts = self.switch_times
        if len(self.values) != len(ts) + 1:
            raise ValueError("need exactly one value per segment")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("switching times must be strictly increasing")
        if ts and (ts[0] <= 0.0 or ts[-1] >= self.T):
            raise ValueError("switching times must lie strictly inside (0, T)")
        allowed = (self.u_max, -self.u_max, 0.0)
        for v in self.values:
            if min(abs(v - a) for a in allowed) > 1e-12:
                raise ValueError(f"segment value {v} not in {{+u_max, -u_max, 0}}")

    @property
    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], self.switch_times, [self.T]])

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def u(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.switch_times), t, side="right")
        return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]


@dataclass(frozen=True)
class OneParamBB:
    """Bang-bang family u(t) = sign * u_max * Sgn[cos(w_eff (t - T/2))].

    ``parity`` selects cos ('even', X gate) or sin ('odd', Y gate).  All
    middle bangs share the duration pi/w_eff and the first/last bangs are
    equal, so the family is fixed by the single frequency ``omega_eff``.
    """

    omega_eff: float
    T: float
    u_max: float
    sign: int = 1
    parity: str = "even"

    def __post_init__(self):
        _require_finite_positive(self, "omega_eff", "T", "u_max")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")

    def u(self, t):
        t = np.asarray(t, dtype=float)
        x = self.omega_eff * (t - self.T / 2.0)
        carrier = np.cos(x) if self.parity == "even" else np.sin(x)
        s = np.sign(carrier)
        s = np.where(s == 0.0, 1.0, s)
        return self.sign * self.u_max * s

    def to_bang_sequence(self) -> BangSequence:
        bounds, vals = square_wave(self.omega_eff, self.T, self.u_max, self.sign, self.parity)
        return BangSequence(self.T, self.u_max, tuple(bounds[1:-1]), tuple(vals))


def square_wave(omega_eff: float, T: float, u_max: float, sign: float, parity: str):
    """Segments of sign * u_max * Sgn[carrier(omega_eff (t - T/2))] on [0, T].

    The carrier is cos for 'even' parity and sin for 'odd'; its zero
    crossings are the switching times.  Returns (bounds, values): the n+1
    segment boundaries from 0 to T and the n segment values.
    """
    w = float(omega_eff)
    half = T / 2.0
    k = np.arange(int(w * half / np.pi) + 2)
    if parity == "even":
        pos = (np.pi / 2.0 + np.pi * k) / w
        offs = np.concatenate([-pos[::-1], pos])
    else:
        pos = np.pi * (k + 1) / w
        offs = np.concatenate([-pos[::-1], [0.0], pos])
    bounds = np.concatenate([[0.0], offs[np.abs(offs) < half] + half, [T]])
    mids = 0.5 * (bounds[:-1] + bounds[1:]) - half
    carrier = np.cos(w * mids) if parity == "even" else np.sin(w * mids)
    return bounds, sign * u_max * np.sign(carrier)


@dataclass(frozen=True)
class TanhProtocol:
    """Bang-bang waveform with tanh-smoothed switchings.

    u(t) = u_max [ sum_i (-1)^(i+1) tanh(beta (t - t_i)) - 1 ] over the 2N
    mirrored times t_i = T - t_(2N+1-i), so u is even about T/2 and starts
    near -u_max.
    """

    u_max: float
    T: float
    beta: float
    times: tuple[float, ...]

    def __post_init__(self):
        _store_finite_tuple(self, "times")
        _require_finite_positive(self, "u_max", "T", "beta")
        if len(self.times) % 2 != 0:
            raise ValueError("need an even number of switching times")
        if any(t < 0.0 or t > self.T for t in self.times):
            raise ValueError("switching times must lie in [0, T]")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("switching times must be strictly increasing")

    def u(self, t):
        t = np.asarray(t, dtype=float)
        # one in-place np.tanh over a C-ordered (times, t) array, rows added in order
        th = np.subtract(t, np.reshape(self.times, (-1,) + (1,) * t.ndim))
        th *= self.beta
        np.tanh(th, out=th)
        th[1::2] *= -1.0
        acc = -np.ones_like(t)
        for row in th:
            acc += row
        return self.u_max * acc


def mirrored_tanh_times(first_half, T: float) -> tuple[float, ...]:
    """Complete the first N switching times by the t -> T - t mirror."""
    first = sorted(float(t) for t in first_half)
    if any(t <= 0.0 or t >= T / 2.0 for t in first):
        raise ValueError("free switching times must lie in (0, T/2)")
    return tuple(first + [T - t for t in reversed(first)])


@dataclass(frozen=True)
class ThirdHarmonic:
    """Two-harmonic pulse u_max[(1-R) cos(w s) + R cos(3 w s)], s = t - T/2.

    R in [-1/8, 1] keeps the peak amplitude at u_max.  R = 0 at w = omega0
    is the resonant Rabi pulse (``dynamics.rabi_protocol``).
    """

    u_max: float
    T: float
    omega: float
    ratio: float

    def __post_init__(self):
        if not (-0.125 - 1e-12 <= self.ratio <= 1.0 + 1e-12):
            raise ValueError("mixing ratio must lie in [-1/8, 1]")
        _require_finite_positive(self, "u_max", "T", "omega")

    def u(self, t):
        s = np.asarray(t, dtype=float) - self.T / 2.0
        return self.u_max * ((1.0 - self.ratio) * np.cos(self.omega * s)
                             + self.ratio * np.cos(3.0 * self.omega * s))


@dataclass(frozen=True, eq=False)
class Sampled:
    """Uniform-grid piecewise-constant control: value ``values[i]`` on cell i."""

    T: float
    u_max: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        _require_finite_positive(self, "T", "u_max")

    @property
    def n_t(self) -> int:
        return int(self.values.size)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    def u(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t / self.dt).astype(int), 0, self.n_t - 1)
        return self.values[idx]


Protocol = Union[BangSequence, OneParamBB, TanhProtocol, ThirdHarmonic, Sampled]

_SMOOTH = (TanhProtocol, ThirdHarmonic)


def as_sampled(protocol: Protocol, points_per_pi: int = DEFAULT_POINTS_PER_PI) -> Sampled:
    """Sample any protocol onto a uniform piecewise-constant grid.

    Smooth protocols are sampled at cell midpoints, which preserves the
    amplitude bound.
    """
    if isinstance(protocol, Sampled):
        return protocol
    if isinstance(protocol, OneParamBB):
        protocol = protocol.to_bang_sequence()
    T = protocol.T
    n = max(2, math.ceil(points_per_pi * T / np.pi))
    dt = T / n
    mids = (np.arange(n) + 0.5) * dt
    return Sampled(T, protocol.u_max, np.asarray(protocol.u(mids), dtype=float))


def segment_durations_values(protocol: Protocol):
    """(durations, values) of the protocol's piecewise-constant form.

    Exact segments for piecewise-constant protocols; for smooth ones the
    midpoint samples of ``as_sampled``, the physical pulse on a grid.
    """
    if isinstance(protocol, OneParamBB):
        bounds, vals = square_wave(protocol.omega_eff, protocol.T, protocol.u_max,
                                   protocol.sign, protocol.parity)
        return np.diff(bounds), vals
    if isinstance(protocol, BangSequence):
        return protocol.durations, np.asarray(protocol.values)
    if isinstance(protocol, Sampled):
        return np.full(protocol.n_t, protocol.dt), protocol.values
    if isinstance(protocol, _SMOOTH):
        s = as_sampled(protocol)
        return np.full(s.n_t, s.dt), s.values
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


_VARIANTS = {
    "BangSequence": BangSequence,
    "OneParamBB": OneParamBB,
    "Tanh": TanhProtocol,
    "ThirdHarmonic": ThirdHarmonic,
    "Sampled": Sampled,
}
_NAMES = {cls: name for name, cls in _VARIANTS.items()}


def protocol_to_dict(protocol: Protocol) -> dict:
    """JSON-ready form: {variant, params, T, u_max}."""
    params = {}
    for f in fields(protocol):
        if f.name in ("T", "u_max"):
            continue
        v = getattr(protocol, f.name)
        if isinstance(v, np.ndarray):
            v = [float(x) for x in v]
        elif isinstance(v, tuple):
            v = list(v)
        params[f.name] = v
    return {
        "variant": _NAMES[type(protocol)],
        "T": float(protocol.T),
        "u_max": float(protocol.u_max),
        "params": params,
    }


def protocol_from_dict(d: dict) -> Protocol:
    try:
        cls = _VARIANTS[d["variant"]]
    except KeyError:
        raise ValueError(f"unknown protocol variant {d.get('variant')!r}") from None
    kwargs = dict(d.get("params", {}))
    if cls is Sampled:
        kwargs["values"] = np.asarray(kwargs["values"], dtype=float)
    for key in ("switch_times", "values", "times"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    return cls(T=d["T"], u_max=d["u_max"], **kwargs)
