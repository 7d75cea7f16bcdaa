"""Independent 2x2 propagation used to check qoct's outputs.

Nothing here imports qoct.  Each cell's Hamiltonian
H = (omega0/2) sigma_z + u sigma_x is diagonalised with ``numpy.linalg.eigh``
and exponentiated in its eigenbasis, so a fault in ``qoct.dynamics`` cannot
hide itself by also being the reference.
"""
from __future__ import annotations

import numpy as np

OMEGA0 = 2.0
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def cell_propagators(durations, values, omega0: float = OMEGA0) -> np.ndarray:
    """exp(-i H_k t_k) for every cell k, shape (n, 2, 2)."""
    durations = np.asarray(durations, dtype=float)
    values = np.asarray(values, dtype=float)
    h = np.zeros(values.shape + (2, 2))
    h[..., 0, 0] = 0.5 * omega0
    h[..., 1, 1] = -0.5 * omega0
    h[..., 0, 1] = values
    h[..., 1, 0] = values
    energies, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * durations[..., None])
    return np.einsum("...ik,...k,...jk->...ij", vecs, phases, vecs)


def product(units: np.ndarray) -> np.ndarray:
    """U[n-1] ... U[0] (cell 0 acts first), by a balanced tree of products."""
    units = np.asarray(units, dtype=complex)
    while len(units) > 1:
        if len(units) % 2:
            units = np.concatenate([units, np.eye(2, dtype=complex)[None]])
        units = units[1::2] @ units[0::2]
    return units[0]


def prefix_products(units: np.ndarray) -> np.ndarray:
    """P[k] = U[k-1] ... U[0] for k = 0..n, with P[0] the identity.

    Blocked scan: products within sqrt(n)-sized blocks are vectorized across
    blocks, and only the block carries are chained one by one.
    """
    n = len(units)
    b = max(1, int(np.ceil(np.sqrt(n))))
    nb = -(-n // b)
    padded = np.broadcast_to(np.eye(2, dtype=complex), (nb * b, 2, 2)).copy()
    padded[:n] = units
    blocks = padded.reshape(nb, b, 2, 2)
    within = np.empty_like(blocks)
    within[:, 0] = blocks[:, 0]
    for i in range(1, b):
        within[:, i] = blocks[:, i] @ within[:, i - 1]
    carries = np.empty((nb, 2, 2), dtype=complex)
    carry = np.eye(2, dtype=complex)
    for j in range(nb):
        carries[j] = carry
        carry = within[j, -1] @ carry
    out = np.empty((n + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    out[1:] = (within @ carries[:, None]).reshape(nb * b, 2, 2)[:n]
    return out


def gate_gap(total: np.ndarray, kind: str) -> float:
    """C + 1 for the gate costs C_X, C_Y (transfer phases) and C_PT."""
    u10, u01 = total[1, 0], total[0, 1]
    if kind == "x":
        cost = -0.25 * abs(u10 + u01) ** 2
    elif kind == "y":
        cost = -0.25 * abs(u10 - u01) ** 2
    elif kind == "pt":
        cost = -0.5 * (abs(u10) ** 2 + abs(u01) ** 2)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return float(cost + 1.0)


def bloch_state(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def transfer_fidelity(total: np.ndarray, init: np.ndarray, target: np.ndarray) -> float:
    return float(abs(np.vdot(target, total @ init)) ** 2)


def bang_cells(switch_times, values, T: float):
    """(durations, values) of a piecewise-constant control from its switch times."""
    bounds = np.concatenate([[0.0], np.asarray(switch_times, dtype=float), [T]])
    return np.diff(bounds), np.asarray(values, dtype=float)


def x_gate_lambda0(values: np.ndarray, T: float, n_samples: int = 4001,
                   omega0: float = OMEGA0) -> float:
    """-mean of the control-Hamiltonian H_oc over a uniform sample grid, C_X cost.

    The control is a uniform grid of cells on [0, T].  The adjoints follow
    from the terminal conditions -(m/2)|1>, -(m/2)|0> with
    m = <1|U|0> + <0|U|1>, and H_oc = Re[-i <lambda|H|psi>] is summed over the
    |0> and |1> trajectories.  A sample on a cell edge takes the later cell's
    control, the edges being the running sums of the cell width.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    dt = T / n
    pref = prefix_products(cell_propagators(np.full(n, dt), values, omega0))
    total = pref[-1]
    edges = np.concatenate([[0.0], np.cumsum(np.full(n, dt))])
    edges[-1] = T
    times = np.linspace(0.0, T, n_samples)
    cell = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, n - 1)
    u = values[cell]
    at = cell_propagators(times - edges[cell], u, omega0) @ pref[cell]
    m = total[1, 0] + total[0, 1]
    hoc = np.zeros(n_samples)
    for col, lam_T in ((0, -(m / 2.0) * KET1), (1, -(m / 2.0) * KET0)):
        psi = at[:, :, col]
        lam = at @ (total.conj().T @ lam_T)
        h_psi = np.stack([0.5 * omega0 * psi[:, 0] + u * psi[:, 1],
                          u * psi[:, 0] - 0.5 * omega0 * psi[:, 1]], axis=1)
        hoc += np.real(-1j * np.sum(lam.conj() * h_psi, axis=1))
    return float(-np.mean(hoc))
