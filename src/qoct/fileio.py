"""Deterministic CSV/JSON emission and pulse-file ingestion.

All floats are written with 12 significant digits, '.' decimal separator,
comma-separated columns and LF line endings, so reruns with identical
configuration produce byte-identical files.
"""
from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .protocols import Protocol, Sampled

__all__ = [
    "fmt",
    "write_csv",
    "write_json",
    "write_pulse_csv",
    "read_pulse_csv",
    "sampled_from_pulse",
    "default_out_dir",
]

OUT_DIR_ENV = "QOCT_OUTDIR"


def fmt(x) -> str:
    """12-significant-digit representation of a float (ints pass through)."""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def default_out_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(OUT_DIR_ENV, "qoct-out"))


def write_csv(path, header: list[str], rows) -> Path:
    """Write a header line and one line per row.

    ``rows`` is either an iterable of rows, each value formatted by ``fmt``,
    or a 2-D float array, formatted by one ``%`` operation: its row template
    of "%.12g" cells, repeated once per row, over the array's Python floats.
    "%.12g" and ``fmt``'s "{:.12g}" are one conversion, so that is ``fmt``'s
    text for the same floats, without its type dispatch on numpy scalars;
    rows holding ints, bools or strings take the iterable form.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        row = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        body = row * len(rows) % tuple(rows.ravel().tolist())
    else:
        body = "".join(",".join(fmt(x) for x in row) + "\n" for row in rows)
    path.write_text(",".join(header) + "\n" + body, encoding="ascii", newline="\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def write_json(path, obj: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="ascii", newline="\n")
    return path


def write_pulse_csv(path, protocol: Protocol) -> Path:
    """Write a `t,u` pulse file, one row per uniform grid point (left edges).

    A ``Sampled`` protocol gives one row per cell; any other is sampled at
    the midpoints of 2001 equal cells.
    """
    if isinstance(protocol, Sampled):
        times = np.arange(protocol.n_t) * protocol.dt
        vals = protocol.values
    else:
        n = 2001
        times = np.linspace(0.0, protocol.T, n, endpoint=False)
        vals = np.asarray(protocol.u(times + 0.5 * (protocol.T / n)), dtype=float)
    return write_csv(path, ["t", "u"], np.column_stack((times, vals)))


_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _separator_in_a_row(path: Path) -> bool:
    """Whether a line of the file that holds more than whitespace holds one of U+001C-U+001F.

    np.loadtxt strips them around a cell as whitespace, and float refuses
    them.  One pass over the raw bytes rules them out at C speed; only a
    file that holds one is read again line by line.
    """
    with path.open("rb") as raw:
        blocks = iter(lambda: raw.read(1 << 16), b"")
        if not any(c.encode() in block for block in blocks for c in _SEPARATORS):
            return False
    with path.open(newline="\n") as lines:
        return any(c in line for line in lines if not line.isspace() for c in _SEPARATORS)


def read_pulse_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read and validate a `t,u` pulse file.

    Lines end only at LF or CRLF.  Blank and whitespace-only lines are
    skipped wherever they are.  The first line left must be the header
    `t,u` (spaces ignored), and at least two rows must follow, each of
    exactly two numeric cells as ``np.loadtxt`` reads them: comment lines,
    underscore digit groups, non-ASCII digits, the separators U+001C-U+001F
    and any other line break within a row are malformed.  The values must be
    finite and the times strictly increasing and uniform from zero.  The
    file is streamed into ``np.loadtxt`` one stripped line at a time, never
    held whole.  Raises ValueError on malformed input.
    """
    path = Path(path)
    with path.open(newline="\n") as lines:
        rows = filter(None, map(str.strip, lines))
        if next(rows, "").replace(" ", "") != "t,u":
            raise ValueError(f"{path}: expected header 't,u'")
        try:
            first = list(itertools.islice(rows, 2))
            if len(first) == 2:
                data = np.loadtxt(itertools.chain(first, rows), delimiter=",", comments=None,
                                  ndmin=2)
                if data.shape[1] != 2 or _separator_in_a_row(path):
                    raise ValueError
        except ValueError:
            raise ValueError(f"{path}: malformed row, expected two numeric columns 't,u'") from None
    if len(first) < 2:
        raise ValueError(f"{path}: need at least two 't,u' rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value in 't,u' rows")
    t, u = data[:, 0], data[:, 1]
    if abs(t[0]) > 1e-12:
        raise ValueError(f"{path}: time grid must start at 0")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError(f"{path}: times must be strictly increasing")
    # tolerate the jitter left by 12-significant-digit formatting
    step = (t[-1] - t[0]) / (len(t) - 1)
    if np.max(np.abs(dt - step)) > 1e-6 * step:
        raise ValueError(f"{path}: time grid must be uniform")
    return t, u


def sampled_from_pulse(times: np.ndarray, values: np.ndarray, u_max: float) -> Sampled:
    """Interpret pulse rows as cell values on a uniform grid of step t[1]-t[0].

    The amplitude bound allows the rounding of 12-significant-digit rows, so
    a file written at |u| = u_max reads back within the bound.  ``Sampled``
    refuses a u_max that is not finite and positive before the bound is
    tested.
    """
    dt = times[1] - times[0]
    pulse = Sampled(T=float(times[-1] + dt), u_max=float(u_max), values=values)
    if np.max(np.abs(pulse.values)) > u_max + max(1e-12, 1e-11 * u_max):
        raise ValueError("pulse exceeds the amplitude bound u_max")
    return pulse
