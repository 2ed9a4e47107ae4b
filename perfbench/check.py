"""Result check: the program's state documents and metric outputs against a reference.

The reference state is momentflow's own ``from_batch`` over every record
a document has absorbed. Each integer order n is compared on the scale of
the absolute moment (1/Z)·Σ w|x−mean|^n, computed here with numpy: on
circular complex data |M_2| is near 0 while E|d|^2 is near 2, so a
``M_2^(n/2)`` scale would call rounding noise a mismatch. Metric values
are compared with Σ w·g(x)/Z summed directly over the data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

# Largest accepted scaled error. The incremental path carries rounding
# from every append; integer orders stay near 1e-14 on these inputs.
TOLERANCE = 1e-9

_VALUE = re.compile(r"^value=(.*) n_star=")


@dataclass
class Data:
    """Every record absorbed by one document, as arrays."""

    values: np.ndarray
    weights: np.ndarray

    def plus(self, values: np.ndarray, weights: np.ndarray) -> "Data":
        return Data(np.concatenate([self.values, values]), np.concatenate([self.weights, weights]))


def to_batch(mf, kind: str, data: Data):
    kind_enum, dim = mf.parse_kind_spec(kind)
    if dim is None:
        values = data.values.tolist()
    else:
        values = list(data.values)
    return mf.Batch.from_values(kind_enum, values, data.weights.tolist(), dim=dim)


def _as_array(payload) -> np.ndarray:
    return np.atleast_1d(np.asarray(payload))


def _abs_moment(dev: np.ndarray, w: np.ndarray, z: float, order: float) -> np.ndarray:
    """(1/Z)·Σ w|d|^order, componentwise for vectors."""
    mag = np.abs(dev)
    wb = w.reshape((-1,) + (1,) * (mag.ndim - 1))
    return np.atleast_1d((wb * mag**order).sum(axis=0) / z)


def _scaled(a, b, scale: np.ndarray) -> float:
    diff = np.abs(_as_array(a) - _as_array(b))
    return float(np.max(diff / np.maximum(scale, 1e-300)))


def state_errors(mf, kind: str, state, data: Data) -> dict[str, float]:
    """Scaled errors of one stored state against from_batch over its data,
    by name: count, z, mean, each integer order, and each fractional order
    under ``frac:``."""
    ref = mf.from_batch(to_batch(mf, kind, data), state.ladder)
    dev = data.values - ref.mean
    errs: dict[str, float] = {
        "count": 0.0 if state.count == ref.count else float("inf"),
        "z": abs(state.z - ref.z) / abs(ref.z),
        "mean": _scaled(state.mean, ref.mean, np.sqrt(_abs_moment(dev, data.weights, ref.z, 2))),
    }
    for order in state.ladder.orders:
        scale = _abs_moment(dev, data.weights, ref.z, order)
        key = f"M{order:g}" if float(order).is_integer() else f"frac:M{order:g}"
        errs[key] = _scaled(state.moments[order], ref.moments[order], scale)
    return errs


def parse_metric_value(kind: str, text: str) -> np.ndarray:
    """The value= field of a ``momentflow metric`` output line."""
    m = _VALUE.match(text.strip())
    if not m:
        raise ValueError(f"unrecognised metric output {text.strip()!r}")
    v = json.loads(m.group(1))
    if kind == "complex":
        return np.array([complex(v[0], v[1])])
    return np.atleast_1d(np.array(v, dtype=float))


def metric_error(kind: str, output: str, data: Data, a: float, b: float) -> float:
    """Error of a printed a·exp(b·x) metric against Σ w·g(x)/Z over the data."""
    got = parse_metric_value(kind, output)
    g = a * np.exp(b * data.values)
    w = data.weights.reshape((-1,) + (1,) * (g.ndim - 1))
    z = data.weights.sum()
    want = np.atleast_1d((w * g).sum(axis=0) / z)
    scale = np.atleast_1d((w * np.abs(g)).sum(axis=0) / z)
    return _scaled(got, want, scale)
