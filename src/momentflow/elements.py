"""Element algebra: the data values that moments are computed over.

Three kinds are supported: real scalars, complex scalars, and fixed-length
real vectors. Addition and multiplication are componentwise, exponentiation
extends multiplication, and the norm is Euclidean. All moment formulas in
this package are written once against this contract; the payloads themselves
are plain ``float``, ``complex`` and 1-D ``numpy.ndarray`` values so the
native ``+``, ``-``, ``*`` operators implement the componentwise semantics
directly.

The payload is the only value type: moments, means and metric values are
all payloads. A vector payload held by a Batch or a MomentState is made
read-only there, so stored values are safe to share between threads.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import BadKindSpec, DomainError

# Smallest real base accepted under a fractional or negative exponent.
# Below this, log-based powers of real values degenerate; the complex kind
# exists precisely to lift the restriction.
POW_FLOOR = 1e-300

Payload = Union[float, complex, np.ndarray]


class Kind(str, Enum):
    SCALAR = "scalar"
    COMPLEX = "complex"
    VECTOR = "vector"


def parse_kind_spec(spec: str) -> tuple[Kind, int | None]:
    """Parse a kind spec string: ``scalar``, ``complex`` or ``vector:D``."""
    text = spec.strip().lower()
    if text == "scalar":
        return Kind.SCALAR, None
    if text == "complex":
        return Kind.COMPLEX, None
    if text.startswith("vector:"):
        try:
            dim = int(text.split(":", 1)[1])
        except ValueError:
            raise BadKindSpec(f"bad vector dimension in kind spec {spec!r}") from None
        if dim < 1:
            raise BadKindSpec(f"vector dimension must be >= 1, got {dim}")
        return Kind.VECTOR, dim
    raise BadKindSpec(f"unknown kind spec {spec!r} (expected scalar, complex or vector:D)")


def format_kind(kind: Kind, dim: int | None) -> str:
    if kind is Kind.VECTOR:
        return f"vector:{dim}"
    return kind.value


def zero_payload(kind: Kind, dim: int | None = None) -> Payload:
    if kind is Kind.SCALAR:
        return 0.0
    if kind is Kind.COMPLEX:
        return 0j
    return np.zeros(dim, dtype=np.float64)


def one_payload(kind: Kind, dim: int | None = None) -> Payload:
    if kind is Kind.SCALAR:
        return 1.0
    if kind is Kind.COMPLEX:
        return 1 + 0j
    return np.ones(dim, dtype=np.float64)


def pow_payload(kind: Kind, value: Payload, order: float) -> Payload:
    """Raise a payload to a real power, componentwise.

    Non-negative integer orders are evaluated by repeated multiplication,
    which is exact for exact inputs. Fractional and negative orders use the
    principal branch on the complex kind and require every real component to
    exceed POW_FLOOR on the real kinds.
    """
    forder = float(order)
    if forder.is_integer() and forder >= 0:
        k = int(forder)
        if k == 0:
            return one_payload(kind, len(value) if kind is Kind.VECTOR else None)
        r = value
        for _ in range(k - 1):
            r = r * value
        return r
    if kind is Kind.COMPLEX:
        z = complex(value)
        if z == 0:
            if forder > 0:
                return 0j
            raise DomainError("zero complex base with a non-positive exponent")
        return z ** forder
    if kind is Kind.SCALAR:
        if not value > POW_FLOOR:
            raise DomainError(
                f"real base {value!r} not above {POW_FLOOR} under exponent {forder}"
            )
        return value ** forder
    if not np.all(value > POW_FLOOR):
        raise DomainError(
            f"vector component not above {POW_FLOOR} under exponent {forder}"
        )
    return value ** forder


def pow_records(kind: Kind, values: np.ndarray, orders: Sequence[float]) -> Iterator[np.ndarray]:
    """Raise every record of a column to each real power in turn: pow_payload
    over a whole array, one yielded column per order.

    The domain rules are pow_payload's. Complex powers take CPython's route
    for a real exponent (modulus**order, argument*order) so they agree with
    the per-record form to rounding. The domain checks, and on the complex
    kind the modulus and argument, are taken once for all orders; each
    order then adds only its own power column, and only that column is
    alive at a time.
    """
    modulus = arg = has_zero = positive = None
    for order in orders:
        forder = float(order)
        if forder.is_integer() and forder >= 0:
            r = np.ones_like(values)
            for _ in range(int(forder)):
                r = r * values
            yield r
        elif kind is Kind.COMPLEX:
            if forder <= 0:
                if has_zero is None:
                    has_zero = bool(np.any(values == 0))
                if has_zero:
                    raise DomainError("zero complex base with a non-positive exponent")
            if modulus is None:
                modulus = np.hypot(values.real, values.imag)
                arg = np.arctan2(values.imag, values.real)
            mag = modulus ** forder
            phase = arg * forder
            out = np.empty_like(values)
            out.real = mag * np.cos(phase)
            out.imag = mag * np.sin(phase)
            yield out
        else:
            if positive is None:
                positive = bool(np.all(values > POW_FLOOR))
            if not positive:
                raise DomainError(
                    f"real base or vector component not above {POW_FLOOR} under exponent {forder}"
                )
            yield values ** forder


def norm_payload(kind: Kind, value: Payload) -> float:
    """Euclidean norm: |x| for scalars, modulus for complex, 2-norm for vectors.

    hypot keeps the vector norm scale-safe: squaring tiny or huge components
    directly would under/overflow.
    """
    if kind is Kind.VECTOR:
        return math.hypot(*value)
    return abs(value)


def relative_error(kind: Kind, got: Payload, want: Payload, m2: float, order: float) -> float:
    """|got - want| relative to the natural size of an order-``order`` moment.

    The scale is max(|want|, m2**(order/2), 1e-300), where ``m2`` is the
    norm of the second central moment: a moment that cancels to near zero
    is still judged against the spread of its data. The m2 term enters only
    when m2 > 0 and order >= 2; below order 2 it would only loosen the check.
    """
    aug = m2 ** (order / 2.0) if (m2 > 0 and order >= 2) else 0.0
    scale = max(norm_payload(kind, want), aug, 1e-300)
    return norm_payload(kind, got - want) / scale
