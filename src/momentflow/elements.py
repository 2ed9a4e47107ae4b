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

import cmath
import math
import sys
from enum import Enum
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Iterator, Sequence, Union

from .errors import BadKindSpec, DomainError


class _NumpyOnFirstUse:
    """Stands in for numpy until the first attribute is read, so that a
    command on a scalar or complex state never loads it.

    That read imports numpy and rebinds ``np`` to it in every module of
    this package that holds the stand-in, so later reads cost nothing.
    """

    def __getattr__(self, name: str):
        import numpy

        package = __name__.rpartition(".")[0]
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == package and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


# The package's one source of numpy, the vector payload type: every module
# takes ``np`` from here. numpy itself when it is already loaded.
np = sys.modules.get("numpy") or _NumpyOnFirstUse()

# Smallest real base accepted under a fractional or negative exponent.
# Below this, log-based powers of real values degenerate; the complex kind
# exists precisely to lift the restriction.
POW_FLOOR = 1e-300

Payload = Union[float, complex, "np.ndarray"]


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


@lru_cache(maxsize=64)
def _walk_plan(orders: tuple[float, ...]) -> tuple:
    """The power rule's one plan for ``orders``, which hold no order twice,
    read by every form of it: each chain, in the order ``orders`` first
    reach it, as (f, base, named, steps). Its orders q = f + k,
    k = floor(q), f in [0, 1), lie on one side of its start d**(f + base):
    the root d**f (base 0), the root over d below order 0 (base -1, the
    walk divides), or d itself on the integer chain (f = 0, k >= 1;
    base 1), so that chain's first step is d*d, never 1*d. ``named`` is its
    first order in ``orders``, the one a refusal names. ``steps`` gives the
    position in ``orders`` of the order at each unit step from the start,
    the start first, None where no order sits."""
    chains: dict[tuple[float, int], list[tuple[int, int]]] = {}
    for position, q in enumerate(map(float, orders)):
        k = math.floor(q)
        f = q - k
        base = -1 if k < 0 else 0 if f else min(k, 1)
        chains.setdefault((f, base), []).append((abs(k - base), position))
    plan = []
    for (f, base), stops in chains.items():
        steps: list[int | None] = [None] * (max(stops)[0] + 1)
        for distance, position in stops:
            steps[distance] = position
        plan.append((f, base, float(orders[stops[0][1]]), tuple(steps)))
    return tuple(plan)


def _domain_error(kind: Kind, named: float) -> DomainError:
    """The one refusal of every form, naming ``named`` on the real kinds."""
    if kind is Kind.COMPLEX:
        return DomainError("zero complex base with a non-positive exponent")
    return DomainError(
        f"real base or vector component not above {POW_FLOOR} under exponent {named}"
    )


def _chain_start(kind: Kind, value: Payload, f: float, base: int, named: float) -> Payload:
    """value**(f + base), where one payload's walk along a chain of
    _walk_plan starts, under the domain rules. The root value**f is
    CPython's ``z ** f`` on a Python complex, the principal branch by the
    modulus and argument as in pow_records, and ``value ** f`` otherwise."""
    if base == 1:
        return value
    on_complex = kind is Kind.COMPLEX
    # the chains under a domain rule: below order 0, and off the
    # non-negative integers on the real kinds
    if base < 0 or f and not on_complex:
        if on_complex:
            refused = value == 0
        elif kind is Kind.SCALAR:
            refused = not value > POW_FLOOR
        else:
            refused = not np.all(value > POW_FLOOR)
        if refused:
            raise _domain_error(kind, named)
    root = value ** f if f else one_payload(kind, len(value) if kind is Kind.VECTOR else None)
    return root / value if base < 0 else root


def pow_payload(kind: Kind, value: Payload, order: float) -> Payload:
    """Raise one payload to one real power, componentwise, by the power
    rule of pow_records: one chain, one order. Each form walks an order by
    this same product sequence, whichever orders share its plan."""
    if kind is Kind.COMPLEX:
        value = complex(value)
    ((f, base, named, steps),) = _walk_plan((order,))
    p = _chain_start(kind, value, f, base, named)
    for _ in steps[1:]:
        p = p / value if base < 0 else p * value
    return p


def pow_records(
    kind: Kind, values: np.ndarray, orders: Sequence[float]
) -> Iterator[tuple[int, np.ndarray]]:
    """Raise every record of a column to each real power of ``orders``:
    pow_payload over a whole array, yielding (position in ``orders``,
    column) pairs in walk order.

    The power rule, the package's one definition of a real power: write
    q = f + k with k = floor(q) and f in [0, 1). The root d**f is 1 for
    f = 0; otherwise, on the complex kind, the principal branch by the
    modulus and argument, |d|**f * (cos(f*Arg d), sin(f*Arg d)), CPython's
    route for ``z ** f``, and ``values ** f`` on the real kinds. Then |k|
    steps, each one rounding, walk outward from the root: a multiply by d
    for k > 0, a divide by d for k < 0; an integer power starts at d
    itself, so d**n takes n - 1 multiplies. On the principal branch
    d**(q+1) = d**q * d exactly, as both are exp((q+1) Log d), so the walk
    errs only by the rounding of each step, which for a complex multiply is
    within sqrt(5)*u normwise (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). The walk's intermediate values lie between the root
    and its target, so an order overflows or underflows only where its true
    value does.

    Every form reads one plan per tuple of orders, _walk_plan, so each
    chain is walked once, one step per unit of its farthest distance,
    whatever order the orders come in, and an order's value is the same
    product sequence whichever orders share the call. The walk holds one
    root column per fractional part and one frontier column. The domain
    rules, one message for every form: under an order below 0 a complex
    zero is refused (above it the power reads 0), and under any order but
    a non-negative integer every real component must exceed POW_FLOOR,
    checked over the column once, as the first chain needing them is reached.
    """
    on_complex = kind is Kind.COMPLEX
    refused = polar = None
    roots: dict[float, np.ndarray] = {}
    for f, base, named, steps in _walk_plan(tuple(orders)):
        if base < 0 or f and not on_complex:
            if refused is None:
                if on_complex:
                    refused = bool(np.any(values == 0))
                else:
                    refused = not np.all(values > POW_FLOOR)
            if refused:
                raise _domain_error(kind, named)
        if base == 1:
            p = values
        else:
            if f not in roots:
                if not f:
                    roots[f] = np.ones_like(values)
                elif on_complex:
                    if polar is None:
                        polar = np.hypot(values.real, values.imag), np.arctan2(values.imag, values.real)
                    roots[f] = _polar_power(*polar, f)
                else:
                    roots[f] = values ** f
            p = roots[f] / values if base < 0 else roots[f]
        for distance, position in enumerate(steps):
            if distance:
                p = p / values if base < 0 else p * values
            if position is not None:
                yield position, p


def _polar_power(modulus: np.ndarray, arg: np.ndarray, f: float) -> np.ndarray:
    """The principal f-th power of the complex column of this modulus and
    argument, modulus**f * (cos(f*arg), sin(f*arg)): CPython's route for
    ``z ** f``."""
    mag = modulus ** f
    phase = arg * f
    out = np.empty(mag.shape, dtype=np.complex128)
    out.real = mag * np.cos(phase)
    out.imag = mag * np.sin(phase)
    return out


def _modulus(x: float | complex) -> float:
    """abs(x), or inf where CPython's abs() refuses a complex modulus past
    the float range with OverflowError."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def norms(kind: Kind, payloads: Sequence[Payload]) -> list[float]:
    """The Euclidean norm of each of ``payloads``, all of ``kind``: |x| for
    scalars, the modulus for complex, the 2-norm for vectors.

    hypot keeps the vector norm scale-safe: squaring tiny or huge components
    directly would under/overflow. A norm past the float range is inf, as
    hypot gives for a vector; any other norm is abs()'s to the bit.
    """
    if kind is Kind.VECTOR:
        return [math.hypot(*v) for v in payloads]
    try:
        return list(map(abs, payloads))
    except OverflowError:
        return list(map(_modulus, payloads))


def norm_payload(kind: Kind, value: Payload) -> float:
    """The Euclidean norm of one payload: norms of a one-item list."""
    return norms(kind, (value,))[0]


def left_sum(items: Iterable[Payload]) -> Payload:
    """The sum of ``items``, at least one, added left to right from the first.

    The package sums Python numbers in this one order, here or through
    itertools.accumulate, so that one order fixes their rounding. Builtin
    sum() does not: from Python 3.12 on it compensates a float sum
    (Neumaier), so a state document's bytes would follow the Python version.
    """
    return reduce(add, items)


def all_finite(kind: Kind, payloads: Sequence[Payload]) -> bool:
    """Whether every number in ``payloads``, all of ``kind``, is finite."""
    if kind is Kind.VECTOR:
        return bool(np.isfinite(payloads).all())
    return all(map(cmath.isfinite, payloads))


def relative_error(kind: Kind, got: Payload, want: Payload, m2: float, order: float) -> float:
    """|got - want| relative to the natural size of an order-``order`` moment.

    The scale is max(|want|, m2**(order/2), 1e-300), where ``m2`` is the
    spread of the data, its absolute second moment (1/Z) sum w * |d|**2
    (the norm of M2 on the real kinds): a moment that cancels to near zero
    is still judged against that spread. The m2 term enters only when
    m2 > 0 and order >= 2; below order 2 it would only loosen the check.
    """
    aug = m2 ** (order / 2.0) if (m2 > 0 and order >= 2) else 0.0
    scale = max(norm_payload(kind, want), aug, 1e-300)
    return norm_payload(kind, got - want) / scale
