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
from itertools import accumulate, repeat
from operator import add, mul, truediv
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


def _chain_position(order: float) -> tuple[float, bool, int]:
    """Where the power rule reaches ``order`` = f + k, k = floor(order): its
    chain, the fractional part f in [0, 1) and whether k < 0 (the walk goes
    down), and its distance |k| from the root d**f."""
    k = math.floor(order)
    return order - k, k < 0, abs(k)


def outward(orders: Iterable[float]) -> tuple[float, ...]:
    """``orders`` as floats, ordered so that pow_records walks each chain
    once, outward from its root: one step per order."""
    return tuple(sorted(map(float, orders), key=_chain_position))


@lru_cache(maxsize=64)
def _record_plan(orders: tuple[float, ...]) -> tuple:
    """pow_orders' layout for ``orders``: each chain it walks, as
    (f, down, length), its length the farthest distance asked for on it;
    where each order sits, as (chain, distance); and the first order that
    the complex kind's domain rule checks (the first negative one) and the
    first that the real kinds' rule checks (the first that is not a
    non-negative integer), None where there is none."""
    orders = tuple(map(float, orders))
    positions = [_chain_position(q) for q in orders]
    lengths: dict[tuple[float, bool], int] = {}
    for f, down, distance in positions:
        lengths[f, down] = max(lengths.get((f, down), 0), distance)
    chains = list(lengths)
    return (
        tuple((f, down, length) for (f, down), length in lengths.items()),
        tuple((chains.index((f, down)), distance) for f, down, distance in positions),
        next((q for q in orders if q < 0), None),
        next((q for q in orders if q < 0 or not q.is_integer()), None),
    )


def pow_orders(kind: Kind, value: Payload, orders: Sequence[float]) -> list[Payload]:
    """One payload raised to each real power of ``orders``, componentwise, by
    the power rule of pow_records, each order's value the same bits
    whichever other orders share the call.

    The root value**f is CPython's ``z ** f`` on the complex kind, which
    takes the principal branch by the modulus and argument as pow_records
    does, and ``value ** f`` on the real kinds. Each chain is walked once,
    as far as its farthest order, every step one multiply or divide. A
    non-negative integer order has no domain rule. Under any other order a
    complex zero is refused below order 0 and reads 0 above it, and every
    real component must exceed POW_FLOOR.
    """
    chains, where, negative, checked = _record_plan(tuple(orders))
    if kind is Kind.COMPLEX:
        value = complex(value)
        if negative is not None and value == 0:
            raise DomainError("zero complex base with a non-positive exponent")
    elif checked is not None:
        if kind is Kind.SCALAR:
            if not value > POW_FLOOR:
                raise DomainError(
                    f"real base {value!r} not above {POW_FLOOR} under exponent {checked}"
                )
        elif not np.all(value > POW_FLOOR):
            raise DomainError(f"vector component not above {POW_FLOOR} under exponent {checked}")
    roots: dict[float, Payload] = {}
    walks = []
    for f, down, length in chains:
        if f not in roots:
            roots[f] = value ** f if f else one_payload(kind, len(value) if kind is Kind.VECTOR else None)
        walks.append(list(accumulate(repeat(value, length), truediv if down else mul, initial=roots[f])))
    return [walks[c][distance] for c, distance in where]


def pow_payload(kind: Kind, value: Payload, order: float) -> Payload:
    """Raise one payload to one real power, componentwise: pow_orders for a
    single order, under the same rule and domain rules."""
    return pow_orders(kind, value, (order,))[0]


def pow_records(kind: Kind, values: np.ndarray, orders: Sequence[float]) -> Iterator[np.ndarray]:
    """Raise every record of a column to each real power of ``orders`` in
    turn, one yielded column per order: pow_orders over a whole array.

    The power rule, the package's one definition of a real power: write
    q = f + k with k = floor(q) and f in [0, 1). The root d**f is 1 for
    f = 0; otherwise, on the complex kind, the principal branch by the
    modulus and argument, |d|**f * (cos(f*Arg d), sin(f*Arg d)), CPython's
    route for ``z ** f``, and ``values ** f`` on the real kinds. Then |k|
    steps, each one rounding, walk outward from the root: a multiply by d
    for k > 0, a divide by d for k < 0. On the principal branch
    d**(q+1) = d**q * d exactly, as both are exp((q+1) Log d), so the walk
    errs only by the rounding of each step, which for a complex multiply is
    within sqrt(5)*u normwise (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). The walk's intermediate values lie between the root
    and its target, so an order overflows or underflows only where its true
    value does.

    An order's value is the same product sequence whichever other orders
    share the call. The walk carries on from its chain's frontier, the last
    column it reached on that chain, when that is no farther from the root
    than the order; else it starts again from the root. Orders in
    ``outward`` order thus take one step each, and the walk holds one root
    column per fractional part and one frontier column per chain, never a
    (records x orders) table. The domain rules are pow_orders', checked over
    the column once, when the first order that needs one is reached.
    """
    refused = polar = None
    roots: dict[float, np.ndarray] = {}
    frontier: dict[tuple[float, bool], tuple[int, np.ndarray]] = {}
    for order in orders:
        q = float(order)
        f, down, distance = _chain_position(q)
        if kind is Kind.COMPLEX:
            if q < 0:
                if refused is None:
                    refused = bool(np.any(values == 0))
                if refused:
                    raise DomainError("zero complex base with a non-positive exponent")
        elif f or down:
            if refused is None:
                refused = not np.all(values > POW_FLOOR)
            if refused:
                raise DomainError(
                    f"real base or vector component not above {POW_FLOOR} under exponent {q}"
                )
        reached, p = frontier.get((f, down), (None, None))
        if reached is None or reached > distance:
            if f not in roots:
                if not f:
                    roots[f] = np.ones_like(values)
                elif kind is Kind.COMPLEX:
                    if polar is None:
                        polar = np.hypot(values.real, values.imag), np.arctan2(values.imag, values.real)
                    roots[f] = _polar_power(*polar, f)
                else:
                    roots[f] = values ** f
            reached, p = 0, roots[f]
        for _ in range(distance - reached):
            p = p / values if down else p * values
        frontier[f, down] = distance, p
        yield p


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
