"""Weighted metrics evaluated and updated through stored moments.

Any weighted aggregate W = (1/Z) * sum_i w_i * g(x_i) whose g has a
convergent Taylor series about the dataset mean can be read off the moment
ladder: W = sum_n c_n * M_n, with the coefficients c_n always taken about
the mean. Appending a batch needs no re-centring: for a fixed g, W is a
plain weighted sum, so Z' * W' = Z * W + sum_batch w * g(x), the metric of
the stored ladder plus the batch's exact g values.

Coefficient providers must be deterministic and re-entrant; everything in
this module is a pure function over immutable inputs. A coefficient, batch
term or value that is not finite, or a math overflow on the way to one,
raises NumericError: a metric is never reported as inf or nan.
"""

from __future__ import annotations

import cmath
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import ContextManager, Protocol, Sequence

from .accumulator import Batch, _batch_sum, tail_converged, update_normalizer
from .binomial import MAX_EXACT_ORDER, binomial_row
from .elements import Kind, Payload, all_finite, norm_payload, np
from .errors import LadderTooShort, NumericError, ValidationError
from .states import DEFAULT_TRUNCATION, MomentState

TAIL_TOL = 1e-10


class CoefficientProvider(Protocol):
    """Taylor machinery for one metric function g.

    ``coefficients(center, max_order)`` returns c_0..c_max of g about the
    given center (payload-valued: componentwise for vectors). ``evaluate``
    is the exact g itself, used for the appended records where no expansion
    is needed. It must work elementwise: it is called with one payload for
    a small batch and with a batch's whole ``values`` array (shape (n,) or
    (n, d)) for a large one, and must return an array of the same shape
    whose entries are g of the entries. Must be deterministic for a given
    center.
    """

    def coefficients(self, center: Payload, max_order: int) -> list[Payload]: ...

    def evaluate(self, x: Payload) -> Payload: ...


def _elementwise(name: str, p: Payload) -> Payload:
    """The math, cmath or numpy function ``name`` of p, by p's type. The
    Python number types are tested first, so that a metric read off a
    scalar or complex state loads no numpy."""
    if isinstance(p, complex):
        module = cmath
    elif not isinstance(p, (float, int)) and isinstance(p, np.ndarray):
        module = np
    else:
        module = math
    return getattr(module, name)(p)


_PYTHON_NUMBERS = nullcontext()


def _quiet(kind: Kind) -> ContextManager:
    """Where a metric's arithmetic runs: with numpy's floating-point
    warnings off on the vector kind, as _require_finite refuses a
    non-finite result afterwards. The other kinds compute with Python
    numbers, which warn about nothing; an overflow there raises
    OverflowError, which the callers turn into a NumericError."""
    return np.errstate(all="ignore") if kind is Kind.VECTOR else _PYTHON_NUMBERS


def _require_finite(kind: Kind, what: str, payloads: Sequence[Payload]) -> None:
    if not all_finite(kind, payloads):
        raise NumericError(f"metric {what} is not finite")


class PolynomialMetric:
    """g(x) = a_0 + a_1 x + ... + a_d x**d, componentwise on vectors.

    Coefficients about an arbitrary center come from the exact binomial
    shift, so truncation at any order >= d is lossless and every
    coefficient beyond the degree is exactly zero.
    """

    def __init__(self, coefficients: Sequence[float]):
        if len(coefficients) == 0:
            raise ValidationError("polynomial needs at least one coefficient")
        self.base_coefficients = tuple(float(c) for c in coefficients)

    @property
    def degree(self) -> int:
        return len(self.base_coefficients) - 1

    def coefficients(self, center: Payload, max_order: int) -> list[Payload]:
        zero_like = center * 0.0
        cpow: list[Payload] = [zero_like + 1.0]
        for _ in range(self.degree):
            cpow.append(cpow[-1] * center)
        out: list[Payload] = []
        for n in range(max_order + 1):
            if n > self.degree:
                out.append(zero_like)
                continue
            acc = zero_like
            for j in range(n, self.degree + 1):
                acc = acc + (self.base_coefficients[j] * binomial_row(j)[n]) * cpow[j - n]
            out.append(acc)
        return out

    def evaluate(self, x: Payload) -> Payload:
        acc = x * 0.0 + self.base_coefficients[-1]
        for a in reversed(self.base_coefficients[:-1]):
            acc = acc * x + a
        return acc


class ExponentialMetric:
    """g(x) = a * exp(b * x), componentwise on vectors."""

    def __init__(self, a: float = 1.0, b: float = 1.0):
        self.a = float(a)
        self.b = float(b)

    def coefficients(self, center: Payload, max_order: int) -> list[Payload]:
        out: list[Payload] = [self.a * _elementwise("exp", self.b * center)]
        for n in range(1, max_order + 1):
            out.append(out[-1] * (self.b / n))
        return out

    def evaluate(self, x: Payload) -> Payload:
        return self.a * _elementwise("exp", self.b * x)


class SinusoidMetric:
    """g(x) = a * sin(b * x), componentwise on vectors."""

    def __init__(self, a: float = 1.0, b: float = 1.0):
        self.a = float(a)
        self.b = float(b)

    def coefficients(self, center: Payload, max_order: int) -> list[Payload]:
        phase = self.b * center
        sin, cos = _elementwise("sin", phase), _elementwise("cos", phase)
        cycle = (sin, cos, -1.0 * sin, -1.0 * cos)
        out: list[Payload] = []
        factor = self.a
        for n in range(max_order + 1):
            if n:
                factor *= self.b / n
            out.append(factor * cycle[n % 4])
        return out

    def evaluate(self, x: Payload) -> Payload:
        return self.a * _elementwise("sin", self.b * x)


@dataclass(frozen=True)
class MetricSpec:
    """A metric to evaluate: its coefficient provider and truncation order."""

    provider: CoefficientProvider
    n_star: int = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        if not 2 <= self.n_star <= MAX_EXACT_ORDER:
            raise ValidationError(
                f"truncation order must be within 2..{MAX_EXACT_ORDER}, got {self.n_star}"
            )


@dataclass(frozen=True)
class MetricResult:
    """A metric value, read-only like every stored payload."""

    value: Payload
    truncation_order: int
    tail_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        value = self.value
        if not isinstance(value, (float, complex)) and isinstance(value, np.ndarray):
            value.flags.writeable = False


def metric_from_moments(state: MomentState, spec: MetricSpec) -> MetricResult:
    """W = sum_{n=0}^{n_star} c_n * M_n with coefficients about the mean,
    summed in ascending n. It has converged when the tail monitor sees the
    last terms die out against the running sum, or when every coefficient
    just past the cutoff vanishes identically, so the series is finite and
    truncation drops nothing."""
    top = state.ladder.max_integer_order
    if top is None:
        raise LadderTooShort(
            f"metric truncated at {spec.n_star} but the ladder stores no integer order"
        )
    if top < spec.n_star:
        raise LadderTooShort(
            f"metric truncated at {spec.n_star} but ladder only stores integer "
            f"orders up to {top}"
        )
    if not isinstance(state, MomentState):
        raise ValidationError("a metric needs a non-empty state")
    kind = state.kind
    try:
        with _quiet(kind):
            # c_0..c_n* weight the moments; the three past n* only probe the tail.
            coeffs = spec.provider.coefficients(state.mean, spec.n_star + 3)
            if len(coeffs) != spec.n_star + 4:
                raise ValidationError("provider returned the wrong number of coefficients")
            _require_finite(kind, "coefficient about the mean", coeffs)
            acc = None
            term_norms: list[float] = []
            running: list[float] = []
            for n, c in enumerate(coeffs[: spec.n_star + 1]):
                term = c * state.moment(n)
                acc = term if acc is None else acc + term
                term_norms.append(norm_payload(kind, term))
                running.append(norm_payload(kind, acc))
    except OverflowError as e:
        raise NumericError(f"metric overflowed: {e}") from None
    _require_finite(kind, "value", (acc,))
    converged = tail_converged(term_norms, running, TAIL_TOL) or all(
        norm_payload(kind, c) == 0.0 for c in coeffs[spec.n_star + 1 :]
    )
    return MetricResult(
        value=acc,
        truncation_order=spec.n_star,
        tail_estimate=term_norms[-1],
        converged=converged,
    )


def metric_update(state: MomentState, batch: Batch, spec: MetricSpec) -> MetricResult:
    """Metric of the appended dataset from the stored metric plus the batch.

    For a fixed g the metric adds over batches: W' = (Z/Z') W plus the
    batch's exact g values over Z', with W read off the stored ladder by
    metric_from_moments. The truncation order, tail estimate and
    convergence flag are W's, the series of the stored ladder about its
    own mean; the batch term is exact. O(n_star + batch).
    """
    stored = metric_from_moments(state, spec)
    zp = update_normalizer(state, batch)
    try:
        with _quiet(state.kind):
            batch_acc = _batch_sum(batch, spec.provider.evaluate, batch.columnar)
            _require_finite(state.kind, "batch term", (batch_acc,))
            value = (state.z / zp) * stored.value + batch_acc / zp
    except OverflowError as e:
        raise NumericError(f"metric overflowed: {e}") from None
    _require_finite(state.kind, "value", (value,))
    return replace(stored, value=value)
