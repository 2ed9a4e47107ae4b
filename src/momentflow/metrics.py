"""Weighted metrics evaluated and updated through stored moments.

Any weighted aggregate W = (1/Z) * sum_i w_i * g(x_i) whose g has a
convergent Taylor series about the dataset mean can be read off the moment
ladder: W = sum_n c_n * M_n, with the coefficients c_n always taken about
the mean (the expansion point is not a free choice; the update algebra
below re-centers through it). Appending a batch updates W from the old
moments plus the batch alone: the old moments are re-centred onto the new
mean by the accumulator's one re-centering kernel, and the metric is the
single sum sum_n c_n * R_n over them.

Coefficient providers must be deterministic and re-entrant; everything in
this module is a pure function over immutable inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .accumulator import Batch, MomentState, tail_converged
from .accumulator import _payloads, _recenter, _recentered, _table
from .binomial import MAX_EXACT_ORDER, binomial_row
from .elements import Kind, Payload, norm_payload
from .errors import LadderTooShort, ValidationError

DEFAULT_TRUNCATION = 14
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


def _exp(p: Payload) -> Payload:
    if isinstance(p, complex):
        return cmath.exp(p)
    if isinstance(p, np.ndarray):
        return np.exp(p)
    return math.exp(p)


def _sin(p: Payload) -> Payload:
    if isinstance(p, complex):
        return cmath.sin(p)
    if isinstance(p, np.ndarray):
        return np.sin(p)
    return math.sin(p)


def _cos(p: Payload) -> Payload:
    if isinstance(p, complex):
        return cmath.cos(p)
    if isinstance(p, np.ndarray):
        return np.cos(p)
    return math.cos(p)


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
        out: list[Payload] = [self.a * _exp(self.b * center)]
        for n in range(1, max_order + 1):
            out.append(out[-1] * (self.b / n))
        return out

    def evaluate(self, x: Payload) -> Payload:
        return self.a * _exp(self.b * x)


class SinusoidMetric:
    """g(x) = a * sin(b * x), componentwise on vectors."""

    def __init__(self, a: float = 1.0, b: float = 1.0):
        self.a = float(a)
        self.b = float(b)

    def coefficients(self, center: Payload, max_order: int) -> list[Payload]:
        phase = self.b * center
        cycle = (_sin(phase), _cos(phase), -1.0 * _sin(phase), -1.0 * _cos(phase))
        out: list[Payload] = []
        factor = self.a
        for n in range(max_order + 1):
            if n:
                factor *= self.b / n
            out.append(factor * cycle[n % 4])
        return out

    def evaluate(self, x: Payload) -> Payload:
        return self.a * _sin(self.b * x)


@dataclass(frozen=True)
class MetricSpec:
    """A metric to evaluate: its coefficient provider and truncation order."""

    provider: CoefficientProvider
    n_star: int = DEFAULT_TRUNCATION
    name: str = ""

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
        if isinstance(self.value, np.ndarray):
            self.value.flags.writeable = False


def _require_cover(state: MomentState, n_star: int) -> None:
    top = state.ladder.max_integer_order
    if top is None or top < n_star:
        raise LadderTooShort(
            f"metric truncated at {n_star} but ladder only stores integer "
            f"orders up to {top}"
        )


def _truncation_is_exact(
    provider: CoefficientProvider, center: Payload, n_star: int, kind: Kind
) -> bool:
    """True when every coefficient just past the cutoff vanishes identically,
    i.e. the series is finite and truncation drops nothing."""
    probe = provider.coefficients(center, n_star + 3)
    return all(norm_payload(kind, c) == 0.0 for c in probe[n_star + 1 :])


def _metric_sum(
    kind: Kind, coeffs: Sequence[Payload], moments: Sequence[Payload]
) -> tuple[Payload, list[float], list[float]]:
    """sum_n c_n * M_n in ascending n, with each term's norm and the norm of
    the running sum after it, for the tail monitor."""
    acc = None
    term_norms: list[float] = []
    running: list[float] = []
    for c, m in zip(coeffs, moments):
        term = c * m
        acc = term if acc is None else acc + term
        term_norms.append(norm_payload(kind, term))
        running.append(norm_payload(kind, acc))
    return acc, term_norms, running


def metric_from_moments(
    state: MomentState, spec: MetricSpec, tol: float = TAIL_TOL
) -> MetricResult:
    """W = sum_{n=0}^{n_star} c_n * M_n with coefficients about the mean."""
    _require_cover(state, spec.n_star)
    kind = state.kind
    coeffs = spec.provider.coefficients(state.mean, spec.n_star)
    if len(coeffs) != spec.n_star + 1:
        raise ValidationError("provider returned the wrong number of coefficients")

    moments = [state.moment(n) for n in range(spec.n_star + 1)]
    acc, term_norms, running = _metric_sum(kind, coeffs, moments)
    converged = tail_converged(term_norms, running, tol) or _truncation_is_exact(
        spec.provider, state.mean, spec.n_star, kind
    )
    return MetricResult(
        value=acc,
        truncation_order=spec.n_star,
        tail_estimate=term_norms[-1],
        converged=converged,
    )


def metric_update(
    state: MomentState,
    batch: Batch,
    spec: MetricSpec,
    tol: float = TAIL_TOL,
) -> MetricResult:
    """Metric of the appended dataset from old moments plus the batch.

    The append's kernel re-centres the old moments onto the new mean,
    R_n = sum_k C(n, k) M_(n-k) shift**k (R_0 = 1, R_1 = shift), and with
    coefficients (of the possibly-new g) about the new mean the metric is
    W' = (Z/Z') sum_n c_n R_n plus the batch's exact g values over Z':
    O(n_star**2 + batch) in one array pass, O(n_star) in Python.
    """
    _require_cover(state, spec.n_star)
    kind = state.kind
    n_star = spec.n_star

    zp, meanp, shift = _recenter(state, batch)
    coeffs = spec.provider.coefficients(meanp, n_star)
    if len(coeffs) != n_star + 1:
        raise ValidationError("provider returned the wrong number of coefficients")

    rows = tuple((float(n), n) for n in range(n_star + 1))
    with np.errstate(all="ignore"):
        _, _, recentered = _recentered(state, shift, _table(state.ladder, rows))
    acc, term_norms, running = _metric_sum(kind, coeffs, _payloads(kind, recentered))

    if batch.columnar:
        with np.errstate(all="ignore"):
            batch_acc = batch.weighted_sum(spec.provider.evaluate(batch.values))
    else:
        batch_acc = None
        for x, w in zip(*batch.records):
            t = w * spec.provider.evaluate(x)
            batch_acc = t if batch_acc is None else batch_acc + t
    value = (state.z / zp) * acc + batch_acc / zp

    converged = tail_converged(term_norms, running, tol) or _truncation_is_exact(
        spec.provider, meanp, n_star, kind
    )
    return MetricResult(
        value=value,
        truncation_order=n_star,
        tail_estimate=term_norms[-1],
        converged=converged,
    )
