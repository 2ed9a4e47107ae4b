"""Streaming weighted central moments.

A MomentState is the compact accumulator: the weight sum Z, the weighted
mean, the record count, and the central moments on a configured ladder of
orders. It is the only thing that has to survive between updates; the raw
data may be discarded.

Two evaluation routes exist and are kept deliberately independent:

* ``from_batch`` is the reference path. It evaluates every ladder order
  directly as (1/Z) * sum_i w_i * (x_i - mean)**n over the full dataset,
  record by record at every size.
* ``append_batch`` advances an existing state using only the appended
  batch, re-centering the stored moments onto the new mean through a
  binomial expansion. All orders share one pass over the batch and one
  call of the re-centering kernel that merges and metric updates share,
  so cost is proportional to the batch size plus ladder work that does
  not depend on how much data the state has absorbed. An empty state is
  filled with the same direct sums as ``from_batch``, taken by the
  size-selected batch passes: whole-array from COLUMNAR_MIN_RECORDS
  records up, and below it the very loops ``from_batch`` runs.

Every operation returns a new value; states are immutable and safe to share
across threads. Concurrent merges of disjoint states need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .binomial import MAX_EXACT_ORDER, binomial_row
from .elements import (
    Kind,
    Payload,
    norm_rows,
    one_payload,
    pow_payload,
    pow_records,
    zero_payload,
)
from .errors import (
    BadLadderSpec,
    DomainError,
    EmptyBatch,
    KindMismatch,
    LadderMismatch,
    OrderNotInLadder,
    ValidationError,
    ZeroNormalizer,
)

# |Z| must stay above this fraction of the largest weight magnitude in play;
# every formula divides by it. Negative weights are otherwise fine.
EPS_Z_REL = 1e-12

# A deviation this close to zero (relative to sqrt(M2)) makes negative-order
# moments numerically meaningless: the summand has a pole at the mean.
NEG_ORDER_POLE_REL = 1e-9

# Batches of at least this many records take the whole-array (numpy) form of
# every size-selected pass: the weight and value sums, the integer power sums,
# the fractional batch term and the metric batch term. Smaller batches keep
# the per-record loops, because numpy's fixed cost per call is larger than a
# whole loop over a few records. Measured on a 2-core VM with update_integer
# on a 2..20 ladder (median of 300 calls): at 16 records the loops were 3-13%
# faster on scalar and complex data; at 32 the two forms were within 6% on
# scalars and numpy led by 5-24% on complex data; at 64 numpy led by 1.5x or
# more. vector:8 data favours numpy from 8 records, but one constant keeps a
# single policy for all kinds.
COLUMNAR_MIN_RECORDS = 32

DEFAULT_FRACTIONAL_CUTOFF = 12
DEFAULT_FRACTIONAL_TOL = 1e-10


def _is_integer_order(order: float) -> bool:
    return float(order).is_integer()


@dataclass(frozen=True)
class OrderLadder:
    """The sorted set of moment orders an accumulator maintains.

    Integer orders must be >= 2 and gap-free down to 2: the re-centering
    recurrence for order n consumes every stored integer order below it.
    Non-integer orders (including negative ones needed by fractional
    updates) are accepted as-is. Orders 0 and 1 are never stored; their
    moments are the exact constants 1 and 0.
    """

    orders: tuple[float, ...]

    def __init__(self, orders: Iterable[float]) -> None:
        normalized = sorted({float(o) for o in orders})
        if not normalized:
            raise BadLadderSpec("ladder must contain at least one order")
        for o in normalized:
            if not math.isfinite(o):
                raise BadLadderSpec(f"ladder order must be finite, got {o!r}")
            if _is_integer_order(o):
                if o < 2:
                    raise BadLadderSpec(
                        f"integer ladder order must be >= 2, got {int(o)} "
                        "(orders 0 and 1 are the exact constants 1 and 0)"
                    )
                if o > MAX_EXACT_ORDER:
                    raise BadLadderSpec(
                        f"integer ladder order {int(o)} exceeds {MAX_EXACT_ORDER}"
                    )
        ints = [int(o) for o in normalized if _is_integer_order(o)]
        if ints:
            expected = list(range(2, ints[-1] + 1))
            if ints != expected:
                missing = sorted(set(expected) - set(ints))
                raise BadLadderSpec(
                    f"integer orders must be gap-free from 2: missing {missing}"
                )
        object.__setattr__(self, "orders", tuple(normalized))

    @classmethod
    def integer_range(cls, lo: int, hi: int) -> "OrderLadder":
        if lo < 2 or hi < lo:
            raise BadLadderSpec(f"bad integer range {lo}..{hi}")
        return cls(range(lo, hi + 1))

    @cached_property
    def integer_orders(self) -> tuple[int, ...]:
        return tuple(int(o) for o in self.orders if _is_integer_order(o))

    @cached_property
    def fractional_orders(self) -> tuple[float, ...]:
        return tuple(o for o in self.orders if not _is_integer_order(o))

    @cached_property
    def _order_set(self) -> frozenset[float]:
        return frozenset(self.orders)

    @property
    def max_integer_order(self) -> int | None:
        ints = self.integer_orders
        return ints[-1] if ints else None

    def __contains__(self, order: float) -> bool:
        return order in self._order_set

    def __len__(self) -> int:
        return len(self.orders)


def fractional_chain(target: float, depth: int) -> tuple[float, ...]:
    """Orders target-k for k = 0..depth: what a fractional update consumes."""
    if _is_integer_order(target):
        raise BadLadderSpec(f"fractional chain needs a non-integer target, got {target}")
    if depth < 0:
        raise BadLadderSpec(f"chain depth must be >= 0, got {depth}")
    return tuple(float(target) - k for k in range(depth + 1))


def expand_fractional_targets(
    orders: Iterable[float], depth: int = DEFAULT_FRACTIONAL_CUTOFF
) -> tuple[float, ...]:
    """Close a requested order set over the chains its fractional targets need."""
    out = {float(o) for o in orders}
    for o in sorted(out):
        if not _is_integer_order(o):
            out.update(fractional_chain(o, depth))
    return tuple(sorted(out))


_FLOAT64 = np.dtype(np.float64)
_VALUE_DTYPE = {Kind.SCALAR: _FLOAT64, Kind.COMPLEX: np.dtype(np.complex128), Kind.VECTOR: _FLOAT64}


@dataclass(frozen=True, eq=False)
class Batch:
    """An appended chunk of weighted records, all of one element kind, held by column.

    ``values`` is one array: shape (n,) float64 for scalars, (n,) complex128
    for complex scalars, (n, dim) float64 for vectors. ``weights`` is an
    (n,) float64 array. Both are frozen (made read-only) on construction;
    ``from_values`` copies from any sequence first.
    """

    kind: Kind
    dim: int | None
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        values, weights = self.values, self.weights
        if not (isinstance(values, np.ndarray) and isinstance(weights, np.ndarray)):
            raise ValidationError("a Batch holds arrays; build one from sequences with from_values")
        if len(values) == 0:
            raise EmptyBatch("batch must contain at least one record")
        want_ndim = 2 if self.kind is Kind.VECTOR else 1
        if values.dtype != _VALUE_DTYPE[self.kind] or values.ndim != want_ndim:
            raise KindMismatch(
                f"{self.kind.value} batch needs {want_ndim}-D {_VALUE_DTYPE[self.kind]} "
                f"values, got {values.ndim}-D {values.dtype}"
            )
        if self.kind is Kind.VECTOR and values.shape[1] != self.dim:
            raise KindMismatch(f"vector records have {values.shape[1]} components, want {self.dim}")
        if weights.shape != (len(values),):
            raise ValidationError("values and weights differ in length")
        if weights.dtype != _FLOAT64:
            raise ValidationError(f"weights must be float64, got {weights.dtype}")
        # A small batch is checked through its per-record form, which its
        # passes use anyway; numpy's fixed cost per call exceeds the loop.
        if self.columnar:
            finite = bool(np.isfinite(weights).all())
        else:
            finite = all(map(math.isfinite, self.records[1]))
        if not finite:
            bad = next(w for w in weights.tolist() if not math.isfinite(w))
            raise ValidationError(f"weight must be finite, got {bad!r}")
        values.flags.writeable = False
        weights.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def columnar(self) -> bool:
        """Whether passes over this batch take their whole-array form."""
        return len(self.values) >= COLUMNAR_MIN_RECORDS

    @cached_property
    def records(self) -> tuple[tuple[Payload, ...], tuple[float, ...]]:
        """Per-record Python payloads and weights, for the per-record passes;
        converted once per batch."""
        values = tuple(self.values) if self.kind is Kind.VECTOR else tuple(self.values.tolist())
        return values, tuple(self.weights.tolist())

    def weighted_sum(self, column: np.ndarray) -> Payload:
        """sum_i w_i * column[i] for a column shaped like ``values``, as a payload."""
        total = self.weights @ column
        if self.kind is Kind.SCALAR:
            return float(total)
        if self.kind is Kind.COMPLEX:
            return complex(total)
        return total

    @classmethod
    def from_values(
        cls,
        kind: Kind,
        values: Iterable,
        weights: Iterable[float],
        dim: int | None = None,
    ) -> "Batch":
        """Copy a batch out of per-record values: floats, complex numbers or
        1-D component sequences, or one array already laid out by column."""
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        if not isinstance(weights, (np.ndarray, list, tuple)):
            weights = list(weights)
        try:
            arr = np.array(values, dtype=_VALUE_DTYPE[kind])
        except ValueError:
            raise KindMismatch(f"{kind.value} records do not share one shape") from None
        if kind is Kind.VECTOR:
            if arr.size == 0:
                raise EmptyBatch("vector batch needs at least one record")
            if dim is None and arr.ndim == 2:
                dim = arr.shape[1]
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise KindMismatch(f"vector records have shape {arr.shape[1:]}, want ({dim},)")
        elif arr.ndim != 1:
            raise KindMismatch(f"{kind.value} records must be single numbers")
        return cls(kind=kind, dim=dim, values=arr, weights=np.array(weights, dtype=_FLOAT64))


@dataclass(frozen=True)
class EmptyState:
    """A configured accumulator that has absorbed no data yet."""

    kind: Kind
    dim: int | None
    ladder: OrderLadder


@dataclass(frozen=True, eq=False)
class MomentState:
    """The compact accumulator; immutable, and all that persistence keeps.

    A vector state's mean and moment arrays are made read-only here, on
    every path that builds a state.
    """

    kind: Kind
    dim: int | None
    ladder: OrderLadder
    z: float
    mean: Payload
    count: int
    moments: Mapping[float, Payload]

    def __post_init__(self) -> None:
        stored = dict(self.moments)
        if set(stored) != set(self.ladder.orders):
            raise LadderMismatch("stored moment orders do not match the ladder")
        object.__setattr__(self, "moments", MappingProxyType(stored))
        if self.kind is Kind.VECTOR:
            for value in (self.mean, *stored.values()):
                value.flags.writeable = False

    def moment(self, order: float) -> Payload:
        """M_order; orders 0 and 1 are the exact constants 1 and 0."""
        o = float(order)
        if o == 0.0:
            return one_payload(self.kind, self.dim)
        if o == 1.0:
            return zero_payload(self.kind, self.dim)
        try:
            return self.moments[o]
        except KeyError:
            raise OrderNotInLadder(f"order {order} is not in the ladder") from None


AnyState = Union[MomentState, EmptyState]


def _check_state_batch(state: AnyState, batch: Batch) -> None:
    if state.kind is not batch.kind or state.dim != batch.dim:
        raise KindMismatch(
            f"state holds {state.kind.value} (dim={state.dim}) but batch is "
            f"{batch.kind.value} (dim={batch.dim})"
        )


def _require_nonempty(state: AnyState) -> MomentState:
    if isinstance(state, EmptyState):
        raise ValidationError("operation requires a non-empty state")
    return state


def _guard_normalizer(z: float, scale: float) -> None:
    if abs(z) <= EPS_Z_REL * scale:
        raise ZeroNormalizer(
            f"weight sum {z!r} vanished relative to weight scale {scale!r}"
        )


def _weighted_value_sum(batch: Batch) -> Payload:
    """sum_i w_i * x_i."""
    if batch.columnar:
        with np.errstate(all="ignore"):
            return batch.weighted_sum(batch.values)
    return _weighted_value_sum_loop(*batch.records)


def _weighted_value_sum_loop(values: Sequence[Payload], weights: Sequence[float]) -> Payload:
    acc = None
    for x, w in zip(values, weights):
        wx = w * x
        acc = wx if acc is None else acc + wx
    return acc


def _integer_power_sums(batch: Batch, center: Payload, max_order: int) -> list[Payload]:
    """sum_i w_i * (x_i - center)**n for n = 2..max_order, by index n-2.

    The whole-array pass keeps one running deviation power, one multiply per
    element per order, so its temporaries stay O(batch): no (records x orders)
    power matrix is ever formed.
    """
    if not batch.columnar:
        return _integer_power_sums_loop(*batch.records, center, max_order)
    sums = []
    with np.errstate(all="ignore"):
        d = batch.values - center
        p = d.copy()
        for _ in range(max_order - 1):
            p *= d
            sums.append(batch.weighted_sum(p))
    return sums


def _integer_power_sums_loop(
    values: Sequence[Payload],
    weights: Sequence[float],
    center: Payload,
    max_order: int,
) -> list[Payload]:
    sums: list = [None] * (max_order - 1)
    for x, w in zip(values, weights):
        d = x - center
        p = d
        for j in range(max_order - 1):
            p = p * d
            wp = w * p
            sums[j] = wp if sums[j] is None else sums[j] + wp
    return sums


def _fractional_power_sums(batch: Batch, center: Payload, orders: Sequence[float]) -> list[Payload]:
    """sum_i w_i * (x_i - center)**q for each q in ``orders``, under
    pow_payload's domain rules. The deviations are taken once for all
    orders; the whole-array form holds one power column at a time."""
    if not batch.columnar:
        values, weights = batch.records
        devs = [x - center for x in values]
        return [_power_sum_loop(batch.kind, devs, weights, q) for q in orders]
    with np.errstate(all="ignore"):
        return [
            batch.weighted_sum(p) for p in pow_records(batch.kind, batch.values - center, orders)
        ]


def _power_sum_loop(
    kind: Kind, devs: Sequence[Payload], weights: Sequence[float], order: float
) -> Payload:
    acc = None
    for d, w in zip(devs, weights):
        t = w * pow_payload(kind, d, order)
        acc = t if acc is None else acc + t
    return acc


def _pole_guard(batch: Batch, mean: Payload, z: float) -> None:
    """Refuse negative-order moments when any deviation sits on the pole.

    A precondition check, not a moment sum, so it takes the whole-array form
    at every size; from_batch and the first append call it.
    """
    with np.errstate(all="ignore"):
        ad = np.abs(batch.values - mean)
        m2 = batch.weighted_sum(ad * ad)
        thr = NEG_ORDER_POLE_REL * np.sqrt(np.abs(m2 / z))
    if np.any(ad <= thr):
        raise DomainError(
            "negative-order moment requested but a deviation (or a vector "
            "component of one) is on (or numerically at) the pole at the mean"
        )


def from_batch(batch: Batch, ladder: OrderLadder) -> MomentState:
    """Compute a full moment state from scratch over one batch.

    This is the reference evaluation used to validate every incremental
    path: each ladder order is a direct weighted power sum over the data,
    taken record by record at every batch size, so it shares no whole-array
    kernel with the update passes it checks.
    """
    values, weights = batch.records
    z = sum(weights)
    scale = max(abs(w) for w in weights)
    _guard_normalizer(z, scale)
    mean = _weighted_value_sum_loop(values, weights) / z

    moments: dict[float, Payload] = {}
    ints = ladder.integer_orders
    if ints:
        sums = _integer_power_sums_loop(values, weights, mean, ints[-1])
        for n in ints:
            moments[float(n)] = sums[n - 2] / z
    fracs = ladder.fractional_orders
    if fracs:
        if any(q < 0 for q in fracs):
            _pole_guard(batch, mean, z)
        devs = [x - mean for x in values]
        for q in fracs:
            moments[q] = _power_sum_loop(batch.kind, devs, weights, q) / z

    return MomentState(
        kind=batch.kind,
        dim=batch.dim,
        ladder=ladder,
        z=z,
        mean=mean,
        count=batch.size,
        moments=moments,
    )


def _weight_sum_and_scale(batch: Batch) -> tuple[float, float]:
    """sum_i w_i and max_i |w_i|: the batch's weight sum and the scale its
    normalizer guard compares against."""
    if batch.columnar:
        with np.errstate(all="ignore"):
            return float(batch.weights.sum()), float(np.abs(batch.weights).max())
    weights = batch.records[1]
    return sum(weights), max(abs(w) for w in weights)


def update_normalizer(state: MomentState, batch: Batch) -> float:
    """New weight sum Z' = Z + sum of batch weights; touches only the batch."""
    _require_nonempty(state)
    _check_state_batch(state, batch)
    wsum, wmax = _weight_sum_and_scale(batch)
    zp = state.z + wsum
    _guard_normalizer(zp, max(abs(state.z), wmax))
    return zp


def _advance_mean(state: MomentState, batch: Batch, zp: float) -> Payload:
    swx = _weighted_value_sum(batch)
    return (state.z / zp) * state.mean + swx / zp


def update_mean(state: MomentState, batch: Batch, zp: float) -> Payload:
    """New mean from the old mean and the batch alone."""
    _require_nonempty(state)
    _check_state_batch(state, batch)
    return _advance_mean(state, batch, zp)


def _shift_powers(kind: Kind, dim: int | None, shift: Payload, max_k: int) -> np.ndarray:
    """shift**0..shift**max_k by repeated multiplication, as one array."""
    powers = [one_payload(kind, dim)]
    for _ in range(max_k):
        powers.append(powers[-1] * shift)
    return np.array(powers, dtype=_VALUE_DTYPE[kind])


def _recenter(state: MomentState, batch: Batch) -> tuple[float, Payload, Payload]:
    """Z', the new mean and the mean shift (old mean minus new): what every
    order of one append shares, from one pass over the batch."""
    zp = update_normalizer(state, batch)
    meanp = _advance_mean(state, batch, zp)
    return zp, meanp, state.mean - meanp


@dataclass(frozen=True, eq=False)
class _Table:
    """Coefficient and moment-index tables for a set of series rows.

    Row r re-centres order q = ``orders[r]`` through the terms
    k = 0..``depths[r]``: ``coef[r, k]`` is C(q, k), exact for an integer q
    and generalized otherwise, zero past the depth; ``index[r, k]`` is the
    position of M_(q-k) in the gathered moments, so a row's last column
    is its sum through its depth. ``fractional`` lists the rows of
    non-integer orders.
    """

    orders: tuple[float, ...]
    depths: np.ndarray
    coef: np.ndarray
    index: np.ndarray
    fractional: np.ndarray


@lru_cache(maxsize=64)
def _table(ladder: OrderLadder, rows: tuple[tuple[float, int], ...]) -> _Table:
    """The table of ``rows``, (order, depth) pairs, over ``ladder``'s moments
    gathered as M_0 = 1, M_1 = 0, the integer orders ascending (M_n at
    position n), then the fractional orders. Read-only, since it is shared."""
    top = ladder.max_integer_order or 1
    position = {float(n): n for n in range(top + 1)}
    position.update((q, top + 1 + i) for i, q in enumerate(ladder.fractional_orders))
    coef = np.zeros((len(rows), max(depth for _, depth in rows) + 1))
    index = np.zeros(coef.shape, dtype=np.intp)
    for r, (order, depth) in enumerate(rows):
        exact = binomial_row(int(order)) if _is_integer_order(order) and order >= 0 else None
        c = 1.0
        for k in range(depth + 1):
            if exact is not None:
                c = exact[k] if k < len(exact) else 0
            elif k:
                c *= (order - (k - 1)) / k
            if not c:
                continue
            if order - k not in position:
                raise LadderMismatch(
                    f"updating order {order} at cutoff {depth} needs ladder order {order - k}"
                )
            coef[r, k], index[r, k] = c, position[order - k]
    depths = np.array([depth for _, depth in rows], dtype=np.intp)
    fractional = np.flatnonzero([not _is_integer_order(order) for order, _ in rows])
    for a in (coef, index, depths, fractional):
        a.flags.writeable = False
    return _Table(tuple(order for order, _ in rows), depths, coef, index, fractional)


@lru_cache(maxsize=32)
def _ladder_table(ladder: OrderLadder) -> _Table:
    """Every ladder order's row: integer order n through its n + 1 terms, and
    each fractional order as deep as its chain of stored orders reaches."""
    rows = [(float(n), n) for n in ladder.integer_orders]
    rows += [(q, _available_depth(ladder, q)) for q in ladder.fractional_orders]
    return _table(ladder, tuple(rows))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, complex products from their real and imaginary
    parts: numpy's complex multiply fuses multiply and add in some loops and
    not others, so a moment would depend on which orders share its table."""
    if a.dtype.kind != "c":
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _recentered(
    state: MomentState, shift: Payload, table: _Table
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The re-centering kernel: the old moments of ``table``'s orders moved
    onto a mean ``shift`` away, every order and element kind in one pass.

    Returns the term matrix T[r, k] = coef[r, k] * (M[index[r, k]] *
    shift**k), its partial sums along k taken strictly left to right, and
    each row's sum: an integer order's bracket, a fractional order's
    truncated series. A row's value depends only on its own terms, not on
    which rows share the table. A non-integer order whose stored moment
    (its k = 0 term) is exactly 0 belongs to a zero-spread state, every
    record on the mean: the row starts from its exact value shift**order.
    Callers hold np.errstate(all="ignore"), as an overflow is refused later.
    """
    kind, dim, m = state.kind, state.dim, state.moments
    moments = np.array(
        [
            one_payload(kind, dim),
            zero_payload(kind, dim),
            *(m[n] for n in state.ladder.integer_orders),
            *(m[q] for q in state.ladder.fractional_orders),
        ],
        dtype=_VALUE_DTYPE[kind],
    )
    spow = _shift_powers(kind, dim, shift, table.coef.shape[1] - 1)
    coef = table.coef[..., None] if kind is Kind.VECTOR else table.coef
    terms = coef * _times(moments[table.index], spow)
    running = np.cumsum(terms, axis=1)
    if len(table.fractional):
        first = terms[table.fractional, 0].reshape(-1, dim or 1)
        for r in table.fractional[~first.any(axis=1)]:
            running[r] += pow_payload(kind, shift, table.orders[r])
    return terms, running, running[:, -1]


def _payloads(kind: Kind, values: np.ndarray) -> list[Payload]:
    """An array's rows as payloads: floats, complex numbers or read-only arrays."""
    if kind is Kind.VECTOR:
        values.flags.writeable = False
        return list(values)
    return values.tolist()


def _advance_ladder(
    state: MomentState, batch: Batch
) -> tuple[MomentState, dict[float, ConvergenceReport]]:
    """Every ladder order advanced from one pass over the batch and one
    kernel call: Z/Z' times the re-centred old moment plus the batch's own
    power sum over Z'."""
    ladder = state.ladder
    table = _ladder_table(ladder)
    zp, meanp, shift = _recenter(state, batch)
    ints, fracs = ladder.integer_orders, ladder.fractional_orders
    bsums = _integer_power_sums(batch, meanp, ints[-1]) if ints else []
    if fracs:
        bsums += _fractional_power_sums(batch, meanp, fracs)
    with np.errstate(all="ignore"):
        terms, running, recentered = _recentered(state, shift, table)
        values = (state.z / zp) * recentered + np.array(bsums) / zp
    reports = {}
    if fracs:
        reports = _series_reports(
            state.kind, table, table.fractional, terms, running, shift, DEFAULT_FRACTIONAL_TOL
        )
    new_state = MomentState(
        kind=state.kind,
        dim=state.dim,
        ladder=ladder,
        z=zp,
        mean=meanp,
        count=state.count + batch.size,
        moments=dict(zip(table.orders, _payloads(state.kind, values))),
    )
    return new_state, reports


def update_integer(state: MomentState, batch: Batch) -> MomentState:
    """Advance every integer ladder order using only the batch.

    Each new moment combines (a) the old moments re-centred onto the new
    mean through their binomial bracket, all orders in one array pass, and
    (b) one weighted power sum over the appended records. Runtime is
    O((n_max - 1) * batch) plus O(n_max**2) ladder work independent of the
    absorbed count.
    """
    _require_nonempty(state)
    _check_state_batch(state, batch)
    if state.ladder.fractional_orders:
        raise LadderMismatch(
            "ladder carries fractional orders; advance them with append_batch"
        )
    return _advance_ladder(state, batch)[0]


@dataclass(frozen=True)
class ConvergenceReport:
    """Runtime convergence monitor for one truncated series evaluation.

    ``converged`` is set when the last three series terms are each within
    ``tol`` of the running partial-sum norm. Non-convergence is reported,
    never raised: the caller decides what a divergent tail means.
    """

    order: float
    cutoff: int
    tol: float
    term_norms: tuple[float, ...]
    converged: bool


def tail_converged(term_norms: Sequence[float], running: Sequence[float], tol: float) -> bool:
    """The series tail monitor: each of the last three terms (fewer if the
    series is shorter) is within ``tol`` of the running partial-sum norm
    after it. ``term_norms[i]`` and ``running[i]`` belong to term i."""
    window = min(3, len(term_norms))
    return all(term_norms[-1 - i] <= tol * running[-1 - i] for i in range(window))


def _series_reports(
    kind: Kind,
    table: _Table,
    rows: Sequence[int],
    terms: np.ndarray,
    running: np.ndarray,
    shift: Payload,
    tol: float,
) -> dict[float, ConvergenceReport]:
    """The convergence report of each of ``rows``, series rows of ``table``,
    from its term and running norms through its depth. A zero shift is an
    exact collapse at any depth: every k >= 1 term carries shift**k = 0."""
    collapsed = not np.any(shift)
    term_norms = norm_rows(kind, terms[rows]).tolist()
    running_norms = norm_rows(kind, running[rows]).tolist()
    reports = {}
    for r, tn, rn in zip(rows, term_norms, running_norms):
        order, depth = table.orders[r], int(table.depths[r])
        tn, rn = tn[: depth + 1], rn[: depth + 1]
        converged = collapsed or tail_converged(tn, rn, tol)
        reports[order] = ConvergenceReport(order, depth, tol, tuple(tn), converged)
    return reports


def update_fractional(
    state: MomentState,
    batch: Batch,
    order: float,
    cutoff: int = DEFAULT_FRACTIONAL_CUTOFF,
    tol: float = DEFAULT_FRACTIONAL_TOL,
) -> tuple[Payload, ConvergenceReport]:
    """Advance one (typically non-integer) moment order using only the batch.

    The single-order entry point; ``append_batch`` advances a whole ladder
    through the same re-centering kernel with one pass over the batch.

    Under a non-integer order the re-centering expansion is an infinite
    series, truncated at ``cutoff`` terms with generalized binomial
    coefficients and summed in ascending k; it holds while the mean shift is
    below every absorbed record's distance from the mean, and the report
    tells whether its tail died out. It starts at zero, or for a zero-spread
    state at its exact value shift**order. An integer-valued order takes
    the exact binomial row, reproducing the integer update. A zero shift
    leaves only the k=0 term, the stored moment.
    """
    _require_nonempty(state)
    _check_state_batch(state, batch)
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    forder = float(order)
    table = _table(state.ladder, ((forder, cutoff),))
    zp, meanp, shift = _recenter(state, batch)
    bsums = _fractional_power_sums(batch, meanp, (forder,))
    with np.errstate(all="ignore"):
        terms, running, recentered = _recentered(state, shift, table)
        value = (state.z / zp) * recentered + np.array(bsums) / zp
    (report,) = _series_reports(state.kind, table, [0], terms, running, shift, tol).values()
    return _payloads(state.kind, value)[0], report


def merge_states(a: AnyState, b: AnyState) -> AnyState:
    """Combine two accumulators as if their datasets were concatenated.

    Each side's moments are re-centred onto the merged mean by the same
    kernel the append update uses; only integer ladders merge.
    Commutative bit-for-bit.
    """
    if a.kind is not b.kind or a.dim != b.dim:
        raise KindMismatch("merging states of different kinds")
    if a.ladder.orders != b.ladder.orders:
        raise LadderMismatch("merging states with different ladders")
    if isinstance(a, EmptyState):
        return b
    if isinstance(b, EmptyState):
        return a
    if a.ladder.fractional_orders:
        raise LadderMismatch("only integer ladders can be merged")

    zp = a.z + b.z
    _guard_normalizer(zp, max(abs(a.z), abs(b.z)))
    wa, wb = a.z / zp, b.z / zp
    meanp = wa * a.mean + wb * b.mean

    table = _ladder_table(a.ladder)
    with np.errstate(all="ignore"):
        _, _, ra = _recentered(a, a.mean - meanp, table)
        _, _, rb = _recentered(b, b.mean - meanp, table)
        values = wa * ra + wb * rb

    return MomentState(
        kind=a.kind,
        dim=a.dim,
        ladder=a.ladder,
        z=zp,
        mean=meanp,
        count=a.count + b.count,
        moments=dict(zip(table.orders, _payloads(a.kind, values))),
    )


def _available_depth(ladder: OrderLadder, order: float) -> int:
    """How far past k = 0 the stored chain of a non-integer order reaches."""
    depth = 0
    while order - (depth + 1) in ladder:
        depth += 1
    return depth


def _fill(batch: Batch, ladder: OrderLadder) -> MomentState:
    """The first append: from_batch's sums, taken by the size-selected passes.

    Below COLUMNAR_MIN_RECORDS those passes are from_batch's own loops, so
    the result is bit-identical to it; from there up they are the
    whole-array forms and agree with it to rounding.
    """
    z, scale = _weight_sum_and_scale(batch)
    _guard_normalizer(z, scale)
    mean = _weighted_value_sum(batch) / z

    moments: dict[float, Payload] = {}
    ints = ladder.integer_orders
    if ints:
        sums = _integer_power_sums(batch, mean, ints[-1])
        for n in ints:
            moments[float(n)] = sums[n - 2] / z
    fracs = ladder.fractional_orders
    if fracs:
        if any(q < 0 for q in fracs):
            _pole_guard(batch, mean, z)
        for q, s in zip(fracs, _fractional_power_sums(batch, mean, fracs)):
            moments[q] = s / z

    return MomentState(
        kind=batch.kind,
        dim=batch.dim,
        ladder=ladder,
        z=z,
        mean=mean,
        count=batch.size,
        moments=moments,
    )


def append_batch(
    state: AnyState, batch: Batch
) -> tuple[MomentState, dict[float, ConvergenceReport]]:
    """Absorb a batch into a state of any ladder shape.

    An empty state is filled with the batch's own moments through the same
    size-selected passes the update uses, so the first append costs what
    a later one does; from_batch stays the per-record reference. Otherwise
    every order is re-centred by one kernel call over a table cached per
    ladder: integer orders through their exact binomial bracket, each
    fractional order through its truncated series as deep as its chain of
    stored orders reaches, so the document alone fixes the result. Every
    order reads one shared Z', mean, shift and batch-deviation pass, and the
    result is bit-identical to advancing each order on its own.
    """
    if isinstance(state, EmptyState):
        _check_state_batch(state, batch)
        return _fill(batch, state.ladder), {}

    if not state.ladder.fractional_orders:
        return update_integer(state, batch), {}
    return _advance_ladder(state, batch)
