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
  binomial expansion. Every update is one step, whether it advances a
  ladder (``append_batch``, ``update_integer``) or one order
  (``update_fractional``): Z' and the new mean, one call of the
  re-centering kernel that merges share, and one pass over the batch for
  each sum it needs (the value sum and the power sums of all its orders).
  So cost is proportional to the batch size plus ladder work that does
  not depend on how much data the state has absorbed. An empty state is
  filled by ``from_batch``'s own body, with the size-selected batch passes
  in their whole-array form from COLUMNAR_MIN_RECORDS records up; below it
  they are the very loops ``from_batch`` runs.

The re-centering kernel takes its form from the element kind, at every
batch size: one loop over Python numbers on the scalar and complex kinds,
one whole-table numpy pass on the vector kind, whose payloads are arrays.
Either way each order's re-centred value is a function of its own row
alone, summed through that row's own depth.
Below COLUMNAR_MIN_RECORDS records ``Batch.from_values`` holds a scalar or
complex batch as Python numbers, whatever form the records come in, so an
update or metric update by such a batch loads no numpy, and neither does a
merge of scalar or complex states.

Every operation returns a new value; states are immutable and safe to share
across threads. Concurrent merges of disjoint states need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, Sequence

from .binomial import binomial_row
from .elements import (
    Kind,
    Payload,
    _chain_start,
    _walk_plan,
    left_sum,
    norms,
    np,
    one_payload,
    pow_payload,
    pow_records,
    zero_payload,
)
from .errors import (
    DomainError,
    EmptyBatch,
    KindMismatch,
    LadderMismatch,
    ValidationError,
    ZeroNormalizer,
)

# The state types live in ``states``, which a read loads without this module.
from .states import (
    AnyState,
    EmptyState,
    MomentState,
    OrderLadder,
    TAIL_TOL,
    _is_integer_order,
    tail_converged,
)

# |Z| must stay above this fraction of the largest weight magnitude in play;
# every formula divides by it. Negative weights are otherwise fine.
EPS_Z_REL = 1e-12

# A deviation this close to zero (relative to sqrt(M2)) makes negative-order
# moments numerically meaningless: the summand has a pole at the mean.
NEG_ORDER_POLE_REL = 1e-9

# Batches of at least this many records take the whole-array (numpy) form of
# every size-selected pass: the weight sum, the sum of w * g(x) (the value sum
# and the metric batch term) and the power sums. Smaller batches keep
# the per-record loops, because numpy's fixed cost per call is larger than a
# whole loop over a few records. Measured on a 2-core VM with update_integer
# on a 2..20 ladder (median of 300 calls): at 16 records the loops were 3-13%
# faster on scalar and complex data; at 32 the two forms were within 6% on
# scalars and numpy led by 5-24% on complex data; at 64 numpy led by 1.5x or
# more. vector:8 data favours numpy from 8 records, but one constant keeps a
# single policy for all kinds. Below it Batch.from_values keeps a scalar or
# complex batch as Python numbers and builds no array.
COLUMNAR_MIN_RECORDS = 32


class Batch:
    """An appended chunk of weighted records, all of one element kind.

    ``values`` is one read-only array: shape (n,) float64 for scalars, (n,)
    complex128 for complex scalars, (n, dim) float64 for vectors.
    ``weights`` is a read-only (n,) float64 array. ``records`` holds the
    same records as Python payloads and floats, for the per-record passes.

    ``from_values`` builds every batch; what it holds follows the kind and
    the record count, not the form the input came in. Fewer than
    COLUMNAR_MIN_RECORDS scalar or complex records are held as ``records``,
    all that the passes over so small a batch read, so such a batch loads
    no numpy; the arrays are built on first access. Any other batch holds
    the arrays and builds ``records`` on first access. A batch is read-only
    either way.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a Batch is read-only: cannot set {name!r}")

    @property
    def columnar(self) -> bool:
        """Whether passes over this batch take their whole-array form."""
        return self.size >= COLUMNAR_MIN_RECORDS

    @cached_property
    def records(self) -> tuple[tuple[Payload, ...], tuple[float, ...]]:
        """Per-record Python payloads and weights, for the per-record passes;
        converted once per batch."""
        values = tuple(self.values) if self.kind is Kind.VECTOR else tuple(self.values.tolist())
        return values, tuple(self.weights.tolist())

    @cached_property
    def values(self) -> np.ndarray:
        return _read_only(np.array(self.records[0]))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.array(self.records[1]))

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
        1-D component sequences, in any iterable or one array laid out by
        column. At every size and from every input form, each value (each
        vector component) is read by float(), or by complex() on the complex
        kind, and each weight by float(). A value that does not read, or a
        complex number given to a real kind, raises KindMismatch; a weight
        that does not read or is not finite raises ValidationError."""
        # The record count picks the held form, so an iterator is listed first.
        if not hasattr(values, "__len__"):
            values = list(values)
        if not hasattr(weights, "__len__"):
            weights = list(weights)
        try:
            empty = len(values) == 0
        except TypeError:  # a 0-d array holds no records to count
            raise KindMismatch("values must hold one entry per record, got a 0-D array") from None
        if empty:
            raise EmptyBatch("batch must contain at least one record")
        batch = object.__new__(cls)
        held = vars(batch)
        read = complex if kind is Kind.COMPLEX else float
        if kind is not Kind.VECTOR and len(values) < COLUMNAR_MIN_RECORDS:
            values = _numbers(read, values, KindMismatch, "values")
            weights = _numbers(float, weights, ValidationError, "weights")
            held["records"] = values, weights
            finite = all(map(math.isfinite, weights))
        else:
            ndim = 2 if kind is Kind.VECTOR else 1
            values = _column(read, values, ndim, KindMismatch, "values")
            if values.size == 0:
                raise EmptyBatch("batch must contain at least one record")
            if kind is Kind.VECTOR:
                dim = values.shape[1] if dim is None else dim
                if values.shape[1] != dim:
                    raise KindMismatch(
                        f"vector records have {values.shape[1]} components, want {dim}"
                    )
            weights = _column(float, weights, 1, ValidationError, "weights")
            held.update(values=values, weights=weights)
            finite = np.isfinite(weights).all()
        if len(weights) != len(values):
            raise ValidationError("values and weights differ in length")
        if not finite:
            bad = next(w for w in map(float, weights) if not math.isfinite(w))
            raise ValidationError(f"weight must be finite, got {bad!r}")
        held.update(kind=kind, dim=dim, size=len(values))
        return batch


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_complex(x: object) -> bool:
    """Whether ``x`` is a complex number, Python's or numpy's, by its type."""
    import numbers  # loaded only when a value is not a float or an int

    return isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real)


def _numbers(read: type, items: Sequence, error: type[Exception], what: str) -> tuple:
    """Each of ``items`` read by ``read``, float or complex; ``error``, naming
    ``what``, if one does not read or if float is given a complex number,
    which float() refuses from Python and would cut to its real part from
    numpy. Only items other than floats and ints are tested for one."""
    try:
        if read is float and not {float, int}.issuperset(map(type, items)):
            if any(map(_is_complex, items)):
                raise TypeError
        return tuple(map(read, items))
    except (TypeError, ValueError, OverflowError):
        number = "real" if read is float else "complex"
        raise error(f"{what} must each be one {number} number") from None


def _column(
    read: type, items: Sequence, ndim: int, error: type[Exception], what: str
) -> np.ndarray:
    """``items`` copied into a read-only ``ndim``-D array of ``read``'s
    dtype, float64 or complex128, each entry read as _numbers reads it.
    numpy converts a bool, integer or float array (and a complex one for
    complex) as float() or complex() would; any other array, one of None,
    objects or strings or a complex one for float, is read entry by entry
    through _numbers."""
    try:
        arr = np.array(items)
    except ValueError:
        raise error(f"{what} do not share one shape") from None
    if arr.dtype.kind not in ("biufc" if read is complex else "biuf"):
        arr = np.array(_numbers(read, arr.ravel().tolist(), error, what)).reshape(arr.shape)
    if arr.ndim != ndim:
        raise error(f"{what} must form a {ndim}-D array, got {arr.ndim}-D")
    return _read_only(arr.astype(read, copy=False))


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


# Each size-selected pass below takes its whole-array form when ``columnar``
# is set and its per-record loop otherwise. Updates pass batch.columnar;
# from_batch passes False, so it runs the loops at every size.


def _batch_sum(batch: Batch, g: Callable[[Payload], Payload], columnar: bool) -> Payload:
    """sum_i w_i * g(x_i), for a g that maps one payload, or a whole
    ``values`` array elementwise: the value sum and a metric's batch term."""
    if columnar:
        with np.errstate(all="ignore"):
            return batch.weighted_sum(g(batch.values))
    return left_sum(w * g(x) for x, w in zip(*batch.records))


def _power_sums(
    batch: Batch, center: Payload, orders: tuple[float, ...], columnar: bool
) -> list[Payload]:
    """sum_i w_i * (x_i - center)**q for each q in ``orders``, in that order,
    from one set of deviations: every order by the power rule's one plan,
    elements._walk_plan, under its domain rules.

    The per-record pass walks each record's chains, from each chain's start
    (elements._chain_start) one multiply or divide per step, and adds each
    power into its order's sum as the walk reaches it, so every sum runs
    left to right over the records. The whole-array pass sums each column
    pow_records yields as it yields it, so its temporaries stay O(batch):
    no (records x orders) power matrix is ever formed.
    """
    sums: list = [None] * len(orders)
    if columnar:
        with np.errstate(all="ignore"):
            for j, column in pow_records(batch.kind, batch.values - center, orders):
                sums[j] = batch.weighted_sum(column)
        return sums
    kind = batch.kind
    plan = _walk_plan(tuple(orders))
    for x, w in zip(*batch.records):
        d = x - center
        for f, base, named, steps in plan:
            p = _chain_start(kind, d, f, base, named)
            # steps[0] is the start, each later stop one step on (a flag is cheaper than enumerate)
            down, step = base < 0, False
            for j in steps:
                if step:
                    p = p / d if down else p * d
                step = True
                if j is not None:
                    wp = w * p
                    sums[j] = wp if sums[j] is None else sums[j] + wp
    return sums


def _pole_guard(batch: Batch, mean: Payload, z: float) -> None:
    """Refuse negative-order moments when any deviation sits on the pole.

    A precondition check, not a moment sum; from_batch and the first append
    call it. It reads a small scalar or complex batch record by record and
    any other batch as whole arrays.
    """
    if batch.columnar or batch.kind is Kind.VECTOR:
        with np.errstate(all="ignore"):
            ad = np.abs(batch.values - mean)
            m2 = batch.weighted_sum(ad * ad)
            thr = NEG_ORDER_POLE_REL * np.sqrt(np.abs(m2 / z))
        on_pole = bool(np.any(ad <= thr))
    else:
        values, weights = batch.records
        ad = norms(batch.kind, [x - mean for x in values])
        m2 = left_sum(w * (a * a) for a, w in zip(ad, weights))
        thr = NEG_ORDER_POLE_REL * math.sqrt(abs(m2 / z))
        on_pole = any(a <= thr for a in ad)
    if on_pole:
        raise DomainError(
            "negative-order moment requested but a deviation (or a vector "
            "component of one) is on (or numerically at) the pole at the mean"
        )


def _weight_sum_and_scale(batch: Batch, columnar: bool) -> tuple[float, float]:
    """sum_i w_i and max_i |w_i|: the batch's weight sum and the scale its
    normalizer guard compares against."""
    if columnar:
        with np.errstate(all="ignore"):
            return float(batch.weights.sum()), float(np.abs(batch.weights).max())
    weights = batch.records[1]
    return left_sum(weights), max(map(abs, weights))


def _direct(batch: Batch, ladder: OrderLadder, columnar: bool) -> MomentState:
    """The batch's own state: every ladder order a direct weighted power sum
    about the batch mean, by the size-selected passes in the form
    ``columnar`` picks."""
    z, scale = _weight_sum_and_scale(batch, columnar)
    _guard_normalizer(z, scale)
    mean = _batch_sum(batch, lambda x: x, columnar) / z
    if any(q < 0 for q in ladder.fractional_orders):
        _pole_guard(batch, mean, z)
    return MomentState(
        kind=batch.kind,
        dim=batch.dim,
        ladder=ladder,
        z=z,
        mean=mean,
        count=batch.size,
        values=[s / z for s in _power_sums(batch, mean, ladder.orders, columnar)],
    )


def from_batch(batch: Batch, ladder: OrderLadder) -> MomentState:
    """Compute a full moment state from scratch over one batch.

    This is the reference evaluation used to validate every incremental
    path: each ladder order is a direct weighted power sum over the data,
    taken record by record at every batch size, so it shares no whole-array
    kernel with the update passes it checks.
    """
    return _direct(batch, ladder, columnar=False)


def update_normalizer(state: MomentState, batch: Batch) -> float:
    """New weight sum Z' = Z + sum of batch weights; touches only the batch."""
    _require_nonempty(state)
    _check_state_batch(state, batch)
    wsum, wmax = _weight_sum_and_scale(batch, batch.columnar)
    zp = state.z + wsum
    _guard_normalizer(zp, max(abs(state.z), wmax))
    return zp


def _advance_mean(state: MomentState, batch: Batch, zp: float) -> Payload:
    swx = _batch_sum(batch, lambda x: x, batch.columnar)
    return (state.z / zp) * state.mean + swx / zp


@dataclass(frozen=True, eq=False)
class _Table:
    """Coefficients and moment indices for a set of series rows.

    Row r re-centres order q = ``orders[r]`` through its own terms
    k = 0..``depths[r]``: ``coef[r][k]`` is C(q, k), exact for an integer q
    and generalized otherwise; ``index[r][k]`` is the position of M_(q-k) in
    [M_0, M_1, *ladder.orders]. ``fractional`` lists the rows of
    non-integer orders.
    """

    orders: tuple[float, ...]
    coef: tuple[tuple[float, ...], ...]
    index: tuple[tuple[int, ...], ...]
    fractional: tuple[int, ...]

    @cached_property
    def depths(self) -> tuple[int, ...]:
        return tuple(len(c) - 1 for c in self.coef)

    @property
    def width(self) -> int:
        return max(self.depths) + 1

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``coef`` and ``index`` as (rows, width) arrays, zero past each
        row's depth: the vector kind's whole-array form reads these."""
        coef = np.zeros((len(self.orders), self.width))
        index = np.zeros(coef.shape, dtype=np.intp)
        for r, (c, i) in enumerate(zip(self.coef, self.index)):
            coef[r, : len(c)] = c
            index[r, : len(i)] = i
        return _read_only(coef), _read_only(index)


@lru_cache(maxsize=64)
def _table(ladder: OrderLadder, orders: tuple[float, ...]) -> _Table:
    """The rows of ``orders`` over ``ladder``'s moments laid out as M_0 = 1,
    M_1 = 0, then the stored moments in ladder order. An integer order
    n >= 0 takes its n + 1 exact binomial terms; any other order runs as
    far past k = 0 as its chain of stored orders order-1, order-2, ...
    reaches. An order that is neither stored nor 0 or 1 raises
    LadderMismatch."""
    position = {o: i for i, o in enumerate((0.0, 1.0, *ladder.orders))}
    coef, index = [], []
    for order in orders:
        if order not in position:
            raise LadderMismatch(f"order {order} is not stored in the ladder")
        if _is_integer_order(order):
            row = list(map(float, binomial_row(int(order))))
        else:
            row = [1.0]
            while order - len(row) in ladder:
                k = len(row)
                row.append(row[-1] * ((order - (k - 1)) / k))
        coef.append(tuple(row))
        index.append(tuple(position[order - k] for k in range(len(row))))
    return _Table(
        orders=orders,
        coef=tuple(coef),
        index=tuple(index),
        fractional=tuple(r for r, order in enumerate(orders) if not _is_integer_order(order)),
    )


def _recentered(
    state: MomentState, shift: Payload, table: _Table
) -> tuple[Sequence, Sequence, Sequence]:
    """The re-centering kernel: the old moments of ``table``'s orders moved
    onto a mean ``shift`` away, every order in one call.

    Returns, per row, its terms T[k] = coef[k] * (M[index[k]] * shift**k)
    and their partial sums, taken strictly left to right; and its sum
    through its own depth: an integer order's bracket, a fractional order's
    truncated series. A row's value is a function of its own row alone, not
    of which rows share the table.

    On the scalar and complex kinds this is one loop over Python numbers,
    and a non-integer order whose stored moment (its k = 0 term) is exactly
    0 belongs to a zero-spread state, every record on the mean: the row
    starts from its exact value shift**order. The vector kind, whose
    payloads are arrays, takes the whole-table array form, which forms the
    same products and sums in the same order. It has no zero-spread case:
    a vector state holds a fractional order only when every component
    deviation of its fill was above POW_FLOOR.
    """
    kind = state.kind
    one = one_payload(kind, state.dim)
    spow = list(accumulate(repeat(shift, table.width - 1), mul, initial=one))
    if kind is Kind.VECTOR:
        return _recentered_columns(state, table, spow)
    moments = (one, zero_payload(kind), *state.values)
    terms, running = [], []
    for order, coef, index in zip(table.orders, table.coef, table.index):
        row = [c * (moments[i] * p) for c, i, p in zip(coef, index, spow)]
        partial = list(accumulate(row))
        if not row[0] and not _is_integer_order(order):
            exact = pow_payload(kind, shift, order)
            partial = [s + exact for s in partial]
        terms.append(row)
        running.append(partial)
    return terms, running, [partial[-1] for partial in running]


def _recentered_columns(
    state: MomentState, table: _Table, spow: list[Payload]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_recentered over arrays: the (rows, width, dim) term array, zero past
    each row's depth, its partial sums along k and each row's sum at its
    own depth, with numpy's floating-point warnings off, as an overflow is
    refused later."""
    coef, index = table.arrays
    with np.errstate(all="ignore"):
        moments = np.array([spow[0], zero_payload(state.kind, state.dim), *state.values])
        terms = coef[..., None] * (moments[index] * np.array(spow))
        running = np.cumsum(terms, axis=1)
    return terms, running, running[range(len(table.orders)), table.depths]


def _stepped(kind: Kind, old: float, recentered: Sequence, bsums: Sequence, zp: float) -> list:
    """old * recentered[r] + bsums[r] / zp for every row r: the update's new
    moments."""
    if kind is Kind.VECTOR:
        with np.errstate(all="ignore"):
            return list(_read_only(old * recentered + np.array(bsums) / zp))
    return [old * m + s / zp for m, s in zip(recentered, bsums)]


def _advance(
    state: MomentState, batch: Batch, table: _Table, reported: Sequence[int]
) -> tuple[float, Payload, list[Payload], dict[float, ConvergenceReport]]:
    """The one update step: Z', the new mean and ``table``'s orders advanced
    from one pass over the batch and one kernel call, each Z/Z' times the
    old moment re-centred by the mean shift (old mean minus new) plus the
    batch's own power sum over Z'; with the convergence reports of the
    ``reported`` rows of ``table``."""
    zp = update_normalizer(state, batch)
    meanp = _advance_mean(state, batch, zp)
    shift = state.mean - meanp
    bsums = _power_sums(batch, meanp, table.orders, batch.columnar)
    terms, running, recentered = _recentered(state, shift, table)
    values = _stepped(state.kind, state.z / zp, recentered, bsums, zp)
    reports = {}
    if len(reported):
        reports = _series_reports(state.kind, table, reported, terms, running, shift)
    return zp, meanp, values, reports


def _advance_ladder(
    state: MomentState, batch: Batch
) -> tuple[MomentState, dict[float, ConvergenceReport]]:
    """Every ladder order advanced by one update step, with a report for
    each fractional order's series."""
    table = _table(state.ladder, state.ladder.orders)
    zp, meanp, values, reports = _advance(state, batch, table, table.fractional)
    return MomentState(
        kind=state.kind,
        dim=state.dim,
        ladder=state.ladder,
        z=zp,
        mean=meanp,
        count=state.count + batch.size,
        values=values,
    ), reports


def update_integer(state: MomentState, batch: Batch) -> MomentState:
    """Advance every integer ladder order using only the batch.

    Each new moment combines (a) the old moments re-centred onto the new
    mean through their binomial bracket, all orders in one kernel call, and
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


def _series_reports(
    kind: Kind,
    table: _Table,
    rows: Sequence[int],
    terms: Sequence,
    running: Sequence,
    shift: Payload,
) -> dict[float, ConvergenceReport]:
    """The convergence report of each of ``rows``, series rows of ``table``,
    from its term and running norms through its depth, at tolerance
    TAIL_TOL. A zero shift is an exact collapse at any depth: every k >= 1
    term carries shift**k = 0. An integer order's row is its whole finite
    binomial series, so it drops no tail."""
    collapsed = not (np.any(shift) if kind is Kind.VECTOR else shift)
    reports = {}
    for r in rows:
        order, depth = table.orders[r], table.depths[r]
        tn = norms(kind, terms[r][: depth + 1])
        rn = norms(kind, running[r][: depth + 1])
        exact = collapsed or _is_integer_order(order)
        converged = exact or tail_converged(tn, rn, TAIL_TOL)
        reports[order] = ConvergenceReport(order, depth, TAIL_TOL, tuple(tn), converged)
    return reports


def update_fractional(
    state: MomentState, batch: Batch, order: float
) -> tuple[Payload, ConvergenceReport]:
    """Advance one (typically non-integer) moment order using only the batch.

    The single-order entry point to the update step that ``append_batch``
    takes for a whole ladder: the same kernel and the same batch passes.

    Under a non-integer order the re-centering expansion is an infinite
    series with generalized binomial coefficients, summed in ascending k and
    truncated where the state's chain of stored orders order-1, order-2, ...
    ends, as on an append; it holds while the mean shift is below every
    absorbed record's distance from the mean, and the report tells whether
    its tail died out within TAIL_TOL. It starts at zero, or
    for a zero-spread state at its exact value shift**order. An
    integer-valued order takes its exact binomial row, reproducing the
    integer update, and reports converged. A zero shift leaves only the k=0
    term, the stored moment.
    """
    _require_nonempty(state)
    _check_state_batch(state, batch)
    order = float(order)
    table = _table(state.ladder, (order,))
    _, _, (value,), reports = _advance(state, batch, table, [0])
    (report,) = reports.values()
    return value, report


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

    table = _table(a.ladder, a.ladder.orders)
    _, _, ra = _recentered(a, a.mean - meanp, table)
    _, _, rb = _recentered(b, b.mean - meanp, table)
    if a.kind is Kind.VECTOR:
        with np.errstate(all="ignore"):
            values = list(wa * ra + wb * rb)
    else:
        values = [wa * x + wb * y for x, y in zip(ra, rb)]

    return MomentState(
        kind=a.kind,
        dim=a.dim,
        ladder=a.ladder,
        z=zp,
        mean=meanp,
        count=a.count + b.count,
        values=values,
    )


def append_batch(
    state: AnyState, batch: Batch
) -> tuple[MomentState, dict[float, ConvergenceReport]]:
    """Absorb a batch into a state of any ladder shape.

    An empty state is filled by from_batch's body with the size-selected
    passes in the form the batch size picks, so the first append costs what
    a later one does: bit-identical to from_batch below
    COLUMNAR_MIN_RECORDS records, equal to rounding from there up. Otherwise
    every order is re-centred by one kernel call over a table cached per
    ladder: integer orders through their exact binomial bracket, each
    fractional order through its truncated series as deep as its chain of
    stored orders reaches, so the document alone fixes the result. Every
    order reads one shared Z', mean, shift and batch-deviation pass, and the
    result is bit-identical to advancing each order on its own.
    """
    if isinstance(state, EmptyState):
        _check_state_batch(state, batch)
        return _direct(batch, state.ladder, batch.columnar), {}

    if not state.ladder.fractional_orders:
        return update_integer(state, batch), {}
    return _advance_ladder(state, batch)
