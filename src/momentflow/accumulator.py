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

Every operation returns a new value; states are immutable and safe to share
across threads. Concurrent merges of disjoint states need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .binomial import binomial_row
from .elements import (
    Kind,
    Payload,
    np,
    norm_rows,
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

# The state types live in ``states``, which a read loads without this module;
# they are imported back so that ``momentflow.accumulator`` still offers them.
from .states import (
    DEFAULT_FRACTIONAL_CUTOFF,
    AnyState,
    EmptyState,
    MomentState,
    OrderLadder,
    _is_integer_order,
    expand_fractional_targets,
    fractional_chain,
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
# single policy for all kinds.
COLUMNAR_MIN_RECORDS = 32

DEFAULT_FRACTIONAL_TOL = 1e-10


@lru_cache(maxsize=None)
def _dtypes() -> dict[Kind, np.dtype]:
    """Each kind's value dtype, resolved on first use: numpy loads only
    when something needs it. Weights take the scalar kind's."""
    f64 = np.dtype(np.float64)
    return {Kind.SCALAR: f64, Kind.COMPLEX: np.dtype(np.complex128), Kind.VECTOR: f64}


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
        if values.size == 0:
            raise EmptyBatch("batch must contain at least one record")
        want_ndim = 2 if self.kind is Kind.VECTOR else 1
        dtypes = _dtypes()
        if values.dtype != dtypes[self.kind] or values.ndim != want_ndim:
            raise KindMismatch(
                f"{self.kind.value} batch needs {want_ndim}-D {dtypes[self.kind]} "
                f"values, got {values.ndim}-D {values.dtype}"
            )
        if self.kind is Kind.VECTOR and values.shape[1] != self.dim:
            raise KindMismatch(f"vector records have {values.shape[1]} components, want {self.dim}")
        if weights.shape != (len(values),):
            raise ValidationError("values and weights differ in length")
        if weights.dtype != dtypes[Kind.SCALAR]:
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
        dtypes = _dtypes()
        try:
            arr = np.array(values, dtype=dtypes[kind])
        except ValueError:
            raise KindMismatch(f"{kind.value} records do not share one shape") from None
        if kind is Kind.VECTOR and dim is None and arr.ndim == 2:
            dim = arr.shape[1]
        weights = np.array(weights, dtype=dtypes[Kind.SCALAR])
        return cls(kind=kind, dim=dim, values=arr, weights=weights)




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
    acc = None
    for x, w in zip(*batch.records):
        t = w * g(x)
        acc = t if acc is None else acc + t
    return acc


@lru_cache(maxsize=64)
def _order_split(orders: tuple[float, ...]) -> tuple[int, tuple[float, ...], tuple[int, ...]]:
    """How _power_sums takes ``orders``: the top integer order from 2 up (1
    if none), whose sums 2..top come from one running power; the remaining
    orders, in their given order; and where each of ``orders`` sits in the
    sums 2..top followed by those of the remaining orders."""
    top = int(max((o for o in orders if o >= 2 and _is_integer_order(o)), default=1))
    running = tuple(map(float, range(2, top + 1)))
    rest = tuple(o for o in orders if o not in running)
    position = {o: i for i, o in enumerate(running + rest)}
    return top, rest, tuple(position[o] for o in orders)


def _power_sums(
    batch: Batch, center: Payload, orders: tuple[float, ...], columnar: bool
) -> list[Payload]:
    """sum_i w_i * (x_i - center)**q for each q in ``orders``, in that order,
    from one set of deviations: the integer orders from 2 up by one running
    power, every other order under pow_payload's domain rules.

    The whole-array pass multiplies one running power column in place and
    holds one power column of the other orders at a time, so its temporaries
    stay O(batch): no (records x orders) power matrix is ever formed.
    """
    top, rest, pick = _order_split(orders)
    if not columnar:
        values, weights = batch.records
        devs = [x - center for x in values]
        sums: list = [None] * (top - 1)
        for d, w in zip(devs, weights):
            p = d
            for j in range(top - 1):
                p = p * d
                wp = w * p
                sums[j] = wp if sums[j] is None else sums[j] + wp
        for q in rest:
            acc = None
            for d, w in zip(devs, weights):
                t = w * pow_payload(batch.kind, d, q)
                acc = t if acc is None else acc + t
            sums.append(acc)
        return [sums[i] for i in pick]
    sums = []
    with np.errstate(all="ignore"):
        d = batch.values - center
        p = d.copy()
        for _ in range(top - 1):
            p *= d
            sums.append(batch.weighted_sum(p))
        sums.extend(batch.weighted_sum(c) for c in pow_records(batch.kind, d, rest))
    return [sums[i] for i in pick]


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


def _weight_sum_and_scale(batch: Batch, columnar: bool) -> tuple[float, float]:
    """sum_i w_i and max_i |w_i|: the batch's weight sum and the scale its
    normalizer guard compares against."""
    if columnar:
        with np.errstate(all="ignore"):
            return float(batch.weights.sum()), float(np.abs(batch.weights).max())
    weights = batch.records[1]
    return sum(weights), max(abs(w) for w in weights)


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
    return np.array(powers, dtype=_dtypes()[kind])


@dataclass(frozen=True, eq=False)
class _Table:
    """Coefficient and moment-index tables for a set of series rows.

    Row r re-centres order q = ``orders[r]`` through the terms
    k = 0..``depths[r]``: ``coef[r, k]`` is C(q, k), exact for an integer q
    and generalized otherwise, zero past the depth; ``index[r, k]`` is the
    position of M_(q-k) in [M_0, M_1, *ladder.orders], so a row's last
    column is its sum through its depth. ``fractional`` lists the rows of
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
    laid out as M_0 = 1, M_1 = 0, then the stored moments in ladder order.
    Read-only, since it is shared."""
    position = {o: i for i, o in enumerate((0.0, 1.0, *ladder.orders))}
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
    """Every ladder order's row, in ladder order: integer order n through its
    n + 1 terms, and each fractional order as deep as its chain of stored
    orders reaches."""
    rows = tuple(
        (o, int(o) if _is_integer_order(o) else _available_depth(ladder, o)) for o in ladder.orders
    )
    return _table(ladder, rows)


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
    kind, dim = state.kind, state.dim
    moments = np.array(
        [one_payload(kind, dim), zero_payload(kind, dim), *state.values],
        dtype=_dtypes()[kind],
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
    with np.errstate(all="ignore"):
        terms, running, recentered = _recentered(state, shift, table)
        values = (state.z / zp) * recentered + np.array(bsums) / zp
    reports = {}
    if len(reported):
        reports = _series_reports(state.kind, table, reported, terms, running, shift)
    return zp, meanp, _payloads(state.kind, values), reports


def _advance_ladder(
    state: MomentState, batch: Batch
) -> tuple[MomentState, dict[float, ConvergenceReport]]:
    """Every ladder order advanced by one update step, with a report for
    each fractional order's series."""
    table = _ladder_table(state.ladder)
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
) -> dict[float, ConvergenceReport]:
    """The convergence report of each of ``rows``, series rows of ``table``,
    from its term and running norms through its depth, at tolerance
    DEFAULT_FRACTIONAL_TOL. A zero shift is an exact collapse at any depth:
    every k >= 1 term carries shift**k = 0."""
    collapsed = not np.any(shift)
    term_norms = norm_rows(kind, terms[rows]).tolist()
    running_norms = norm_rows(kind, running[rows]).tolist()
    reports = {}
    for r, tn, rn in zip(rows, term_norms, running_norms):
        order, depth = table.orders[r], int(table.depths[r])
        tn, rn = tn[: depth + 1], rn[: depth + 1]
        converged = collapsed or tail_converged(tn, rn, DEFAULT_FRACTIONAL_TOL)
        reports[order] = ConvergenceReport(
            order, depth, DEFAULT_FRACTIONAL_TOL, tuple(tn), converged
        )
    return reports


def update_fractional(
    state: MomentState,
    batch: Batch,
    order: float,
    cutoff: int = DEFAULT_FRACTIONAL_CUTOFF,
) -> tuple[Payload, ConvergenceReport]:
    """Advance one (typically non-integer) moment order using only the batch.

    The single-order entry point to the update step that ``append_batch``
    takes for a whole ladder: the same kernel and the same batch passes.

    Under a non-integer order the re-centering expansion is an infinite
    series, truncated at ``cutoff`` terms with generalized binomial
    coefficients and summed in ascending k; it holds while the mean shift is
    below every absorbed record's distance from the mean, and the report
    tells whether its tail died out within DEFAULT_FRACTIONAL_TOL. It
    starts at zero, or for a zero-spread state at its exact value
    shift**order. An integer-valued order takes the exact binomial row,
    reproducing the integer update. A zero shift leaves only the k=0 term,
    the stored moment.
    """
    _require_nonempty(state)
    _check_state_batch(state, batch)
    if cutoff < 0:
        raise ValidationError(f"cutoff must be >= 0, got {cutoff}")
    table = _table(state.ladder, ((float(order), cutoff),))
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
        values=_payloads(a.kind, values),
    )


def _available_depth(ladder: OrderLadder, order: float) -> int:
    """How far past k = 0 the stored chain of a non-integer order reaches."""
    depth = 0
    while order - (depth + 1) in ladder:
        depth += 1
    return depth


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
