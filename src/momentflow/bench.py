"""Benchmark harness: incremental update vs from-scratch recomputation.

Each cell times the two ways of producing one moment order after an
append, mirroring the per-moment cost model the speedup analysis assumes:

* full path: recompute that order over the whole appended dataset (weight
  sum, mean, one power sum: O(N') with a hardware power per element);
* update path: advance that order from the stored ladder (re-centering
  bracket of n-1 terms plus batch power sums accumulated by repeated
  multiplication: O((n-1) * delta)).

Fresh random data and random weights are drawn per repeat; the two paths'
numeric outputs are cross-checked against each other (and, once per cell,
against the accumulator's own from_batch/update_integer) BEFORE any timing
is accepted. Reported times are medians of single-shot wall times with the
leading warm-up repeats discarded and the collector paused; the medians of
two interleaved sub-samples must agree within 50%, or the cell is timed
afresh (CELL_ATTEMPTS in all) and rejected as noise if they never do.
Absolute speedups are hardware-specific; trends and the predicted
crossover order (N'/delta + 1) are what downstream checks assert.

Cells run one after another in the calling process, so no two timings
share the machine's cores; per-cell seeding makes each cell's data
independent of the order the cells run in.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from .accumulator import Batch, from_batch, update_integer
from .binomial import MAX_EXACT_ORDER, binomial_row
from .elements import (
    Kind,
    format_kind,
    norm_payload,
    np,
    one_payload,
    relative_error,
    zero_payload,
)
from .errors import AgreementError, BadLadderSpec, TimingUnstable, ValidationError
from .states import MomentState, OrderLadder

WARMUP_REPEATS = 3

# A cell whose sub-sample medians disagree is timed afresh, up to this many
# times in all, before it is refused as noise: a slow phase of the machine
# that spans a few single-shot samples of one cell should not end a sweep.
CELL_ATTEMPTS = 3

# Scale-relative agreement tolerances for the numeric gate.
AGREE_TOL_LOW = 1e-8  # orders <= 10
AGREE_TOL_HIGH = 1e-6  # orders 11..20+


@dataclass(frozen=True)
class BenchScenario:
    """One speed experiment: a base dataset size swept over orders and deltas."""

    kind: Kind = Kind.SCALAR
    base_size: int = 256
    deltas: tuple[int, ...] = (1,)
    orders: tuple[int, ...] = tuple(range(2, 21))
    repeats: int = 100
    seed: int = 0
    dim: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (Kind.SCALAR, Kind.VECTOR):
            raise ValidationError("bench scenarios run on scalar or vector kinds")
        if self.base_size < 1:
            raise ValidationError(f"base size must be >= 1, got {self.base_size}")
        if self.repeats < 10:
            raise ValidationError(f"repeats must be >= 10, got {self.repeats}")
        if not self.deltas or any(d < 1 for d in self.deltas):
            raise ValidationError("every delta must be >= 1")
        for n in self.orders:
            if not float(n).is_integer():
                raise BadLadderSpec(f"bench orders must be integers, got {n}")
        object.__setattr__(self, "orders", tuple(map(int, self.orders)))
        if not self.orders or any(not 2 <= n <= MAX_EXACT_ORDER for n in self.orders):
            raise ValidationError(f"orders must all be within 2..{MAX_EXACT_ORDER}")
        if self.kind is Kind.VECTOR and self.dim < 1:
            raise ValidationError(f"vector dim must be >= 1, got {self.dim}")

    @property
    def kind_label(self) -> str:
        return format_kind(self.kind, self.dim if self.kind is Kind.VECTOR else None)


@dataclass(frozen=True)
class BenchRecord:
    """One measured cell."""

    kind: str
    base_size: int
    delta: int
    order: int
    t_full_s: float
    t_update_s: float
    speedup: float
    predicted_threshold: float
    seed: int


CSV_HEADER = "kind,N,delta,order,t_full_s,t_update_s,speedup,predicted_threshold,seed"


def cell_rng(scenario: BenchScenario, delta: int, order: int) -> np.random.Generator:
    """Deterministic per-cell generator; independent of cell execution order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(scenario.seed, delta, order))
    )


def draw_dataset(
    rng: np.random.Generator, scenario: BenchScenario, count: int
) -> tuple[list, list[float]]:
    """Uniform [0,1) values with weights in (0,1]: a random map per record."""
    weights = (1.0 - rng.random(count)).tolist()
    if scenario.kind is Kind.SCALAR:
        return rng.random(count).tolist(), weights
    rows = rng.random((count, scenario.dim))
    return [rows[i].copy() for i in range(count)], weights


def _m2_scale(full: MomentState) -> float:
    return norm_payload(full.kind, full.moments[2.0])


def check_agreement(full: MomentState, upd: MomentState) -> None:
    """Reject a cell outright if the two paths disagree numerically."""
    m2 = _m2_scale(full)
    for n in full.ladder.integer_orders:
        a = full.moments[float(n)]
        b = upd.moments[float(n)]
        _check_value_agreement(full.kind, n, a, b, m2)


def _check_value_agreement(kind: Kind, order: int, a, b, m2: float) -> None:
    rel = relative_error(kind, b, a, m2, order)
    tol = AGREE_TOL_LOW if order <= 10 else AGREE_TOL_HIGH
    if rel > tol:
        raise AgreementError(
            f"order {order}: incremental vs from-scratch relative error "
            f"{rel:.3e} exceeds {tol:.0e}"
        )


def _scratch_moment(values, weights, order: int):
    """One moment order over the full dataset, from scratch: O(len(values))."""
    z = 0.0
    for w in weights:
        z += w
    acc = None
    for x, w in zip(values, weights):
        wx = w * x
        acc = wx if acc is None else acc + wx
    mean = acc / z
    s = None
    for x, w in zip(values, weights):
        t = w * (x - mean) ** order
        s = t if s is None else s + t
    return z, mean, s / z


def _update_moment(z, mean, stored, row, values, weights, order: int):
    """One moment order advanced from the stored ladder: O((order-1)*batch).

    ``stored[j]`` is the old moment of integer order j (stored[0] = 1,
    stored[1] = 0); ``row`` the cached binomial coefficients of ``order``.
    Shift powers and batch deviation powers accumulate by repeated
    multiplication, the bracket sums smallest terms first.
    """
    dz = 0.0
    for w in weights:
        dz += w
    zp = z + dz
    acc = None
    for x, w in zip(values, weights):
        wx = w * x
        acc = wx if acc is None else acc + wx
    meanp = (z / zp) * mean + acc / zp
    shift = mean - meanp

    spow = [1.0] * (order + 1)
    p = 1.0
    for k in range(1, order + 1):
        p = p * shift
        spow[k] = p
    bracket = spow[order]
    for k in range(order - 2, -1, -1):
        bracket = bracket + row[k] * (stored[order - k] * spow[k])

    bs = None
    for x, w in zip(values, weights):
        d = x - meanp
        p = d
        for _ in range(order - 1):
            p = p * d
        t = w * p
        bs = t if bs is None else bs + t
    return (z / zp) * bracket + bs / zp


def _guarded_median(samples: Sequence[float], what: str) -> float:
    # Two interleaved sub-samples stand in for two independent timing runs;
    # parity splitting keeps a slow clock drift from looking like noise.
    med_a = statistics.median(samples[0::2])
    med_b = statistics.median(samples[1::2])
    if abs(med_a - med_b) > 0.5 * min(med_a, med_b):
        raise TimingUnstable(
            f"{what}: interleaved medians {med_a:.3e}s vs {med_b:.3e}s differ by >50%"
        )
    return statistics.median(samples)


def _run_cell(scenario: BenchScenario, delta: int, order: int) -> BenchRecord:
    ladder = OrderLadder.integer_range(2, order)
    dim = scenario.dim if scenario.kind is Kind.VECTOR else None
    row = binomial_row(order)
    where = f"cell(N={scenario.base_size}, delta={delta}, order={order})"

    for attempt in range(CELL_ATTEMPTS):
        # each attempt redraws the cell's data from its seed, so only the
        # timings differ between attempts
        rng = cell_rng(scenario, delta, order)
        t_full: list[float] = []
        t_update: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()  # collector pauses would smear single-shot timings
        try:
            _time_cell(scenario, delta, order, rng, ladder, dim, row, t_full, t_update)
        finally:
            if gc_was_enabled:
                gc.enable()
        try:
            med_full = _guarded_median(t_full, f"{where} full path")
            med_update = _guarded_median(t_update, f"{where} update path")
            break
        except TimingUnstable:
            if attempt == CELL_ATTEMPTS - 1:
                raise
    return BenchRecord(
        kind=scenario.kind_label,
        base_size=scenario.base_size,
        delta=delta,
        order=order,
        t_full_s=med_full,
        t_update_s=med_update,
        speedup=med_full / med_update,
        predicted_threshold=(scenario.base_size + delta) / delta + 1.0,
        seed=scenario.seed,
    )


def _time_cell(scenario, delta, order, rng, ladder, dim, row, t_full, t_update) -> None:
    # A large cell warms up for a tenth of its repeats: the first cells of a
    # fresh process need more than WARMUP_REPEATS.
    warmups = max(WARMUP_REPEATS, scenario.repeats // 10)
    for rep in range(scenario.repeats + warmups):
        base_values, base_weights = draw_dataset(rng, scenario, scenario.base_size)
        new_values, new_weights = draw_dataset(rng, scenario, delta)
        all_values = list(base_values) + list(new_values)
        all_weights = list(base_weights) + list(new_weights)

        # the stored accumulator (not timed: it exists before the append)
        base = Batch.from_values(scenario.kind, base_values, base_weights, dim=dim)
        state = from_batch(base, ladder)
        stored = [one_payload(scenario.kind, dim), zero_payload(scenario.kind, dim)]
        stored += [state.moments[float(j)] for j in range(2, order + 1)]

        t0 = time.perf_counter_ns()
        z_full, mean_full, m_full = _scratch_moment(all_values, all_weights, order)
        t1 = time.perf_counter_ns()
        m_upd = _update_moment(
            state.z, state.mean, stored, row, new_values, new_weights, order
        )
        t2 = time.perf_counter_ns()

        m2 = _m2_scale(state)
        _check_value_agreement(scenario.kind, order, m_full, m_upd, m2)
        if rep == 0:
            # anchor both kernels to the accumulator's own paths
            batch = Batch.from_values(scenario.kind, new_values, new_weights, dim=dim)
            appended = Batch.from_values(scenario.kind, all_values, all_weights, dim=dim)
            lib_full = from_batch(appended, ladder)
            lib_upd = update_integer(state, batch)
            check_agreement(lib_full, lib_upd)
            _check_value_agreement(
                scenario.kind, order, lib_full.moments[float(order)], m_full, m2
            )
            _check_value_agreement(
                scenario.kind, order, lib_upd.moments[float(order)], m_upd, m2
            )
        if rep >= warmups:
            t_full.append((t1 - t0) / 1e9)
            t_update.append((t2 - t1) / 1e9)


def run_scenario(scenario: BenchScenario) -> list[BenchRecord]:
    """All (delta, order) cells of one scenario, in deterministic row order."""
    return [_run_cell(scenario, d, n) for d in scenario.deltas for n in scenario.orders]


def write_records_csv(records: Sequence[BenchRecord], out: IO[str] | str | Path) -> None:
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="ascii") as fh:
            return write_records_csv(records, fh)
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(
            f"{r.kind},{r.base_size},{r.delta},{r.order},{r.t_full_s!r},"
            f"{r.t_update_s!r},{r.speedup!r},{r.predicted_threshold!r},{r.seed}\n"
        )
