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

Cells run sequentially by default to keep timings clean; the opt-in
parallel mode distributes whole cells across worker processes, each cell's
timing still single-threaded. Per-cell seeding makes datasets identical
either way.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .accumulator import (
    AnyState,
    Batch,
    MomentState,
    OrderLadder,
    from_batch,
    update_fractional,
    update_integer,
    update_mean,
    update_normalizer,
)
from .binomial import binomial_row
from .elements import Kind, format_kind, norm_payload, one_payload, relative_error, zero_payload
from .errors import AgreementError, TimingUnstable, ValidationError

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
        if not self.orders or any(n < 2 for n in self.orders):
            raise ValidationError("orders must all be >= 2")
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
    # Cold worker processes need more warming than a long-running parent.
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


def run_scenario(
    scenario: BenchScenario, parallel: int | None = None
) -> list[BenchRecord]:
    """All (delta, order) cells of one scenario, in deterministic row order."""
    cells = [(d, n) for d in scenario.deltas for n in scenario.orders]
    if parallel and parallel > 1:
        # Imported here: concurrent.futures and multiprocessing cost every
        # command's cold start, and only a parallel bench uses them.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_run_cell, scenario, d, n) for d, n in cells]
            return [f.result() for f in futures]
    return [_run_cell(scenario, d, n) for d, n in cells]


def write_records_csv(records: Sequence[BenchRecord], out: IO[str] | str | Path) -> None:
    def _write(fh: IO[str]) -> None:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.kind},{r.base_size},{r.delta},{r.order},{r.t_full_s!r},"
                f"{r.t_update_s!r},{r.speedup!r},{r.predicted_threshold!r},{r.seed}\n"
            )

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="ascii") as fh:
            _write(fh)
    else:
        _write(out)


@dataclass(frozen=True)
class StorageReport:
    """Byte accounting: raw dataset vs retained moments vs one update."""

    dataset_bytes: int  # full raw dataset with weights
    moment_bytes: int  # one stored moment
    ladder_bytes: int  # all retained moments
    update_bytes: int  # what one append must hold: ladder + the batch
    full_to_ladder_ratio: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("dataset_bytes", self.dataset_bytes),
            ("moment_bytes", self.moment_bytes),
            ("ladder_bytes", self.ladder_bytes),
            ("update_bytes", self.update_bytes),
            ("full_to_ladder_ratio", self.full_to_ladder_ratio),
        ]


def storage_report(
    state: AnyState,
    hypothetical_n: int,
    datum_bytes: int,
    weight_bytes: int,
    delta: int = 1,
) -> StorageReport:
    """Arithmetic of the storage claim: a moment costs one datum, not N of them."""
    n_moments = len(state.ladder)
    dataset = hypothetical_n * (datum_bytes + weight_bytes)
    ladder = n_moments * datum_bytes
    update = n_moments * datum_bytes + delta * (datum_bytes + weight_bytes)
    return StorageReport(
        dataset_bytes=dataset,
        moment_bytes=datum_bytes,
        ladder_bytes=ladder,
        update_bytes=update,
        full_to_ladder_ratio=dataset / ladder,
    )


@dataclass(frozen=True)
class SweepCell:
    """One point of the fractional convergence map."""

    spread_rms: float  # sqrt |M2| of the base dataset
    mean_shift: float  # |old mean - new mean| induced by the batch
    min_converged_cutoff: int | None
    terminal_rel_error: float
    terminal_converged: bool


_SWEEP_PATTERN = (-1.5, -0.5, 0.5, 1.5)


def fractional_convergence_sweep(
    spreads: Sequence[float],
    shifts: Sequence[float],
    order: float = 2.5,
    max_cutoff: int = 12,
    base: float = 100.0,
    tol: float = 1e-10,
) -> list[SweepCell]:
    """Map where the truncated fractional update actually converges.

    Complex-kind datasets of fixed shape are scaled to each spread, a
    single-record batch induces each mean shift, and every cutoff from 0 to
    max_cutoff is monitored. Cells that never converge are recorded, not
    raised; the terminal error is always measured against the from-scratch
    moment of the concatenated data.
    """
    cells: list[SweepCell] = []
    oracle_ladder = OrderLadder([order])
    for spread in spreads:
        for shift in shifts:
            values = [complex(base + spread * u) for u in _SWEEP_PATTERN]
            weights = [1.0] * len(values)
            batch_base = Batch.from_values(Kind.COMPLEX, values, weights)

            if spread > 0:
                chain = [order - k for k in range(max_cutoff + 1)]
                depth = max_cutoff
            else:
                chain = [order - k for k in range(max_cutoff + 1) if order - k > 0]
                depth = len(chain) - 1
            state = from_batch(batch_base, OrderLadder(chain))

            new_value = complex(state.mean + 2.0 * shift)
            append = Batch.from_values(Kind.COMPLEX, [new_value], [state.z])
            new_mean = update_mean(state, append, update_normalizer(state, append))

            min_cutoff: int | None = None
            last_value = None
            last_report = None
            for cutoff in range(depth + 1):
                val, rep = update_fractional(state, append, order, cutoff, tol)
                last_value, last_report = val, rep
                if rep.converged and min_cutoff is None:
                    min_cutoff = cutoff

            oracle = from_batch(
                Batch.from_values(
                    Kind.COMPLEX,
                    values + [new_value],
                    weights + [state.z],
                ),
                oracle_ladder,
            ).moments[order]
            err = abs(last_value.value - oracle) / max(abs(oracle), 1e-300)

            m2 = 0.0
            for v, w in zip(values, weights):
                m2 += w * abs(v - state.mean) ** 2
            cells.append(
                SweepCell(
                    spread_rms=(m2 / state.z) ** 0.5,
                    mean_shift=abs(state.mean - new_mean.value),
                    min_converged_cutoff=min_cutoff,
                    terminal_rel_error=err,
                    terminal_converged=last_report.converged,
                )
            )
    return cells
