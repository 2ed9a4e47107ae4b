import io

import pytest

from momentflow import Batch, Kind, MomentState, OrderLadder, from_batch
from momentflow import bench
from momentflow.bench import (
    BenchScenario,
    cell_rng,
    check_agreement,
    draw_dataset,
    run_scenario,
    write_records_csv,
)
from momentflow.errors import AgreementError, BadLadderSpec, TimingUnstable, ValidationError

from conftest import fractional_convergence_sweep


def test_scenario_validation():
    with pytest.raises(ValidationError):
        BenchScenario(repeats=5)
    with pytest.raises(ValidationError):
        BenchScenario(deltas=(0,))
    with pytest.raises(ValidationError):
        BenchScenario(orders=(1, 2))
    with pytest.raises(ValidationError, match="2..62"):
        BenchScenario(orders=(2, 3, 63))
    with pytest.raises(ValidationError):
        BenchScenario(kind=Kind.COMPLEX)
    with pytest.raises(BadLadderSpec, match="bench orders must be integers, got 2.5"):
        BenchScenario(orders=(2, 2.5))
    assert [type(n) for n in BenchScenario(orders=(2.0, 3.0)).orders] == [int, int]
    BenchScenario(kind=Kind.VECTOR, dim=4, repeats=10)


def test_a_scenario_needs_a_base_record_and_a_vector_component():
    with pytest.raises(ValidationError, match="base size must be >= 1, got 0"):
        BenchScenario(base_size=0)
    with pytest.raises(ValidationError, match="vector dim must be >= 1, got 0"):
        BenchScenario(kind=Kind.VECTOR, dim=0)


def test_seeded_draws_are_deterministic():
    s = BenchScenario(base_size=16, deltas=(1,), orders=(2,), repeats=10, seed=42)
    a_vals, a_w = draw_dataset(cell_rng(s, 1, 2), s, 16)
    b_vals, b_w = draw_dataset(cell_rng(s, 1, 2), s, 16)
    assert a_vals == b_vals and a_w == b_w
    c_vals, _ = draw_dataset(cell_rng(s, 1, 3), s, 16)
    assert a_vals != c_vals
    assert all(0.0 < w <= 1.0 for w in a_w)
    assert all(0.0 <= v < 1.0 for v in a_vals)


def test_run_scenario_rows_and_fields():
    s = BenchScenario(base_size=16, deltas=(1, 4), orders=(2, 3, 4), repeats=10, seed=3)
    records = run_scenario(s)
    assert len(records) == 2 * 3
    assert [(r.delta, r.order) for r in records] == [
        (1, 2), (1, 3), (1, 4), (4, 2), (4, 3), (4, 4)
    ]
    for r in records:
        assert r.t_full_s > 0 and r.t_update_s > 0
        assert r.speedup == pytest.approx(r.t_full_s / r.t_update_s)
        assert r.predicted_threshold == (16 + r.delta) / r.delta + 1
        assert r.kind == "scalar"


def test_run_scenario_vector_kind():
    s = BenchScenario(
        kind=Kind.VECTOR, dim=4, base_size=16, deltas=(1,), orders=(2,), repeats=10, seed=5
    )
    records = run_scenario(s)
    assert records[0].kind == "vector:4"


def test_csv_writer_round_trip():
    s = BenchScenario(base_size=16, deltas=(1,), orders=(2, 3), repeats=10, seed=1)
    records = run_scenario(s)
    buf = io.StringIO()
    write_records_csv(records, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "kind,N,delta,order,t_full_s,t_update_s,speedup,predicted_threshold,seed"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert float(fields[6]) == records[0].speedup  # repr round-trips


def _fake_timings(monkeypatch, unstable_attempts):
    """Replace the timing loop: the first ``unstable_attempts`` calls give
    full-path samples whose interleaved medians differ 2x, later ones agree."""
    calls = []

    def fake(scenario, delta, order, rng, ladder, dim, row, t_full, t_update):
        calls.append(rng.random())
        slow = 2.0 if len(calls) <= unstable_attempts else 1.0
        t_full.extend([1e-5, slow * 1e-5] * (scenario.repeats // 2))
        t_update.extend([1e-6] * scenario.repeats)

    monkeypatch.setattr(bench, "_time_cell", fake)
    return calls


def test_unstable_cell_is_timed_afresh_from_its_seed(monkeypatch):
    calls = _fake_timings(monkeypatch, unstable_attempts=bench.CELL_ATTEMPTS - 1)
    s = BenchScenario(base_size=16, deltas=(1,), orders=(2,), repeats=10, seed=9)
    (record,) = run_scenario(s)
    assert len(calls) == bench.CELL_ATTEMPTS
    assert len(set(calls)) == 1  # every attempt drew from the same seed
    assert record.t_full_s == 1e-5


def test_cell_unstable_on_every_attempt_is_refused(monkeypatch):
    calls = _fake_timings(monkeypatch, unstable_attempts=bench.CELL_ATTEMPTS)
    s = BenchScenario(base_size=16, deltas=(1,), orders=(2,), repeats=10, seed=9)
    with pytest.raises(TimingUnstable, match="full path"):
        run_scenario(s)
    assert len(calls) == bench.CELL_ATTEMPTS


def test_agreement_gate_rejects_corrupt_update():
    ladder = OrderLadder([2, 3])
    b = Batch.from_values(Kind.SCALAR, [0.1, 0.5, 0.9], [1, 1, 1])
    full = from_batch(b, ladder)
    bad = MomentState(
        kind=full.kind, dim=None, ladder=ladder, z=full.z, mean=full.mean,
        count=full.count,
        values=(full.moments[2.0] * 1.5, full.moments[3.0]),
    )
    with pytest.raises(AgreementError):
        check_agreement(full, bad)
    check_agreement(full, full)


# ---------------------------------------------------------------------------
# fractional convergence sweep
# ---------------------------------------------------------------------------


def test_sweep_produces_full_grid_without_crashing():
    cells = fractional_convergence_sweep(
        spreads=[0.0, 0.02, 0.2], shifts=[0.0, 1e-5, 1.0], order=2.5, max_cutoff=8
    )
    assert len(cells) == 9
    diverged = [c for c in cells if c.min_converged_cutoff is None]
    assert diverged, "expected at least one non-convergent cell in the grid"


def test_sweep_constant_data_is_exact_at_cutoff_zero():
    (cell,) = fractional_convergence_sweep(
        spreads=[0.0], shifts=[0.25], order=2.5, max_cutoff=8
    )
    assert cell.spread_rms == 0.0
    assert cell.min_converged_cutoff == 0
    assert cell.terminal_rel_error < 1e-12


def test_sweep_zero_shift_row_is_exact_for_all_spreads():
    cells = fractional_convergence_sweep(
        spreads=[0.01, 0.1, 1.0], shifts=[0.0], order=2.5, max_cutoff=8
    )
    for cell in cells:
        assert cell.mean_shift == 0.0
        assert cell.min_converged_cutoff == 0
        assert cell.terminal_rel_error < 1e-12


def test_sweep_divergence_when_shift_reaches_smallest_deviation():
    # smallest |deviation| is 0.5 * spread; a shift at the deviation scale
    # sits outside the series' reach
    cells = fractional_convergence_sweep(
        spreads=[0.1], shifts=[0.2], order=2.5, max_cutoff=10
    )
    assert cells[0].min_converged_cutoff is None
    assert not cells[0].terminal_converged
