import numpy as np
import pytest

from momentflow import (
    Batch,
    Kind,
    MomentState,
    OrderLadder,
    accumulator,
    append_batch,
    dumps_state,
    expand_fractional_targets,
    fractional_chain,
    from_batch,
    update_fractional,
    update_integer,
    update_mean,
    update_normalizer,
)
from momentflow.accumulator import _available_depth, tail_converged
from momentflow.cli import main
from momentflow.errors import DomainError, LadderMismatch, ValidationError

from conftest import concat_batches, random_batch


def _complex_corpus(rng, n=12, base=100.0, spread=0.05, min_gap=0.15):
    """Positive-shifted complex data whose deviations stay off the mean and
    off the principal-branch cut (the negative real axis)."""
    while True:
        u = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
        weights = (0.5 + 0.5 * rng.random(n)).tolist()
        d = u - sum(w * x for w, x in zip(weights, u)) / sum(weights)
        if np.min(np.abs(d)) <= min_gap:
            continue
        cut = min((abs(x.imag) for x in d if x.real < 0), default=np.inf)
        if cut > min_gap:
            break
    values = [complex(base + spread * x) for x in u]
    return values, weights


def test_integer_valued_order_reproduces_integer_update(rng):
    ladder = OrderLadder.integer_range(2, 8)
    for _ in range(25):
        base = random_batch(rng, Kind.SCALAR, 16)
        extra = random_batch(rng, Kind.SCALAR, 3)
        state = from_batch(base, ladder)
        advanced = update_integer(state, extra)
        for order in (2.0, 3.0, 5.0, 8.0):
            value, report = update_fractional(state, extra, order, cutoff=12)
            want = advanced.moments[order]
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert report.converged


def test_small_spread_complex_matches_oracle(rng):
    order, cutoff = 2.5, 12
    ladder = OrderLadder(fractional_chain(order, cutoff))
    for _ in range(20):
        values, weights = _complex_corpus(rng)
        state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), ladder)
        new_value = complex(state.mean) + complex(rng.normal(), rng.normal()) * 1e-6
        extra = Batch.from_values(Kind.COMPLEX, [new_value], [1.0])
        got, report = update_fractional(state, extra, order, cutoff)
        oracle = from_batch(
            Batch.from_values(Kind.COMPLEX, values + [new_value], weights + [1.0]),
            OrderLadder([order]),
        ).moments[order]
        assert abs(got - oracle) / abs(oracle) < 1e-4
        assert report.converged


def test_zero_shift_collapses_exactly():
    # Unit weights, batch exactly on the mean, Z/Z' dyadic: shift is exactly 0.
    ladder = OrderLadder(fractional_chain(2.5, 6))
    values = [complex(v) for v in (99.0, 99.5, 100.5, 101.0)]
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, [1.0] * 4), ladder)
    assert state.mean == 100.0 + 0j
    extra = Batch.from_values(Kind.COMPLEX, [state.mean], [4.0])
    value, report = update_fractional(state, extra, 2.5, 6)
    assert report.converged
    assert report.term_norms[1:] == (0.0,) * 6
    # pure renormalization: (Z/Z') * M + batch contribution of zero deviation
    assert value == 0.5 * state.moments[2.5]


def test_large_shift_reports_divergence(rng):
    order, cutoff = 2.5, 12
    ladder = OrderLadder(fractional_chain(order, cutoff))
    values, weights = _complex_corpus(rng, spread=0.05)
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), ladder)
    # push the mean well past the smallest deviation magnitude
    extra = Batch.from_values(Kind.COMPLEX, [complex(state.mean) + 5.0], [state.z])
    _, report = update_fractional(state, extra, order, cutoff)
    assert not report.converged


def test_missing_chain_orders_rejected(rng):
    ladder = OrderLadder(fractional_chain(2.5, 3))
    values, weights = _complex_corpus(rng)
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), ladder)
    extra = random_batch(rng, Kind.COMPLEX, 1)
    with pytest.raises(LadderMismatch):
        update_fractional(state, extra, 2.5, cutoff=8)


def test_real_kind_fractional_needs_positive_deviations():
    # around a weighted mean, deviations of plain positive-weight data take
    # both signs, so real-kind fractional moments refuse at construction
    with pytest.raises(DomainError):
        from_batch(
            Batch.from_values(Kind.SCALAR, [1.0, 2.0, 3.0], [1, 1, 1]),
            OrderLadder([2.5]),
        )
    # a negative weight can pin the mean below the data: construction works,
    # but a batch record below the new mean still fails in the update
    state = from_batch(
        Batch.from_values(Kind.SCALAR, [1.0, 2.0], [3.0, -1.0]),
        OrderLadder([2.5]),
    )
    assert state.mean == 0.5
    with pytest.raises(DomainError):
        update_fractional(state, Batch.from_values(Kind.SCALAR, [0.0], [1.0]), 2.5, cutoff=0)


def test_negative_order_pole_guard():
    # 3.0 sits exactly on the mean of {2,3,4}: the pole.
    with pytest.raises(DomainError):
        from_batch(
            Batch.from_values(Kind.COMPLEX, [2, 3, 4], [1, 1, 1]),
            OrderLadder([-0.5]),
        )
    # off-mean data is fine
    from_batch(
        Batch.from_values(Kind.COMPLEX, [2, 3, 4, 6], [1, 1, 1, 1]),
        OrderLadder([-0.5]),
    )


def test_report_shape(rng):
    ladder = OrderLadder(fractional_chain(2.5, 5))
    values, weights = _complex_corpus(rng)
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), ladder)
    extra = Batch.from_values(Kind.COMPLEX, [complex(state.mean) + 1e-3], [1.0])
    _, report = update_fractional(state, extra, 2.5, 5, tol=1e-9)
    assert report.order == 2.5
    assert report.cutoff == 5
    assert report.tol == 1e-9
    assert len(report.term_norms) == 6


def test_fractional_from_batch_oracle_consistency(rng):
    # the reference path itself: principal-branch powers, direct sum
    values, weights = _complex_corpus(rng, n=6)
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), OrderLadder([2.5]))
    z = sum(weights)
    mean = sum(w * v for w, v in zip(weights, values)) / z
    direct = sum(w * (v - mean) ** 2.5 for w, v in zip(weights, values)) / z
    assert state.moments[2.5] == pytest.approx(direct, rel=1e-12)


def test_tail_converged_reads_the_last_three_terms():
    tol = 1e-10
    small = 1e-12
    assert tail_converged([5.0, small, small, small], [1.0] * 4, tol)
    assert not tail_converged([small, 1.0, small, small], [1.0] * 4, tol)
    # each term is held against the running norm after it, not the last one
    assert not tail_converged([small, small, small], [1e-3, 1.0, 1.0], tol)
    assert tail_converged([tol, small], [1.0, 1.0], tol)  # the bound is inclusive
    assert tail_converged([small], [1.0], tol)
    assert not tail_converged([1.0], [1.0], tol)


# ---------------------------------------------------------------------------
# append_batch: one batch pass advances every order
# ---------------------------------------------------------------------------

MIXED = OrderLadder(expand_fractional_targets([2, 3, 4, 5, 6, 7, 8, 2.5]))
FRAC_ONLY = OrderLadder(expand_fractional_targets([2.5]))


def _drifting_complex(rng, n):
    values = 100.0 + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return Batch.from_values(Kind.COMPLEX, values, 0.5 + rng.random(n))


def _per_order_append(state, batch, cutoff=12, tol=1e-10):
    """append_batch composed from the single-order entry points: one
    update_fractional per fractional order, at the depth its chain allows,
    and update_integer on the integer orders alone."""
    ladder = state.ladder
    reports, fracs = {}, {}
    for q in ladder.fractional_orders:
        value, reports[q] = update_fractional(
            state, batch, q, _available_depth(ladder, q, cutoff), tol
        )
        fracs[q] = value
    ints = ladder.integer_orders
    if ints:
        integer_part = MomentState(
            kind=state.kind, dim=state.dim, ladder=OrderLadder(ints), z=state.z,
            mean=state.mean, count=state.count,
            moments={float(n): state.moments[float(n)] for n in ints},
        )
        advanced = update_integer(integer_part, batch)
        zp, meanp, moments = advanced.z, advanced.mean, dict(advanced.moments)
    else:
        zp = update_normalizer(state, batch)
        meanp = update_mean(state, batch, zp)
        moments = {}
    moments.update(fracs)
    composed = MomentState(
        kind=state.kind, dim=state.dim, ladder=ladder, z=zp, mean=meanp,
        count=state.count + batch.size, moments=moments,
    )
    return composed, reports


@pytest.mark.parametrize("size", [1, 8, 31, 32, 256])
@pytest.mark.parametrize("ladder", [MIXED, FRAC_ONLY], ids=["2..8,2.5", "2.5"])
def test_append_batch_is_bit_identical_to_per_order_updates(ladder, size):
    rng = np.random.default_rng(size)
    state = from_batch(_drifting_complex(rng, 64), ladder)
    for _ in range(20):
        batch = _drifting_complex(rng, size)
        got, got_reports = append_batch(state, batch)
        want, want_reports = _per_order_append(state, batch)
        assert dumps_state(got) == dumps_state(want)
        assert got_reports == want_reports
        state = got


def test_series_starts_at_zero_on_gap_data():
    # Records sit near +i and -i, so the mean stays near 0 with a gap around
    # it, and no deviation is near the principal branch cut (the negative
    # real axis). Every shift stays below every absorbed record's distance
    # from the mean, so each series converges in exact arithmetic; a sum
    # started at shift**order (right only for a zero-spread state) does not.
    rng = np.random.default_rng(7)

    def gap_batch(n=256):
        values = 1j * rng.choice([-1.0, 1.0], n) + 0.05 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        return Batch.from_values(Kind.COMPLEX, values, 0.5 + rng.random(n))

    data = gap_batch()
    state = from_batch(data, MIXED)
    for _ in range(40):
        batch = gap_batch()
        new, _ = append_batch(state, batch)
        assert abs(state.mean - new.mean) < np.min(np.abs(data.values - state.mean))
        state, data = new, concat_batches(data, batch)
    want = from_batch(data, MIXED)
    scale = np.sum(data.weights * np.abs(data.values - want.mean) ** 2.5) / want.z
    assert abs(state.moments[2.5] - want.moments[2.5]) <= 1e-9 * scale


def _on_mean_case(n):
    """A 2..8,2.5 state with mean exactly 100 and a batch of n records that
    sits on it: unit base weights and dyadic batch weights keep Z' and the
    new mean exact, so every record's deviation is exactly zero."""
    values = [complex(v) for v in (99.0, 99.5, 100.5, 101.0)]
    state = from_batch(Batch.from_values(Kind.COMPLEX, values, [1.0] * 4), MIXED)
    assert state.mean == 100.0 + 0j
    batch = Batch.from_values(Kind.COMPLEX, [100.0 + 0j] * n, [4.0 / n] * n)
    return state, batch


def test_append_batch_checks_series_arguments(rng):
    state = from_batch(_drifting_complex(rng, 16), MIXED)
    batch = _drifting_complex(rng, 4)
    with pytest.raises(ValidationError):
        append_batch(state, batch, cutoff=-1)
    with pytest.raises(ValidationError):
        append_batch(state, batch, tol=0.0)


@pytest.mark.parametrize("n", [1, 32])
def test_append_batch_refuses_a_record_on_the_new_mean(n):
    # the ladder's negative orders (2.5 - 12 = -9.5 and up) have a pole there
    state, batch = _on_mean_case(n)
    with pytest.raises(DomainError):
        append_batch(state, batch)


def _write_complex_csv(path, values, weights):
    rows = [f"{v.real!r},{v.imag!r},{w!r}" for v, w in zip(values, weights)]
    path.write_text("re,im,weight\n" + "\n".join(rows) + "\n")


def test_cli_append_errors_leave_the_document_unchanged(tmp_path, rng):
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..8,2.5", "--kind", "complex"]) == 0
    base = tmp_path / "base.csv"
    _write_complex_csv(base, [complex(v) for v in (99.0, 99.5, 100.5, 101.0)], [1.0] * 4)
    assert main(["append", "--state", state, "--batch", str(base)]) == 0
    before = (tmp_path / "s.json").read_bytes()

    good = tmp_path / "good.csv"
    sample = _drifting_complex(rng, 4)
    _write_complex_csv(good, sample.values.tolist(), sample.weights.tolist())
    assert main(["append", "--state", state, "--batch", str(good), "--n-star", "-1"]) == 2
    assert main(["append", "--state", state, "--batch", str(good), "--tol", "0"]) == 2
    on_mean = tmp_path / "on_mean.csv"
    _write_complex_csv(on_mean, [100.0 + 0j] * 32, [0.125] * 32)
    assert main(["append", "--state", state, "--batch", str(on_mean)]) == 3
    assert (tmp_path / "s.json").read_bytes() == before


def test_append_batch_passes_over_the_batch_once(rng, monkeypatch):
    calls = {"update_normalizer": 0, "_advance_mean": 0}

    def counted(name):
        inner = getattr(accumulator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(accumulator, name, counted(name))
    state = from_batch(_drifting_complex(rng, 64), MIXED)
    append_batch(state, _drifting_complex(rng, 256))
    assert calls == {"update_normalizer": 1, "_advance_mean": 1}
