"""The re-centering kernel's per-record loop against its whole-array form.

The scalar and complex kinds re-centre through a loop over Python numbers;
the whole-table array form below is the oracle it must match bit for bit
(signs of zeros, infinities and nans included), and which the vector kind
still runs. A batch built from lists and the same records given as
arrays must give identical updates, merges and metrics.
"""

import math

import numpy as np
import pytest

from momentflow import (
    Batch,
    ExponentialMetric,
    Kind,
    MetricSpec,
    MomentState,
    OrderLadder,
    append_batch,
    from_batch,
    merge_states,
    metric_update,
    update_fractional,
)
from momentflow.accumulator import (
    COLUMNAR_MIN_RECORDS,
    _advance,
    _advance_mean,
    _power_sums,
    _recentered,
    _table,
    update_normalizer,
)
from momentflow.elements import one_payload, pow_payload
from momentflow.states import expand_fractional_targets

INTEGER = OrderLadder.integer_range(2, 20)
FRACTIONAL = OrderLadder(expand_fractional_targets((*range(2, 9), 2.5)))
LADDERS = {"2..20": INTEGER, "2..8,2.5": FRACTIONAL}
# The states that data can fill: a real-kind fractional power needs every
# deviation positive, which no two distinct records give, so scalar data
# never fills a 2..8,2.5 state.
FILLED = [(Kind.SCALAR, INTEGER), (Kind.COMPLEX, INTEGER), (Kind.COMPLEX, FRACTIONAL)]
FILLED_IDS = ["scalar-2..20", "complex-2..20", "complex-2..8,2.5"]


def _times(a, b):
    """a * b elementwise, complex products from their real and imaginary
    parts, as the kernel's Python loop forms them."""
    if a.dtype.kind != "c":
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _array_kernel(state, shift, table):
    """The whole-array kernel: the padded term matrix, its cumsum along k,
    and each row's sum at its own depth, with zero-spread fractional rows
    started from shift**order."""
    dtype = np.complex128 if state.kind is Kind.COMPLEX else np.float64
    coef, index = table.arrays
    moments = np.array([1.0, 0.0, *state.values], dtype=dtype)
    spow = [one_payload(state.kind)]
    for _ in range(table.width - 1):
        spow.append(spow[-1] * shift)
    with np.errstate(all="ignore"):
        terms = coef * _times(moments[index], np.array(spow, dtype=dtype))
        running = np.cumsum(terms, axis=1)
        for r in table.fractional:
            if not terms[r, 0]:
                running[r] += pow_payload(state.kind, shift, table.orders[r])
    return terms, running, running[range(len(table.orders)), table.depths]


def _bits(x):
    """Every bit of a number, the sign of a zero and a nan included."""
    x = complex(x)
    return tuple(float.hex(c) if not math.isnan(c) else "nan" for c in (x.real, x.imag))


def _same(got, want):
    return [_bits(x) for x in got] == [_bits(x) for x in want]


def _state(kind, ladder, values, mean=0.5, z=2.0):
    return MomentState(kind=kind, dim=None, ladder=ladder, z=z, mean=mean, count=4, values=values)


def _random_values(rng, kind, ladder):
    # Moments of mixed size and sign, with exact zeros of both signs. None
    # is so small that a product underflows: numpy's complex multiply fuses
    # a multiply-add on CPUs that have one, which can flip the sign of a
    # product rounded to zero, so there the array form itself depends on
    # the CPU.
    pool = [0.0, -0.0, 1e-30, -2.5e200]
    out = []
    for _ in ladder.orders:
        parts = [
            pool[rng.integers(len(pool))] if rng.random() < 0.15 else float(rng.standard_normal())
            for _ in range(2)
        ]
        out.append(parts[0] if kind is Kind.SCALAR else complex(*parts))
    return out


SHIFTS = {
    Kind.SCALAR: [0.0, -0.0, 1e-3, -0.37, 3.0, 1e20, -1e200, math.inf],
    Kind.COMPLEX: [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1e-3 - 2e-3j, -0.37 + 0j,
                   0.5j, 1e20 + 1e20j, complex(math.inf, 0.0)],
}


@pytest.mark.parametrize("kind", [Kind.SCALAR, Kind.COMPLEX], ids=lambda k: k.value)
@pytest.mark.parametrize("ladder", list(LADDERS.values()), ids=list(LADDERS))
def test_python_kernel_matches_the_array_form_bit_for_bit(rng, kind, ladder):
    tables = [_table(ladder, ladder.orders)] + [
        _table(ladder, (o,)) for o in (2.0, 7.0, 2.5, -3.5) if o in ladder
    ]
    for trial in range(40):
        values = _random_values(rng, kind, ladder)
        if trial % 10 == 0:  # a zero-spread state: every stored moment zero
            values = [0.0 * v for v in values]
        state = _state(kind, ladder, values)
        for shift in SHIFTS[kind]:
            for table in tables:
                try:
                    want = _array_kernel(state, shift, table)
                except Exception as e:  # a fractional power outside its domain
                    with pytest.raises(type(e)):
                        _recentered(state, shift, table)
                    continue
                terms, running, sums = _recentered(state, shift, table)
                assert _same(sums, want[2]), (shift, table.orders)
                for r, depth in enumerate(table.depths):
                    assert _same(terms[r], want[0][r, : depth + 1])
                    assert _same(running[r], want[1][r, : depth + 1])


@pytest.mark.parametrize("kind", [Kind.SCALAR, Kind.COMPLEX], ids=lambda k: k.value)
def test_each_order_is_a_function_of_its_own_row(kind):
    # shift**20 overflows, while every term of the low orders' rows stays
    # finite: a row summed past its own depth would read the overflow.
    state = from_batch(Batch.from_values(kind, [0, 1, 2], [1, 1, 1]), INTEGER)
    batch = Batch.from_values(kind, [4e20], [3])
    appended, _ = append_batch(state, batch)
    for order, value in zip(INTEGER.orders, appended.values):
        assert _bits(value) == _bits(update_fractional(state, batch, order)[0]), order


@pytest.mark.parametrize("kind,ladder", FILLED, ids=FILLED_IDS)
@pytest.mark.parametrize("size", [3, COLUMNAR_MIN_RECORDS + 8])
def test_update_step_matches_the_array_form(rng, kind, ladder, size):
    # The new moments are Z/Z' times the re-centred ones plus the batch's
    # power sums over Z', each part of a complex sum divided by Z'.
    table = _table(ladder, ladder.orders)
    for _ in range(10):
        state = from_batch(_batch(rng, kind, 24), ladder)
        batch = _batch(rng, kind, size)
        zp, meanp, values, reports = _advance(state, batch, table, table.fractional)
        assert zp == update_normalizer(state, batch)
        assert meanp == _advance_mean(state, batch, zp)
        terms, _, recentered = _array_kernel(state, state.mean - meanp, table)
        bsums = _power_sums(batch, meanp, table.orders, batch.columnar)
        quotients = np.array([complex(s.real / zp, s.imag / zp) for s in bsums])
        with np.errstate(all="ignore"):
            want = (state.z / zp) * recentered + quotients
        assert _same(values, want)
        # A report's term norms are abs() of the terms. np.abs fuses a
        # multiply-add where the CPU has one, so no pure-Python modulus
        # matches it bit for bit on every machine; the two agree to a few
        # units in the last place.
        for r in table.fractional:
            norms = reports[table.orders[r]].term_norms
            want_norms = np.abs(terms[r, : table.depths[r] + 1]).tolist()
            assert len(norms) == len(want_norms)
            for got, want_norm in zip(norms, want_norms):
                assert got == pytest.approx(want_norm, rel=1e-15, abs=0.0)


def _batch(rng, kind, n):
    weights = (0.05 + rng.random(n)).tolist()
    if kind is Kind.SCALAR:
        return Batch.from_values(kind, (3.0 + rng.standard_normal(n)).tolist(), weights)
    values = 2.0 + rng.standard_normal(n) + 1j * (1.0 + rng.standard_normal(n))
    return Batch.from_values(kind, values.tolist(), weights)


def _as_arrays(batch):
    """The batch's records given to from_values as ndarrays, not lists."""
    return Batch.from_values(batch.kind, np.array(batch.values), np.array(batch.weights))


def _state_bits(state):
    return (state.count, _bits(state.z), _bits(state.mean), [_bits(v) for v in state.values])


@pytest.mark.parametrize("kind,ladder", FILLED, ids=FILLED_IDS)
def test_a_batch_of_numbers_updates_as_its_arrays_do(rng, kind, ladder):
    spec = MetricSpec(ExponentialMetric(1.0, 0.5), n_star=8)
    for _ in range(8):
        base = _batch(rng, kind, 12)
        small = _batch(rng, kind, 5)
        assert "values" not in vars(small)  # held as Python numbers alone
        arrays = _as_arrays(small)
        first = append_batch(append_batch(from_batch(base, ladder), small)[0], small)[0]
        again = append_batch(append_batch(from_batch(base, ladder), arrays)[0], arrays)[0]
        assert _state_bits(first) == _state_bits(again)
        state = from_batch(base, ladder)
        for order in (2.0, 8.0, 2.5, -0.5) if ladder is FRACTIONAL else (2.0, 20.0):
            got, got_report = update_fractional(state, small, order)
            want, want_report = update_fractional(state, arrays, order)
            assert _bits(got) == _bits(want) and got_report == want_report
        if ladder is INTEGER:
            other = from_batch(small, ladder)
            assert _state_bits(merge_states(state, other)) == _state_bits(
                merge_states(state, from_batch(arrays, ladder))
            )
        assert _bits(metric_update(state, small, spec).value) == _bits(
            metric_update(state, arrays, spec).value
        )


def test_merge_matches_the_array_form(rng):
    for kind in (Kind.SCALAR, Kind.COMPLEX):
        a = from_batch(_batch(rng, kind, 9), INTEGER)
        b = from_batch(_batch(rng, kind, 6), INTEGER)
        merged = merge_states(a, b)
        table = _table(INTEGER, INTEGER.orders)
        wa, wb = a.z / merged.z, b.z / merged.z
        ra = _array_kernel(a, a.mean - merged.mean, table)[2]
        rb = _array_kernel(b, b.mean - merged.mean, table)[2]
        assert _same(merged.values, wa * ra + wb * rb)
