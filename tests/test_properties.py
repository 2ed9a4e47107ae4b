"""Algebraic properties of the append path, checked with hypothesis.

Hypothesis draws batch sizes, a data seed and a drift; the records are
Gaussian. Sizes fall on both sides of COLUMNAR_MIN_RECORDS, so every
property is checked on the per-record passes and on the whole-array ones.
Errors are scaled as in the benchmark's result check: each order n by the
absolute moment (1/Z) * sum_i w_i |x_i - mean|**n, componentwise. The last
property is the batch CSV parse: every field bit-identical to float().
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentflow import (
    Batch,
    EmptyState,
    ExponentialMetric,
    Kind,
    MetricSpec,
    OrderLadder,
    append_batch,
    expand_fractional_targets,
    from_batch,
    merge_states,
    metric_update,
    update_integer,
)
from momentflow import accumulator
from momentflow.accumulator import COLUMNAR_MIN_RECORDS
from momentflow.batchfile import expected_header, read_batch_csv
from momentflow.errors import NumericError

from conftest import concat_batches

KINDS = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
KIND_IDS = ["scalar", "complex", "vector3"]
LADDER = OrderLadder.integer_range(2, 20)
MIXED_LADDER = OrderLadder(expand_fractional_targets([*range(2, 9), 2.5]))
TOL = 1e-9

below = st.integers(1, COLUMNAR_MIN_RECORDS - 1)
above = st.integers(COLUMNAR_MIN_RECORDS, 4 * COLUMNAR_MIN_RECORDS)
sizes = st.one_of(below, above)
seeds = st.integers(0, 2**32 - 1)
drifts = st.floats(-2.0, 2.0)


def gaussian_batch(rng, kind, dim, n, drift=0.0):
    weights = 1.0 - rng.uniform(0.0, 0.95, n)
    if kind is Kind.SCALAR:
        values = drift + rng.standard_normal(n)
    elif kind is Kind.COMPLEX:
        values = drift + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        values = drift + rng.standard_normal((n, dim))
    return Batch.from_values(kind, values, weights, dim=dim)


def scaled_errors(got, want, data):
    """Scaled error of each order of state ``got`` against state ``want``, with
    the absolute moments of ``data`` about ``want``'s mean as the scale."""
    w = data.weights.reshape((-1,) + (1,) * (data.values.ndim - 1))
    mag = np.abs(data.values - want.mean)
    out = {}
    for order in want.ladder.orders:
        scale = np.atleast_1d((w * mag**order).sum(axis=0) / want.z)
        diff = np.abs(np.atleast_1d(got.moments[order] - want.moments[order]))
        out[order] = float(np.max(diff / np.maximum(scale, 1e-300)))
    return out


def _state_or_error(fn):
    try:
        return fn()
    except NumericError as e:
        return type(e)


def _bytes(payload):
    return np.asarray(payload).tobytes()


@pytest.mark.parametrize("ladder", [LADDER, MIXED_LADDER], ids=["2..20", "2..8,2.5"])
@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n=sizes, seed=seeds, drift=drifts)
def test_first_append_equals_from_batch(kind, dim, ladder, n, seed, drift):
    """The fill of an empty state is from_batch: bit for bit below the
    crossover, within the scaled-error bound from it up. On the real kinds
    the fractional orders refuse negative deviations, which any batch of
    more than one record has; where from_batch refuses, the fill must
    refuse with the same error."""
    rng = np.random.default_rng(seed)
    batch = gaussian_batch(rng, kind, dim, n, drift)
    want = _state_or_error(lambda: from_batch(batch, ladder))
    got = _state_or_error(lambda: append_batch(EmptyState(kind, dim, ladder), batch)[0])
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got.count == want.count == n
    if n < COLUMNAR_MIN_RECORDS:
        assert float.hex(got.z) == float.hex(want.z)
        assert _bytes(got.mean) == _bytes(want.mean)
        for order in ladder.orders:
            assert _bytes(got.moments[order]) == _bytes(want.moments[order]), order
    else:
        assert got.z == pytest.approx(want.z, rel=1e-14)
        errs = scaled_errors(got, want, batch)
        assert max(errs.values()) <= TOL, errs


@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n_base=sizes, n_extra=sizes, seed=seeds, drift=drifts)
def test_append_equals_from_batch_over_concatenation(kind, dim, n_base, n_extra, seed, drift):
    rng = np.random.default_rng(seed)
    base = gaussian_batch(rng, kind, dim, n_base)
    extra = gaussian_batch(rng, kind, dim, n_extra, drift)
    state, _ = append_batch(from_batch(base, LADDER), extra)
    data = concat_batches(base, extra)
    errs = scaled_errors(state, from_batch(data, LADDER), data)
    assert max(errs.values()) <= TOL, errs


@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n_base=sizes, small=below, large=above, rest=st.integers(0, 40), seed=seeds, drift=drifts)
def test_chunks_straddling_the_crossover_leave_the_state_unchanged(
    kind, dim, n_base, small, large, rest, seed, drift
):
    rng = np.random.default_rng(seed)
    base = gaussian_batch(rng, kind, dim, n_base)
    extra = gaussian_batch(rng, kind, dim, small + large + rest, drift)
    once, _ = append_batch(from_batch(base, LADDER), extra)
    chunked = from_batch(base, LADDER)
    for lo, hi in ((0, small), (small, small + large), (small + large, extra.size)):
        if hi > lo:
            part = Batch.from_values(kind, extra.values[lo:hi], extra.weights[lo:hi], dim=dim)
            chunked, _ = append_batch(chunked, part)
    assert chunked.count == once.count
    errs = scaled_errors(chunked, once, concat_batches(base, extra))
    assert max(errs.values()) <= TOL, errs


@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n_a=sizes, n_b=sizes, n_c=sizes, seed=seeds, drift=drifts)
def test_merges_commute_associate_and_equal_from_batch(kind, dim, n_a, n_b, n_c, seed, drift):
    rng = np.random.default_rng(seed)
    a, b, c = (gaussian_batch(rng, kind, dim, n, drift * i) for i, n in enumerate((n_a, n_b, n_c)))
    sa, sb, sc = (from_batch(x, LADDER) for x in (a, b, c))
    ab, ba = merge_states(sa, sb), merge_states(sb, sa)
    assert float.hex(ab.z) == float.hex(ba.z)
    assert _bytes(ab.mean) == _bytes(ba.mean)
    for order in LADDER.orders:
        assert _bytes(ab.moments[order]) == _bytes(ba.moments[order]), order
    data = concat_batches(concat_batches(a, b), c)
    left = merge_states(ab, sc)
    right = merge_states(sa, merge_states(sb, sc))
    assert left.count == right.count == data.size
    errs = scaled_errors(left, right, data)
    assert max(errs.values()) <= TOL, errs
    errs = scaled_errors(left, from_batch(data, LADDER), data)
    assert max(errs.values()) <= TOL, errs


def _both_forms(fn):
    """fn() evaluated with every batch on the per-record passes, then on the whole-array ones."""
    with mock.patch.object(accumulator, "COLUMNAR_MIN_RECORDS", 10**9):
        per_record = fn()
    with mock.patch.object(accumulator, "COLUMNAR_MIN_RECORDS", 1):
        whole_array = fn()
    return per_record, whole_array


@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n_base=above, n_extra=sizes, seed=seeds, drift=drifts)
def test_whole_array_passes_agree_with_per_record_passes(kind, dim, n_base, n_extra, seed, drift):
    rng = np.random.default_rng(seed)
    base = gaussian_batch(rng, kind, dim, n_base)
    extra = gaussian_batch(rng, kind, dim, n_extra, drift)
    state = from_batch(base, LADDER)
    per_record, whole_array = _both_forms(lambda: update_integer(state, extra))
    assert whole_array.z == pytest.approx(per_record.z, rel=1e-14)
    errs = scaled_errors(whole_array, per_record, concat_batches(base, extra))
    assert max(errs.values()) <= 1e-12, errs

    spec = MetricSpec(ExponentialMetric(1.0, 0.1), n_star=8)
    m_rec, m_arr = _both_forms(lambda: metric_update(state, extra, spec).value)
    assert np.all(np.abs(np.atleast_1d(m_arr - m_rec)) <= 1e-12 * np.abs(np.atleast_1d(m_rec)))


@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(n=sizes, seed=seeds, order=st.sampled_from([2.5, 0.5, -0.5, -3.5, 3.0]))
def test_fractional_batch_term_agrees_across_forms(kind, dim, n, seed, order):
    rng = np.random.default_rng(seed)
    batch = gaussian_batch(rng, kind, dim, n)
    # Real kinds need positive deviations; the complex kind takes the principal branch.
    if kind is Kind.COMPLEX:
        center = 0.1 + 0.1j
    elif kind is Kind.SCALAR:
        center = float(batch.values.min()) - 0.5
    else:
        center = batch.values.min(axis=0) - 0.5
    per_record, whole_array = _both_forms(
        lambda: accumulator._power_sums(batch, center, (order,), batch.columnar)[0]
    )
    w = batch.weights.reshape((-1,) + (1,) * (batch.values.ndim - 1))
    scale = (w * np.abs(batch.values - center) ** order).sum(axis=0)
    assert np.all(np.abs(np.atleast_1d(per_record - whole_array)) <= 1e-12 * scale)


# Finite doubles at the edges of the format: subnormals, magnitudes near the
# exponent limits, both zeros and integers past 2**53, where adjacent
# doubles are more than 1 apart.
doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -0.0]),
    st.builds(lambda s, i: float(s * i), st.sampled_from([1, -1]), st.integers(2**53 + 1, 2**70)),
)
FIELD_FORMATS = [repr, "%.17g".__mod__, "%.25e".__mod__, "%.6f".__mod__]
PADS = ["", " ", "\t", "  ", " \t "]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@pytest.mark.parametrize(
    "n,style",
    [
        pytest.param(8, "plain", id="8"),
        pytest.param(COLUMNAR_MIN_RECORDS + 8, "plain", id=str(COLUMNAR_MIN_RECORDS + 8)),
        pytest.param(COLUMNAR_MIN_RECORDS + 8, "quoted", id="quoted"),
        pytest.param(COLUMNAR_MIN_RECORDS + 8, "underscored", id="underscored"),
    ],
)
@pytest.mark.parametrize("kind,dim", KINDS, ids=KIND_IDS)
@given(data=st.data(), layout=st.randoms(use_true_random=False))
def test_batch_csv_fields_are_bit_identical_to_float(csv_dir, kind, dim, n, style, data, layout):
    """Small batches take the csv module's rows, large plain ones numpy's
    table, large quoted or underscored ones the rows again; either way each
    value and weight is float() of its field, sign of zero included.
    ``layout`` picks each field's format and padding."""
    header = expected_header(kind, dim)
    numbers = data.draw(st.lists(doubles, min_size=n * len(header), max_size=n * len(header)))
    fields = [
        layout.choice(PADS) + layout.choice(FIELD_FORMATS)(x) + layout.choice(PADS)
        for x in numbers
    ]
    if style == "underscored":  # float() takes one between two digits
        fields = [re.sub(r"(\d)(\d)", r"\1_\2", f, count=1) for f in fields]
    quote = '"' if style == "quoted" else ""
    rows = [
        [quote + f + quote for f in fields[i : i + len(header)]]
        for i in range(0, len(fields), len(header))
    ]
    newline = layout.choice(["\n", "\r\n"])
    path = csv_dir / "b.csv"
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text(newline.join(lines) + newline, newline="")
    batch = read_batch_csv(path, kind, dim)
    want = np.array([float(f) for f in fields]).reshape(n, len(header))
    if kind is Kind.SCALAR:
        values = want[:, 0]
    elif kind is Kind.COMPLEX:
        values = np.array([complex(re, im) for re, im in want[:, :2].tolist()])
    else:
        values = want[:, :-1]
    assert batch.values.tobytes() == values.tobytes()
    assert batch.weights.tobytes() == want[:, -1].tobytes()
