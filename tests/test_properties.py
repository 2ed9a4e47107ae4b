"""Algebraic properties of the append path, checked with hypothesis.

Hypothesis draws batch sizes, a data seed and a drift; the records are
Gaussian. Sizes fall on both sides of COLUMNAR_MIN_RECORDS, so every
property is checked on the per-record passes and on the whole-array ones.
Errors are scaled as in the benchmark's result check: each order n by the
absolute moment (1/Z) * sum_i w_i |x_i - mean|**n, componentwise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentflow import (
    Batch,
    ExponentialMetric,
    Kind,
    MetricSpec,
    OrderLadder,
    append_batch,
    from_batch,
    metric_update,
    update_integer,
)
from momentflow import accumulator
from momentflow.accumulator import COLUMNAR_MIN_RECORDS

from conftest import concat_batches

KINDS = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
KIND_IDS = ["scalar", "complex", "vector3"]
LADDER = OrderLadder.integer_range(2, 20)
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
        lambda: accumulator._fractional_power_sums(batch, center, (order,))[0]
    )
    w = batch.weights.reshape((-1,) + (1,) * (batch.values.ndim - 1))
    scale = (w * np.abs(batch.values - center) ** order).sum(axis=0)
    assert np.all(np.abs(np.atleast_1d(per_record - whole_array)) <= 1e-12 * scale)
