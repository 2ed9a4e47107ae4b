import math

import numpy as np
import pytest

from momentflow import (
    Batch,
    EmptyState,
    Kind,
    MetricSpec,
    MomentState,
    OrderLadder,
    PolynomialMetric,
    append_batch,
    dumps_state,
    expand_fractional_targets,
    fractional_chain,
    from_batch,
    loads_state,
    merge_states,
    metric_update,
    update_fractional,
    update_integer,
    update_mean,
    update_normalizer,
)
from momentflow.accumulator import COLUMNAR_MIN_RECORDS
from momentflow.elements import norm_payload, relative_error
from momentflow.errors import (
    BadLadderSpec,
    EmptyBatch,
    KindMismatch,
    LadderMismatch,
    OrderNotInLadder,
    ValidationError,
    ZeroNormalizer,
)

from conftest import concat_batches, random_batch


def brute_force_moment(values, weights, order):
    """Independent of the library: literal weighted power sum."""
    z = math.fsum(weights)
    mean = math.fsum(w * x for w, x in zip(weights, values)) / z
    return math.fsum(w * (x - mean) ** order for w, x in zip(weights, values)) / z


# ---------------------------------------------------------------------------
# from_batch (the reference path)
# ---------------------------------------------------------------------------


def test_from_batch_unit_weights():
    s = from_batch(Batch.from_values(Kind.SCALAR, [1, 2, 3], [1, 1, 1]), OrderLadder([2, 3, 4]))
    assert s.z == 3.0
    assert s.mean == 2.0
    assert s.count == 3
    assert s.moments[2.0] == 2 / 3
    assert s.moments[3.0] == 0.0
    assert s.moments[4.0] == 2 / 3


def test_from_batch_matches_independent_brute_force(rng):
    for _ in range(50):
        n = int(rng.integers(2, 30))
        values = rng.normal(size=n).tolist()
        weights = (0.1 + rng.random(n)).tolist()
        s = from_batch(Batch.from_values(Kind.SCALAR, values, weights), OrderLadder([2, 3, 4, 5]))
        for order in (2, 3, 4, 5):
            assert s.moments[float(order)] == pytest.approx(
                brute_force_moment(values, weights, order), rel=1e-10, abs=1e-12
            )


def test_from_batch_constant_data():
    s = from_batch(
        Batch.from_values(Kind.SCALAR, [7.5, 7.5, 7.5], [0.2, 1.0, 3.0]),
        OrderLadder([2, 3]),
    )
    assert s.mean == 7.5
    assert s.moments[2.0] == 0.0
    assert s.moments[3.0] == 0.0


def test_from_batch_weighted():
    s = from_batch(Batch.from_values(Kind.SCALAR, [0, 1], [1, 3]), OrderLadder([2]))
    assert s.z == 4.0
    assert s.mean == 0.75
    assert s.moments[2.0] == 3 / 16


def test_from_batch_zero_normalizer():
    with pytest.raises(ZeroNormalizer):
        from_batch(Batch.from_values(Kind.SCALAR, [1, 2], [1, -1]), OrderLadder([2]))


def test_from_batch_vector_componentwise():
    s = from_batch(
        Batch.from_values(Kind.VECTOR, [[1, 10], [3, 30]], [1, 1], dim=2),
        OrderLadder([2]),
    )
    assert np.array_equal(s.mean, [2.0, 20.0])
    assert np.array_equal(s.moments[2.0], [1.0, 100.0])


def test_vector_states_are_read_only():
    ladder = OrderLadder([2, 3])
    b = Batch.from_values(Kind.VECTOR, [[1, 10], [3, 30], [4, 20]], [1, 1, 2])
    nb = Batch.from_values(Kind.VECTOR, [[2, 5]], [1])
    base = from_batch(b, ladder)
    mutable = MomentState(
        kind=Kind.VECTOR, dim=2, ladder=ladder, z=1.0, mean=np.array([1.0, 2.0]),
        count=1, moments={2.0: np.array([1.0, 1.0]), 3.0: np.array([0.0, 0.0])},
    )
    states = {
        "from_batch": base,
        "update_integer": update_integer(base, nb),
        "append_batch": append_batch(base, nb)[0],
        "append_batch to empty": append_batch(EmptyState(Kind.VECTOR, 2, ladder), b)[0],
        "merge_states": merge_states(base, from_batch(nb, ladder)),
        "loads_state": loads_state(dumps_state(base)),
        "MomentState": mutable,
    }
    for path, s in states.items():
        for array in (s.mean, *s.moments.values()):
            with pytest.raises(ValueError):
                array[0] = 99.0
        assert s.moment(2) is s.moments[2.0], path


@pytest.mark.parametrize("n", [3, COLUMNAR_MIN_RECORDS + 8])
@pytest.mark.parametrize(
    "kind,dim,payload_type",
    [(Kind.SCALAR, None, float), (Kind.COMPLEX, None, complex), (Kind.VECTOR, 2, np.ndarray)],
)
def test_updates_produce_payloads_of_the_state_kind(rng, kind, dim, payload_type, n):
    # A negative weight pins the base mean at 0.5, below every record, so
    # the real kinds' fractional orders see positive deviations only.
    def batch(values, weights):
        values = np.asarray(values, dtype=float)
        if kind is Kind.VECTOR:
            values = np.repeat(values[:, None], dim, axis=1)
        return Batch.from_values(kind, values, weights, dim=dim)

    base = batch([1.0, 2.0], [3.0, -1.0])
    extra = batch(2.0 + rng.random(n), 0.05 + 0.05 * rng.random(n))
    ladder = OrderLadder([2, 3, 4, 2.5, 1.5, 0.5])
    state = from_batch(base, ladder)
    appended, _ = append_batch(state, extra)
    ints = OrderLadder.integer_range(2, 4)
    merged = merge_states(from_batch(base, ints), from_batch(extra, ints))
    spec = MetricSpec(PolynomialMetric([0.5, 0.0, 1.0]), n_star=4)
    metric = metric_update(from_batch(base, ints), extra, spec)
    payloads = [
        appended.mean,
        *appended.moments.values(),
        update_fractional(state, extra, 2.5, cutoff=2)[0],
        merged.mean,
        *merged.moments.values(),
        metric.value,
    ]
    for p in payloads:
        assert type(p) is payload_type, p
        if kind is Kind.VECTOR:
            assert not p.flags.writeable


def test_moment_0_and_1_are_exact_and_never_stored():
    s = from_batch(Batch.from_values(Kind.SCALAR, [1, 2], [1, 1]), OrderLadder([2]))
    assert s.moment(0) == 1.0 and type(s.moment(0)) is float
    assert s.moment(1) == 0.0 and type(s.moment(1)) is float
    assert 0.0 not in s.moments and 1.0 not in s.moments
    with pytest.raises(OrderNotInLadder):
        s.moment(7)


def test_m2_nonnegative_for_positive_weights(rng):
    for _ in range(200):
        n = int(rng.integers(1, 20))
        b = random_batch(rng, Kind.SCALAR, n)
        s = from_batch(b, OrderLadder([2]))
        assert s.moments[2.0] >= 0.0


# ---------------------------------------------------------------------------
# normalizer / mean updates
# ---------------------------------------------------------------------------


def _state(values, weights, orders=(2,)):
    return from_batch(Batch.from_values(Kind.SCALAR, values, weights), OrderLadder(orders))


def test_update_normalizer_simple():
    s = _state([1, 2, 3], [1, 1, 1])
    assert update_normalizer(s, Batch.from_values(Kind.SCALAR, [9, 9], [1, 1])) == 5.0


def test_update_normalizer_fractional_weights():
    s = _state([0, 1], [1.5, 1.0])
    assert update_normalizer(s, Batch.from_values(Kind.SCALAR, [5, 6], [0.5, 1.0])) == 4.0


def test_update_normalizer_degenerate_cancellation():
    s = _state([0, 1, 2, 3], [1, 1, 1, 1])  # Z = 4
    with pytest.raises(ZeroNormalizer):
        update_normalizer(s, Batch.from_values(Kind.SCALAR, [5], [-4 + 1e-320]))


def test_update_mean_scalar():
    s = _state([1, 2], [1, 1])
    zp = update_normalizer(s, Batch.from_values(Kind.SCALAR, [3], [1]))
    assert update_mean(s, Batch.from_values(Kind.SCALAR, [3], [1]), zp) == pytest.approx(
        2.0, rel=1e-14
    )


def test_update_mean_vector():
    b = Batch.from_values(Kind.VECTOR, [[0, 0], [2, 2]], [1, 1], dim=2)
    s = from_batch(b, OrderLadder([2]))  # mean [1,1], Z=2
    nb = Batch.from_values(Kind.VECTOR, [[4, 0]], [2], dim=2)
    zp = update_normalizer(s, nb)
    assert np.array_equal(update_mean(s, nb, zp), [2.5, 0.5])


def test_batch_is_columnar_and_read_only():
    b = Batch.from_values(Kind.VECTOR, [[1, 2], [3, 4], [5, 6]], [1, 2, 3])
    assert b.dim == 2 and b.size == 3
    assert b.values.shape == (3, 2) and b.values.dtype == np.float64
    assert b.weights.shape == (3,) and b.weights.dtype == np.float64
    with pytest.raises(ValueError):
        b.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        b.weights[0] = 9.0
    c = Batch.from_values(Kind.COMPLEX, [1, 2j], [1, 1])
    assert c.values.dtype == np.complex128 and c.values.tolist() == [1, 2j]
    # from_values copies: the caller's array stays writable and unshared
    src = np.array([1.0, 2.0])
    s = Batch.from_values(Kind.SCALAR, src, [1.0, 1.0])
    src[0] = 7.0
    assert s.values.tolist() == [1.0, 2.0]


def test_batch_rejects_malformed_columns():
    with pytest.raises(KindMismatch):
        Batch.from_values(Kind.VECTOR, [[1, 2], [3]], [1, 1])
    with pytest.raises(KindMismatch):
        Batch.from_values(Kind.VECTOR, [[1, 2, 3]], [1], dim=2)
    with pytest.raises(KindMismatch):
        Batch.from_values(Kind.SCALAR, [[1.0], [2.0]], [1, 1])
    with pytest.raises(ValidationError):
        Batch.from_values(Kind.SCALAR, [1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        Batch.from_values(Kind.SCALAR, [1.0, 2.0], [1.0, float("nan")])
    with pytest.raises(ValidationError):
        Batch.from_values(Kind.SCALAR, [1.0, 2.0], [float("inf"), 1.0])
    with pytest.raises(ValidationError):
        Batch.from_values(Kind.SCALAR, [1.0] * 40, [1.0] * 39 + [float("-inf")])
    with pytest.raises(ValidationError):
        Batch(kind=Kind.SCALAR, dim=None, values=(1.0, 2.0), weights=(1.0, 1.0))


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        Batch.from_values(Kind.SCALAR, [], [])


# ---------------------------------------------------------------------------
# integer updates vs the reference path
# ---------------------------------------------------------------------------


def test_update_integer_small_case():
    s = _state([1, 2], [1, 1])
    s2 = update_integer(s, Batch.from_values(Kind.SCALAR, [3], [1]))
    oracle = _state([1, 2, 3], [1, 1, 1])
    assert s2.moments[2.0] == pytest.approx(oracle.moments[2.0], rel=1e-12)
    assert s2.count == 3
    assert s2.z == 3.0


def test_update_integer_pure_renormalization():
    # Batch sits exactly on the mean and Z/Z' is a dyadic ratio, so the
    # shift is exactly zero and the update is a pure rescale.
    s = _state([1, 2, 3], [1, 1, 1], orders=(2, 3, 4))
    s2 = update_integer(s, Batch.from_values(Kind.SCALAR, [2.0], [1.0]))
    assert s2.mean == 2.0
    for n in (2.0, 3.0, 4.0):
        assert s2.moments[n] == 0.75 * s.moments[n]


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 4)])
def test_update_integer_matches_oracle_orders_2_to_20(rng, kind, dim):
    ladder = OrderLadder.integer_range(2, 20)
    for _ in range(30):
        base = random_batch(rng, kind, 16, dim=dim)
        extra = random_batch(rng, kind, int(rng.integers(1, 6)), dim=dim)
        upd = update_integer(from_batch(base, ladder), extra)
        oracle = from_batch(concat_batches(base, extra), ladder)
        m2 = norm_payload(kind, oracle.moments[2.0])
        for n in ladder.integer_orders:
            tol = 1e-8 if n <= 10 else 1e-6
            assert relative_error(kind, upd.moments[float(n)], oracle.moments[float(n)], m2, n) < tol


def test_chunked_append_consistency(rng):
    ladder = OrderLadder.integer_range(2, 12)
    for _ in range(25):
        base = random_batch(rng, Kind.SCALAR, 24)
        extra = random_batch(rng, Kind.SCALAR, 8)
        once = update_integer(from_batch(base, ladder), extra)
        first = Batch.from_values(Kind.SCALAR, extra.values[:3], extra.weights[:3])
        second = Batch.from_values(Kind.SCALAR, extra.values[3:], extra.weights[3:])
        twice = update_integer(update_integer(from_batch(base, ladder), first), second)
        for n in ladder.integer_orders:
            assert twice.moments[float(n)] == pytest.approx(
                once.moments[float(n)], rel=1e-10, abs=1e-300
            )


def test_update_reads_nothing_from_original_data(rng):
    # The storage pitch: once the state exists, the base data can be gone.
    ladder = OrderLadder.integer_range(2, 8)
    base = random_batch(rng, Kind.SCALAR, 64)
    extra = random_batch(rng, Kind.SCALAR, 4)
    oracle = from_batch(concat_batches(base, extra), ladder)
    state = from_batch(base, ladder)
    del base
    upd = update_integer(state, extra)
    for n in ladder.integer_orders:
        assert upd.moments[float(n)] == pytest.approx(oracle.moments[float(n)], rel=1e-8)


def test_update_integer_rejects_fractional_ladder(rng):
    ladder = OrderLadder([2.0, 2.5])
    base = random_batch(rng, Kind.COMPLEX, 8)
    state = from_batch(base, ladder)
    with pytest.raises(LadderMismatch):
        update_integer(state, random_batch(rng, Kind.COMPLEX, 1))


def test_update_integer_kind_mismatch(rng):
    s = _state([1, 2], [1, 1])
    with pytest.raises(KindMismatch):
        update_integer(s, random_batch(rng, Kind.COMPLEX, 2))


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def test_merge_matches_oracle():
    a = _state([1, 2], [1, 1])
    b = _state([3, 4], [1, 1])
    m = merge_states(a, b)
    assert m.moments[2.0] == 1.25
    assert m.count == 4


def test_merge_with_empty_is_identity():
    a = _state([1, 2], [1, 1])
    empty = EmptyState(kind=Kind.SCALAR, dim=None, ladder=a.ladder)
    assert merge_states(a, empty) is a
    assert merge_states(empty, a) is a


def test_merge_commutative_bit_exact(rng):
    ladder = OrderLadder.integer_range(2, 10)
    for _ in range(20):
        a = from_batch(random_batch(rng, Kind.SCALAR, 12), ladder)
        b = from_batch(random_batch(rng, Kind.SCALAR, 20), ladder)
        ab, ba = merge_states(a, b), merge_states(b, a)
        assert ab.z == ba.z and ab.mean == ba.mean
        for n in ladder.integer_orders:
            assert ab.moments[float(n)] == ba.moments[float(n)]


def test_merge_random_vs_oracle(rng):
    ladder = OrderLadder.integer_range(2, 12)
    for _ in range(20):
        ba = random_batch(rng, Kind.SCALAR, int(rng.integers(2, 30)))
        bb = random_batch(rng, Kind.SCALAR, int(rng.integers(2, 30)))
        merged = merge_states(from_batch(ba, ladder), from_batch(bb, ladder))
        oracle = from_batch(concat_batches(ba, bb), ladder)
        m2 = oracle.moments[2.0]
        for n in ladder.integer_orders:
            assert relative_error(Kind.SCALAR, merged.moments[float(n)], oracle.moments[float(n)], m2, n) < 1e-8


def test_merge_mismatches():
    a = _state([1, 2], [1, 1])
    b = _state([3, 4], [1, 1], orders=(2, 3))
    with pytest.raises(LadderMismatch):
        merge_states(a, b)
    c = from_batch(Batch.from_values(Kind.COMPLEX, [1, 2], [1, 1]), OrderLadder([2]))
    with pytest.raises(KindMismatch):
        merge_states(a, c)


def test_merge_with_empty_checks_kind_and_ladder():
    a = _state([1, 2], [1, 1])
    other_ladder = EmptyState(kind=Kind.SCALAR, dim=None, ladder=OrderLadder([2, 3]))
    other_kind = EmptyState(kind=Kind.COMPLEX, dim=None, ladder=a.ladder)
    other_dim = EmptyState(kind=Kind.VECTOR, dim=3, ladder=a.ladder)
    vec = from_batch(Batch.from_values(Kind.VECTOR, [[1, 2], [3, 4]], [1, 1]), a.ladder)
    for x, y in [(a, other_ladder), (other_ladder, a)]:
        with pytest.raises(LadderMismatch):
            merge_states(x, y)
    for x, y in [(a, other_kind), (other_kind, a), (vec, other_dim), (other_dim, vec)]:
        with pytest.raises(KindMismatch):
            merge_states(x, y)


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def test_ladder_rejects_order_one():
    with pytest.raises(BadLadderSpec):
        OrderLadder([1, 2, 3])


def test_ladder_requires_gap_free_integers():
    with pytest.raises(BadLadderSpec):
        OrderLadder([2, 4])
    OrderLadder([2, 3, 4])


def test_ladder_rejects_huge_integer_orders():
    with pytest.raises(BadLadderSpec):
        OrderLadder(range(2, 64))


def test_ladder_accepts_fractional_and_negative_noninteger():
    lad = OrderLadder([2, 3, 2.5, -0.5])
    assert lad.fractional_orders == (-0.5, 2.5)
    assert lad.max_integer_order == 3


def test_ladder_dedupes():
    assert OrderLadder([2, 2.0, 3]).orders == (2.0, 3.0)


def test_ladder_orders_are_computed_once_and_stay_field_based():
    lad = OrderLadder([2, 3, 2.5, -0.5])
    fresh = OrderLadder([2, 3, 2.5, -0.5])
    assert lad.integer_orders is lad.integer_orders
    assert lad.fractional_orders is lad.fractional_orders
    assert (2 in lad, 2.0 in lad, 2.5 in lad, -0.5 in lad) == (True, True, True, True)
    assert (1 in lad, 0.5 in lad, 4.0 in lad) == (False, False, False)
    # the cached views add nothing to equality, hashing or repr
    assert lad == fresh and hash(lad) == hash(fresh)
    assert repr(lad) == repr(fresh) == "OrderLadder(orders=(-0.5, 2.0, 2.5, 3.0))"


def test_fractional_chain_and_expansion():
    chain = fractional_chain(2.5, 4)
    assert chain == (2.5, 1.5, 0.5, -0.5, -1.5)
    expanded = expand_fractional_targets([2.0, 3.0, 2.5], depth=3)
    assert set(expanded) == {2.0, 3.0, 2.5, 1.5, 0.5, -0.5}
    with pytest.raises(BadLadderSpec):
        fractional_chain(3.0, 4)


# ---------------------------------------------------------------------------
# append_batch composite
# ---------------------------------------------------------------------------


def test_append_batch_fills_empty_state(rng):
    ladder = OrderLadder.integer_range(2, 6)
    empty = EmptyState(kind=Kind.SCALAR, dim=None, ladder=ladder)
    b = random_batch(rng, Kind.SCALAR, 10)
    state, reports = append_batch(empty, b)
    assert reports == {}
    assert state.count == 10
    oracle = from_batch(b, ladder)
    assert state.moments[2.0] == oracle.moments[2.0]


def test_append_batch_mixed_ladder_advances_everything(rng):
    orders = expand_fractional_targets([2.0, 3.0, 2.5], depth=10)
    ladder = OrderLadder(orders)
    vals = [complex(50 + u) for u in (-1.3, -0.4, 0.6, 1.1)]
    state = from_batch(Batch.from_values(Kind.COMPLEX, vals, [1.0, 0.8, 1.2, 1.0]), ladder)
    nb = Batch.from_values(Kind.COMPLEX, [complex(state.mean) + 0.003], [1.0])
    new_state, reports = append_batch(state, nb)
    assert new_state.count == 5
    assert set(reports) == set(ladder.fractional_orders)
    # integer orders must agree with the reference path on the joined data
    oracle = from_batch(
        Batch.from_values(Kind.COMPLEX, vals + [complex(state.mean) + 0.003], [1.0, 0.8, 1.2, 1.0, 1.0]),
        ladder,
    )
    assert new_state.moments[2.0] == pytest.approx(oracle.moments[2.0], rel=1e-10)
    assert new_state.moments[2.5] == pytest.approx(oracle.moments[2.5], rel=1e-6)
