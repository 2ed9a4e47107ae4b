import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from momentflow import (
    EmptyState,
    Kind,
    MomentState,
    OrderLadder,
    compute_digest,
    dumps_state,
    from_batch,
    load_state,
    loads_state,
    save_state,
    state_lock,
)
from momentflow.errors import (
    DigestMismatch,
    IntegrityError,
    LockHeld,
    NumericError,
    ValidationError,
)

from conftest import random_batch


def _random_float(rng):
    """Arbitrary finite doubles, including subnormals and extreme exponents."""
    while True:
        bits = int(rng.integers(0, 2**64, dtype=np.uint64))
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if np.isfinite(x):
            return x


def _random_state(rng, kind, dim=None):
    n_orders = int(rng.integers(1, 5))
    orders = [float(n) for n in range(2, 2 + n_orders)]
    if rng.random() < 0.4:
        orders += [2.5, 1.5, 0.5, -0.5]
    ladder = OrderLadder(orders)

    def payload():
        if kind is Kind.SCALAR:
            return _random_float(rng)
        if kind is Kind.COMPLEX:
            return complex(_random_float(rng), _random_float(rng))
        return np.array([_random_float(rng) for _ in range(dim)])

    return MomentState(
        kind=kind,
        dim=dim,
        ladder=ladder,
        z=_random_float(rng) or 1.0,
        mean=payload(),
        count=int(rng.integers(1, 10**9)),
        moments={o: payload() for o in ladder.orders},
    )


def _assert_states_bit_equal(a, b):
    assert a.kind is b.kind and a.dim == b.dim
    assert a.ladder.orders == b.ladder.orders
    if isinstance(a, EmptyState):
        assert isinstance(b, EmptyState)
        return
    assert a.z == b.z or (a.z != a.z and b.z != b.z)
    assert a.count == b.count
    for o in a.ladder.orders:
        va, vb = a.moments[o], b.moments[o]
        if a.kind is Kind.VECTOR:
            assert np.array_equal(va, vb)
        else:
            assert va == vb
    if a.kind is Kind.VECTOR:
        assert np.array_equal(a.mean, b.mean)
    else:
        assert a.mean == b.mean


@pytest.mark.parametrize("encoding", ["hex", "decimal"])
def test_round_trip_bit_exact_fuzz(rng, encoding):
    # 10k random states across kinds and both encodings
    kinds = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
    for i in range(5000):
        kind, dim = kinds[i % 3]
        state = _random_state(rng, kind, dim)
        back = loads_state(dumps_state(state, encoding))
        _assert_states_bit_equal(state, back)


def test_digest_stable_across_encodings(rng):
    state = _random_state(rng, Kind.COMPLEX)
    d_hex = json.loads(dumps_state(state, "hex"))["content_digest"]
    d_dec = json.loads(dumps_state(state, "decimal"))["content_digest"]
    assert d_hex == d_dec == compute_digest(state)


def test_empty_state_round_trip(tmp_path):
    empty = EmptyState(kind=Kind.VECTOR, dim=4, ladder=OrderLadder([2, 3]))
    path = tmp_path / "e.json"
    save_state(path, empty)
    back = load_state(path)
    assert isinstance(back, EmptyState)
    assert back.dim == 4
    assert back.ladder.orders == (2.0, 3.0)


def test_save_load_real_session(tmp_path, rng):
    state = from_batch(random_batch(rng, Kind.SCALAR, 20), OrderLadder.integer_range(2, 10))
    path = tmp_path / "s.json"
    save_state(path, state)
    _assert_states_bit_equal(state, load_state(path))


def test_tampered_document_fails_digest(tmp_path, rng):
    state = from_batch(random_batch(rng, Kind.SCALAR, 8), OrderLadder([2, 3]))
    path = tmp_path / "s.json"
    save_state(path, state, encoding="decimal")
    doc = json.loads(path.read_text())
    doc["moments"][0][1] = doc["moments"][0][1] + 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(DigestMismatch):
        load_state(path)


def test_corrupt_json_is_integrity_error(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{ not json")
    with pytest.raises(IntegrityError):
        load_state(path)


def test_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_state(tmp_path / "nope.json")


def test_crash_between_temp_and_rename_preserves_old_state(tmp_path, rng, monkeypatch):
    ladder = OrderLadder([2])
    old = from_batch(random_batch(rng, Kind.SCALAR, 5), ladder)
    path = tmp_path / "s.json"
    save_state(path, old)

    def boom(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr("momentflow.statefile.os.replace", boom)
    new = from_batch(random_batch(rng, Kind.SCALAR, 9), ladder)
    with pytest.raises(OSError):
        save_state(path, new)
    monkeypatch.undo()
    _assert_states_bit_equal(old, load_state(path))
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_lock_excludes_second_writer(tmp_path):
    path = tmp_path / "s.json"
    with state_lock(path):
        with pytest.raises(LockHeld):
            with state_lock(path):
                pass
    # released: can take it again
    with state_lock(path):
        pass


def test_unknown_format_version(tmp_path, rng):
    state = from_batch(random_batch(rng, Kind.SCALAR, 4), OrderLadder([2]))
    doc = json.loads(dumps_state(state, "decimal"))
    doc["format_version"] = 99
    with pytest.raises(IntegrityError):
        loads_state(json.dumps(doc))


def _drop_moment(doc):
    doc["moments"].pop(1)


def _unknown_kind(doc):
    doc["element_kind"] = "quaternion"


def _order_one_in_ladder(doc):
    doc["orders"].append(1.0)
    doc["moments"].append([1.0, 0.0])


def _count_not_a_number(doc):
    doc["count"] = "many"


@pytest.mark.parametrize(
    "damage", [_drop_moment, _unknown_kind, _order_one_in_ladder, _count_not_a_number]
)
def test_structurally_damaged_document_is_integrity_error(rng, damage):
    state = from_batch(random_batch(rng, Kind.SCALAR, 6), OrderLadder([2, 3, 4]))
    doc = json.loads(dumps_state(state, "decimal"))
    damage(doc)
    with pytest.raises(IntegrityError):
        loads_state(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value",
    [("z", 0.0), ("z", float("inf")), ("mean", float("nan")), ("count", -3)],
)
def test_load_checks_state_invariants(rng, field, value):
    # The digest matches: the document is self-consistent but not a state
    # any append could have committed.
    state = from_batch(random_batch(rng, Kind.SCALAR, 6), OrderLadder([2, 3]))
    text = dumps_state(dataclasses.replace(state, **{field: value}))
    with pytest.raises(IntegrityError):
        loads_state(text)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 2)])
def test_load_checks_mean_finite_for_every_kind(rng, kind, dim):
    state = from_batch(random_batch(rng, kind, 6, dim=dim), OrderLadder([2]))
    bad_mean = {
        Kind.SCALAR: float("inf"),
        Kind.COMPLEX: complex(0.5, float("nan")),
        Kind.VECTOR: np.array([0.5, float("-inf")]),
    }[kind]
    with pytest.raises(IntegrityError):
        loads_state(dumps_state(dataclasses.replace(state, mean=bad_mean)))


@pytest.mark.parametrize("field", ["z", "mean", "moment"])
def test_save_refuses_non_finite_state(tmp_path, rng, field):
    state = from_batch(random_batch(rng, Kind.COMPLEX, 6), OrderLadder([2, 3]))
    path = tmp_path / "s.json"
    save_state(path, state)
    before = path.read_bytes()
    if field == "moment":
        bad = dataclasses.replace(state, moments={2.0: state.moments[2.0], 3.0: complex("inf")})
    elif field == "mean":
        bad = dataclasses.replace(state, mean=complex(float("nan"), 0.0))
    else:
        bad = dataclasses.replace(state, z=float("inf"))
    with pytest.raises(NumericError):
        save_state(path, bad)
    assert path.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
