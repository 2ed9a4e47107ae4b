import dataclasses
import hashlib
import json
import os
import stat
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
from momentflow import statefile
from momentflow.cli import main
from momentflow.errors import (
    DigestMismatch,
    IntegrityError,
    LockHeld,
    NumericError,
    ValidationError,
)

from conftest import random_batch

# Signed zeros, the smallest subnormal, a subnormal, the smallest normal and
# numbers at the top of the range.
SPECIAL_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308,
)


def _random_float(rng):
    """Arbitrary finite doubles, including subnormals and extreme exponents."""
    while True:
        bits = int(rng.integers(0, 2**64, dtype=np.uint64))
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if np.isfinite(x):
            return x


def _random_state(rng, kind, dim=None, special=()):
    """A state of arbitrary finite doubles; about half are drawn from
    ``special`` when it is given."""
    n_orders = int(rng.integers(1, 5))
    orders = [float(n) for n in range(2, 2 + n_orders)]
    if rng.random() < 0.4:
        orders += [2.5, 1.5, 0.5, -0.5]
    ladder = OrderLadder(orders)

    def number():
        if special and rng.random() < 0.5:
            return special[int(rng.integers(len(special)))]
        return _random_float(rng)

    def payload():
        if kind is Kind.SCALAR:
            return number()
        if kind is Kind.COMPLEX:
            return complex(number(), number())
        return np.array([number() for _ in range(dim)])

    return MomentState(
        kind=kind,
        dim=dim,
        ladder=ladder,
        z=number() or 1.0,
        mean=payload(),
        count=int(rng.integers(1, 10**9)),
        values=[payload() for o in ladder.orders],
    )


def _bits(kind, p):
    """A payload's exact bits, as hex floats: unlike ``==`` this tells -0.0
    from 0.0."""
    if kind is Kind.SCALAR:
        return (float.hex(p),)
    if kind is Kind.COMPLEX:
        return (float.hex(p.real), float.hex(p.imag))
    return tuple(float.hex(c) for c in p.tolist())


def _assert_states_bit_equal(a, b):
    assert a.kind is b.kind and a.dim == b.dim
    assert a.ladder.orders == b.ladder.orders
    if isinstance(a, EmptyState):
        assert isinstance(b, EmptyState)
        return
    assert float.hex(a.z) == float.hex(b.z)
    assert a.count == b.count
    for o in a.ladder.orders:
        assert _bits(a.kind, a.moments[o]) == _bits(b.kind, b.moments[o])
    assert _bits(a.kind, a.mean) == _bits(b.kind, b.mean)


def _document(doc, seal=False):
    """Serialise a parsed version-2 document canonically. ``seal`` puts in
    the digest of the body as it now stands, so the damage a test made
    reaches the structural checks instead of failing the digest."""
    body = {k: v for k, v in doc.items() if k != "content_digest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return _with_digest(text, seal, doc.get("content_digest"))


def _with_digest(body, seal, digest=None):
    if seal:
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    if digest is None:
        return body + "\n"
    return '{"content_digest":"' + digest + '",' + body[1:] + "\n"


def test_round_trip_bit_exact_fuzz(rng):
    kinds = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
    for i in range(5000):
        kind, dim = kinds[i % 3]
        state = _random_state(rng, kind, dim)
        _assert_states_bit_equal(state, loads_state(dumps_state(state)))


def test_round_trip_keeps_signed_zeros_subnormals_and_extremes(rng):
    kinds = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
    for i in range(1500):
        kind, dim = kinds[i % 3]
        state = _random_state(rng, kind, dim, special=SPECIAL_FLOATS)
        _assert_states_bit_equal(state, loads_state(dumps_state(state)))


def test_document_bytes_are_stable(rng):
    kinds = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)]
    texts = [
        dumps_state(EmptyState(kind=kind, dim=dim, ladder=OrderLadder([2, 3, 2.5])))
        for kind, dim in kinds
    ]
    for i in range(300):
        kind, dim = kinds[i % 3]
        texts.append(dumps_state(_random_state(rng, kind, dim, special=SPECIAL_FLOATS)))
    for text in texts:
        assert dumps_state(loads_state(text)) == text


def test_document_is_one_canonical_line_with_digest_over_its_body(rng):
    state = _random_state(rng, Kind.VECTOR, 3)
    text = dumps_state(state)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    body = {k: v for k, v in doc.items() if k != "content_digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert doc["content_digest"] == hashlib.sha256(canonical).hexdigest() == compute_digest(state)
    assert doc["format_version"] == 2
    assert len(doc["moments"]) == len(doc["orders"]) == len(state.ladder)
    assert all(isinstance(o, str) for o in doc["orders"])


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
    save_state(path, state)
    doc = json.loads(path.read_text())
    doc["moments"][0] = float.hex(float.fromhex(doc["moments"][0]) + 1e-3)
    path.write_text(_document(doc))
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
    doc = json.loads(dumps_state(state))
    doc["format_version"] = 99
    with pytest.raises(IntegrityError, match="unsupported format_version"):
        loads_state(_document(doc, seal=True))


def _drop_moment(doc):
    doc["moments"].pop(1)


def _unknown_kind(doc):
    doc["element_kind"] = "quaternion"


def _order_one_in_ladder(doc):
    doc["orders"].insert(0, float.hex(1.0))
    doc["moments"].insert(0, float.hex(0.0))


def _count_not_a_number(doc):
    doc["count"] = "many"


def _orders_unsorted(doc):
    # each moment stays beside its order, but a reader that sorted the
    # orders would pair them with the wrong moments
    doc["orders"].reverse()
    doc["moments"].reverse()


@pytest.mark.parametrize(
    "damage",
    [_drop_moment, _unknown_kind, _order_one_in_ladder, _count_not_a_number, _orders_unsorted],
)
def test_structurally_damaged_document_is_integrity_error(rng, damage):
    # sealed: the digest matches, so the structural checks must refuse it
    state = from_batch(random_batch(rng, Kind.SCALAR, 6), OrderLadder([2, 3, 4]))
    doc = json.loads(dumps_state(state))
    damage(doc)
    with pytest.raises(IntegrityError) as caught:
        loads_state(_document(doc, seal=True))
    assert not isinstance(caught.value, DigestMismatch)


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
        bad = dataclasses.replace(state, values=(state.moments[2.0], complex("inf")))
    elif field == "mean":
        bad = dataclasses.replace(state, mean=complex(float("nan"), 0.0))
    else:
        bad = dataclasses.replace(state, z=float("inf"))
    with pytest.raises(NumericError):
        save_state(path, bad)
    assert path.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


# ---------------------------------------------------------------------------
# damaged documents exit 4 through the CLI and are left as they were
# ---------------------------------------------------------------------------


def _exits_4_unchanged(tmp_path, capsys, text):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="ascii")
    batch = tmp_path / "b.csv"
    batch.write_text("x,weight\n0.5,1.0\n")
    assert main(["query", "--state", str(path), "--count"]) == 4
    assert main(["append", "--state", str(path), "--batch", str(batch)]) == 4
    err = capsys.readouterr().err
    assert "integrity error" in err
    assert path.read_text(encoding="ascii") == text
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
    return err


def _v2_doc(kind, dim=None, empty=False):
    ladder = OrderLadder([2, 3, 4])
    if empty:
        state = EmptyState(kind=kind, dim=dim, ladder=ladder)
    else:
        state = from_batch(random_batch(np.random.default_rng(11), kind, 6, dim=dim), ladder)
    return json.loads(dumps_state(state))


# a changed value per key of a non-empty vector document (all nine keys)
_FLIPS = {
    "content_digest": lambda v: v[::-1],
    "count": lambda v: v + 1,
    "element_kind": lambda v: "complex",
    "format_version": lambda v: 1,
    "mean": lambda v: v[::-1],
    "moments": lambda v: v[::-1],
    "orders": lambda v: v[::-1],
    "vector_dim": lambda v: v + 1,
    "z": lambda v: float.hex(2 * float.fromhex(v)),
}


@pytest.mark.parametrize("key", sorted(_FLIPS))
def test_flipped_key_exits_4(tmp_path, capsys, key):
    doc = _v2_doc(Kind.VECTOR, 3)
    doc[key] = _FLIPS[key](doc[key])
    _exits_4_unchanged(tmp_path, capsys, _document(doc))


_DROPS = [(k, False) for k in sorted(_FLIPS)]
# sealing would put a dropped digest back
_DROPS += [(k, True) for k in sorted(_FLIPS) if k != "content_digest"]


@pytest.mark.parametrize("key,seal", _DROPS)
def test_dropped_key_exits_4(tmp_path, capsys, key, seal):
    doc = _v2_doc(Kind.VECTOR, 3)
    del doc[key]
    _exits_4_unchanged(tmp_path, capsys, _document(doc, seal))


@pytest.mark.parametrize("seal", [False, True], ids=["stale-digest", "sealed"])
@pytest.mark.parametrize(
    "shape,key,value",
    [
        ("scalar", "number_encoding", "hex"),
        ("scalar", "health", {}),
        ("scalar", "vector_dim", 1),
        ("empty", "z", float.hex(1.0)),
        ("empty", "moments", []),
    ],
)
def test_added_key_exits_4(tmp_path, capsys, shape, key, value, seal):
    doc = _v2_doc(Kind.SCALAR, empty=shape == "empty")
    doc[key] = value
    _exits_4_unchanged(tmp_path, capsys, _document(doc, seal))


def _v2_body(doc):
    return json.dumps(
        {k: v for k, v in doc.items() if k != "content_digest"},
        sort_keys=True,
        separators=(",", ":"),
    )


@pytest.mark.parametrize("key", ["count", "vector_dim"])
@pytest.mark.parametrize("number", ["1e999", "-1e999", "3.5", "3.0", "true"])
def test_count_or_dim_that_is_not_an_integer_exits_4(tmp_path, capsys, key, number):
    # 1e999 used to raise OverflowError in int(); 3.0 used to be truncated
    doc = _v2_doc(Kind.VECTOR, 3)
    body = _v2_body(doc).replace(f'"{key}":{doc[key]}', f'"{key}":{number}')
    assert number in body
    _exits_4_unchanged(tmp_path, capsys, _with_digest(body, seal=True))


@pytest.mark.parametrize("where", ["top", "v2-mean"])
def test_deeply_nested_json_exits_4(tmp_path, capsys, where):
    # json.loads raised RecursionError on these
    deep = "[" * 100000 + "]" * 100000
    if where == "top":
        text = deep
    else:
        doc = _v2_doc(Kind.SCALAR)
        body = _v2_body(doc).replace(f'"mean":"{doc["mean"]}"', f'"mean":{deep}')
        text = _with_digest(body, seal=True)
    _exits_4_unchanged(tmp_path, capsys, text)


def test_non_ascii_document_is_integrity_error(tmp_path, capsys):
    text = _document(_v2_doc(Kind.SCALAR)).replace("scalar", "scälar")
    with pytest.raises(IntegrityError, match="not ASCII"):
        loads_state(text)
    path = tmp_path / "s.json"
    path.write_bytes(text.encode("utf-8"))
    assert main(["query", "--state", str(path), "--count"]) == 4
    assert "not ASCII" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the ladder of a document is validated once per distinct orders tuple
# ---------------------------------------------------------------------------


def test_loads_of_one_ladder_share_its_instance(rng):
    a = loads_state(dumps_state(from_batch(random_batch(rng, Kind.SCALAR, 6), OrderLadder([2, 3]))))
    b = loads_state(dumps_state(EmptyState(kind=Kind.COMPLEX, dim=None, ladder=OrderLadder([3, 2]))))
    assert a.ladder is b.ladder


def _orders_duplicated(doc):
    doc["orders"].insert(1, doc["orders"][1])
    doc["moments"].insert(1, doc["moments"][1])


@pytest.mark.parametrize("damage", [_orders_unsorted, _orders_duplicated, _order_one_in_ladder])
def test_cached_ladder_still_checks_every_document(tmp_path, capsys, damage):
    good = _v2_doc(Kind.SCALAR)
    assert loads_state(_document(good)).ladder.orders == (2.0, 3.0, 4.0)
    damage(good)
    for _ in range(2):  # the second load finds the ladder cached
        _exits_4_unchanged(tmp_path, capsys, _document(good, seal=True))


# An empty vector state as format 1 wrote it, digest and all.
_FORMAT_1_DOCUMENT = """{
  "content_digest": "d1faba79d6413881eed64900c99ad31e138a1e3ff1a6aac5da7a36a74b909397",
  "count": 0,
  "element_kind": "vector",
  "format_version": 1,
  "number_encoding": "hex",
  "orders": [
    "0x1.0000000000000p+1",
    "0x1.8000000000000p+1",
    "0x1.0000000000000p+2"
  ],
  "vector_dim": 2
}
"""


def _sealed(kind, dim, damage, empty=False):
    doc = _v2_doc(kind, dim, empty=empty)
    damage(doc)
    return _document(doc, seal=True)


# Each damaged document, every v2 one re-signed so that its own check fires
# rather than the digest check, and the fault its error must name.
_NAMED_DAMAGE = {
    "format-1": (lambda: _FORMAT_1_DOCUMENT, 'README.md\'s "Format 1 documents"'),
    "z-not-a-string": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d.update(z=True)),
        "z must be a hex-float string, got True",
    ),
    "mean-not-a-string": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d.update(mean=[1])),
        "mean must be a hex-float string, got [1]",
    ),
    "moment-not-a-string": (
        lambda: _sealed(Kind.COMPLEX, None, lambda d: d["moments"][1].__setitem__(0, 2.5)),
        "moments[1][0] must be a hex-float string, got 2.5",
    ),
    "order-not-a-string": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d["orders"].__setitem__(2, 4), empty=True),
        "orders[2] must be a hex-float string, got 4",
    ),
    "unreadable-vector-component": (
        lambda: _sealed(Kind.VECTOR, 3, lambda d: d["mean"].__setitem__(2, "0xg")),
        "mean[2] must be a hex-float string, got '0xg'",
    ),
    "z-too-large-for-a-float": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d.update(z="0x1p+1024")),
        "z is too large for a float, got '0x1p+1024'",
    ),
    "order-too-large-for-a-float": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d["orders"].append("0x1p+1024"), empty=True),
        "orders[3] is too large for a float, got '0x1p+1024'",
    ),
    "complex-payload-width": (
        lambda: _sealed(Kind.COMPLEX, None, lambda d: d["mean"].append(d["mean"][0])),
        "complex value must be a list of 2 numbers",
    ),
    "vector-payload-width": (
        lambda: _sealed(Kind.VECTOR, 3, lambda d: d["moments"][0].pop()),
        "vector value must be a list of 3 numbers",
    ),
    "vector-dim-below-1": (
        lambda: _sealed(Kind.VECTOR, 3, lambda d: d.update(vector_dim=0)),
        "vector_dim must be >= 1, got 0",
    ),
    "orders-not-a-list": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d.update(orders="2..4")),
        "orders must be a list",
    ),
    "not-an-object": (lambda: '["count", 3]\n', "state document must be a JSON object"),
    "empty-orders": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d.update(orders=[]), empty=True),
        "ladder must contain at least one order",
    ),
    "non-finite-order": (
        lambda: _sealed(Kind.SCALAR, None, lambda d: d["orders"].append("inf"), empty=True),
        "ladder order must be finite, got inf",
    ),
}


@pytest.mark.parametrize("damage", sorted(_NAMED_DAMAGE))
def test_damaged_document_exits_4_naming_its_fault(tmp_path, capsys, damage):
    make, fault = _NAMED_DAMAGE[damage]
    err = _exits_4_unchanged(tmp_path, capsys, make())
    assert fault in err
    assert "digest" not in err


# ---------------------------------------------------------------------------
# a save keeps the document's permission bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [0o644, 0o640])
def test_append_keeps_document_mode(tmp_path, capsys, mode):
    path = tmp_path / "s.json"
    assert main(["init", "--state", str(path), "--orders", "2..4", "--kind", "scalar"]) == 0
    assert path.stat().st_mode & 0o777 == 0o600
    path.chmod(mode)
    batch = tmp_path / "b.csv"
    batch.write_text("x,weight\n0.5,1.0\n1.5,2.0\n")
    for _ in range(2):  # the fill, then an update
        assert main(["append", "--state", str(path), "--batch", str(batch)]) == 0
        assert path.stat().st_mode & 0o777 == mode


# ---------------------------------------------------------------------------
# a save is durable: the directory entry is fsynced after the rename
# ---------------------------------------------------------------------------


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, rng, monkeypatch):
    calls = []
    real_fsync, real_replace = statefile.os.fsync, statefile.os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(statefile.os, "fsync", fsync)
    monkeypatch.setattr(statefile.os, "replace", replace)
    path = tmp_path / "s.json"
    state = from_batch(random_batch(rng, Kind.SCALAR, 6), OrderLadder([2, 3]))
    for _ in range(2):  # a new document, then a replaced one
        calls.clear()
        save_state(path, state)
        assert [c[:2] for c in calls] == [("fsync", False), ("replace",), ("fsync", True)]
        assert calls[-1][2] == os.stat(tmp_path).st_ino
        assert load_state(path).values == state.values
