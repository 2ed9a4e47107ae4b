"""Reading version-1 state documents.

The documents under tests/data/ were written by the version-1 writer
(``save_state(path, state, encoding=...)`` before format 2) from the
states ``seeded_state`` builds below. A state cannot be rebuilt from its
data, so every one of them must keep loading bit-exactly, and the first
save after such a load writes format 2. ``conftest.v1_document`` is a
copy of that writer kept as a test oracle; it must reproduce each fixture
byte for byte, which lets the fuzz in test_statefile.py write version-1
documents.
"""

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from momentflow import EmptyState, Kind, MomentState, OrderLadder, load_state, loads_state
from momentflow.cli import main
from momentflow.errors import DigestMismatch

from conftest import v1_document
from test_statefile import _assert_states_bit_equal

DATA = Path(__file__).parent / "data"

FRAC_2_8_25 = [float(n) for n in range(2, 9)] + [2.5 - k for k in range(13)]


def seeded_state(kind, dim, orders, seed):
    """A state of moderate seeded numbers. Only exact arithmetic touches
    them (``random.random`` bits, ``ldexp``), so they repeat on any
    platform."""
    rnd = random.Random(seed)

    def number():
        return math.ldexp(rnd.uniform(-1.0, 1.0), rnd.randrange(-8, 9))

    def payload():
        if kind is Kind.SCALAR:
            return number()
        if kind is Kind.COMPLEX:
            return complex(number(), number())
        return np.array([number() for _ in range(dim)])

    ladder = OrderLadder(orders)
    return MomentState(
        kind=kind,
        dim=dim,
        ladder=ladder,
        z=math.ldexp(rnd.uniform(0.5, 1.0), rnd.randrange(0, 12)),
        mean=payload(),
        count=rnd.randrange(1, 10**9),
        moments={o: payload() for o in ladder.orders},
    )


# fixture file -> (number encoding, the state it holds)
FIXTURES = {
    "v1_hex_scalar_2-20.json": ("hex", lambda: seeded_state(Kind.SCALAR, None, range(2, 21), 6101)),
    "v1_decimal_complex_2-8_2.5.json": (
        "decimal", lambda: seeded_state(Kind.COMPLEX, None, FRAC_2_8_25, 6102)
    ),
    "v1_hex_complex_2-8_2.5.json": (
        "hex", lambda: seeded_state(Kind.COMPLEX, None, FRAC_2_8_25, 6102)
    ),
    "v1_hex_vector3_2-8.json": ("hex", lambda: seeded_state(Kind.VECTOR, 3, range(2, 9), 6103)),
    "v1_hex_empty_vector2.json": (
        "hex", lambda: EmptyState(kind=Kind.VECTOR, dim=2, ladder=OrderLadder([2, 3, 4]))
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_v1_fixture_loads_bit_exactly(name):
    _, build = FIXTURES[name]
    _assert_states_bit_equal(build(), load_state(DATA / name))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_v1_oracle_writer_reproduces_fixture(name):
    encoding, build = FIXTURES[name]
    assert v1_document(build(), encoding) == (DATA / name).read_text(encoding="ascii")


def test_tampered_v1_moment_fails_digest():
    doc = json.loads((DATA / "v1_decimal_complex_2-8_2.5.json").read_text())
    doc["moments"][0][1][0] += 1e-3
    with pytest.raises(DigestMismatch):
        loads_state(json.dumps(doc, sort_keys=True, indent=2))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tampered_v1_fixture_exits_4(tmp_path, capsys, name):
    path = tmp_path / name
    text = (DATA / name).read_text()
    head, sep, tail = text.partition('"count": ')
    damaged = head + sep + str((int(tail[0]) + 1) % 10) + tail[1:]
    path.write_text(damaged)
    batch = tmp_path / "b.csv"
    batch.write_text("x,weight\n0.5,1.0\n")
    assert main(["query", "--state", str(path), "--count"]) == 4
    assert main(["append", "--state", str(path), "--batch", str(batch)]) == 4
    assert "integrity error" in capsys.readouterr().err
    assert path.read_text() == damaged


def _batch_csv(path, kind, dim):
    """Two records of the state's kind."""
    if kind is Kind.VECTOR:
        header, width = ",".join(f"x{i}" for i in range(dim)), dim
    else:
        header, width = ("x", 1) if kind is Kind.SCALAR else ("re,im", 2)
    rows = [",".join([repr(x)] * width) + ",0.5" for x in (0.25, -0.125)]
    path.write_text("\n".join([header + ",weight", *rows]) + "\n")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_append_to_v1_document_writes_v2(tmp_path, capsys, name):
    path = tmp_path / name
    shutil.copy(DATA / name, path)
    before = load_state(path)
    _batch_csv(tmp_path / "b.csv", before.kind, before.dim)
    assert main(["append", "--state", str(path), "--batch", str(tmp_path / "b.csv")]) == 0
    text = path.read_text(encoding="ascii")
    assert text.startswith('{"content_digest":"') and text.count("\n") == 1
    assert json.loads(text)["format_version"] == 2
    after = load_state(path)
    assert after.count == (0 if isinstance(before, EmptyState) else before.count) + 2
    assert after.ladder.orders == before.ladder.orders
    assert main(["query", "--state", str(path), "--count"]) == 0
    assert capsys.readouterr().out.strip().endswith(str(after.count))
