import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from momentflow import Batch, Kind, __version__, from_batch, load_state, loads_state
from momentflow.accumulator import (
    COLUMNAR_MIN_RECORDS,
    DEFAULT_FRACTIONAL_CUTOFF,
    DEFAULT_FRACTIONAL_TOL,
)
from momentflow.batchfile import read_batch_csv
from momentflow.cli import build_parser, main, parse_orders_spec, parse_provider_spec
from momentflow.errors import BadLadderSpec, BadProviderSpec, BatchFormatError, EmptyBatch


def write_scalar_csv(path, rows):
    lines = ["x,weight"] + [f"{x!r},{w!r}" for x, w in rows]
    path.write_text("\n".join(lines) + "\n")


def write_vector_csv(path, rows, dim):
    header = ",".join(f"x{i}" for i in range(dim)) + ",weight"
    lines = [header] + [",".join(repr(c) for c in x) + f",{w!r}" for x, w in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spec string parsing
# ---------------------------------------------------------------------------


def test_parse_orders_spec():
    assert parse_orders_spec("2..5") == (2.0, 3.0, 4.0, 5.0)
    assert parse_orders_spec("2,3,4,2.5,-0.5") == (2.0, 3.0, 4.0, 2.5, -0.5)
    assert parse_orders_spec("2..3,2.5") == (2.0, 3.0, 2.5)
    with pytest.raises(BadLadderSpec):
        parse_orders_spec("a..b")
    with pytest.raises(BadLadderSpec):
        parse_orders_spec("5..2")
    with pytest.raises(BadLadderSpec):
        parse_orders_spec("2,,3")


def test_parse_provider_spec():
    assert parse_provider_spec("poly:1,2,3").base_coefficients == (1.0, 2.0, 3.0)
    assert parse_provider_spec("exp:2,0.5").a == 2.0
    assert parse_provider_spec("sin:1,1").b == 1.0
    with pytest.raises(BadProviderSpec):
        parse_provider_spec("tanh:1")
    with pytest.raises(BadProviderSpec):
        parse_provider_spec("poly:")
    with pytest.raises(BadProviderSpec):
        parse_provider_spec("exp:1")


# ---------------------------------------------------------------------------
# batch CSV ingestion
# ---------------------------------------------------------------------------


def test_read_scalar_batch(tmp_path):
    p = tmp_path / "b.csv"
    write_scalar_csv(p, [(1.5, 1.0), (2.5, 0.5)])
    b = read_batch_csv(p, Kind.SCALAR)
    assert b.values.tolist() == [1.5, 2.5]
    assert b.weights.tolist() == [1.0, 0.5]


def test_read_complex_batch(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("re,im,weight\n1.0,2.0,1.0\n")
    b = read_batch_csv(p, Kind.COMPLEX)
    assert b.values.tolist() == [1 + 2j]


def test_read_vector_batch(tmp_path):
    p = tmp_path / "b.csv"
    write_vector_csv(p, [((1.0, 2.0, 3.0), 1.0)], dim=3)
    b = read_batch_csv(p, Kind.VECTOR, dim=3)
    assert b.values.tolist() == [[1.0, 2.0, 3.0]]


def test_batch_header_mismatch(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("value,weight\n1,1\n")
    with pytest.raises(BatchFormatError):
        read_batch_csv(p, Kind.SCALAR)


def test_batch_rejects_non_finite(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,weight\nnan,1\n")
    with pytest.raises(BatchFormatError):
        read_batch_csv(p, Kind.SCALAR)
    p.write_text("x,weight\n1,inf\n")
    with pytest.raises(BatchFormatError):
        read_batch_csv(p, Kind.SCALAR)


def test_empty_batch_file(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,weight\n")
    with pytest.raises(EmptyBatch):
        read_batch_csv(p, Kind.SCALAR)
    p.write_text("x,weight\n\n\r\n")
    with pytest.raises(EmptyBatch):
        read_batch_csv(p, Kind.SCALAR)


# The parse contract: every field goes through Python float(), so surrounding
# whitespace and underscores are accepted; the csv module handles quoting and
# CRLF; blank rows are skipped but still count toward reported line numbers.
# Each case runs with a few rows and with a few hundred, which puts the same
# rows on both sides of any size-dependent parsing strategy.


@pytest.mark.parametrize("repeat", [1, 100])
def test_csv_parse_contract_accepted_forms(tmp_path, repeat):
    p = tmp_path / "b.csv"
    body = ' 1.5 , 1.0\r\n\r\n"2.5","0.5"\r\n1_0,\t2 \r\n' * repeat
    p.write_bytes(("x , weight\r\n" + body).encode())
    b = read_batch_csv(p, Kind.SCALAR)
    assert b.size == 3 * repeat
    assert list(b.values) == [1.5, 2.5, 10.0] * repeat
    assert list(b.weights) == [1.0, 0.5, 2.0] * repeat


@pytest.mark.parametrize("repeat", [1, 100])
def test_csv_parse_contract_complex_and_vector(tmp_path, repeat):
    p = tmp_path / "c.csv"
    p.write_text("re,im,weight\n" + '"1", 2 ,0.5\n\n-3e0,4_0,1\n' * repeat)
    b = read_batch_csv(p, Kind.COMPLEX)
    assert list(b.values) == [1 + 2j, -3 + 40j] * repeat
    assert list(b.weights) == [0.5, 1.0] * repeat
    p.write_text("x0,x1,weight\n" + '1,"2",3\n\n 4,5,6 \n' * repeat)
    b = read_batch_csv(p, Kind.VECTOR, dim=2)
    assert np.asarray(b.values).tolist() == [[1.0, 2.0], [4.0, 5.0]] * repeat
    assert list(b.weights) == [3.0, 6.0] * repeat


_KIND_ROWS = [
    (Kind.SCALAR, None, "x,weight", ["0.5", "1"]),
    (Kind.COMPLEX, None, "re,im,weight", ["0.5", "-0.25", "1"]),
    (Kind.VECTOR, 3, "x0,x1,x2,weight", ["0.5", "1.5", "-2", "1"]),
]


@pytest.mark.parametrize("good_rows", [2, 150])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", " Infinity "])
@pytest.mark.parametrize("kind,dim,header,row", _KIND_ROWS)
def test_csv_rejects_non_finite_in_every_column(tmp_path, kind, dim, header, row, bad, good_rows):
    p = tmp_path / "b.csv"
    good = ",".join(row)
    for col in range(len(row)):
        fields = list(row)
        fields[col] = bad
        p.write_text("\n".join([header] + [good] * good_rows + [",".join(fields), good]) + "\n")
        with pytest.raises(BatchFormatError, match="not finite") as exc:
            read_batch_csv(p, kind, dim)
        assert f"{p}:{good_rows + 2}:" in str(exc.value)


@pytest.mark.parametrize("good_rows", [2, 150])
@pytest.mark.parametrize("kind,dim,header,row", _KIND_ROWS)
def test_csv_bad_rows_name_path_and_line(tmp_path, kind, dim, header, row, good_rows):
    p = tmp_path / "b.csv"
    good = ",".join(row)
    # The blank row counts toward the line number.
    lead = [header] + [good] * good_rows + [""]
    line = len(lead) + 1
    for bad_row, message in (
        (good + ",1", "columns"),
        (",".join(row[:-1]), "columns"),
        (",".join(["0x10"] + row[1:]), "not a decimal number"),
        (",".join(row[:-1] + ["one"]), "not a decimal number"),
        (",".join(row[:-1] + [""]), "not a decimal number"),
    ):
        p.write_text("\n".join(lead + [bad_row, good, "nan" + good]) + "\n")
        with pytest.raises(BatchFormatError, match=message) as exc:
            read_batch_csv(p, kind, dim)
        assert f"{p}:{line}:" in str(exc.value)


# ---------------------------------------------------------------------------
# command surface
# ---------------------------------------------------------------------------


def _session(tmp_path, capsys):
    state = str(tmp_path / "s.json")
    b1, b2, full = tmp_path / "b1.csv", tmp_path / "b2.csv", tmp_path / "all.csv"
    write_scalar_csv(b1, [(1.0, 1.0), (2.0, 1.0)])
    write_scalar_csv(b2, [(3.0, 1.0)])
    write_scalar_csv(full, [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    assert main(["init", "--state", state, "--orders", "2..4", "--kind", "scalar"]) == 0
    assert main(["append", "--state", state, "--batch", str(b1)]) == 0
    assert main(["append", "--state", state, "--batch", str(b2)]) == 0
    capsys.readouterr()
    return state, full


def test_init_append_query_session(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["query", "--state", state, "--order", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0.6666666666666666"
    assert main(["query", "--state", state, "--order", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1.0"
    assert main(["query", "--state", state, "--order", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["query", "--state", state, "--mean"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"
    assert main(["query", "--state", state, "--count"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["query", "--state", state, "--z"]) == 0
    assert capsys.readouterr().out.strip() == "3.0"


def test_query_full_doc(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["query", "--state", state, "--format", "full-doc"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("}\n")  # one compact line
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["element_kind"] == "scalar"
    assert doc["format_version"] == 2


def test_query_order_not_in_ladder(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["query", "--state", state, "--order", "9"]) == 2


def test_verify_honest_session(tmp_path, capsys):
    state, full = _session(tmp_path, capsys)
    assert main(["verify", "--state", state, "--data", str(full)]) == 0
    out = capsys.readouterr().out
    assert "verify ok" in out


def test_verify_flags_tampered_moment(tmp_path, capsys):
    state, full = _session(tmp_path, capsys)
    # corrupt one moment but keep the document self-consistent (re-digest)
    st = load_state(state)
    bad = dict(st.moments)
    bad[3.0] = bad[3.0] + 1e-3
    import dataclasses

    tampered = dataclasses.replace(st, moments=bad)
    from momentflow.statefile import save_state

    save_state(state, tampered)
    rc = main(["verify", "--state", state, "--data", str(full)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "order=3 " in out and "MISMATCH" in out
    assert "order=2 " in out and "ok" in out


def test_tamper_without_redigest_is_integrity_error(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    text = open(state).read()
    doc = json.loads(text)
    doc["count"] = 999
    open(state, "w").write(json.dumps(doc))
    assert main(["query", "--state", state, "--count"]) == 4


def test_verify_tol_zero_fails(tmp_path, capsys):
    # a session that takes at least one genuinely incremental step has
    # floating-point paths that differ from the one-shot recomputation
    state = str(tmp_path / "s.json")
    b1, b2, full = tmp_path / "b1.csv", tmp_path / "b2.csv", tmp_path / "all.csv"
    rows1 = [(0.1 * k + 0.05, 0.7) for k in range(7)]
    rows2 = [(0.9, 0.3), (0.2, 1.1)]
    write_scalar_csv(b1, rows1)
    write_scalar_csv(b2, rows2)
    write_scalar_csv(full, rows1 + rows2)
    assert main(["init", "--state", state, "--orders", "2..8", "--kind", "scalar"]) == 0
    assert main(["append", "--state", state, "--batch", str(b1)]) == 0
    assert main(["append", "--state", state, "--batch", str(b2)]) == 0
    assert main(["verify", "--state", state, "--data", str(full), "--tol", "0"]) == 1
    assert main(["verify", "--state", state, "--data", str(full), "--tol", "1e-8"]) == 0


def test_append_empty_batch_exits_2(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    empty = tmp_path / "empty.csv"
    empty.write_text("x,weight\n")
    assert main(["append", "--state", state, "--batch", str(empty)]) == 2


def test_append_kind_mismatch_exits_2(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im,weight\n1,2,1\n")
    assert main(["append", "--state", state, "--batch", str(bad)]) == 2


def test_append_zero_normalizer_exits_3(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    bad = tmp_path / "bad.csv"
    write_scalar_csv(bad, [(5.0, -3.0)])  # Z would hit exactly 0
    assert main(["append", "--state", state, "--batch", str(bad)]) == 3


def test_init_rejects_order_one(tmp_path):
    assert main(["init", "--state", str(tmp_path / "x.json"), "--orders", "1..5", "--kind", "scalar"]) == 2


def test_init_rejects_bad_kind(tmp_path):
    assert main(["init", "--state", str(tmp_path / "x.json"), "--orders", "2..5", "--kind", "blob"]) == 2


def test_init_refuses_overwrite(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["init", "--state", state, "--orders", "2..3", "--kind", "scalar"]) == 2
    assert main(["init", "--state", state, "--orders", "2..3", "--kind", "scalar", "--force"]) == 0


def test_init_mixed_ladder_expands_fractional_chain(tmp_path, capsys):
    state = str(tmp_path / "s.json")
    rc = main(
        ["init", "--state", state, "--orders", "2..3,2.5", "--kind", "complex", "--frac-depth", "4"]
    )
    assert rc == 0
    st = load_state(state)
    assert set(st.ladder.orders) == {2.0, 3.0, 2.5, 1.5, 0.5, -0.5, -1.5}


def test_mixed_ladder_append_session(tmp_path, capsys):
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..3,2.5", "--kind", "complex", "--frac-depth", "6"]) == 0
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    b1.write_text(
        "re,im,weight\n99.0,0.4,1.0\n99.5,-0.7,0.8\n100.5,0.9,1.2\n101.0,-0.5,1.0\n"
    )
    b2.write_text("re,im,weight\n100.01,0.01,1.0\n")
    assert main(["append", "--state", state, "--batch", str(b1)]) == 0
    assert main(["append", "--state", state, "--batch", str(b2)]) == 0
    st = load_state(state)
    assert st.count == 5
    values = [99 + 0.4j, 99.5 - 0.7j, 100.5 + 0.9j, 101 - 0.5j, 100.01 + 0.01j]
    weights = [1.0, 0.8, 1.2, 1.0, 1.0]
    oracle = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), st.ladder)
    assert st.moments[2.0] == pytest.approx(oracle.moments[2.0], rel=1e-10)
    assert st.moments[2.5] == pytest.approx(oracle.moments[2.5], rel=1e-3)


def test_metric_command(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["metric", "--state", state, "--provider", "poly:0,0,1", "--n-star", "2"]) == 0
    out = capsys.readouterr().out
    assert "value=4.666666666666667" in out
    assert "converged=True" in out
    assert main(["metric", "--state", state, "--provider", "poly:1", "--n-star", "2"]) == 0
    assert "value=1.0" in capsys.readouterr().out


def test_metric_with_batch(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    nb = tmp_path / "nb.csv"
    write_scalar_csv(nb, [(4.0, 1.0)])
    assert main(["metric", "--state", state, "--provider", "poly:0,0,1", "--n-star", "2", "--batch", str(nb)]) == 0
    out = capsys.readouterr().out
    # direct: (1+4+9+16)/4
    assert "value=7.5" in out


def test_metric_bad_provider_exits_2(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["metric", "--state", state, "--provider", "magic:1"]) == 2


def test_metric_ladder_too_short_exits_2(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["metric", "--state", state, "--provider", "exp:1,1", "--n-star", "14"]) == 2


def test_env_var_supplies_state_path(tmp_path, capsys, monkeypatch):
    state = str(tmp_path / "env.json")
    monkeypatch.setenv("MF_STATE", state)
    assert main(["init", "--orders", "2..3", "--kind", "scalar"]) == 0
    b = tmp_path / "b.csv"
    write_scalar_csv(b, [(1.0, 1.0), (3.0, 1.0)])
    assert main(["append", "--batch", str(b)]) == 0
    capsys.readouterr()
    assert main(["query", "--mean"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


def test_missing_state_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MF_STATE", raising=False)
    assert main(["query", "--order", "2"]) == 2


def test_lock_held_exits_4(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    b = tmp_path / "b.csv"
    write_scalar_csv(b, [(9.0, 1.0)])
    from momentflow.statefile import state_lock

    with state_lock(state):
        assert main(["append", "--state", state, "--batch", str(b)]) == 4


def test_crash_injection_via_cli_keeps_old_state(tmp_path, capsys, monkeypatch):
    state, _ = _session(tmp_path, capsys)
    before = open(state).read()
    b = tmp_path / "b.csv"
    write_scalar_csv(b, [(9.0, 1.0)])

    def boom(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr("momentflow.statefile.os.replace", boom)
    with pytest.raises(OSError):
        main(["append", "--state", state, "--batch", str(b)])
    monkeypatch.undo()
    assert open(state).read() == before
    st = load_state(state)
    assert st.count == 3


def test_multi_append_session_matches_oracle(tmp_path, capsys, rng):
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..10", "--kind", "scalar"]) == 0
    all_rows = []
    for i in range(10):
        rows = [
            (float(x), float(w))
            for x, w in zip(rng.random(int(rng.integers(1, 6))), 0.1 + rng.random(5))
        ]
        all_rows.extend(rows)
        p = tmp_path / f"b{i}.csv"
        write_scalar_csv(p, rows)
        assert main(["append", "--state", state, "--batch", str(p)]) == 0
    full = tmp_path / "all.csv"
    write_scalar_csv(full, all_rows)
    assert main(["verify", "--state", state, "--data", str(full), "--tol", "1e-8"]) == 0


def test_bench_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench", "--kind", "scalar", "--N", "16", "--orders", "2..4",
            "--deltas", "1,2", "--repeats", "10", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,N,delta,order,t_full_s,t_update_s,speedup,predicted_threshold,seed"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "scalar" and first[1] == "16"


def test_bench_rejects_low_repeats(tmp_path):
    assert (
        main(
            ["bench", "--N", "16", "--orders", "2..3", "--deltas", "1",
             "--repeats", "5", "--out", str(tmp_path / "x.csv")]
        )
        == 2
    )


def test_cli_subprocess_entry(tmp_path):
    state = tmp_path / "s.json"
    r = subprocess.run(
        [sys.executable, "-m", "momentflow", "init", "--state", str(state),
         "--orders", "2..3", "--kind", "scalar"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert state.exists()
    r = subprocess.run(
        [sys.executable, "-m", "momentflow", "--version"], capture_output=True, text=True
    )
    assert r.returncode == 0


# ---------------------------------------------------------------------------
# commit guard, damaged documents, locking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fresh,records",
    [
        (True, 2),  # first append, per-record passes
        (True, COLUMNAR_MIN_RECORDS + 8),  # first append, whole-array passes
        (False, 2),  # per-record update passes
        (False, COLUMNAR_MIN_RECORDS + 8),  # whole-array passes, numpy overflow
    ],
)
def test_append_overflowing_batch_exits_3_and_keeps_document(tmp_path, capsys, fresh, records):
    if fresh:
        state = str(tmp_path / "s.json")
        assert main(["init", "--state", state, "--orders", "2..4", "--kind", "scalar"]) == 0
    else:
        state, _ = _session(tmp_path, capsys)
    before = open(state, "rb").read()
    huge = tmp_path / "huge.csv"
    write_scalar_csv(huge, [(1e308 if i % 2 else -1e308, 1.0) for i in range(records)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow must not reach stderr
        assert main(["append", "--state", state, "--batch", str(huge)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert open(state, "rb").read() == before
    if not fresh:
        assert main(["query", "--state", state, "--order", "4"]) == 0


def test_first_append_with_a_record_on_the_mean_exits_3_on_a_negative_order(tmp_path, capsys):
    # integer parts sum exactly in any order, so the mean is exactly 0 and
    # the record 0 sits on the pole of the negative orders
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..8,2.5", "--kind", "complex"]) == 0
    before = open(state, "rb").read()
    half = COLUMNAR_MIN_RECORDS // 2 + 4
    batch = tmp_path / "b.csv"
    batch.write_text(
        "re,im,weight\n" + "".join(f"{k}.0,0.0,1.0\n" for k in range(-half, half + 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["append", "--state", state, "--batch", str(batch)]) == 3
    assert "pole" in capsys.readouterr().err
    assert open(state, "rb").read() == before


def test_damaged_document_exits_4(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    doc = json.loads(open(state).read())
    doc["moments"].pop()
    open(state, "w").write(json.dumps(doc))
    assert main(["query", "--state", state, "--count"]) == 4
    assert main(["append", "--state", state, "--batch", str(tmp_path / "b2.csv")]) == 4
    open(state, "wb").write(b'{"count": 3, "z": "\xff"}')
    assert main(["query", "--state", state, "--count"]) == 4


def test_init_force_takes_the_lock(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    before = open(state).read()
    from momentflow.statefile import state_lock

    with state_lock(state):
        assert main(["init", "--state", state, "--orders", "2..3", "--kind", "scalar", "--force"]) == 4
    assert open(state).read() == before


def test_query_full_doc_prints_the_text_it_validated(tmp_path, capsys, monkeypatch):
    state, _ = _session(tmp_path, capsys)
    text = open(state).read()

    def validate_then_replace(doc_text):
        result = loads_state(doc_text)
        open(state, "w").write("replaced by a concurrent writer\n")
        return result

    monkeypatch.setattr("momentflow.cli.loads_state", validate_then_replace)
    assert main(["query", "--state", state, "--format", "full-doc"]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("where", ["header", "body"])
@pytest.mark.parametrize(
    "command",
    [
        ["append", "--batch"],
        ["metric", "--provider", "poly:0,0,1", "--n-star", "2", "--batch"],
        ["verify", "--data"],
    ],
    ids=["append", "metric", "verify"],
)
def test_batch_file_that_is_not_utf8_exits_2(tmp_path, capsys, where, command):
    state, _ = _session(tmp_path, capsys)
    before = open(state, "rb").read()
    bad = tmp_path / "bad.csv"
    if where == "header":
        bad.write_bytes(b"x,weig\xffht\n1.0,1.0\n")
    else:
        bad.write_bytes(b"x,weight\n1.0,1.0\n2.\xff0,1.0\n")
    assert main([command[0], "--state", state, *command[1:], str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"batch file {bad} is not UTF-8 text (byte 0xff)" in err
    assert open(state, "rb").read() == before


@pytest.mark.parametrize(
    "field,reason",
    [
        ("1" * 200_000, "field larger than field limit"),
        ("2.\x000", ""),  # the csv module refuses a NUL before Python 3.11; float() after
    ],
    ids=["over-field-limit", "nul"],
)
@pytest.mark.parametrize(
    "command",
    [["append"], ["metric", "--provider", "poly:0,0,1", "--n-star", "2"]],
    ids=["append", "metric"],
)
def test_batch_row_the_csv_module_refuses_exits_2(tmp_path, capsys, field, reason, command):
    state, _ = _session(tmp_path, capsys)
    before = open(state, "rb").read()
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x,weight\n1.0,1.0\n{field},1.0\n")
    assert main([command[0], "--state", state, *command[1:], "--batch", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:3: {reason}" in err
    assert "Traceback" not in err
    assert open(state, "rb").read() == before


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_build_parser_returns_one_shared_parser():
    assert build_parser() is build_parser()


def test_parses_do_not_share_options():
    parser = build_parser()
    first = parser.parse_args(["append", "--batch", "b.csv", "--n-star", "3", "--tol", "1e-3"])
    second = parser.parse_args(["append", "--batch", "b.csv"])
    assert first is not second
    assert (first.n_star, first.tol) == (3, 1e-3)
    assert (second.n_star, second.tol) == (DEFAULT_FRACTIONAL_CUTOFF, DEFAULT_FRACTIONAL_TOL)
    assert second.state is None


def test_usage_error_and_version_leave_the_parser_working(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["append"]) == 2
    assert "the following arguments are required: --batch" in capsys.readouterr().err
    assert main(["query", "--state", state, "--count"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"momentflow {__version__}"
    assert main(["query", "--state", state, "--mean"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


HELP_ARGVS = [["--help"]] + [
    [command, "--help"] for command in ("init", "append", "query", "metric", "verify", "bench")
]


def test_help_of_the_shared_parser_matches_a_fresh_one(tmp_path, capsys):
    _session(tmp_path, capsys)  # the shared parser has run several commands
    assert main(["append"]) == 2
    capsys.readouterr()
    fresh = build_parser.__wrapped__()
    for argv in HELP_ARGVS:
        assert main(argv) == 0
        shared_text = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            fresh.parse_args(argv)
        assert exit_info.value.code == 0
        assert shared_text == capsys.readouterr().out
        assert shared_text.startswith("usage: momentflow")


def test_import_does_not_load_the_process_pool():
    probe = (
        "import sys, momentflow.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
