import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from momentflow import (
    Batch,
    Kind,
    MetricSpec,
    __version__,
    dumps_state,
    from_batch,
    load_state,
    loads_state,
)
from momentflow.accumulator import COLUMNAR_MIN_RECORDS
from momentflow.batchfile import read_batch_csv
from momentflow.cli import (
    DEFAULT_VERIFY_TOL,
    build_parser,
    main,
    parse_orders_spec,
    parse_provider_spec,
)
from momentflow.errors import (
    BadLadderSpec,
    BadProviderSpec,
    BatchFormatError,
    EmptyBatch,
    TimingUnstable,
)

from cli_digest import LADDERS, kind_digests, session_digest


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
    for records in (1, COLUMNAR_MIN_RECORDS + 8):
        p.write_text("value,weight\n" + "1,1\n" * records)
        with pytest.raises(BatchFormatError, match="has header"):
            read_batch_csv(p, Kind.SCALAR)


@pytest.mark.parametrize("records", [2, COLUMNAR_MIN_RECORDS + 8])
def test_batch_rows_all_of_the_wrong_width_name_line_2(tmp_path, records):
    p = tmp_path / "b.csv"
    p.write_text("x,weight\n" + "1,2,3\n" * records)
    with pytest.raises(BatchFormatError, match=f"{p}:2: expected 2 columns, got 3"):
        read_batch_csv(p, Kind.SCALAR)
    p.write_text("re,im,weight\n" + "1,2\n" * records)
    with pytest.raises(BatchFormatError, match=f"{p}:2: expected 3 columns, got 2"):
        read_batch_csv(p, Kind.COMPLEX)


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


ACCEPTED_FORMS = {
    "": (' 1.5 , 1.0\r\n\r\n"2.5","0.5"\r\n1_0,\t2 \r\n', [1.5, 2.5, 10.0], [1.0, 0.5, 2.0]),
    # Non-ASCII forms float() takes: NBSP padding, which numpy's text reader
    # strips too, and a fullwidth digit, which it refuses.
    "nbsp-": ("\xa01.5\xa0,1.0\n-2.5,\xa00.5\n", [1.5, -2.5], [1.0, 0.5]),
    "fullwidth-digit-": ("\uff11.5,1.0\n-2.5,0.5\n", [1.5, -2.5], [1.0, 0.5]),
    # A lone CR ends a row for the csv module.
    "cr-": ("1.5,1.0\r-2.5,0.5\r", [1.5, -2.5], [1.0, 0.5]),
}


@pytest.mark.parametrize(
    "rows,values,weights,repeat",
    [
        pytest.param(*forms, repeat, id=f"{name}{repeat}")
        for name, forms in ACCEPTED_FORMS.items()
        for repeat in (1, 100)
    ],
)
def test_csv_parse_contract_accepted_forms(tmp_path, repeat, rows, values, weights):
    p = tmp_path / "b.csv"
    p.write_bytes(("x , weight\r\n" + rows * repeat).encode())
    b = read_batch_csv(p, Kind.SCALAR)
    assert b.size == len(values) * repeat
    assert list(b.values) == values * repeat
    assert list(b.weights) == weights * repeat


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


# A quoted or underscored file of COLUMNAR_MIN_RECORDS records or more is
# parsed row by row, like a small one.
GOOD_ROW_STYLES = {
    "plain": lambda row: ",".join(row),
    "quoted": lambda row: ",".join(f'"{c}"' for c in row),
    "underscored": lambda row: ",".join(f"{c}_0" for c in row),
}


@pytest.mark.parametrize(
    "good_rows,style",
    [
        pytest.param(2, "plain", id="2"),
        pytest.param(150, "plain", id="150"),
        pytest.param(COLUMNAR_MIN_RECORDS + 8, "quoted", id="quoted"),
        pytest.param(COLUMNAR_MIN_RECORDS + 8, "underscored", id="underscored"),
    ],
)
@pytest.mark.parametrize("kind,dim,header,row", _KIND_ROWS)
def test_csv_bad_rows_name_path_and_line(tmp_path, kind, dim, header, row, good_rows, style):
    p = tmp_path / "b.csv"
    good = GOOD_ROW_STYLES[style](row)
    # The blank row counts toward the line number.
    lead = [header] + [good] * good_rows + [""]
    line = len(lead) + 1
    for bad_row, message in (
        (good + ",1", "columns"),
        (",".join(row[:-1]), "columns"),
        (",".join(["0x10"] + row[1:]), "not a decimal number"),
        (",".join(row[:-1] + ["one"]), "not a decimal number"),
        (",".join(row[:-1] + [""]), "not a decimal number"),
        (" \t ", "columns"),
        (",".join(row[:-1] + ["1.0 #c"]), "not a decimal number"),
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

    tampered = dataclasses.replace(st, values=bad.values())
    from momentflow.statefile import save_state

    save_state(state, tampered)
    rc = main(["verify", "--state", state, "--data", str(full)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "order=3 " in out and "MISMATCH" in out
    assert "order=2 " in out and "ok" in out


def _circular_complex_session(tmp_path):
    """A complex 2..8 state after 20 appends of 32 unit-weight records on
    circles about 3+2i: 8 equally spaced angles at each of 4 radii. Its M2 =
    E[d**2] cancels to rounding while E|d|**2 is about 1.8."""
    rng = np.random.default_rng(8)
    state, full = str(tmp_path / "s.json"), tmp_path / "all.csv"
    assert main(["init", "--state", state, "--orders", "2..8", "--kind", "complex"]) == 0
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    absorbed = []
    for i in range(20):
        values = (3 + 2j + np.outer(rng.uniform(0.5, 2.0, 4), angles)).ravel()
        rows = [f"{v.real!r},{v.imag!r},1.0" for v in values.tolist()]
        batch = tmp_path / f"b{i}.csv"
        batch.write_text("re,im,weight\n" + "\n".join(rows) + "\n")
        assert main(["append", "--state", state, "--batch", str(batch)]) == 0
        absorbed += rows
    full.write_text("re,im,weight\n" + "\n".join(absorbed) + "\n")
    return state, full


def test_verify_judges_a_cancelling_complex_moment_by_the_spread(tmp_path, capsys):
    state, full = _circular_complex_session(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--state", state, "--data", str(full)]) == 0
    assert "verify ok: 7 orders" in capsys.readouterr().out
    # a stored M2 wrong by 1e-6 (of a spread near 1.8) is still refused
    from momentflow.statefile import save_state

    st = load_state(state)
    save_state(state, dataclasses.replace(st, values=(st.values[0] + 1e-6, *st.values[1:])))
    assert main(["verify", "--state", state, "--data", str(full)]) == 1
    out = capsys.readouterr().out
    assert "order=2 " in out and "MISMATCH" in out
    assert "order=3 " in out and "verify FAILED: 1 mismatched" in out


def test_tamper_without_redigest_is_integrity_error(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    text = Path(state).read_text()
    doc = json.loads(text)
    doc["count"] = 999
    Path(state).write_text(json.dumps(doc))
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


@pytest.mark.parametrize(
    "kind,header,rows,mean,m2",
    [
        ("complex", "re,im,weight", ["1,2,1", "3,4,1"], "[2.0, 3.0]", "[0.0, 2.0]"),
        ("vector:2", "x0,x1,weight", ["1,2,1", "3,6,1"], "[2.0, 4.0]", "[1.0, 4.0]"),
    ],
    ids=["complex", "vector"],
)
def test_query_prints_complex_and_vector_payloads_as_json(
    tmp_path, capsys, kind, header, rows, mean, m2
):
    state, batch = str(tmp_path / "s.json"), tmp_path / "b.csv"
    batch.write_text("\n".join([header, *rows]) + "\n")
    assert main(["init", "--state", state, "--orders", "2..3", "--kind", kind]) == 0
    assert main(["append", "--state", state, "--batch", str(batch)]) == 0
    capsys.readouterr()
    for option, want in (["--mean"], mean), (["--order", "2"], m2):
        assert main(["query", "--state", state, *option]) == 0
        assert capsys.readouterr() == (want + "\n", "")


def _empty_state(tmp_path, capsys):
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..4", "--kind", "scalar"]) == 0
    capsys.readouterr()
    return state


def test_query_on_an_empty_state_answers_only_count(tmp_path, capsys):
    state = _empty_state(tmp_path, capsys)
    assert main(["query", "--state", state, "--count"]) == 0
    assert capsys.readouterr() == ("0\n", "")
    assert main(["query", "--state", state, "--mean"]) == 2
    assert capsys.readouterr() == ("", "error: state is empty; only --count is defined\n")


def test_query_without_a_selector_exits_2(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    assert main(["query", "--state", state]) == 2
    assert capsys.readouterr() == ("", "error: pass --order, --z, --mean or --count\n")


@pytest.mark.parametrize(
    "command,message",
    [
        (["metric", "--provider", "exp:1,1"], "metrics need absorbed data"),
        (["verify", "--data", "all.csv"], "nothing to verify"),
    ],
    ids=["metric", "verify"],
)
def test_metric_and_verify_on_an_empty_state_exit_2(tmp_path, capsys, command, message):
    state = _empty_state(tmp_path, capsys)
    assert main([command[0], "--state", state, *command[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: state is empty; {message}\n")


def test_verify_reports_a_count_mismatch(tmp_path, capsys):
    # Every record twice: the same moments, twice the count.
    state, data = str(tmp_path / "s.json"), tmp_path / "all.csv"
    write_scalar_csv(tmp_path / "b.csv", [(1.0, 1.0), (2.0, 1.0)])
    write_scalar_csv(data, [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 1.0)])
    assert main(["init", "--state", state, "--orders", "2..4", "--kind", "scalar"]) == 0
    assert main(["append", "--state", state, "--batch", str(tmp_path / "b.csv")]) == 0
    capsys.readouterr()
    assert main(["verify", "--state", state, "--data", str(data)]) == 1
    assert capsys.readouterr() == (
        "count mismatch: state=2 data=4\n"
        "order=2 rel_err=0.000e+00 ok\n"
        "order=3 rel_err=0.000e+00 ok\n"
        "order=4 rel_err=0.000e+00 ok\n"
        "verify FAILED: 1 mismatched check(s) at tol 1e-08\n",
        "",
    )


def test_other_momentflow_errors_exit_1(tmp_path, capsys, monkeypatch):
    def unstable(scenario):
        raise TimingUnstable("timings too noisy")

    monkeypatch.setattr("momentflow.bench.run_scenario", unstable)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--N", "16", "--orders", "2..3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: timings too noisy\n")
    assert not out.exists()


def test_cli_digest_is_repeatable():
    # tests/cli_digest.py compares two versions' output; on one version it
    # must read the same every time.
    first = session_digest(LADDERS[3:4])
    assert first == session_digest(LADDERS[3:4])
    assert len(first[0]) == 64 and first[1] == 74


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


_HEADERS = {"scalar": "x,weight", "complex": "re,im,weight", "vector:2": "x0,x1,weight"}
# Data whose mean sits near 800, where exp overflows, and data near 0.
_AT_800 = {"scalar": ["800,1", "801,1"], "complex": ["800,0,1", "801,0,1"],
           "vector:2": ["800,1,1", "801,2,1"]}
_AT_0 = {"scalar": ["0,1", "1,1"], "vector:2": ["0,0,1", "1,1,1"]}
_OVERFLOWED = "metric overflowed: math range error"
_BAD_COEFFICIENT = "metric coefficient about the mean is not finite"
_BAD_BATCH_TERM = "metric batch term is not finite"
_MANY = COLUMNAR_MIN_RECORDS  # a batch this long takes the whole-array pass


@pytest.mark.parametrize(
    "kind,rows,provider,batch_rows,message",
    [
        # g's coefficients about the mean overflow: math.exp raises ...
        pytest.param("scalar", _AT_800["scalar"], "exp:1,1", None, _OVERFLOWED, id="scalar-exp"),
        pytest.param("scalar", _AT_800["scalar"], "exp:1,1", _AT_800["scalar"], _OVERFLOWED,
                     id="scalar-exp-batch"),
        pytest.param("complex", _AT_800["complex"], "exp:1,1", None, _OVERFLOWED,
                     id="complex-exp"),
        pytest.param("complex", _AT_800["complex"], "exp:1,1", _AT_800["complex"], _OVERFLOWED,
                     id="complex-exp-batch"),
        # ... b**n overflows, and inf * sin or inf * cos reads nan ...
        pytest.param("scalar", _AT_800["scalar"], "sin:1,1e300", None, _BAD_COEFFICIENT,
                     id="scalar-sin"),
        pytest.param("scalar", _AT_800["scalar"], "sin:1,1e300", ["800,1"], _BAD_COEFFICIENT,
                     id="scalar-sin-batch"),
        # ... numpy's exp reads inf, without a RuntimeWarning
        pytest.param("vector:2", _AT_800["vector:2"], "exp:1,1", None, _BAD_COEFFICIENT,
                     id="vector-exp"),
        pytest.param("vector:2", _AT_800["vector:2"], "exp:1,1", ["800,1,1"], _BAD_COEFFICIENT,
                     id="vector-exp-batch"),
        # the stored metric is finite, but g overflows at the batch's records,
        # in the per-record pass and in the whole-array one
        pytest.param("scalar", _AT_0["scalar"], "exp:1,1", ["800,1"] * 2, _OVERFLOWED,
                     id="scalar-batch-term"),
        pytest.param("scalar", _AT_0["scalar"], "exp:1,1", ["800,1"] * _MANY, _BAD_BATCH_TERM,
                     id="scalar-batch-term-columnar"),
        pytest.param("vector:2", _AT_0["vector:2"], "exp:1,1", ["800,0,1"] * 2, _BAD_BATCH_TERM,
                     id="vector-batch-term"),
        pytest.param("vector:2", _AT_0["vector:2"], "exp:1,1", ["800,0,1"] * _MANY,
                     _BAD_BATCH_TERM, id="vector-batch-term-columnar"),
        # finite coefficients, but c_2 * M2 = 1e300 * 1e10
        pytest.param("scalar", ["-1e5,1", "1e5,1"], "poly:0,0,1e300", None,
                     "metric value is not finite", id="scalar-value"),
    ],
)
def test_metric_with_a_non_finite_result_exits_3(
    tmp_path, capsys, kind, rows, provider, batch_rows, message
):
    state = str(tmp_path / "s.json")
    data = tmp_path / "data.csv"
    data.write_text("\n".join([_HEADERS[kind], *rows]) + "\n")
    assert main(["init", "--state", state, "--orders", "2..4", "--kind", kind]) == 0
    assert main(["append", "--state", state, "--batch", str(data)]) == 0
    capsys.readouterr()
    argv = ["metric", "--state", state, "--provider", provider, "--n-star", "4"]
    if batch_rows is not None:
        batch = tmp_path / "batch.csv"
        batch.write_text("\n".join([_HEADERS[kind], *batch_rows]) + "\n")
        argv += ["--batch", str(batch)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow must not reach stderr
        assert main(argv) == 3
    assert capsys.readouterr() == ("", f"numeric error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["init", "--state", "{new}", "--orders", "2,x", "--kind", "scalar"],
         "bad order 'x' in spec '2,x'"),
        (["init", "--state", "{new}", "--orders", "2..4", "--kind", "vector:x"],
         "bad vector dimension in kind spec 'vector:x'"),
        (["metric", "--state", "{state}", "--provider", "exp:1,x"],
         "non-numeric parameter in provider spec 'exp:1,x'"),
        (["metric", "--state", "{state}", "--provider", "sin:1"], "sin provider needs exactly a,b"),
        (["append", "--state", "{state}", "--batch", "{missing}"], "batch file not found: {missing}"),
        (["append", "--state", "{state}", "--batch", "{empty}"], "batch file {empty} is empty"),
        (["bench", "--orders", "2.5", "--out", "{out}"], "bench orders must be integers, got 2.5"),
        (["bench", "--deltas", "x", "--out", "{out}"], "bad deltas spec 'x'"),
    ],
    ids=[
        "orders", "vector-dim", "provider-parameter", "sin-arity", "missing-batch",
        "empty-batch", "bench-orders", "bench-deltas",
    ],
)
def test_input_error_exits_2_with_its_message(tmp_path, capsys, argv, message):
    state, _ = _session(tmp_path, capsys)
    before = Path(state).read_bytes()
    paths = {
        "state": state,
        "new": tmp_path / "new.json",
        "missing": tmp_path / "missing.csv",
        "empty": tmp_path / "empty.csv",
        "out": tmp_path / "bench.csv",
    }
    paths["empty"].write_bytes(b"")
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")
    assert Path(state).read_bytes() == before
    assert not paths["new"].exists() and not paths["out"].exists()


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
    before = Path(state).read_text()
    b = tmp_path / "b.csv"
    write_scalar_csv(b, [(9.0, 1.0)])

    def boom(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr("momentflow.statefile.os.replace", boom)
    with pytest.raises(OSError):
        main(["append", "--state", state, "--batch", str(b)])
    monkeypatch.undo()
    assert Path(state).read_text() == before
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
    before = Path(state).read_bytes()
    huge = tmp_path / "huge.csv"
    write_scalar_csv(huge, [(1e308 if i % 2 else -1e308, 1.0) for i in range(records)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow must not reach stderr
        assert main(["append", "--state", state, "--batch", str(huge)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert Path(state).read_bytes() == before
    if not fresh:
        assert main(["query", "--state", state, "--order", "4"]) == 0


def test_first_append_with_a_record_on_the_mean_exits_3_on_a_negative_order(tmp_path, capsys):
    # integer parts sum exactly in any order, so the mean is exactly 0 and
    # the record 0 sits on the pole of the negative orders
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--orders", "2..8,2.5", "--kind", "complex"]) == 0
    before = Path(state).read_bytes()
    half = COLUMNAR_MIN_RECORDS // 2 + 4
    batch = tmp_path / "b.csv"
    batch.write_text(
        "re,im,weight\n" + "".join(f"{k}.0,0.0,1.0\n" for k in range(-half, half + 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["append", "--state", state, "--batch", str(batch)]) == 3
    assert "pole" in capsys.readouterr().err
    assert Path(state).read_bytes() == before


def test_damaged_document_exits_4(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    doc = json.loads(Path(state).read_text())
    doc["moments"].pop()
    Path(state).write_text(json.dumps(doc))
    assert main(["query", "--state", state, "--count"]) == 4
    assert main(["append", "--state", state, "--batch", str(tmp_path / "b2.csv")]) == 4
    Path(state).write_bytes(b'{"count": 3, "z": "\xff"}')
    assert main(["query", "--state", state, "--count"]) == 4


def test_init_force_takes_the_lock(tmp_path, capsys):
    state, _ = _session(tmp_path, capsys)
    before = Path(state).read_text()
    from momentflow.statefile import state_lock

    with state_lock(state):
        assert main(["init", "--state", state, "--orders", "2..3", "--kind", "scalar", "--force"]) == 4
    assert Path(state).read_text() == before


def test_init_force_on_a_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    argv = ["init", "--state", str(target), "--orders", "2..3", "--kind", "scalar", "--force"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot replace {target}: it is a directory" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "dir.lock"]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--order", "3"],
        ["metric", "--provider", "exp:1,1", "--n-star", "4"],
        ["append", "--batch", "{batch}"],
    ],
    ids=["query", "metric", "append"],
)
def test_document_with_a_non_finite_moment_exits_4(tmp_path, capsys, argv):
    state, _ = _session(tmp_path, capsys)
    st = load_state(state)
    damaged = dataclasses.replace(st, values={**st.moments, 3.0: math.inf}.values())
    Path(state).write_text(dumps_state(damaged))
    before = Path(state).read_bytes()
    argv = [arg.format(batch=tmp_path / "b2.csv") for arg in argv]
    assert main([argv[0], "--state", state, *argv[1:]]) == 4
    assert "non-finite M3" in capsys.readouterr().err
    assert Path(state).read_bytes() == before


def test_query_full_doc_prints_the_text_it_validated(tmp_path, capsys, monkeypatch):
    state, _ = _session(tmp_path, capsys)
    text = Path(state).read_text()

    def validate_then_replace(doc_text):
        result = loads_state(doc_text)
        Path(state).write_text("replaced by a concurrent writer\n")
        return result

    monkeypatch.setattr("momentflow.cli.loads_state", validate_then_replace)
    assert main(["query", "--state", state, "--format", "full-doc"]) == 0
    assert capsys.readouterr().out == text


# The good rows before and after the bad one: 1 and 0 make a 2-record
# file; TABLE_SIZED makes a file the table pass tries, the bad row near
# its end.
TABLE_SIZED = (COLUMNAR_MIN_RECORDS + 6, 1)
TABLE_SIZED_ID = f"{COLUMNAR_MIN_RECORDS + 8}-records"


def _rows_around(bad_row, before, after):
    return "".join(["1.0,1.0\n"] * before + [bad_row + "\n"] + ["1.0,1.0\n"] * after)


@pytest.mark.parametrize(
    "where,before,after",
    [
        pytest.param("header", 1, 0, id="header"),
        pytest.param("body", 1, 0, id="body"),
        pytest.param("body", *TABLE_SIZED, id=f"body-{TABLE_SIZED_ID}"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["append", "--batch"],
        ["metric", "--provider", "poly:0,0,1", "--n-star", "2", "--batch"],
        ["verify", "--data"],
    ],
    ids=["append", "metric", "verify"],
)
def test_batch_file_that_is_not_utf8_exits_2(tmp_path, capsys, where, command, before, after):
    state, _ = _session(tmp_path, capsys)
    before_doc = Path(state).read_bytes()
    bad = tmp_path / "bad.csv"
    if where == "header":
        text = "x,weig\xffht\n" + _rows_around("1.0,1.0", before, after)
    else:
        text = "x,weight\n" + _rows_around("2.\xff0,1.0", before, after)
    bad.write_bytes(text.encode("latin-1"))
    assert main([command[0], "--state", state, *command[1:], str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"batch file {bad} is not UTF-8 text (byte 0xff)" in err
    assert Path(state).read_bytes() == before_doc


@pytest.mark.parametrize(
    "field,reason,before,after",
    [
        pytest.param("1" * 200_000, "field larger than field limit", 1, 0, id="over-field-limit"),
        # the csv module refuses a NUL before Python 3.11; float() after
        pytest.param("2.\x000", "", 1, 0, id="nul"),
        pytest.param(
            "1" * 200_000, "field larger than field limit", *TABLE_SIZED,
            id=f"over-field-limit-{TABLE_SIZED_ID}",
        ),
        # float() reads this field as 1.5: only the csv module's limit refuses it
        pytest.param(
            "0" * 200_000 + "1.5", "field larger than field limit", *TABLE_SIZED,
            id=f"over-field-limit-finite-{TABLE_SIZED_ID}",
        ),
        pytest.param("2.\x000", "", *TABLE_SIZED, id=f"nul-{TABLE_SIZED_ID}"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [["append"], ["metric", "--provider", "poly:0,0,1", "--n-star", "2"]],
    ids=["append", "metric"],
)
def test_batch_row_the_csv_module_refuses_exits_2(
    tmp_path, capsys, field, reason, command, before, after
):
    state, _ = _session(tmp_path, capsys)
    before_doc = Path(state).read_bytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("x,weight\n" + _rows_around(f"{field},1.0", before, after))
    assert main([command[0], "--state", state, *command[1:], "--batch", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:{before + 2}: {reason}" in err
    assert "Traceback" not in err
    assert Path(state).read_bytes() == before_doc


@pytest.mark.parametrize(
    "argv",
    [
        ["append", "--state", "{state}", "--batch", "{unreadable}"],
        ["metric", "--state", "{state}", "--provider", "poly:0,0,1", "--batch", "{unreadable}"],
        ["verify", "--state", "{state}", "--data", "{unreadable}"],
        ["query", "--state", "{unreadable}", "--count"],
        ["append", "--state", "{unreadable}", "--batch", "{batch}"],
    ],
    ids=["append-batch", "metric-batch", "verify-data", "query-state", "append-state"],
)
def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys, argv):
    state, _ = _session(tmp_path, capsys)
    before = Path(state).read_bytes()
    unreadable = tmp_path / "dir"
    unreadable.mkdir()
    paths = {"state": state, "unreadable": unreadable, "batch": tmp_path / "b1.csv"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f" file {unreadable}: Is a directory" in err
    assert "Traceback" not in err
    assert Path(state).read_bytes() == before
    assert list(unreadable.iterdir()) == []


@pytest.mark.parametrize("which", ["batch", "state"])
def test_input_file_without_read_permission_exits_2(tmp_path, capsys, monkeypatch, which):
    # Tests may run as root, whom chmod 000 does not stop, so the refusal is simulated.
    state, _ = _session(tmp_path, capsys)
    before = Path(state).read_bytes()
    batch = tmp_path / "b1.csv"
    denied = batch if which == "batch" else Path(state)
    read_bytes = Path.read_bytes

    def refuse_denied(self):
        if self == denied:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", refuse_denied)
    assert main(["append", "--state", state, "--batch", str(batch)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {which} file {denied}: Permission denied" in err
    monkeypatch.undo()
    assert Path(state).read_bytes() == before


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_build_parser_returns_one_shared_parser():
    assert build_parser() is build_parser()


def test_parses_do_not_share_options():
    parser = build_parser()
    metric, verify = ["metric", "--provider", "exp:1,1"], ["verify", "--data", "d.csv"]
    first = parser.parse_args([*metric, "--n-star", "3"])
    second = parser.parse_args([*verify, "--tol", "1e-3"])
    assert (first.n_star, second.tol) == (3, 1e-3)
    fresh = build_parser.__wrapped__()
    for argv in (metric, verify):
        again = parser.parse_args(argv)
        assert again not in (first, second)
        assert again == fresh.parse_args(argv)
        assert again.state is None
    provider = parse_provider_spec("exp:1,1")
    assert parser.parse_args(metric).n_star == MetricSpec(provider).n_star
    assert parser.parse_args(verify).tol == DEFAULT_VERIFY_TOL == 1e-8


@pytest.mark.parametrize("option", [["--n-star", "3"], ["--tol", "1e-3"]])
def test_append_takes_no_series_options(tmp_path, capsys, option):
    # the stored chain of orders alone sets each fractional series' depth
    state, _ = _session(tmp_path, capsys)
    before = Path(state).read_bytes()
    argv = ["append", "--state", state, "--batch", str(tmp_path / "b2.csv"), *option]
    assert main(argv) == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert Path(state).read_bytes() == before


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
    # Nor the benchmark harness, which only the bench command imports, nor
    # numpy, which loads on first use, nor a layer that cli loads on its
    # first call.
    probe = (
        "import sys, momentflow.cli; print([m for m in ('concurrent.futures', "
        "'multiprocessing', 'momentflow.bench', 'numpy', 'momentflow.accumulator', "
        "'momentflow.batchfile', 'momentflow.metrics') if m in sys.modules])"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# Runs one command in a fresh process and prints its exit code and what it
# loaded of numpy and the package.
_LOAD_PROBE = (
    "import json, sys\n"
    "from momentflow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(n for n in sys.modules\n"
    "                              if n == 'numpy' or n.split('.')[0] == 'momentflow')]))\n"
)
_QUERIES = [["--order", "2"], ["--count"], ["--mean"], ["--z"], ["--format", "full-doc"]]
_METRICS = [["--provider", "exp:1,0.5", "--n-star", "4"], ["--provider", "poly:0,0,1", "--n-star", "4"]]
_NUMPY_FREE = (
    [("scalar", ["init", "--orders", "2..20", "--kind", "scalar"])]
    + [("scalar", ["query", *q]) for q in _QUERIES]
    + [("scalar", ["metric", *m]) for m in _METRICS]
    + [("complex", ["init", "--orders", "2..8,2.5", "--kind", "complex"])]
    + [("complex", ["query", *q]) for q in _QUERIES + [["--order", "2.5"], ["--order", "0"]]]
    + [("complex", ["metric", *m]) for m in _METRICS]
)
_NUMPY_LOADING = [
    ("vector", ["query", "--order", "2"]),
    ("vector", ["query", "--mean"]),
    ("scalar", ["append", "--batch", "{batch}"]),
    ("complex", ["append", "--batch", "{batch}"]),
]
# The layers that a read of the state document never runs.
_LAYERS = ("momentflow.accumulator", "momentflow.batchfile", "momentflow.metrics")
_READS = (
    [(name, ["init", "--orders", "2..4", "--kind", kind])
     for name, kind in (("scalar", "scalar"), ("complex", "complex"), ("vector", "vector:3"))]
    + [(name, ["query", *q]) for name in ("scalar", "complex", "vector") for q in _QUERIES]
    + [("complex", ["query", "--order", "2.5"])]
)


@pytest.fixture(scope="module")
def probe_states(tmp_path_factory):
    """A scalar 2..20, a complex 2..8,2.5 and a vector:3 2..4 state, each
    holding three records, and a batch for each."""
    root = tmp_path_factory.mktemp("probe")
    specs = {
        "scalar": ("2..20", "scalar", ["x,weight", "1.5,1", "2,0.5", "4,1"]),
        "complex": ("2..8,2.5", "complex", ["re,im,weight", "2,1,1", "3,0.5,1", "1,2,0.5"]),
        "vector": ("2..4", "vector:3", ["x0,x1,x2,weight", "1,2,3,1", "2,1,0,1", "0,4,1,1"]),
    }
    states = {}
    for name, (orders, kind, lines) in specs.items():
        state, batch = root / f"{name}.json", root / f"{name}.csv"
        batch.write_text("\n".join(lines) + "\n")
        assert main(["init", "--state", str(state), "--orders", orders, "--kind", kind]) == 0
        assert main(["append", "--state", str(state), "--batch", str(batch)]) == 0
        states[name] = (state, batch)
    return states


def _loaded_after(argv, tmp_path, probe_states):
    """The modules of numpy and the package that a fresh command loaded.

    argv is the command with a probe state's name in place of ``--state``:
    the command runs on a copy of that state (init on a new document), and
    ``{batch}`` in an option names that state's batch."""
    if argv[0] == "init":
        state, batch = tmp_path / "new.json", None
    else:
        source, batch = probe_states[argv[1]]
        state = tmp_path / "s.json"
        state.write_bytes(source.read_bytes())
    options = [c.format(batch=batch) for c in argv[2:]]
    command = [argv[0], "--state", str(state), *options]
    r = subprocess.run([sys.executable, "-c", _LOAD_PROBE, *command], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    code, loaded = json.loads(r.stdout.splitlines()[-1])
    assert code == 0, r.stderr
    return loaded


def _ids(v):
    return v if isinstance(v, str) else " ".join(v)


@pytest.mark.parametrize("state_name,command", _NUMPY_FREE, ids=_ids)
def test_fresh_scalar_and_complex_reads_leave_numpy_unloaded(
    tmp_path, probe_states, state_name, command
):
    loaded = _loaded_after([command[0], state_name, *command[1:]], tmp_path, probe_states)
    assert "numpy" not in loaded


@pytest.mark.parametrize("state_name,command", _NUMPY_LOADING, ids=_ids)
def test_fresh_vector_reads_and_appends_load_numpy(tmp_path, probe_states, state_name, command):
    loaded = _loaded_after([command[0], state_name, *command[1:]], tmp_path, probe_states)
    assert "numpy" in loaded


@pytest.mark.parametrize("state_name,command", _READS, ids=_ids)
def test_fresh_init_and_query_load_no_update_ingest_or_metric_layer(
    tmp_path, probe_states, state_name, command
):
    loaded = _loaded_after([command[0], state_name, *command[1:]], tmp_path, probe_states)
    assert not set(_LAYERS) & set(loaded), loaded
    assert {"momentflow.cli", "momentflow.states"} <= set(loaded)


@pytest.mark.parametrize("state_name", ["scalar", "complex", "vector"])
def test_fresh_append_loads_no_metric_layer(tmp_path, probe_states, state_name):
    loaded = _loaded_after(["append", state_name, "--batch", "{batch}"], tmp_path, probe_states)
    assert "momentflow.metrics" not in loaded
    assert {"momentflow.accumulator", "momentflow.batchfile"} <= set(loaded)


def test_fresh_metric_loads_batchfile_only_with_a_batch(tmp_path, probe_states):
    read = ["metric", "scalar", "--provider", "exp:1,0.5"]
    loaded = _loaded_after(read, tmp_path, probe_states)
    assert "momentflow.metrics" in loaded
    assert "momentflow.batchfile" not in loaded
    loaded = _loaded_after([*read, "--batch", "{batch}"], tmp_path, probe_states)
    assert {"momentflow.metrics", "momentflow.batchfile"} <= set(loaded)


def _imported_by(argv):
    """The modules that ``python -X importtime -m momentflow argv`` imports."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "momentflow", *argv],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    rows = [line.rpartition("|")[2].strip() for line in r.stderr.splitlines()
            if line.startswith("import time:")]
    assert rows[0] == "imported package", r.stderr  # the header row
    return set(rows[1:])


@pytest.mark.parametrize("query", [["--order", "2.5"], ["--mean"], ["--format", "full-doc"]],
                         ids=_ids)
def test_python_m_query_loads_what_the_in_process_entry_does(tmp_path, probe_states, query):
    source = probe_states["complex"][0]
    state = tmp_path / "s.json"
    state.write_bytes(source.read_bytes())
    imported = _imported_by(["query", "--state", str(state), *query])
    assert not set(_LAYERS) & imported
    loaded = _loaded_after(["query", "complex", *query], tmp_path, probe_states)
    ours = {n for n in imported if n == "numpy" or n.split(".")[0] == "momentflow"}
    assert ours == set(loaded) - {"momentflow.__main__"}


def test_the_lazy_numpy_path_prints_what_the_eager_one_does():
    # The child imports momentflow before numpy, so every module of the
    # package holds the stand-in until the session's first array work
    # rebinds it; this process imported numpy first.
    probe = (
        "import json, sys\n"
        "import momentflow.cli\n"
        "assert 'numpy' not in sys.modules\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import cli_digest, numpy\n"
        "by_kind = cli_digest.kind_digests()[2]\n"
        "held = sorted({type(m.np).__name__ for n, m in list(sys.modules.items())\n"
        "               if n.split('.')[0] == 'momentflow' and hasattr(m, 'np')})\n"
        "print(json.dumps([by_kind, held]))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lazy, held = json.loads(r.stdout)
    assert held == ["module"]
    assert {kind: tuple(v) for kind, v in lazy.items()} == kind_digests()[2]


def test_numpy_loaded_first_is_taken_as_it_is():
    # import momentflow.cli loads only the modules that every command runs;
    # the layers it loads on first call take numpy as well when they load.
    probe = (
        "import json, sys, numpy, momentflow.cli\n"
        "def held():\n"
        "    return sorted(n for n, m in list(sys.modules.items())\n"
        "                  if n.split('.')[0] == 'momentflow' and getattr(m, 'np', None) is numpy)\n"
        "first = held()\n"
        "import momentflow.batchfile, momentflow.metrics\n"
        "print(json.dumps([first, held()]))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    first, later = json.loads(r.stdout)
    assert first == ["momentflow.elements", "momentflow.statefile"]
    modules = ("accumulator", "batchfile", "elements", "metrics", "statefile")
    assert later == [f"momentflow.{name}" for name in modules]
