"""Batch ingestion: CSV files of weighted records.

Column layout is fixed by the element kind. Scalar: ``x,weight``; complex:
``re,im,weight``; vector of dimension d: ``x0,...,x{d-1},weight``. The
file must be UTF-8 text. Every field must parse as a finite decimal
through Python's float(), so surrounding whitespace and digit-group
underscores are accepted; quoting and line endings are the csv module's,
and a row it refuses (a field over its size limit, say) is a format error
naming path and line; blank rows are skipped. The fields of a large batch
are parsed into one float64 table in a single pass; a small batch, or one
whose table pass fails, is parsed row by row, which reports the first bad
row by path and line.
"""

from __future__ import annotations

import csv
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .accumulator import COLUMNAR_MIN_RECORDS, Batch
from .elements import Kind
from .errors import BatchFormatError, EmptyBatch


def expected_header(kind: Kind, dim: int | None) -> list[str]:
    if kind is Kind.SCALAR:
        return ["x", "weight"]
    if kind is Kind.COMPLEX:
        return ["re", "im", "weight"]
    return [f"x{i}" for i in range(dim)] + ["weight"]


def _parse_field(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise BatchFormatError(f"{where}: {text!r} is not a decimal number") from None
    if not math.isfinite(v):
        raise BatchFormatError(f"{where}: {text!r} is not finite")
    return v


def _table(records: list[list[str]], ncol: int) -> np.ndarray | None:
    """All fields as one (records, ncol) float64 table, each through float();
    None if any row has the wrong width or any field fails to parse or is
    not finite."""
    if set(map(len, records)) != {ncol}:
        return None
    try:
        table = np.fromiter(
            map(float, chain.from_iterable(records)), dtype=np.float64, count=len(records) * ncol
        )
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    return table.reshape(len(records), ncol)


def _checked_rows(path: Path, body: list[list[str]], ncol: int) -> list[list[float]]:
    """Every record's fields, parsed row by row; raises on the first bad row,
    naming path:line."""
    parsed = []
    for lineno, row in enumerate(body, start=2):
        if not row:
            continue
        if len(row) != ncol:
            raise BatchFormatError(f"{path}:{lineno}: expected {ncol} columns, got {len(row)}")
        parsed.append([_parse_field(c, f"{path}:{lineno}") for c in row])
    return parsed


def read_batch_csv(path: str | Path, kind: Kind, dim: int | None = None) -> Batch:
    path = Path(path)
    header = expected_header(kind, dim)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except FileNotFoundError:
        raise BatchFormatError(f"batch file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as e:
            bad = " ".join(f"0x{b:02x}" for b in e.object[e.start : e.end])
            raise BatchFormatError(f"batch file {path} is not UTF-8 text (byte {bad})") from None
        except csv.Error as e:  # a field over the csv field limit; a NUL before Python 3.11
            raise BatchFormatError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise EmptyBatch(f"batch file {path} is empty")
    got = [c.strip() for c in rows[0]]
    if got != header:
        raise BatchFormatError(
            f"batch file {path} has header {got}, expected {header} for kind "
            f"{kind.value}" + (f" (dim {dim})" if kind is Kind.VECTOR else "")
        )
    body = rows[1:]
    records = [row for row in body if row]
    if not records:
        raise EmptyBatch(f"batch file {path} has a header but no records")
    # A small batch is parsed row by row into Python lists, as numpy's fixed
    # cost per call exceeds the whole parse; so is any batch whose table
    # fails, to report its first bad row.
    table = _table(records, len(header)) if len(records) >= COLUMNAR_MIN_RECORDS else None
    if table is None:
        parsed = _checked_rows(path, body, len(header))
        weights = [r[-1] for r in parsed]
        if kind is Kind.SCALAR:
            values = [r[0] for r in parsed]
        elif kind is Kind.COMPLEX:
            values = [complex(r[0], r[1]) for r in parsed]
        else:
            values = [r[:-1] for r in parsed]
    else:
        weights = table[:, -1]
        if kind is Kind.SCALAR:
            values = table[:, 0]
        elif kind is Kind.COMPLEX:
            values = np.empty(len(table), dtype=np.complex128)
            values.real = table[:, 0]
            values.imag = table[:, 1]
        else:
            values = table[:, :-1]
    return Batch.from_values(kind, values, weights, dim=dim)
