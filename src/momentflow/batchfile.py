"""Batch ingestion: CSV files of weighted records.

Column layout is fixed by the element kind. Scalar: ``x,weight``; complex:
``re,im,weight``; vector of dimension d: ``x0,...,x{d-1},weight``. The
file must be readable UTF-8 text; a path that cannot be read (a
directory, say) is a format error naming it. Every field must parse as a
finite decimal through Python's float(), so surrounding whitespace and
digit-group underscores are accepted; quoting and line endings are the
csv module's, and a row it refuses (a field over its size limit, say) is
a format error naming path and line; blank rows are skipped.

A file of at least COLUMNAR_MIN_RECORDS records that the csv module
would split exactly as ``str.split`` does (no quote, no NUL, no lone CR,
no line over the csv field limit) and that holds none of U+001C-U+001F
(numpy's reader strips them around a field, float() refuses them) is
parsed in one pass by numpy's C text reader, which converts each field
with the routine float() uses, so the values are bit-identical. Any other
file, or one that reader refuses (an underscore, a non-ASCII digit, a row
of the wrong width) or that holds a non-finite value, is parsed row by row
through the csv module, which reports the first bad row by path and line.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from .accumulator import COLUMNAR_MIN_RECORDS, Batch
from .elements import Kind, np
from .errors import BadKindSpec, BatchFormatError, EmptyBatch


# A quote or NUL, which the csv module reads otherwise than str.split, and
# U+001C-U+001F, which numpy's reader strips around a field as whitespace
# and float() refuses: a text holding any of them is read row by row.
_ROW_PATH_CHARS = '"\0\x1c\x1d\x1e\x1f'


def expected_header(kind: Kind, dim: int | None) -> list[str]:
    if kind is Kind.SCALAR:
        return ["x", "weight"]
    if kind is Kind.COMPLEX:
        return ["re", "im", "weight"]
    if dim is None or dim < 1:
        raise BadKindSpec(f"a vector batch needs its dimension dim >= 1, got {dim}")
    return [f"x{i}" for i in range(dim)] + ["weight"]


def _parse_field(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise BatchFormatError(f"{where}: {text!r} is not a decimal number") from None
    if not math.isfinite(v):
        raise BatchFormatError(f"{where}: {text!r} is not finite")
    return v


def _read_text(path: Path) -> str:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise BatchFormatError(f"batch file not found: {path}") from None
    except OSError as e:  # a directory, a file without read permission
        raise BatchFormatError(f"cannot read batch file {path}: {e.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        bad = " ".join(f"0x{b:02x}" for b in e.object[e.start : e.end])
        raise BatchFormatError(f"batch file {path} is not UTF-8 text (byte {bad})") from None


def _table(text: str, header: list[str]) -> np.ndarray | None:
    """All records as one (records, ncol) float64 table, read by numpy's C
    text reader; None if there are fewer than COLUMNAR_MIN_RECORDS records,
    the csv module might split the text otherwise than str.split, a field
    holds a character only numpy's reader strips, the header differs, or
    the reader refuses a field or reads a non-finite one.

    A text with no CR and no blank row is split once and handed to the
    reader with no other pass that copies or counts it."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    # The header and each record take a line of their own, so a text of so
    # few lines holds too few records: a small batch stops here.
    if len(lines) <= COLUMNAR_MIN_RECORDS:
        return None
    if any(c in text for c in _ROW_PATH_CHARS):
        return None
    if [c.strip() for c in lines[0].split(",")] != header:
        return None
    if not lines[-1]:
        lines.pop()
    if not all(lines):
        lines = list(filter(None, lines))
    records = len(lines) - 1
    if records < COLUMNAR_MIN_RECORDS:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2, skiprows=1)
    except ValueError:
        return None
    # The shape check catches rows all one wrong width, and any line the
    # reader would skip that the csv module counts as a record.
    if table.shape != (records, len(header)) or not np.isfinite(table).all():
        return None
    return table


def _checked_rows(path: Path, body: list[list[str]], ncol: int) -> list[list[float]]:
    """Every record's fields, parsed row by row; raises on the first bad row,
    naming path:line. A row is converted by one float() map; only a row
    that map refuses or reads as non-finite goes field by field through
    _parse_field, which names the bad field."""
    parsed = []
    for lineno, row in enumerate(body, start=2):
        if not row:
            continue
        if len(row) != ncol:
            raise BatchFormatError(f"{path}:{lineno}: expected {ncol} columns, got {len(row)}")
        try:
            fields = list(map(float, row))
        except ValueError:
            fields = None
        if fields is None or not all(map(math.isfinite, fields)):
            fields = [_parse_field(c, f"{path}:{lineno}") for c in row]
        parsed.append(fields)
    return parsed


def read_batch_csv(path: str | Path, kind: Kind, dim: int | None = None) -> Batch:
    path = Path(path)
    header = expected_header(kind, dim)
    text = _read_text(path)
    table = _table(text, header)
    if table is not None:
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
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
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
    if not any(body):
        raise EmptyBatch(f"batch file {path} has a header but no records")
    parsed = _checked_rows(path, body, len(header))
    weights = [r[-1] for r in parsed]
    if kind is Kind.SCALAR:
        values = [r[0] for r in parsed]
    elif kind is Kind.COMPLEX:
        values = [complex(r[0], r[1]) for r in parsed]
    else:
        values = [r[:-1] for r in parsed]
    return Batch.from_values(kind, values, weights, dim=dim)
