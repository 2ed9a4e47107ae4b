"""State-document persistence.

The document is the only storage the accumulator needs between sessions,
so it is treated as irreplaceable: numbers round-trip bit-exactly, a
content digest and the state's invariants are verified on every load, a
state holding a non-finite number is never written, and writes are atomic
and durable (temp file + fsync + rename + directory fsync) so a crash can
never leave a torn document or lose a committed one.

A document (format 2) is one line of canonical JSON: sorted keys, the
separators ``,`` and ``:``, every float a hex-float string, and
``moments`` a list aligned with ``orders``, as a state's ``values`` are.
Its body is that object without the ``content_digest`` member, and the
digest is the SHA-256 of the body's bytes. ``content_digest`` sorts
first, so the document is ``{"content_digest":"<digest>",`` followed by
the body after its opening brace. A save builds the body once; a load
hashes the body bytes as they were read, so no document is rebuilt to
check one.

Writers (init and append) take an advisory lock per state file; reads are
lock-free against the last committed document.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import stat
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .elements import Kind, Payload, all_finite, np
from .errors import DigestMismatch, IntegrityError, LockHeld, NumericError, ValidationError
from .states import AnyState, EmptyState, MomentState, OrderLadder

FORMAT_VERSION = 2

_DIGEST_PREFIX = '{"content_digest":"'
_V2_HEADER_KEYS = frozenset(
    {"content_digest", "count", "element_kind", "format_version", "orders"}
)
_V2_MOMENT_KEYS = frozenset({"mean", "moments", "z"})

# Each distinct orders tuple is built and validated into an OrderLadder
# once per process; _header still checks the ladder against the document.
_ladder = lru_cache(maxsize=32)(OrderLadder)


def _hex_writer(kind: Kind) -> Callable[[Payload], Any]:
    """Writes one payload of ``kind`` in hex floats."""
    if kind is Kind.SCALAR:
        return float.hex
    if kind is Kind.COMPLEX:
        return lambda p: [float.hex(p.real), float.hex(p.imag)]
    return lambda p: [float.hex(c) for c in p.tolist()]


def _body_dict(state: AnyState) -> dict[str, Any]:
    body: dict[str, Any] = {
        "count": 0,
        "element_kind": state.kind.value,
        "format_version": FORMAT_VERSION,
        "orders": [float.hex(o) for o in state.ladder.orders],
    }
    if state.kind is Kind.VECTOR:
        body["vector_dim"] = state.dim
    if isinstance(state, MomentState):
        write = _hex_writer(state.kind)
        body["count"] = state.count
        body["z"] = float.hex(state.z)
        body["mean"] = write(state.mean)
        body["moments"] = [write(v) for v in state.values]
    return body


def _canonical(doc: dict[str, Any]) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _non_finite(state: MomentState) -> str:
    """The names of the state's non-finite numbers (z, mean, M<order>),
    comma-separated; empty when every one is finite. A stored state is
    nearly always finite, so one check over every payload comes first."""
    kind, values = state.kind, state.values
    if math.isfinite(state.z) and all_finite(kind, (state.mean, *values)):
        return ""
    bad = [] if math.isfinite(state.z) else ["z"]
    if not all_finite(kind, (state.mean,)):
        bad.append("mean")
    orders = state.ladder.orders
    bad.extend(f"M{o:g}" for o, m in zip(orders, values) if not all_finite(kind, (m,)))
    return ", ".join(bad)


def _check_invariants(state: MomentState) -> None:
    """What every committed non-empty state satisfies; a loaded one that
    does not is damaged."""
    if state.count < 1:
        raise IntegrityError(f"non-empty state has count {state.count}")
    bad = _non_finite(state)
    if bad:
        raise IntegrityError(f"state document holds non-finite {bad}")
    if state.z == 0.0:
        raise IntegrityError("weight sum z must be non-zero")


def _require_finite(state: AnyState) -> None:
    """Refuse to commit a state holding a non-finite number."""
    bad = "" if isinstance(state, EmptyState) else _non_finite(state)
    if bad:
        raise NumericError(
            f"refusing to save a state with non-finite {bad}; the document was left as it was"
        )


def compute_digest(state: AnyState) -> str:
    """The version-2 content digest: SHA-256 of the state's canonical body."""
    return _sha256(_canonical(_body_dict(state)))


def dumps_state(state: AnyState) -> str:
    """The version-2 document: one line, its digest member first."""
    body = _canonical(_body_dict(state))
    return f'{_DIGEST_PREFIX}{_sha256(body)}",{body[1:].decode("ascii")}\n'


def _integer(doc: dict[str, Any], key: str) -> int:
    v = doc[key]
    if type(v) is not int:
        raise IntegrityError(f"{key} must be an integer, got {v!r}")
    return v


def _hex_float(value: Any, field: str) -> float:
    """One number of the document, a hex-float string, as a float; anything
    else raises IntegrityError naming ``field`` and the value it holds."""
    try:
        return float.fromhex(value)
    except (TypeError, ValueError, OverflowError) as e:
        if isinstance(e, OverflowError):
            raise IntegrityError(f"{field} is too large for a float, got {value!r}") from None
        raise IntegrityError(f"{field} must be a hex-float string, got {value!r}") from None


def _hex_floats(values: list, field: str) -> list[float]:
    """The hex-float strings of the list ``field`` holds, as floats: item i
    read as _hex_float reads ``field[i]``, after one pass over them all."""
    try:
        return list(map(float.fromhex, values))
    except (TypeError, ValueError, OverflowError):
        return [_hex_float(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _payload_reader(kind: Kind, dim: int | None) -> Callable[[Any, str], Payload]:
    """Reads one payload of ``kind`` written in hex floats, the value of a
    field it names in any error."""
    if kind is Kind.SCALAR:
        return _hex_float
    width = 2 if kind is Kind.COMPLEX else dim

    def read(v: Any, field: str) -> Payload:
        if not isinstance(v, list) or len(v) != width:
            raise IntegrityError(f"{kind.value} value must be a list of {width} numbers")
        parts = _hex_floats(v, field)
        return complex(*parts) if kind is Kind.COMPLEX else np.array(parts, dtype=np.float64)

    return read


def _header(doc: dict[str, Any]) -> tuple[Kind, int | None, OrderLadder, int]:
    """Kind, vector dimension, ladder and count: what every state has."""
    kind = Kind(doc["element_kind"])
    dim = None
    if kind is Kind.VECTOR:
        dim = _integer(doc, "vector_dim")
        if dim < 1:
            raise IntegrityError(f"vector_dim must be >= 1, got {dim}")
    if not isinstance(doc["orders"], list):
        raise IntegrityError("orders must be a list")
    orders = tuple(_hex_floats(doc["orders"], "orders"))
    ladder = _ladder(orders)
    if ladder.orders != orders:
        raise IntegrityError("orders must be sorted and distinct")
    return kind, dim, ladder, _integer(doc, "count")


def _moment_state(
    doc: dict[str, Any],
    header: tuple[Kind, int | None, OrderLadder, int],
    values: Iterable[Any],
) -> MomentState:
    kind, dim, ladder, count = header
    read = _payload_reader(kind, dim)
    state = MomentState(
        kind=kind,
        dim=dim,
        ladder=ladder,
        z=_hex_float(doc["z"], "z"),
        mean=read(doc["mean"], "mean"),
        count=count,
        values=[read(v, f"moments[{i}]") for i, v in enumerate(values)],
    )
    _check_invariants(state)
    return state


def _read_v2(text: str, doc: dict[str, Any]) -> AnyState:
    recorded = doc.get("content_digest")
    prefix = f'{_DIGEST_PREFIX}{recorded}",'
    if not (isinstance(recorded, str) and text.startswith(prefix) and text.endswith("}\n")):
        raise IntegrityError(
            "state document is not canonical: it must open with its "
            "content_digest and end in one newline"
        )
    actual = _sha256(("{" + text[len(prefix):-1]).encode("ascii"))
    if actual != recorded:
        raise DigestMismatch(
            f"state document digest mismatch: recorded {recorded!r}, content {actual!r}"
        )
    header = _header(doc)
    kind, dim, ladder, count = header
    expected = _V2_HEADER_KEYS
    if kind is Kind.VECTOR:
        expected = expected | {"vector_dim"}
    if count != 0:
        expected = expected | _V2_MOMENT_KEYS
    if doc.keys() != expected:
        raise IntegrityError(
            f"state document has keys {sorted(doc)}, expected {sorted(expected)}"
        )
    if count == 0:
        return EmptyState(kind=kind, dim=dim, ladder=ladder)
    values = doc["moments"]
    if not isinstance(values, list) or len(values) != len(ladder):
        raise IntegrityError("moments must be a list aligned with orders")
    return _moment_state(doc, header, values)


def loads_state(text: str) -> AnyState:
    """The state a document holds, checked; any damage raises IntegrityError."""
    if not text.isascii():
        raise IntegrityError("state document is not ASCII")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise IntegrityError(f"state document is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise IntegrityError("state document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION or type(version) is not int:
        hint = ""
        if type(version) is int and version == 1:
            hint = ': README.md\'s "Format 1 documents" shows how to convert it'
        raise IntegrityError(f"unsupported format_version {version!r}{hint}")
    try:
        return _read_v2(text, doc)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError, ValidationError) as e:
        raise IntegrityError(f"state document is structurally invalid: {e}") from None


def save_state(path: str | Path, state: AnyState) -> None:
    """Atomically and durably replace the document: temp file, fsync,
    rename, then fsync of the directory, without which a crash can lose
    the rename after the save has returned.

    A replaced document keeps its permission bits; a new one is created
    0600, readable by its owner alone.
    """
    import tempfile  # here, not at the top: no read makes a temporary file

    path = Path(path)
    _require_finite(state)
    data = dumps_state(state).encode("ascii")
    try:
        st = os.stat(path)
    except FileNotFoundError:
        mode = None
    else:
        if stat.S_ISDIR(st.st_mode):
            raise ValidationError(f"cannot replace {path}: it is a directory")
        mode = stat.S_IMODE(st.st_mode)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or Path(".")
    )
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_document(path: str | Path) -> str:
    """The document's text, unchecked; ``loads_state`` checks it."""
    try:
        return Path(path).read_bytes().decode("ascii")
    except FileNotFoundError:
        raise ValidationError(f"state file not found: {path}") from None
    except OSError as e:  # a directory, a file without read permission
        raise ValidationError(f"cannot read state file {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise IntegrityError(f"state document {path} is not ASCII: {e}") from None


def load_state(path: str | Path) -> AnyState:
    return loads_state(read_document(path))


@contextmanager
def state_lock(path: str | Path) -> Iterator[None]:
    """Advisory single-writer lock for a state file (sidecar .lock file)."""
    lock_path = Path(str(path) + ".lock")
    try:
        f = open(lock_path, "a+")
    except OSError as e:  # a missing or unwritable directory
        raise ValidationError(f"cannot lock state file {path}: {e.strerror}") from None
    try:
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise LockHeld(f"another writer holds the lock on {path}") from None
        yield
    finally:
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_UN)
        finally:
            f.close()
