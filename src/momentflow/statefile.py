"""State-document persistence.

The document is the only storage the accumulator needs between sessions,
so it is treated as irreplaceable: numbers round-trip bit-exactly, a
content digest and the state's invariants are verified on every load, a
state holding a non-finite number is never written, and writes are atomic
(temp file + fsync + rename) so a crash can never leave a torn document.

Numbers are serialized either as hex floats (the normative form; digests
are always computed over the hex-float canonical serialization regardless
of the on-disk mode) or as shortest round-trip decimals for human reading.
Writers (init and append) take an advisory lock per state file; reads are
lock-free against the last committed document.
"""

from __future__ import annotations

import cmath
import fcntl
import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Union

import numpy as np

from .accumulator import AnyState, EmptyState, MomentState, OrderLadder
from .elements import Kind, Payload
from .errors import DigestMismatch, IntegrityError, LockHeld, NumericError, ValidationError

FORMAT_VERSION = 1

HEX = "hex"
DECIMAL = "decimal"


def _encode_float(x: float, mode: str) -> Union[str, float]:
    return float(x).hex() if mode == HEX else float(x)


def _decode_float(v: Any) -> float:
    if isinstance(v, str):
        return float.fromhex(v)
    if isinstance(v, (int, float)):
        return float(v)
    raise IntegrityError(f"unreadable number {v!r} in state document")


def _encode_payload(kind: Kind, p: Payload, mode: str) -> Any:
    if kind is Kind.SCALAR:
        return _encode_float(p, mode)
    if kind is Kind.COMPLEX:
        return [_encode_float(p.real, mode), _encode_float(p.imag, mode)]
    return [_encode_float(c, mode) for c in p]


def _decode_payload(kind: Kind, v: Any, dim: int | None) -> Payload:
    if kind is Kind.SCALAR:
        return _decode_float(v)
    if kind is Kind.COMPLEX:
        if not isinstance(v, list) or len(v) != 2:
            raise IntegrityError("complex value must be a [re, im] pair")
        return complex(_decode_float(v[0]), _decode_float(v[1]))
    if not isinstance(v, list) or len(v) != dim:
        raise IntegrityError(f"vector value must be a list of {dim} numbers")
    arr = np.array([_decode_float(c) for c in v], dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _document_dict(state: AnyState, mode: str) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "element_kind": state.kind.value,
        "orders": [_encode_float(o, mode) for o in state.ladder.orders],
    }
    if state.kind is Kind.VECTOR:
        doc["vector_dim"] = state.dim
    if isinstance(state, EmptyState):
        doc["count"] = 0
        return doc
    doc["count"] = state.count
    doc["z"] = _encode_float(state.z, mode)
    doc["mean"] = _encode_payload(state.kind, state.mean, mode)
    doc["moments"] = [
        [_encode_float(o, mode), _encode_payload(state.kind, state.moments[o], mode)]
        for o in state.ladder.orders
    ]
    return doc


def _is_finite(kind: Kind, p: Payload) -> bool:
    if kind is Kind.SCALAR:
        return math.isfinite(p)
    if kind is Kind.COMPLEX:
        return cmath.isfinite(p)
    return bool(np.isfinite(p).all())


def _check_invariants(state: MomentState) -> None:
    """What every committed non-empty state satisfies; a loaded one that
    does not is damaged."""
    if state.count < 1:
        raise IntegrityError(f"non-empty state has count {state.count}")
    if not math.isfinite(state.z) or state.z == 0.0:
        raise IntegrityError(f"weight sum z must be finite and non-zero, got {state.z!r}")
    if not _is_finite(state.kind, state.mean):
        raise IntegrityError("state mean is not finite")


def _require_finite(state: AnyState) -> None:
    """Refuse to commit a state holding a non-finite number."""
    if isinstance(state, EmptyState):
        return
    bad = [] if math.isfinite(state.z) else ["z"]
    if not _is_finite(state.kind, state.mean):
        bad.append("mean")
    bad.extend(
        f"M{order:g}" for order, m in state.moments.items() if not _is_finite(state.kind, m)
    )
    if bad:
        raise NumericError(
            f"refusing to save a state with non-finite {', '.join(bad)}; "
            "the document was left as it was"
        )


def canonical_bytes(state: AnyState) -> bytes:
    """The digest input: hex-float document, sorted keys, fixed separators."""
    doc = _document_dict(state, HEX)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def compute_digest(state: AnyState) -> str:
    return hashlib.sha256(canonical_bytes(state)).hexdigest()


def dumps_state(state: AnyState, encoding: str = HEX) -> str:
    if encoding not in (HEX, DECIMAL):
        raise ValidationError(f"unknown number encoding {encoding!r}")
    doc = _document_dict(state, encoding)
    doc["number_encoding"] = encoding
    doc["content_digest"] = compute_digest(state)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_state(text: str) -> AnyState:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise IntegrityError(f"state document is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise IntegrityError("state document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise IntegrityError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    try:
        kind = Kind(doc["element_kind"])
        dim = int(doc["vector_dim"]) if kind is Kind.VECTOR else None
        ladder = OrderLadder(_decode_float(o) for o in doc["orders"])
        count = int(doc["count"])
        if count == 0:
            state: AnyState = EmptyState(kind=kind, dim=dim, ladder=ladder)
        else:
            moments = {}
            for pair in doc["moments"]:
                order = _decode_float(pair[0])
                moments[order] = _decode_payload(kind, pair[1], dim)
            state = MomentState(
                kind=kind,
                dim=dim,
                ladder=ladder,
                z=_decode_float(doc["z"]),
                mean=_decode_payload(kind, doc["mean"], dim),
                count=count,
                moments=moments,
            )
        if isinstance(state, MomentState):
            _check_invariants(state)
    except (KeyError, TypeError, IndexError, ValueError, ValidationError) as e:
        raise IntegrityError(f"state document is structurally invalid: {e}") from None

    recorded = doc.get("content_digest")
    actual = compute_digest(state)
    if recorded != actual:
        raise DigestMismatch(
            f"state document digest mismatch: recorded {recorded!r}, content {actual!r}"
        )
    return state


def save_state(path: str | Path, state: AnyState, encoding: str = HEX) -> None:
    """Atomically replace the document: temp file, fsync, rename."""
    path = Path(path)
    _require_finite(state)
    text = dumps_state(state, encoding)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or Path(".")
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_document(path: str | Path) -> str:
    """The document's text, unchecked; ``loads_state`` checks it."""
    try:
        return Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise ValidationError(f"state file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise IntegrityError(f"state document {path} is not ASCII: {e}") from None


def load_state(path: str | Path) -> AnyState:
    return loads_state(read_document(path))


@contextmanager
def state_lock(path: str | Path) -> Iterator[None]:
    """Advisory single-writer lock for a state file (sidecar .lock file)."""
    lock_path = Path(str(path) + ".lock")
    f = open(lock_path, "a+")
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
