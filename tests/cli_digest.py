"""SHA-256 digests over a fixed CLI session, to show that two versions of
momentflow give byte-identical output, or which kinds of command differ.

Run it from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python tests/cli_digest.py

On each of seven ladders it runs ``init``, appends of 1 to 256 records,
``query`` and ``metric`` (with and without ``--batch``) after each append,
and a final ``verify`` over the records the state absorbed, all through
``momentflow.cli.main`` in a temporary directory. The digest covers every
command's argv, exit code, stdout and stderr and the state document after
it. Under the total it prints one digest per command kind (``init``,
``append``, ``query``, ``metric``, ``metric --batch``, ``verify``), then
one per ladder (``complex 2..20``, say), so a change can show that it moves
one kind of output, or one ladder's, and leaves the others alone;
``session_records`` gives each command's record for a finer diff.
Compare these digests of two commits on one machine: BLAS may sum in
another order elsewhere, so no value of them is kept.

The last line is the digest of the pinned session (``pinned_digest``),
scalar ladders, appends of fewer than 32 records drawn by ``random`` and
no ``verify``, so every number in it comes from IEEE-754 additions,
multiplications and divisions of Python floats, taken in one order. Its
value is the same on every machine, numpy and supported Python, and
tests/test_cli.py holds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import tempfile
from pathlib import Path

import numpy as np

from momentflow.cli import main

# (kind, orders, extra init options, orders to query, metric truncation)
LADDERS = (
    ("scalar", "2..20", (), ("2", "20"), 14),
    ("complex", "2..20", (), ("2", "20"), 14),
    ("vector:3", "2..12", (), ("2", "12"), 12),
    ("complex", "2..8,2.5", (), ("2", "8", "2.5"), 8),
    ("complex", "2,3,2.5,-0.5", (), ("3", "2.5", "-0.5"), 3),
    ("complex", "2.5", ("--frac-depth", "4"), ("2.5", "-1.5"), 2),
    ("scalar", "2..6", (), ("2", "6"), 6),
)
APPEND_SIZES = (1, 3, 5, 8, 31, 32, 40, 256)
# The providers of the metric read after each append: without, then with --batch.
PROVIDERS = ("exp:1,0.1", "sin:1,0.5")

# The pinned session. It leaves out verify, whose scale goes through libm's
# pow; the exp and sin providers, which go through libm; the complex kind,
# whose C multiply a compiler may fuse; and batches of 32 records or more,
# which are summed through BLAS.
PINNED_LADDERS = (
    ("scalar", "2..20", (), ("2", "20"), 6),
    ("scalar", "2..6", (), ("2", "6"), 6),
)
PINNED_SIZES = (1, 3, 8, 31)
PINNED_PROVIDERS = ("poly:0.5,-1,0.25", "poly:0.5,-1,0.25")


def _rows(kind: str, n: int, seed: tuple[int, int]) -> list[str]:
    """``n`` CSV rows of ``kind``, drawn by numpy's generator under ``seed``."""
    rng = np.random.default_rng(list(seed))
    weights = 0.05 + 0.95 * rng.random(n)
    if kind == "scalar":
        cols = [3.0 + rng.standard_normal(n)]
    elif kind == "complex":
        cols = [2.0 + rng.standard_normal(n), 1.0 + rng.standard_normal(n)]
    else:
        cols = list(1.0 + rng.standard_normal((int(kind.split(":")[1]), n)))
    fields = zip(*(c.tolist() for c in cols), weights.tolist())
    return [",".join(map(repr, row)) for row in fields]


def _scalar_rows(kind: str, n: int, seed: tuple[int, int]) -> list[str]:
    """``n`` scalar CSV rows (whatever ``kind``) drawn by ``random.Random``,
    whose uniform draws are the same floats on every machine and Python."""
    rng = random.Random(1000 * seed[0] + seed[1])
    return [f"{rng.uniform(1.0, 5.0)!r},{rng.uniform(0.05, 1.0)!r}" for _ in range(n)]


def _header(kind: str) -> str:
    if kind == "scalar":
        return "x,weight"
    if kind == "complex":
        return "re,im,weight"
    return ",".join(f"x{i}" for i in range(int(kind.split(":")[1]))) + ",weight"


def session_records(
    ladders=LADDERS, sizes=APPEND_SIZES, providers=PROVIDERS, rows=_rows, verify=True
) -> list[tuple[str, str, bytes]]:
    """Each command of the session over ``ladders`` in turn: its ladder's
    label, its command kind and the bytes the digests take from it.

    Each ladder takes appends of ``sizes`` records, made by
    ``rows(kind, n, (ladder index, append index))``, the metric of each of
    ``providers`` (the second with ``--batch``) after each append, and a
    final ``verify`` if ``verify`` is set."""
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:

            def run(state: str, command: str, *options: str) -> int:
                argv = [command, "--state", state, *options]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                doc = Path(state).read_bytes() if Path(state).is_file() else b""
                kind = "metric --batch" if command == "metric" and "--batch" in options else command
                record = repr((argv, code, out.getvalue(), err.getvalue(), doc)).encode()
                records.append((label, kind, record))
                return code

            for i, (kind, orders, extra, queried, n_star) in enumerate(ladders):
                label = " ".join((kind, orders, *extra))
                state, absorbed = f"s{i}.json", []
                run(state, "init", "--orders", orders, "--kind", kind, *extra)
                for j, n in enumerate(sizes):
                    batch = f"b{i}_{j}.csv"
                    batch_rows = rows(kind, n, (i, j))
                    Path(batch).write_text("\n".join([_header(kind), *batch_rows]) + "\n")
                    if run(state, "append", "--batch", batch) == 0:
                        absorbed += batch_rows
                    for selector in ("--count", "--z", "--mean"):
                        run(state, "query", selector)
                    for order in queried:
                        run(state, "query", "--order", order)
                    n_star_option = ("--n-star", str(n_star))
                    run(state, "metric", *n_star_option, "--provider", providers[0])
                    run(state, "metric", *n_star_option, "--provider", providers[1], "--batch", batch)
                if verify:
                    Path("all.csv").write_text("\n".join([_header(kind), *absorbed]) + "\n")
                    run(state, "verify", "--data", "all.csv")
        finally:
            os.chdir(cwd)
    return records


def _digests(groups: list[tuple[str, bytes]]) -> dict[str, tuple[str, int]]:
    """The SHA-256 over each group's records, in order, with their count."""
    hashes, counts = {}, {}
    for group, record in groups:
        hashes.setdefault(group, hashlib.sha256()).update(record)
        counts[group] = counts.get(group, 0) + 1
    return {group: (h.hexdigest(), counts[group]) for group, h in hashes.items()}


def digests(
    ladders=LADDERS,
) -> tuple[str, int, dict[str, tuple[str, int]], dict[str, tuple[str, int]]]:
    """The SHA-256 of the session over ``ladders`` and its command count;
    then each command kind's SHA-256 over its own commands with their
    count, and each ladder's."""
    records = session_records(ladders)
    total = hashlib.sha256()
    for _, _, record in records:
        total.update(record)
    by_kind = _digests([(kind, record) for _, kind, record in records])
    by_ladder = _digests([(label, record) for label, _, record in records])
    return total.hexdigest(), len(records), by_kind, by_ladder


def session_digest(ladders=LADDERS) -> tuple[str, int]:
    """The SHA-256 of the session over ``ladders`` and its command count."""
    return digests(ladders)[:2]


def pinned_digest() -> tuple[str, int]:
    """The SHA-256 of the pinned session and its command count."""
    records = session_records(
        PINNED_LADDERS, PINNED_SIZES, PINNED_PROVIDERS, _scalar_rows, verify=False
    )
    total = hashlib.sha256()
    for _, _, record in records:
        total.update(record)
    return total.hexdigest(), len(records)


if __name__ == "__main__":
    hexdigest, count, by_kind, by_ladder = digests()
    print(f"{hexdigest}  {count} commands")
    for group, (group_hex, group_count) in (*by_kind.items(), *by_ladder.items()):
        print(f"  {group_hex}  {group_count} {group}")
    print("  {}  {} pinned session".format(*pinned_digest()))
