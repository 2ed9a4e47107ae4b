"""One SHA-256 over a fixed CLI session, to show that two versions of
momentflow give byte-identical output.

Run it from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python tests/cli_digest.py

On each of seven ladders it runs ``init``, appends of 1 to 256 records,
``query`` and ``metric`` (with and without ``--batch``) after each append,
and a final ``verify`` over the records the state absorbed, all through
``momentflow.cli.main`` in a temporary directory. The digest covers every
command's argv, exit code, stdout and stderr and the state document after
it. Compare the digests of two commits on one machine: BLAS may sum in
another order elsewhere, so no digest value is kept.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
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


def _rows(kind: str, n: int, rng: np.random.Generator) -> list[str]:
    weights = 0.05 + 0.95 * rng.random(n)
    if kind == "scalar":
        cols = [3.0 + rng.standard_normal(n)]
    elif kind == "complex":
        cols = [2.0 + rng.standard_normal(n), 1.0 + rng.standard_normal(n)]
    else:
        cols = list(1.0 + rng.standard_normal((int(kind.split(":")[1]), n)))
    fields = zip(*(c.tolist() for c in cols), weights.tolist())
    return [",".join(map(repr, row)) for row in fields]


def _header(kind: str) -> str:
    if kind == "scalar":
        return "x,weight"
    if kind == "complex":
        return "re,im,weight"
    return ",".join(f"x{i}" for i in range(int(kind.split(":")[1]))) + ",weight"


def session_digest(ladders=LADDERS) -> tuple[str, int]:
    """The SHA-256 of the session over ``ladders`` and its command count."""
    digest, commands = hashlib.sha256(), 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:

            def run(state: str, command: str, *options: str) -> int:
                nonlocal commands
                argv = [command, "--state", state, *options]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                doc = Path(state).read_bytes() if Path(state).is_file() else b""
                digest.update(repr((argv, code, out.getvalue(), err.getvalue(), doc)).encode())
                commands += 1
                return code

            for i, (kind, orders, extra, queried, n_star) in enumerate(ladders):
                state, absorbed = f"s{i}.json", []
                run(state, "init", "--orders", orders, "--kind", kind, *extra)
                for j, n in enumerate(APPEND_SIZES):
                    batch = f"b{i}_{j}.csv"
                    rows = _rows(kind, n, np.random.default_rng([i, j]))
                    Path(batch).write_text("\n".join([_header(kind), *rows]) + "\n")
                    if run(state, "append", "--batch", batch) == 0:
                        absorbed += rows
                    for selector in ("--count", "--z", "--mean"):
                        run(state, "query", selector)
                    for order in queried:
                        run(state, "query", "--order", order)
                    n_star_option = ("--n-star", str(n_star))
                    run(state, "metric", *n_star_option, "--provider", "exp:1,0.1")
                    run(state, "metric", *n_star_option, "--provider", "sin:1,0.5", "--batch", batch)
                Path("all.csv").write_text("\n".join([_header(kind), *absorbed]) + "\n")
                run(state, "verify", "--data", "all.csv")
        finally:
            os.chdir(cwd)
    return digest.hexdigest(), commands


if __name__ == "__main__":
    hexdigest, count = session_digest()
    print(f"{hexdigest}  {count} commands")
