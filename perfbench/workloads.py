"""Workload definitions and the seeded input generator.

A workload is a set of state documents plus one *cycle* of commands that
the closed loop repeats: every document receives its appends, then every
document gets the three reads (query, metric, metric with --batch). All
workloads run every command type, so every end-to-end metric is measured
on every workload; what differs is the shape of the data and which layer
the time goes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

METRIC_PROVIDER = "exp:1,0.1"
METRIC_N_STAR = "8"


@dataclass(frozen=True)
class Doc:
    """One state document and the batches appended to it."""

    name: str
    kind: str  # kind spec as the CLI takes it: scalar, complex or vector:D
    orders: str  # ladder spec as the CLI takes it
    batch_records: int
    query_order: str
    frac_target: float | None = None  # a fractional order whose warnings are counted


@dataclass(frozen=True)
class Workload:
    name: str
    docs: tuple[Doc, ...]
    appends_per_cycle: int  # appends to each document per cycle
    pool: int  # distinct batches generated per document; the loop cycles over them
    min_cycles: int  # the loop runs at least this many cycles, past the deadline if need be
    checkpoint_cycles: int  # deterministic figures are taken after this many cycles
    cold_every: int  # one fresh-process command after every this many cycles
    setup_every: int  # one more timed set-up after every this many cycles
    cold_append: bool  # fresh-process commands alternate append and query (else query only)

    def __post_init__(self) -> None:
        if not 0 < self.checkpoint_cycles <= self.min_cycles:
            raise ValueError(f"{self.name}: the checkpoint must fall within min_cycles")


WORKLOADS = {
    w.name: w
    for w in (
        # Tiny batches: the update math is a few percent of a command; the
        # rest is parser build, load with digest check, and digest + fsync save.
        Workload(
            name="append-small",
            docs=(Doc("scalar", "scalar", "2..20", 8, "2"),),
            appends_per_cycle=8,
            pool=16,
            min_cycles=200,
            checkpoint_cycles=25,
            cold_every=16,
            setup_every=8,
            cold_append=True,
        ),
        # Large batches: CSV parse, Batch construction and the per-record power
        # sums are nearly all of the time, and the documents stay 2-7 kB.
        Workload(
            name="ingest-bulk",
            docs=(
                Doc("scalar", "scalar", "2..20", 5000, "2"),
                Doc("complex", "complex", "2..20", 5000, "2"),
                Doc("vector8", "vector:8", "2..20", 1250, "2"),
            ),
            appends_per_cycle=2,
            pool=2,
            min_cycles=34,
            checkpoint_cycles=8,
            cold_every=2,
            setup_every=6,
            cold_append=False,
        ),
        # The 2.5 target at the default depth 12 adds 13 fractional orders, each
        # advanced by its own update_fractional call; the reads load and check
        # the document without saving it.
        Workload(
            name="frac-read-mix",
            docs=(Doc("complex", "complex", "2..8,2.5", 256, "2.5", frac_target=2.5),),
            appends_per_cycle=1,
            pool=16,
            min_cycles=360,
            checkpoint_cycles=100,
            cold_every=32,
            setup_every=32,
            cold_append=False,
        ),
    )
}


@dataclass
class BatchInput:
    """One generated batch: the CSV the program reads, and the same data as arrays."""

    path: Path
    values: np.ndarray  # (n,) float64 or complex128, or (n, d) float64
    weights: np.ndarray
    nbytes: int


def _header(kind: str) -> list[str]:
    if kind == "scalar":
        return ["x", "weight"]
    if kind == "complex":
        return ["re", "im", "weight"]
    dim = int(kind.split(":", 1)[1])
    return [f"x{i}" for i in range(dim)] + ["weight"]


def _columns(kind: str, values: np.ndarray) -> list[np.ndarray]:
    if kind == "scalar":
        return [values]
    if kind == "complex":
        return [values.real, values.imag]
    return [values[:, i] for i in range(values.shape[1])]


def generate_batch(rng: np.random.Generator, kind: str, n: int, path: Path) -> BatchInput:
    """Gaussian values, weights uniform in (0.05, 1]; written as Python float reprs."""
    if kind == "scalar":
        values = rng.standard_normal(n)
    elif kind == "complex":
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        values = rng.standard_normal((n, int(kind.split(":", 1)[1])))
    weights = 1.0 - rng.uniform(0.0, 0.95, n)
    # tolist() yields Python floats: a numpy scalar's repr is np.float64(...),
    # which the CSV reader rejects.
    cols = [c.tolist() for c in _columns(kind, values)] + [weights.tolist()]
    lines = [",".join(_header(kind))]
    lines.extend(",".join(map(repr, row)) for row in zip(*cols))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="ascii")
    return BatchInput(path=path, values=values, weights=weights, nbytes=len(text))


def generate_inputs(
    workload: Workload, seed: int, workdir: Path
) -> dict[str, list[BatchInput]]:
    """The batch pool of every document, from the seed alone.

    Batch 0 of a document is its first append (the from_batch path); the
    loop then cycles over batches 1..pool.
    """
    out: dict[str, list[BatchInput]] = {}
    for di, doc in enumerate(workload.docs):
        rng = np.random.default_rng([seed, di])
        out[doc.name] = [
            generate_batch(rng, doc.kind, doc.batch_records, workdir / f"{doc.name}-{i:04d}.csv")
            for i in range(workload.pool + 1)
        ]
    return out
