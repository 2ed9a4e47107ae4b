"""System benchmark for momentflow: whole CLI commands, end to end and by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload append-small --seed 1 --seconds 20 --trace 0

One client drives ``momentflow.cli.main(argv)`` in this process in a closed
loop: each command starts when the previous one returned. A run is

1. set-up: generate the seeded batch CSVs, ``init`` each state document and
   append its first batch (the ``from_batch`` path);
2. the loop, for ``--seconds``: the workload's cycle of appends and reads
   (see workloads.py), repeated. After every ``cold_every`` cycles one
   fresh-process ``python -m momentflow`` command runs, one child at a
   time, and after every ``setup_every`` cycles the set-up is repeated in
   a side directory, so ``setup_s`` is a median over the whole run;
   after every command of a cycle the run times reference() (below);
3. the result check (check.py), untimed.

With ``--trace 1`` the loop alternates traced and untraced cycles; the
traced ones record spans around each layer's public functions (tracer.py)
and the untraced ones give the tracing overhead. Each fresh-process
command is then joined by a bare interpreter and an ``import
momentflow.cli`` child, whose difference is the import time.

End-to-end metrics (``--trace 0``), from wall-clock times:

- ``setup_s``: median set-up time; ``append_p50_ms``/``append_p90_ms``:
  in-process append latency; ``records_per_s``: median over cycles of
  records appended per second of append time; ``query_p50_ms``,
  ``metric_p50_ms``, ``metric_update_p50_ms``: read latencies;
  ``cold_cmd_p50_ms``: fresh-process command latency; ``peak_rss_mb``:
  peak resident memory of this process before the result check.

The timings are scaled to a fixed machine speed: after every command of a
cycle the run times reference(), a fixed computation that never calls
momentflow, and each timing is multiplied by REFERENCE_MS over the median
of the GAUGE_WINDOW reference times nearest to it. The local median follows
the machine's speed as it drifts within a run, so a slow phase scales down
the samples taken in it instead of stretching the tail. A fresh-process
command spends most of its time starting an interpreter and loading numpy,
which speeds up and slows down apart from reference(), and by the same
number of ms for any process that does it: in an untraced run each one is
followed by a ``python -c "import numpy"`` child, and ``cold_cmd_p50_ms``
takes the local median of those out of each command's time and puts
COLD_REFERENCE_MS in its place.

A few per cent of fsync calls on a shared disk wait 10-40x their median,
in phases set by other tenants' disk use, and that share decides an
append's p90. So an untraced run also times each ``os.fsync`` that
momentflow.statefile makes (one clock pair per call, as the tracer does),
and the time of an in-process command or a set-up is reported as its time
without its fsync waits, scaled as above, plus its fsync calls at the
run's median fsync wait. Removing or adding an fsync, or making the median
one slower, still shows; an unlucky wait does not. The table prints each
raw value beside the adjusted one, and the traced run reports the median
reference time as ``bench.reference_ms``.

Per-layer metrics (``--trace 1``) are listed in tracer.py. The figures
that depend on the seed alone (``accumulator.max_rel_err`` and the
fractional outcome) are taken at a fixed checkpoint cycle, so they repeat
exactly; commands that failed are the JSON's ``failed`` over ``attempted``.

Every figure is printed as a table with its sample count; the last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every command succeeded and the
result check passed.
``--workload all`` runs every workload untraced and traced, one after the
other, and prints each table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

import check
import tracer as tracing
from workloads import METRIC_N_STAR, METRIC_PROVIDER, WORKLOADS, Doc, Workload, generate_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

CHILD_TIMEOUT_S = 60
METRIC_A, METRIC_B = (float(v) for v in METRIC_PROVIDER.split(":", 1)[1].split(","))

# Timings are reported at the machine speed at which reference() takes this
# long. The speed this benchmark gets drifts by up to 2x within tens of
# seconds on a shared machine (other tenants, not this process), and a run's
# raw figures move with it; the tail, which mixes fast and slow phases,
# moves most.
REFERENCE_MS = 0.5
# Each timing is scaled by the median of this many reference times, centred
# on the command: tens of ms of small commands, about a second of bulk
# appends. A narrow window follows fast drift; the median keeps one slow
# reference time from moving it.
GAUGE_WINDOW = 11
# Fresh-process commands are reported as if a child that only imports numpy
# took this long; the median of this many such children, centred on the
# command, is what it took.
COLD_REFERENCE_MS = 150.0
COLD_GAUGE_WINDOW = 5
_REFERENCE_TEXT = [repr(i * 0.001234567 + 0.5) for i in range(800)]
_REFERENCE_ARRAY = np.linspace(-2.0, 2.0, 4096)


def reference() -> float:
    """Time in ms of a fixed computation like the program's own work (parse
    decimal floats, multiply and sum, numpy power sums, dump hex floats as
    JSON, sha256), that never calls momentflow: a gauge of how fast the
    machine is running."""
    t0 = perf_counter_ns()
    xs = [float(v) for v in _REFERENCE_TEXT]
    acc = 0.0
    for x in xs:
        acc += x * x * x
    p = _REFERENCE_ARRAY.copy()
    for _ in range(8):
        p *= _REFERENCE_ARRAY
        acc += float(p.sum())
    doc = json.dumps({"v": [x.hex() for x in xs[:300]], "acc": acc}, sort_keys=True)
    hashlib.sha256(doc.encode("ascii")).hexdigest()
    return (perf_counter_ns() - t0) / 1e6


def local_median(xs: list[float], window: int) -> np.ndarray:
    """Element k: the median of the ``window`` values of xs centred on k."""
    r = np.asarray(xs)
    half = window // 2
    return np.array([np.median(r[max(0, k - half):k + half + 1]) for k in range(len(r))])


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Failure(Exception):
    """The result check found a mismatch."""


class Bench:
    def __init__(self, mf, workload: Workload, seed: int, workdir: Path, trace: bool) -> None:
        self.mf = mf
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.traced = False  # whether the tracer is installed right now
        self.samples: dict[str, list[float]] = defaultdict(list)
        # For each sample, the index in refs of the latest reference time
        # when it was recorded (for a command in a cycle, the one right after it).
        self.at: dict[str, list[int]] = defaultdict(list)
        # For each sample of in-process work: the ms and number of fsync
        # calls within it (untraced runs).
        self.fsync: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.fsync_calls: list[float] = []  # ms of every fsync the program made
        self.fsync_ms = 0.0  # their sum
        self.cmd_fsync = (0.0, 0)  # fsync ms and calls in the last command
        self.refs: list[float] = []
        self.gauging = False  # whether to time reference() after each command
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.inputs: dict = {}
        self.absorbed: dict[str, list[int]] = {}  # pool indices appended, per document
        self.count: dict[str, int] = {}  # records absorbed, per document
        self.cursor: dict[str, int] = {}
        self.warned: dict[str, list[bool]] = {}  # per timed append: did the target warn
        self.cycles = 0
        self.cycle_ns: dict[bool, list[int]] = {True: [], False: []}
        self.cmds_per_cycle = len(workload.docs) * (workload.appends_per_cycle + 3)
        self.cmd_ns = 0  # command time so far
        self.phase = "setup"
        self.traced_cmds: dict[str, set[int]] = {"setup": set(), "loop": set()}
        self.checkpoint: dict[str, list[int]] | None = None

    # -- commands ----------------------------------------------------------

    def state(self, doc: Doc) -> Path:
        return self.dir / f"{doc.name}.json"

    def cli(self, argv: list[str]) -> tuple[int, str, str, int]:
        """Run one command in this process; returns (code, stdout, stderr, ns)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        mark = self.fsync_mark()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                if self.traced:
                    code = self.tracer.command(self.mf.cli.main, argv)
                else:
                    code = self.mf.cli.main(argv)
            except Exception:  # a crash is a failed command, not a crashed benchmark
                code = -1
                err.write(traceback.format_exc())
            t1 = perf_counter_ns()
        self.cmd_ns += t1 - t0
        self.cmd_fsync = self.fsync_since(mark)
        if self.gauging:
            self.refs.append(reference())
        if self.traced:
            self.traced_cmds[self.phase].add(self.tracer.cmd)
        if code != 0:
            self.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return code, out.getvalue(), err.getvalue(), t1 - t0

    def record(self, key: str, value: float) -> None:
        self.samples[key].append(value)
        self.at[key].append(max(len(self.refs) - 1, 0))

    def record_cmd(self, key: str, ns: int) -> None:
        """Record an in-process command's time, with the fsync time within it."""
        self.record(key, ns / 1e6)
        self.fsync[key].append(self.cmd_fsync)

    def fsync_mark(self) -> tuple[float, int]:
        return self.fsync_ms, len(self.fsync_calls)

    def fsync_since(self, mark: tuple[float, int]) -> tuple[float, int]:
        return self.fsync_ms - mark[0], len(self.fsync_calls) - mark[1]

    def time_fsync(self) -> Callable[[], None]:
        """Time every os.fsync of momentflow.statefile; returns the undo."""
        statefile = self.mf.statefile
        real = statefile.os

        def fsync(fd: int) -> None:
            t0 = perf_counter_ns()
            try:
                real.fsync(fd)
            finally:
                ms = (perf_counter_ns() - t0) / 1e6
                self.fsync_calls.append(ms)
                self.fsync_ms += ms

        statefile.os = tracing.Proxy(real, fsync=fsync)
        return lambda: setattr(statefile, "os", real)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def next_batch(self, doc: Doc) -> int:
        i = self.cursor[doc.name]
        self.cursor[doc.name] = i % self.w.pool + 1
        return i

    def append(self, doc: Doc) -> None:
        i = self.next_batch(doc)
        b = self.inputs[doc.name][i]
        code, out, err, ns = self.cli(
            ["append", "--state", str(self.state(doc)), "--batch", str(b.path)]
        )
        self.absorbed_ok(doc, i, code, out)
        self.record_cmd("append", ns)
        if doc.frac_target is not None:
            # Lower chain orders at depth 0 always warn; only the target counts.
            target = f"warning: order {doc.frac_target!r} series not converged"
            self.warned[doc.name].append(any(line.startswith(target) for line in err.splitlines()))

    def absorbed_ok(self, doc: Doc, i: int, code: int, out: str) -> None:
        """Record an append of pool batch i, and check the count it printed."""
        if code != 0:
            return
        n = len(self.inputs[doc.name][i].weights)
        self.absorbed[doc.name].append(i)
        self.count[doc.name] += n
        if f"appended {n} records: count={self.count[doc.name]} " not in out:
            self.fail(f"append printed {out.strip()!r}, expected count={self.count[doc.name]}")

    def read(self, doc: Doc, op: str) -> None:
        state = ["--state", str(self.state(doc))]
        if op == "query":
            argv = ["query", *state, "--order", doc.query_order]
        else:
            argv = ["metric", *state, "--provider", METRIC_PROVIDER, "--n-star", METRIC_N_STAR]
            if op == "metric_update":  # the metric after appending the next batch
                argv += ["--batch", str(self.inputs[doc.name][self.cursor[doc.name]].path)]
        code, out, _err, ns = self.cli(argv)
        self.record_cmd(op, ns)
        if code == 0 and not _finite_output(op, out):
            self.fail(f"{op} printed {out.strip()!r}")

    # -- phases ------------------------------------------------------------

    def setup(self, where: Path) -> dict:
        """Generate the inputs, init each document and append its first batch.

        Records the time as a ``setup`` sample; returns the inputs.
        """
        mark = self.fsync_mark()
        t0 = perf_counter()
        if where.exists():
            shutil.rmtree(where)
        where.mkdir(parents=True)
        inputs = generate_inputs(self.w, self.seed, where)
        for doc in self.w.docs:
            state = str(where / f"{doc.name}.json")
            first = inputs[doc.name][0]
            self.cli(["init", "--state", state, "--orders", doc.orders, "--kind", doc.kind])
            code, out, _err, _ns = self.cli(["append", "--state", state, "--batch", str(first.path)])
            n = len(first.weights)
            if code == 0 and f"appended {n} records: count={n} " not in out:
                self.fail(f"first append printed {out.strip()!r}")
        self.record("setup", (perf_counter() - t0) * 1e3)
        self.fsync["setup"].append(self.fsync_since(mark))
        return inputs

    def start(self) -> None:
        """The set-up whose documents the loop then uses."""
        self.inputs = self.setup(self.dir)
        for doc in self.w.docs:
            self.absorbed[doc.name] = [0]
            self.count[doc.name] = len(self.inputs[doc.name][0].weights)
            self.cursor[doc.name] = 1
            self.warned[doc.name] = []

    def cycle(self) -> int:
        """One cycle of the workload; returns its command time in ns."""
        ns0 = self.cmd_ns
        self.gauging = True
        try:
            for doc in self.w.docs:
                for _ in range(self.w.appends_per_cycle):
                    self.append(doc)
            for doc in self.w.docs:
                for op in ("query", "metric", "metric_update"):
                    self.read(doc, op)
        finally:
            self.gauging = False
        return self.cmd_ns - ns0

    def loop(self, seconds: float) -> None:
        """Cycles until the deadline, with fresh-process commands and further
        set-ups interleaved on a fixed cycle schedule, so that those samples
        span the whole run and the documents' history depends on the seed alone."""
        self.phase = "loop"
        if self.trace:
            self.tracer.counts.clear()  # per-cycle counts cover the loop only
        side = self.dir.with_name(self.dir.name + "-setup")
        gc.collect()
        end = perf_counter() + seconds
        while True:
            # In a traced run even cycles are traced and odd ones are not, and
            # the loop stops only after a pair, so both halves are equal.
            traced = self.trace and self.cycles % 2 == 0
            if traced:
                self.tracer.install(self.mf, self.batch_bytes())
            self.traced = traced
            try:
                self.cycle_ns[traced].append(self.cycle())
            finally:
                self.traced = False
                if traced:
                    self.tracer.uninstall()
            self.cycles += 1
            if self.cycles == self.w.checkpoint_cycles:
                self.take_checkpoint()
            if self.cycles % self.w.cold_every == 0:
                self.cold_step()
            if self.cycles % self.w.setup_every == 0:
                self.setup(side)
                shutil.rmtree(side)
            if (self.cycles >= self.w.min_cycles and perf_counter() >= end
                    and not (self.trace and self.cycles % 2)):
                break

    def batch_bytes(self) -> dict[str, int]:
        return {str(b.path): b.nbytes for pool in self.inputs.values() for b in pool}

    def take_checkpoint(self) -> None:
        self.checkpoint = {d: list(seq) for d, seq in self.absorbed.items()}
        for doc in self.w.docs:
            shutil.copyfile(self.state(doc), self.dir / f"checkpoint-{doc.name}.json")

    def child(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run ``python <args>`` as a child and wait for it; returns (ms, process)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.attempted += 1
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        ms = (perf_counter() - t0) * 1e3
        if proc.returncode != 0:
            self.fail(f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return ms, proc

    def cold_step(self) -> None:
        """One fresh-process command; in a traced run also one import-time pair."""
        n = len(self.samples["cold_cmd"])
        if self.w.cold_append and n % 2 == 0:
            doc = self.w.docs[0]
            i = self.next_batch(doc)
            ms, proc = self.child(["-m", "momentflow", "append", "--state", str(self.state(doc)),
                                   "--batch", str(self.inputs[doc.name][i].path)])
            self.absorbed_ok(doc, i, proc.returncode, proc.stdout)
        else:
            doc = self.w.docs[n % len(self.w.docs)]
            ms, proc = self.child(["-m", "momentflow", "query", "--state", str(self.state(doc)),
                                   "--order", doc.query_order])
        self.record("cold_cmd", ms)
        if not self.trace:
            self.record("cold_gauge", self.child(["-c", "import numpy"])[0])
        else:
            self.record("bare_interpreter", self.child(["-c", "pass"])[0])
            self.record("import_cli", self.child(["-c", "import momentflow.cli"])[0])

    # -- result check --------------------------------------------------------

    def data(self, doc: Doc, seq: list[int]) -> check.Data:
        pool = self.inputs[doc.name]
        return check.Data(np.concatenate([pool[i].values for i in seq]),
                          np.concatenate([pool[i].weights for i in seq]))

    def check_state(self, doc: Doc, path: Path, seq: list[int]) -> dict[str, float]:
        """Scaled errors of a stored document and of its metric outputs."""
        kind = doc.kind
        state = self.mf.load_state(path)
        data = self.data(doc, seq)
        errs = check.state_errors(self.mf, kind, state, data)
        nxt = self.inputs[doc.name][seq[-1] % self.w.pool + 1]
        base = ["metric", "--state", str(path), "--provider", METRIC_PROVIDER,
                "--n-star", METRIC_N_STAR]
        for key, argv, ref_data in (
            ("metric", base, data),
            ("metric_update", base + ["--batch", str(nxt.path)],
             data.plus(nxt.values, nxt.weights)),
        ):
            code, out, _err, _ns = self.cli(argv)
            try:
                errs[key] = check.metric_error(kind, out, ref_data, METRIC_A, METRIC_B)
            except ValueError:  # no parsable value: the command failed or printed junk
                errs[key] = math.inf
        return errs

    def result_check(self) -> dict[str, float]:
        """Check every document at the checkpoint and at the end.

        Raises Failure on any mismatch beyond check.TOLERANCE. Returns the
        largest errors and the fractional outcome; the checkpoint figures
        depend on the seed alone.
        """
        figures = {"max_rel_err": 0.0, "final_max_rel_err": 0.0,
                   "frac_nonconverged_ratio": 0.0, "frac_rel_err": 0.0}
        bad: list[str] = []
        for doc in self.w.docs:
            for label, path, seq in (
                ("checkpoint", self.dir / f"checkpoint-{doc.name}.json", self.checkpoint[doc.name]),
                ("final", self.state(doc), self.absorbed[doc.name]),
            ):
                errs = self.check_state(doc, path, seq)
                gated = {k: v for k, v in errs.items() if not k.startswith("frac:")}
                worst = max(gated.values())
                key = "max_rel_err" if label == "checkpoint" else "final_max_rel_err"
                figures[key] = max(figures[key], worst)
                bad += [f"{doc.name} {label} {k}: {v:.3e}" for k, v in gated.items()
                        if not v <= check.TOLERANCE]
                if label == "checkpoint" and doc.frac_target is not None:
                    figures["frac_rel_err"] = max(
                        figures["frac_rel_err"], errs[f"frac:M{doc.frac_target:g}"])
                    appends = self.w.checkpoint_cycles * self.w.appends_per_cycle
                    warned = self.warned[doc.name][:appends]
                    figures["frac_nonconverged_ratio"] = sum(warned) / len(warned)
        if bad:
            raise Failure("result check failed: " + "; ".join(bad[:8]))
        return figures


def _finite_output(op: str, out: str) -> bool:
    text = out.strip()
    if op != "query":
        text = text.split("value=", 1)[-1].split(" n_star=", 1)[0]
    try:
        v = json.loads(text)
    except ValueError:
        return False
    return all(math.isfinite(x) for x in (v if isinstance(v, list) else [v]))


def end_to_end(b: Bench) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """The end-to-end metrics, and a note on each: its raw value and sample count.

    Each sample is adjusted as the module docstring says before the median
    or percentile is taken, so the figures read as on a machine of fixed
    speed with a steady disk.
    """
    s = b.samples
    gauge = local_median(b.refs, GAUGE_WINDOW)
    fsync_ms = statistics.median(b.fsync_calls)

    def adjusted(key: str) -> np.ndarray:
        raw = np.asarray(s[key])
        if key == "cold_cmd":  # one gauge child per command
            return raw - local_median(s["cold_gauge"], COLD_GAUGE_WINDOW) + COLD_REFERENCE_MS
        scale = REFERENCE_MS / gauge[b.at[key]]
        if key not in b.fsync:
            return raw * scale
        f = np.asarray(b.fsync[key]).reshape(-1, 2)  # (fsync ms, fsync calls) per sample
        return (raw - f[:, 0]) * scale + f[:, 1] * fsync_ms

    k = len(b.w.docs) * b.w.appends_per_cycle  # appends per cycle
    records = sum(d.batch_records for d in b.w.docs) * b.w.appends_per_cycle

    def records_per_s(append_ms: list[float]) -> float:
        """Median over cycles of records appended over the cycle's append time."""
        ms = np.asarray(append_ms)
        return statistics.median(
            records / (ms[i:i + k].sum() / 1e3) for i in range(0, len(ms) - k + 1, k))

    def p90(xs: list[float]) -> float:
        return percentile(list(xs), 0.9)

    n_append = len(s["append"])
    beyond = n_append - math.ceil(0.9 * n_append)
    rows = {  # name: (sample key, statistic, unit, note)
        "setup_s": (
            "setup", lambda xs: statistics.median(xs) / 1e3, "s",
            f"median of {len(s['setup'])} set-ups"),
        "append_p50_ms": ("append", statistics.median, "ms", f"n={n_append}"),
        "append_p90_ms": (
            "append", p90, "ms",
            f"n={n_append}, {beyond} beyond"
            + ("" if beyond >= 10 else ", fewer than 10: tail undersampled"),
        ),
        "records_per_s": ("append", records_per_s, "1/s", f"median of {n_append // k} cycles"),
        "query_p50_ms": ("query", statistics.median, "ms", f"n={len(s['query'])}"),
        "metric_p50_ms": ("metric", statistics.median, "ms", f"n={len(s['metric'])}"),
        "metric_update_p50_ms": (
            "metric_update", statistics.median, "ms", f"n={len(s['metric_update'])}"),
        "cold_cmd_p50_ms": ("cold_cmd", statistics.median, "ms", f"n={len(s['cold_cmd'])}"),
    }
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    for name, (key, stat, unit, note) in rows.items():
        metrics[name] = (float(stat(adjusted(key))), unit)
        notes[name] = f"raw {stat(s[key]):.6g} {unit}, {note}"
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes["peak_rss_mb"] = "before the result check"
    notes["setup_s"] += (f"; reference() median {statistics.median(b.refs):.4g} ms over "
                         f"{len(b.refs)} commands, local medians {gauge.min():.4g}..{gauge.max():.4g}")
    notes["append_p50_ms"] += (f"; fsync median {fsync_ms:.4g} ms, p99 "
                               f"{percentile(b.fsync_calls, 0.99):.4g} ms over {len(b.fsync_calls)} calls")
    notes["cold_cmd_p50_ms"] += f"; numpy-import child median {statistics.median(s['cold_gauge']):.4g} ms"
    return metrics, notes


def per_layer(b: Bench) -> dict[str, tuple[float, str]]:
    t = b.tracer
    cycles = len(b.cycle_ns[True])
    loop = tracing.summarize(t.spans, b.traced_cmds["loop"], cycles)
    setup = tracing.summarize(t.spans, b.traced_cmds["setup"], 1)
    c = t.counts
    out: dict[str, tuple[float, str]] = {}
    root = loop[tracing.ROOT]
    out["cli.main.calls"] = (root["calls"], "count")
    out["cli.main.self.p50_ms"] = (root["self_p50_ms"], "ms")
    out["cli.main.self.share"] = (root["self_share"], "ratio")
    out["cli.import_ms"] = (
        statistics.median(b.samples["import_cli"]) - statistics.median(b.samples["bare_interpreter"]),
        "ms")
    for name in tracing.SPANS:
        st = setup[name] if name == "accumulator.from_batch" else loop[name]
        out[f"{name}.calls"] = (st["calls"], "count")
        out[f"{name}.p50_ms"] = (st["p50_ms"], "ms")
        out[f"{name}.share"] = (st["share"], "ratio")
    cmds = c[tracing.ROOT]
    out["statefile.compute_digest.calls_per_cmd"] = (c["statefile.compute_digest"] / cmds, "count")
    out["statefile.doc_bytes"] = (c["statefile.doc_bytes"] / max(c["statefile.dumps_state"], 1), "B")
    out["batchfile.read_batch_csv.ns_per_record"] = (
        loop["batchfile.read_batch_csv"]["total_ns"] / max(c["batchfile.records"], 1), "ns")
    out["batchfile.records"] = (c["batchfile.records"] / cycles, "count")
    out["batchfile.bytes"] = (c["batchfile.bytes"] / cycles, "B")
    out["accumulator.append_batch.ns_per_record_order"] = (
        loop["accumulator.append_batch"]["total_ns"]
        / max(c["accumulator.append_batch.record_orders"], 1), "ns")
    out["accumulator.update_fractional.calls_per_append"] = (
        c["accumulator.update_fractional"] / max(c["accumulator.append_batch"], 1), "count")
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_share"] = (loop[f"layer.{layer}"]["self_share"], "ratio")
    traced = statistics.median(b.cycle_ns[True])
    plain = statistics.median(b.cycle_ns[False])
    out["trace.overhead_share"] = (traced / plain - 1.0, "ratio")
    out["trace.overhead_ms_per_cmd"] = ((traced - plain) / 1e6 / b.cmds_per_cycle, "ms")
    out["bench.reference_ms"] = (statistics.median(b.refs), "ms")
    return out


def run_workload(mf, workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    workdir = WORK / f"{workload.name}-s{seed}"
    b = Bench(mf, workload, seed, workdir, trace)
    metrics: dict[str, tuple[float, str]] = {}
    extra: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    correct = True
    try:
        untime_fsync = None if trace else b.time_fsync()
        try:
            if trace:  # the from_batch spans come from this set-up
                b.tracer.install(mf, {})
                b.traced = True
            try:
                b.start()
            finally:
                b.traced = False
                if trace:
                    b.tracer.uninstall()
            b.loop(seconds)
        finally:
            if untime_fsync is not None:
                untime_fsync()
        if not trace:
            metrics, notes = end_to_end(b)
        figures = b.result_check()
        accuracy = {
            "accumulator.max_rel_err": (figures["max_rel_err"], "ratio"),
            "accumulator.frac_nonconverged_ratio": (figures["frac_nonconverged_ratio"], "ratio"),
            "accumulator.frac_rel_err": (figures["frac_rel_err"], "ratio"),
        }
        if trace:
            metrics = {**per_layer(b), **accuracy}
            WORK.mkdir(exist_ok=True)
            b.tracer.write(WORK / f"spans-{workload.name}.jsonl")
        else:
            extra.update(accuracy)
        extra["final_max_rel_err"] = (figures["final_max_rel_err"], "ratio")
    except Failure as e:
        correct = False
        b.errors.append(str(e))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and b.failed == 0
    extra["ops_failed_ratio"] = (b.failed / max(b.attempted, 1), "ratio")
    notes["ops_failed_ratio"] = f"{b.failed} of {b.attempted} commands"

    print(f"# momentflow benchmark: workload={workload.name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} cycles={b.cycles}")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:16.6g} {unit}{note}")
    for msg in b.errors:
        print(f"# error: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT,
            )
            status = status or proc.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "momentflow" / "__init__.py").is_file():
        print(f"error: no momentflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import momentflow
    import momentflow.cli  # noqa: F401  (binds momentflow.cli for the tracer)

    if Path(momentflow.__file__).resolve().parent != SRC / "momentflow":
        print(f"error: imported momentflow from {momentflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(momentflow, WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
