"""Spans around calls into momentflow's layers, recorded from outside.

Nothing in momentflow is edited. ``Tracer.install`` rebinds names *as the
calling module sees them* (``momentflow.cli.load_state``,
``momentflow.accumulator.update_fractional``, ...) to timing wrappers, and
``uninstall`` puts the originals back, so untraced commands run the
program's own code. Spans are kept in memory and written out at exit.

For each span the traced run reports ``.calls`` (per cycle, so it repeats
exactly), ``.p50_ms`` (median per call) and ``.share`` (of command time),
plus each layer's self time as ``layer.<name>.self_share``. What each
layer should move, written down before measuring:

- cli (``cli.main`` self time, ``cli.build_parser``, ``cli.import_ms``):
  ``append_p50_ms`` on append-small, ``query_p50_ms`` on frac-read-mix,
  ``cold_cmd_p50_ms`` everywhere; ingest-bulk should not move.
- statefile (lock, load, save, dumps, digest, fsync, ``doc_bytes``):
  ``append_p50_ms`` on append-small, the read latencies on frac-read-mix;
  ingest-bulk should not move.
- batchfile (``read_batch_csv``, ``Batch.from_values``, ``records``,
  ``bytes``): ``records_per_s`` on ingest-bulk.
- accumulator (``append_batch``, ``update_integer``,
  ``update_fractional``, ``from_batch``): ``records_per_s`` on
  ingest-bulk, ``append_p50_ms`` on frac-read-mix. ``from_batch`` runs
  only in set-up, so its figures are per set-up.
- metrics (``metric_from_moments``, ``metric_update``): ``metric_p50_ms``
  and ``metric_update_p50_ms`` on frac-read-mix.

The ``elements`` and ``binomial`` modules are reached only through
accumulator and metrics and count as part of them.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("cli", "statefile", "batchfile", "accumulator", "metrics")

# Spans whose .calls/.p50_ms/.share are reported, in report order.
# cli.main is the root span of every command; it is reported by self time.
SPANS = (
    "cli.build_parser",
    "statefile.state_lock",
    "statefile.load_state",
    "statefile.save_state",
    "statefile.dumps_state",
    "statefile.compute_digest",
    "statefile.fsync",
    "batchfile.read_batch_csv",
    "batchfile.Batch.from_values",
    "accumulator.append_batch",
    "accumulator.update_integer",
    "accumulator.update_fractional",
    "accumulator.from_batch",
    "metrics.metric_from_moments",
    "metrics.metric_update",
)

ROOT = "cli.main"


class Proxy:
    """Stands in for a module or class: overrides some attributes, forwards the rest."""

    def __init__(self, target: Any, **overrides: Any) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, command id, call id)
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.cmd = -1
        self._stack: list[int] = []
        self._calls = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn: Callable, *args: Any, call: int | None = None, **kw: Any) -> Any:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if call is None:
            call = self._new_call()
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kw)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.cmd, call)

    def _new_call(self) -> int:
        self._calls += 1
        return self._calls

    def command(self, fn: Callable, argv: list[str]) -> Any:
        """Run one command as the root span of a new command id."""
        self.cmd += 1
        self.counts[ROOT] += 1
        return self.timed(ROOT, fn, argv)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kw: Any) -> Any:
            result = self.timed(name, fn, *args, **kw)
            self.counts[name] += 1
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def wrap_context(self, name: str, fn: Callable) -> Callable:
        """Time entering and leaving a context manager as one call, not its body."""
        tracer = self

        class _Timed:
            def __init__(self, cm: Any) -> None:
                self.cm = cm
                self.call = tracer._new_call()

            def __enter__(self) -> Any:
                return tracer.timed(name, self.cm.__enter__, call=self.call)

            def __exit__(self, *exc: Any) -> Any:
                return tracer.timed(name, self.cm.__exit__, *exc, call=self.call)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kw: Any) -> _Timed:
            self.counts[name] += 1
            return _Timed(fn(*args, **kw))

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, obj: Any, attr: str, new: Any) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self, mf: Any, batch_bytes: dict[str, int]) -> None:
        """Wrap the layer boundaries of the imported ``momentflow`` package ``mf``."""
        cli, statefile, batchfile, acc = mf.cli, mf.statefile, mf.batchfile, mf.accumulator

        def count_batch(counts: Counter, args: tuple, batch: Any) -> None:
            counts["batchfile.records"] += batch.size
            counts["batchfile.bytes"] += batch_bytes.get(str(args[0]), 0)

        def count_record_orders(counts: Counter, args: tuple, result: Any) -> None:
            state, batch = args[0], args[1]
            counts["accumulator.append_batch.record_orders"] += batch.size * len(state.ladder)

        def count_doc_bytes(counts: Counter, args: tuple, text: str) -> None:
            counts["statefile.doc_bytes"] += len(text)

        self._patch(cli, "build_parser", self.wrap("cli.build_parser", cli.build_parser))
        self._patch(cli, "state_lock", self.wrap_context("statefile.state_lock", cli.state_lock))
        self._patch(cli, "load_state", self.wrap("statefile.load_state", cli.load_state))
        self._patch(cli, "save_state", self.wrap("statefile.save_state", cli.save_state))
        self._patch(
            cli, "read_batch_csv",
            self.wrap("batchfile.read_batch_csv", cli.read_batch_csv, count_batch),
        )
        self._patch(
            cli, "append_batch",
            self.wrap("accumulator.append_batch", cli.append_batch, count_record_orders),
        )
        self._patch(
            cli, "metric_from_moments",
            self.wrap("metrics.metric_from_moments", cli.metric_from_moments),
        )
        self._patch(cli, "metric_update", self.wrap("metrics.metric_update", cli.metric_update))
        self._patch(
            statefile, "dumps_state",
            self.wrap("statefile.dumps_state", statefile.dumps_state, count_doc_bytes),
        )
        self._patch(
            statefile, "compute_digest",
            self.wrap("statefile.compute_digest", statefile.compute_digest),
        )
        self._patch(
            statefile, "os",
            Proxy(statefile.os, fsync=self.wrap("statefile.fsync", statefile.os.fsync)),
        )
        self._patch(
            batchfile, "Batch",
            Proxy(
                batchfile.Batch,
                from_values=self.wrap("batchfile.Batch.from_values", batchfile.Batch.from_values),
            ),
        )
        for name in ("update_integer", "update_fractional", "from_batch"):
            self._patch(acc, name, self.wrap(f"accumulator.{name}", getattr(acc, name)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="ascii") as f:
            for span in self.spans:
                if span is None:
                    continue
                name, t0, t1, parent, cmd, call = span
                f.write(
                    json.dumps(
                        {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent,
                         "cmd": cmd, "call": call}
                    )
                    + "\n"
                )


def summarize(spans: list, cmds: set[int], units: int) -> dict[str, dict[str, float]]:
    """Per-span statistics over the spans of the given command ids.

    ``calls`` is per unit (per cycle of the loop, or per set-up), so it
    repeats exactly; ``p50_ms`` is the median per call; ``share`` is the
    span's inclusive time over the root spans' total. Layer self time is
    each span's duration minus its children's, summed by layer.
    """
    chosen = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] in cmds]
    child_ns: dict[int, int] = defaultdict(int)
    for _, (name, t0, t1, parent, _cmd, _call) in chosen:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    per_call: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    total_ns: dict[str, int] = defaultdict(int)
    layer_self_ns: dict[str, int] = defaultdict(int)
    root_self: list[int] = []
    for i, (name, t0, t1, parent, _cmd, call) in chosen:
        dur = t1 - t0
        per_call[name][call] += dur
        total_ns[name] += dur
        self_ns = dur - child_ns[i]
        layer_self_ns[name.split(".", 1)[0]] += self_ns
        if name == ROOT:
            root_self.append(self_ns)

    cmd_ns = total_ns[ROOT] or 1
    out: dict[str, dict[str, float]] = {}
    for name in SPANS:
        durations = list(per_call[name].values())
        out[name] = {
            "calls": len(durations) / units,
            "p50_ms": statistics.median(durations) / 1e6 if durations else 0.0,
            "share": total_ns[name] / cmd_ns,
            "total_ns": total_ns[name],
        }
    out[ROOT] = {
        "calls": len(root_self) / units,
        "self_p50_ms": statistics.median(root_self) / 1e6 if root_self else 0.0,
        "self_share": (sum(root_self) / cmd_ns),
        "total_ns": total_ns[ROOT],
    }
    for layer in LAYERS:
        out[f"layer.{layer}"] = {"self_share": layer_self_ns[layer] / cmd_ns}
    return out
