"""Command surface: init, append, query, metric, verify, bench.

State lives in a single document whose path comes from --state or the
MF_STATE environment variable. Exit codes: 0 success, 1 check failure,
2 validation error, 3 numeric domain error, 4 integrity (digest/lock)
error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable

from . import __version__
from .elements import (
    Kind,
    Payload,
    format_kind,
    norm_payload,
    parse_kind_spec,
    relative_error,
)
from .errors import (
    BadLadderSpec,
    BadProviderSpec,
    IntegrityError,
    MomentflowError,
    NumericError,
    ValidationError,
)
from .statefile import (
    load_state,
    loads_state,
    read_document,
    save_state,
    state_lock,
)
from .states import (
    DEFAULT_FRACTIONAL_CUTOFF,
    DEFAULT_TRUNCATION,
    EmptyState,
    OrderLadder,
    expand_fractional_targets,
)


@functools.cache
def _layer(name: str) -> ModuleType:
    """This package's module ``name``, imported by the first call for it,
    so that a command loads only the layers it runs."""
    return importlib.import_module(f".{name}", __package__)


def _on_first_call(module: str, name: str) -> Callable:
    """Stands in for function ``name`` of ``_layer(module)``, which it
    loads on its first call.

    The function found then is kept here, so a later call costs one more
    frame and no lookup. The stand-in never rebinds its own module-level
    name: a caller that replaced that name (perfbench's tracer wraps each of
    these) keeps its replacement.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(_layer(module), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# The handlers' calls into batch ingest, the update kernel and the metric
# engine. The handlers call them by these names, which are the tracer's
# patch points.
read_batch_csv = _on_first_call("batchfile", "read_batch_csv")
append_batch = _on_first_call("accumulator", "append_batch")
from_batch = _on_first_call("accumulator", "from_batch")
metric_update = _on_first_call("metrics", "metric_update")
metric_from_moments = _on_first_call("metrics", "metric_from_moments")

STATE_ENV_VAR = "MF_STATE"

# verify's default bound on each order's scaled error (elements.relative_error)
# between the stored moments and a from-scratch recomputation: loose enough for
# the rounding of honest appends, tight enough to flag a wrong moment. That
# rounding is about 1e-15 on data centred near 0 and grows with |mean| / spread:
# 300 appends of 8 unit-spread scalar records to 2..20 left 6e-9 at mean 1e6,
# and 1.5e-7 (so verify fails) at mean 1e7.
DEFAULT_VERIFY_TOL = 1e-8


def parse_orders_spec(spec: str) -> tuple[float, ...]:
    """Parse an order spec: comma-separated numbers and integer a..b ranges."""
    orders: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise BadLadderSpec(f"empty token in orders spec {spec!r}")
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise BadLadderSpec(
                    f"range {token!r} must be integer..integer"
                ) from None
            if hi < lo:
                raise BadLadderSpec(f"range {token!r} is empty")
            orders.extend(float(n) for n in range(lo, hi + 1))
        else:
            try:
                orders.append(float(token))
            except ValueError:
                raise BadLadderSpec(f"bad order {token!r} in spec {spec!r}") from None
    return tuple(orders)


def parse_provider_spec(spec: str):
    metrics = _layer("metrics")
    name, _, args = spec.partition(":")
    name = name.strip().lower()
    try:
        params = [float(a) for a in args.split(",")] if args else []
    except ValueError:
        raise BadProviderSpec(f"non-numeric parameter in provider spec {spec!r}") from None
    if name == "poly":
        if not params:
            raise BadProviderSpec("poly provider needs at least one coefficient")
        return metrics.PolynomialMetric(params)
    if name == "exp":
        if len(params) != 2:
            raise BadProviderSpec("exp provider needs exactly a,b")
        return metrics.ExponentialMetric(*params)
    if name == "sin":
        if len(params) != 2:
            raise BadProviderSpec("sin provider needs exactly a,b")
        return metrics.SinusoidMetric(*params)
    raise BadProviderSpec(f"unknown provider {name!r} (expected poly, exp or sin)")


def _format_payload(kind: Kind, p: Payload) -> str:
    if kind is Kind.SCALAR:
        return repr(p)
    if kind is Kind.COMPLEX:
        return json.dumps([p.real, p.imag])
    return json.dumps(list(map(float, p)))


def _state_path(args: argparse.Namespace) -> Path:
    if args.state:
        return Path(args.state)
    env = os.environ.get(STATE_ENV_VAR)
    if env:
        return Path(env)
    raise ValidationError(f"no state path: pass --state or set {STATE_ENV_VAR}")


def cmd_init(args: argparse.Namespace) -> int:
    kind, dim = parse_kind_spec(args.kind)
    requested = parse_orders_spec(args.orders)
    ladder = OrderLadder(expand_fractional_targets(requested, args.frac_depth))
    path = _state_path(args)
    with state_lock(path):
        if path.exists() and not args.force:
            raise ValidationError(f"{path} already exists (use --force to overwrite)")
        save_state(path, EmptyState(kind=kind, dim=dim, ladder=ladder))
    print(f"initialized {format_kind(kind, dim)} state with {len(ladder)} orders at {path}")
    return 0


def cmd_append(args: argparse.Namespace) -> int:
    path = _state_path(args)
    with state_lock(path):
        state = load_state(path)
        batch = read_batch_csv(args.batch, state.kind, state.dim)
        new_state, reports = append_batch(state, batch)
        save_state(path, new_state)
    for order, rep in sorted(reports.items()):
        if not rep.converged:
            print(
                f"warning: order {order} series not converged at cutoff "
                f"{rep.cutoff} (tol {rep.tol})",
                file=sys.stderr,
            )
    print(f"appended {batch.size} records: count={new_state.count} Z={new_state.z!r}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    path = _state_path(args)
    if args.format == "full-doc":
        text = read_document(path)
        loads_state(text)
        sys.stdout.write(text)
        return 0
    state = load_state(path)
    if isinstance(state, EmptyState):
        if args.count:
            print(0)
            return 0
        raise ValidationError("state is empty; only --count is defined")
    if args.count:
        print(state.count)
    elif args.z:
        print(repr(state.z))
    elif args.mean:
        print(_format_payload(state.kind, state.mean))
    elif args.order is not None:
        value = state.moment(args.order)
        print(_format_payload(state.kind, value))
    else:
        raise ValidationError("pass --order, --z, --mean or --count")
    return 0


def cmd_metric(args: argparse.Namespace) -> int:
    path = _state_path(args)
    state = load_state(path)
    if isinstance(state, EmptyState):
        raise ValidationError("state is empty; metrics need absorbed data")
    provider = parse_provider_spec(args.provider)
    spec = _layer("metrics").MetricSpec(provider=provider, n_star=args.n_star)
    if args.batch:
        batch = read_batch_csv(args.batch, state.kind, state.dim)
        result = metric_update(state, batch, spec)
    else:
        result = metric_from_moments(state, spec)
    print(
        f"value={_format_payload(state.kind, result.value)} "
        f"n_star={result.truncation_order} "
        f"tail_estimate={result.tail_estimate!r} "
        f"converged={result.converged}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    path = _state_path(args)
    state = load_state(path)
    if isinstance(state, EmptyState):
        raise ValidationError("state is empty; nothing to verify")
    full = read_batch_csv(args.data, state.kind, state.dim)
    oracle = from_batch(full, state.ladder)

    failures = 0
    if oracle.count != state.count:
        print(f"count mismatch: state={state.count} data={oracle.count}")
        failures += 1
    # The spread each order is judged against: the absolute second moment
    # (1/Z) sum w * d * conj(d), in from_batch's order of summation. On the
    # real kinds it is M2 itself; a complex M2 can cancel far below it.
    devs = (x - oracle.mean for x in full.records[0])
    m2 = sum(w * (d * d.conjugate()) for d, w in zip(devs, full.records[1])) / oracle.z
    m2_scale = norm_payload(oracle.kind, m2)
    for order, got, want in zip(state.ladder.orders, state.values, oracle.values):
        rel = relative_error(state.kind, got, want, m2_scale, order)
        ok = rel <= args.tol
        print(f"order={order:g} rel_err={rel:.3e} {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures += 1
    if failures:
        print(f"verify FAILED: {failures} mismatched check(s) at tol {args.tol}")
        return 1
    print(f"verify ok: {len(state.ladder)} orders within {args.tol}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported here so that no other command loads the benchmark harness.
    from .bench import BenchScenario, run_scenario, write_records_csv

    kind, dim = parse_kind_spec(args.kind)
    orders = parse_orders_spec(args.orders)
    int_orders = []
    for o in orders:
        if not float(o).is_integer():
            raise BadLadderSpec(f"bench orders must be integers, got {o}")
        int_orders.append(int(o))
    try:
        deltas = tuple(int(d.strip()) for d in args.deltas.split(","))
    except ValueError:
        raise ValidationError(f"bad deltas spec {args.deltas!r}") from None
    scenario = BenchScenario(
        kind=kind,
        base_size=args.N,
        deltas=deltas,
        orders=tuple(int_orders),
        repeats=args.repeats,
        seed=args.seed,
        dim=dim if dim is not None else 4,
    )
    records = run_scenario(scenario)
    write_records_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call.

    Every later call returns the same object, so callers must not mutate
    it (no add_argument, set_defaults or similar); ``parse_args`` only
    reads it and returns a fresh Namespace each time. Each subcommand's
    handler is bound on that first call, so rebinding a ``cmd_*`` name
    afterwards does not change dispatch.
    """
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description="Streaming weighted central moments with O(batch) appends.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", help=f"state document path (default: ${STATE_ENV_VAR})")

    p = sub.add_parser("init", help="create an empty state document")
    add_state(p)
    p.add_argument("--orders", required=True, help='ladder spec, e.g. "2..20" or "2,3,2.5"')
    p.add_argument("--kind", required=True, help="scalar, complex or vector:D")
    p.add_argument(
        "--frac-depth",
        type=int,
        default=DEFAULT_FRACTIONAL_CUTOFF,
        help="series depth stored for each fractional order (default %(default)s)",
    )
    p.add_argument("--force", action="store_true", help="overwrite an existing document")
    p.set_defaults(handler=cmd_init)

    p = sub.add_parser("append", help="absorb a batch CSV into the state")
    add_state(p)
    p.add_argument("--batch", required=True, help="batch CSV path")
    p.set_defaults(handler=cmd_append)

    p = sub.add_parser("query", help="print a stored quantity")
    add_state(p)
    p.add_argument("--order", type=float, help="moment order (0 and 1 are exact constants)")
    p.add_argument("--z", action="store_true", help="print the weight sum")
    p.add_argument("--mean", action="store_true", help="print the weighted mean")
    p.add_argument("--count", action="store_true", help="print the record count")
    p.add_argument("--format", choices=["plain", "full-doc"], default="plain")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("metric", help="evaluate a weighted metric from the state")
    add_state(p)
    p.add_argument(
        "--provider", required=True, help="poly:c0,c1,... | exp:a,b | sin:a,b"
    )
    p.add_argument("--batch", help="optional batch CSV: report the post-append metric")
    p.add_argument("--n-star", type=int, default=DEFAULT_TRUNCATION)
    p.set_defaults(handler=cmd_metric)

    p = sub.add_parser("verify", help="recompute from full data and compare")
    add_state(p)
    p.add_argument("--data", required=True, help="CSV of the complete retained dataset")
    p.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="run speedup scenarios, emit CSV")
    p.add_argument("--kind", default="scalar", help="scalar or vector:D")
    p.add_argument("--N", type=int, default=256, help="base dataset size")
    p.add_argument("--orders", default="2..20")
    p.add_argument("--deltas", default="1")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.handler(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except IntegrityError as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return 4
    except MomentflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
