"""The state types: the ladder of stored orders, and the empty and
non-empty accumulator states that persistence keeps.

They are apart from the update code in ``accumulator`` so that a command
that only reads a state document (``init``, ``query``) loads these and not
the update kernel; ``accumulator`` imports them back, so
``momentflow.accumulator.MomentState`` is this module's class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .binomial import MAX_EXACT_ORDER
from .elements import Kind, Payload, one_payload, zero_payload
from .errors import BadLadderSpec, LadderMismatch, OrderNotInLadder

# How deep a series over the ladder runs by default: the stored chain of a
# fractional order (init --frac-depth), and a metric's Taylor sum
# (metrics.MetricSpec, metric --n-star).
DEFAULT_FRACTIONAL_CUTOFF = 12
DEFAULT_TRUNCATION = 14


def _is_integer_order(order: float) -> bool:
    return float(order).is_integer()


@dataclass(frozen=True)
class OrderLadder:
    """The sorted set of moment orders an accumulator maintains.

    Integer orders must be >= 2 and gap-free down to 2: the re-centering
    recurrence for order n consumes every stored integer order below it.
    Non-integer orders (including negative ones needed by fractional
    updates) are accepted as-is. Orders 0 and 1 are never stored; their
    moments are the exact constants 1 and 0.
    """

    orders: tuple[float, ...]

    def __init__(self, orders: Iterable[float]) -> None:
        normalized = sorted({float(o) for o in orders})
        if not normalized:
            raise BadLadderSpec("ladder must contain at least one order")
        for o in normalized:
            if not math.isfinite(o):
                raise BadLadderSpec(f"ladder order must be finite, got {o!r}")
            if _is_integer_order(o):
                if o < 2:
                    raise BadLadderSpec(
                        f"integer ladder order must be >= 2, got {int(o)} "
                        "(orders 0 and 1 are the exact constants 1 and 0)"
                    )
                if o > MAX_EXACT_ORDER:
                    raise BadLadderSpec(
                        f"integer ladder order {int(o)} exceeds {MAX_EXACT_ORDER}"
                    )
        ints = [int(o) for o in normalized if _is_integer_order(o)]
        if ints:
            expected = list(range(2, ints[-1] + 1))
            if ints != expected:
                missing = sorted(set(expected) - set(ints))
                raise BadLadderSpec(
                    f"integer orders must be gap-free from 2: missing {missing}"
                )
        object.__setattr__(self, "orders", tuple(normalized))

    @classmethod
    def integer_range(cls, lo: int, hi: int) -> "OrderLadder":
        if lo < 2 or hi < lo:
            raise BadLadderSpec(f"bad integer range {lo}..{hi}")
        return cls(range(lo, hi + 1))

    @cached_property
    def integer_orders(self) -> tuple[int, ...]:
        return tuple(int(o) for o in self.orders if _is_integer_order(o))

    @cached_property
    def fractional_orders(self) -> tuple[float, ...]:
        return tuple(o for o in self.orders if not _is_integer_order(o))

    @cached_property
    def _order_set(self) -> frozenset[float]:
        return frozenset(self.orders)

    @property
    def max_integer_order(self) -> int | None:
        ints = self.integer_orders
        return ints[-1] if ints else None

    def __contains__(self, order: float) -> bool:
        return order in self._order_set

    def __len__(self) -> int:
        return len(self.orders)


def fractional_chain(target: float, depth: int) -> tuple[float, ...]:
    """Orders target-k for k = 0..depth: what a fractional update consumes."""
    if _is_integer_order(target):
        raise BadLadderSpec(f"fractional chain needs a non-integer target, got {target}")
    if depth < 0:
        raise BadLadderSpec(f"chain depth must be >= 0, got {depth}")
    return tuple(float(target) - k for k in range(depth + 1))


def expand_fractional_targets(
    orders: Iterable[float], depth: int = DEFAULT_FRACTIONAL_CUTOFF
) -> tuple[float, ...]:
    """Close a requested order set over the chains its fractional targets need."""
    out = {float(o) for o in orders}
    for o in sorted(out):
        if not _is_integer_order(o):
            out.update(fractional_chain(o, depth))
    return tuple(sorted(out))


@dataclass(frozen=True)
class EmptyState:
    """A configured accumulator that has absorbed no data yet."""

    kind: Kind
    dim: int | None
    ladder: OrderLadder


@dataclass(frozen=True, eq=False)
class MomentState:
    """The compact accumulator; immutable, and all that persistence keeps.

    ``values`` holds the stored moments, one payload per order of
    ``ladder.orders`` and in that order. A vector state's mean and moment
    arrays are made read-only here, on every path that builds a state.
    """

    kind: Kind
    dim: int | None
    ladder: OrderLadder
    z: float
    mean: Payload
    count: int
    values: tuple[Payload, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if len(values) != len(self.ladder):
            raise LadderMismatch(
                f"{len(values)} stored moments for a ladder of {len(self.ladder)} orders"
            )
        object.__setattr__(self, "values", values)
        if self.kind is Kind.VECTOR:
            for value in (self.mean, *values):
                value.flags.writeable = False

    @cached_property
    def moments(self) -> Mapping[float, Payload]:
        """The stored moments by order, read-only; built on first use."""
        return MappingProxyType(dict(zip(self.ladder.orders, self.values)))

    def moment(self, order: float) -> Payload:
        """M_order; orders 0 and 1 are the exact constants 1 and 0."""
        o = float(order)
        if o == 0.0:
            return one_payload(self.kind, self.dim)
        if o == 1.0:
            return zero_payload(self.kind, self.dim)
        try:
            return self.moments[o]
        except KeyError:
            raise OrderNotInLadder(f"order {order} is not in the ladder") from None




AnyState = Union[MomentState, EmptyState]
