"""binomial_row: exact rows up to MAX_EXACT_ORDER, refused past it; the
kernel's float rows: exact through order 56."""

from math import comb

import pytest

from momentflow.accumulator import _table
from momentflow.binomial import MAX_EXACT_ORDER, binomial_row
from momentflow.errors import MaxOrderExceeded
from momentflow.states import OrderLadder


def test_small_rows_by_value():
    assert binomial_row(0) == (1,)
    assert binomial_row(1) == (1, 1)
    assert binomial_row(5) == (1, 5, 10, 10, 5, 1)


def test_the_top_row_holds_the_largest_exact_coefficient():
    assert MAX_EXACT_ORDER == 62
    assert binomial_row(62)[31] == 465428353255261088


def test_every_row_is_symmetric_and_sums_to_a_power_of_two():
    for n in range(MAX_EXACT_ORDER + 1):
        row = binomial_row(n)
        assert len(row) == n + 1
        assert row == row[::-1]
        assert sum(row) == 2**n


def test_orders_outside_the_exact_range_are_refused():
    with pytest.raises(MaxOrderExceeded):
        binomial_row(MAX_EXACT_ORDER + 1)
    with pytest.raises(ValueError):
        binomial_row(-1)


def test_kernel_rows_hold_exact_binomials_through_order_56_only():
    # The kernel's table holds each integer row as floats: every
    # coefficient is representable through order 56, and order 57 is the
    # first row where some round.
    table = _table(OrderLadder.integer_range(2, 57), tuple(float(n) for n in range(2, 58)))
    rows = dict(zip(table.orders, table.coef))
    for n in range(2, 57):
        assert list(rows[float(n)]) == [comb(n, k) for k in range(n + 1)], n
    assert sum(c != comb(57, k) for k, c in enumerate(rows[57.0])) == 2
