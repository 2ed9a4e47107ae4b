"""Exact binomial coefficients.

Coefficients are math.comb's exact integers, capped at order 62, the
largest order whose row sum 2**n still fits a signed 64-bit integer;
exactness here beats any drift a floating recurrence would accumulate.
The update kernel (accumulator._table) uses them as floats, which hold
every coefficient exactly only through order 56: from order 57 some are
not representable as floats and round, 2 of them at order 57 and 21 at
order 62.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import MaxOrderExceeded

MAX_EXACT_ORDER = 62


@lru_cache(maxsize=None)
def binomial_row(n: int) -> tuple[int, ...]:
    """All coefficients (n choose 0..n), exact."""
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    if n > MAX_EXACT_ORDER:
        raise MaxOrderExceeded(
            f"order {n} exceeds the exact-binomial ceiling {MAX_EXACT_ORDER}"
        )
    return tuple(comb(n, k) for k in range(n + 1))

