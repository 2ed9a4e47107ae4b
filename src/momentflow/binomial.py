"""Exact binomial coefficients.

Coefficients are computed with the multiplicative recurrence in exact
integer arithmetic and capped at order 62, the largest order whose central
coefficient still fits a 64-bit integer; exactness here beats any drift a
floating recurrence would accumulate.
"""

from __future__ import annotations

from functools import lru_cache

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
    row = [1]
    c = 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(c)
    return tuple(row)

