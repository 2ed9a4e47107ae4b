"""The power rule (elements.pow_records, elements.pow_payload and the
per-record pass of accumulator._power_sums): d**q for q = f + k,
k = floor(q), as the root d**f followed by |k| multiplies by d (k > 0) or
divides by d (k < 0), each one rounding; an integer power starts at d.

For a half-integer q, (d**q)**2 = d**(2q), an integer power that exact
rational arithmetic gives, so both forms are checked against it, within
the bound the per-step error analysis gives.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from momentflow.accumulator import Batch, _power_sums
from momentflow.elements import Kind, left_sum, pow_payload, pow_records, zero_payload
from momentflow.errors import DomainError
from momentflow.states import OrderLadder, expand_fractional_targets

from conftest import by_position

EPS = 2.0**-52  # twice the unit roundoff u
HALF_ORDERS = [2.5 - k for k in range(13)]  # 2.5, 1.5, ..., -9.5

# Normwise relative error of each part of the rule, to first order, in
# units of u, taking each libm call (hypot, pow, atan2, cos, sin) within
# 1 ulp, that is 2u.
# The complex root |d|**f * (cos, sin)(f * Arg d), 0 < f < 1: 4u in the
# magnitude (hypot's 2u, times f, and pow's 2u); 3*pi*u of phase (atan2's
# 2u of |Arg d| <= pi, times f, and the product's u of pi), which moves the
# unit vector as far; 2u from cos and sin; u from the last two products.
COMPLEX_ROOT = 4 + 3 * math.pi + 2 + 1
# A complex multiply: sqrt(5)*u (Brent, Percival & Zimmermann, Math. Comp.
# 76, 2007; Higham, Accuracy and Stability of Numerical Algorithms, ch. 3),
# and 2u where the compiler fuses a multiply-add.
COMPLEX_UP = math.sqrt(5)
# A complex divide x/y by Smith's method, numpy's form, |c| >= |d| for
# y = c + id (the other branch is symmetric): r = d/c, then 1/(c + d*r)
# within 3u, as c + d*r cancels nothing; (a + b*r) and (b - a*r) within u
# of themselves plus 2u*|b*d/c| and 2u*|a*d/c|, and
# |d|/(c*c + d*d) <= 1/(sqrt(2)*|y|); one more u from the product. So 5u of
# |x/y| plus sqrt(2)*u of |x|/|y|. CPython divides by c + d*r instead,
# which is u better.
COMPLEX_DOWN = 5 + math.sqrt(2)
# The real kinds: the root within 1 ulp (2u), each step correctly rounded.
REAL_ROOT, REAL_STEP = 2, 1


def square_bound(kind, q):
    """The bound on |(d**q)**2 - d**(2q)| / |d**(2q)|, in eps: twice d**q's
    relative error in u, which is the root's plus |k| steps'."""
    k = math.floor(q)
    if kind is Kind.COMPLEX:
        return COMPLEX_ROOT + abs(k) * (COMPLEX_UP if k >= 0 else COMPLEX_DOWN)
    return REAL_ROOT + abs(k) * REAL_STEP


def exact_powers(d, top):
    """d**n for |n| <= top, exactly, as (real, imaginary) Fractions."""
    a, b = Fraction(d.real), Fraction(d.imag)
    re, im = Fraction(1), Fraction(0)
    out = {0: (re, im)}
    for n in range(1, top + 1):
        re, im = re * a - im * b, re * b + im * a
        norm2 = re * re + im * im
        out[n], out[-n] = (re, im), (re / norm2, -im / norm2)
    return out


def square_error(got, want):
    """|got**2 - want| / |want| in eps, got squared exactly."""
    gr, gi = Fraction(got.real), Fraction(got.imag)
    wr, wi = want
    dr, di = gr * gr - gi * gi - wr, 2 * gr * gi - wi
    return math.sqrt(float((dr * dr + di * di) / (wr * wr + wi * wi))) / EPS


def deviations(rng, kind, n):
    """|d| log-uniform over e**-3..e**3; a complex d's argument uniform."""
    modulus = np.exp(rng.uniform(-3.0, 3.0, n))
    if kind is Kind.SCALAR:
        return modulus
    return modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


@pytest.mark.parametrize("kind", [Kind.SCALAR, Kind.COMPLEX])
def test_half_integer_powers_square_to_the_exact_integer_power(rng, kind):
    d = deviations(rng, kind, 200)
    columns = by_position(pow_records(kind, d, HALF_ORDERS))
    worst = {}
    for i, x in enumerate(d.tolist()):
        exact = exact_powers(complex(x), 19)
        for q, column, alone in zip(HALF_ORDERS, columns, [pow_payload(kind, x, q) for q in HALF_ORDERS]):
            want = exact[int(2 * q)]
            err = max(square_error(complex(column[i]), want), square_error(complex(alone), want))
            worst[q] = max(worst.get(q, 0.0), err)
    ratios = {q: err / square_bound(kind, q) for q, err in worst.items()}
    assert max(ratios.values()) <= 1.0, ratios


def _rounded_sqrt(x, guess):
    """The float nearest the square root of the positive Fraction ``x``,
    searched from ``guess``."""
    y = guess
    while Fraction(y) ** 2 > x:
        y = math.nextafter(y, 0.0)
    while Fraction(math.nextafter(y, math.inf)) ** 2 <= x:
        y = math.nextafter(y, math.inf)
    up = math.nextafter(y, math.inf)
    return up if ((Fraction(y) + Fraction(up)) / 2) ** 2 < x else y


def _ulps(a, b):
    """How many floats apart two positive finite floats are."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0] - struct.unpack("<q", struct.pack("<d", b))[0])


def test_scalar_half_integer_powers_stay_within_the_walk_of_a_correctly_rounded_pow(rng):
    # The root is within 1 ulp and each of the |k| steps adds at most half
    # an ulp of relative error, which is at most an ulp of the result: so
    # the walk is within 2 + |k| ulp of the correctly rounded d**q.
    d = deviations(rng, Kind.SCALAR, 200)
    columns = by_position(pow_records(Kind.SCALAR, d, HALF_ORDERS))
    for i, x in enumerate(d.tolist()):
        exact = exact_powers(complex(x), 19)
        for q, column, alone in zip(
            HALF_ORDERS, columns, [pow_payload(Kind.SCALAR, x, q) for q in HALF_ORDERS]
        ):
            rounded = _rounded_sqrt(exact[int(2 * q)][0], alone)
            allowed = 2 + abs(math.floor(q))
            assert _ulps(alone, rounded) <= allowed
            assert _ulps(float(column[i]), rounded) <= allowed


def _bits(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


@pytest.mark.parametrize("kind", [Kind.SCALAR, Kind.COMPLEX])
@pytest.mark.parametrize("modulus", [1e-40, 1e40])
def test_a_deep_order_overflows_only_where_its_true_value_does(rng, kind, modulus):
    # d**-9.5 is near 1e380 for |d| = 1e-40, past the float range, and near
    # 1e-380 for |d| = 1e40, below it; d**2.5 is finite either way.
    orders = [2.5, -9.5]
    d = modulus * (np.ones(16) if kind is Kind.SCALAR else np.exp(1j * rng.uniform(-np.pi, np.pi, 16)))
    with np.errstate(all="ignore"):
        together = by_position(pow_records(kind, d, orders))
        for q, got in zip(orders, together):
            ((_, alone),) = pow_records(kind, d, [q])
            assert got.tobytes() == alone.tobytes()
        records = [[pow_payload(kind, x, q) for q in orders] for x in d.tolist()]
        for x, alone in zip(d.tolist(), records):
            walked = _power_sums(Batch.from_values(kind, [x], [1.0]), zero_payload(kind), tuple(orders), False)
            assert list(map(_bits, walked)) == [_bits(1.0 * p) for p in alone]
    column_low, column_deep = together
    for x, low, deep, (record_low, record_deep) in zip(d.tolist(), column_low, column_deep, records):
        want = exact_powers(complex(x), 5)[5]
        for value in (low, record_low):
            assert square_error(complex(value), want) <= square_bound(kind, 2.5)
        for value in (deep, record_deep):
            assert abs(value) == (math.inf if modulus < 1 else 0.0)


def test_a_zero_complex_deviation_keeps_its_domain_rule():
    column = np.array([1 + 1j, 0j, -2 + 0.5j])
    with pytest.raises(DomainError, match="zero complex base"):
        list(pow_records(Kind.COMPLEX, column, [2.5, -9.5]))
    with pytest.raises(DomainError, match="zero complex base"):
        _power_sums(Batch.from_values(Kind.COMPLEX, [0j], [1.0]), 0j, (2.5, -9.5), columnar=False)
    with pytest.raises(DomainError, match="zero complex base"):
        pow_payload(Kind.COMPLEX, 0j, -0.5)
    ((_, column_power),) = pow_records(Kind.COMPLEX, column, [2.5])
    walked = _power_sums(Batch.from_values(Kind.COMPLEX, [0j], [1.0]), 0j, (2.5, 0.5), columnar=False)
    assert column_power[1] == 0 and [pow_payload(Kind.COMPLEX, 0j, q) for q in (2.5, 0.5)] == walked == [0j, 0j]


class _Counted(np.ndarray):
    """An array that counts the ufunc calls made on it, by ufunc."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.calls[ufunc] = _Counted.calls.get(ufunc, 0) + 1
        out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


def test_a_column_walk_takes_one_step_per_unit_of_each_chains_farthest_distance(rng):
    # Chain 0.5 up reaches 2.5 (2 multiplies), chain 0.5 down reaches -9.5
    # (10 divides), whatever order the orders come in. The integer chain
    # starts at d itself: 2..5 take 4 multiplies, d*d and then one per unit,
    # where a walk from 1 would take a fifth, 1*d, which can flip the sign
    # of a complex zero.
    d = (0.5 + rng.random(16)).view(_Counted)
    for orders, steps in [
        ([-9.5, 2.5, -0.5, 0.5, 1.5], (2, 10)),
        ([2.0, 3.0, 5.0], (4, None)),
        ([5.0, -9.5, 2.5, 3.0, -0.5, 0.5, 2.0, 1.5], (6, 10)),
    ]:
        _Counted.calls = {}
        list(pow_records(Kind.SCALAR, d, orders))
        assert (_Counted.calls.get(np.multiply), _Counted.calls.get(np.divide)) == steps, orders


@pytest.mark.parametrize(
    "kind,value,orders",
    [
        (Kind.SCALAR, -0.5, [2.0, 2.5, -0.5]),
        (Kind.SCALAR, 0.0, [3.0, -1.0]),
        (Kind.VECTOR, np.array([1.0, 0.0]), [2.0, 0.5]),
        (Kind.COMPLEX, 0j, [2.5, -0.5]),
    ],
)
def test_both_forms_refuse_with_one_message(kind, value, orders):
    with pytest.raises(DomainError) as one:
        [pow_payload(kind, value, q) for q in orders]
    with pytest.raises(DomainError) as column:
        list(pow_records(kind, np.array([value, value]), orders))
    dim = len(value) if kind is Kind.VECTOR else None
    batch = Batch.from_values(kind, [value], [1.0], dim=dim)
    with pytest.raises(DomainError) as record:
        _power_sums(batch, zero_payload(kind, dim), tuple(orders), columnar=False)
    assert str(one.value) == str(column.value) == str(record.value)


def _exact(x):
    return x.tobytes() if isinstance(x, np.ndarray) else _bits(x)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)])
@pytest.mark.parametrize("spec", [tuple(range(2, 21)), (*range(2, 9), 2.5)], ids=["2..20", "2..8,2.5"])
def test_the_per_record_pass_is_the_left_sum_of_each_records_one_order_powers(rng, kind, dim, spec):
    # Every order's walk is the same product sequence whichever orders
    # share it, so the pass over a ladder adds, order by order, exactly
    # what pow_payload gives each record, left to right over the records.
    orders = OrderLadder(expand_fractional_targets(spec)).orders
    center = zero_payload(kind, dim) + (0.5 + 0.25j if kind is Kind.COMPLEX else 0.5)
    for size in range(1, 32):
        shape = (size,) if dim is None else (size, dim)
        values = 1.0 + rng.random(shape)
        if kind is Kind.COMPLEX:
            values = values + 1j * rng.standard_normal(shape)
        batch = Batch.from_values(kind, values, rng.uniform(-0.5, 1.0, size), dim=dim)
        got = _power_sums(batch, center, orders, columnar=False)
        want = [
            left_sum(w * pow_payload(kind, x - center, q) for x, w in zip(*batch.records))
            for q in orders
        ]
        assert list(map(_exact, got)) == list(map(_exact, want)), size
