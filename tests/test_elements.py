import cmath
import math

import numpy as np
import pytest

from momentflow import Batch, Kind, parse_kind_spec
from momentflow.elements import (
    POW_FLOOR,
    norm_payload,
    one_payload,
    pow_payload,
    pow_records,
    zero_payload,
)
from momentflow.errors import BadKindSpec, DomainError


def _payloads(kind, values, dim=None):
    """The per-record payloads a batch of these values hands its loops."""
    return Batch.from_values(kind, values, [1.0] * len(values), dim=dim).records[0]


def _same(a, b):
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_add_scalars():
    a, b = _payloads(Kind.SCALAR, [2, 3])
    assert _same(a + b, 5.0)


def test_add_vectors_componentwise():
    a, b = _payloads(Kind.VECTOR, [[1, 0, 2], [0, 1, 1]])
    assert _same(a + b, np.array([1.0, 1.0, 3.0]))


def test_add_complex():
    a, b = _payloads(Kind.COMPLEX, [1 + 2j, 3 - 1j])
    assert _same(a + b, 4 + 1j)


def test_mul_scalars():
    a, b = _payloads(Kind.SCALAR, [2, 3])
    assert _same(a * b, 6.0)


def test_mul_vectors_hadamard():
    a, b = _payloads(Kind.VECTOR, [[2, 3], [4, 5]])
    assert _same(a * b, np.array([8.0, 15.0]))


@pytest.mark.parametrize(
    "a",
    [(Kind.SCALAR, 3.7), (Kind.COMPLEX, 1.5 - 0.25j), (Kind.VECTOR, [0.5, -2.0, 7.0])],
)
def test_multiplicative_identity(a):
    kind, value = a
    dim = len(value) if kind is Kind.VECTOR else None
    (x,) = _payloads(kind, [value], dim)
    assert _same(x * one_payload(kind, dim), x)
    assert _same(x + zero_payload(kind, dim), x)


def test_pow_integer():
    assert _same(pow_payload(Kind.SCALAR, 2.0, 3), 8.0)
    assert _same(pow_payload(Kind.SCALAR, -2.0, 3), -8.0)
    assert _same(pow_payload(Kind.VECTOR, np.array([2.0, 3.0]), 2), np.array([4.0, 9.0]))


def test_pow_zero_gives_one():
    assert _same(pow_payload(Kind.SCALAR, 5.0, 0), one_payload(Kind.SCALAR))
    assert _same(pow_payload(Kind.COMPLEX, 0j, 0), one_payload(Kind.COMPLEX))
    assert _same(pow_payload(Kind.VECTOR, np.array([2.0, 3.0]), 0), one_payload(Kind.VECTOR, 2))


def test_pow_sqrt():
    assert _same(pow_payload(Kind.SCALAR, 4.0, 0.5), 2.0)


def test_pow_complex_principal_branch():
    # exp(0.5 * log(-1)) with Arg in (-pi, pi]
    expected = cmath.exp(0.5 * cmath.log(-1))
    got = pow_payload(Kind.COMPLEX, -1 + 0j, 0.5)
    assert got == expected
    assert abs(got.real) < 1e-15
    assert got.imag == pytest.approx(1.0, rel=1e-15)


def test_pow_real_negative_base_fractional_rejected():
    with pytest.raises(DomainError):
        pow_payload(Kind.SCALAR, -2.0, 0.5)
    with pytest.raises(DomainError):
        pow_payload(Kind.VECTOR, np.array([1.0, -1.0]), 2.5)
    with pytest.raises(DomainError):
        pow_payload(Kind.SCALAR, 0.0, 2.5)
    with pytest.raises(DomainError):
        pow_payload(Kind.SCALAR, POW_FLOOR, 2.5)


def test_pow_negative_exponent():
    assert _same(pow_payload(Kind.SCALAR, 2.0, -1), 0.5)
    with pytest.raises(DomainError):
        pow_payload(Kind.SCALAR, -2.0, -1)


def test_pow_complex_zero_base():
    assert _same(pow_payload(Kind.COMPLEX, 0j, 2.5), 0j)
    with pytest.raises(DomainError):
        pow_payload(Kind.COMPLEX, 0j, -0.5)


def test_norm():
    assert norm_payload(Kind.SCALAR, -3.0) == 3.0
    assert norm_payload(Kind.VECTOR, np.array([3.0, 4.0])) == 5.0
    assert norm_payload(Kind.COMPLEX, 3 + 4j) == 5.0


def _dyadics(rng, n, kind, dim=None):
    """Values k/64 with |k| <= 2**20: sums and small products stay exact."""
    def draw():
        return rng.integers(-(2**20), 2**20, endpoint=True) / 64.0

    if kind is Kind.SCALAR:
        values = [draw() for _ in range(n)]
    elif kind is Kind.COMPLEX:
        values = [complex(draw(), draw()) for _ in range(n)]
    else:
        values = [[draw() for _ in range(dim)] for _ in range(n)]
    return _payloads(kind, values, dim)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)])
def test_add_associative_bit_exact_on_dyadics(rng, kind, dim):
    for _ in range(300):
        a, b, c = _dyadics(rng, 3, kind, dim)
        assert _same((a + b) + c, a + (b + c))


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)])
def test_add_commutative_bit_exact(rng, kind, dim):
    for _ in range(300):
        a, b = _dyadics(rng, 2, kind, dim)
        assert _same(a + b, b + a)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.VECTOR, 3)])
def test_mul_distributes_over_add_bit_exact_on_dyadics(rng, kind, dim):
    # products of two 26-bit dyadics still fit a double exactly
    for _ in range(300):
        a, b, c = _dyadics(rng, 3, kind, dim)
        assert _same(a * (b + c), a * b + a * c)


@pytest.mark.parametrize("base", [0.5, -0.5, 1.5, 2.0, -3.0])
def test_pow_adds_exponents_exactly(base):
    for m in range(0, 9):
        for k in range(0, 9 - m):
            product = pow_payload(Kind.SCALAR, base, m) * pow_payload(Kind.SCALAR, base, k)
            assert _same(pow_payload(Kind.SCALAR, base, m + k), product)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 4)])
def test_triangle_inequality(rng, kind, dim):
    for _ in range(10_000):
        if kind is Kind.SCALAR:
            a, b = float(rng.normal()), float(rng.normal())
        elif kind is Kind.COMPLEX:
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
        else:
            a, b = rng.normal(size=dim), rng.normal(size=dim)
        lhs = norm_payload(kind, a + b)
        rhs = norm_payload(kind, a) + norm_payload(kind, b)
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_zero_iff_zero():
    assert norm_payload(Kind.VECTOR, zero_payload(Kind.VECTOR, 3)) == 0.0
    assert norm_payload(Kind.VECTOR, np.array([0.0, 1e-300, 0.0])) > 0.0


def test_parse_kind_spec():
    assert parse_kind_spec("scalar") == (Kind.SCALAR, None)
    assert parse_kind_spec("complex") == (Kind.COMPLEX, None)
    assert parse_kind_spec("vector:4") == (Kind.VECTOR, 4)
    with pytest.raises(BadKindSpec):
        parse_kind_spec("vector:0")
    with pytest.raises(BadKindSpec):
        parse_kind_spec("tensor")


@pytest.mark.parametrize("order", [0, 1, 3, 2.5, -0.5, -3.5])
def test_pow_records_matches_pow_payload(rng, order):
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    (got,) = pow_records(Kind.COMPLEX, z, [order])
    for a, b in zip(got, z):
        assert cmath.isclose(a, pow_payload(Kind.COMPLEX, complex(b), order), rel_tol=1e-14)
    x = 0.1 + rng.random(16)
    (got,) = pow_records(Kind.SCALAR, x, [order])
    for a, b in zip(got, x):
        assert math.isclose(a, pow_payload(Kind.SCALAR, float(b), order), rel_tol=1e-15)
    rows = 0.1 + rng.random((4, 3))
    (got,) = pow_records(Kind.VECTOR, rows, [order])
    for a, b in zip(got, rows):
        assert np.allclose(a, pow_payload(Kind.VECTOR, b, order), rtol=1e-15, atol=0)


def test_pow_records_domain_rules():
    (got,) = pow_records(Kind.COMPLEX, np.array([0j, 1 + 0j]), [2.5])
    assert got.tolist() == [0j, 1 + 0j]
    with pytest.raises(DomainError):
        list(pow_records(Kind.COMPLEX, np.array([1 + 0j, 0j]), [-0.5]))
    with pytest.raises(DomainError):
        list(pow_records(Kind.SCALAR, np.array([1.0, -0.5]), [2.5]))
    with pytest.raises(DomainError):
        list(pow_records(Kind.VECTOR, np.array([[1.0, 1.0], [1.0, 0.0]]), [0.5]))
    # a zero base is refused only once a non-positive order is reached
    powers = pow_records(Kind.COMPLEX, np.array([1 + 0j, 0j]), [2.5, -0.5])
    assert next(powers).tolist() == [1 + 0j, 0j]
    with pytest.raises(DomainError):
        next(powers)


@pytest.mark.parametrize("kind,dim", [(Kind.COMPLEX, None), (Kind.SCALAR, None), (Kind.VECTOR, 3)])
def test_pow_records_many_orders_match_one_at_a_time(rng, kind, dim):
    # the modulus, argument and domain checks shared across orders change no bit
    shape = (16,) if dim is None else (16, dim)
    values = 0.1 + rng.random(shape)
    if kind is Kind.COMPLEX:
        values = values + 1j * rng.standard_normal(shape)
    orders = [2.5, 1.5, 0.5, 0.0, -0.5, 3.0, -9.5]
    together = list(pow_records(kind, values, orders))
    for got, q in zip(together, orders):
        (alone,) = pow_records(kind, values, [q])
        assert got.tobytes() == alone.tobytes()
