import cmath
import math

import numpy as np
import pytest

from momentflow import (
    Kind,
    WeightedDatum,
    complex_scalar,
    elem_add,
    elem_mul,
    elem_norm,
    elem_pow,
    one,
    parse_kind_spec,
    scalar,
    vector,
    zero,
)
from momentflow.elements import pow_payload, pow_records
from momentflow.errors import BadKindSpec, DomainError, KindMismatch, ValidationError


def test_add_scalars():
    assert elem_add(scalar(2), scalar(3)) == scalar(5)


def test_add_vectors_componentwise():
    assert elem_add(vector([1, 0, 2]), vector([0, 1, 1])) == vector([1, 1, 3])


def test_add_complex():
    assert elem_add(complex_scalar(1 + 2j), complex_scalar(3 - 1j)) == complex_scalar(4 + 1j)


def test_mul_scalars():
    assert elem_mul(scalar(2), scalar(3)) == scalar(6)


def test_mul_vectors_hadamard():
    assert elem_mul(vector([2, 3]), vector([4, 5])) == vector([8, 15])


@pytest.mark.parametrize(
    "a",
    [scalar(3.7), complex_scalar(1.5 - 0.25j), vector([0.5, -2.0, 7.0])],
)
def test_multiplicative_identity(a):
    assert elem_mul(a, one(a.kind, a.dim)) == a
    assert elem_add(a, zero(a.kind, a.dim)) == a


def test_pow_integer():
    assert elem_pow(scalar(2), 3) == scalar(8)
    assert elem_pow(scalar(-2), 3) == scalar(-8)
    assert elem_pow(vector([2, 3]), 2) == vector([4, 9])


def test_pow_zero_gives_one():
    assert elem_pow(scalar(5.0), 0) == scalar(1.0)
    assert elem_pow(vector([2, 3]), 0) == one(Kind.VECTOR, 2)


def test_pow_sqrt():
    assert elem_pow(scalar(4), 0.5) == scalar(2.0)


def test_pow_complex_principal_branch():
    # exp(0.5 * log(-1)) with Arg in (-pi, pi]
    expected = cmath.exp(0.5 * cmath.log(-1))
    got = elem_pow(complex_scalar(-1), 0.5).value
    assert got == expected
    assert abs(got.real) < 1e-15
    assert got.imag == pytest.approx(1.0, rel=1e-15)


def test_pow_real_negative_base_fractional_rejected():
    with pytest.raises(DomainError):
        elem_pow(scalar(-2.0), 0.5)
    with pytest.raises(DomainError):
        elem_pow(vector([1.0, -1.0]), 2.5)
    with pytest.raises(DomainError):
        elem_pow(scalar(0.0), 2.5)


def test_pow_negative_exponent():
    assert elem_pow(scalar(2.0), -1) == scalar(0.5)
    with pytest.raises(DomainError):
        elem_pow(scalar(-2.0), -1)


def test_pow_complex_zero_base():
    assert elem_pow(complex_scalar(0), 2.5) == complex_scalar(0)
    with pytest.raises(DomainError):
        elem_pow(complex_scalar(0), -0.5)


def test_norm():
    assert elem_norm(scalar(-3)) == 3.0
    assert elem_norm(vector([3, 4])) == 5.0
    assert elem_norm(complex_scalar(3 + 4j)) == 5.0


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        elem_add(scalar(1), complex_scalar(1))
    with pytest.raises(KindMismatch):
        elem_mul(vector([1, 2]), vector([1, 2, 3]))


def _dyadics(rng, n, kind, dim=None):
    """Values k/64 with |k| <= 2**20: sums and small products stay exact."""
    def draw():
        return rng.integers(-(2**20), 2**20, endpoint=True) / 64.0

    out = []
    for _ in range(n):
        if kind is Kind.SCALAR:
            out.append(scalar(draw()))
        elif kind is Kind.COMPLEX:
            out.append(complex_scalar(complex(draw(), draw())))
        else:
            out.append(vector([draw() for _ in range(dim)]))
    return out


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)])
def test_add_associative_bit_exact_on_dyadics(rng, kind, dim):
    for _ in range(300):
        a, b, c = _dyadics(rng, 3, kind, dim)
        left = elem_add(elem_add(a, b), c)
        right = elem_add(a, elem_add(b, c))
        assert left == right


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)])
def test_add_commutative_bit_exact(rng, kind, dim):
    for _ in range(300):
        a, b = _dyadics(rng, 2, kind, dim)
        assert elem_add(a, b) == elem_add(b, a)


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.VECTOR, 3)])
def test_mul_distributes_over_add_bit_exact_on_dyadics(rng, kind, dim):
    # products of two 26-bit dyadics still fit a double exactly
    for _ in range(300):
        a, b, c = _dyadics(rng, 3, kind, dim)
        left = elem_mul(a, elem_add(b, c))
        right = elem_add(elem_mul(a, b), elem_mul(a, c))
        assert left == right


@pytest.mark.parametrize("base", [0.5, -0.5, 1.5, 2.0, -3.0])
def test_pow_adds_exponents_exactly(base):
    a = scalar(base)
    for m in range(0, 9):
        for k in range(0, 9 - m):
            assert elem_pow(a, m + k) == elem_mul(elem_pow(a, m), elem_pow(a, k))


@pytest.mark.parametrize("kind,dim", [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 4)])
def test_triangle_inequality(rng, kind, dim):
    for _ in range(10_000):
        if kind is Kind.SCALAR:
            a, b = scalar(rng.normal()), scalar(rng.normal())
        elif kind is Kind.COMPLEX:
            a = complex_scalar(complex(rng.normal(), rng.normal()))
            b = complex_scalar(complex(rng.normal(), rng.normal()))
        else:
            a, b = vector(rng.normal(size=dim)), vector(rng.normal(size=dim))
        lhs = elem_norm(elem_add(a, b))
        rhs = elem_norm(a) + elem_norm(b)
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_zero_iff_zero():
    assert elem_norm(zero(Kind.VECTOR, 3)) == 0.0
    assert elem_norm(vector([0.0, 1e-300, 0.0])) > 0.0


def test_weighted_datum_requires_finite_weight():
    WeightedDatum(scalar(1.0), 2.0)
    with pytest.raises(ValidationError):
        WeightedDatum(scalar(1.0), math.nan)
    with pytest.raises(ValidationError):
        WeightedDatum(scalar(1.0), math.inf)


def test_element_values_are_frozen():
    v = vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.value[0] = 5.0


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
