import math

import numpy as np
import pytest

from momentflow import (
    Batch,
    ExponentialMetric,
    Kind,
    MetricSpec,
    OrderLadder,
    PolynomialMetric,
    SinusoidMetric,
    check_coefficient_convergence,
    from_batch,
    metric_from_moments,
    metric_update,
    update_integer,
)
from momentflow.errors import LadderTooShort, ValidationError

from conftest import concat_batches, random_batch, swapped_metric_update


def direct_metric(values, weights, g):
    z = math.fsum(weights)
    return math.fsum(w * g(x) for w, x in zip(weights, values)) / z


def _scalar_state(values, weights, top=2):
    return from_batch(
        Batch.from_values(Kind.SCALAR, values, weights), OrderLadder.integer_range(2, top)
    )


# ---------------------------------------------------------------------------
# evaluation from stored moments
# ---------------------------------------------------------------------------


def test_square_metric_on_small_state():
    s = _scalar_state([1, 2, 3], [1, 1, 1])
    spec = MetricSpec(PolynomialMetric([0, 0, 1]), n_star=2)
    res = metric_from_moments(s, spec)
    assert res.value == pytest.approx(14 / 3, rel=1e-14)
    assert res.value == pytest.approx(direct_metric([1, 2, 3], [1, 1, 1], lambda x: x * x))
    assert res.converged  # finite series, lossless truncation
    assert res.tail_estimate == pytest.approx(2 / 3)


def test_constant_metric_is_one():
    s = _scalar_state([3.7, -1.2, 9.0], [1.0, 2.0, 0.5])
    res = metric_from_moments(s, MetricSpec(PolynomialMetric([1.0]), n_star=2))
    assert res.value == 1.0
    assert res.tail_estimate == 0.0
    assert res.converged


def test_identity_metric_recovers_mean():
    s = _scalar_state([1.0, 2.0, 4.5], [1.0, 1.0, 2.0])
    res = metric_from_moments(s, MetricSpec(PolynomialMetric([0.0, 1.0]), n_star=2))
    assert res.value == s.mean


@pytest.mark.parametrize(
    "kind,dim,payload_type",
    [(Kind.SCALAR, None, float), (Kind.COMPLEX, None, complex), (Kind.VECTOR, 2, np.ndarray)],
)
def test_metric_values_are_payloads_of_the_state_kind(rng, kind, dim, payload_type):
    ladder = OrderLadder.integer_range(2, 4)
    state = from_batch(random_batch(rng, kind, 6, dim=dim), ladder)
    extra = random_batch(rng, kind, 3, dim=dim)
    spec = MetricSpec(PolynomialMetric([0.5, 0.0, 1.0]), n_star=4)
    for res in (metric_from_moments(state, spec), metric_update(state, extra, spec)):
        assert type(res.value) is payload_type
    # the square metric read off the moments is M_2 + mean**2 + 0.5
    want = state.moment(2) + state.mean * state.mean + 0.5
    assert np.allclose(metric_from_moments(state, spec).value, want, rtol=1e-13, atol=0)


def test_ladder_too_short():
    s = _scalar_state([1, 2, 3], [1, 1, 1], top=4)
    with pytest.raises(LadderTooShort):
        metric_from_moments(s, MetricSpec(PolynomialMetric([1.0]), n_star=6))


# ---------------------------------------------------------------------------
# coefficient providers
# ---------------------------------------------------------------------------


def test_polynomial_recentering_is_exact(rng):
    for _ in range(100):
        coeffs = rng.uniform(-2, 2, size=int(rng.integers(1, 7))).tolist()
        g = PolynomialMetric(coeffs)
        center = float(rng.uniform(-3, 3))
        cs = g.coefficients(center, len(coeffs) + 3)
        x = float(rng.uniform(-3, 3))
        series = sum(c * (x - center) ** n for n, c in enumerate(cs))
        assert series == pytest.approx(g.evaluate(x), rel=1e-10, abs=1e-10)


def test_polynomial_coefficients_beyond_degree_are_exact_zero():
    cs = PolynomialMetric([1.0, -2.0, 3.0]).coefficients(1.7, 10)
    assert all(c == 0.0 for c in cs[3:])


def test_exponential_coefficients():
    g = ExponentialMetric(2.0, 0.5)
    cs = g.coefficients(0.0, 5)
    for n, c in enumerate(cs):
        assert c == pytest.approx(2.0 * 0.5**n / math.factorial(n), rel=1e-14)
    assert g.evaluate(1.0) == pytest.approx(2.0 * math.exp(0.5))


def test_sinusoid_coefficients_match_series():
    g = SinusoidMetric(1.5, 2.0)
    center = 0.3
    cs = g.coefficients(center, 20)
    x = 0.55
    series = sum(c * (x - center) ** n for n, c in enumerate(cs))
    assert series == pytest.approx(g.evaluate(x), rel=1e-12)


def test_vector_provider_componentwise():
    g = ExponentialMetric(1.0, 1.0)
    center = np.array([0.0, 1.0])
    cs = g.coefficients(center, 3)
    assert cs[0] == pytest.approx([1.0, math.e])
    assert cs[1] == pytest.approx([1.0, math.e])


# ---------------------------------------------------------------------------
# the update path
# ---------------------------------------------------------------------------


def test_polynomial_update_is_lossless():
    s = _scalar_state([1, 2], [1, 1])
    batch = Batch.from_values(Kind.SCALAR, [3], [1])
    spec = MetricSpec(PolynomialMetric([0, 0, 1]), n_star=2)
    res = metric_update(s, batch, spec)
    assert res.value == pytest.approx(14 / 3, rel=1e-12)
    assert res.converged


def test_polynomial_update_random_cases(rng):
    for _ in range(100):
        deg = int(rng.integers(0, 6))
        coeffs = rng.uniform(-2, 2, size=deg + 1).tolist()
        g = PolynomialMetric(coeffs)
        n_star = max(2, deg)
        base = random_batch(rng, Kind.SCALAR, int(rng.integers(2, 30)))
        extra = random_batch(rng, Kind.SCALAR, int(rng.integers(1, 8)))
        state = from_batch(base, OrderLadder.integer_range(2, n_star))
        res = metric_update(state, extra, MetricSpec(g, n_star=n_star))
        joined = concat_batches(base, extra)
        want = direct_metric(joined.values, joined.weights, g.evaluate)
        assert res.value == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mean_pinned_batch_collapses_shift_column():
    # appending the exact mean with a dyadic weight ratio keeps the mean put
    s = _scalar_state([1.0, 2.0, 3.0], [1, 1, 1], top=4)
    batch = Batch.from_values(Kind.SCALAR, [2.0], [1.0])
    spec = MetricSpec(PolynomialMetric([0.5, 1.0, -2.0]), n_star=4)
    res = metric_update(s, batch, spec)
    # with zero shift: W' = (Z/Z') sum c_n M_n + (1/Z') sum w g(x)
    cs = spec.provider.coefficients(2.0, 4)
    bracket = cs[0] + sum(cs[n] * s.moments[float(n)] for n in range(2, 5))
    want = 0.75 * bracket + 0.25 * spec.provider.evaluate(2.0)
    assert res.value == pytest.approx(want, rel=1e-14)


def test_exponential_update_matches_direct(rng):
    g = ExponentialMetric(1.0, 1.0)
    spec = MetricSpec(g, n_star=14)
    for _ in range(20):
        base = random_batch(rng, Kind.SCALAR, 40)
        extra = random_batch(rng, Kind.SCALAR, 6)
        state = from_batch(base, OrderLadder.integer_range(2, 14))
        res = metric_update(state, extra, spec)
        joined = concat_batches(base, extra)
        want = direct_metric(joined.values, joined.weights, g.evaluate)
        assert abs(res.value - want) / abs(want) < 1e-9
        assert res.converged


def test_summation_orders_agree(rng):
    g = ExponentialMetric(1.0, 1.0)
    spec = MetricSpec(g, n_star=12)
    for _ in range(25):
        base = random_batch(rng, Kind.SCALAR, 24)
        extra = random_batch(rng, Kind.SCALAR, 4)
        state = from_batch(base, OrderLadder.integer_range(2, 12))
        row = metric_update(state, extra, spec)
        swapped = swapped_metric_update(state, extra, spec)
        assert abs(row.value - swapped) <= 1e-12 * max(
            1.0, abs(row.value)
        )


def test_update_then_read_consistency(rng):
    # updating the metric vs advancing the state and re-reading it
    g = ExponentialMetric(1.0, 1.0)
    spec = MetricSpec(g, n_star=14)
    base = random_batch(rng, Kind.SCALAR, 32)
    extra = random_batch(rng, Kind.SCALAR, 4)
    state = from_batch(base, OrderLadder.integer_range(2, 14))
    upd = metric_update(state, extra, spec)
    readback = metric_from_moments(update_integer(state, extra), spec)
    bound = upd.tail_estimate + readback.tail_estimate + 1e-12 * abs(upd.value)
    assert abs(upd.value - readback.value) <= bound


def test_vector_metric_update(rng):
    g = PolynomialMetric([0.0, 0.0, 1.0])
    base = random_batch(rng, Kind.VECTOR, 12, dim=3)
    extra = random_batch(rng, Kind.VECTOR, 2, dim=3)
    state = from_batch(base, OrderLadder([2]))
    res = metric_update(state, extra, MetricSpec(g, n_star=2))
    joined = concat_batches(base, extra)
    z = sum(joined.weights)
    want = sum(w * (v * v) for w, v in zip(joined.weights, joined.values)) / z
    assert res.value == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# coefficient tail probe
# ---------------------------------------------------------------------------


class _OnesProvider:
    def coefficients(self, center, max_order):
        one = center * 0.0 + 1.0
        return [one for _ in range(max_order + 1)]

    def evaluate(self, x):
        raise NotImplementedError


def test_tail_probe_polynomial_converges():
    spec = MetricSpec(PolynomialMetric([1, 2, 3]), n_star=4)
    rep = check_coefficient_convergence(spec, Kind.SCALAR, 0.7, probe_depth=12)
    assert rep.converged
    assert all(t == 0.0 for t in rep.tail_norms)


def test_tail_probe_exponential_converges():
    spec = MetricSpec(ExponentialMetric(1.0, 1.0), n_star=14)
    rep = check_coefficient_convergence(spec, Kind.SCALAR, 0.0, probe_depth=40)
    assert rep.converged


def test_tail_probe_constant_coefficients_diverge():
    spec = MetricSpec(_OnesProvider(), n_star=4)
    rep = check_coefficient_convergence(spec, Kind.SCALAR, 0.0, probe_depth=20)
    assert not rep.converged


def test_tail_probe_requires_depth_past_cutoff():
    spec = MetricSpec(ExponentialMetric(1.0, 1.0), n_star=14)
    with pytest.raises(ValidationError):
        check_coefficient_convergence(spec, Kind.SCALAR, 0.0, probe_depth=10)


def test_spec_validates_truncation_order():
    with pytest.raises(ValidationError):
        MetricSpec(PolynomialMetric([1.0]), n_star=1)
    with pytest.raises(ValidationError):
        MetricSpec(PolynomialMetric([1.0]), n_star=63)
