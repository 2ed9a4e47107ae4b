import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from momentflow import (
    Batch,
    Kind,
    OrderLadder,
    fractional_chain,
    from_batch,
    update_fractional,
    update_normalizer,
)
from momentflow.binomial import binomial_row
from momentflow.elements import zero_payload

# Property tests replay the same examples on every run and keep no example
# database, so a failure is reproducible from the test name alone.
settings.register_profile(
    "momentflow", derandomize=True, database=None, max_examples=25, deadline=None
)
settings.load_profile("momentflow")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_batch(kind, values, weights, dim=None):
    return Batch.from_values(kind, values, weights, dim=dim)


def random_batch(rng, kind, size, dim=None, weight_lo=0.05):
    """Uniform values with weights bounded away from zero."""
    weights = (weight_lo + (1.0 - weight_lo) * rng.random(size)).tolist()
    if kind is Kind.SCALAR:
        values = rng.random(size).tolist()
    elif kind is Kind.COMPLEX:
        values = [complex(a, b) for a, b in zip(rng.random(size), rng.random(size))]
    else:
        rows = rng.random((size, dim))
        values = [rows[i].copy() for i in range(size)]
    return Batch.from_values(kind, values, weights, dim=dim)


def by_position(pairs):
    """elements.pow_records' (position, column) pairs as a list of columns,
    each at its order's position."""
    placed = dict(pairs)
    return [placed[i] for i in range(len(placed))]


def concat_batches(a, b):
    # np.concatenate, never `+`: on arrays `+` adds elementwise (and
    # broadcasts a one-record batch) instead of joining.
    return Batch.from_values(
        a.kind,
        np.concatenate([a.values, b.values]),
        np.concatenate([a.weights, b.weights]),
        dim=a.dim,
    )


def swapped_metric_update(state, batch, spec):
    """The metric of the appended dataset by an independent route, a
    cross-check oracle for metric_update: the old moments re-centred onto
    the new mean, weighted by coefficients about that mean in a double sum
    taken shift-power-major (one column of coefficients and moments per
    shift power), plus the batch's exact g values. metric_update instead
    adds the batch to the metric of the stored ladder about its own mean,
    so the two agree to within the truncation tail."""
    zp = update_normalizer(state, batch)
    meanp = (state.z / zp) * state.mean + sum(w * x for x, w in zip(*batch.records)) / zp
    shift = state.mean - meanp
    n_star = spec.n_star
    coeffs = spec.provider.coefficients(meanp, n_star)
    spow = [state.moment(0)]
    for _ in range(n_star):
        spow.append(spow[-1] * shift)
    acc = zero_payload(state.kind, state.dim)
    for k in range(n_star + 1):
        col = zero_payload(state.kind, state.dim)
        for n in range(k, n_star + 1):
            col = col + (coeffs[n] * binomial_row(n)[k]) * state.moment(n - k)
        acc = acc + col * spow[k]
    batch_acc = zero_payload(state.kind, state.dim)
    for x, w in zip(*batch.records):
        batch_acc = batch_acc + w * spec.provider.evaluate(x)
    return (state.z / zp) * acc + batch_acc / zp


class SweepCell(NamedTuple):
    """One point of the fractional convergence map."""

    spread_rms: float  # sqrt |M2| of the base dataset
    mean_shift: float  # |old mean - new mean| induced by the batch
    min_converged_cutoff: int | None
    terminal_rel_error: float
    terminal_converged: bool


def fractional_convergence_sweep(spreads, shifts, order=2.5, max_cutoff=12):
    """Map where the truncated fractional update converges.

    Four unit-weight complex records, 100 + spread * (-1.5, -0.5, 0.5, 1.5),
    take one record of their own weight that moves the mean by each shift.
    Cutoff c runs on a state whose ladder is the first c + 1 orders of the
    chain, so the update's series stops there; a zero-spread chain keeps
    only its positive orders, as every record sits on the negative orders'
    pole. The terminal cutoff's error is against the from-scratch moment
    of the joined data.
    """
    cells = []
    for spread, shift in itertools.product(spreads, shifts):
        values = [complex(100.0 + spread * u) for u in (-1.5, -0.5, 0.5, 1.5)]
        base = Batch.from_values(Kind.COMPLEX, values, [1.0] * 4)
        chain = [q for q in fractional_chain(order, max_cutoff) if spread > 0 or q > 0]
        states = [from_batch(base, OrderLadder(chain[: c + 1])) for c in range(len(chain))]
        mean, z = states[0].mean, states[0].z
        new = complex(mean + 2.0 * shift)
        append = Batch.from_values(Kind.COMPLEX, [new], [z])
        runs = [update_fractional(state, append, order) for state in states]
        value, report = runs[-1]
        oracle = from_batch(
            Batch.from_values(Kind.COMPLEX, values + [new], [1.0] * 4 + [z]), OrderLadder([order])
        ).moments[order]
        m2 = 0.0
        for v in values:
            m2 += abs(v - mean) ** 2
        zp = z + z
        cells.append(SweepCell(
            spread_rms=(m2 / z) ** 0.5,
            mean_shift=abs(mean - ((z / zp) * mean + z * new / zp)),
            min_converged_cutoff=next((c for c, (_, r) in enumerate(runs) if r.converged), None),
            terminal_rel_error=abs(value - oracle) / max(abs(oracle), 1e-300),
            terminal_converged=report.converged,
        ))
    return cells
