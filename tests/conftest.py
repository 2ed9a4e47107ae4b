import numpy as np
import pytest
from hypothesis import settings

from momentflow import Batch, Kind

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


def concat_batches(a, b):
    # np.concatenate, never `+`: on arrays `+` adds elementwise (and
    # broadcasts a one-record batch) instead of joining.
    return Batch(
        kind=a.kind,
        dim=a.dim,
        values=np.concatenate([a.values, b.values]),
        weights=np.concatenate([a.weights, b.weights]),
    )
