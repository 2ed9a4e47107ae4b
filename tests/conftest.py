import hashlib
import json

import numpy as np
import pytest
from hypothesis import settings

from momentflow import Batch, Kind, MomentState, update_mean, update_normalizer
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


def concat_batches(a, b):
    # np.concatenate, never `+`: on arrays `+` adds elementwise (and
    # broadcasts a one-record batch) instead of joining.
    return Batch(
        kind=a.kind,
        dim=a.dim,
        values=np.concatenate([a.values, b.values]),
        weights=np.concatenate([a.weights, b.weights]),
    )


def swapped_metric_update(state, batch, spec):
    """The value metric_update computes, with its double sum taken in the
    other order: shift-power-major (one column of coefficients and moments
    per shift power) instead of coefficient-major. The index set is the same
    triangle, so the two agree to rounding; a cross-check oracle."""
    zp = update_normalizer(state, batch)
    meanp = update_mean(state, batch, zp)
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


def v1_document(state, encoding):
    """A copy of the version-1 state-document writer, kept as a test oracle:
    indented JSON with sorted keys, ``[order, value]`` moment pairs and
    ``number_encoding``; the digest covers the compact hex-float form
    without those last two keys."""

    def doc(num):
        def payload(p):
            if state.kind is Kind.SCALAR:
                return num(p)
            if state.kind is Kind.COMPLEX:
                return [num(p.real), num(p.imag)]
            return [num(c) for c in p]

        d = {
            "format_version": 1,
            "element_kind": state.kind.value,
            "orders": [num(o) for o in state.ladder.orders],
            "count": 0,
        }
        if state.kind is Kind.VECTOR:
            d["vector_dim"] = state.dim
        if isinstance(state, MomentState):
            d["count"] = state.count
            d["z"] = num(state.z)
            d["mean"] = payload(state.mean)
            d["moments"] = [[num(o), payload(state.moments[o])] for o in state.ladder.orders]
        return d

    def hex_number(x):
        return float(x).hex()

    canonical = json.dumps(doc(hex_number), sort_keys=True, separators=(",", ":"))
    out = doc(hex_number if encoding == "hex" else float)
    out["number_encoding"] = encoding
    out["content_digest"] = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    return json.dumps(out, sort_keys=True, indent=2) + "\n"
