"""momentflow: streaming weighted central moments and Taylor-expandable metrics.

Keep a compact moment state instead of the raw data; appending a batch
advances every stored moment in time proportional to the batch size.

The names below, and the submodules, are resolved on first access (PEP
562): ``import momentflow`` loads no submodule, and ``momentflow.X`` or
``from momentflow import X`` imports only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it; a submodule maps to
# itself.
_HOME = {
    "AnyState": "states",
    "Batch": "accumulator",
    "ConvergenceReport": "accumulator",
    "EmptyState": "states",
    "ExponentialMetric": "metrics",
    "Kind": "elements",
    "MAX_EXACT_ORDER": "binomial",
    "MetricResult": "metrics",
    "MetricSpec": "metrics",
    "MomentState": "states",
    "OrderLadder": "states",
    "PolynomialMetric": "metrics",
    "SinusoidMetric": "metrics",
    "append_batch": "accumulator",
    "compute_digest": "statefile",
    "dumps_state": "statefile",
    "expand_fractional_targets": "states",
    "fractional_chain": "states",
    "from_batch": "accumulator",
    "load_state": "statefile",
    "loads_state": "statefile",
    "merge_states": "accumulator",
    "metric_from_moments": "metrics",
    "metric_update": "metrics",
    "parse_kind_spec": "elements",
    "read_batch_csv": "batchfile",
    "save_state": "statefile",
    "state_lock": "statefile",
    "update_fractional": "accumulator",
    "update_integer": "accumulator",
    "update_normalizer": "accumulator",
    **{
        module: module
        for module in (
            "accumulator", "batchfile", "bench", "binomial", "cli", "elements",
            "errors", "metrics", "statefile", "states",
        )
    },
}

__all__ = sorted(name for name, home in _HOME.items() if name != home)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
