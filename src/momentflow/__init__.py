"""momentflow: streaming weighted central moments and Taylor-expandable metrics.

Keep a compact moment state instead of the raw data; appending a batch
advances every stored moment in time proportional to the batch size.
"""

__version__ = "0.1.0"

from .accumulator import (
    AnyState,
    Batch,
    ConvergenceReport,
    EmptyState,
    MomentState,
    OrderLadder,
    append_batch,
    expand_fractional_targets,
    fractional_chain,
    from_batch,
    merge_states,
    update_fractional,
    update_integer,
    update_mean,
    update_normalizer,
)
from .batchfile import read_batch_csv
from .bench import (
    BenchRecord,
    BenchScenario,
    StorageReport,
    SweepCell,
    fractional_convergence_sweep,
    run_scenario,
    storage_report,
    write_records_csv,
)
from .binomial import MAX_EXACT_ORDER
from .elements import Kind, parse_kind_spec
from .metrics import (
    ExponentialMetric,
    MetricResult,
    MetricSpec,
    PolynomialMetric,
    SinusoidMetric,
    metric_from_moments,
    metric_update,
)
from .statefile import (
    compute_digest,
    dumps_state,
    load_state,
    loads_state,
    save_state,
    state_lock,
)

__all__ = [
    "AnyState",
    "Batch",
    "BenchRecord",
    "BenchScenario",
    "ConvergenceReport",
    "EmptyState",
    "ExponentialMetric",
    "Kind",
    "MAX_EXACT_ORDER",
    "MetricResult",
    "MetricSpec",
    "MomentState",
    "OrderLadder",
    "PolynomialMetric",
    "SinusoidMetric",
    "StorageReport",
    "SweepCell",
    "append_batch",
    "compute_digest",
    "dumps_state",
    "expand_fractional_targets",
    "fractional_chain",
    "fractional_convergence_sweep",
    "from_batch",
    "load_state",
    "loads_state",
    "merge_states",
    "metric_from_moments",
    "metric_update",
    "parse_kind_spec",
    "read_batch_csv",
    "run_scenario",
    "save_state",
    "state_lock",
    "storage_report",
    "update_fractional",
    "update_integer",
    "update_mean",
    "update_normalizer",
    "write_records_csv",
]
