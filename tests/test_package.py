"""The package root: its public names resolve on first access (PEP 562)."""

import importlib
import json
import subprocess
import sys

import pytest

import momentflow

SUBMODULES = (
    "accumulator", "batchfile", "bench", "binomial", "cli", "elements",
    "errors", "metrics", "statefile", "states",
)


# The public names, as the package root exported them when it imported
# every submodule.
PUBLIC = (
    "AnyState", "Batch", "ConvergenceReport", "EmptyState", "ExponentialMetric", "Kind",
    "MAX_EXACT_ORDER", "MetricResult", "MetricSpec", "MomentState", "OrderLadder",
    "PolynomialMetric", "SinusoidMetric", "append_batch", "compute_digest", "dumps_state",
    "expand_fractional_targets", "fractional_chain", "from_batch", "load_state", "loads_state",
    "merge_states", "metric_from_moments", "metric_update", "parse_kind_spec", "read_batch_csv",
    "save_state", "state_lock", "update_fractional", "update_integer", "update_mean",
    "update_normalizer",
)


def test_all_lists_the_public_names():
    assert momentflow.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_resolves_to_its_defining_module_object(name):
    value = getattr(momentflow, name)
    home = importlib.import_module(f"momentflow.{momentflow._HOME[name]}")
    assert value is getattr(home, name)


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(momentflow)
    assert set(momentflow.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from momentflow import *", namespace)
    assert set(momentflow.__all__) <= namespace.keys()
    assert namespace["MomentState"] is momentflow.states.MomentState


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(momentflow, name) is importlib.import_module(f"momentflow.{name}")


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(momentflow, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        momentflow.no_such_name


def test_the_state_types_are_shared_with_accumulator():
    from momentflow import accumulator, states

    for name in ("OrderLadder", "EmptyState", "MomentState", "AnyState", "fractional_chain",
                 "expand_fractional_targets", "DEFAULT_FRACTIONAL_CUTOFF"):
        assert getattr(accumulator, name) is getattr(states, name)


def test_importing_the_root_loads_no_submodule_and_a_name_loads_only_its_own():
    probe = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(n for n in sys.modules if n.split('.')[0] == 'momentflow')\n"
        "import momentflow\n"
        "bare = loaded()\n"
        "momentflow.load_state\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bare, after = json.loads(r.stdout)
    assert bare == ["momentflow"]
    assert "momentflow.statefile" in after
    assert not {"momentflow.accumulator", "momentflow.cli", "momentflow.metrics"} & set(after)
