"""The package root: its public names resolve on first access (PEP 562)."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

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
    "save_state", "state_lock", "update_fractional", "update_integer", "update_normalizer",
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

    for name in ("OrderLadder", "EmptyState", "MomentState", "AnyState"):
        assert getattr(accumulator, name) is getattr(states, name)


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _unused_imports(source):
    """The names a module imports and never reads, in code or in an
    annotation, a string annotation such as ``"np.ndarray"`` included."""
    tree = ast.parse(source)
    imported, annotations = {}, []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    used = _names(tree)
    for root in filter(None, annotations):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_finds_a_leftover_and_reads_annotations():
    source = (
        "from typing import Any, Sequence\n"
        "import numpy as np\n"
        "import os.path\n"
        "def f(x: Sequence) -> 'np.ndarray': ...\n"
    )
    assert _unused_imports(source) == ["Any (line 1)", "os (line 3)"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(momentflow.__file__).parent.glob("*.py"))
)
def test_no_module_imports_a_name_it_never_uses(module):
    path = Path(momentflow.__file__).parent / module
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unordered_sums(source):
    """The builtin sum() calls and the None-seeded accumulations
    (``t if acc is None else acc + t``) in ``source``, each as its source
    text: the package sums Python numbers through elements.left_sum and
    itertools.accumulate instead, in one order on every Python."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            found.append(ast.unparse(node))
        elif (
            isinstance(node, ast.IfExp)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.ops[0], ast.Is)
            and ast.dump(node.test.comparators[0]) == ast.dump(ast.Constant(None))
            and isinstance(node.orelse, ast.BinOp)
            and isinstance(node.orelse.op, ast.Add)
            and ast.dump(node.orelse.left) == ast.dump(node.test.left)
        ):
            found.append(ast.unparse(node))
    return found


def test_unordered_sums_finds_builtin_sum_and_none_seeded_accumulation():
    source = (
        "import math\n"
        "a = sum(x)\n"
        "b = math.fsum(x) + x.sum()\n"
        "acc = t if acc is None else acc + t\n"
        "s[j] = t if s[j] is None else s[j] + t\n"
        "c = t if acc is None else t + acc\n"
    )
    assert _unordered_sums(source) == [
        "sum(x)",
        "t if acc is None else acc + t",
        "t if s[j] is None else s[j] + t",
    ]


# The sums the scan below leaves where they are. bench.py's loops are the
# paper's timed cost model, so bench.py keeps its own. _power_sums' record-
# major walk adds each record's powers into one slot per order, left to
# right, in its one pass over the batch; left_sum per order would need a
# second pass or a records x orders table.
KEPT_SUMS = {"accumulator.py": ["wp if sums[j] is None else sums[j] + wp"]}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(momentflow.__file__).parent.glob("*.py"))
)
def test_no_module_sums_through_builtin_sum_or_a_none_seeded_loop(module):
    found = _unordered_sums((Path(momentflow.__file__).parent / module).read_text(encoding="utf-8"))
    if module == "bench.py":
        found = [text for text in found if " is None else " not in text]
    assert found == KEPT_SUMS.get(module, [])


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


def _loaders(source):
    """The importlib imports and import_module calls in ``source``, each as
    its source text: the package root's ``__getattr__`` is the package's
    one first-use loader, and every other module reaches a lazily loaded
    name through it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "importlib" for alias in node.names):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "importlib":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "import_module":
                found.append(ast.unparse(node))
    return found


def test_loaders_finds_importlib_imports_and_import_module_calls():
    source = (
        "import json, importlib\n"
        "import importlib.util as u\n"
        "from importlib import import_module\n"
        "m = importlib.import_module('.x', 'p')\n"
        "n = import_module('y')\n"
        "import json\n"
    )
    assert _loaders(source) == [
        "import json, importlib",
        "import importlib.util as u",
        "from importlib import import_module",
        "importlib.import_module('.x', 'p')",
        "import_module('y')",
    ]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in Path(momentflow.__file__).parent.glob("*.py") if p.name != "__init__.py"),
)
def test_no_module_but_the_root_loads_modules_by_name(module):
    path = Path(momentflow.__file__).parent / module
    assert _loaders(path.read_text(encoding="utf-8")) == []


def _powers(source):
    """The powers ``source`` takes, each as its source text: ``**``, ``**=``
    and calls of pow(), math.pow or numpy's power and float_power.
    elements.py's power rule is the package's one definition of a real
    power, and every other module takes its powers through it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("pow", "power", "float_power"):
                found.append(ast.unparse(node))
    return found


def test_powers_finds_operators_and_power_calls():
    source = (
        "a = x ** 2\n"
        "b **= 0.5\n"
        "c = pow(x, 3) + math.pow(x, 0.5) + np.power(x, 2) + np.float_power(x, 2)\n"
        "d = f(**kwargs) + x * 2 + {**m}\n"
    )
    assert sorted(_powers(source)) == sorted([
        "x ** 2",
        "b **= 0.5",
        "pow(x, 3)",
        "math.pow(x, 0.5)",
        "np.power(x, 2)",
        "np.float_power(x, 2)",
    ])


# The powers the scan below leaves where they are. bench.py's
# _scratch_moment is the paper's timed from-scratch cost model, one
# ``**`` per record as the paper counts it, so it keeps its own.
KEPT_POWERS = {"bench.py": ["(x - mean) ** order"]}


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in Path(momentflow.__file__).parent.glob("*.py") if p.name != "elements.py"),
)
def test_no_module_but_elements_takes_a_power(module):
    found = _powers((Path(momentflow.__file__).parent / module).read_text(encoding="utf-8"))
    assert found == KEPT_POWERS.get(module, [])
