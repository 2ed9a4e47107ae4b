"""What the benchmark harness under perfbench/ reads of the package.

The harness is not a package and is not imported by the library, so a
change to a name or a field it uses would only show when the benchmark
runs. These tests load its tracer and result check by file path, under
module names of their own, and run them against the installed package.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentflow
from momentflow import load_state
from momentflow.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    module_name = f"_momentflow_tests_perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def test_every_tracer_patch_point_resolves():
    watched = [
        (momentflow.cli, "build_parser"),
        (momentflow.cli, "load_state"),
        (momentflow.statefile, "dumps_state"),
        (momentflow.statefile, "os"),
        (momentflow.batchfile, "Batch"),
        (momentflow.accumulator, "from_batch"),
        (momentflow.accumulator, "update_fractional"),
    ]
    before = [getattr(obj, attr) for obj, attr in watched]
    tracer = _load("tracer").Tracer()
    try:
        tracer.install(momentflow, {})
    finally:
        tracer.uninstall()
    assert [getattr(obj, attr) for obj, attr in watched] == before


def _write_csv(path, kind, values, weights):
    if kind == "scalar":
        header, rows = "x", [[x] for x in values.tolist()]
    elif kind == "complex":
        header, rows = "re,im", [[x.real, x.imag] for x in values.tolist()]
    else:
        header = ",".join(f"x{i}" for i in range(values.shape[1]))
        rows = values.tolist()
    lines = [header + ",weight"]
    lines += [",".join(map(repr, row + [w])) for row, w in zip(rows, weights.tolist())]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind,orders", [("scalar", "2..20"), ("complex", "2..8,2.5"), ("vector:3", "2..8")]
)
def test_result_check_reads_cli_built_states(tmp_path, capsys, kind, orders):
    check = _load("check")
    rng = np.random.default_rng(7)
    state = str(tmp_path / "s.json")
    assert main(["init", "--state", state, "--kind", kind, "--orders", orders]) == 0
    data = None
    for i, n in enumerate([8, 40, 3]):  # per-record and whole-array passes
        shape = (n, 3) if kind == "vector:3" else (n,)
        values = 1.0 + 0.1 * i + rng.normal(size=shape)
        if kind == "complex":
            values = values + 1j * (2.0 + rng.normal(size=n))
        weights = 0.5 + rng.random(n)
        batch = tmp_path / f"b{i}.csv"
        _write_csv(batch, kind, values, weights)
        assert main(["append", "--state", state, "--batch", str(batch)]) == 0
        data = check.Data(values, weights) if data is None else data.plus(values, weights)
    capsys.readouterr()
    errs = check.state_errors(momentflow, kind, load_state(state), data)
    integer = {k: v for k, v in errs.items() if not k.startswith("frac:")}
    assert {f"M{n}" for n in range(2, 9)} <= integer.keys()
    assert all(v <= check.TOLERANCE for v in integer.values()), integer


_TRACED_SESSION = """
import importlib.util, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("_perfbench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import momentflow
import momentflow.cli

root = Path(sys.argv[2])
state, batch = str(root / "s.json"), root / "b.csv"
batch.write_text("x,weight\\n1.5,1\\n2,0.5\\n4,1\\n")
metric = ["metric", "--state", state, "--provider", "exp:1,0.5", "--n-star", "4"]
tracer = tracing.Tracer()
tracer.install(momentflow, {})
try:
    codes = [
        tracer.command(momentflow.cli.main, argv)
        for argv in (
            ["init", "--state", state, "--orders", "2..6", "--kind", "scalar"],
            ["append", "--state", state, "--batch", str(batch)],
            ["append", "--state", state, "--batch", str(batch)],
            metric,
            [*metric, "--batch", str(batch)],
        )
    ]
finally:
    tracer.uninstall()
spans = tracing.summarize(tracer.spans, set(range(len(codes))), 1)
print(json.dumps([codes, {k: v["calls"] for k, v in spans.items() if "calls" in v},
                  {k: v["total_ns"] for k, v in spans.items() if "total_ns" in v}]))
"""


def test_traced_commands_time_each_layer_the_cli_loads_on_first_call(tmp_path):
    # A fresh process, so that each layer call of cli is made for the first
    # time under the tracer: every call must go through its wrapper, the
    # first one (which imports the layer) as well as the later ones.
    r = subprocess.run(
        [sys.executable, "-c", _TRACED_SESSION, str(PERFBENCH / "tracer.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    codes, calls, total_ns = json.loads(r.stdout.splitlines()[-1])
    assert codes == [0] * 5
    expected = {
        "batchfile.read_batch_csv": 3,
        "accumulator.append_batch": 2,
        "metrics.metric_from_moments": 1,
        "metrics.metric_update": 1,
    }
    assert {name: calls[name] for name in expected} == expected
    assert all(total_ns[name] > 0 for name in expected)
