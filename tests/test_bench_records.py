"""The committed benchmark records: BENCH_<slug>.json at the repository root.

Each holds the raw result lines of perfbench runs (``perfbench/run.py``)
that a performance claim rests on. A record counts only runs that
succeeded: every command ran and the result check passed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_benchmark_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_parses_and_holds_only_good_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["slug"] == path.stem.removeprefix("BENCH_")
    run_lists = [key for key in record if key.endswith("runs")]
    assert "runs" in run_lists
    for key in run_lists:
        assert record[key], f"{key} is empty"
        for i, run in enumerate(record[key]):
            result = run["result"]
            assert result["correct"] is True, f"{key}[{i}]"
            assert result["failed"] == 0, f"{key}[{i}]"
