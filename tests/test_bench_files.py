"""The committed perf trajectory: every ``BENCH_<n>.json`` at the repository
root holds the ``perfbench/run.py`` result lines of a parent commit and of
the change that followed it, for every workload and end-to-end metric that
``BENCHMARK.json`` declares."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_perf_trajectory_is_committed():
    assert BENCH_FILES


def test_the_trajectory_has_no_gap_since_bench_21():
    # Every change from the 21st on commits its file, so the numbers run
    # without a gap from 21 to the highest one.  The one exception is 28:
    # no change that landed took that number (CHANGES.md has no entry for
    # it), so there is no run of it to record.
    numbers = {int(path.stem.removeprefix("BENCH_")) for path in BENCH_FILES}
    missing = set(range(21, max(numbers) + 1)) - numbers - {28}
    assert not missing, sorted(f"BENCH_{n}.json" for n in missing)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_has_parent_and_change_results(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(path.read_text())
    for side in ("parent", "change"):
        assert bench[side]["commit"]
        runs = bench[side]["runs"]
        for workload in spec["workloads"]:
            results = runs[workload["name"]]
            assert results, (side, workload["name"])
            for result in results:
                assert {"correct", "attempted", "failed", "metrics"} <= set(result)
                for metric in spec["end_to_end"]:
                    value = result["metrics"][metric["name"]]
                    assert value["unit"] == metric["unit"]
                    assert math.isfinite(value["value"])
