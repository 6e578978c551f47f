"""Self-tests of the benchmark: the correctness gate must reject doctored
artifacts, the tracer must attribute self time correctly, and every workload
must run end to end and traced at a tiny pair count.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, DigestGate, GateFailure  # noqa: E402

from duplexqkd import cli  # noqa: E402

SMALL_PAIRS = 2000


def make_artifact(tmp_path: Path, name: str, seed: int = 5, pairs: int = SMALL_PAIRS) -> Path:
    workload = WORKLOADS[name]
    out = tmp_path / f"{name}-{seed}.{workload.out_format}"
    assert cli.main(cli.parse_args(workload.argv(seed, pairs, out))) == 0
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_passes_real_artifacts(tmp_path, name):
    WORKLOADS[name].check(make_artifact(tmp_path, name), SMALL_PAIRS)


def test_gate_rejects_nan_s_hat(tmp_path):
    path = make_artifact(tmp_path, "base-honest-json")
    report = json.loads(path.read_text())
    report["chsh"]["per_state"]["psi_plus"]["s_hat"] = math.nan
    path.write_text(json.dumps(report))  # json.dumps writes the bare NaN token
    assert "NaN" in path.read_text()
    with pytest.raises(GateFailure, match="NaN"):
        WORKLOADS["base-honest-json"].check(path, SMALL_PAIRS)


def test_gate_rejects_moved_d_hat(tmp_path):
    path = make_artifact(tmp_path, "fourstate-ir-json")
    report = json.loads(path.read_text())
    report["d_hat"] = 0.5
    path.write_text(json.dumps(report))
    with pytest.raises(GateFailure, match="d_hat"):
        WORKLOADS["fourstate-ir-json"].check(path, SMALL_PAIRS)


def test_gate_rejects_wrong_csv_header(tmp_path):
    path = make_artifact(tmp_path, "base-qmmswap-csv")
    lines = path.read_text().split("\n")
    lines[0] = lines[0].replace("eve_guessed_bob_bit", "eve_bob_bit")
    path.write_text("\n".join(lines))
    with pytest.raises(GateFailure, match="header"):
        WORKLOADS["base-qmmswap-csv"].check(path, SMALL_PAIRS)


def test_gate_rejects_a_wrong_eve_guess(tmp_path):
    path = make_artifact(tmp_path, "base-qmmswap-csv")
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    mode, guess = header.index("mode"), header.index("eve_guessed_bob_bit")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) == len(header) and cells[mode] == "message":
            cells[guess] = "1" if cells[guess] == "0" else "0"
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines))
    with pytest.raises(GateFailure, match="Eve missed"):
        WORKLOADS["base-qmmswap-csv"].check(path, SMALL_PAIRS)


def test_digest_gate_requires_identical_repeats(tmp_path):
    workload = WORKLOADS["fourstate-ir-json"]
    gate = DigestGate(lambda path: workload.check(path, SMALL_PAIRS))
    first = make_artifact(tmp_path, workload.name, seed=5)
    assert gate(0, first) is None
    assert gate(0, first) is None
    # Another seed gives a valid artifact with different bytes.
    assert "SHA-256" in gate(0, make_artifact(tmp_path, workload.name, seed=6))
    assert "exit code" in gate(1, first)
    assert "no artifact" in gate(0, tmp_path / "missing.json")


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def busy(seconds):
        end = tracing.time.perf_counter() + seconds
        while tracing.time.perf_counter() < end:
            pass

    child = tracer.wrap("child", lambda: busy(0.02))

    def parent_body(config, adversary, index):
        busy(0.01)
        child()
        child()

    parent = tracer.wrap("parent", parent_body, pair_arg=2)
    parent(None, None, 0)
    parent(None, None, 1)
    p, c = tracer.get("parent"), tracer.get("child")
    assert (p.count, c.count, p.pairs, c.pairs) == (2, 4, 2, 2)
    assert c.parents == {"parent": 4}
    assert p.self_ns == p.total_ns - c.total_ns
    assert 0.015e9 < p.self_ns < 0.035e9


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.describe() for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--pairs", "1500")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace == "1":
        # A layer a workload bypasses reads zero; one it runs does not.
        assert (values["quantum.tensor.calls_per_pair"] > 0) == (name == "base-qmmswap-csv")
        assert (values["attacks.calls_per_pair"] > 0) == (name != "base-honest-json")
        assert (values["analysis.build_report.us_per_pair"] > 0) == (name != "base-qmmswap-csv")
        assert (values["fourstate.run_modified_pair.self_us_per_pair"] > 0) == (name == "fourstate-ir-json")
        assert values["trace.overhead"] > 0
    else:
        assert all(v > 0 for v in values.values())
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert env["nproc"] >= 1 and env["cli_seed"] == 3 and env["pairs"] == 1500


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "base-honest-json", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
