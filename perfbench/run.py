#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the duplexqkd CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures end to end.  A closed loop launches the CLI
(``python -m duplexqkd.cli``) as a child process, one at a time, each with
the workload's flags and ``--seed N``, and times it from spawn to exit.  It
reports the median pairs/s and peak RSS of the full-size runs made within
``--seconds``, and the median wall time of several one-pair runs made first
(``setup_s``).  Every run passes the correctness gate in ``workloads.py`` or
counts as failed and gives no timing sample.

``--trace 1`` reports per-layer numbers instead: one untraced and one traced
in-process session through ``cli.parse_args``/``cli.main``, a few child runs
for memory, CPU and import time, and micro-timings of the state-algebra
primitives.  It does this fixed amount of work whatever ``--seconds`` says.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

# One-pair runs per invocation for setup_s, after one untimed warm-up run.
SETUP_RUNS = 11
# Fresh interpreters that only import the package, for cli.import_s.
IMPORT_RUNS = 5
# A child that outlives this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

# Children run single-threaded: a closed loop of one child at a time on a
# small host, with no BLAS thread pool competing for the second core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


END_TO_END_UNITS = {"pairs_per_s": "pairs/s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "quantum.measure_qubit.calls_per_pair": "calls/pair",
    "quantum.measure_qubit.self_us_per_pair": "us/pair",
    "quantum.bell_measure.calls_per_pair": "calls/pair",
    "quantum.bell_measure.self_us_per_pair": "us/pair",
    "quantum.tensor.calls_per_pair": "calls/pair",
    "quantum.tensor.self_us_per_pair": "us/pair",
    "protocol.run_session.self_us_per_pair": "us/pair",
    "protocol.run_pair.self_us_per_pair": "us/pair",
    "protocol.message_fraction": "ratio",
    "protocol.pairs": "pairs",
    "protocol.held_kb_per_pair": "KB/pair",
    "attacks.relay_qubit.self_us_per_pair": "us/pair",
    "attacks.hear.self_us_per_pair": "us/pair",
    "attacks.end_pair.self_us_per_pair": "us/pair",
    "attacks.calls_per_pair": "calls/pair",
    "fourstate.run_modified_pair.self_us_per_pair": "us/pair",
    "analysis.build_report.us_per_pair": "us/pair",
    "analysis.report_json_ms": "ms",
    "cli.parse_args.ms": "ms",
    "cli.import_s": "s",
    "cli.records_to_csv.us_per_pair": "us/pair",
    "cli.write_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "cli.cpu_s": "s",
    "other.self_us_per_pair": "us/pair",
    "trace.overhead": "ratio",
    "quantum.micro.measure_qubit_2q_us": "us",
    "quantum.micro.measure_qubit_4q_us": "us",
    "quantum.micro.bell_measure_2q_us": "us",
    "quantum.micro.bell_measure_4q_us": "us",
    "quantum.micro.tensor_us": "us",
    "protocol.micro.pair_stream_us": "us",
}


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    rss_mb: float
    cpu_s: float
    returncode: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # An installed package starts from compiled bytecode; the warm-up run
    # writes it under src/, so set-up time never includes compiling.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env.update(SINGLE_THREAD_ENV)
    return env


def spawn(args: list[str], env: dict[str, str], stderr_path: Path) -> ChildRun:
    """Run ``python args`` to completion; wall time from spawn to exit, and
    the child's own rusage."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=proc.returncode,
    )


class Session:
    """The gated CLI runs of one invocation."""

    def __init__(self, workload, cli_seed: int, pairs: int, tmp: Path) -> None:
        from workloads import DigestGate, check_structure

        self.workload = workload
        self.cli_seed = cli_seed
        self.pairs = pairs
        self.tmp = tmp
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.artifact = tmp / f"artifact.{workload.out_format}"
        self.full_gate = DigestGate(lambda path: workload.check(path, pairs))
        self.setup_gate = DigestGate(lambda path: check_structure(path, workload.out_format, 1))

    def cli_args(self, pairs: int) -> list[str]:
        return ["-m", "duplexqkd.cli", *self.workload.argv(self.cli_seed, pairs, self.artifact)]

    def run(self, pairs: int) -> ChildRun | None:
        """One gated CLI child; None when it fails the gate."""
        self.artifact.unlink(missing_ok=True)
        stderr_path = self.tmp / "child.err"
        result = spawn(self.cli_args(pairs), self.env, stderr_path)
        gate = self.full_gate if pairs == self.pairs else self.setup_gate
        return result if self.record(gate(result.returncode, self.artifact), stderr_path) else None

    def record(self, reason: str | None, stderr_path: Path | None = None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        if stderr_path is not None and stderr_path.exists():
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            reason += f" ({tail[0]})" if tail else ""
        self.failures.append(reason)
        print(f"perfbench: run failed: {reason}", file=sys.stderr)
        return False

    def setup_runs(self) -> list[ChildRun]:
        self.run(1)  # warm-up: byte-compiles the package and fills the file cache
        return [r for r in (self.run(1) for _ in range(SETUP_RUNS)) if r is not None]


def environment(args, workload, cli_seed: int, pairs: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "flags": [*workload.flags, "--format", workload.out_format],
        "seed": args.seed,
        "cli_seed": cli_seed,
        "pairs": pairs,
        "setup_pairs": 1,
        "seconds": args.seconds,
        "trace": args.trace,
        "child_env": {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": None, **SINGLE_THREAD_ENV},
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, so numbers can be tied to code even
    outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "duplexqkd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def summary(values: list[float]) -> dict:
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "min": min(values, default=None),
        "max": max(values, default=None),
        "samples": values,
    }


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setup = session.setup_runs()
    throughput, rss, cpu = [], [], []
    start = time.perf_counter()
    started, elapsed = 0, 0.0
    # Start another child only while it should end inside the window, judged
    # by the mean child so far; the first one always starts.
    while started == 0 or elapsed + elapsed / started <= seconds:
        result = session.run(session.pairs)
        started += 1
        elapsed = time.perf_counter() - start
        if result is not None:
            throughput.append(session.pairs / result.wall_s)
            rss.append(result.rss_mb)
            cpu.append(result.cpu_s)
    detail = {
        "pairs_per_s": summary(throughput),
        "peak_rss_mb": summary(rss),
        "cpu_s": summary(cpu),
        "setup_s": summary([r.wall_s for r in setup]),
        "setup_rss_mb": summary([r.rss_mb for r in setup]),
    }
    values = {}
    if throughput:
        values["pairs_per_s"] = statistics.median(throughput)
        values["peak_rss_mb"] = statistics.median(rss)
    if setup:
        values["setup_s"] = statistics.median(r.wall_s for r in setup)
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}, detail


def message_fraction(path: Path, out_format: str) -> float:
    """Message rounds ÷ pairs, read back from the artifact."""
    if out_format == "json":
        from workloads import parse_json_strict

        return 1.0 - parse_json_strict(path.read_bytes())["control_fraction"]
    import csv

    with open(path, newline="") as handle:
        modes = [row["mode"] for row in csv.DictReader(handle)]
    return modes.count("message") / len(modes)


def measure_layers(session: Session) -> tuple[dict, dict]:
    import tracing

    workload, pairs = session.workload, session.pairs
    imports = []
    for _ in range(IMPORT_RUNS):
        result = spawn(["-c", "import duplexqkd"], session.env, session.tmp / "child.err")
        if session.record(None if result.returncode == 0 else f"import exit code {result.returncode}"):
            imports.append(result.wall_s)
    setup = session.setup_runs()
    child = session.run(pairs)
    artifact_bytes = session.artifact.stat().st_size if child is not None else 0

    argv = workload.argv(session.cli_seed, pairs, session.artifact)

    def in_process(run) -> tuple:
        session.artifact.unlink(missing_ok=True)
        outcome = run(argv)
        # The gate's reference digest is the child's, so this also checks
        # that in-process (and traced) runs write the same bytes.
        session.record(session.full_gate(outcome[-1], session.artifact))
        return outcome

    plain_s, _ = in_process(tracing.timed_session)
    tracer, _ = in_process(tracing.traced_session)
    traced_s = tracer.get("cli.main").total_ns / 1e9
    fraction = message_fraction(session.artifact, workload.out_format) if session.artifact.exists() else 0.0

    metrics = tracing.layer_metrics(tracer, pairs)
    base_rss = statistics.median(r.rss_mb for r in setup) if setup else 0.0
    metrics.update(
        {
            "protocol.message_fraction": fraction,
            "protocol.pairs": float(pairs),
            "protocol.held_kb_per_pair": (child.rss_mb - base_rss) * 1024.0 / pairs if child else 0.0,
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cli.artifact_bytes": float(artifact_bytes),
            "cli.cpu_s": child.cpu_s if child else 0.0,
            "trace.overhead": traced_s / plain_s,
        }
    )
    metrics.update(tracing.micro_timings())
    detail = {
        "spans": tracer.dump(),
        "untraced_main_s": plain_s,
        "traced_main_s": traced_s,
        "child": None if child is None else vars(child),
        "setup_rss_mb": summary([r.rss_mb for r in setup]),
        "import_s": summary(imports),
    }
    return {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in metrics.items()}, detail


def parse_cli(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the end-to-end measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, help="override the workload's pair count (smoke tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_cli(sys.argv[1:] if argv is None else argv)
    if not (SRC / "duplexqkd" / "cli.py").is_file():
        print(f"perfbench: no duplexqkd sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    pairs = args.pairs or workload.pairs
    cli_seed = args.seed % 2**64
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        session = Session(workload, cli_seed, pairs, tmp)
        if args.trace:
            metrics, detail = measure_layers(session)
        else:
            metrics, detail = measure_end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    env = environment(args, workload, cli_seed, pairs)
    detail["failed_frac"] = len(session.failures) / session.attempted
    detail["failures"] = session.failures
    print(json.dumps({"env": env, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": not session.failures,
                "attempted": session.attempted,
                "failed": len(session.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
