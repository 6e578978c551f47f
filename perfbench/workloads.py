"""Benchmark workloads and the correctness gate applied to every artifact.

A workload is one fixed set of CLI flags plus a pair count.  The benchmark
seed becomes the CLI's ``--seed``; the program receives nothing else.

The gate decides whether one CLI run counts:

* the artifact parses strictly (JSON without NaN/Infinity, or a CSV whose
  header is exactly ``cli.CSV_COLUMNS``);
* the workload's physics check holds within its stated bound;
* the artifact's SHA-256 equals that of the first run of the same seed.

Physics checks need ``duplexqkd`` importable (the runner puts the checkout's
``src`` on ``sys.path`` before importing this module).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["DigestGate", "GateFailure", "WORKLOADS", "Workload", "parse_json_strict"]

# Five standard deviations: a correct program fails a check about once in
# 1.7 million runs.
SIGMAS = 5.0
TSIRELSON = 2.0 * math.sqrt(2.0)


class GateFailure(Exception):
    """An artifact failed the correctness gate; the message says why."""


def _reject_constant(name: str):
    raise GateFailure(f"non-finite JSON constant {name}")


def parse_json_strict(data: bytes) -> dict:
    """Parse a JSON report, rejecting NaN, Infinity and non-object tops."""
    try:
        report = json.loads(data, parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError) as exc:
        raise GateFailure(f"invalid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise GateFailure("JSON artifact is not an object")
    return report


def load_csv_strict(path: Path) -> list:
    """Reload a CSV transcript through the program's own loader, which
    rejects any header other than ``cli.CSV_COLUMNS``."""
    from duplexqkd.cli import load_records_csv

    try:
        return load_records_csv(path)
    except (ValueError, KeyError) as exc:
        raise GateFailure(f"invalid CSV: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _finite(value, what: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{what} is not a finite number: {value!r}",
    )
    return float(value)


def _check_pairs(report: dict, pairs: int) -> None:
    _require(report.get("pairs") == pairs, f"report has {report.get('pairs')!r} pairs, expected {pairs}")


# ---------------------------------------------------------------------------
# Physics checks, one per workload.  Each takes the artifact path and the
# session's pair count and raises GateFailure on a miss.


def check_base_honest_json(path: Path, pairs: int) -> None:
    """Clean channel: perfect decoding, S = +2√2 (psi+) and −2√2 (phi−),
    control fraction C = 0.5."""
    report = parse_json_strict(path.read_bytes())
    _check_pairs(report, pairs)
    for key in ("decode_accuracy_alice", "decode_accuracy_bob"):
        _require(report.get(key) == 1.0, f"{key} is {report.get(key)!r}, expected exactly 1.0")
    per_state = report.get("chsh", {}).get("per_state", {})
    for state, target in (("psi_plus", TSIRELSON), ("phi_minus", -TSIRELSON)):
        _require(state in per_state, f"no CHSH estimate for {state}")
        s_hat = _finite(per_state[state].get("s_hat"), f"{state} s_hat")
        stderr = _finite(per_state[state].get("stderr"), f"{state} stderr")
        _require(stderr > 0.0, f"{state} stderr is {stderr}, expected > 0")
        _require(
            abs(s_hat - target) <= SIGMAS * stderr,
            f"{state} s_hat {s_hat:.4f} is more than {SIGMAS:g} stderr ({stderr:.4f}) from {target:+.4f}",
        )
    fraction = _finite(report.get("control_fraction"), "control_fraction")
    sigma = math.sqrt(0.25 / pairs)
    _require(
        abs(fraction - 0.5) <= SIGMAS * sigma,
        f"control_fraction {fraction:.5f} is more than {SIGMAS:g} sigma ({sigma:.5f}) from 0.5",
    )


def check_base_qmmswap_csv(path: Path, pairs: int) -> None:
    """Swap attack: S = 0 per state, and Eve reads Bob's bit on every
    message round."""
    from duplexqkd.analysis import estimate_chsh
    from duplexqkd.config import DEFAULT_SETTINGS
    from duplexqkd.protocol import STATE_BIT, Mode

    records = load_csv_strict(path)
    _require(len(records) == pairs, f"CSV has {len(records)} rows, expected {pairs}")
    per_state = estimate_chsh(records, DEFAULT_SETTINGS).per_state
    for state in STATE_BIT:
        _require(state in per_state, f"no CHSH estimate for {state.name.lower()}")
        name = state.name.lower()
        s_hat = _finite(per_state[state].s_hat, f"{name} s_hat")
        stderr = _finite(per_state[state].stderr, f"{name} stderr")
        _require(stderr > 0.0, f"{name} stderr is {stderr}, expected > 0")
        _require(
            abs(s_hat) <= SIGMAS * stderr,
            f"{name} |s_hat| {abs(s_hat):.4f} exceeds {SIGMAS:g} stderr ({stderr:.4f})",
        )
    message = [r for r in records if r.mode is Mode.MESSAGE]
    _require(bool(message), "no message rounds")
    wrong = sum(
        1
        for r in message
        if r.eve_log is None or r.eve_log.guessed_bob_bit != STATE_BIT[r.bob_state]
    )
    _require(wrong == 0, f"Eve missed Bob's bit on {wrong} of {len(message)} message rounds")


def check_fourstate_ir_json(path: Path, pairs: int) -> None:
    """Intercept-resend on the four-state variant: detection rate d = 1/4."""
    report = parse_json_strict(path.read_bytes())
    _check_pairs(report, pairs)
    fraction = _finite(report.get("control_fraction"), "control_fraction")
    # Every control round of the four-state variant is an error check.
    checks = round(fraction * pairs)
    _require(checks > 0, "no error checks")
    d_hat = _finite(report.get("d_hat"), "d_hat")
    sigma = math.sqrt(0.25 * 0.75 / checks)
    _require(
        abs(d_hat - 0.25) <= SIGMAS * sigma,
        f"d_hat {d_hat:.4f} is more than {SIGMAS:g} sigma ({sigma:.4f}) from 0.25 over {checks} checks",
    )


def check_structure(path: Path, out_format: str, pairs: int) -> None:
    """Strict parse only; used for set-up runs whose single pair carries no
    statistics."""
    if out_format == "json":
        _check_pairs(parse_json_strict(path.read_bytes()), pairs)
    else:
        records = load_csv_strict(path)
        _require(len(records) == pairs, f"CSV has {len(records)} rows, expected {pairs}")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    out_format: str
    pairs: int
    why: str
    check: Callable[[Path, int], None]

    def describe(self) -> str:
        """Flags and reason on one line, as BENCHMARK.json gives them."""
        return " ".join([*self.flags, "--format", self.out_format]) + ": " + self.why

    def argv(self, seed: int, pairs: int, out: Path) -> list[str]:
        """The CLI's arguments for one run."""
        return [*self.flags, "--format", self.out_format, "--pairs", str(pairs), "--seed", str(seed), "--out", str(out)]


# Pair counts keep each CLI run near 3 s on a 2-core x86-64 host with
# CPython 3.11, and make held records (not the ~30 MB interpreter) the bulk
# of peak RSS.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="base-honest-json",
            flags=("--protocol", "base", "--attack", "none", "--check", "chsh", "--control-prob", "0.5"),
            out_format="json",
            pairs=160_000,
            why="clean-channel headline path: 2-qubit measure_qubit, reseeding, tallying; attacks, "
            "tensor, Bell and CSV bypassed",
            check=check_base_honest_json,
        ),
        Workload(
            name="base-qmmswap-csv",
            flags=("--protocol", "base", "--attack", "qmm-swap", "--check", "chsh", "--control-prob", "0.5"),
            out_format="csv",
            pairs=45_000,
            why="costliest attack path: tensor to 4 qubits, 4-qubit measure and both Bell shapes, "
            "2 reseeds, a CSV row per pair",
            check=check_base_qmmswap_csv,
        ),
        Workload(
            name="fourstate-ir-json",
            flags=("--protocol", "modified", "--attack", "ir", "--check", "qber", "--control-prob", "0.2"),
            out_format="json",
            pairs=80_000,
            why="the only run_modified_pair, InterceptResend and 2-qubit bell_measure path; no tensor, "
            "no 4-qubit state",
            check=check_fourstate_ir_json,
        ),
    )
}


class DigestGate:
    """Applies the gate to successive runs of one seed and flag set.

    Physics verdicts are memoized by digest: identical bytes give an
    identical verdict, so repeats of a passing artifact cost one hash.
    """

    def __init__(self, check: Callable[[Path], None]) -> None:
        self._check = check
        self.reference: str | None = None
        self._verdicts: dict[str, str | None] = {}

    def __call__(self, returncode: int, path: Path) -> str | None:
        """Return None when the run passes, else the reason it failed."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no artifact: {exc.strerror}"
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest not in self._verdicts:
            try:
                self._check(path)
                self._verdicts[digest] = None
            except GateFailure as exc:
                self._verdicts[digest] = str(exc)
        if self._verdicts[digest] is not None:
            return self._verdicts[digest]
        if digest != self.reference:
            return f"SHA-256 {digest[:16]} differs from the first run's {self.reference[:16]}"
        return None

