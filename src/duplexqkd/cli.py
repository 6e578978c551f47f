"""Batch front-end: parse flags (optionally layered over a key=value config
file), run one seeded session, and write either the aggregate JSON report or
a per-round CSV transcript.  Identical invocations produce byte-identical
artifacts; output files are written atomically (write then rename).

Exit codes: 0 success, 1 runtime failure (I/O), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .analysis import build_report
from .attacks import EveLog
from .config import AttackKind, CheckKind, ConfigFieldError, DEFAULT_SETTINGS, ProtocolKind, SimulationConfig
from .fourstate import ModifiedMode, ModifiedPairRecord
from .protocol import Mode, PairRecord, Session, run_session
from .quantum import Basis, BellStateId, ChshSettings, PauliOp

__all__ = ["RunSpec", "UsageError", "entry", "load_records_csv", "main", "parse_args", "run_cli"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flags or config-file entries; message names the offending flag."""


@dataclass(frozen=True)
class RunSpec:
    config: SimulationConfig
    out_format: str
    out_path: Path | None


_FLAG_CHOICES = {
    "protocol": tuple(p.value for p in ProtocolKind),
    "attack": tuple(a.value for a in AttackKind),
    "check": tuple(c.value for c in CheckKind),
    "format": ("json", "csv"),
}

_DEFAULTS = {
    "protocol": "base",
    "attack": "none",
    "pairs": "10000",
    "control-prob": "0.1",
    "check": None,  # follows the protocol: chsh for base, qber for modified
    "seed": "0",
    "settings": None,
    "format": "json",
    "out": None,
}


#: The flag that sets each range-checked SimulationConfig field.
_FIELD_FLAGS = {
    "pairs": "--pairs",
    "control_probability": "--control-prob",
    "check_kind": "--check",
    "seed": "--seed",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); surface instead
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="duplexqkd", description=__doc__, add_help=True)
    parser.add_argument("--config", metavar="PATH", help="key=value file supplying any flag")
    parser.add_argument("--protocol", choices=_FLAG_CHOICES["protocol"])
    parser.add_argument("--attack", choices=_FLAG_CHOICES["attack"])
    parser.add_argument("--pairs", metavar="N")
    parser.add_argument("--control-prob", dest="control_prob", metavar="C")
    parser.add_argument("--check", choices=_FLAG_CHOICES["check"])
    parser.add_argument("--seed", metavar="S")
    parser.add_argument(
        "--settings", metavar="A11,A12,A21,A22", help="CHSH angles in radians (default: maximal violation)"
    )
    parser.add_argument("--format", dest="out_format", choices=_FLAG_CHOICES["format"])
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"--config: line {lineno} is not key=value: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise UsageError(f"--config: unknown key {key!r} on line {lineno}")
        values[key] = value
    return values


def _parse_int(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"--{flag}: not an integer: {text!r}") from exc


def _parse_float(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"--{flag}: not a number: {text!r}") from exc


def _parse_settings(text: str) -> ChshSettings:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--settings: expected 4 comma-separated angles, got {len(parts)}")
    a11, a12, a21, a22 = (_parse_float("settings", p) for p in parts)
    try:
        return ChshSettings(alice_angles=(a11, a12), bob_angles=(a21, a22))
    except ValueError as exc:
        raise UsageError(f"--settings: {exc}") from exc


def _parse_choice(flag: str, text: str) -> str:
    if text not in _FLAG_CHOICES[flag]:
        raise UsageError(f"--{flag}: invalid choice {text!r} (choose from {', '.join(_FLAG_CHOICES[flag])})")
    return text


def parse_args(argv: list[str]) -> RunSpec:
    """Resolve argv (and any --config file) into a RunSpec.

    Per-flag precedence: command line, then config file, then defaults.
    """
    namespace = _build_parser().parse_args(argv)
    file_values = _read_config_file(namespace.config) if namespace.config else {}

    def resolve(key: str, cli_value) -> str | None:
        if cli_value is not None:
            return cli_value
        return file_values.get(key, _DEFAULTS[key])

    protocol = ProtocolKind(_parse_choice("protocol", resolve("protocol", namespace.protocol)))
    attack = AttackKind(_parse_choice("attack", resolve("attack", namespace.attack)))
    pairs = _parse_int("pairs", resolve("pairs", namespace.pairs))
    control_prob = _parse_float("control-prob", resolve("control-prob", namespace.control_prob))
    check_text = resolve("check", namespace.check)
    check = CheckKind(_parse_choice("check", check_text)) if check_text is not None else None
    seed = _parse_int("seed", resolve("seed", namespace.seed))
    settings_text = resolve("settings", namespace.settings)
    settings = _parse_settings(settings_text) if settings_text is not None else DEFAULT_SETTINGS
    out_format = _parse_choice("format", resolve("format", namespace.out_format))
    out_value = resolve("out", namespace.out)

    try:
        config = SimulationConfig(
            pairs=pairs,
            control_probability=control_prob,
            check_kind=check,
            attack=attack,
            seed=seed,
            settings=settings,
            protocol=protocol,
        )
    except ConfigFieldError as exc:
        raise UsageError(f"{_FIELD_FLAGS[exc.field_name]}: {exc}") from exc

    return RunSpec(config=config, out_format=out_format, out_path=Path(out_value) if out_value else None)


# ---------------------------------------------------------------------------
# Record serialization

CSV_COLUMNS = [
    "pair_index",
    "protocol",
    "mode",
    "bob_state",
    "alice_basis",
    "alice_setting",
    "alice_angle",
    "bob_setting",
    "bob_angle",
    "outcome_1",
    "outcome_2",
    "correlated",
    "bob_decoded_basis",
    "alice_decoded_state",
    "qber_pass",
    "alice_bell_outcome",
    "alice_pauli",
    "alice_target",
    "bob_decoded",
    "control_basis",
    "control_pass",
    "eve_substitute",
    "eve_bell_outcome",
    "eve_guessed_alice_bit",
    "eve_guessed_bob_bit",
]


# One renderer per exact cell type; enum texts are fixed at import.
_CELL_TEXT: dict[type, Callable[[object], str]] = {
    type(None): {None: ""}.__getitem__,
    bool: {True: "1", False: "0"}.__getitem__,
    int: repr,
    float: repr,
    **{enum: {m: m.name.lower() for m in enum}.__getitem__ for enum in (BellStateId, PauliOp)},
    **{enum: {m: m.value for m in enum}.__getitem__ for enum in (Basis, Mode, ModifiedMode)},
}


def _cell(value) -> str:
    try:
        render = _CELL_TEXT[type(value)]
    except KeyError:
        raise TypeError(f"no CSV cell text for {type(value).__name__} value {value!r}") from None
    return render(value)


def _record_row(record) -> list[str]:
    """One transcript row, its cells in ``CSV_COLUMNS`` order."""
    outcomes = record.outcomes
    outcome_1 = _cell(outcomes[0]) if len(outcomes) > 0 else ""
    outcome_2 = _cell(outcomes[1]) if len(outcomes) > 1 else ""
    log = record.eve_log
    if log is None:
        eve = ["", "", "", ""]
    else:
        eve = [
            _cell(log.substitute_state),
            _cell(log.bell_outcome),
            _cell(log.guessed_alice_bit),
            _cell(log.guessed_bob_bit),
        ]
    if isinstance(record, PairRecord):
        return [
            _cell(record.pair_index),
            "base",
            _cell(record.mode),
            _cell(record.bob_state),
            _cell(record.alice_basis),
            _cell(record.alice_setting),
            _cell(record.alice_angle),
            _cell(record.bob_setting),
            _cell(record.bob_angle),
            outcome_1,
            outcome_2,
            _cell(record.correlated),
            _cell(record.bob_decoded_basis),
            _cell(record.alice_decoded_state),
            _cell(record.qber_pass),
            "", "", "", "", "", "",  # the four-state columns
            *eve,
        ]
    return [
        _cell(record.pair_index),
        "modified",
        _cell(record.mode),
        _cell(record.bob_state),
        "", "", "", "", "",  # alice_basis .. bob_angle
        outcome_1,
        outcome_2,
        "", "", "", "",  # correlated .. qber_pass
        _cell(record.alice_bell_outcome),
        _cell(record.alice_pauli),
        _cell(record.alice_target),
        _cell(record.bob_decoded),
        _cell(record.control_basis),
        _cell(record.control_pass),
        *eve,
    ]


#: Rows joined into one write: the text held at once stays a few hundred rows
#: long whatever the session's chunk size.
_CSV_SLICE = 512


def records_to_csv(records: Iterable, handle: TextIO) -> None:
    """Write the CSV transcript of ``records`` to ``handle``, each row as
    its record arrives, so no transcript is held in memory.

    A session's rows are written a chunk at a time: every row past the
    pair index is its trie leaf's, rendered once per leaf."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    if not isinstance(records, Session):
        writer.writerows(map(_record_row, records))
        return
    suffixes: list[str] = []
    text = io.StringIO()
    leaf_writer = csv.writer(text, lineterminator="\n")
    start = 0
    for ids in records.leaf_ids():
        for record in records.leaves[len(suffixes) :]:
            text.seek(0)
            text.truncate()
            leaf_writer.writerow(_record_row(record))
            suffixes.append(text.getvalue().split(",", 1)[1])
        for lo in range(0, len(ids), _CSV_SLICE):
            leaves = ids[lo : lo + _CSV_SLICE].tolist()
            handle.write("".join([f"{i},{suffixes[leaf]}" for i, leaf in enumerate(leaves, start + lo)]))
        start += len(ids)


def _opt(cell: str, convert):
    return convert(cell) if cell != "" else None


_STATE_BY_NAME = {state.name.lower(): state for state in BellStateId}
_PAULI_BY_NAME = {op.name.lower(): op for op in PauliOp}
_EVE_COLUMNS = ("eve_substitute", "eve_bell_outcome", "eve_guessed_alice_bit", "eve_guessed_bob_bit")


def _eve_log_from_row(row: dict[str, str]) -> EveLog | None:
    cells = [row[c] for c in _EVE_COLUMNS]
    if all(c == "" for c in cells):
        return None
    return EveLog(
        substitute_state=_opt(row["eve_substitute"], _STATE_BY_NAME.__getitem__),
        bell_outcome=_opt(row["eve_bell_outcome"], _STATE_BY_NAME.__getitem__),
        guessed_alice_bit=_opt(row["eve_guessed_alice_bit"], int),
        guessed_bob_bit=_opt(row["eve_guessed_bob_bit"], int),
        measured_bases=(),
        measured_outcomes=(),
        observations=(),
    )


def load_records_csv(path) -> list:
    """Rebuild records from a CSV transcript.

    Announcement lists and Eve's measurement and observation traces are not
    serialized to CSV (loaded logs hold empty tuples there); everything the
    estimators consume round-trips.  Records with equal cells share one
    outcome tuple, angle and Eve log object, so a loaded transcript costs
    about 200 bytes per round; treat the loaded logs as read-only.
    """
    shared = {}.setdefault  # equal outcome tuples and angle cells
    logs: dict[tuple[str, ...], EveLog | None] = {}

    def angle(cell: str) -> float:
        return shared(cell, float(cell))

    def eve_log(row: dict[str, str]) -> EveLog | None:
        key = tuple([row[c] for c in _EVE_COLUMNS])
        if key not in logs:
            logs[key] = _eve_log_from_row(row)
        return logs[key]

    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        records = []
        for row in reader:
            outcomes = tuple(
                int(row[c]) for c in ("outcome_1", "outcome_2") if row[c] != ""
            )
            outcomes = shared(outcomes, outcomes)
            if row["protocol"] == "base":
                records.append(
                    PairRecord(
                        pair_index=int(row["pair_index"]),
                        mode=Mode(row["mode"]),
                        bob_state=_STATE_BY_NAME[row["bob_state"]],
                        alice_basis=_opt(row["alice_basis"], Basis),
                        alice_setting=_opt(row["alice_setting"], int),
                        alice_angle=_opt(row["alice_angle"], angle),
                        bob_setting=_opt(row["bob_setting"], int),
                        bob_angle=_opt(row["bob_angle"], angle),
                        outcomes=outcomes,
                        announcements=(),
                        correlated=_opt(row["correlated"], lambda c: c == "1"),
                        bob_decoded_basis=_opt(row["bob_decoded_basis"], Basis),
                        alice_decoded_state=_opt(row["alice_decoded_state"], _STATE_BY_NAME.get),
                        qber_pass=_opt(row["qber_pass"], lambda c: c == "1"),
                        eve_log=eve_log(row),
                    )
                )
            elif row["protocol"] == "modified":
                records.append(
                    ModifiedPairRecord(
                        pair_index=int(row["pair_index"]),
                        mode=ModifiedMode(row["mode"]),
                        bob_state=_STATE_BY_NAME[row["bob_state"]],
                        alice_bell_outcome=_opt(row["alice_bell_outcome"], _STATE_BY_NAME.get),
                        alice_pauli=_opt(row["alice_pauli"], _PAULI_BY_NAME.get),
                        alice_target=_opt(row["alice_target"], _STATE_BY_NAME.get),
                        bob_decoded=_opt(row["bob_decoded"], _STATE_BY_NAME.get),
                        control_basis=_opt(row["control_basis"], Basis),
                        outcomes=outcomes,
                        control_pass=_opt(row["control_pass"], lambda c: c == "1"),
                        announcements=(),
                        eve_log=eve_log(row),
                    )
                )
            else:
                raise ValueError(f"unknown protocol tag {row['protocol']!r}")
    return records


# ---------------------------------------------------------------------------
# Execution


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    # Never leave a partial artifact: ``write`` fills a sibling temp file,
    # which is then renamed over ``path``.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def main(run: RunSpec) -> int:
    """Run the session described by ``run`` and emit its artifact.

    Records stream from the session straight into the report counters
    (JSON) or the output handle (CSV); the transcript is never held.
    """
    records = run_session(run.config)
    if run.out_format == "json":
        report = build_report(records, run.config)
        text = json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"

        def write(handle: TextIO) -> None:
            handle.write(text)

    else:

        def write(handle: TextIO) -> None:
            records_to_csv(records, handle)

    try:
        if run.out_path is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            _atomic_write(run.out_path, write)
    except OSError as exc:
        target = "<stdout>" if run.out_path is None else run.out_path
        print(f"duplexqkd: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"duplexqkd: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return main(spec)


def entry() -> int:
    """Process entry of ``python -m duplexqkd.cli`` and the ``duplexqkd``
    console script.

    What the imports built lives until the process exits, so it is frozen
    out of the collector (``gc.freeze``): neither the run's full collections
    nor interpreter teardown traverse it again.  Objects made during the run
    are collected as before.  ``run_cli`` leaves the collector alone, so
    tests and library callers keep theirs untouched.
    """
    gc.freeze()
    return run_cli()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(entry())
