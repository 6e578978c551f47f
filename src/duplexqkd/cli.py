"""Batch front-end: parse flags (optionally layered over a key=value config
file), run one seeded session, and write either the aggregate JSON report or
a per-round CSV transcript.  Identical invocations produce byte-identical
artifacts; output files are written atomically (write then rename).

Exit codes: 0 success, 1 runtime failure (I/O), 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable
from operator import attrgetter
from pathlib import Path
from typing import TextIO

from .analysis import build_report
from .attacks import EveLog
from .config import AttackKind, CheckKind, ConfigFieldError, DEFAULT_SETTINGS, ProtocolKind, SimulationConfig
from .protocol import SENT_STATES, Mode, PairRecord, Session, derived_fields, run_session
from .quantum import Basis, BellStateId, ChshSettings, PauliOp
from .values import value

__all__ = ["RunSpec", "UsageError", "entry", "load_records_csv", "main", "parse_args", "run_cli"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flags or config-file entries; message names the offending flag."""


@value
class RunSpec:
    config: SimulationConfig
    out_format: str
    out_path: Path | None


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


def _parse_settings(text: str) -> ChshSettings:
    """``--settings``' type: four comma-separated CHSH angles."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated angles, got {len(parts)}")
    try:
        a11, a12, a21, a22 = map(float, parts)
        return ChshSettings(alice_angles=(a11, a12), bob_angles=(a21, a22))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="duplexqkd", description=__doc__, add_help=True)
    parser.add_argument("--config", metavar="PATH", help="key=value file supplying any flag")
    parser.add_argument("--protocol", choices=[p.value for p in ProtocolKind], default="base")
    parser.add_argument("--attack", choices=[a.value for a in AttackKind], default="none")
    parser.add_argument("--pairs", type=int, default=10_000, metavar="N")
    parser.add_argument("--control-prob", dest="control_prob", type=float, default=0.1, metavar="C")
    # No default: the check follows the protocol, chsh for base and qber for modified.
    parser.add_argument("--check", choices=[c.value for c in CheckKind])
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--settings",
        type=_parse_settings,
        default=DEFAULT_SETTINGS,
        metavar="A11,A12,A21,A22",
        help="CHSH angles in radians (default: maximal violation)",
    )
    parser.add_argument("--format", dest="out_format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    return parser


#: A comment: a ``#`` that starts a line or follows whitespace, and the rest
#: of its line.  A ``#`` inside a value, as in ``out = a#b.csv``, is kept.
_COMMENT = re.compile(r"(?<!\S)#")


def _read_config_file(path: str, parser: _Parser) -> list[str]:
    """The key=value lines of ``path`` as ``--key=value`` arguments; a key
    must name one of ``parser``'s run flags (not ``--config`` or ``--help``).
    The file is UTF-8, with or without a byte-order mark.  The ``=`` form
    keeps a value such as ``-0.5,0,0,0`` from reading as a flag."""
    # argparse offers no public list of a parser's flags.
    flags = {flag for flag in parser._option_string_actions if flag.startswith("--")} - {"--config", "--help"}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"--config: {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    args = []
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"--config: line {lineno} is not key=value: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if f"--{key}" not in flags:
            raise UsageError(f"--config: unknown key {key!r} on line {lineno}")
        args.append(f"--{key}={value}")
    return args


def parse_args(argv: list[str]) -> RunSpec:
    """Resolve argv (and any --config file) into a RunSpec.

    The config file's lines are parsed as flags placed ahead of argv, so
    the command line wins and every value from either source is checked
    the same way.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(_read_config_file(args.config, parser) + argv)
    if args.out == "":
        raise UsageError("--out: the path is empty (omit --out to write to stdout)")
    try:
        config = SimulationConfig(
            pairs=args.pairs,
            control_probability=args.control_prob,
            check_kind=CheckKind(args.check) if args.check is not None else None,
            attack=AttackKind(args.attack),
            seed=args.seed,
            settings=args.settings,
            protocol=ProtocolKind(args.protocol),
        )
    except ConfigFieldError as exc:
        raise UsageError(f"{_FIELD_FLAGS[exc.field_name]}: {exc}") from exc
    return RunSpec(config=config, out_format=args.out_format, out_path=None if args.out is None else Path(args.out))


# ---------------------------------------------------------------------------
# Record serialization

#: The transcript's columns: ``pair_index``, then each ``PairRecord`` field
#: in order, the last, ``eve_log``, as one ``eve_<field>`` column per
#: ``EveLog`` field.
CSV_COLUMNS = ["pair_index", *PairRecord._fields[:-1], *(f"eve_{name}" for name in EveLog._fields)]
_EVE_COLUMNS = CSV_COLUMNS[len(PairRecord._fields) :]


# One renderer per exact cell type; enum texts are fixed at import.
_CELL_TEXT: dict[type, Callable[[object], str]] = {
    type(None): {None: ""}.__getitem__,
    bool: {True: "1", False: "0"}.__getitem__,
    int: repr,
    float: repr,
    **{enum: {m: m.name.lower() for m in enum}.__getitem__ for enum in (BellStateId, PauliOp)},
    **{enum: {m: m.value for m in enum}.__getitem__ for enum in (Basis, Mode, ProtocolKind)},
}


def _cell(value) -> str:
    try:
        render = _CELL_TEXT[type(value)]
    except KeyError:
        raise TypeError(f"no CSV cell text for {type(value).__name__} value {value!r}") from None
    return render(value)


_record_fields = attrgetter(*PairRecord._fields[:-1])
_eve_fields = attrgetter(*EveLog._fields)


def _record_row(record) -> str:
    """The end of a transcript line after its ``pair_index`` cell and comma:
    the cells of ``record``'s fields in order, then those of its Eve log's
    (the ``CSV_COLUMNS`` after ``pair_index``).  No cell text needs
    quoting, so the cells are joined by bare commas."""
    return ",".join([_cell(v) for v in (*_record_fields(record), *_eve_fields(record.eve_log))]) + "\n"


#: Rows joined into one write: the text held at once stays a few hundred rows
#: long whatever the session's chunk size.
_CSV_SLICE = 512


def records_to_csv(records: Iterable, handle: TextIO) -> None:
    """Write the CSV transcript of ``records`` to ``handle``, each row as
    its record arrives, so no transcript is held in memory; a row's
    ``pair_index`` is its position.

    A session's rows are written a chunk at a time: every row past the
    pair index is its trie leaf's, rendered once, in the first chunk that
    reaches that leaf."""
    handle.write(",".join(CSV_COLUMNS) + "\n")
    if not isinstance(records, Session):
        handle.writelines(f"{i},{_record_row(record)}" for i, record in enumerate(records))
        return
    suffixes: list[str | None] = [None] * len(records.leaves)
    start = 0
    for ids in records.leaf_ids():
        for leaf in set(ids):
            if suffixes[leaf] is None:
                suffixes[leaf] = _record_row(records.leaves[leaf])
        for lo in range(0, len(ids), _CSV_SLICE):
            leaves = ids[lo : lo + _CSV_SLICE]
            handle.write("".join([f"{i},{suffixes[leaf]}" for i, leaf in enumerate(leaves, start + lo)]))
        start += len(ids)


def _parser(values: Iterable) -> Callable[[str], object]:
    """The inverse of ``_cell`` over ``values``: a cell's value, or KeyError."""
    return {_cell(value): value for value in values}.__getitem__


def _angle(cell: str) -> float:
    """An angle cell's value: a finite float, or ValueError.  ``nan`` and
    ``inf`` are refused here, since they would write back as they read;
    any spelling other than the writer's fails the row's write-back."""
    if not math.isfinite(angle := float(cell)):
        raise ValueError(cell)
    return angle


#: The value of each drawn cell, by what the column holds; each parser
#: raises KeyError or ValueError on a cell no record renders to.  Only an
#: Eve cell may be empty (None).
_CELL_VALUE: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(["bob_state", "alice_bell_outcome", "alice_target"], _parser(BellStateId)),
    "alice_basis": _parser(Basis),
    **dict.fromkeys(["alice_setting", "bob_setting"], _parser([0, 1])),
    **dict.fromkeys(["alice_angle", "bob_angle"], _angle),
    **dict.fromkeys(["outcome_1", "outcome_2"], _parser([+1, -1])),
    **dict.fromkeys(["eve_substitute", "eve_bell_outcome"], _parser([None, *BellStateId])),
    **dict.fromkeys(["eve_guessed_alice_bit", "eve_guessed_bob_bit"], _parser([None, 0, 1, 2, 3])),
}
_BASIS_COLUMNS = ("outcome_1", "outcome_2", "alice_basis")
_CHSH_COLUMNS = ("alice_setting", "alice_angle", "bob_setting", "bob_angle")
#: The columns a row of each protocol and mode draws besides ``bob_state``
#: and the Eve cells (which may be empty); ``protocol.derived_fields`` gives
#: the others, or None where the writer leaves them empty.  Every
#: four-state control round is an error check.
_MODE_COLUMNS = {
    (ProtocolKind.BASE, Mode.MESSAGE): _BASIS_COLUMNS,
    (ProtocolKind.BASE, Mode.CONTROL_CHSH): ("outcome_1", "outcome_2", *_CHSH_COLUMNS),
    (ProtocolKind.BASE, Mode.CONTROL_QBER): _BASIS_COLUMNS,
    (ProtocolKind.MODIFIED, Mode.MESSAGE): ("alice_bell_outcome", "alice_target"),
    (ProtocolKind.MODIFIED, Mode.CONTROL_QBER): _BASIS_COLUMNS,
}
#: The protocol, mode and drawn columns of each pair of ``protocol`` and
#: ``mode`` cells a row may hold.
_ROW_KINDS = {
    (kind.value, mode.value): (kind, mode, {"bob_state", *_EVE_COLUMNS, *columns})
    for (kind, mode), columns in _MODE_COLUMNS.items()
}
#: What each protocol's rows may hold in the columns of its alphabet: a
#: state its Bob sends, and an Eve guess as an index among those states (a
#: base guess of Alice's basis is its ``BASIS_BIT``, which has as many).
_SYMBOLS = {
    kind: {"bob_state": states, "eve_substitute": (None, *states)}
    | dict.fromkeys(["eve_guessed_alice_bit", "eve_guessed_bob_bit"], (None, *range(len(states))))
    for kind, states in SENT_STATES.items()
}


def _value(column: str, cell: str, parse: Callable[[str], object]):
    try:
        return parse(cell)
    except (KeyError, ValueError):
        raise ValueError(f"bad {column} cell {cell!r}") from None


def _parse_leaf(cells: list[str], eve_logs: dict) -> PairRecord:
    """The record of a row whose cells after ``pair_index`` are ``cells``:
    its drawn cells parsed, the rest derived, and refused unless
    ``_record_row`` writes it back as exactly ``cells``.  ``eve_logs``
    holds the Eve log of each set of Eve cells parsed so far (``EveLog()``
    for empty cells)."""
    if len(cells) != len(CSV_COLUMNS) - 1:
        raise ValueError(f"{len(cells) + 1} cells, expected {len(CSV_COLUMNS)}")
    try:
        protocol, mode, drawn = _ROW_KINDS[cells[0], cells[1]]
    except KeyError:
        raise ValueError(f"protocol cell {cells[0]!r} and mode cell {cells[1]!r} name no round") from None
    values = {"protocol": protocol, "mode": mode}
    for column, cell in zip(CSV_COLUMNS[3:], cells[2:]):
        if column in drawn:
            values[column] = _value(column, cell, _CELL_VALUE[column])
    for column, symbols in _SYMBOLS[protocol].items():
        if values[column] not in symbols:
            raise ValueError(f"{column} cell {_cell(values[column])!r} in a {cells[0]} row")
    if values["eve_substitute"] is None and values["eve_bell_outcome"] is not None:
        # Only a substituting attack Bell-measures, and it logs its substitute.
        raise ValueError(f"eve_bell_outcome cell {_cell(values['eve_bell_outcome'])!r} with an empty eve_substitute")
    values |= derived_fields(values)
    eve = tuple(values[column] for column in _EVE_COLUMNS)
    values["eve_log"] = eve_logs.setdefault(eve, EveLog(*eve))
    record = PairRecord(*map(values.get, PairRecord._fields))
    for column, cell, written in zip(CSV_COLUMNS[1:], cells, _record_row(record)[:-1].split(",")):
        if cell != written:
            where = "does not follow from the row's other cells"
            where = where if written else f"in a {cells[0]} row of mode {cells[1]}"
            raise ValueError(f"bad {column} cell ''" if cell == "" else f"{column} cell {cell!r} {where}")
    return record


def load_records_csv(path) -> list:
    """Rebuild records from a CSV transcript, whose columns after
    ``pair_index`` are a record's fields by name (``CSV_COLUMNS``).

    Loading is strict: a row loads iff writing its record gives it back.
    Only the cells a round draws are parsed: Bob's state, the Eve cells, and
    Alice's basis and both outcomes (base message rounds and error checks),
    both outcomes and the CHSH settings and angles (CHSH checks), or Alice's
    Bell outcome and target (four-state message rounds).  The rest of the
    record comes from ``protocol.derived_fields``, and the row is refused
    unless ``records_to_csv`` writes that record as exactly its cells.  So a
    row with too few or too many cells, a protocol and mode no round has (a
    four-state CHSH check), a drawn cell no record renders to (``nan`` and
    ``inf`` angles included), a sent state, Eve substitute or Eve guess
    outside its protocol's alphabet (``SENT_STATES``), any cell the writer
    would not give it (a derived cell that does not follow, a cell its mode
    leaves empty or an empty one it fills, another spelling of an angle), a
    ``protocol`` other than the first row's (a transcript is one session's),
    or a ``pair_index`` other than the row's position (0 for the first row)
    raises ValueError naming the line and the first such cell.  Eve's cells
    are not derived, so only her alphabet checks them, and that an
    ``eve_bell_outcome`` comes with an ``eve_substitute`` (only the
    substitution attacks Bell-measure, and they log their substitute first);
    a guess that contradicts her Bell outcome still loads.  Empty Eve cells
    load as ``EveLog()``.  A record holds exactly what its row holds, so
    loading is the inverse of ``records_to_csv``: a session's transcript
    loads back equal to ``list(session)``.  Each distinct row past
    ``pair_index`` is parsed once into one record, which every row with
    those cells shares, as a session's pairs share their leaf's record
    (equal Eve cells share one log as well); records and logs are
    immutable, so a shared one cannot be changed.
    """
    leaves: dict[str, PairRecord] = {}
    eve_logs: dict[tuple, EveLog] = {}
    records = []
    with open(path, newline="") as handle:
        header = handle.readline().rstrip("\r\n").split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        for lineno, line in enumerate(handle, start=2):
            index, comma, suffix = line.partition(",")
            try:
                if suffix not in leaves:
                    # A line without a comma is one cell, its pair_index.
                    leaf = leaves[suffix] = _parse_leaf(suffix.rstrip("\r\n").split(",") if comma else [], eve_logs)
                    first = next(iter(leaves.values())).protocol
                    if leaf.protocol is not first:
                        raise ValueError(f"protocol cell {leaf.protocol.value!r} in a {first.value} transcript")
                if index != str(len(records)):
                    raise ValueError(f"pair_index cell {index!r}, expected {len(records)}")
                records.append(leaves[suffix])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# Execution


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    # Never leave a partial artifact: ``write`` fills a sibling temp file,
    # which is then renamed over ``path``.  The temp file is created with
    # mode 0o666, as ``open`` creates a file, so the umask alone trims it.
    tmp_name = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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
    are collected as before.  What is left when the run returns, numpy among
    it if a long session imported it, is frozen too, so teardown skips it.
    ``run_cli`` leaves the collector alone, so tests and library callers keep
    theirs untouched.
    """
    gc.freeze()
    code = run_cli()
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(entry())
