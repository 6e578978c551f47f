"""CLI tests: flag handling, config-file precedence, deterministic
artifacts, atomic writes, CSV round-trips."""

import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import SESSION_CASES, standalone_rounds
from test_golden import GOLDEN
from duplexqkd import cli
from duplexqkd.analysis import build_report, efficiency_table, estimate_chsh, estimate_qber
from duplexqkd.attacks import EveLog
from duplexqkd.cli import (
    CSV_COLUMNS,
    _cell,
    EXIT_RUNTIME,
    EXIT_USAGE,
    RunSpec,
    UsageError,
    load_records_csv,
    main,
    parse_args,
    records_to_csv,
    run_cli,
)
from duplexqkd.config import AttackKind, CheckKind, DEFAULT_SETTINGS, ProtocolKind
from duplexqkd.protocol import CHUNK, Mode, run_session
from duplexqkd.quantum import Basis, BellStateId, PauliOp, bell_state
from oracle import TwoQubitDensity, chsh_value


def test_parse_happy_path():
    spec = parse_args(
        "--protocol base --attack ir --pairs 100000 --control-prob 0.5 --check qber --seed 7".split()
    )
    config = spec.config
    assert config.pairs == 100_000
    assert config.control_probability == 0.5
    assert config.check_kind is CheckKind.QBER
    assert config.attack is AttackKind.INTERCEPT_RESEND
    assert config.seed == 7
    assert spec.out_format == "json"
    assert spec.out_path is None


def test_check_default_follows_the_protocol():
    assert parse_args([]).config.check_kind is CheckKind.CHSH
    assert parse_args(["--protocol", "modified"]).config.check_kind is CheckKind.QBER
    assert parse_args(["--protocol", "modified", "--check", "qber"]).config.check_kind is CheckKind.QBER
    assert parse_args(["--check", "qber"]).config.check_kind is CheckKind.QBER


def test_default_settings_are_maximally_violating():
    spec = parse_args(["--pairs", "10"])
    assert spec.config.settings == DEFAULT_SETTINGS
    rho = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    assert chsh_value(rho, spec.config.settings) == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_explicit_settings_parse():
    spec = parse_args(["--settings", "0,1.5707963267948966,2.356194490192345,0.7853981633974483"])
    assert spec.config.settings == DEFAULT_SETTINGS


class _ConfigLines(str):
    """An argv slot that stands for a config file holding these lines."""


class _ConfigBytes(bytes):
    """An argv slot that stands for a config file holding these bytes."""


def _write_config(tmp_path, content: str | bytes) -> str:
    path = tmp_path / "run.conf"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return str(path)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["--control-prob", "1.5"], "--control-prob"),
        (["--control-prob", "abc"], "--control-prob"),
        (["--pairs", "0"], "--pairs"),
        (["--pairs", "ten"], "--pairs"),
        (["--seed", "-3"], "--seed"),
        (["--settings", "1,2,3"], "--settings"),
        (["--no-such-flag"], "--no-such-flag"),
        (["--check", "parity"], "parity"),
        (["--settings", "nan,0,0,0"], "--settings"),
        (["--settings", "0,0,inf,0"], "--settings"),
        (["--pairs", "-5"], "--pairs"),
        (["--control-prob", "-0.25"], "--control-prob"),
        (["--seed", "18446744073709551616"], "--seed"),
        (["--duplex", "full"], "--duplex"),
        (["--config", _ConfigLines("duplex = full\n")], "unknown key 'duplex'"),
        (["--protocol", "modified", "--check", "chsh"], "--check"),
        (["--config", _ConfigLines("protocol = modified\ncheck = chsh\n")], "--check"),
        (["--config", _ConfigBytes(b"\xff\n")], "--config"),
        # A bad file value fails even where the command line overrides it.
        (["--config", _ConfigLines("pairs = ten\n"), "--pairs", "5"], "--pairs"),
        (["--config", _ConfigLines("protocol = bogus\n")], "--protocol"),
        (["--config", _ConfigLines("help = 1\n")], "unknown key 'help'"),
        (["--config", _ConfigLines("config = x\n")], "unknown key 'config'"),
        (["--config", ""], "--config"),
        (["--out", ""], "--out"),
        (["--config", _ConfigLines("out =\n")], "--out"),
        (["--config", _ConfigLines("pairs = 5\nseed 3\n")], "line 2 is not key=value: 'seed 3'"),
    ],
)
def test_rejections_name_the_flag(argv, needle, tmp_path):
    argv = [_write_config(tmp_path, arg) if isinstance(arg, (_ConfigLines, _ConfigBytes)) else arg for arg in argv]
    with pytest.raises(UsageError) as err:
        parse_args(argv)
    assert needle in str(err.value)
    assert run_cli(argv) == EXIT_USAGE


def test_usage_errors_exit_2(capsys):
    assert run_cli(["--control-prob", "1.5"]) == EXIT_USAGE
    message = capsys.readouterr().err
    assert message.startswith("duplexqkd:") and message.count("\n") == 1


def test_help_shows_every_run_flag(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        run_cli(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    for shown in (
        "--config PATH",
        "--protocol {base,modified}",
        "--attack {none,ir,qmm,qmm-swap}",
        "--pairs N",
        "--control-prob C",
        "--check {chsh,qber}",
        "--seed S",
        "--settings A11,A12,A21,A22",
        "--format {json,csv}",
        "--out PATH",
    ):
        assert shown in text


def test_config_file_supplies_flags(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "# session setup\n"
        "pairs = 123\n"
        "control-prob = 0.25\n"
        "check = qber\n"
        "attack = qmm\n"
        "seed = 9\n"
        "settings = -0.5,0,0,0\n"
    )
    spec = parse_args(["--config", str(config_file)])
    assert spec.config.pairs == 123
    assert spec.config.control_probability == 0.25
    assert spec.config.attack is AttackKind.QMM_SUBSTITUTE
    assert spec.config.settings == parse_args(["--settings=-0.5,0,0,0"]).config.settings


@pytest.mark.parametrize(
    "content,flags",
    [
        (_ConfigLines("pairs = 12  # twelve\n"), ["--pairs", "12"]),
        (_ConfigLines("out = a#b.csv\n"), ["--out", "a#b.csv"]),
        (_ConfigBytes(b"\xef\xbb\xbfpairs = 12\nformat = csv\n"), ["--pairs", "12", "--format", "csv"]),
    ],
    ids=["comment-after-value", "hash-in-value", "byte-order-mark"],
)
def test_config_file_lines_read_as_flags(content, flags, tmp_path):
    # A '#' starts a comment only at a line's start or after whitespace, and
    # a UTF-8 byte-order mark is not part of the first key.
    assert parse_args(["--config", _write_config(tmp_path, content)]) == parse_args(flags)


def test_command_line_overrides_config_file(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("pairs=123\nseed=9\n")
    spec = parse_args(["--config", str(config_file), "--pairs", "77"])
    assert spec.config.pairs == 77
    assert spec.config.seed == 9


def test_config_file_unknown_key_rejected(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("paris=10\n")
    with pytest.raises(UsageError) as err:
        parse_args(["--config", str(config_file)])
    assert "paris" in str(err.value)


def test_missing_config_file_rejected():
    with pytest.raises(UsageError):
        parse_args(["--config", "/nonexistent/run.conf"])


def test_modified_qmm_gets_four_state_policy():
    # The substitute choices follow from the protocol the flags select.
    spec = parse_args(["--protocol", "modified", "--attack", "qmm", "--pairs", "400"])
    drawn = {r.eve_log.substitute for r in run_session(spec.config)}
    assert drawn == set(BellStateId)
    base_spec = parse_args(["--attack", "qmm", "--pairs", "400"])
    drawn = {r.eve_log.substitute for r in run_session(base_spec.config)}
    assert drawn == {BellStateId.PSI_PLUS, BellStateId.PHI_MINUS}


# ---------------------------------------------------------------------------
# Artifacts


def _spec(tmp_path, *extra) -> RunSpec:
    argv = ["--pairs", "400", "--control-prob", "0.3", "--check", "qber", "--seed", "11"]
    argv += ["--out", str(tmp_path / "report.json")]
    argv += list(extra)
    return parse_args(argv)


def test_main_writes_clean_report(tmp_path):
    spec = _spec(tmp_path)
    assert main(spec) == 0
    payload = json.loads(spec.out_path.read_text())
    assert payload["decode_accuracy_alice"] == 1.0
    assert payload["decode_accuracy_bob"] == 1.0
    assert payload["d_hat"] == 0.0
    assert payload["pairs"] == 400
    assert payload["seed"] == 11


def test_identical_specs_give_identical_bytes(tmp_path):
    spec = _spec(tmp_path)
    assert main(spec) == 0
    first = spec.out_path.read_bytes()
    assert main(spec) == 0
    assert spec.out_path.read_bytes() == first


def test_ir_qber_report_headline(tmp_path):
    spec = _spec(tmp_path, "--attack", "ir", "--pairs", "20000", "--control-prob", "0.5")
    assert main(spec) == 0
    payload = json.loads(spec.out_path.read_text())
    assert 0.23 <= payload["d_hat"] <= 0.27


def test_runtime_failure_exits_1_without_partial_file(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir"
    spec = parse_args(["--pairs", "10", "--out", str(missing_dir / "report.json")])
    assert main(spec) == EXIT_RUNTIME
    assert not missing_dir.exists()
    assert "cannot write" in capsys.readouterr().err


def test_failed_write_keeps_the_old_artifact_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    # The writer fails after some rows have reached the temp file: the run
    # exits 1, the file at --out is the one from before, and the temp file
    # is removed.
    out = tmp_path / "r.csv"
    out.write_text("an earlier artifact\n")
    write_rows = cli.records_to_csv

    def fail_partway(records, handle):
        write_rows(list(records)[:10], handle)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "records_to_csv", fail_partway)
    assert run_cli(["--pairs", "20", "--format", "csv", "--out", str(out)]) == EXIT_RUNTIME
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text() == "an earlier artifact\n"
    assert list(tmp_path.glob(".r.csv.*")) == []


class _BrokenStdout:
    def write(self, text):
        raise OSError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise OSError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_stdout_failure_exits_1_and_names_stdout(monkeypatch, capsys, out_format):
    spec = parse_args(["--pairs", "20", "--format", out_format])
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    assert main(spec) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "cannot write <stdout>" in err
    assert "None" not in err


def test_stdout_json_is_single_object(capsys):
    assert run_cli(["--pairs", "50", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict)
    assert payload["config_echo"]["pairs"] == 50


# ---------------------------------------------------------------------------
# CSV


def test_csv_cells_render_by_exact_type():
    assert [_cell(v) for v in (None, True, False, 7, -1, 0.1, BellStateId.PHI_MINUS, Mode.CONTROL_CHSH)] == [
        "", "1", "0", "7", "-1", "0.1", "phi_minus", "control-chsh"
    ]
    for unknown in (object(), "text", np.float64(0.5)):
        with pytest.raises(TypeError):
            _cell(unknown)


def test_csv_row_per_record_with_fixed_header(tmp_path):
    out = tmp_path / "records.csv"
    assert run_cli(
        ["--pairs", "120", "--control-prob", "0.4", "--check", "chsh", "--seed", "5",
         "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 121


@pytest.mark.parametrize("protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value)
def test_csv_round_trip(tmp_path, protocol, attack, check):
    out = tmp_path / "records.csv"
    argv = ["--protocol", protocol.value, "--attack", attack.value, "--check", check.value,
            "--pairs", "300", "--control-prob", "0.5", "--seed", "19", "--format", "csv", "--out", str(out)]
    assert run_cli(argv) == 0
    config = parse_args(argv).config

    loaded = load_records_csv(out)
    assert len(loaded) == config.pairs
    # A record holds exactly its row, so the loader inverts the writer.
    assert loaded == list(run_session(config))
    # Loading and re-writing is byte-stable.
    rewritten = io.StringIO()
    records_to_csv(loaded, rewritten)
    assert rewritten.getvalue().encode() == out.read_bytes()
    # Estimators see the same data through the round trip: every counter,
    # the raw CHSH dicts included.
    assert build_report(loaded, config) == build_report(run_session(config), config)
    assert estimate_qber(loaded) == estimate_qber(run_session(config))
    assert estimate_chsh(loaded, config.settings) == estimate_chsh(run_session(config), config.settings)


def _set_cell(column: str, text: str):
    at = CSV_COLUMNS.index(column)
    return lambda cells: cells[:at] + [text] + cells[at + 1 :]


@pytest.mark.parametrize(
    "protocol,mode,edit,needle",
    [
        ("base", "message", _set_cell("alice_decoded_state", "psi_plu"), "alice_decoded_state cell 'psi_plu'"),
        ("modified", "message", _set_cell("alice_bell_outcome", "phi_plu"), "alice_bell_outcome cell 'phi_plu'"),
        ("modified", "message", _set_cell("alice_pauli", "sigma4"), "alice_pauli cell 'sigma4'"),
        ("modified", "message", _set_cell("alice_target", "psi-minus"), "alice_target cell 'psi-minus'"),
        ("modified", "message", _set_cell("bob_decoded", "Phi_minus"), "bob_decoded cell 'Phi_minus'"),
        ("base", "message", _set_cell("correlated", "yes"), "correlated cell 'yes'"),
        ("base", "message", lambda cells: cells[:-1], "22 cells, expected 23"),
        ("base", "message", lambda cells: cells + [""], "24 cells, expected 23"),
        ("base", "message", lambda cells: [""], "1 cells, expected 23"),
        ("base", "message", lambda cells: ["5"], "1 cells, expected 23"),
        ("base", "message", _set_cell("alice_target", "psi_plus"), "alice_target cell 'psi_plus' in a base row"),
        ("modified", "message", _set_cell("alice_basis", "x"), "alice_basis cell 'x' in a modified row"),
        ("base", "message", _set_cell("pair_index", "11"), "pair_index cell '11', expected 12"),
        ("modified", "message", _set_cell("pair_index", "-7"), "pair_index cell '-7', expected 12"),
        ("base", "message", _set_cell("pair_index", "1_2"), "pair_index cell '1_2', expected 12"),
        ("base", "control-chsh", _set_cell("alice_angle", "0.00"), "alice_angle cell '0.00'"),
        ("base", "control-chsh", _set_cell("bob_angle", "1_0"), "bob_angle cell '1_0'"),
        ("base", "control-chsh", _set_cell("alice_angle", " 0.0"), "alice_angle cell ' 0.0'"),
        ("base", "control-chsh", _set_cell("bob_angle", "+0.0"), "bob_angle cell '+0.0'"),
        ("base", "control-chsh", _set_cell("alice_angle", "nan"), "alice_angle cell 'nan'"),
        ("base", "control-chsh", _set_cell("bob_angle", "inf"), "bob_angle cell 'inf'"),
        # A cell that contradicts its row's mode: every column a mode fills
        # must parse, and every other column must be empty.
        ("base", "message", _set_cell("alice_angle", "0.0"), "alice_angle cell '0.0' in a base row of mode message"),
        ("base", "message", _set_cell("alice_basis", ""), "bad alice_basis cell ''"),
        ("base", "message", _set_cell("qber_pass", "1"), "qber_pass cell '1' in a base row of mode message"),
        ("base", "message", _set_cell("outcome_2", ""), "bad outcome_2 cell ''"),
        ("base", "control-chsh", _set_cell("alice_angle", ""), "bad alice_angle cell ''"),
        ("base", "control-chsh", _set_cell("alice_basis", "x"),
         "alice_basis cell 'x' in a base row of mode control-chsh"),
        ("base", "control-qber", _set_cell("correlated", ""), "bad correlated cell ''"),
        ("modified", "message", _set_cell("alice_basis", "x"),
         "alice_basis cell 'x' in a modified row of mode message"),
        ("modified", "message", _set_cell("outcome_1", "1"), "outcome_1 cell '1' in a modified row of mode message"),
        ("modified", "control-qber", _set_cell("qber_pass", ""), "bad qber_pass cell ''"),
        ("modified", "control-qber", _set_cell("alice_pauli", "sigma0"),
         "alice_pauli cell 'sigma0' in a modified row of mode control-qber"),
        # No four-state round is a CHSH check, and its error checks are
        # spelled as the base protocol's.
        ("modified", "control-qber", _set_cell("mode", "control-chsh"),
         "protocol cell 'modified' and mode cell 'control-chsh' name no round"),
        ("modified", "control-qber", _set_cell("mode", "control"),
         "protocol cell 'modified' and mode cell 'control' name no round"),
        # A derived cell that contradicts the row's other cells: each one
        # parses and fits its mode, so only the protocol's own derivation
        # can refuse it.
        ("base", "control-qber", _set_cell("correlated", "0"), "correlated cell '0' does not follow"),
        ("base", "message", _set_cell("alice_decoded_state", "phi_minus"),
         "alice_decoded_state cell 'phi_minus' does not follow"),
        ("base", "message", _set_cell("bob_decoded_basis", "x"), "bob_decoded_basis cell 'x' does not follow"),
        ("base", "control-qber", _set_cell("qber_pass", "0"), "qber_pass cell '0' does not follow"),
        ("modified", "control-qber", _set_cell("qber_pass", "0"), "qber_pass cell '0' does not follow"),
        ("modified", "message", _set_cell("bob_decoded", "psi_plus"), "bob_decoded cell 'psi_plus' does not follow"),
        ("modified", "message", _set_cell("alice_pauli", "sigma0"), "alice_pauli cell 'sigma0' does not follow"),
        ("base", "message", _set_cell("bob_state", "psi_minus"), "bob_state cell 'psi_minus' in a base row"),
        # An Eve cell outside the base alphabet: she substitutes a state the
        # base protocol sends, and guesses one of its two symbols.
        ("base", "message", _set_cell("eve_guessed_bob_bit", "3"), "eve_guessed_bob_bit cell '3' in a base row"),
        ("base", "control-chsh", _set_cell("eve_substitute", "psi_minus"),
         "eve_substitute cell 'psi_minus' in a base row"),
        ("base", "message", _set_cell("eve_guessed_alice_bit", "2"), "eve_guessed_alice_bit cell '2' in a base row"),
        # Only a substituting attack Bell-measures, and it logs its
        # substitute, so a Bell outcome alone is no attack's log.
        ("base", "control-qber", _set_cell("eve_bell_outcome", "phi_plus"),
         "eve_bell_outcome cell 'phi_plus' with an empty eve_substitute"),
    ],
    ids=[
        "misspelled-state", "misspelled-bell-outcome", "misspelled-pauli", "misspelled-target",
        "misspelled-decoded", "bad-bit", "short-row", "extra-cell", "blank-line", "index-only-line",
        "base-row-four-state-cell", "modified-row-base-cell", "repeated-index", "negative-index", "underscored-index",
        "padded-angle", "underscored-angle", "spaced-angle", "signed-angle", "nan-angle", "inf-angle",
        "message-row-angle", "message-row-empty-basis", "message-row-qber-pass", "message-row-one-outcome",
        "chsh-row-empty-angle", "chsh-row-basis", "qber-row-empty-correlated", "four-state-message-row-basis",
        "four-state-message-row-outcome", "four-state-control-row-empty-pass", "four-state-control-row-pauli",
        "four-state-chsh-row", "four-state-old-control-row",
        "qber-row-correlated", "message-row-alice-decode", "message-row-bob-decode", "qber-row-pass",
        "four-state-control-row-pass", "four-state-message-row-decoded", "four-state-message-row-pauli",
        "message-row-four-state-bob-state", "base-row-four-state-guess", "base-row-four-state-substitute",
        "base-row-alice-guess-out-of-range", "bell-outcome-without-substitute",
    ],
)
def test_csv_loading_is_strict(tmp_path, protocol, mode, edit, needle):
    # One bad cell in a clean transcript must not load as a plausible but
    # wrong record: the loader names the line and the cell instead.
    check = ["--check", "qber"] if mode == "control-qber" else []
    argv = ["--protocol", protocol, "--pairs", "200", "--control-prob", "0.5", "--seed", "6", *check]
    text = io.StringIO()
    records_to_csv(run_session(parse_args(argv).config), text)
    lines = text.getvalue().splitlines()
    # The first row of the mode from pair 10 on: its index has two digits
    # and rows before it.
    lineno = next(n for n, line in enumerate(lines[11:], start=12) if f",{mode}," in line)
    lines[lineno - 1] = ",".join(edit(lines[lineno - 1].split(",")))
    out = tmp_path / "records.csv"
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_records_csv(out)
    assert str(err.value).startswith(f"line {lineno}: ")
    assert needle in str(err.value)


def test_csv_loading_refuses_a_second_protocol(tmp_path):
    # A base error-check row relabelled four-state is a valid row on its
    # own, but a transcript is one session's: its rows share one protocol.
    argv = ["--attack", "qmm", "--check", "qber", "--pairs", "400", "--control-prob", "0.5", "--seed", "4"]
    text = io.StringIO()
    records_to_csv(run_session(parse_args(argv).config), text)
    lines = text.getvalue().splitlines()
    relabelled = [n for n, line in enumerate(lines[1:], start=2) if ",control-qber," in line][:100]
    assert len(relabelled) == 100 and relabelled[0] > 2
    for lineno in relabelled:
        lines[lineno - 1] = lines[lineno - 1].replace(",base,", ",modified,", 1)
    out = tmp_path / "records.csv"
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_records_csv(out)
    assert str(err.value) == f"line {relabelled[0]}: protocol cell 'modified' in a base transcript"


def test_csv_loading_refuses_another_header(tmp_path):
    text = io.StringIO()
    records_to_csv(run_session(parse_args(["--pairs", "5"]).config), text)
    header, rows = text.getvalue().split("\n", 1)
    out = tmp_path / "records.csv"
    # The 25-column header of the schema that kept four-state error checks
    # in their own columns is refused too.
    old = header.replace("bob_decoded,", "bob_decoded,control_basis,control_pass,")
    for other in (header.replace("alice_basis,", ""), header.upper(), header + ",extra", old):
        out.write_text(other + "\n" + rows)
        with pytest.raises(ValueError, match="unexpected CSV header"):
            load_records_csv(out)


def test_csv_angle_cells_are_the_written_text(tmp_path):
    # A CHSH row's angle loads back only in the spelling the writer gives
    # it, negative zero included.
    config = parse_args(["--pairs", "40", "--control-prob", "0.9", "--settings=-0.0,1.5,0.25,3.0"]).config
    out = tmp_path / "records.csv"
    with out.open("w") as handle:
        records_to_csv(run_session(config), handle)
    text = out.read_text()
    assert ",-0.0," in text
    loaded = load_records_csv(out)
    assert any(math.copysign(1.0, r.alice_angle) < 0 for r in loaded if r.mode is Mode.CONTROL_CHSH)
    out.write_text(text.replace(",-0.0,", ",-0.00,", 1))
    with pytest.raises(ValueError, match="alice_angle cell '-0.00'"):
        load_records_csv(out)


def test_csv_loader_accept_set_is_pinned(tmp_path):
    # Which single-cell edits of a filled row load is pinned: each cell after
    # pair_index of the first row of every round kind, Eve's cells filled, is
    # set to each text the writer emits and to near misses of those texts,
    # and each edited row is loaded alone.  A change to how the loader checks
    # rows must keep this set.
    angles = (*DEFAULT_SETTINGS.alice_angles, *DEFAULT_SETTINGS.bob_angles)
    written = {_cell(v) for v in (None, True, False, -1, 0, 1, 2, 3, *angles)}
    written |= {_cell(v) for enum in (BellStateId, PauliOp, Basis, Mode, ProtocolKind) for v in enum}
    near = {"0.00", "-0.0", "1e0", "nan", "inf", "psi-plus", "sigma4", "X", "+1", "True", "none"}
    vocabulary = sorted(written | near)
    assert len(vocabulary) == 36
    rows = []
    for flags in (["--attack", "qmm", "--check", "chsh"], ["--attack", "qmm", "--check", "qber"],
                  ["--protocol", "modified", "--attack", "qmm"], ["--attack", "ir", "--check", "qber"]):
        config = parse_args([*flags, "--pairs", "400", "--control-prob", "0.5", "--seed", "4"]).config
        text = io.StringIO()
        records_to_csv(run_session(config), text)
        first = {}
        for line in text.getvalue().splitlines()[1:]:
            cells = line.split(",")
            first.setdefault(cells[2], cells[1:])
        rows += first.values()
    assert len(rows) == 8
    out = tmp_path / "row.csv"
    verdicts = []
    for row, at, token in product(rows, range(len(CSV_COLUMNS) - 1), vocabulary):
        edited = ",".join(row[:at] + [token] + row[at + 1 :])
        out.write_text(f"{','.join(CSV_COLUMNS)}\n0,{edited}\n")
        try:
            load_records_csv(out)
            verdicts.append(f"{edited} accept")
        except ValueError:
            verdicts.append(f"{edited} refuse")
    assert len(verdicts) == 8 * 22 * 36
    assert sum(v.endswith("accept") for v in verdicts) == 271
    digest = hashlib.sha256("\n".join(sorted(verdicts)).encode()).hexdigest()
    assert digest == "6b8cdbc8c2ea633c70ac2e9b81dcf796c750ff16ad0f84e4fec8f6c9f429152a"


@pytest.mark.parametrize("protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value)
def test_artifacts_equal_standalone_rounds(protocol, attack, check, capsys):
    # The CLI resolves a session through its round trie, a chunk at a time;
    # its artifacts must be byte for byte those of the same rounds run alone.
    argv = ["--protocol", protocol.value, "--attack", attack.value, "--check", check.value,
            "--pairs", "3000", "--control-prob", "0.5", "--seed", "2026"]
    config = parse_args(argv).config
    reference = standalone_rounds(config)
    expected_csv = io.StringIO()
    records_to_csv(reference, expected_csv)
    expected_json = json.dumps(build_report(reference, config).to_dict(), indent=2, allow_nan=False) + "\n"
    # The weighted tally of the session's leaves gives every raw counter,
    # including the CHSH dicts the JSON does not show.
    assert build_report(run_session(config), config) == build_report(reference, config)
    assert run_cli(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == expected_csv.getvalue()
    assert run_cli(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == expected_json


def test_transcript_prefix_across_chunks_is_independent_of_pairs(capsys):
    rows = {}
    for pairs in (CHUNK + 300, 3 * CHUNK):
        argv = ["--attack", "qmm-swap", "--control-prob", "0.5", "--seed", "8", "--format", "csv",
                "--pairs", str(pairs)]
        assert run_cli(argv) == 0
        rows[pairs] = capsys.readouterr().out.splitlines()
    short = rows[CHUNK + 300]
    assert len(short) == CHUNK + 301
    assert rows[3 * CHUNK][: len(short)] == short


# ---------------------------------------------------------------------------
# Streaming


def test_loaded_transcript_shares_equal_cells(tmp_path):
    # Rows with equal cells past pair_index share one record, and equal Eve
    # cells one log, so a loaded transcript holds little more than one
    # reference per round (each record used to carry its own log with three
    # empty lists, ~530 B a round).
    out = tmp_path / "records.csv"
    argv = ["--pairs", "2000", "--control-prob", "0.5", "--attack", "qmm-swap", "--seed", "4",
            "--format", "csv", "--out", str(out)]
    assert run_cli(argv) == 0
    tracemalloc.start()
    try:
        loaded = load_records_csv(out)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(loaded) < 300
    assert len({id(r.eve_log) for r in loaded}) < 50
    # The shared log is the session's own, with nothing the CSV leaves out.
    assert loaded[0].eve_log == next(iter(run_session(parse_args(argv).config))).eve_log


@pytest.mark.parametrize("protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value)
def test_records_are_shared_leaves(protocol, attack, check, tmp_path):
    # A record holds no pair index: a session yields its leaves' records
    # themselves, and loaded rows with equal cells after pair_index are one
    # record.  Shared records are immutable values, Eve's log included.
    argv = ["--protocol", protocol.value, "--attack", attack.value, "--check", check.value,
            "--pairs", "3000", "--control-prob", "0.5", "--seed", "5", "--format", "csv"]
    session = run_session(parse_args(argv).config)
    leaves = {id(leaf) for leaf in session.leaves}
    for record in session:
        assert id(record) in leaves
        hash(record)
    for record in session.leaves:
        with pytest.raises(AttributeError):
            record.eve_log = None
        for name in record.eve_log._fields:
            with pytest.raises(AttributeError):
                setattr(record.eve_log, name, None)
    out = tmp_path / "records.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    loaded = load_records_csv(out)
    suffixes = [line.partition(",")[2] for line in out.read_text().splitlines()[1:]]
    record_of = {}
    for suffix, record in zip(suffixes, loaded, strict=True):
        assert record_of.setdefault(suffix, record) is record
    assert len({id(record) for record in loaded}) == len(set(loaded)) == len(record_of) < len(loaded)


@pytest.mark.parametrize("protocol", ["base", "modified"])
def test_honest_records_carry_an_empty_eve_log(protocol, tmp_path):
    # With no attack the session runs the null adversary: every record, and
    # every row loaded back from the transcript, holds an empty Eve log.
    argv = ["--protocol", protocol, "--pairs", "500", "--control-prob", "0.5", "--seed", "12", "--format", "csv"]
    assert all(record.eve_log == EveLog() for record in run_session(parse_args(argv).config))
    out = tmp_path / "records.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert all(record.eve_log == EveLog() for record in load_records_csv(out))


@pytest.mark.parametrize(
    "extra",
    [
        ["--format", "json"],
        ["--format", "json", "--attack", "qmm-swap"],
        ["--format", "json", "--protocol", "modified", "--attack", "ir", "--check", "qber"],
        ["--format", "csv"],
        ["--format", "csv", "--attack", "qmm-swap"],
    ],
)
def test_session_memory_does_not_grow_with_pairs(tmp_path, extra):
    # Records are tallied or written as they are made, so the peak Python
    # allocation of a whole CLI run is the same at 8 chunks as at 2 (both
    # past the ramp of small first chunks).  Holding the transcript costs
    # 0.4-1.2 KB per pair, i.e. over 10 MB here.  A CSV chunk is written in
    # slices of rows, so its text is not held whole: the peaks at 8 chunks
    # are about 810 KB plain and 1160 KB under qmm-swap, against 1250 and
    # 1680 KB when each 4096-row chunk was joined into one string.
    def peak_bytes(pairs: int) -> int:
        spec = parse_args(
            ["--pairs", str(pairs), "--control-prob", "0.5", "--seed", "3", "--out", str(tmp_path / "out"), *extra]
        )
        tracemalloc.start()
        try:
            assert main(spec) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(10)  # warm-up: lazy imports and caches
    peak = peak_bytes(8 * CHUNK)
    assert peak - peak_bytes(2 * CHUNK) <= 256 * 1024
    if "csv" in extra:
        assert peak <= (1408 if "qmm-swap" in extra else 1024) * 1024


def test_console_entry_point_registered():
    # The declared entry point, read from pyproject.toml, so the check holds
    # whether or not the package is installed.
    import importlib
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["duplexqkd"] == "duplexqkd.cli:entry"
    module_name, attr = scripts["duplexqkd"].split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))


# ---------------------------------------------------------------------------
# Process entry

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _spawn(*args: str, umask: int = -1) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child that imports this checkout's package
    (with ``umask`` set in the child, unless it is -1)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, umask=umask
    )


@pytest.mark.parametrize("case", ["base none chsh json", "base qmm-swap chsh csv"])
def test_module_entry_writes_golden_artifact(case, tmp_path):
    protocol, attack, check, out_format = case.split()
    out = tmp_path / f"artifact.{out_format}"
    child = _spawn(
        "-m", "duplexqkd.cli", "--protocol", protocol, "--attack", attack, "--check", check,
        "--format", out_format, "--pairs", "400", "--seed", "11", "--control-prob", "0.5", "--out", str(out),
    )
    assert child.returncode == 0, child.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_out_artifact_mode_follows_the_umask(tmp_path, umask, mode):
    # An artifact gets the mode a plain ``open`` would give it, and its temp
    # file does not outlive the write.
    out = tmp_path / "r.json"
    child = _spawn("-m", "duplexqkd.cli", "--pairs", "10", "--out", str(out), umask=umask)
    assert child.returncode == 0, child.stderr
    assert out.stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_module_entry_usage_error_exits_2():
    child = _spawn("-m", "duplexqkd.cli", "--pairs", "0")
    assert child.returncode == EXIT_USAGE
    assert "--pairs" in child.stderr
    assert child.stdout == ""


def test_module_entry_prints_whole_strict_json():
    child = _spawn("-m", "duplexqkd.cli", "--pairs", "3000", "--seed", "5")
    assert child.returncode == 0, child.stderr

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    payload = json.loads(child.stdout, parse_constant=reject)
    assert child.stdout.endswith("}\n")
    assert payload["config_echo"]["pairs"] == 3000


def test_importing_the_cli_loads_no_dataclasses(tmp_path):
    # The value types are built without generated code: ``dataclasses`` and
    # the compiling of its generated methods cost every CLI child ~25 ms.
    # ``fractions`` (which loads ``decimal``) is imported only by
    # ``efficiency_table``: a JSON report writes its exact efficiencies from
    # integers, so no CLI run loads either, one-chunk or numpy-walked.
    modules = ("dataclasses", "fractions")
    child = _spawn("-c", f"import sys, duplexqkd.cli; print([m for m in {modules!r} if m in sys.modules])")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    runs = [["--pairs", "1"], ["--protocol", "modified", "--attack", "ir", "--pairs", str(CHUNK + 1)]]
    runs = [[*flags, "--out", str(tmp_path / f"{n}.json")] for n, flags in enumerate(runs)]
    script = (
        "import sys\n"
        "from duplexqkd.cli import run_cli\n"
        f"print([run_cli(flags) for flags in {runs!r}], 'numpy' in sys.modules)\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    child = _spawn("-c", script)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[0, 0] True", "[]"]
    config = parse_args(runs[1]).config
    report = build_report(run_session(config), config)
    assert report.to_dict()["efficiency"] == {k: str(v) for k, v in efficiency_table().items()}
    assert json.loads((tmp_path / "1.json").read_text())["efficiency"] == report.to_dict()["efficiency"]


def test_numpy_loads_only_when_a_session_outgrows_one_chunk(tmp_path):
    # A session of at most ``CHUNK`` pairs walks its trie in Python, so
    # neither importing the CLI nor a one-chunk run loads numpy; a longer
    # session walks in numpy.
    script = (
        "import sys\n"
        "from duplexqkd.cli import run_cli\n"
        "loaded = 'numpy' in sys.modules\n"
        "code = run_cli(sys.argv[1:])\n"
        "print(code, loaded, 'numpy' in sys.modules)\n"
    )
    for pairs, loaded in ((CHUNK, "False"), (CHUNK + 1, "True")):
        out = tmp_path / f"{pairs}.csv"
        flags = ["--attack", "qmm-swap", "--format", "csv", "--pairs", str(pairs), "--out", str(out)]
        child = _spawn("-c", script, *flags)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["0", "False", loaded]


@pytest.mark.parametrize(
    "flags",
    [["--attack", "qmm-swap", "--format", "csv"], ["--protocol", "modified", "--attack", "ir"]],
    ids=["csv", "json"],
)
def test_one_chunk_run_needs_no_numpy(flags, tmp_path):
    # With numpy made unimportable, a one-chunk run writes what a normal
    # run writes.
    args = [*flags, "--pairs", str(CHUNK), "--seed", "3", "--control-prob", "0.4"]
    blocked = "import sys; sys.modules['numpy'] = None; from duplexqkd.cli import entry; sys.exit(entry())"
    assert _spawn("-c", blocked, *args, "--out", str(tmp_path / "blocked")).returncode == 0
    assert _spawn("-m", "duplexqkd.cli", *args, "--out", str(tmp_path / "normal")).returncode == 0
    assert (tmp_path / "blocked").read_bytes() == (tmp_path / "normal").read_bytes()


def test_only_the_process_entry_freezes_the_collector(tmp_path):
    imported = _spawn("-c", "import gc, duplexqkd.cli; print(gc.get_freeze_count())")
    assert imported.returncode == 0, imported.stderr
    assert int(imported.stdout) == 0
    script = (
        "import gc, runpy, sys\n"
        f"sys.argv = ['duplexqkd', '--pairs', '10', '--out', {str(tmp_path / 'r.json')!r}]\n"
        "try:\n"
        "    runpy.run_module('duplexqkd.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    print(exit.code, gc.get_freeze_count())\n"
    )
    ran = _spawn("-c", script)
    assert ran.returncode == 0, ran.stderr
    code, frozen = map(int, ran.stdout.split())
    assert code == 0
    assert frozen > 0
