"""CLI tests: flag handling, config-file precedence, deterministic
artifacts, atomic writes, CSV round-trips."""

import errno
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import SESSION_CASES, standalone_rounds
from duplexqkd.analysis import build_report, estimate_chsh, estimate_qber
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
from duplexqkd.config import AttackKind, CheckKind, DEFAULT_SETTINGS
from duplexqkd.protocol import CHUNK, Mode, run_session
from duplexqkd.quantum import BellStateId, TwoQubitDensity, bell_state, chsh_value


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


def _write_config(tmp_path, lines: str) -> str:
    path = tmp_path / "run.conf"
    path.write_text(lines)
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
    ],
)
def test_rejections_name_the_flag(argv, needle, tmp_path):
    argv = [_write_config(tmp_path, arg) if isinstance(arg, _ConfigLines) else arg for arg in argv]
    with pytest.raises(UsageError) as err:
        parse_args(argv)
    assert needle in str(err.value)
    assert run_cli(argv) == EXIT_USAGE


def test_usage_errors_exit_2(capsys):
    assert run_cli(["--control-prob", "1.5"]) == EXIT_USAGE
    message = capsys.readouterr().err
    assert message.startswith("duplexqkd:") and message.count("\n") == 1


def test_config_file_supplies_flags(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "# session setup\n"
        "pairs = 123\n"
        "control-prob = 0.25\n"
        "check = qber\n"
        "attack = qmm\n"
        "seed = 9\n"
    )
    spec = parse_args(["--config", str(config_file)])
    assert spec.config.pairs == 123
    assert spec.config.control_probability == 0.25
    assert spec.config.attack is AttackKind.QMM_SUBSTITUTE


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
    drawn = {r.eve_log.substitute_state for r in run_session(spec.config)}
    assert drawn == set(BellStateId)
    base_spec = parse_args(["--attack", "qmm", "--pairs", "400"])
    drawn = {r.eve_log.substitute_state for r in run_session(base_spec.config)}
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


@pytest.mark.parametrize(
    "extra",
    [
        ["--check", "chsh", "--attack", "qmm-swap"],
        ["--check", "qber", "--attack", "ir"],
        ["--protocol", "modified", "--attack", "qmm"],
    ],
)
def test_csv_round_trip(tmp_path, extra):
    out = tmp_path / "records.csv"
    argv = ["--pairs", "300", "--control-prob", "0.5", "--seed", "19", "--format", "csv",
            "--out", str(out)] + extra
    assert run_cli(argv) == 0
    spec = parse_args(argv)
    records = list(run_session(spec.config))

    loaded = load_records_csv(out)
    assert len(loaded) == len(records)
    # Loading and re-writing is byte-stable.
    rewritten = io.StringIO()
    records_to_csv(loaded, rewritten)
    assert rewritten.getvalue().encode() == out.read_bytes()
    # Estimators see the same data through the round trip.
    report_direct = build_report(records, spec.config)
    report_loaded = build_report(loaded, spec.config)
    assert report_loaded.qber_checks == report_direct.qber_checks
    assert report_loaded.qber_errors == report_direct.qber_errors
    assert report_loaded.chsh_counts == report_direct.chsh_counts
    assert report_loaded.chsh_products == report_direct.chsh_products
    assert report_loaded.alice_decode_ok == report_direct.alice_decode_ok
    assert estimate_qber(loaded) == estimate_qber(records)
    assert estimate_chsh(loaded, spec.config.settings) == estimate_chsh(records, spec.config.settings)


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
    # Equal outcome tuples, angles and Eve logs are one object each, so a
    # loaded transcript holds little more than one record per round (each
    # record used to carry its own log with three empty lists, ~530 B a round).
    out = tmp_path / "records.csv"
    assert run_cli(["--pairs", "2000", "--control-prob", "0.5", "--attack", "qmm-swap", "--seed", "4",
                    "--format", "csv", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        loaded = load_records_csv(out)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(loaded) < 300
    assert len({id(r.eve_log) for r in loaded}) < 50
    assert loaded[0].eve_log.observations == ()


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
    # allocation of a whole CLI run is the same at 4000 pairs as at 1000.
    # Holding the transcript costs 0.4-1.2 KB per pair, i.e. over 1 MB here.
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
    assert peak_bytes(4000) - peak_bytes(1000) <= 256 * 1024


def test_console_entry_point_registered():
    # The declared entry point, read from pyproject.toml, so the check holds
    # whether or not the package is installed.
    import importlib
    import tomllib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["duplexqkd"] == "duplexqkd.cli:run_cli"
    module_name, attr = scripts["duplexqkd"].split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))
