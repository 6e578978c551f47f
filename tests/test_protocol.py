"""Tests for the base-protocol state machine: decode tables, round flow,
announcement ordering, session determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexqkd.analysis import estimate_chsh, estimate_qber
from duplexqkd.config import CheckKind, ConfigFieldError, DEFAULT_SETTINGS, SimulationConfig
from duplexqkd.protocol import (
    BIT_BASIS,
    BIT_STATE,
    CorrelationAnnouncement,
    ControlDisclosure,
    MeasuredFirst,
    Mode,
    PairRecord,
    ProtocolViolation,
    QberDisclosure,
    alice_decode,
    bob_decode,
    correlation_signature,
    run_pair,
    run_session,
)
from duplexqkd.quantum import Basis, BellStateId, bell_state


# ---------------------------------------------------------------------------
# Signature and decode tables


def test_correlation_signature_matches_eigenvalue_oracle():
    for state_id in BellStateId:
        vec = bell_state(state_id).amplitudes
        for basis in Basis:
            m = basis.observable.matrix
            eig = np.vdot(vec, np.kron(m, m) @ vec).real
            assert correlation_signature(state_id, basis) == round(eig)


@pytest.mark.parametrize(
    "sent,correlated,expected",
    [
        (BellStateId.PSI_PLUS, True, Basis.X),
        (BellStateId.PSI_PLUS, False, Basis.Z),
        (BellStateId.PHI_MINUS, True, Basis.Z),
        (BellStateId.PHI_MINUS, False, Basis.X),
    ],
)
def test_bob_decode(sent, correlated, expected):
    assert bob_decode(sent, correlated) == expected


@pytest.mark.parametrize(
    "basis,correlated,expected",
    [
        (Basis.X, True, BellStateId.PSI_PLUS),
        (Basis.X, False, BellStateId.PHI_MINUS),
        (Basis.Z, True, BellStateId.PHI_MINUS),
        (Basis.Z, False, BellStateId.PSI_PLUS),
    ],
)
def test_alice_decode(basis, correlated, expected):
    assert alice_decode(basis, correlated) == expected


def test_bob_decode_rejects_non_base_states():
    with pytest.raises(ProtocolViolation):
        bob_decode(BellStateId.PSI_MINUS, True)
    with pytest.raises(ProtocolViolation):
        bob_decode(BellStateId.PHI_PLUS, False)


def test_decode_round_trips_exhaustive():
    # Encoding then decoding is the identity for all 4 (state, basis) pairs.
    for state in BIT_STATE:
        for basis in BIT_BASIS:
            correlated = correlation_signature(state, basis) == +1
            assert bob_decode(state, correlated) == basis
            assert alice_decode(basis, correlated) == state


# ---------------------------------------------------------------------------
# Single rounds


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(pairs=10, control_probability=0.0, seed=42)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_clean_message_round_phi_minus_z():
    record = run_pair(_config(), None, 0, alice_bit=1, bob_bit=1)
    assert record.bob_state is BellStateId.PHI_MINUS
    assert record.alice_basis is Basis.Z
    assert record.correlated is True
    assert record.bob_decoded_basis is Basis.Z
    assert record.alice_decoded_state is BellStateId.PHI_MINUS


def test_clean_message_decodes_all_bit_combinations():
    for alice_bit in (0, 1):
        for bob_bit in (0, 1):
            record = run_pair(_config(), None, 3, alice_bit=alice_bit, bob_bit=bob_bit)
            assert record.bob_decoded_basis == record.alice_basis == BIT_BASIS[alice_bit]
            assert record.alice_decoded_state == record.bob_state == BIT_STATE[bob_bit]


def test_clean_qber_checks_always_pass():
    config = _config(pairs=400, control_probability=0.5, check_kind=CheckKind.QBER)
    records = list(run_session(config))
    checks = [r for r in records if r.mode is Mode.CONTROL_QBER]
    assert checks and all(r.qber_pass for r in checks)
    assert estimate_qber(records).d_hat == 0.0


def test_message_round_announcement_order():
    record = run_pair(_config(), None, 1)
    kinds = [type(m) for m in record.announcements]
    assert kinds == [MeasuredFirst, CorrelationAnnouncement]
    assert record.announcements[0].control is False


def test_control_rounds_announce_measured_first_first():
    config = _config(pairs=300, control_probability=0.5, check_kind=CheckKind.CHSH)
    for record in run_session(config):
        first = record.announcements[0]
        assert isinstance(first, MeasuredFirst)
        assert first.control == (record.mode is not Mode.MESSAGE)
        if record.mode is Mode.CONTROL_CHSH:
            assert [type(m) for m in record.announcements[1:]] == [ControlDisclosure, ControlDisclosure]
            assert record.announcements[2].state_id == record.bob_state
        elif record.mode is Mode.CONTROL_QBER:
            assert [type(m) for m in record.announcements[1:]] == [QberDisclosure]


def test_measured_first_reveals_no_basis_or_outcome():
    record = run_pair(_config(), None, 2)
    assert record.announcements[0] == MeasuredFirst(control=False)


# ---------------------------------------------------------------------------
# Sessions


def test_session_rejects_zero_pairs():
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=0)
    assert err.value.field_name == "pairs"
    assert isinstance(err.value, ValueError)


def test_config_validation():
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=10, control_probability=1.0)
    assert err.value.field_name == "control_probability"
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=10, control_probability=-0.1)
    assert err.value.field_name == "control_probability"
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=10, seed=-1)
    assert err.value.field_name == "seed"


def test_same_seed_reproduces_session():
    config = _config(pairs=250, control_probability=0.3, check_kind=CheckKind.QBER, seed=99)
    assert list(run_session(config)) == list(run_session(config))


def test_replaying_one_pair_reproduces_its_record():
    config = _config(pairs=50, control_probability=0.4, seed=5)
    records = list(run_session(config))
    for index in (0, 7, 49):
        assert run_pair(config, None, index) == records[index]


def test_pair_records_independent_of_session_length():
    long = list(run_session(_config(pairs=60, control_probability=0.2, seed=31)))
    short = list(run_session(_config(pairs=20, control_probability=0.2, seed=31)))
    assert long[:20] == short


def test_control_fraction_concentrates():
    config = _config(pairs=100_000, control_probability=0.2, check_kind=CheckKind.QBER, seed=17)
    records = list(run_session(config))
    fraction = sum(r.mode is not Mode.MESSAGE for r in records) / len(records)
    assert abs(fraction - 0.2) <= 0.005


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_clean_message_rounds_always_decode(seed):
    config = _config(pairs=40, seed=seed)
    for record in run_session(config):
        assert record.alice_decoded_state == record.bob_state
        assert record.bob_decoded_basis == record.alice_basis


def test_chsh_control_setting_pairs_uniform():
    config = _config(pairs=40_000, control_probability=0.5, check_kind=CheckKind.CHSH, seed=23)
    records = [r for r in run_session(config) if r.mode is Mode.CONTROL_CHSH]
    counts = {}
    for r in records:
        counts[(r.alice_setting, r.bob_setting)] = counts.get((r.alice_setting, r.bob_setting), 0) + 1
    assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for n in counts.values():
        assert abs(n / len(records) - 0.25) < 0.02


def test_clean_chsh_estimates_hit_both_signs():
    config = _config(pairs=30_000, control_probability=0.5, check_kind=CheckKind.CHSH, seed=8)
    records = run_session(config)
    estimate = estimate_chsh(records, config.settings)
    s = 2 * math.sqrt(2)
    psi = estimate.per_state[BellStateId.PSI_PLUS]
    phi = estimate.per_state[BellStateId.PHI_MINUS]
    assert abs(psi.s_hat - s) <= 4 * psi.stderr
    assert abs(phi.s_hat + s) <= 4 * phi.stderr


def test_chsh_round_records_settings_and_outcomes():
    config = _config(pairs=200, control_probability=0.9, check_kind=CheckKind.CHSH, seed=3)
    for record in run_session(config):
        if record.mode is not Mode.CONTROL_CHSH:
            continue
        assert record.alice_angle == config.settings.alice_angles[record.alice_setting]
        assert record.bob_angle == config.settings.bob_angles[record.bob_setting]
        assert set(record.outcomes) <= {+1, -1}
        assert record.alice_basis is None and record.correlated is None
