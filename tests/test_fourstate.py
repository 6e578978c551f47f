"""Tests for the four-state variant: Pauli/Bell permutation algebra, the
two-bit round flow, and its control mode."""

import math
from itertools import product

import numpy as np
import pytest

from duplexqkd.analysis import build_report
from duplexqkd.attacks import Adversary
from duplexqkd.config import AttackKind, ProtocolKind, SimulationConfig
from duplexqkd.fourstate import (
    PauliAnnouncement,
    ReceiptAck,
    pauli_for_target,
    pauli_transition,
    run_modified_pair,
)
from duplexqkd.protocol import MeasuredFirst, Mode, QberDisclosure, correlation_signature, run_session
from duplexqkd.quantum import BellStateId, PauliOp, bell_state
from conftest import Wiretap
from oracle import apply_pauli, identify_bell, pauli_matrix


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(pairs=100, control_probability=0.0, seed=3, protocol=ProtocolKind.MODIFIED)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# Pauli / Bell permutation algebra


def _transition_oracle(state: BellStateId, op: PauliOp) -> BellStateId:
    """Independent route: 4x4 matrix application plus state identification."""
    moved = np.kron(pauli_matrix(op), np.eye(2)) @ bell_state(state).amplitudes
    for candidate in BellStateId:
        if abs(abs(np.vdot(bell_state(candidate).amplitudes, moved)) - 1.0) < 1e-12:
            return candidate
    raise AssertionError("Pauli moved a Bell state off the Bell basis")


def test_pauli_transition_matches_matrix_oracle_on_all_16_entries():
    for state, op in product(BellStateId, PauliOp):
        assert pauli_transition(state, op) == _transition_oracle(state, op)


def test_pauli_transition_agrees_with_statevector_application():
    for state, op in product(BellStateId, PauliOp):
        moved = apply_pauli(bell_state(state), 0, op)
        assert identify_bell(moved) == pauli_transition(state, op)


@pytest.mark.parametrize(
    "state,op,expected",
    [
        (BellStateId.PSI_PLUS, PauliOp.SIGMA0, BellStateId.PSI_PLUS),
        (BellStateId.PSI_PLUS, PauliOp.SIGMA1, BellStateId.PHI_PLUS),
        (BellStateId.PHI_PLUS, PauliOp.SIGMA3, BellStateId.PHI_MINUS),
    ],
)
def test_pauli_transition_examples(state, op, expected):
    assert pauli_transition(state, op) == expected


def test_pauli_for_target_examples_and_round_trip():
    for state in BellStateId:
        assert pauli_for_target(state, state) is PauliOp.SIGMA0
    assert pauli_for_target(BellStateId.PSI_PLUS, BellStateId.PHI_MINUS) is PauliOp.SIGMA2
    for current, target in product(BellStateId, BellStateId):
        op = pauli_for_target(current, target)
        assert pauli_transition(current, op) == target


def test_pauli_permutations_form_klein_four_group():
    # Each operator is an involution, the four permutations are pairwise
    # distinct, and composing any two lands back in the set.
    tables = {
        op: tuple(pauli_transition(state, op) for state in BellStateId) for op in PauliOp
    }
    assert len(set(tables.values())) == 4
    # Each operator's value is the XOR mask it applies to the two-bit encoding.
    for state, op in product(BellStateId, PauliOp):
        assert pauli_transition(state, op).value == state.value ^ op.value
    for op in PauliOp:
        for state in BellStateId:
            assert pauli_transition(pauli_transition(state, op), op) == state
    for op1, op2 in product(PauliOp, PauliOp):
        composed = tuple(
            pauli_transition(pauli_transition(state, op1), op2) for state in BellStateId
        )
        assert composed in set(tables.values())


def test_two_bit_encoding_bijection():
    assert [s.bits for s in BellStateId] == [0, 1, 2, 3]
    for bits in range(4):
        assert BellStateId(bits).bits == bits
    with pytest.raises(ValueError):
        BellStateId(4)


# ---------------------------------------------------------------------------
# Message rounds


def test_clean_rounds_decode_both_directions():
    records = list(run_session(_config(pairs=2000, seed=8)))
    assert all(r.mode is Mode.MESSAGE for r in records)
    for record in records:
        assert record.alice_bell_outcome == record.bob_state
        assert record.bob_decoded == record.alice_target


def test_all_bit_combinations_decode():
    # Every (Bob's two bits, Alice's two bits) occurs among a seeded
    # session's clean message rounds, and each decodes both ways.
    combinations = set()
    for record in run_session(_config()):
        assert record.mode is Mode.MESSAGE
        assert record.alice_bell_outcome == record.bob_state
        assert record.bob_decoded == record.alice_target
        combinations.add((record.bob_state.bits, record.alice_target.bits))
    assert combinations == set(product(range(4), range(4)))


def test_message_round_announcements():
    tap = Wiretap()
    record = run_modified_pair(_config(), tap, 0)
    announcements = tap.announcements()
    assert [type(m) for m in announcements] == [ReceiptAck, PauliAnnouncement]
    assert announcements[1].op is record.alice_pauli


def test_control_round_flow_and_signature_check():
    # Every control path of the round, each as the wiretap heard its replay.
    # A four-state control round is the base protocol's error check: before
    # the second qubit moves Alice announces only the control flag, and she
    # discloses her basis and correlation once both qubits have arrived.
    config = _config(pairs=800, control_probability=0.5, seed=14)
    tap = Wiretap()
    session = run_session(config, tap)
    assert len(tap.rounds) == len(session.leaves)
    assert {r.mode for r in session.leaves} == {Mode.MESSAGE, Mode.CONTROL_QBER}
    controls = [(k, r) for k, r in enumerate(session.leaves) if r.mode is Mode.CONTROL_QBER]
    assert controls
    for k, record in controls:
        assert tap.rounds[k] == [
            ("qubit", 1),
            ("announcement", MeasuredFirst(control=True)),
            ("qubit", 2),
            ("announcement", QberDisclosure(basis=record.alice_basis, correlated=record.correlated)),
        ]
        product_ = record.outcome_1 * record.outcome_2
        assert record.qber_pass == (
            product_ == correlation_signature(record.bob_state, record.alice_basis)
        )
        assert record.qber_pass  # clean channel never fails


def test_passive_listener_guesses_target_at_chance():
    # The announced operation index alone says nothing about the target: any
    # fixed decoding rule succeeds at the 1/4 base rate under uniform states.
    records = list(run_session(_config(pairs=8000, seed=21)))
    hits = sum(
        pauli_transition(BellStateId.PSI_PLUS, r.alice_pauli) == r.alice_target for r in records
    )
    assert abs(hits / len(records) - 0.25) < 0.02


def test_four_state_substitution_is_caught_and_read():
    config = _config(
        pairs=12_000,
        control_probability=0.5,
        seed=31,
        attack=AttackKind.QMM_SUBSTITUTE,
    )
    records = list(run_session(config))
    # A four-state session's man-in-the-middle substitutes all four states.
    assert {r.eve_log.substitute for r in records} == set(BellStateId)
    controls = [r for r in records if r.mode is Mode.CONTROL_QBER]
    fail_rate = sum(not r.qber_pass for r in controls) / len(controls)
    assert 0.0 < fail_rate < 1.0
    # A uniform substitute matches the sent state's signature in the
    # disclosed basis for two of the four Bell states: d = 1/2, checked to
    # 4 standard errors.
    assert abs(fail_rate - 0.5) <= 4 * math.sqrt(0.25 / len(controls))
    for record in records:
        if record.mode is Mode.MESSAGE:
            assert record.eve_log.guessed_bob_bit == record.bob_state.bits
            assert record.eve_log.guessed_alice_bit == record.alice_target.bits


def test_modified_session_determinism_and_dispatch():
    config = _config(pairs=300, control_probability=0.3, seed=77)
    records = list(run_session(config))
    assert records == list(run_session(config))
    # run_session dispatches on config.protocol and matches standalone rounds
    assert records == [run_modified_pair(config, Adversary(), i) for i in range(config.pairs)]


def test_report_on_modified_records():
    config = _config(pairs=3000, control_probability=0.2, seed=5)
    report = build_report(run_session(config), config)
    assert report.decode_accuracy_alice == 1.0
    assert report.decode_accuracy_bob == 1.0
    assert report.detection.d_hat == 0.0
    assert report.control_fraction == pytest.approx(0.2, abs=0.03)

