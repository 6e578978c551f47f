"""Tests for the base-protocol state machine: decode tables, round flow,
announcement ordering, session determinism."""

import gc
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SESSION_CASES, Wiretap, standalone_rounds
from test_analysis import _evasion_dp
from duplexqkd import stream
from duplexqkd.analysis import (
    SimulationReport,
    _tally_record,
    build_report,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
)
from duplexqkd.attacks import Adversary, build_adversary
from duplexqkd.config import AttackKind, CheckKind, ConfigFieldError, DEFAULT_SETTINGS, ProtocolKind, SimulationConfig
from duplexqkd.fourstate import PauliAnnouncement, ReceiptAck
from duplexqkd.protocol import (
    BASIS_CHOICE,
    BIT_BASIS,
    BIT_STATE,
    CHUNK,
    CorrelationAnnouncement,
    ControlDisclosure,
    MeasuredFirst,
    Mode,
    PairRecord,
    ProtocolViolation,
    QberDisclosure,
    SENT_STATES,
    STATE_BIT,
    Session,
    alice_decode,
    bob_decode,
    correlation_signature,
    pair_stream,
    run_pair,
    run_session,
)
from duplexqkd.quantum import Basis, BellStateId, ChshSettings, bell_state
from oracle import TwoQubitDensity, chsh_value, observable_matrix


# ---------------------------------------------------------------------------
# Signature and decode tables


def test_correlation_signature_matches_eigenvalue_oracle():
    for state_id in BellStateId:
        vec = bell_state(state_id).amplitudes
        for basis in Basis:
            m = observable_matrix(basis.observable)
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


def test_a_sent_states_symbol_is_its_index():
    # Each protocol's alphabet, in symbol order: the base protocol's bit and
    # the four-state variant's two bits are a sent state's index.
    assert [STATE_BIT[state] for state in SENT_STATES[ProtocolKind.BASE]] == [0, 1]
    assert [state.bits for state in SENT_STATES[ProtocolKind.MODIFIED]] == [0, 1, 2, 3]
    assert set(SENT_STATES[ProtocolKind.MODIFIED]) == set(BellStateId)


def test_bob_decode_rejects_non_base_states():
    with pytest.raises(ProtocolViolation):
        bob_decode(BellStateId.PSI_MINUS, True)
    with pytest.raises(ProtocolViolation):
        bob_decode(BellStateId.PHI_PLUS, False)


def test_decode_tables_follow_the_matrix_oracle():
    # The decodes are tables keyed by (known state or basis, correlated): a
    # state with two bases of one signature would overwrite a key and
    # mis-decode one of them.
    for state in BIT_STATE:
        vec = bell_state(state).amplitudes
        for basis in BIT_BASIS:
            m = observable_matrix(basis.observable)
            signature = round(np.vdot(vec, np.kron(m, m) @ vec).real)
            assert bob_decode(state, signature == +1) == basis
            assert alice_decode(basis, signature == +1) == state


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


def _clean_message_rounds() -> dict:
    """The first clean message round of a seeded session for each (Bob's
    state, Alice's basis); all four occur among 100 pairs."""
    rounds: dict = {}
    for record in run_session(_config(pairs=100)):
        assert record.mode is Mode.MESSAGE
        rounds.setdefault((record.bob_state, record.alice_basis), record)
    assert set(rounds) == {(state, basis) for state in BIT_STATE for basis in BIT_BASIS}
    return rounds


def test_clean_message_round_phi_minus_z():
    record = _clean_message_rounds()[(BellStateId.PHI_MINUS, Basis.Z)]
    assert record.correlated is True
    assert record.bob_decoded_basis is Basis.Z
    assert record.alice_decoded_state is BellStateId.PHI_MINUS


def test_clean_message_decodes_all_bit_combinations():
    for (bob_state, alice_basis), record in _clean_message_rounds().items():
        assert record.bob_decoded_basis == alice_basis
        assert record.alice_decoded_state == bob_state


def test_clean_qber_checks_always_pass():
    config = _config(pairs=400, control_probability=0.5, check_kind=CheckKind.QBER)
    records = list(run_session(config))
    checks = [r for r in records if r.mode is Mode.CONTROL_QBER]
    assert checks and all(r.qber_pass for r in checks)
    assert estimate_qber(records).d_hat == 0.0


def test_message_round_announcement_order():
    tap = Wiretap()
    run_pair(_config(), tap, 1)
    announcements = tap.announcements()
    kinds = [type(m) for m in announcements]
    assert kinds == [MeasuredFirst, CorrelationAnnouncement]
    assert announcements[0].control is False


def test_control_rounds_announce_measured_first_first():
    # The wiretap hears every path of the round, one replay per leaf, under
    # either check.
    for check in CheckKind:
        tap = Wiretap()
        session = run_session(_config(pairs=300, control_probability=0.5, check_kind=check), tap)
        assert len(tap.rounds) == len(session.leaves)
        for k, record in enumerate(session.leaves):
            announcements = tap.announcements(k)
            first = announcements[0]
            assert isinstance(first, MeasuredFirst)
            assert first.control == (record.mode is not Mode.MESSAGE)
            if record.mode is Mode.CONTROL_CHSH:
                assert [type(m) for m in announcements[1:]] == [ControlDisclosure, ControlDisclosure]
                assert announcements[2].state_id == record.bob_state
            elif record.mode is Mode.CONTROL_QBER:
                assert [type(m) for m in announcements[1:]] == [QberDisclosure]


def _expected_hooks(record: PairRecord) -> list[tuple]:
    """The adversary hooks a round calls, in order, read off its record."""
    if record.protocol is ProtocolKind.MODIFIED and record.mode is Mode.MESSAGE:
        middle = [
            ("announcement", ReceiptAck()),
            ("qubit", 2),
            ("announcement", PauliAnnouncement(op=record.alice_pauli)),
        ]
    elif record.mode is Mode.CONTROL_CHSH:
        middle = [
            ("announcement", MeasuredFirst(control=True)),
            ("announcement", ControlDisclosure(setting=record.alice_angle, outcome=record.outcome_1)),
            ("announcement", ControlDisclosure(
                setting=record.bob_angle, outcome=record.outcome_2, state_id=record.bob_state
            )),
        ]
    elif record.mode is Mode.CONTROL_QBER:
        middle = [
            ("announcement", MeasuredFirst(control=True)),
            ("qubit", 2),
            ("announcement", QberDisclosure(basis=record.alice_basis, correlated=record.correlated)),
        ]
    else:
        middle = [
            ("announcement", MeasuredFirst(control=False)),
            ("qubit", 2),
            ("announcement", CorrelationAnnouncement(correlated=record.correlated)),
        ]
    return [("begin_pair",), ("qubit", 1), *middle, ("end_pair",)]


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_every_round_calls_its_hooks_in_order(protocol, attack, check):
    # The whole hook trace of every leaf, one replay each: begin_pair before
    # the first leg, then each leg and message in protocol order, and
    # end_pair last, with no hook between two rounds.
    config = SimulationConfig(
        pairs=300, control_probability=0.5, check_kind=check, attack=attack, seed=2029, protocol=protocol
    )
    tap = Wiretap(build_adversary(attack))
    session = run_session(config, tap)
    control = Mode.CONTROL_CHSH if check is CheckKind.CHSH else Mode.CONTROL_QBER
    assert {record.mode for record in session.leaves} == {Mode.MESSAGE, control}
    assert tap.hooks == [hook for record in session.leaves for hook in _expected_hooks(record)]


def test_measured_first_reveals_no_basis_or_outcome():
    tap = Wiretap()
    run_pair(_config(), tap, 2)
    assert tap.announcements()[0] == MeasuredFirst(control=False)


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
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=10, check_kind=CheckKind.CHSH, protocol=ProtocolKind.MODIFIED)
    assert err.value.field_name == "check_kind"
    assert SimulationConfig(pairs=10).check_kind is CheckKind.CHSH
    assert SimulationConfig(pairs=10, protocol=ProtocolKind.MODIFIED).check_kind is CheckKind.QBER
    # An enum's value or a bare tuple of angles is refused by field name,
    # not run as some other session.
    for field, stand_in in [
        ("protocol", "modified"),
        ("attack", "ir"),
        ("check_kind", "qber"),
        ("settings", ((0, 1), (2, 3))),
    ]:
        with pytest.raises(ConfigFieldError) as err:
            SimulationConfig(pairs=5, **{field: stand_in})
        assert err.value.field_name == field


def test_same_seed_reproduces_session():
    config = _config(pairs=250, control_probability=0.3, check_kind=CheckKind.QBER, seed=99)
    assert list(run_session(config)) == list(run_session(config))


def test_replaying_one_pair_reproduces_its_record():
    config = _config(pairs=50, control_probability=0.4, seed=5)
    records = list(run_session(config))
    for index in (0, 7, 49):
        assert run_pair(config, Adversary(), index) == records[index]


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
        assert {record.outcome_1, record.outcome_2} <= {+1, -1}
        assert record.alice_basis is None and record.correlated is None


# ---------------------------------------------------------------------------
# The exact round tree: a session's trie holds every path its round can
# take, with the chance a pair takes it, so each physics figure can be
# checked exactly, with no sampling error.

EXACT = 1e-12


def _expected_report(control_probability: float = 0.5, **kwargs) -> SimulationReport:
    """Each counter of the session's report as its exact expectation per
    pair: every leaf of its trie tallied once, with its probability for
    weight."""
    config = _config(pairs=1, control_probability=control_probability, **kwargs)
    session = run_session(config)
    report = SimulationReport(config_echo={}, seed=0)
    for leaf, p in zip(session.leaves, session.probabilities):
        _tally_record(report, leaf, p)
    return report


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_round_tree_is_complete(protocol, attack, check):
    probabilities = run_session(
        _config(pairs=1, control_probability=0.5, check_kind=check, attack=attack, protocol=protocol)
    ).probabilities
    assert min(probabilities) > 0
    assert abs(math.fsum(probabilities) - 1.0) <= EXACT


@pytest.mark.parametrize(
    "attack,s_psi,s_phi",
    [
        (AttackKind.NONE, 2 * math.sqrt(2), -2 * math.sqrt(2)),
        (AttackKind.INTERCEPT_RESEND, math.sqrt(2), -math.sqrt(2)),
        (AttackKind.QMM_SWAP, 0.0, 0.0),
    ],
    ids=["none", "ir", "qmm-swap"],
)
def test_round_tree_chsh_values(attack, s_psi, s_phi):
    per_state = _expected_report(attack=attack, check_kind=CheckKind.CHSH).chsh_estimate().per_state
    assert abs(per_state[BellStateId.PSI_PLUS].s_hat - s_psi) <= EXACT
    assert abs(per_state[BellStateId.PHI_MINUS].s_hat - s_phi) <= EXACT


_ANGLE = st.floats(0.0, 2 * math.pi, exclude_max=True)


@settings(max_examples=30, deadline=None)
@given(st.tuples(_ANGLE, _ANGLE), st.tuples(_ANGLE, _ANGLE))
def test_round_tree_chsh_values_at_any_angles(alice_angles, bob_angles):
    # The exact S of each sent state at arbitrary settings: the quantum
    # value on a clean channel, 0 once the swap attack cuts the correlation,
    # and within the local bound under intercept-resend.
    chsh = ChshSettings(alice_angles=alice_angles, bob_angles=bob_angles)
    clean, swap, ir = (
        _expected_report(attack=attack, check_kind=CheckKind.CHSH, settings=chsh).chsh_estimate().per_state
        for attack in (AttackKind.NONE, AttackKind.QMM_SWAP, AttackKind.INTERCEPT_RESEND)
    )
    assert clean.keys() == swap.keys() == ir.keys() == set(BIT_STATE)
    for state in BIT_STATE:
        quantum = chsh_value(TwoQubitDensity.from_pure(bell_state(state)), chsh)
        assert abs(clean[state].s_hat - quantum) <= EXACT
        assert abs(swap[state].s_hat) <= EXACT
        assert abs(ir[state].s_hat) <= 2.0 + EXACT


def _entropy(joint: dict, axes: tuple) -> float:
    """Shannon entropy in bits of the key positions ``axes`` of ``joint``, a
    map from keys to probabilities."""
    marginal = defaultdict(float)
    for key, p in joint.items():
        marginal[tuple(key[i] for i in axes)] += p
    total = math.fsum(marginal.values())
    return -math.fsum(p / total * math.log2(p / total) for p in marginal.values() if p > 0)


def _information(joint: dict, xs: tuple, ys: tuple) -> float:
    """I(X;Y) in bits, X and Y the key positions ``xs`` and ``ys`` of
    ``joint``."""
    return _entropy(joint, xs) + _entropy(joint, ys) - _entropy(joint, xs + ys)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.01, 0.99))
def test_public_channel_gives_away_the_xor_of_the_two_parties_bits(control):
    # Over clean message rounds, the announcements a listener hears say
    # nothing about either party's bits, but half of what the pair holds:
    # the base correlation is Alice's basis bit XOR Bob's state bit, and the
    # four-state Pauli index is Bob's two bits XOR Alice's target.
    for protocol, attack, check in SESSION_CASES:
        if attack is not AttackKind.NONE:
            continue
        tap = Wiretap()
        session = run_session(
            _config(pairs=1, control_probability=control, check_kind=check, protocol=protocol), tap
        )
        joint = defaultdict(float)  # (Alice's bits, Bob's bits, transcript) -> probability
        for k, (leaf, p) in enumerate(zip(session.leaves, session.probabilities)):
            if leaf.mode is Mode.MESSAGE:
                alice = leaf.alice_target if protocol is ProtocolKind.MODIFIED else leaf.alice_basis
                joint[alice, leaf.bob_state, tuple(tap.announcements(k))] += p
        bits = 2 if protocol is ProtocolKind.MODIFIED else 1
        assert abs(_entropy(joint, (0, 1)) - 2 * bits) <= EXACT
        assert abs(_information(joint, (0,), (2,))) <= EXACT
        assert abs(_information(joint, (1,), (2,))) <= EXACT
        assert abs(_information(joint, (0, 1), (2,)) - bits) <= EXACT


@pytest.mark.parametrize("protocol", ProtocolKind, ids=lambda kind: kind.value)
@pytest.mark.parametrize(
    "attack,d",
    [(AttackKind.NONE, 0.0), (AttackKind.INTERCEPT_RESEND, 0.25), (AttackKind.QMM_SUBSTITUTE, 0.5)],
    ids=["none", "ir", "qmm"],
)
def test_round_tree_detection_rates(protocol, attack, d):
    report = _expected_report(protocol=protocol, attack=attack, check_kind=CheckKind.QBER)
    assert abs(report.detection.d_hat - d) <= EXACT


def test_round_tree_decode_and_guess_accuracies():
    base = _expected_report(attack=AttackKind.INTERCEPT_RESEND, check_kind=CheckKind.QBER)
    assert abs(base.decode_accuracy_alice - 0.75) <= EXACT
    assert abs(base.decode_accuracy_bob - 0.75) <= EXACT
    four_state = _expected_report(protocol=ProtocolKind.MODIFIED, attack=AttackKind.INTERCEPT_RESEND)
    assert abs(four_state.eve_bob_accuracy - 0.5) <= EXACT


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.99))
def test_round_tree_figures_at_any_control_probability(control):
    # The detection rates and accuracies do not depend on C, and a share C
    # of the pairs are control rounds.  Four-state intercept-resend decodes
    # Alice's Pauli announcement against its guess of Bob's state, so it
    # reads her symbol exactly as often as Bob does.
    for protocol in ProtocolKind:
        for attack, d in ((AttackKind.INTERCEPT_RESEND, 0.25), (AttackKind.QMM_SUBSTITUTE, 0.5)):
            report = _expected_report(control, protocol=protocol, attack=attack, check_kind=CheckKind.QBER)
            assert abs(report.detection.d_hat - d) <= EXACT
            assert abs(report.control_rounds / report.pairs - control) <= EXACT
    base = _expected_report(control, attack=AttackKind.INTERCEPT_RESEND, check_kind=CheckKind.QBER)
    assert abs(base.decode_accuracy_alice - 0.75) <= EXACT
    assert abs(base.decode_accuracy_bob - 0.75) <= EXACT
    four_state = _expected_report(control, protocol=ProtocolKind.MODIFIED, attack=AttackKind.INTERCEPT_RESEND)
    assert abs(four_state.eve_bob_accuracy - 0.5) <= EXACT
    assert abs(four_state.eve_alice_accuracy - 0.5) <= EXACT
    assert abs(four_state.eve_alice_accuracy - four_state.decode_accuracy_bob) <= EXACT


@pytest.mark.parametrize(
    "protocol,attack,d",
    [
        (ProtocolKind.BASE, AttackKind.INTERCEPT_RESEND, 0.25),
        (ProtocolKind.BASE, AttackKind.QMM_SUBSTITUTE, 0.5),
        (ProtocolKind.MODIFIED, AttackKind.INTERCEPT_RESEND, 0.25),
    ],
    ids=["base-ir", "base-qmm", "four-state-ir"],
)
def test_round_tree_evasion_probability(protocol, attack, d):
    # The chance that an attack takes n message rounds unseen, with its
    # detection rate read off the exact tree, against the enumeration of
    # the detection process.
    report = _expected_report(protocol=protocol, attack=attack, check_kind=CheckKind.QBER)
    tree_d = report.qber_errors / report.qber_checks
    assert abs(tree_d - d) <= EXACT
    for n in (1, 5, 20):
        assert abs(evasion_probability(0.5, tree_d, n) - _evasion_dp(0.5, tree_d, n)) <= EXACT


# ---------------------------------------------------------------------------
# Keyed stream and the session trie

# The first four outputs of SplitMix64 seeded with 0 (the published
# reference values); they are also the keys of pairs 0 and 1 of seed 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)

# (seed, pair, lane) -> draws 0, 1, 2 as the 53-bit integers u * 2**53.
STREAM_VECTORS = {
    (0, 0, 0): (5876733520225071, 6315957190297641, 3486904274089342),
    (0, 0, 1): (2488090916427887, 1944370228470169, 7918266355572978),
    (0, 1, 0): (8379284551116454, 7330708760053186, 4959541653696828),
    (0, 1, 1): (2748948559579471, 5766741390542761, 5009526056787668),
    (0, 2**40, 0): (4826988945702743, 4988067448287817, 2114086902755182),
    (0, 2**40, 1): (308515873124663, 3228666741406829, 4150881354753032),
    (2**64 - 1, 0, 0): (3298815481631822, 6672578802367200, 4598734475589376),
    (2**64 - 1, 0, 1): (4478124826975101, 2022217857624416, 2677535738350980),
    (2**64 - 1, 1, 0): (3171195082349766, 4366840742148128, 6783802240358655),
    (2**64 - 1, 1, 1): (7729952980332128, 6242047796525973, 5377840203734684),
    (2**64 - 1, 2**40, 0): (2403097106479986, 3392898976226320, 7553300754622010),
    (2**64 - 1, 2**40, 1): (6216467651281633, 8228275419061795, 32600685881090),
}


def test_keyed_stream_known_answers():
    assert [stream.stream_key(0, pair, lane) for pair in (0, 1) for lane in (0, 1)] == list(SPLITMIX64_SEED0)
    assert {lane for (_, _, lane) in STREAM_VECTORS} == set(range(stream.LANES))
    for (seed, pair, lane), expected in STREAM_VECTORS.items():
        draws = pair_stream(seed, pair, lane)
        python = [stream.uniform(draws.key, slot) for slot in range(len(expected))]
        assert [u * 2**53 for u in python] == list(expected)
        assert all(0.0 <= u < 1.0 for u in python)
        # The 64-bit draws that the uniforms keep the top 53 bits of.
        bits = [stream.draw_bits(draws.key, slot) for slot in range(len(expected))]
        assert all(0 <= b < 2**64 for b in bits)
        assert [b >> 11 for b in bits] == list(expected)
        # The same functions over uint64 arrays, bit for bit.
        keys = stream.stream_key(seed, np.array([pair, pair], dtype=np.uint64), lane)
        assert keys.dtype == np.uint64 and keys.tolist() == [draws.key] * 2
        for slot, u in enumerate(python):
            batch = stream.uniform(keys, slot)
            assert batch.dtype == np.float64 and batch.tolist() == [u, u]
            batch = stream.draw_bits(keys, slot)
            assert batch.dtype == np.uint64 and batch.tolist() == [bits[slot]] * 2
        # Slots far past a round's reach, where GAMMA * (slot + 1) wraps.
        for slot in (2**20, 2**63, 2**64 - 2):
            batch = stream.uniform(keys, slot)
            assert batch.dtype == np.float64 and batch.tolist() == [stream.uniform(draws.key, slot)] * 2
            batch = stream.draw_bits(keys, slot)
            assert batch.dtype == np.uint64 and batch.tolist() == [stream.draw_bits(draws.key, slot)] * 2
        assert keys.tolist() == [draws.key] * 2, "a draw overwrote its keys"


def _unmix(z: int) -> int:
    """The inverse of ``stream._mix``: SplitMix64's finalizer is a bijection
    (each xorshift and each odd multiplier inverts mod 2**64)."""

    def unshift(y: int, shift: int) -> int:
        x = y
        for _ in range(64 // shift):
            x = y ^ (x >> shift)
        return x

    z = unshift(z, 31) * pow(stream._MIX2, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(stream._MIX1, -1, 2**64) % 2**64
    return unshift(z, 30)


def _key_drawing(bits: int, slot: int) -> int:
    """A key whose draw ``slot`` has the 64 bits ``bits``."""
    return (_unmix(bits) - stream.GAMMA * (slot + 1)) % 2**64


def _seed_with_zero_draw(slot: int, low: int) -> int:
    """A seed whose pair 0 draws exactly 0.0 at ``slot`` of the honest lane:
    a draw keeps the top 53 bits of ``_mix(key + GAMMA * (slot + 1))``, so
    each finalizer output ``low`` below 2**11 gives one such seed."""
    return (_unmix(_key_drawing(low, slot)) - stream.GAMMA) % 2**64


def _assert_threshold_exact(cut: float) -> None:
    # The draws at the threshold, just below it and at the top of its
    # uniform: the integer test must agree with ``uniform >= cut``, in the
    # int form and in the uint64 form that the numpy walk compares.
    threshold = stream.threshold_bits(cut)
    assert 0 < threshold < 2**64
    draws = (threshold, threshold - 1, threshold + 2047)
    keys = [_key_drawing(bits, 3) for bits in draws]
    assert [stream.draw_bits(key, 3) for key in keys] == list(draws)
    reached = [stream.uniform(key, 3) >= cut for key in keys]
    assert reached == [True, False, True], cut
    assert [bits >= threshold for bits in draws] == reached
    batch = stream.draw_bits(np.array(keys, dtype=np.uint64), 3)
    assert (batch >= np.uint64(threshold)).tolist() == reached


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_thresholds_are_exact_at_drawn_cuts(cut):
    _assert_threshold_exact(cut)


def test_thresholds_are_exact_at_every_trie_cut():
    cuts = set()
    for protocol, attack, check in SESSION_CASES:
        for control in (0.2, 0.5):
            session = run_session(SimulationConfig(
                pairs=1, control_probability=control, check_kind=check, attack=attack, protocol=protocol
            ))
            cuts.update(cut for _, _, node_cuts in session._nodes for cut in node_cuts)
    assert len(cuts) > 20
    for cut in cuts:
        _assert_threshold_exact(cut)


@pytest.mark.parametrize("slot", range(8))
def test_clean_rounds_hold_when_a_draw_is_zero(slot):
    # A draw of exactly 0.0 lies below every cut, so it selects any branch
    # that rounding left with a probability of about 1e-33.
    for low in range(32):
        seed = _seed_with_zero_draw(slot, low)
        assert _unmix(stream._mix(seed)) == seed
        assert stream.uniform(stream.stream_key(seed, 0, 0), slot) == 0.0
        for protocol, check in [(ProtocolKind.BASE, CheckKind.CHSH), (ProtocolKind.BASE, CheckKind.QBER),
                                (ProtocolKind.MODIFIED, CheckKind.QBER)]:
            for control in (0.0, 0.999):
                config = _config(pairs=1, seed=seed, protocol=protocol, check_kind=check,
                                 control_probability=control)
                report = build_report(run_session(config), config)
                assert report.decode_accuracy_alice in (None, 1.0), config
                assert report.decode_accuracy_bob in (None, 1.0), config
            assert report.qber_errors == 0, config


def _assert_session_equals_standalone_rounds(config: SimulationConfig, chunk: int) -> None:
    # The session walks full-size chunks and a shorter last one; every
    # record must be the one its pair's round gives when run alone.
    sizes = [len(ids) for ids in run_session(config).leaf_ids()]
    assert sizes == [chunk] * (config.pairs // chunk) + [config.pairs % chunk]
    assert list(run_session(config)) == standalone_rounds(config)


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_session_equals_standalone_rounds(protocol, attack, check, monkeypatch):
    # A small chunk size, so that 3000 pairs span eleven full chunks and a
    # shorter last one.
    monkeypatch.setattr("duplexqkd.protocol.CHUNK", 256)
    config = SimulationConfig(
        pairs=3000, control_probability=0.5, check_kind=check, attack=attack, seed=2026, protocol=protocol
    )
    _assert_session_equals_standalone_rounds(config, 256)


def test_session_equals_standalone_rounds_at_full_chunk():
    config = SimulationConfig(
        pairs=3 * CHUNK + 500, control_probability=0.5, attack=AttackKind.QMM_SWAP, seed=2027
    )
    _assert_session_equals_standalone_rounds(config, CHUNK)


@pytest.mark.parametrize(
    "attack,lanes", [(AttackKind.NONE, [0]), (AttackKind.INTERCEPT_RESEND, [0, 1])], ids=["none", "ir"]
)
def test_walk_keys_only_the_lanes_its_trie_reads(attack, lanes, monkeypatch):
    # The null adversary never draws, so an honest session keys the honest
    # lane alone; an attack that draws keys the adversary's lane as well.
    # The numpy walk keys each chunk's lanes at once, with an array of
    # pairs; the Python walk of a one-chunk session keys them pair by pair
    # (replays key pair 0 too).
    requested = []
    keyed = []

    def spy_key(seed, pair, lane):
        if not isinstance(pair, int):
            requested.append(lane)
        elif pair:
            keyed.append(lane)
        return stream.stream_key(seed, pair, lane)

    monkeypatch.setattr("duplexqkd.protocol.stream_key", spy_key)
    list(run_session(_config(pairs=CHUNK + 1, control_probability=0.5, attack=attack)))
    assert requested == lanes * 2
    assert keyed == []
    list(run_session(_config(pairs=100, control_probability=0.5, attack=attack)))
    assert requested == lanes * 2
    assert keyed == lanes * 99


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_python_and_numpy_walks_agree(protocol, attack, check, monkeypatch):
    # A one-chunk session walks in Python; a chunk size below its pair count
    # makes the same session walk in numpy.  Both give the standalone rounds.
    config = SimulationConfig(
        pairs=CHUNK, control_probability=0.3, check_kind=check, attack=attack, seed=2028, protocol=protocol
    )
    session = run_session(config)
    python_ids = list(session.leaf_ids())
    monkeypatch.setattr("duplexqkd.protocol.CHUNK", 1000)
    numpy_ids = [leaf for ids in session.leaf_ids() for leaf in ids]
    assert [len(ids) for ids in python_ids] == [CHUNK]
    assert numpy_ids == python_ids[0]
    assert [session.leaves[leaf] for leaf in numpy_ids] == standalone_rounds(config)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1), st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(SESSION_CASES)
)
def test_python_and_numpy_walks_agree_at_drawn_seeds(seed, control, case):
    protocol, attack, check = case
    session = run_session(SimulationConfig(
        pairs=300, control_probability=control, check_kind=check, attack=attack, seed=seed, protocol=protocol
    ))
    numpy_ids = [leaf for ids in session._numpy_walk() for leaf in ids.tolist()]
    assert session._python_walk() == numpy_ids
    assert session.leaf_counts() == [numpy_ids.count(leaf) for leaf in range(len(session.leaves))]


#: Entries a base CHSH session's bucket table may hold.  Drawn angles give
#: the most buckets: the largest table seen over 750 random settings had
#: 172,224 entries (``qmm-swap``, 38 cuts in one row).
BUCKET_TABLE_BOUND = 2**18


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=4, max_size=4),
    st.floats(0.01, 0.99),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_python_and_numpy_walks_agree_at_drawn_chsh_settings(angles, control, seed):
    for protocol, attack, check in SESSION_CASES:
        if check is not CheckKind.CHSH:
            continue
        session = run_session(SimulationConfig(
            pairs=300, control_probability=control, check_kind=check, attack=attack, seed=seed,
            protocol=protocol, settings=ChshSettings(angles[:2], angles[2:]),
        ))
        python_ids = [leaf for ids in session.leaf_ids() for leaf in ids]
        python_counts = session.leaf_counts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("duplexqkd.protocol.CHUNK", 128)
            assert [len(ids) for ids in session.leaf_ids()] == [128, 128, 44]
            assert [leaf for ids in session.leaf_ids() for leaf in ids] == python_ids
            assert session.leaf_counts() == python_counts
        assert session._bucket_table()[1].size < BUCKET_TABLE_BOUND


#: The chance that a correct sampler fails any of the chi-squared tests
#: below.  Each test refuses at a tail below its Bonferroni share of it, out
#: of five per session case (the marginal test on each walk, and the serial
#: tests at lag 1, at lag ``CHUNK`` and across seeds) and two per base CHSH
#: case at each drawn setting (the marginal test on each walk).
SAMPLER_FALSE_ALARM = 1e-6
_CHSH_CASES = [case for case in SESSION_CASES if case[2] is CheckKind.CHSH]
_DRAWN_SETTINGS = 5
_SAMPLER_THRESHOLD = SAMPLER_FALSE_ALARM / (5 * len(SESSION_CASES) + 2 * _DRAWN_SETTINGS * len(_CHSH_CASES))


def _chi2_tail(statistic: float, df: int) -> float:
    """P(X >= statistic) for X ~ chi-squared with ``df`` degrees of freedom,
    by the Wilson-Hilferty approximation: (X/df)^(1/3) is close to normal
    with mean 1 - 2/(9 df) and variance 2/(9 df)."""
    variance = 2.0 / (9.0 * df)
    z = ((statistic / df) ** (1.0 / 3.0) - (1.0 - variance)) / math.sqrt(variance)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _cells(expected: dict) -> dict:
    """A cell for each key of ``expected`` (its expected count): keys fill
    cells in increasing order of expected count until a cell expects at
    least 5, and the keys left over join the last full cell."""
    cell_of, cell, filled = {}, 0, 0.0
    for key in sorted(expected, key=expected.__getitem__):
        cell_of[key], filled = cell, filled + expected[key]
        if filled >= 5.0:
            cell, filled = cell + 1, 0.0
    return {key: min(at, cell - 1) for key, at in cell_of.items()}


def _pooled_tail(observed: dict, expected: dict) -> float:
    """The chi-squared tail of ``observed`` counts (0 for a missing key)
    against ``expected`` ones, over the cells of ``_cells``."""
    cell_of = _cells(expected)
    cells = np.zeros((1 + max(cell_of.values()), 2))
    for key, at in cell_of.items():
        cells[at] += observed.get(key, 0), expected[key]
    statistic = math.fsum((count - mean) ** 2 / mean for count, mean in cells)
    return _chi2_tail(statistic, len(cells) - 1)


def _record_pools(session: Session) -> dict:
    """The chance that a pair reaches each of the session's records.  Leaves
    with equal records are pooled, so a rounding sliver, a leaf below 1e-12,
    shares a likelier leaf's."""
    pools = defaultdict(float)
    for record, p in zip(session.leaves, session.probabilities):
        pools[record] += p
    return pools


def _sampler_tail(session: Session) -> float:
    """The chi-squared tail of the session's leaf counts against its pair
    count times its leaf probabilities, pooled by record and then into
    cells that expect at least 5 pairs."""
    counts = session.leaf_counts()
    observed = defaultdict(int)
    for record, count in zip(session.leaves, counts):
        observed[record] += count
    return _pooled_tail(observed, {record: sum(counts) * p for record, p in _record_pools(session).items()})


def _serial_tail(first: Session, second: Session, lag: int) -> float:
    """The chi-squared tail of the joint counts of (the cell of pair i's
    record in ``first``, the cell of pair i + ``lag``'s in ``second``)
    against (n - lag) times the product of the two cells' chances, with the
    records pooled into cells as ``_sampler_tail`` pools them."""
    walks = [(session, np.concatenate(list(session.leaf_ids()))) for session in (first, second)]
    pairs = len(walks[0][1])
    pools = _record_pools(first)
    cell_of = _cells({record: pairs * p for record, p in pools.items()})
    chance = np.zeros(1 + max(cell_of.values()))
    for record, p in pools.items():
        chance[cell_of[record]] += p
    a, b = (np.array([cell_of[record] for record in session.leaves])[ids] for session, ids in walks)
    joint = np.bincount(a[: pairs - lag] * len(chance) + b[lag:], minlength=len(chance) ** 2)
    expected = (pairs - lag) * np.outer(chance, chance).ravel()
    return _pooled_tail(dict(enumerate(joint.tolist())), dict(enumerate(expected.tolist())))


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_pairs_reach_leaves_at_the_tree_probabilities(protocol, attack, check, monkeypatch):
    # The Python walk of one chunk, and the numpy walk of 200 chunks of a
    # size that is no power of two, at fixed seeds.
    config = SimulationConfig(
        pairs=CHUNK, control_probability=0.5, check_kind=check, attack=attack, seed=2030, protocol=protocol
    )
    assert _sampler_tail(run_session(config)) >= _SAMPLER_THRESHOLD
    monkeypatch.setattr("duplexqkd.protocol.CHUNK", 1000)
    config = SimulationConfig(
        pairs=200_000, control_probability=0.5, check_kind=check, attack=attack, seed=2031, protocol=protocol
    )
    assert _sampler_tail(run_session(config)) >= _SAMPLER_THRESHOLD


@settings(max_examples=_DRAWN_SETTINGS, deadline=None)
@given(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=4, max_size=4))
def test_pairs_reach_leaves_at_the_tree_probabilities_at_drawn_chsh_settings(angles):
    # As above, for each base CHSH case, at settings drawn from [-2 pi, 2 pi].
    for protocol, attack, check in _CHSH_CASES:
        for pairs, seed, chunk in ((CHUNK, 2034, CHUNK), (200_000, 2035, 1000)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("duplexqkd.protocol.CHUNK", chunk)
                session = run_session(SimulationConfig(
                    pairs=pairs, control_probability=0.5, check_kind=check, attack=attack, seed=seed,
                    protocol=protocol, settings=ChshSettings(angles[:2], angles[2:]),
                ))
                assert _sampler_tail(session) >= _SAMPLER_THRESHOLD


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_pairs_reach_leaves_independently_across_pairs_and_seeds(protocol, attack, check, monkeypatch):
    # The numpy walk of 200 chunks of 1000 pairs: pair i against pair i + 1,
    # against pair i + 1000 (its place in the next chunk), and against pair i
    # of the session at the next seed.
    monkeypatch.setattr("duplexqkd.protocol.CHUNK", 1000)
    session, next_seed = (
        run_session(SimulationConfig(
            pairs=200_000, control_probability=0.5, check_kind=check, attack=attack, seed=seed, protocol=protocol
        ))
        for seed in (2032, 2033)
    )
    assert _serial_tail(session, session, 1) >= _SAMPLER_THRESHOLD
    assert _serial_tail(session, session, 1000) >= _SAMPLER_THRESHOLD
    assert _serial_tail(session, next_seed, 0) >= _SAMPLER_THRESHOLD


class _PairCounter(Adversary):
    """Breaks the adversary contract: whether it draws depends on how many
    pairs it has seen, not on the round's draws and events."""

    def __init__(self) -> None:
        self.pairs_seen = 0

    def begin_pair(self) -> None:
        self.pairs_seen += 1

    def relay_qubit(self, system, handle, leg, lane):
        if leg == 1 and self.pairs_seen % 2:
            lane.choose(BASIS_CHOICE)
        return handle


class _FirstPairExtraDraw(_PairCounter):
    """Breaks the contract at the end of a round: only the first round it
    sees draws once more, so a replay that forces a branch of that last
    choice makes fewer choices than its forced path."""

    def relay_qubit(self, system, handle, leg, lane):
        return handle

    def end_pair(self, system, lane):
        if self.pairs_seen == 1:
            lane.choose(BASIS_CHOICE)
        return None


def test_session_rejects_an_adversary_that_breaks_the_contract():
    config = _config(pairs=200, control_probability=0.5)
    for adversary in (_PairCounter(), _FirstPairExtraDraw()):
        with pytest.raises(RuntimeError, match="begin_pair"):
            list(run_session(config, adversary))


def test_rounds_leave_no_reference_cycles():
    # Each round's scaffold, streams and lanes are freed by reference
    # counting alone, so replaying many rounds makes no cyclic garbage.
    gc.collect()
    gc.disable()
    try:
        for protocol in ProtocolKind:
            config = _config(pairs=50, control_probability=0.5, attack=AttackKind.QMM_SWAP, protocol=protocol)
            standalone_rounds(config)
        assert gc.collect() == 0
    finally:
        gc.enable()
