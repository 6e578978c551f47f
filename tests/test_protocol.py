"""Tests for the base-protocol state machine: decode tables, round flow,
announcement ordering, session determinism."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SESSION_CASES, standalone_rounds
from duplexqkd import stream
from duplexqkd.analysis import estimate_chsh, estimate_qber
from duplexqkd.attacks import Adversary
from duplexqkd.config import AttackKind, CheckKind, ConfigFieldError, DEFAULT_SETTINGS, ProtocolKind, SimulationConfig
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
    alice_decode,
    bob_decode,
    correlation_signature,
    pair_stream,
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
    with pytest.raises(ConfigFieldError) as err:
        SimulationConfig(pairs=10, check_kind=CheckKind.CHSH, protocol=ProtocolKind.MODIFIED)
    assert err.value.field_name == "check_kind"
    assert SimulationConfig(pairs=10).check_kind is CheckKind.CHSH
    assert SimulationConfig(pairs=10, protocol=ProtocolKind.MODIFIED).check_kind is CheckKind.QBER


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
        python = [draws.random() for _ in expected]
        assert [u * 2**53 for u in python] == list(expected)
        assert all(0.0 <= u < 1.0 for u in python)
        keys = stream.stream_keys(seed, np.array([pair, pair], dtype=np.uint64), lane)
        assert keys.dtype == np.uint64 and int(keys[0]) == draws.key
        for slot, u in enumerate(python):
            batch = stream.uniforms(keys, np.array([slot, slot], dtype=np.uint64))
            assert batch.dtype == np.float64 and batch.tolist() == [u, u]


@pytest.mark.parametrize(
    "protocol,attack,check", SESSION_CASES, ids=lambda kind: kind.value
)
def test_session_equals_standalone_rounds(protocol, attack, check):
    # 3000 pairs span three chunks of the trie walk; every record must be
    # the one its pair's round gives when run alone.
    config = SimulationConfig(
        pairs=3000, control_probability=0.5, check_kind=check, attack=attack, seed=2026, protocol=protocol
    )
    assert config.pairs > 2 * CHUNK
    assert list(run_session(config)) == standalone_rounds(config)


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


def test_session_rejects_an_adversary_that_breaks_the_contract():
    config = _config(pairs=200, control_probability=0.5)
    with pytest.raises(RuntimeError, match="begin_pair"):
        list(run_session(config, _PairCounter()))


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
