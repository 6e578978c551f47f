"""Tests for the adversary layer: intercept-resend statistics, both
man-in-the-middle variants, the causality of what a wiretap on the channel
observes, and the strict no-op property of the null adversary."""

import math
from collections import Counter

import numpy as np
import pytest

from duplexqkd.analysis import build_report, estimate_chsh, estimate_qber
from duplexqkd.attacks import Adversary, InterceptResend, QmmSubstitute, QmmSwap, build_adversary
from duplexqkd.config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from duplexqkd.protocol import BASIS_BIT, STATE_BIT, MeasuredFirst, Mode, correlation_signature, run_pair, run_session
from duplexqkd.quantum import (
    Basis,
    BellStateId,
    ChshSettings,
    bell_state,
    measure_qubit,
    tensor,
)
from conftest import Wiretap
from oracle import TwoQubitDensity, chsh_value, eigenvectors, mix, vector


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(pairs=200, control_probability=0.5, seed=1234)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


# ---------------------------------------------------------------------------
# Null adversary


def test_null_adversary_is_strict_noop():
    config = _config(pairs=300, control_probability=0.4, check_kind=CheckKind.QBER)
    without_layer = list(run_session(config, None))
    with_null = list(run_session(config, Adversary()))
    assert without_layer == with_null


def test_build_adversary_dispatch():
    assert build_adversary(AttackKind.NONE) is None
    assert isinstance(build_adversary(AttackKind.INTERCEPT_RESEND), InterceptResend)
    assert isinstance(build_adversary(AttackKind.QMM_SUBSTITUTE), QmmSubstitute)
    assert isinstance(build_adversary(AttackKind.QMM_SWAP), QmmSwap)


# ---------------------------------------------------------------------------
# Intercept-resend


def test_ir_same_basis_preserves_signature_exactly():
    # Statevector enumeration: when Eve measures both halves in the basis
    # Alice later uses, forwarding the eigenstates leaves Alice's outcome
    # product pinned to the state's signature - in both of Eve's branches.
    for state_id in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS):
        for basis in Basis:
            obs = basis.observable
            expected = correlation_signature(state_id, basis)
            for eve_branch in (0.25, 0.75):
                o_e1, after = measure_qubit(bell_state(state_id), 0, obs, eve_branch)
                o_a1, after = measure_qubit(after, 0, obs, 0.5)
                assert o_a1 == o_e1
                o_e2, after = measure_qubit(after, 1, obs, 0.5)
                o_a2, _ = measure_qubit(after, 1, obs, 0.5)
                assert o_a2 == o_e2
                assert o_a1 * o_a2 == expected


def test_ir_crossed_basis_randomizes_product():
    # Eve in X, Alice in Z: Alice's two outcomes are independent coin flips,
    # so exactly half the branch combinations flip the signature.
    for state_id in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS):
        expected = correlation_signature(state_id, Basis.Z)
        products = []
        for eve_branch in (0.25, 0.75):
            o_e1, after_eve = measure_qubit(bell_state(state_id), 0, Basis.X.observable, eve_branch)
            _, after_eve = measure_qubit(after_eve, 1, Basis.X.observable, 0.5)
            for r1 in (0.25, 0.75):
                o_a1, mid = measure_qubit(after_eve, 0, Basis.Z.observable, r1)
                for r2 in (0.25, 0.75):
                    o_a2, _ = measure_qubit(mid, 1, Basis.Z.observable, r2)
                    products.append(o_a1 * o_a2)
        assert products.count(expected) == len(products) // 2


def test_ir_conditional_error_rates():
    # Split the error checks by Eve's basis, read off the wiretapped attack
    # after each round run alone: rounds where Alice picked the same basis
    # are error-free, crossed rounds err half the time.
    config = _config(pairs=8000, check_kind=CheckKind.QBER, attack=AttackKind.INTERCEPT_RESEND, seed=77)
    tap = Wiretap(InterceptResend())
    tap.begin_session(config)
    matched, crossed = [], []
    for index in range(config.pairs):
        record = run_pair(config, tap, index)
        if record.mode is Mode.CONTROL_QBER:
            (matched if tap.inner._basis is record.alice_basis else crossed).append(record)
    assert matched and all(r.qber_pass for r in matched)
    crossed_error = sum(not r.qber_pass for r in crossed) / len(crossed)
    assert abs(crossed_error - 0.5) < 0.04


def test_ir_detection_rate_quarter():
    config = _config(
        pairs=20_000, check_kind=CheckKind.QBER, attack=AttackKind.INTERCEPT_RESEND, seed=6
    )
    stats = estimate_qber(run_session(config))
    assert stats.checks > 8000
    assert abs(stats.d_hat - 0.25) < 0.02


def test_ir_forwards_separable_states():
    # Post-attack Alice/Bob density is an explicit mixture of eigenstate
    # products; its CHSH value never beats the separable bound.
    rng = np.random.default_rng(11)
    for state_id in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS):
        per_basis = []
        for basis in Basis:
            branches = []
            for branch in (0.25, 0.75):
                _, collapsed = measure_qubit(bell_state(state_id), 0, basis.observable, branch)
                _, collapsed = measure_qubit(collapsed, 1, basis.observable, 0.5)
                branches.append((0.5, TwoQubitDensity.from_pure(collapsed)))
            per_basis.append(mix(branches))
        rho = mix([(0.5, per_basis[0]), (0.5, per_basis[1])])
        for _ in range(300):
            settings = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
            assert abs(chsh_value(rho, settings)) <= 2.0 + 1e-9
            for rho_b in per_basis:
                assert abs(chsh_value(rho_b, settings)) <= 2.0 + 1e-9


def test_ir_chsh_stays_under_separable_bound():
    config = _config(
        pairs=20_000, check_kind=CheckKind.CHSH, attack=AttackKind.INTERCEPT_RESEND, seed=41
    )
    estimate = estimate_chsh(run_session(config), config.settings)
    for bin_ in estimate.per_state.values():
        assert abs(bin_.s_hat) <= 2.0 + 4 * bin_.stderr


def test_ir_learns_bob_state_in_message_rounds():
    config = _config(pairs=2000, control_probability=0.0, attack=AttackKind.INTERCEPT_RESEND, seed=9)
    for record in run_session(config):
        assert record.eve_log.guessed_bob_bit == STATE_BIT[record.bob_state]


def test_four_state_ir_guesses_half_of_bobs_states():
    # Eve's same-basis product fixes only a base state, so in the four-state
    # variant she guesses psi+ or phi-, written as its two bits: on the exact
    # tree she is right on every psi+ and phi- message leaf and wrong on
    # every psi- and phi+ one.
    config = _config(pairs=1, protocol=ProtocolKind.MODIFIED, attack=AttackKind.INTERCEPT_RESEND)
    messages = [leaf for leaf in run_session(config).leaves if leaf.mode is Mode.MESSAGE]
    assert {leaf.bob_state for leaf in messages} == set(BellStateId)
    for leaf in messages:
        right = leaf.bob_state in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS)
        assert (leaf.eve_log.guessed_bob_bit == leaf.bob_state.bits) == right


def test_four_state_ir_alice_guess_rate_sampled():
    # Each message round's guess is an independent coin of bias 1/2: the
    # sampled rate lies within 5 standard errors of it.
    config = _config(pairs=20_000, protocol=ProtocolKind.MODIFIED, attack=AttackKind.INTERCEPT_RESEND, seed=3)
    report = build_report(run_session(config), config)
    guesses = report.eve_alice_guesses
    assert guesses > 8000
    assert abs(report.eve_alice_accuracy - 0.5) <= 5 * math.sqrt(0.25 / guesses)


# ---------------------------------------------------------------------------
# QMM substitution


def test_qmm_matching_substitute_is_invisible_and_transparent():
    config = _config(
        pairs=4000,
        control_probability=0.3,
        check_kind=CheckKind.QBER,
        attack=AttackKind.QMM_SUBSTITUTE,
        seed=13,
    )
    records = run_session(config)
    for record in records:
        substitute = record.eve_log.substitute
        if record.mode is Mode.CONTROL_QBER:
            # The check fires exactly on substitute mismatch: the two base
            # states have opposite signatures in both bases.
            assert record.qber_pass == (substitute == record.bob_state)
        elif record.mode is Mode.MESSAGE:
            assert record.eve_log.guessed_bob_bit == STATE_BIT[record.bob_state]
            assert record.eve_log.guessed_alice_bit == BASIS_BIT[record.alice_basis]
            if substitute == record.bob_state:
                # No disturbance either: both honest decodes still work.
                assert record.alice_decoded_state == record.bob_state
                assert record.bob_decoded_basis == record.alice_basis


def test_qmm_detection_rate_half():
    config = _config(
        pairs=20_000, check_kind=CheckKind.QBER, attack=AttackKind.QMM_SUBSTITUTE, seed=21
    )
    stats = estimate_qber(run_session(config))
    assert abs(stats.d_hat - 0.5) < 0.02


def test_qmm_substitute_kills_chsh_correlations():
    config = _config(
        pairs=30_000, check_kind=CheckKind.CHSH, attack=AttackKind.QMM_SUBSTITUTE, seed=34
    )
    estimate = estimate_chsh(run_session(config), config.settings)
    for bin_ in estimate.per_state.values():
        assert abs(bin_.s_hat) <= 4 * bin_.stderr


@pytest.mark.parametrize("kind", [AttackKind.QMM_SUBSTITUTE, AttackKind.QMM_SWAP])
def test_substitutes_follow_the_protocol(kind):
    # Eve draws her pair uniformly from the states the session's protocol
    # encodes with: all four Bell states in the four-state variant, only
    # psi+/phi- in the base protocol.
    pairs = 4000
    sigma = math.sqrt(pairs * 0.25 * 0.75)
    four_state = _config(
        pairs=pairs, control_probability=0.2, protocol=ProtocolKind.MODIFIED, attack=kind, seed=3
    )
    drawn = Counter(r.eve_log.substitute for r in run_session(four_state))
    assert set(drawn) == set(BellStateId)
    assert all(abs(n - pairs / 4) < 5 * sigma for n in drawn.values())

    base = _config(pairs=pairs, attack=kind, seed=3)
    drawn = Counter(r.eve_log.substitute for r in run_session(base))
    assert set(drawn) == {BellStateId.PSI_PLUS, BellStateId.PHI_MINUS}
    assert abs(drawn[BellStateId.PSI_PLUS] - pairs / 2) < 5 * math.sqrt(pairs * 0.25)


# ---------------------------------------------------------------------------
# QMM entanglement swap


def _embed_single(op: np.ndarray, position: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * 4
    mats[position] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _embed_bell_projector(state_id: BellStateId) -> np.ndarray:
    # |B><B| on qubits (0, 3), identity on (1, 2).
    b = vector(bell_state(state_id)).reshape(2, 2)
    eye = np.eye(2, dtype=complex)
    full = np.einsum("ad,eh,bf,cg->abcdefgh", b, b.conj(), eye, eye)
    return full.reshape(16, 16)


def _planar_projector(angle: float, outcome: int) -> np.ndarray:
    from duplexqkd.quantum import PlanarObservable

    plus, minus = eigenvectors(PlanarObservable(angle))
    v = plus if outcome == +1 else minus
    return np.outer(v, v.conj()).astype(complex)


def test_swap_commutes_with_alice_measurement():
    # Eve's swap acts on qubits (0, 3), Alice's measurement on qubit 2 and
    # Bob's on qubit 1: disjoint supports, so both execution orders give the
    # same joint outcome distribution.
    a_angle, b_angle = 0.7, 2.1
    for bob_state in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS):
        for eve_state in (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS):
            # Qubit layout: (bob0, bob1, eve0, eve1); Alice holds eve0.
            psi = vector(tensor(bell_state(bob_state), bell_state(eve_state)))
            total_a = total_b = 0.0
            for alice_out in (+1, -1):
                p_alice = _embed_single(_planar_projector(a_angle, alice_out), 2)
                for swap_out in BellStateId:
                    p_swap = _embed_bell_projector(swap_out)
                    for bob_out in (+1, -1):
                        p_bob = _embed_single(_planar_projector(b_angle, bob_out), 1)
                        v_a = p_bob @ p_swap @ p_alice @ psi  # Alice first
                        v_b = p_bob @ p_alice @ p_swap @ psi  # swap first
                        pa, pb = np.vdot(v_a, v_a).real, np.vdot(v_b, v_b).real
                        assert pa == pytest.approx(pb, abs=1e-12)
                        total_a += pa
                        total_b += pb
            assert total_a == pytest.approx(1.0, abs=1e-12)
            assert total_b == pytest.approx(1.0, abs=1e-12)


def test_swap_outcomes_uniform():
    config = _config(
        pairs=20_000, check_kind=CheckKind.CHSH, attack=AttackKind.QMM_SWAP, seed=55
    )
    records = [r for r in run_session(config) if r.mode is Mode.CONTROL_CHSH]
    outcomes = Counter(r.eve_log.bell_outcome for r in records)
    assert set(outcomes) == set(BellStateId)
    for count in outcomes.values():
        assert abs(count / len(records) - 0.25) < 0.02


def test_swap_zeroes_chsh():
    config = _config(
        pairs=30_000, check_kind=CheckKind.CHSH, attack=AttackKind.QMM_SWAP, seed=68
    )
    estimate = estimate_chsh(run_session(config), config.settings)
    assert estimate.per_state
    for bin_ in estimate.per_state.values():
        assert abs(bin_.s_hat) <= 4 * bin_.stderr


def test_swap_degrades_to_substitute_for_qber_checks():
    config = _config(
        pairs=20_000, check_kind=CheckKind.QBER, attack=AttackKind.QMM_SWAP, seed=91
    )
    stats = estimate_qber(run_session(config))
    assert abs(stats.d_hat - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Channel causality and determinism


@pytest.mark.parametrize(
    "kind", [AttackKind.INTERCEPT_RESEND, AttackKind.QMM_SUBSTITUTE, AttackKind.QMM_SWAP]
)
def test_observation_log_causality(kind):
    # A wiretap around the attack hears every path of the round: the session
    # replays each of its leaves once, in ``leaves`` order.
    config = _config(pairs=600, control_probability=0.5, check_kind=CheckKind.CHSH, attack=kind, seed=101)
    tap = Wiretap(build_adversary(kind))
    session = run_session(config, tap)
    assert len(tap.rounds) == len(session.leaves)
    for record, observations in zip(session.leaves, tap.rounds):
        assert record.eve_log is not None
        # Eve sees the first qubit before anything else; the control flag
        # only arrives with the measured-first announcement, after Alice's
        # measurement.
        assert observations[0] == ("qubit", 1)
        for tag, payload in observations:
            assert tag in ("qubit", "announcement")
            if tag == "qubit":
                assert payload in (1, 2)
        measured_first_positions = [
            i for i, (tag, payload) in enumerate(observations)
            if tag == "announcement" and isinstance(payload, MeasuredFirst)
        ]
        assert measured_first_positions and measured_first_positions[0] >= 1
        # Any second-leg qubit comes after the measured-first announcement.
        for i, (tag, payload) in enumerate(observations):
            if tag == "qubit" and payload == 2:
                assert i > measured_first_positions[0]


@pytest.mark.parametrize(
    "kind", [AttackKind.INTERCEPT_RESEND, AttackKind.QMM_SUBSTITUTE, AttackKind.QMM_SWAP]
)
def test_attacked_sessions_are_deterministic(kind):
    config = _config(pairs=400, check_kind=CheckKind.CHSH, attack=kind, seed=7)
    assert list(run_session(config)) == list(run_session(config))
