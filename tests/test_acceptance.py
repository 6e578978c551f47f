"""Acceptance suite: one test per headline claim, each printing a pass/fail
line with the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run fixed seeds.  Each tolerance is stated from the
check's own sample size: a correct program fails any one of them with
probability below 1e-3 (most sit 4 or more standard errors out).
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from conftest import random_density, random_product_state, random_pure_state
from duplexqkd.analysis import (
    build_report,
    efficiency_table,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
)
from duplexqkd.config import (
    AttackKind,
    CheckKind,
    DEFAULT_SETTINGS,
    ProtocolKind,
    SimulationConfig,
)
from duplexqkd import protocol
from duplexqkd.fourstate import pauli_transition
from duplexqkd.protocol import Mode, correlation_signature, run_pair, run_session
from duplexqkd.quantum import (
    Basis,
    BellStateId,
    ChshSettings,
    PauliOp,
    bell_measure,
    bell_state,
    measure_qubit,
    tensor,
)
from oracle import TwoQubitDensity, apply_pauli, chsh_value, identify_bell, ket, pauli_matrix
from test_analysis import _evasion_dp

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
# Statistical bounds sit Z_BOUND standard errors from the expected value, so
# a correct program fails one such check with probability about 6e-5.
Z_BOUND = 4.0


def _criterion(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} {status} - {description} ({detail})")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def _counted_session(monkeypatch, pairs: int, **fields):
    """A session of ``pairs`` pairs and its records, with the number of
    rounds it ran through ``protocol.run_pair``.  A session runs each leaf
    of its round tree once, so its round count is its size in leaves
    whatever the pair count: a bound on the work that host speed cannot
    break."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return run_pair(*args, **kwargs)

    monkeypatch.setattr(protocol, "run_pair", counted)
    session = run_session(SimulationConfig(pairs=pairs, **fields))
    records = list(session)
    return session, records, len(calls)


def test_criterion_01_deterministic_decoding(monkeypatch):
    fields = dict(control_probability=0.0, seed=42)
    config = SimulationConfig(pairs=10_000, **fields)
    started = time.perf_counter()
    session, records, rounds_run = _counted_session(monkeypatch, 10_000, **fields)
    elapsed = time.perf_counter() - started
    small_rounds_run = _counted_session(monkeypatch, 10, **fields)[2]
    report = build_report(records, config)
    ok = (
        report.decode_accuracy_alice == 1.0
        and report.decode_accuracy_bob == 1.0
        and report.message_rounds == 10_000
        and rounds_run == len(session.leaves) == small_rounds_run
    )
    _criterion(
        1,
        "clean channel decodes without ambiguity in both directions",
        ok,
        f"alice={report.decode_accuracy_alice} bob={report.decode_accuracy_bob} "
        f"rounds={report.message_rounds} rounds_run={rounds_run} (10 pairs: {small_rounds_run}) "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_02_characteristic_signatures():
    rng = np.random.default_rng(2024)
    trials = 10_000
    violations = 0
    for state_id in BellStateId:
        for basis in Basis:
            expected = correlation_signature(state_id, basis)
            obs = basis.observable
            for _ in range(trials):
                o1, collapsed = measure_qubit(bell_state(state_id), 0, obs, rng.random())
                o2, _ = measure_qubit(collapsed, 1, obs, rng.random())
                if o1 * o2 != expected:
                    violations += 1
    _criterion(
        2,
        "same-basis outcome products match the deterministic signatures",
        violations == 0,
        f"violations={violations} over {trials} trials x 8 (state, basis) combinations",
    )


def test_criterion_03_clean_chsh(monkeypatch):
    rho_psi = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    rho_phi = TwoQubitDensity.from_pure(bell_state(BellStateId.PHI_MINUS))
    analytic_ok = (
        abs(chsh_value(rho_psi, DEFAULT_SETTINGS) - TWO_SQRT_TWO) <= 1e-9
        and abs(chsh_value(rho_phi, DEFAULT_SETTINGS) + TWO_SQRT_TWO) <= 1e-9
    )

    fields = dict(control_probability=0.99, check_kind=CheckKind.CHSH, seed=3)
    config = SimulationConfig(pairs=101_500, **fields)
    started = time.perf_counter()
    session, records, rounds_run = _counted_session(monkeypatch, 101_500, **fields)
    estimate = estimate_chsh(records, config.settings)
    elapsed = time.perf_counter() - started
    small_rounds_run = _counted_session(monkeypatch, 10, **fields)[2]
    control_rounds = sum(r.mode is Mode.CONTROL_CHSH for r in records)
    # |S_hat| within Z_BOUND standard errors of 2*sqrt(2) per state.
    deviations = {
        state.name.lower(): (abs(abs(bin_.s_hat) - TWO_SQRT_TWO), Z_BOUND * bin_.stderr)
        for state, bin_ in estimate.per_state.items()
    }
    ok = (
        analytic_ok
        and control_rounds >= 100_000
        and all(dev <= bound for dev, bound in deviations.values())
        and rounds_run == len(session.leaves) == small_rounds_run
    )
    detail = " ".join(
        f"{name}:dev={dev:.4f}<={bound:.4f}" for name, (dev, bound) in sorted(deviations.items())
    )
    _criterion(
        3,
        "clean channel shows the maximal CHSH violation",
        ok,
        f"analytic within 1e-9; {control_rounds} control rounds; {detail}; "
        f"rounds_run={rounds_run} (10 pairs: {small_rounds_run}); elapsed={elapsed:.2f}s",
    )


def test_criterion_04_intercept_resend_detection():
    qber_config = SimulationConfig(
        pairs=102_000,
        control_probability=0.99,
        check_kind=CheckKind.QBER,
        attack=AttackKind.INTERCEPT_RESEND,
        seed=2,
    )
    stats = estimate_qber(run_session(qber_config))

    chsh_config = SimulationConfig(
        pairs=101_500,
        control_probability=0.99,
        check_kind=CheckKind.CHSH,
        attack=AttackKind.INTERCEPT_RESEND,
        seed=2,
    )
    estimate = estimate_chsh(run_session(chsh_config), chsh_config.settings)
    s_values = {state.name.lower(): abs(bin_.s_hat) for state, bin_ in estimate.per_state.items()}
    ok = (
        stats.checks >= 100_000
        and 0.24 <= stats.d_hat <= 0.26
        and all(s <= 2.05 for s in s_values.values())
    )
    detail_s = " ".join(f"{name}:|S|={s:.3f}" for name, s in sorted(s_values.items()))
    _criterion(
        4,
        "intercept-resend shows d = 25% and no CHSH violation",
        ok,
        f"checks={stats.checks} d_hat={stats.d_hat:.4f}; {detail_s}",
    )


def test_criterion_05_substitution_detection():
    config = SimulationConfig(
        pairs=102_000,
        control_probability=0.99,
        check_kind=CheckKind.QBER,
        attack=AttackKind.QMM_SUBSTITUTE,
        seed=2,
    )
    stats = estimate_qber(run_session(config))
    ok = stats.checks >= 100_000 and 0.49 <= stats.d_hat <= 0.51
    _criterion(
        5,
        "pair substitution shows d = 50% on error checks",
        ok,
        f"checks={stats.checks} d_hat={stats.d_hat:.4f}",
    )


def test_criterion_06_entanglement_swap_attack():
    config = SimulationConfig(
        pairs=101_500,
        control_probability=0.99,
        check_kind=CheckKind.CHSH,
        attack=AttackKind.QMM_SWAP,
        seed=6,
    )
    records = list(run_session(config))
    estimate = estimate_chsh(records, config.settings)
    # |S_hat| within Z_BOUND standard errors of 0 per state.
    s_values = {
        state.name.lower(): (abs(bin_.s_hat), Z_BOUND * bin_.stderr)
        for state, bin_ in estimate.per_state.items()
    }

    control = [r for r in records if r.mode is Mode.CONTROL_CHSH]
    outcome_counts = Counter(r.eve_log.bell_outcome for r in control)
    frequency_dev = max(abs(c / len(control) - 0.25) for c in outcome_counts.values())
    ok = (
        len(control) >= 100_000
        and all(s <= bound for s, bound in s_values.values())
        and set(outcome_counts) == set(BellStateId)
        and frequency_dev <= 0.01
    )
    detail_s = " ".join(f"{name}:|S|={s:.4f}<={bound:.4f}" for name, (s, bound) in sorted(s_values.items()))
    _criterion(
        6,
        "uncorrected swap leaves a flat Bell mixture with S = 0",
        ok,
        f"{len(control)} control rounds; {detail_s}; swap-frequency dev={frequency_dev:.4f}",
    )


def _simulate_evasion(c: float, d: float, n: int, trials: int, rng) -> float:
    messages = np.zeros(trials, dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    done = np.zeros(trials, dtype=bool)
    while not done.all():
        live = ~done
        is_control = rng.random(trials) < c
        detected = is_control & (rng.random(trials) < d)
        failed |= live & detected
        messages += live & ~is_control
        done = failed | (messages >= n)
    return float(((messages >= n) & ~failed).mean())


def test_criterion_07_evasion_probability():
    worst = 0.0
    for c10 in range(10):
        for d10 in range(11):
            c, d = c10 / 10.0, d10 / 10.0
            for n in range(11):
                gap = abs(evasion_probability(c, d, n) - _evasion_dp(c, d, n))
                worst = max(worst, gap)
    closed = evasion_probability(0.5, 0.5, 5)
    simulated = _simulate_evasion(0.5, 0.5, 5, trials=100_000, rng=np.random.default_rng(7))
    ok = worst <= 1e-12 and abs(closed - simulated) <= 0.01
    _criterion(
        7,
        "closed-form evasion probability matches enumeration and simulation",
        ok,
        f"max enumeration gap={worst:.2e}; closed={closed:.4f} vs simulated={simulated:.4f}",
    )


def test_criterion_08_efficiency_table():
    table = efficiency_table()
    expected = {
        "base": Fraction(1, 2),
        "base_avg": Fraction(7, 24),
        "modified": Fraction(4, 5),
        "modified_avg": Fraction(8, 15),
    }
    ok = table == expected
    _criterion(
        8,
        "secret-bit efficiencies are the exact rationals",
        ok,
        " ".join(f"{k}={v}" for k, v in table.items()),
    )


def test_criterion_09_four_state_variant():
    config = SimulationConfig(
        pairs=10_000, control_probability=0.0, seed=42, protocol=ProtocolKind.MODIFIED
    )
    records = list(run_session(config))
    bell_decode_ok = sum(r.alice_bell_outcome == r.bob_state for r in records)
    pauli_decode_ok = sum(r.bob_decoded == r.alice_target for r in records)

    table_matches = 0
    for state in BellStateId:
        for op in PauliOp:
            moved = np.kron(pauli_matrix(op), np.eye(2)) @ bell_state(state).amplitudes
            oracle = next(
                c
                for c in BellStateId
                if abs(abs(np.vdot(bell_state(c).amplitudes, moved)) - 1.0) < 1e-12
            )
            if pauli_transition(state, op) == oracle:
                table_matches += 1
    ok = (
        bell_decode_ok == len(records) == 10_000
        and pauli_decode_ok == len(records)
        and table_matches == 16
    )
    _criterion(
        9,
        "four-state variant decodes with certainty and matches the Pauli table",
        ok,
        f"bell decode {bell_decode_ok}/10000, operation decode {pauli_decode_ok}/10000, "
        f"table {table_matches}/16",
    )


def test_criterion_10_property_suites():
    cases = 1000
    rng = np.random.default_rng(10)

    tsirelson_worst = 0.0
    for _ in range(cases):
        rho = random_density(rng)
        settings = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
        tsirelson_worst = max(tsirelson_worst, abs(chsh_value(rho, settings)))
    tsirelson_ok = tsirelson_worst <= TWO_SQRT_TWO + 1e-9

    separable_worst = 0.0
    for _ in range(cases):
        rho = TwoQubitDensity.from_pure(random_product_state(rng))
        settings = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
        separable_worst = max(separable_worst, abs(chsh_value(rho, settings)))
    separable_ok = separable_worst <= 2.0 + 1e-9

    group_ok = True
    for _ in range(cases):
        state = BellStateId(int(rng.integers(4)))
        op1 = PauliOp(int(rng.integers(4)))
        op2 = PauliOp(int(rng.integers(4)))
        # agreement with the statevector route, involution, and closure
        if identify_bell(apply_pauli(bell_state(state), 0, op1)) != pauli_transition(state, op1):
            group_ok = False
            break
        if pauli_transition(pauli_transition(state, op1), op1) != state:
            group_ok = False
            break
        # composing two operators XORs their masks (Klein four-group)
        composed = pauli_transition(pauli_transition(state, op1), op2)
        expected_bits = (
            pauli_transition(state, op1).bits ^ pauli_transition(state, op2).bits ^ state.bits
        )
        if composed.bits != expected_bits:
            group_ok = False
            break
    for state in BellStateId:
        if {pauli_transition(state, op) for op in PauliOp} != set(BellStateId):
            group_ok = False

    norm_worst = 0.0
    for _ in range(cases):
        state = random_pure_state(rng, int(rng.integers(2, 5)))
        for _ in range(2):
            _, state = measure_qubit(
                state,
                int(rng.integers(state.num_qubits)),
                Basis.X.observable if rng.random() < 0.5 else Basis.Z.observable,
                rng.random(),
            )
        if state.num_qubits >= 3 and rng.random() < 0.5:
            qa, qb = rng.choice(state.num_qubits, size=2, replace=False)
            _, residual = bell_measure(state, int(qa), int(qb), rng.random())
            state = residual
        norm_worst = max(norm_worst, abs(float(np.linalg.norm(state.amplitudes)) - 1.0))
    norm_ok = norm_worst <= 1e-12

    config = SimulationConfig(pairs=300, control_probability=0.5, check_kind=CheckKind.CHSH, seed=1)
    records = list(run_session(config))
    whole = build_report(records, config)
    merge_ok = True
    for _ in range(cases):
        labels = rng.integers(0, 3, size=len(records))
        a, b, c = (
            build_report([r for r, g in zip(records, labels) if g == k], config) for k in range(3)
        )
        if a.merge(b).merge(c) != a.merge(b.merge(c)) or b.merge(a).merge(c) != whole:
            merge_ok = False
            break

    ok = tsirelson_ok and separable_ok and group_ok and norm_ok and merge_ok
    _criterion(
        10,
        "randomized property suites hold (1000 cases each)",
        ok,
        f"max|S|={tsirelson_worst:.6f}<=2sqrt2, separable max|S|={separable_worst:.6f}<=2, "
        f"pauli group {'ok' if group_ok else 'FAIL'}, max norm drift={norm_worst:.2e}, "
        f"merge {'ok' if merge_ok else 'FAIL'}",
    )
