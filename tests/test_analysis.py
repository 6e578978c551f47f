"""Tests for estimators, closed forms, and counter-based reports."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexqkd.analysis import (
    ChshEstimate,
    DetectionStats,
    EfficiencyQuery,
    SETTING_PAIRS,
    build_report,
    cabello_efficiency,
    efficiency_table,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
)
from duplexqkd.config import AttackKind, CheckKind, DEFAULT_SETTINGS, ProtocolKind, SimulationConfig
from duplexqkd.protocol import Mode, PairRecord, run_session
from duplexqkd.quantum import Basis, BellStateId, ChshSettings, TwoQubitDensity, bell_state, correlator, PlanarObservable


# ---------------------------------------------------------------------------
# Synthetic CHSH records


def _chsh_record(index, state, i, j, product, settings=DEFAULT_SETTINGS) -> PairRecord:
    return PairRecord(
        pair_index=index,
        mode=Mode.CONTROL_CHSH,
        bob_state=state,
        alice_basis=None,
        alice_setting=i,
        alice_angle=settings.alice_angles[i],
        bob_setting=j,
        bob_angle=settings.bob_angles[j],
        outcomes=(1, product),
        announcements=(),
        correlated=None,
        bob_decoded_basis=None,
        alice_decoded_state=None,
        qber_pass=None,
        eve_log=None,
    )


def _analytic_s(state: BellStateId, settings=DEFAULT_SETTINGS) -> float:
    rho = TwoQubitDensity.from_pure(bell_state(state))
    e = {}
    for (i, j) in SETTING_PAIRS:
        e[(i, j)] = correlator(
            rho, PlanarObservable(settings.alice_angles[i]), PlanarObservable(settings.bob_angles[j])
        )
    return e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]


def _sample_records(rng, state, per_pair) -> list:
    """Records whose products are drawn straight from the analytic correlators."""
    rho = TwoQubitDensity.from_pure(bell_state(state))
    records = []
    index = 0
    for (i, j) in SETTING_PAIRS:
        e = correlator(
            rho,
            PlanarObservable(DEFAULT_SETTINGS.alice_angles[i]),
            PlanarObservable(DEFAULT_SETTINGS.bob_angles[j]),
        )
        p_plus = (1.0 + e) / 2.0
        for product in np.where(rng.random(per_pair) < p_plus, 1, -1):
            records.append(_chsh_record(index, state, i, j, int(product)))
            index += 1
    return records


def test_estimate_chsh_coverage_over_seeds():
    # Sampling products from the analytic correlators, the estimate lands
    # within 4 standard errors of the true S in at least 99% of seeds.
    s_true = _analytic_s(BellStateId.PSI_PLUS)
    hits = 0
    seeds = 100
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        records = _sample_records(rng, BellStateId.PSI_PLUS, per_pair=500)
        bin_ = estimate_chsh(records, DEFAULT_SETTINGS).per_state[BellStateId.PSI_PLUS]
        if abs(bin_.s_hat - s_true) <= 4 * bin_.stderr:
            hits += 1
    assert hits >= 99


def test_estimate_chsh_marks_missing_pairs_unavailable():
    records = [
        _chsh_record(i, BellStateId.PSI_PLUS, i % 2, 0, 1)  # never uses bob setting 1
        for i in range(40)
    ]
    bin_ = estimate_chsh(records, DEFAULT_SETTINGS).per_state[BellStateId.PSI_PLUS]
    assert bin_.s_hat is None
    assert bin_.stderr is None
    assert bin_.counts[(0, 1)] == 0 and bin_.counts[(0, 0)] == 20


def test_estimate_chsh_rejects_foreign_settings():
    records = [_chsh_record(0, BellStateId.PSI_PLUS, 0, 0, 1)]
    from duplexqkd.quantum import ChshSettings

    other = ChshSettings((0.1, 0.2), (0.3, 0.4))
    with pytest.raises(ValueError):
        estimate_chsh(records, other)


def test_estimate_chsh_reads_one_shot_iterators():
    config = SimulationConfig(pairs=2000, control_probability=0.5, check_kind=CheckKind.CHSH, seed=6)
    records = list(run_session(config))
    whole = estimate_chsh(records, config.settings)
    assert set(whole.per_state) == {BellStateId.PSI_PLUS, BellStateId.PHI_MINUS}
    assert estimate_chsh(iter(records), config.settings) == whole
    assert estimate_chsh(run_session(config), config.settings) == whole
    with pytest.raises(ValueError):
        estimate_chsh(run_session(config), ChshSettings((0.1, 0.2), (0.3, 0.4)))


def test_estimate_chsh_counts_sum_to_binned_rounds():
    rng = np.random.default_rng(5)
    records = _sample_records(rng, BellStateId.PHI_MINUS, per_pair=50)
    bin_ = estimate_chsh(records, DEFAULT_SETTINGS).per_state[BellStateId.PHI_MINUS]
    assert sum(bin_.counts.values()) == len(records)
    for e in bin_.correlators.values():
        assert -1.0 <= e <= 1.0


# ---------------------------------------------------------------------------
# Detection statistics


def _qber_record(index, state, basis, correlated) -> PairRecord:
    return PairRecord(
        pair_index=index,
        mode=Mode.CONTROL_QBER,
        bob_state=state,
        alice_basis=basis,
        alice_setting=None,
        alice_angle=None,
        bob_setting=None,
        bob_angle=None,
        outcomes=(1, 1 if correlated else -1),
        announcements=(),
        correlated=correlated,
        bob_decoded_basis=None,
        alice_decoded_state=None,
        qber_pass=None,
        eve_log=None,
    )


def test_estimate_qber_counts_contradictions():
    # psi+ in X is correlated; announcing anti-correlation is an error.
    records = [
        _qber_record(0, BellStateId.PSI_PLUS, Basis.X, True),
        _qber_record(1, BellStateId.PSI_PLUS, Basis.X, False),
        _qber_record(2, BellStateId.PHI_MINUS, Basis.Z, True),
        _qber_record(3, BellStateId.PSI_PLUS, Basis.Z, True),
    ]
    stats = estimate_qber(records)
    assert stats.checks == 4
    assert stats.errors == 2
    assert stats.d_hat == 0.5
    # Four-state control rounds are error checks too, counted by the same
    # tally the report uses.
    config = SimulationConfig(
        pairs=3000,
        control_probability=0.5,
        attack=AttackKind.INTERCEPT_RESEND,
        seed=4,
        protocol=ProtocolKind.MODIFIED,
    )
    records = list(run_session(config))
    stats = estimate_qber(records)
    assert stats.checks > 0
    assert stats == build_report(records, config).detection


def test_estimate_qber_empty_is_undefined():
    stats = estimate_qber([])
    assert stats.checks == 0
    assert stats.d_hat is None


def test_null_session_has_zero_qber():
    config = SimulationConfig(pairs=500, control_probability=0.4, check_kind=CheckKind.QBER, seed=2)
    assert estimate_qber(run_session(config)).d_hat == 0.0


# ---------------------------------------------------------------------------
# Evasion probability


def _evasion_dp(c: float, d: float, n: int, max_rounds: int = 20_000) -> float:
    """Finite-horizon enumeration of the detection process.

    State j counts banked message rounds; each round is a message with
    probability 1-c, a survived check with probability c(1-d), or a
    detection (absorbing failure).  Success absorbs at j = n.
    """
    if n == 0:
        return 1.0
    f = np.zeros(n)
    f[0] = 1.0
    won = 0.0
    for _ in range(max_rounds):
        advanced = f * (1.0 - c)
        won += advanced[-1]
        f = f * (c * (1.0 - d))
        f[1:] += advanced[:-1]
        if f.sum() < 1e-16:
            break
    return float(won)


def test_evasion_matches_dp_enumeration_on_grid():
    for c10 in range(0, 10):
        for d10 in range(0, 11):
            c, d = c10 / 10.0, d10 / 10.0
            for n in range(0, 11):
                closed = evasion_probability(c, d, n)
                assert closed == pytest.approx(_evasion_dp(c, d, n), abs=1e-12)


def test_evasion_edge_cases():
    for d in (0.0, 0.3, 1.0):
        for n in (0, 1, 7):
            assert evasion_probability(0.0, d, n) == 1.0
    for c in (0.0, 0.4, 0.9):
        for d in (0.0, 0.5, 1.0):
            assert evasion_probability(c, d, 0) == 1.0
    assert evasion_probability(0.5, 0.5, 1) == pytest.approx(2 / 3, abs=1e-15)


@given(
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=40),
)
def test_evasion_monotone_nonincreasing(c, d, n):
    p = evasion_probability(c, d, n)
    assert 0.0 <= p <= 1.0
    assert evasion_probability(min(c + 0.02, 0.99), d, n) <= p + 1e-12
    assert evasion_probability(c, min(d + 0.05, 1.0), n) <= p + 1e-12
    assert evasion_probability(c, d, n + 1) <= p + 1e-12


def test_evasion_validates_arguments():
    with pytest.raises(ValueError):
        evasion_probability(1.0, 0.5, 3)
    with pytest.raises(ValueError):
        evasion_probability(0.5, 1.5, 3)
    with pytest.raises(ValueError):
        evasion_probability(0.5, 0.5, -1)


# ---------------------------------------------------------------------------
# Efficiency


def test_cabello_efficiency_exact_values():
    assert cabello_efficiency(EfficiencyQuery(2, 2, 2)) == Fraction(1, 2)
    assert cabello_efficiency(EfficiencyQuery(4, 2, 3)) == Fraction(4, 5)
    base_avg = (
        cabello_efficiency(EfficiencyQuery(1, 2, 1)) + cabello_efficiency(EfficiencyQuery(1, 2, 2))
    ) / 2
    assert base_avg == Fraction(7, 24)


def test_efficiency_table():
    table = efficiency_table()
    assert table == {
        "base": Fraction(1, 2),
        "base_avg": Fraction(7, 24),
        "modified": Fraction(4, 5),
        "modified_avg": Fraction(8, 15),
    }
    assert all(isinstance(v, Fraction) for v in table.values())


def test_efficiency_query_validation():
    with pytest.raises(ValueError):
        EfficiencyQuery(-1, 2, 2)
    with pytest.raises(ValueError):
        EfficiencyQuery(1, 0, 0)


# ---------------------------------------------------------------------------
# Reports


def _session(pairs=900, seed=4, control=0.3, check=CheckKind.QBER):
    config = SimulationConfig(pairs=pairs, control_probability=control, check_kind=check, seed=seed)
    return list(run_session(config)), config


def test_empty_report_has_zero_counters():
    config = SimulationConfig(pairs=10, seed=0)
    report = build_report([], config)
    assert report.pairs == 0
    assert report.control_fraction is None
    assert report.decode_accuracy_alice is None
    assert report.decode_accuracy_bob is None
    assert report.detection.d_hat is None
    assert report.chsh_estimate() == ChshEstimate(per_state={})


def test_clean_session_report():
    records, config = _session()
    report = build_report(records, config)
    assert report.decode_accuracy_alice == 1.0
    assert report.decode_accuracy_bob == 1.0
    assert report.detection == DetectionStats(checks=report.qber_checks, errors=0)


def test_report_merge_equals_whole():
    records, config = _session(pairs=600, check=CheckKind.CHSH, control=0.5)
    whole = build_report(records, config)
    left = build_report(records[:200], config)
    right = build_report(records[200:], config)
    assert left.merge(right) == whole


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_report_merge_associative_commutative(seed):
    records, config = _session(pairs=120, seed=seed % 1000, check=CheckKind.CHSH, control=0.5)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=len(records))
    parts = [[r for r, g in zip(records, labels) if g == k] for k in range(3)]
    a, b, c = (build_report(part, config) for part in parts)
    merged_left = a.merge(b).merge(c)
    merged_right = a.merge(b.merge(c))
    assert merged_left == merged_right
    assert b.merge(a).merge(c) == merged_left
    assert merged_left == build_report(records, config)


def test_report_merge_rejects_different_sessions():
    records_a, config_a = _session(seed=1, pairs=50)
    records_b, config_b = _session(seed=2, pairs=50)
    with pytest.raises(ValueError):
        build_report(records_a, config_a).merge(build_report(records_b, config_b))


def test_report_schema_fields_and_json_round_trip():
    records, config = _session(pairs=400, check=CheckKind.CHSH, control=0.5)
    payload = build_report(records, config).to_dict()
    assert list(payload) == [
        "config_echo",
        "pairs",
        "control_fraction",
        "decode_accuracy_alice",
        "decode_accuracy_bob",
        "eve_guess_accuracy",
        "d_hat",
        "chsh",
        "efficiency",
        "seed",
    ]
    assert payload["efficiency"] == {
        "base": "1/2",
        "base_avg": "7/24",
        "modified": "4/5",
        "modified_avg": "8/15",
    }
    assert json.loads(json.dumps(payload)) == payload
    for name, bin_ in payload["chsh"]["per_state"].items():
        assert set(bin_) == {"s_hat", "stderr", "counts"}
        assert set(bin_["counts"]) == {"11", "12", "21", "22"}
