"""Estimators and closed-form figures: CHSH estimation with uncertainty,
detection-rate statistics, the evasion probability, and secret-bit
efficiencies.  Reports are counter-based so that merging over disjoint
record sets is exact, associative, and commutative."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .config import SimulationConfig
from .fourstate import ModifiedMode, modified_efficiency
from .protocol import BASIS_BIT, Mode, PairRecord, STATE_BIT, Session, correlation_signature
from .quantum import BellStateId, ChshSettings

__all__ = [
    "ChshBinEstimate",
    "ChshEstimate",
    "DetectionStats",
    "EfficiencyQuery",
    "SimulationReport",
    "build_report",
    "cabello_efficiency",
    "efficiency_table",
    "estimate_chsh",
    "estimate_qber",
    "evasion_probability",
]

#: The four CHSH setting pairs (alice setting index, bob setting index).
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Sign of each pair in S = E(1,1) - E(1,2) + E(2,1) + E(2,2).
_PAIR_SIGNS = {(0, 0): +1.0, (0, 1): -1.0, (1, 0): +1.0, (1, 1): +1.0}


@dataclass(frozen=True)
class ChshBinEstimate:
    """Empirical CHSH estimate for one state bin.

    ``s_hat``/``stderr`` are None when some setting pair has no samples
    (unavailable rather than fabricated).  ``counts`` and ``correlators``
    are keyed by (alice setting, bob setting) index pairs.
    """

    s_hat: float | None
    stderr: float | None
    counts: dict[tuple[int, int], int]
    correlators: dict[tuple[int, int], float]


@dataclass(frozen=True)
class ChshEstimate:
    per_state: dict[BellStateId, ChshBinEstimate]


@dataclass(frozen=True)
class DetectionStats:
    """Control-check tally; the rate is undefined (None) with zero checks."""

    checks: int
    errors: int

    @property
    def d_hat(self) -> float | None:
        if self.checks == 0:
            return None
        return self.errors / self.checks


def _chsh_bin_from_counts(
    counts: dict[tuple[int, int], int], products: dict[tuple[int, int], int]
) -> ChshBinEstimate:
    correlators: dict[tuple[int, int], float] = {}
    for pair in SETTING_PAIRS:
        n = counts.get(pair, 0)
        if n > 0:
            correlators[pair] = products[pair] / n
    if len(correlators) < len(SETTING_PAIRS):
        return ChshBinEstimate(None, None, dict(counts), correlators)
    s_hat = sum(_PAIR_SIGNS[p] * correlators[p] for p in SETTING_PAIRS)
    # Independent samples per setting pair: root-sum-square of the four
    # correlator standard errors, with Var(+-1 product) = 1 - E^2.
    variance = sum(
        (1.0 - correlators[p] ** 2) / counts[p] for p in SETTING_PAIRS
    )
    return ChshBinEstimate(s_hat, math.sqrt(max(variance, 0.0)), dict(counts), correlators)


def _check_settings(record, settings: ChshSettings) -> None:
    """Raise ValueError if ``record`` is a CHSH round whose recorded angles
    are not ``settings``."""
    if record.mode is Mode.CONTROL_CHSH:
        i, j = record.alice_setting, record.bob_setting
        if record.alice_angle != settings.alice_angles[i] or record.bob_angle != settings.bob_angles[j]:
            raise ValueError(f"pair {record.pair_index} was measured with different settings")


def _with_settings_checked(records: Iterable, settings: ChshSettings) -> Iterator:
    """Pass ``records`` through, checking each with :func:`_check_settings`."""
    for record in records:
        _check_settings(record, settings)
        yield record


def estimate_chsh(records: Iterable, settings: ChshSettings) -> ChshEstimate:
    """Per-state CHSH estimates from the CHSH control rounds in ``records``.

    ``settings`` must be the tuple the session actually used; recorded
    angles are checked against it in the same single pass that tallies
    them, so ``records`` may be a one-shot iterator.  A session is tallied
    per leaf of its round trie, and its leaves are checked.
    """
    report = SimulationReport(config_echo={}, seed=0)
    if not isinstance(records, Session):
        return _tally(report, _with_settings_checked(records, settings)).chsh_estimate()
    report = _tally(report, records)
    for leaf in records.leaves:
        _check_settings(leaf, settings)
    return report.chsh_estimate()


def estimate_qber(records: Iterable) -> DetectionStats:
    """Detection statistics from the error-check control rounds of either
    protocol: a check fails when the disclosed outcomes contradict the sent
    state's signature."""
    return _tally(SimulationReport(config_echo={}, seed=0), records).detection


def evasion_probability(control_probability: float, detection_rate: float, n: int) -> float:
    """Probability that an attacker extracts ``n`` message rounds without
    tripping a control check: (1-C)^n / (1 - C(1-d))^n.

    Non-increasing in each argument; equals 1 when C = 0 or n = 0.
    """
    c, d = float(control_probability), float(detection_rate)
    if not (0.0 <= c < 1.0):
        raise ValueError(f"control probability must lie in [0, 1), got {c}")
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"detection rate must lie in [0, 1], got {d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (1.0 - c) ** n / (1.0 - c * (1.0 - d)) ** n


@dataclass(frozen=True)
class EfficiencyQuery:
    """Secret-bit accounting for one accounting unit of a protocol."""

    secret_bits: int
    qubits_transmitted: int
    classical_bits: int

    def __post_init__(self) -> None:
        if min(self.secret_bits, self.qubits_transmitted, self.classical_bits) < 0:
            raise ValueError("efficiency accounting needs non-negative counts")
        if self.qubits_transmitted + self.classical_bits == 0:
            raise ValueError("efficiency denominator is zero")


def cabello_efficiency(query: EfficiencyQuery) -> Fraction:
    """Exact secret bits per transmitted qubit plus classical bit."""
    return Fraction(query.secret_bits, query.qubits_transmitted + query.classical_bits)


def efficiency_table() -> dict[str, Fraction]:
    """Closed-form efficiency figures for both protocols.

    Base protocol, full duplex: both bits ride one pair (2 qubits, 2
    announcement bits).  Separate runs average Bob's direction (1 secret bit
    against the measured-first bit) with Alice's (1 secret bit against both
    announcement bits).  Four-state figures come from the variant module's
    accounting.
    """
    base = cabello_efficiency(EfficiencyQuery(2, 2, 2))
    base_avg = (
        cabello_efficiency(EfficiencyQuery(1, 2, 1)) + cabello_efficiency(EfficiencyQuery(1, 2, 2))
    ) / 2
    mod = modified_efficiency()
    return {
        "base": base,
        "base_avg": base_avg,
        "modified": mod.per_run,
        "modified_avg": mod.average,
    }


@dataclass
class SimulationReport:
    """Counter-level aggregation of a session (or any subset of its
    records).  Derived ratios are computed on demand; merging adds counters
    and is associative and commutative."""

    config_echo: dict
    seed: int
    pairs: int = 0
    control_rounds: int = 0
    message_rounds: int = 0
    alice_decode_ok: int = 0
    alice_decode_total: int = 0
    bob_decode_ok: int = 0
    bob_decode_total: int = 0
    eve_alice_guesses: int = 0
    eve_alice_correct: int = 0
    eve_bob_guesses: int = 0
    eve_bob_correct: int = 0
    qber_checks: int = 0
    qber_errors: int = 0
    chsh_counts: dict = field(default_factory=dict)
    chsh_products: dict = field(default_factory=dict)

    # -- derived quantities -------------------------------------------------

    @property
    def control_fraction(self) -> float | None:
        return self.control_rounds / self.pairs if self.pairs else None

    @property
    def decode_accuracy_alice(self) -> float | None:
        return self.alice_decode_ok / self.alice_decode_total if self.alice_decode_total else None

    @property
    def decode_accuracy_bob(self) -> float | None:
        return self.bob_decode_ok / self.bob_decode_total if self.bob_decode_total else None

    @property
    def eve_alice_accuracy(self) -> float | None:
        return self.eve_alice_correct / self.eve_alice_guesses if self.eve_alice_guesses else None

    @property
    def eve_bob_accuracy(self) -> float | None:
        return self.eve_bob_correct / self.eve_bob_guesses if self.eve_bob_guesses else None

    @property
    def detection(self) -> DetectionStats:
        return DetectionStats(checks=self.qber_checks, errors=self.qber_errors)

    def chsh_estimate(self) -> ChshEstimate:
        per_state: dict[BellStateId, ChshBinEstimate] = {}
        states = {state for (state, _, _) in self.chsh_counts}
        for state in sorted(states, key=lambda s: s.bits):
            counts = {
                (i, j): self.chsh_counts.get((state, i, j), 0) for (i, j) in SETTING_PAIRS
            }
            products = {
                (i, j): self.chsh_products.get((state, i, j), 0) for (i, j) in SETTING_PAIRS
            }
            per_state[state] = _chsh_bin_from_counts(counts, products)
        return ChshEstimate(per_state=per_state)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        """Combine reports over disjoint record sets of the same session."""
        if self.config_echo != other.config_echo or self.seed != other.seed:
            raise ValueError("reports from different sessions cannot be merged")
        merged = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name in ("config_echo", "seed"):
                merged[f.name] = mine
            elif isinstance(mine, dict):
                merged[f.name] = _add_counts(mine, theirs)
            else:
                merged[f.name] = mine + theirs
        return SimulationReport(**merged)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Stable report schema (the CLI's JSON object)."""
        estimate = self.chsh_estimate()
        per_state = {}
        for state, bin_ in estimate.per_state.items():
            per_state[state.name.lower()] = {
                "s_hat": bin_.s_hat,
                "stderr": bin_.stderr,
                "counts": {f"{i + 1}{j + 1}": bin_.counts[(i, j)] for (i, j) in SETTING_PAIRS},
            }
        return {
            "config_echo": self.config_echo,
            "pairs": self.pairs,
            "control_fraction": self.control_fraction,
            "decode_accuracy_alice": self.decode_accuracy_alice,
            "decode_accuracy_bob": self.decode_accuracy_bob,
            "eve_guess_accuracy": {
                "alice_bit": self.eve_alice_accuracy,
                "bob_bit": self.eve_bob_accuracy,
            },
            "d_hat": self.detection.d_hat,
            "chsh": {"per_state": per_state},
            "efficiency": {name: str(value) for name, value in efficiency_table().items()},
            "seed": self.seed,
        }


def _add_counts(a: dict, b: dict) -> dict:
    """Key-wise sum of two counter dicts."""
    total = dict(a)
    for key, value in b.items():
        total[key] = total.get(key, 0) + value
    return total


def _tally_base_record(report: SimulationReport, record: PairRecord) -> None:
    report.pairs += 1
    if record.mode is Mode.MESSAGE:
        report.message_rounds += 1
        report.alice_decode_total += 1
        report.bob_decode_total += 1
        if record.alice_decoded_state == record.bob_state:
            report.alice_decode_ok += 1
        if record.bob_decoded_basis == record.alice_basis:
            report.bob_decode_ok += 1
        log = record.eve_log
        if log is not None:
            if log.guessed_alice_bit is not None:
                report.eve_alice_guesses += 1
                if log.guessed_alice_bit == BASIS_BIT[record.alice_basis]:
                    report.eve_alice_correct += 1
            if log.guessed_bob_bit is not None:
                report.eve_bob_guesses += 1
                if log.guessed_bob_bit == STATE_BIT[record.bob_state]:
                    report.eve_bob_correct += 1
    elif record.mode is Mode.CONTROL_QBER:
        report.control_rounds += 1
        report.qber_checks += 1
        expected = correlation_signature(record.bob_state, record.alice_basis) == +1
        if record.correlated != expected:
            report.qber_errors += 1
    else:  # CONTROL_CHSH
        report.control_rounds += 1
        key = (record.bob_state, record.alice_setting, record.bob_setting)
        report.chsh_counts[key] = report.chsh_counts.get(key, 0) + 1
        product = record.outcomes[0] * record.outcomes[1]
        report.chsh_products[key] = report.chsh_products.get(key, 0) + product


def _tally_modified_record(report: SimulationReport, record) -> None:
    report.pairs += 1
    if record.mode is ModifiedMode.MESSAGE:
        report.message_rounds += 1
        report.alice_decode_total += 1
        report.bob_decode_total += 1
        if record.alice_bell_outcome == record.bob_state:
            report.alice_decode_ok += 1
        if record.bob_decoded == record.alice_target:
            report.bob_decode_ok += 1
        log = record.eve_log
        if log is not None:
            if log.guessed_alice_bit is not None:
                report.eve_alice_guesses += 1
                if log.guessed_alice_bit == record.alice_target.bits:
                    report.eve_alice_correct += 1
            if log.guessed_bob_bit is not None:
                report.eve_bob_guesses += 1
                if log.guessed_bob_bit == record.bob_state.bits:
                    report.eve_bob_correct += 1
    else:
        report.control_rounds += 1
        report.qber_checks += 1
        if not record.control_pass:
            report.qber_errors += 1


def _scaled(report: SimulationReport, n: int) -> SimulationReport:
    """``report`` with every counter multiplied by ``n``."""
    scaled = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name in ("config_echo", "seed"):
            scaled[f.name] = value
        elif isinstance(value, dict):
            scaled[f.name] = {key: count * n for key, count in value.items()}
        else:
            scaled[f.name] = value * n
    return SimulationReport(**scaled)


def _tally(report: SimulationReport, records: Iterable) -> SimulationReport:
    """The one counting path: every estimator reads these counters.  Each
    record is tallied by its own protocol's rules.  A session is tallied
    per leaf of its round trie: each leaf's record is tallied once, and its
    counters count as many times as pairs reached the leaf."""
    if isinstance(records, Session):
        reached = np.zeros(0, dtype=np.int64)
        for ids in records.leaf_ids():
            counts = np.bincount(ids, minlength=len(reached))
            counts[: len(reached)] += reached
            reached = counts
        for record, n in zip(records.leaves, reached.tolist()):
            leaf = _tally(SimulationReport(config_echo=report.config_echo, seed=report.seed), (record,))
            report = report.merge(_scaled(leaf, n))
        return report
    for record in records:
        if isinstance(record, PairRecord):
            _tally_base_record(report, record)
        else:
            _tally_modified_record(report, record)
    return report


def build_report(records: Iterable, config: SimulationConfig) -> SimulationReport:
    """Aggregate records into a report, folding each into the counters as
    it arrives (``records`` may be the ``run_session`` generator); no
    records give a report with zero counters and every estimate
    unavailable."""
    return _tally(SimulationReport(config_echo=config.to_dict(), seed=config.seed), records)
