"""Estimators and closed-form figures: CHSH estimation with uncertainty,
detection-rate statistics, the evasion probability, and secret-bit
efficiencies.  Reports are counter-based so that merging over disjoint
record sets is exact, associative, and commutative."""

from __future__ import annotations

import math
from collections.abc import Iterable
from numbers import Integral, Real
from typing import TYPE_CHECKING

from .config import ProtocolKind, SimulationConfig
from .protocol import BASIS_BIT, SENT_STATES, Mode, PairRecord, Session
from .quantum import BellStateId, ChshSettings
from .values import factory, value

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction

__all__ = [
    "ChshBinEstimate",
    "ChshEstimate",
    "DetectionStats",
    "SimulationReport",
    "build_report",
    "efficiency_table",
    "estimate_chsh",
    "estimate_qber",
    "evasion_probability",
]

#: The four CHSH setting pairs (alice setting index, bob setting index).
SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Sign of each pair in S = E(1,1) - E(1,2) + E(2,1) + E(2,2).
_PAIR_SIGNS = {(0, 0): +1.0, (0, 1): -1.0, (1, 0): +1.0, (1, 1): +1.0}


@value
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


@value
class ChshEstimate:
    per_state: dict[BellStateId, ChshBinEstimate]


@value
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


def estimate_chsh(records: Iterable, settings: ChshSettings) -> ChshEstimate:
    """Per-state CHSH estimates from the CHSH control rounds in ``records``.

    ``settings`` must be the tuple the session actually used; recorded
    angles are checked against it in the same single pass that tallies
    them, so ``records`` may be a one-shot iterator.
    """
    return _tally(SimulationReport(config_echo={}, seed=0), records, settings).chsh_estimate()


def estimate_qber(records: Iterable) -> DetectionStats:
    """Detection statistics from the error-check control rounds of either
    protocol: a check fails when the disclosed outcomes contradict the sent
    state's signature."""
    return _tally(SimulationReport(config_echo={}, seed=0), records).detection


def evasion_probability(control_probability: float, detection_rate: float, n: int) -> float:
    """Probability that an attacker extracts ``n`` message rounds without
    tripping a control check: (1-C)^n / (1 - C(1-d))^n.

    Non-increasing in each argument; equals 1 when C = 0, d = 0 or n = 0.
    The ratio is raised to the n-th power once, as 1 / (1 + Cd/(1-C)), so
    a large ``n`` underflows to 0 instead of dividing 0 by 0, and each
    rounded step keeps the result non-increasing in C and d.
    """
    if any(isinstance(x, bool) or not isinstance(x, Real) for x in (control_probability, detection_rate)):
        raise ValueError(f"C and d must be real numbers, not {control_probability!r} and {detection_rate!r}")
    c, d = float(control_probability), float(detection_rate)
    if not (0.0 <= c < 1.0):
        raise ValueError(f"control probability must lie in [0, 1), got {c}")
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"detection rate must lie in [0, 1], got {d}")
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"n must be an integer, not {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (1.0 / (1.0 + c * d / (1.0 - c))) ** n


def _efficiency(*runs: tuple[int, int, int]) -> tuple[int, int]:
    """The mean over ``runs`` (secret bits, qubits, classical bits) of secret
    bits per qubit plus classical bit, as a reduced fraction (num, den)."""
    num, den = 0, 1
    for bits, qubits, classical in runs:  # num/den += bits/(qubits + classical)
        num, den = num * (qubits + classical) + bits * den, den * (qubits + classical)
    den *= len(runs)
    gcd = math.gcd(num, den)
    return num // gcd, den // gcd


#: The exact figures of ``efficiency_table``, which its docstring derives.
_EFFICIENCIES = {
    "base": _efficiency((2, 2, 2)),
    "base_avg": _efficiency((1, 2, 1), (1, 2, 2)),
    "modified": _efficiency((4, 2, 3)),
    "modified_avg": _efficiency((2, 2, 3), (2, 2, 1)),
}


def efficiency_table() -> dict[str, Fraction]:
    """Closed-form secret bits per transmitted qubit plus classical bit
    (Cabello's efficiency) for both protocols.

    Base protocol, full duplex: 2 secret bits against 2 qubits and 2
    announcement bits.  Separate runs average Bob's direction (1 secret bit,
    2 qubits, the measured-first bit) with Alice's (1 secret bit, 2 qubits,
    both announcement bits).  Four-state variant, full duplex: 4 secret bits
    against 2 qubits and 3 classical bits (Alice's 1-bit receipt and 2-bit
    operation index).  Separate runs average Alice's direction (2 secret
    bits, 2 qubits, receipt and index) with Bob's (2 secret bits, 2 qubits,
    the receipt alone).

    Each figure is reduced in integer arithmetic (``_EFFICIENCIES``), which
    the report's texts are written from too, so only a caller of this
    function imports ``fractions`` (and with it ``decimal``).
    """
    from fractions import Fraction

    return {name: Fraction(*ratio) for name, ratio in _EFFICIENCIES.items()}


@value(frozen=False)
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
    bob_decode_ok: int = 0
    eve_alice_guesses: int = 0
    eve_alice_correct: int = 0
    eve_bob_guesses: int = 0
    eve_bob_correct: int = 0
    qber_checks: int = 0
    qber_errors: int = 0
    chsh_counts: dict = factory(dict)
    chsh_products: dict = factory(dict)

    # -- derived quantities -------------------------------------------------

    @property
    def control_fraction(self) -> float | None:
        return self.control_rounds / self.pairs if self.pairs else None

    @property
    def decode_accuracy_alice(self) -> float | None:
        return self.alice_decode_ok / self.message_rounds if self.message_rounds else None

    @property
    def decode_accuracy_bob(self) -> float | None:
        return self.bob_decode_ok / self.message_rounds if self.message_rounds else None

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
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if name in ("config_echo", "seed"):
                merged[name] = mine
            elif isinstance(mine, dict):
                merged[name] = {key: mine.get(key, 0) + theirs.get(key, 0) for key in mine | theirs}
            else:
                merged[name] = mine + theirs
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
            "efficiency": {name: f"{num}/{den}" for name, (num, den) in _EFFICIENCIES.items()},
            "seed": self.seed,
        }


def _tally_record(report: SimulationReport, record: PairRecord, n: int) -> None:
    report.pairs += n
    if record.mode is Mode.MESSAGE:
        # Whether each party decoded the other, and the true bits Eve
        # guesses: Alice's basis or two-bit target, and Bob's state's symbol.
        if record.protocol is ProtocolKind.BASE:
            alice_ok = record.alice_decoded_state == record.bob_state
            bob_ok = record.bob_decoded_basis == record.alice_basis
            alice_bit = BASIS_BIT[record.alice_basis]
        else:
            alice_ok = record.alice_bell_outcome == record.bob_state
            bob_ok = record.bob_decoded == record.alice_target
            alice_bit = record.alice_target.bits
        bob_bit = SENT_STATES[record.protocol].index(record.bob_state)
        log = record.eve_log
        report.message_rounds += n
        if alice_ok:
            report.alice_decode_ok += n
        if bob_ok:
            report.bob_decode_ok += n
        if log.guessed_alice_bit is not None:
            report.eve_alice_guesses += n
            if log.guessed_alice_bit == alice_bit:
                report.eve_alice_correct += n
        if log.guessed_bob_bit is not None:
            report.eve_bob_guesses += n
            if log.guessed_bob_bit == bob_bit:
                report.eve_bob_correct += n
    elif record.mode is Mode.CONTROL_QBER:
        report.control_rounds += n
        report.qber_checks += n
        if not record.qber_pass:
            report.qber_errors += n
    else:  # CONTROL_CHSH
        report.control_rounds += n
        key = (record.bob_state, record.alice_setting, record.bob_setting)
        report.chsh_counts[key] = report.chsh_counts.get(key, 0) + n
        product = record.outcome_1 * record.outcome_2
        report.chsh_products[key] = report.chsh_products.get(key, 0) + n * product


def _tally(
    report: SimulationReport, records: Iterable, settings: ChshSettings | None = None
) -> SimulationReport:
    """The one counting path: every estimator reads these counters.  Each
    record is tallied once, with a weight: a session's leaf counts once per
    pair that reached it (a leaf no pair reached is skipped), any other
    record once.  With ``settings``, each record is checked against them as
    it is tallied: a CHSH round measured at other angles raises
    ValueError."""
    if isinstance(records, Session):
        weighted = [(leaf, n) for leaf, n in zip(records.leaves, records.leaf_counts()) if n]
    else:
        weighted = ((record, 1) for record in records)
    for record, n in weighted:
        if settings is not None and record.mode is Mode.CONTROL_CHSH:
            recorded = (record.alice_angle, record.bob_angle)
            expected = (settings.alice_angles[record.alice_setting], settings.bob_angles[record.bob_setting])
            if recorded != expected:
                raise ValueError(f"a CHSH round was measured at angles {recorded}, not the settings' {expected}")
        _tally_record(report, record, n)
    return report


def build_report(records: Iterable, config: SimulationConfig) -> SimulationReport:
    """Aggregate records into a report, folding each into the counters as
    it arrives (``records`` may be the ``run_session`` generator); no
    records give a report with zero counters and every estimate
    unavailable."""
    return _tally(SimulationReport(config_echo=config.to_dict(), seed=config.seed), records)
