"""Round and session runners for the base two-state protocol.

One round ("pair") of the base protocol:

1. Bob picks a Bell state from {psi+, phi-} (his bit) and prepares the pair.
2. The first qubit travels to Alice through the (possibly hostile) channel.
3. Alice decides message vs control and measures the first qubit - in her
   basis from {X, Z} (her bit) for message and error-check rounds, or at a
   sampled CHSH angle for CHSH control rounds.
4. Alice announces that she has measured, revealing the control flag but
   neither basis nor result.  Only now may the second qubit move.
5. Message round: the second qubit travels to Alice, she measures it in the
   same basis and announces only whether her two results were correlated.
   Both sides then decode deterministically: the announced correlation plus
   Bob's state identifies Alice's basis, and plus Alice's basis identifies
   Bob's state.
   CHSH control round: Bob keeps the second qubit and measures it at a
   sampled CHSH angle; both disclose settings and outcomes (Bob also his
   state, so estimates can be binned per state).
   Error-check control round: the second qubit travels to Alice, she
   measures in her first basis and discloses basis plus correlation; Bob
   checks the correlation against the state's deterministic signature.

Every random draw comes from a per-pair stream derived from
(seed, pair_index, lane), so records are reproducible and independent of
how many pairs ran before them.  The adversary draws from its own lane:
honest randomness is identical with and without an attack in place.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from .config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from .quantum import (
    Basis,
    BellStateId,
    ChshSettings,
    Outcome,
    PlanarObservable,
    PureState,
    bell_measure,
    bell_state,
    measure_qubit,
    tensor,
)

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary, EveLog
    from .fourstate import ModifiedPairRecord

__all__ = [
    "BASIS_BIT",
    "BIT_BASIS",
    "BIT_STATE",
    "CorrelationAnnouncement",
    "ControlDisclosure",
    "MeasuredFirst",
    "Mode",
    "PairRecord",
    "PairSystem",
    "ProtocolMessage",
    "ProtocolViolation",
    "QberDisclosure",
    "STATE_BIT",
    "alice_decode",
    "bob_decode",
    "correlation_signature",
    "pair_stream",
    "run_pair",
    "run_session",
]


class ProtocolViolation(Exception):
    """A party deviated from the protocol contract."""


class Mode(Enum):
    MESSAGE = "message"
    CONTROL_CHSH = "control-chsh"
    CONTROL_QBER = "control-qber"


# Bit conventions, fixed: Alice's basis X -> 0, Z -> 1; Bob's state
# psi+ -> 0, phi- -> 1.
BASIS_BIT = {Basis.X: 0, Basis.Z: 1}
BIT_BASIS = (Basis.X, Basis.Z)
STATE_BIT = {BellStateId.PSI_PLUS: 0, BellStateId.PHI_MINUS: 1}
BIT_STATE = (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS)


@dataclass(frozen=True, slots=True)
class MeasuredFirst:
    """Alice's announcement that her first measurement is done; reveals the
    control flag and nothing else."""

    control: bool


@dataclass(frozen=True, slots=True)
class CorrelationAnnouncement:
    correlated: bool


@dataclass(frozen=True, slots=True)
class ControlDisclosure:
    """CHSH-round disclosure of one party's setting and outcome; Bob's copy
    carries his state so estimates can be binned."""

    setting: float
    outcome: Outcome
    state_id: BellStateId | None = None


@dataclass(frozen=True, slots=True)
class QberDisclosure:
    basis: Basis
    correlated: bool


ProtocolMessage = Union[MeasuredFirst, CorrelationAnnouncement, ControlDisclosure, QberDisclosure]


# Deterministic outcome product when both halves of a Bell pair are measured
# in the same basis (the +-1 eigenvalue of O x O on the state).
_SIGNATURE: dict[tuple[BellStateId, Basis], Outcome] = {
    (BellStateId.PSI_PLUS, Basis.X): +1,
    (BellStateId.PSI_PLUS, Basis.Z): -1,
    (BellStateId.PSI_MINUS, Basis.X): -1,
    (BellStateId.PSI_MINUS, Basis.Z): -1,
    (BellStateId.PHI_PLUS, Basis.X): +1,
    (BellStateId.PHI_PLUS, Basis.Z): +1,
    (BellStateId.PHI_MINUS, Basis.X): -1,
    (BellStateId.PHI_MINUS, Basis.Z): +1,
}


def correlation_signature(state: BellStateId, basis: Basis) -> Outcome:
    """The deterministic two-qubit outcome product for a same-basis double
    measurement of the given Bell state."""
    return _SIGNATURE[(state, basis)]


def bob_decode(sent: BellStateId, correlated: bool) -> Basis:
    """Bob recovers Alice's basis from his sent state and her announced
    correlation: the unique basis whose signature matches."""
    if sent not in STATE_BIT:
        raise ProtocolViolation(f"base protocol never sends {sent.name}")
    announced: Outcome = +1 if correlated else -1
    for basis in BIT_BASIS:
        if _SIGNATURE[(sent, basis)] == announced:
            return basis
    raise AssertionError("unreachable: each state has one basis per sign")


def alice_decode(basis: Basis, correlated: bool) -> BellStateId:
    """Alice recovers Bob's state from her basis and her own correlation."""
    announced: Outcome = +1 if correlated else -1
    for state in BIT_STATE:
        if _SIGNATURE[(state, basis)] == announced:
            return state
    raise AssertionError("unreachable: each basis has one state per sign")


class PairSystem:
    """Joint pure state of the live qubits in one round, addressed by name.

    The honest runner registers Bob's pair as ``bob0``/``bob1``; an attacker
    that injects its own pair registers ``eve0``/``eve1``.  Bell
    measurements remove their two qubits and shift the remaining positions
    down, so callers always address qubits by name, never by index.
    """

    __slots__ = ("state", "_pos")

    def __init__(self) -> None:
        self.state: PureState | None = None
        self._pos: dict[str, int] = {}

    def add_pair(self, state_id: BellStateId, name0: str, name1: str) -> None:
        pair = bell_state(state_id)
        if self.state is None:
            self.state = pair
            self._pos[name0] = 0
            self._pos[name1] = 1
        else:
            offset = self.state.num_qubits
            self.state = tensor(self.state, pair)
            self._pos[name0] = offset
            self._pos[name1] = offset + 1

    def holds(self, name: str) -> bool:
        return name in self._pos

    def measure(self, name: str, obs: PlanarObservable, rand: float) -> Outcome:
        outcome, self.state = measure_qubit(self.state, self._pos[name], obs, rand)
        return outcome

    def bell_measure_pair(self, name_a: str, name_b: str, rand: float) -> BellStateId:
        pa, pb = self._pos.pop(name_a), self._pos.pop(name_b)
        outcome, self.state = bell_measure(self.state, pa, pb, rand)
        for name, p in self._pos.items():
            self._pos[name] = p - (p > pa) - (p > pb)
        return outcome


@dataclass(frozen=True, slots=True)
class PairRecord:
    """Complete transcript of one base-protocol round."""

    pair_index: int
    mode: Mode
    bob_state: BellStateId
    alice_basis: Basis | None
    alice_setting: int | None
    alice_angle: float | None
    bob_setting: int | None
    bob_angle: float | None
    outcomes: tuple[Outcome, ...]
    announcements: tuple[ProtocolMessage, ...]
    correlated: bool | None
    bob_decoded_basis: Basis | None
    alice_decoded_state: BellStateId | None
    qber_pass: bool | None
    eve_log: "EveLog | None"


_HONEST_LANE = 0
_EVE_LANE = 1


def _stream_key(seed: int, pair_index: int, lane: int) -> int:
    # seed occupies its own 64-bit field, so (seed, pair, lane) triples map
    # to distinct integers.
    return (seed << 66) | (pair_index << 2) | lane


def pair_stream(seed: int, pair_index: int, lane: int = _HONEST_LANE) -> random.Random:
    """Per-pair random stream keyed by (seed, pair_index, lane); pair i's
    draws do not depend on how many pairs ran before it.  Honest parties and
    the adversary draw from different lanes, so honest randomness is the
    same with and without an attack."""
    return random.Random(_stream_key(seed, pair_index, lane))


@lru_cache(maxsize=8)
def _setting_observables(settings: ChshSettings):
    alice = tuple(PlanarObservable(a) for a in settings.alice_angles)
    bob = tuple(PlanarObservable(b) for b in settings.bob_angles)
    return alice, bob


class _Round:
    """The scaffold every round of either protocol shares: the pair's honest
    and adversary streams, the live qubits, the channel adversary's hooks
    and the public announcement list.  With no adversary the qubits travel
    untouched and no adversary stream is made."""

    __slots__ = ("rng", "system", "announcements", "_adversary", "_eve_rng")

    def __init__(
        self,
        config: SimulationConfig,
        adversary: "Adversary | None",
        pair_index: int,
        rng: random.Random | None,
        eve_rng: random.Random | None,
    ) -> None:
        self.rng = pair_stream(config.seed, pair_index, _HONEST_LANE) if rng is None else rng
        self.system = PairSystem()
        self.announcements: list = []
        self._adversary = adversary
        if adversary is not None and eve_rng is None:
            eve_rng = pair_stream(config.seed, pair_index, _EVE_LANE)
        self._eve_rng = eve_rng

    def send_first(self, bob_state: BellStateId) -> str:
        """Bob prepares his pair and the first half crosses the channel;
        returns the handle of the qubit Alice receives."""
        self.system.add_pair(bob_state, "bob0", "bob1")
        if self._adversary is None:
            return "bob0"
        self._adversary.begin_pair()
        return self._adversary.relay_qubit(self.system, "bob0", 1, self._eve_rng)

    def send_second(self) -> str:
        """The second half crosses the channel to Alice."""
        if self._adversary is None:
            return "bob1"
        return self._adversary.relay_qubit(self.system, "bob1", 2, self._eve_rng)

    def announce(self, message) -> None:
        self.announcements.append(message)
        if self._adversary is not None:
            self._adversary.hear(self.system, message, self._eve_rng)

    def end(self) -> "EveLog | None":
        if self._adversary is None:
            return None
        return self._adversary.end_pair(self.system, self._eve_rng)


def run_pair(
    config: SimulationConfig,
    adversary: "Adversary | None",
    pair_index: int,
    *,
    alice_bit: int | None = None,
    bob_bit: int | None = None,
    _rng: random.Random | None = None,
    _eve_rng: random.Random | None = None,
) -> PairRecord:
    """Execute one round; deterministic given (config, pair_index, payload
    bits, adversary type).

    ``alice_bit`` / ``bob_bit`` optionally pin the payload choices of a
    message round; by default both parties draw uniformly.  ``_rng`` /
    ``_eve_rng`` let the session loop reuse stream objects; they must be
    seeded exactly like :func:`pair_stream` for this pair.
    """
    round_ = _Round(config, adversary, pair_index, _rng, _eve_rng)
    rng = round_.rng
    system = round_.system

    # Bob's state choice.
    bob_state = BIT_STATE[rng.getrandbits(1)] if bob_bit is None else BIT_STATE[bob_bit]

    # The encoding party flags the round as control with probability C; the
    # flag stays private until Alice's first measurement is announced.
    control = bool(rng.random() < config.control_probability)
    if control:
        mode = Mode.CONTROL_CHSH if config.check_kind is CheckKind.CHSH else Mode.CONTROL_QBER
    else:
        mode = Mode.MESSAGE

    first = round_.send_first(bob_state)

    # Alice's first measurement (a CHSH angle in control-CHSH rounds, her
    # basis bit otherwise).
    alice_obs_set, bob_obs_set = _setting_observables(config.settings)
    alice_basis: Basis | None = None
    alice_setting = alice_angle = None
    if mode is Mode.CONTROL_CHSH:
        alice_setting = rng.getrandbits(1)
        alice_angle = config.settings.alice_angles[alice_setting]
        first_obs = alice_obs_set[alice_setting]
    else:
        bit = rng.getrandbits(1) if (alice_bit is None or mode is not Mode.MESSAGE) else alice_bit
        alice_basis = BIT_BASIS[bit]
        first_obs = alice_basis.observable
    outcome_1 = system.measure(first, first_obs, rng.random())

    # Alice announces the measurement itself, never its result.
    round_.announce(MeasuredFirst(control=control))

    outcomes: tuple[Outcome, ...]
    correlated: bool | None = None
    bob_setting = bob_angle = None
    bob_decoded_basis: Basis | None = None
    alice_decoded_state: BellStateId | None = None
    qber_pass: bool | None = None

    if mode is Mode.CONTROL_CHSH:
        # Bob keeps the second half and measures locally.
        bob_setting = rng.getrandbits(1)
        bob_angle = config.settings.bob_angles[bob_setting]
        outcome_2 = system.measure("bob1", bob_obs_set[bob_setting], rng.random())
        outcomes = (outcome_1, outcome_2)
        round_.announce(ControlDisclosure(setting=alice_angle, outcome=outcome_1))
        round_.announce(ControlDisclosure(setting=bob_angle, outcome=outcome_2, state_id=bob_state))
    else:
        # Message and error-check rounds: the second half travels to Alice,
        # who measures it in her first basis.
        outcome_2 = system.measure(round_.send_second(), first_obs, rng.random())
        outcomes = (outcome_1, outcome_2)
        correlated = outcome_1 * outcome_2 == +1
        if mode is Mode.MESSAGE:
            round_.announce(CorrelationAnnouncement(correlated=correlated))
            bob_decoded_basis = bob_decode(bob_state, correlated)
            alice_decoded_state = alice_decode(alice_basis, correlated)
        else:
            round_.announce(QberDisclosure(basis=alice_basis, correlated=correlated))
            qber_pass = correlated == (correlation_signature(bob_state, alice_basis) == +1)

    return PairRecord(
        pair_index=pair_index,
        mode=mode,
        bob_state=bob_state,
        alice_basis=alice_basis,
        alice_setting=alice_setting,
        alice_angle=alice_angle,
        bob_setting=bob_setting,
        bob_angle=bob_angle,
        outcomes=outcomes,
        announcements=tuple(round_.announcements),
        correlated=correlated,
        bob_decoded_basis=bob_decoded_basis,
        alice_decoded_state=alice_decoded_state,
        qber_pass=qber_pass,
        eve_log=round_.end(),
    )


def run_session(
    config: SimulationConfig, adversary: "Adversary | None" = None
) -> Iterator[PairRecord | ModifiedPairRecord]:
    """Run ``config.pairs`` rounds of the protocol ``config.protocol``
    selects, yielding each round's record as soon as it is made.

    Nothing is held between rounds, so a caller that folds or writes each
    record keeps memory flat however many pairs run; callers that need the
    whole transcript take ``list(...)``.  With ``adversary=None`` the attack
    layer is instantiated from ``config.attack`` (no layer at all for
    AttackKind.NONE).
    """
    if config.protocol is ProtocolKind.MODIFIED:
        from . import fourstate

        round_fn = fourstate.run_modified_pair
    else:
        round_fn = run_pair
    if adversary is None and config.attack is not AttackKind.NONE:
        from .attacks import build_adversary

        adversary = build_adversary(config.attack)
    if adversary is not None:
        adversary.begin_session(config)
    # Reseeding shared stream objects per pair is twice as cheap as fresh
    # ones and produces the identical draw sequences.
    rng = random.Random()
    eve_rng = random.Random() if adversary is not None else None
    for i in range(config.pairs):
        rng.seed(_stream_key(config.seed, i, _HONEST_LANE))
        if eve_rng is not None:
            eve_rng.seed(_stream_key(config.seed, i, _EVE_LANE))
        yield round_fn(config, adversary, i, _rng=rng, _eve_rng=eve_rng)
