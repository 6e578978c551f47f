"""Channel adversaries for the protocol runners.

An adversary sees exactly two things: qubits in transit (which it may
transform before forwarding) and classical announcements after they are
sent.  It never sees local measurement results or the control flag ahead of
Alice's first-measurement announcement.  Each attack keeps an ordered
per-round observation log so tests can assert that causality discipline.

Three concrete attacks:

* :class:`InterceptResend` measures each transiting qubit in a basis drawn
  on the first leg (reused on the second) and forwards the collapsed
  eigenstate.
* :class:`QmmSubstitute` plays man-in-the-middle: it hands Alice the halves
  of its own Bell pair (drawn uniformly from the states the protocol
  encodes with) in the sequence Bob would, keeps Bob's qubits, and
  Bell-measures them to read Bob's encoding; overheard announcements then
  give it Alice's encoding as well.
* :class:`QmmSwap` substitutes the same way, but in a CHSH control round it
  Bell-measures (Bob's intercepted half, its own retained half) - an
  entanglement swap that projects the Alice/Bob marginal onto a Bell state
  it cannot steer, leaving them an equal four-way Bell mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from .quantum import Basis, BellStateId, Choice
from .protocol import (
    BASIS_BIT,
    BASIS_CHOICE,
    BIT_STATE,
    STATE_BIT,
    CorrelationAnnouncement,
    Lane,
    MeasuredFirst,
    PairSystem,
    ProtocolMessage,
    alice_decode,
    bob_decode,
)
from .fourstate import PauliAnnouncement, pauli_transition

__all__ = [
    "Adversary",
    "EveLog",
    "InterceptResend",
    "QmmSubstitute",
    "QmmSwap",
    "build_adversary",
]


@dataclass(slots=True)
class EveLog:
    """What one attack round yielded, populated only from information the
    attack legitimately accessed."""

    measured_bases: list = field(default_factory=list)
    measured_outcomes: list = field(default_factory=list)
    substitute_state: BellStateId | None = None
    bell_outcome: BellStateId | None = None
    guessed_alice_bit: int | None = None
    guessed_bob_bit: int | None = None
    #: Ordered trace of everything Eve saw: ("qubit", leg) entries and
    #: ("announcement", message) entries.
    observations: list = field(default_factory=list)


class Adversary:
    """Base adversary: a strict no-op wiretap that records nothing.

    Transcripts produced with this instance are bit-identical to transcripts
    produced with no adversary layer at all (honest draws come from a
    separate stream).
    """

    def begin_session(self, config: SimulationConfig) -> None:
        pass

    def begin_pair(self) -> None:
        pass

    def relay_qubit(self, system: PairSystem, handle: str, leg: int, lane: Lane) -> str:
        """Called while a qubit is in transit; returns the handle of the
        qubit actually delivered."""
        return handle

    def hear(self, system: PairSystem, message: ProtocolMessage, lane: Lane) -> None:
        pass

    def end_pair(self, system: PairSystem, lane: Lane) -> EveLog | None:
        return None


class InterceptResend(Adversary):
    """Measure-and-forward with von Neumann measurements.

    The basis is drawn once per pair on the first leg (uniform over {X, Z})
    and reused on the second leg; forwarding the collapsed eigenstate
    maximizes what Eve learns from the announcements later.
    """

    def __init__(self) -> None:
        self._log = EveLog()
        self._basis: Basis | None = None
        self._heard_correlation: bool | None = None

    def begin_pair(self) -> None:
        self._log = EveLog()
        self._basis = None
        self._heard_correlation = None

    def relay_qubit(self, system, handle, leg, lane):
        self._log.observations.append(("qubit", leg))
        if leg == 1:
            self._basis = lane.choose(BASIS_CHOICE)
        outcome = system.measure(handle, self._basis.observable, lane)
        self._log.measured_bases.append(self._basis)
        self._log.measured_outcomes.append(outcome)
        return handle

    def hear(self, system, message, lane):
        self._log.observations.append(("announcement", message))
        if isinstance(message, CorrelationAnnouncement):
            self._heard_correlation = message.correlated

    def end_pair(self, system, lane):
        log = self._log
        if len(log.measured_outcomes) == 2:
            # Her own same-basis product always equals the sent state's
            # signature, so Bob's state is known exactly.
            product_correlated = log.measured_outcomes[0] * log.measured_outcomes[1] == +1
            guessed_state = alice_decode(self._basis, product_correlated)
            log.guessed_bob_bit = STATE_BIT.get(guessed_state)
            if self._heard_correlation is not None and guessed_state in STATE_BIT:
                log.guessed_alice_bit = BASIS_BIT[bob_decode(guessed_state, self._heard_correlation)]
        return log


class QmmSubstitute(Adversary):
    """Pair-substitution man-in-the-middle.

    Eve must commit to her own pair before anything about Bob's choice is
    observable, so she draws it uniformly from the states the session's
    protocol encodes with: the two base states, or all four Bell states in
    the four-state variant.
    """

    def __init__(self) -> None:
        self._protocol = ProtocolKind.BASE
        self._choice = Choice.uniform(BIT_STATE)
        self._log = EveLog()
        self._retained: list[str] = []
        self._heard_correlation: bool | None = None
        self._heard_pauli = None

    def begin_session(self, config):
        self._protocol = config.protocol
        self._choice = Choice.uniform(tuple(BellStateId) if config.protocol is ProtocolKind.MODIFIED else BIT_STATE)

    def begin_pair(self) -> None:
        self._log = EveLog()
        self._retained = []
        self._heard_correlation = None
        self._heard_pauli = None

    def relay_qubit(self, system, handle, leg, lane):
        self._log.observations.append(("qubit", leg))
        self._retained.append(handle)
        if leg == 1:
            substitute = lane.choose(self._choice)
            system.add_pair(substitute, "eve0", "eve1")
            self._log.substitute_state = substitute
            return "eve0"
        return "eve1"

    def hear(self, system, message, lane):
        self._log.observations.append(("announcement", message))
        if isinstance(message, CorrelationAnnouncement):
            self._heard_correlation = message.correlated
        elif isinstance(message, PauliAnnouncement):
            self._heard_pauli = message.op

    def end_pair(self, system, lane):
        log = self._log
        if len(self._retained) == 2:
            # Bob's pair reached Eve intact; the Bell measurement reads his
            # encoding with certainty.
            log.bell_outcome = system.bell_measure_pair(*self._retained, lane)
            if self._protocol is ProtocolKind.MODIFIED:
                log.guessed_bob_bit = log.bell_outcome.bits
            else:
                log.guessed_bob_bit = STATE_BIT.get(log.bell_outcome)
        if self._heard_correlation is not None and log.substitute_state in STATE_BIT:
            # Alice measured Eve's pair, so the announced correlation decodes
            # against the substitute state.
            log.guessed_alice_bit = BASIS_BIT[
                bob_decode(log.substitute_state, self._heard_correlation)
            ]
        if self._heard_pauli is not None and log.substitute_state is not None:
            # Alice Bell-measured Eve's pair, so her announced operation maps
            # the substitute state to her target.
            log.guessed_alice_bit = pauli_transition(log.substitute_state, self._heard_pauli).bits
        return log


class QmmSwap(QmmSubstitute):
    """Substitution plus a teleportation-style move in CHSH control rounds.

    On learning the round is a CHSH check, Eve Bell-measures the pair she
    holds (Bob's intercepted half and her own retained half).  No correction
    is ever applied on Bob's side, so the Alice/Bob pair collapses to a
    uniformly random Bell state: the marginal they test is an equal mixture
    with a vanishing CHSH value.
    """

    def __init__(self) -> None:
        super().__init__()
        self._check = CheckKind.CHSH
        self._swapped = False

    def begin_session(self, config):
        super().begin_session(config)
        self._check = config.check_kind

    def begin_pair(self) -> None:
        super().begin_pair()
        self._swapped = False

    def hear(self, system, message, lane):
        super().hear(system, message, lane)
        if (
            isinstance(message, MeasuredFirst)
            and message.control
            and self._check is CheckKind.CHSH
            and not self._swapped
            and self._retained
            and system.holds("eve1")
        ):
            self._log.bell_outcome = system.bell_measure_pair(self._retained[0], "eve1", lane)
            self._swapped = True

    def end_pair(self, system, lane):
        if self._swapped:
            return self._log
        return super().end_pair(system, lane)


_ATTACKS = {
    AttackKind.INTERCEPT_RESEND: InterceptResend,
    AttackKind.QMM_SUBSTITUTE: QmmSubstitute,
    AttackKind.QMM_SWAP: QmmSwap,
}


def build_adversary(kind: AttackKind) -> Adversary | None:
    """Instantiate the attack layer of the given kind; None means no layer
    at all."""
    if kind is AttackKind.NONE:
        return None
    return _ATTACKS[kind]()
