"""Channel adversaries for the protocol runners.

An adversary sees exactly two things: qubits in transit (which it may
transform before forwarding) and each classical announcement after it is
sent.  It never sees local measurement results or the control flag ahead of
Alice's first-measurement announcement.  A session calls ``begin_session``
before any other hook, and each round calls ``begin_pair`` before its first
qubit moves.  Each attack keeps its round's scratch on itself, resets it in
``begin_pair`` and builds the round's immutable :class:`EveLog`, what it
learned, once in ``end_pair``.  The hooks are the whole channel: a round
keeps no other copy of its qubits' legs or of what it announces, so a test
asserts that causality discipline by wiretapping the hooks.

The base :class:`Adversary` is the null adversary, the layer every session
without an attack runs; its rounds log an empty ``EveLog()``.  Three
concrete attacks:

* :class:`InterceptResend` measures each transiting qubit in a basis drawn
  on the first leg (reused on the second) and forwards the collapsed
  eigenstate; its two outcomes give it a guess of Bob's state, against
  which it decodes what Alice announces.
* :class:`QmmSubstitute` plays man-in-the-middle: it hands Alice the halves
  of its own Bell pair (drawn uniformly from the states the protocol
  encodes with) in the sequence Bob would, keeps Bob's qubits, and
  Bell-measures them to read Bob's encoding; what Alice then announces
  gives it her encoding as well.
* :class:`QmmSwap` substitutes the same way, but in a CHSH control round it
  Bell-measures (Bob's intercepted half, its own retained half) - an
  entanglement swap that projects the Alice/Bob marginal onto a Bell state
  it cannot steer, leaving them an equal four-way Bell mixture.
"""

from __future__ import annotations

from .config import AttackKind, CheckKind, SimulationConfig
from .quantum import Basis, BellStateId, Choice
from .protocol import (
    BASIS_BIT,
    BASIS_CHOICE,
    SENT_STATES,
    CorrelationAnnouncement,
    Lane,
    MeasuredFirst,
    PairSystem,
    alice_decode,
    bob_decode,
)
from .fourstate import PauliAnnouncement, pauli_transition
from .values import value

__all__ = [
    "Adversary",
    "EveLog",
    "InterceptResend",
    "QmmSubstitute",
    "QmmSwap",
    "build_adversary",
]


@value
class EveLog:
    """What one attack round yielded, populated only from information the
    attack legitimately accessed.  The attack builds it once, when the round
    ends.  ``substitute`` is the Bell state of the pair a substituting attack
    forwards in Bob's place.  Each field is a CSV transcript column named
    ``eve_`` plus the field's name, in this order."""

    substitute: BellStateId | None = None
    bell_outcome: BellStateId | None = None
    guessed_alice_bit: int | None = None
    guessed_bob_bit: int | None = None


class Adversary:
    """The null adversary: a strict no-op wiretap, and the layer a session
    with no attack runs.  It forwards every qubit untouched, draws nothing
    and logs ``EveLog()`` for every round, so its transcripts are those of
    the honest channel (honest draws come from a separate lane).

    The hooks' contract, for every subclass: ``begin_session`` is called
    once before any other hook, ``begin_pair`` at the start of each round.
    """

    def begin_session(self, config: SimulationConfig) -> None:
        pass

    def begin_pair(self) -> None:
        pass

    def relay_qubit(self, system: PairSystem, handle: str, leg: int, lane: Lane) -> str:
        """Called while a qubit is in transit; returns the handle of the
        qubit actually delivered."""
        return handle

    def hear(self, system: PairSystem, message: object, lane: Lane) -> None:
        pass

    def end_pair(self, system: PairSystem, lane: Lane) -> EveLog:
        return EveLog()


class _Listener(Adversary):
    """An attack that guesses Alice's bits from her message-round
    announcement, decoded against the state it believes she measured."""

    def begin_session(self, config):
        self._states = SENT_STATES[config.protocol]

    def begin_pair(self) -> None:
        self._heard: CorrelationAnnouncement | PauliAnnouncement | None = None

    def hear(self, system, message, lane):
        if isinstance(message, (CorrelationAnnouncement, PauliAnnouncement)):
            self._heard = message

    def _guess_alice(self, state: BellStateId | None) -> int | None:
        """Alice's bits as the heard announcement decodes against ``state``:
        the basis a correlation gives with it, or the index of the target a
        Pauli maps it to; None if nothing was heard."""
        heard = self._heard
        if isinstance(heard, CorrelationAnnouncement):
            return BASIS_BIT[bob_decode(state, heard.correlated)]
        if heard is not None:
            return self._states.index(pauli_transition(state, heard.op))
        return None


class InterceptResend(_Listener):
    """Measure-and-forward with von Neumann measurements.

    The basis is drawn once per pair on the first leg (uniform over {X, Z})
    and reused on the second leg; forwarding the collapsed eigenstate
    maximizes what Eve learns from each announcement later.
    """

    def begin_pair(self) -> None:
        super().begin_pair()
        self._outcomes: list[int] = []
        self._basis: Basis | None = None

    def relay_qubit(self, system, handle, leg, lane):
        if leg == 1:
            self._basis = lane.choose(BASIS_CHOICE)
        self._outcomes.append(system.measure(handle, self._basis.observable, lane))
        return handle

    def end_pair(self, system, lane):
        outcomes = self._outcomes
        guessed_alice_bit = guessed_bob_bit = None
        if len(outcomes) == 2:
            # Her own same-basis product always equals the sent state's
            # signature, which fixes a base state and halves the four-state
            # alphabet.  Alice's announcement decodes against that guess.
            guessed_state = alice_decode(self._basis, outcomes[0] * outcomes[1] == +1)
            guessed_bob_bit = self._states.index(guessed_state)
            guessed_alice_bit = self._guess_alice(guessed_state)
        return EveLog(guessed_alice_bit=guessed_alice_bit, guessed_bob_bit=guessed_bob_bit)


class QmmSubstitute(_Listener):
    """Pair-substitution man-in-the-middle.

    Eve must commit to her own pair before anything about Bob's choice is
    observable, so she draws it uniformly from the states the session's
    protocol encodes with (its ``SENT_STATES``): the two base states, or all
    four Bell states in the four-state variant.
    """

    def begin_session(self, config):
        super().begin_session(config)
        self._choice = Choice.uniform(self._states)

    def begin_pair(self) -> None:
        super().begin_pair()
        self._retained: list[str] = []
        self._substitute: BellStateId | None = None

    def relay_qubit(self, system, handle, leg, lane):
        self._retained.append(handle)
        if leg == 1:
            self._substitute = lane.choose(self._choice)
            system.add_pair(self._substitute, "eve0", "eve1")
            return "eve0"
        return "eve1"

    def _log(self, **learned) -> EveLog:
        """The round's log: the substitute and ``learned``."""
        return EveLog(substitute=self._substitute, **learned)

    def end_pair(self, system, lane):
        bell_outcome = guessed_bob_bit = None
        if len(self._retained) == 2:
            # Bob's pair reached Eve intact; the Bell measurement reads his
            # encoding with certainty.
            bell_outcome = system.bell_measure_pair(*self._retained, lane)
            guessed_bob_bit = self._states.index(bell_outcome)
        # Alice measured Eve's pair, so her announcement decodes against the
        # substitute state.
        return self._log(
            bell_outcome=bell_outcome,
            guessed_alice_bit=self._guess_alice(self._substitute),
            guessed_bob_bit=guessed_bob_bit,
        )


class QmmSwap(QmmSubstitute):
    """Substitution plus a teleportation-style move in CHSH control rounds.

    On learning the round is a CHSH check, Eve Bell-measures the pair she
    holds (Bob's intercepted half and her own retained half).  No correction
    is ever applied on Bob's side, so the Alice/Bob pair collapses to a
    uniformly random Bell state: the marginal they test is an equal mixture
    with a vanishing CHSH value.
    """

    def begin_session(self, config):
        super().begin_session(config)
        self._check = config.check_kind

    def begin_pair(self) -> None:
        super().begin_pair()
        self._swap_outcome: BellStateId | None = None

    def hear(self, system, message, lane):
        super().hear(system, message, lane)
        # MeasuredFirst comes after the first leg and before the second: Eve
        # holds Bob's first half and her own second.
        if isinstance(message, MeasuredFirst) and message.control and self._check is CheckKind.CHSH:
            self._swap_outcome = system.bell_measure_pair(self._retained[0], "eve1", lane)

    def end_pair(self, system, lane):
        if self._swap_outcome is not None:
            return self._log(bell_outcome=self._swap_outcome)
        return super().end_pair(system, lane)


_ATTACKS = {
    AttackKind.INTERCEPT_RESEND: InterceptResend,
    AttackKind.QMM_SUBSTITUTE: QmmSubstitute,
    AttackKind.QMM_SWAP: QmmSwap,
}


def build_adversary(kind: AttackKind) -> Adversary | None:
    """Instantiate the attack of the given kind; None for no attack, which a
    session runs with the null :class:`Adversary`."""
    if kind is AttackKind.NONE:
        return None
    return _ATTACKS[kind]()
