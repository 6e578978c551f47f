"""Higher-rate variant: two bits per party per pair, carried by all four
Bell states.

Bob encodes two bits in his choice of Bell state and sends the halves
sequentially; Alice acknowledges receipt of the first before the second
moves.  She reads Bob's bits with a Bell measurement, then encodes her own
two bits by announcing the index of the Pauli operator that maps the state
Bob sent to her target state.  Bob applies the same permutation to the state
he knows he sent and recovers her bits with certainty; a listener who missed
the quantum channel learns nothing from the index alone.

Control rounds sacrifice the pair: Alice measures both halves in one basis
(disclosing basis and first outcome), Bob discloses his state, and the round
passes iff the outcome product equals the state's deterministic signature.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .config import SimulationConfig
from .protocol import BASIS_CHOICE, FOUR_STATE_CHOICE, _Round, correlation_signature
from .quantum import Basis, BellStateId, Choice, Outcome, PauliOp
from .values import value

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary, EveLog

__all__ = [
    "ModifiedControlDisclosure",
    "ModifiedMode",
    "ModifiedPairRecord",
    "PauliAnnouncement",
    "ReceiptAck",
    "StateDisclosure",
    "modified_derived_fields",
    "pauli_for_target",
    "pauli_transition",
    "run_modified_pair",
]


class ModifiedMode(Enum):
    MESSAGE = "message"
    CONTROL = "control"


@value
class ReceiptAck:
    """Alice confirms arrival of the first qubit (one classical bit)."""


@value
class PauliAnnouncement:
    """Alice's encoding: the index of the Pauli mapping Bob's state to her
    target (two classical bits)."""

    op: PauliOp


@value
class ModifiedControlDisclosure:
    basis: Basis
    outcome: Outcome


@value
class StateDisclosure:
    state_id: BellStateId


# A Pauli on qubit 0 permutes the Bell states; in the two-bit encoding each
# permutation is an XOR mask (verified against the matrix oracle in tests).
_PAULI_MASK = {
    PauliOp.SIGMA0: 0b00,
    PauliOp.SIGMA1: 0b10,
    PauliOp.SIGMA2: 0b11,
    PauliOp.SIGMA3: 0b01,
}
_MASK_TO_PAULI = {mask: op for op, mask in _PAULI_MASK.items()}


def pauli_transition(state: BellStateId, op: PauliOp) -> BellStateId:
    """The Bell state (up to global phase) reached by applying ``op`` to the
    first qubit of ``state``."""
    return BellStateId(state.bits ^ _PAULI_MASK[op])


def pauli_for_target(current: BellStateId, target: BellStateId) -> PauliOp:
    """The unique Pauli with pauli_transition(current, op) == target."""
    return _MASK_TO_PAULI[current.bits ^ target.bits]


def modified_derived_fields(
    mode: ModifiedMode,
    bob_state: BellStateId,
    alice_bell_outcome: BellStateId | None,
    alice_target: BellStateId | None,
    control_basis: Basis | None,
    outcomes: tuple[Outcome, ...],
) -> dict:
    """The fields of a four-state round that follow from its others, by
    name: ``alice_pauli``, ``bob_decoded`` and ``control_pass``, each None
    where ``mode`` has none.  A round takes them from here, and the CSV
    loader refuses a row whose cells differ."""
    derived = dict.fromkeys(("alice_pauli", "bob_decoded", "control_pass"))
    if mode is ModifiedMode.MESSAGE:
        alice_pauli = derived["alice_pauli"] = pauli_for_target(alice_bell_outcome, alice_target)
        derived["bob_decoded"] = pauli_transition(bob_state, alice_pauli)
    else:
        derived["control_pass"] = outcomes[0] * outcomes[1] == correlation_signature(bob_state, control_basis)
    return derived


@value
class ModifiedPairRecord:
    """Transcript of one four-state round."""

    mode: ModifiedMode
    bob_state: BellStateId
    alice_bell_outcome: BellStateId | None
    alice_pauli: PauliOp | None
    alice_target: BellStateId | None
    bob_decoded: BellStateId | None
    control_basis: Basis | None
    outcomes: tuple[Outcome, ...]
    control_pass: bool | None
    eve_log: "EveLog"


def run_modified_pair(
    config: SimulationConfig, adversary: "Adversary", pair_index: int, *, _replay: tuple | None = None
) -> ModifiedPairRecord:
    """One four-state round; deterministic given (config, pair_index,
    adversary type).  ``_replay`` replays one path of its session's trie, as
    in :func:`protocol.run_pair`."""
    round_ = _Round(config, adversary, pair_index, _replay)
    honest = round_.honest
    system = round_.system

    bob_state = honest.choose(FOUR_STATE_CHOICE)
    control = honest.choose(Choice((config.control_probability,), (True, False)))
    mode = ModifiedMode.CONTROL if control else ModifiedMode.MESSAGE

    first = round_.send_first(bob_state)

    alice_bell_outcome = alice_target = control_basis = None

    if mode is ModifiedMode.MESSAGE:
        round_.announce(ReceiptAck())
        alice_bell_outcome = system.bell_measure_pair(first, round_.send_second(), honest)
        alice_target = honest.choose(FOUR_STATE_CHOICE)
        outcomes: tuple[Outcome, ...] = ()
    else:
        control_basis = honest.choose(BASIS_CHOICE)
        outcome_1 = system.measure(first, control_basis.observable, honest)
        round_.announce(ModifiedControlDisclosure(basis=control_basis, outcome=outcome_1))
        round_.announce(StateDisclosure(state_id=bob_state))
        outcome_2 = system.measure(round_.send_second(), control_basis.observable, honest)
        outcomes = (outcome_1, outcome_2)
    derived = modified_derived_fields(mode, bob_state, alice_bell_outcome, alice_target, control_basis, outcomes)
    if mode is ModifiedMode.MESSAGE:
        round_.announce(PauliAnnouncement(op=derived["alice_pauli"]))

    return ModifiedPairRecord(
        mode=mode,
        bob_state=bob_state,
        alice_bell_outcome=alice_bell_outcome,
        alice_target=alice_target,
        control_basis=control_basis,
        outcomes=outcomes,
        eve_log=round_.end(),
        **derived,
    )
