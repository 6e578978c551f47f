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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .config import SimulationConfig
from .protocol import BASIS_CHOICE, FOUR_STATE_CHOICE, _Round, _control_choice, correlation_signature
from .quantum import Basis, BellStateId, Outcome, PauliOp

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary, EveLog

__all__ = [
    "CLASSICAL_BITS_PER_RUN",
    "ModifiedControlDisclosure",
    "ModifiedEfficiency",
    "ModifiedMode",
    "ModifiedPairRecord",
    "OPERATION_INDEX_BITS",
    "PauliAnnouncement",
    "RECEIPT_BITS",
    "ReceiptAck",
    "StateDisclosure",
    "bits_to_state",
    "modified_efficiency",
    "pauli_for_target",
    "pauli_transition",
    "run_modified_pair",
]


class ModifiedMode(Enum):
    MESSAGE = "message"
    CONTROL = "control"


@dataclass(frozen=True, slots=True)
class ReceiptAck:
    """Alice confirms arrival of the first qubit (one classical bit)."""


@dataclass(frozen=True, slots=True)
class PauliAnnouncement:
    """Alice's encoding: the index of the Pauli mapping Bob's state to her
    target (two classical bits)."""

    op: PauliOp


@dataclass(frozen=True, slots=True)
class ModifiedControlDisclosure:
    basis: Basis
    outcome: Outcome


@dataclass(frozen=True, slots=True)
class StateDisclosure:
    state_id: BellStateId


ModifiedMessage = Union[ReceiptAck, PauliAnnouncement, ModifiedControlDisclosure, StateDisclosure]


_BITS_TO_STATE = {b.bits: b for b in BellStateId}

# A Pauli on qubit 0 permutes the Bell states; in the two-bit encoding each
# permutation is an XOR mask (verified against the matrix oracle in tests).
_PAULI_MASK = {
    PauliOp.SIGMA0: 0b00,
    PauliOp.SIGMA1: 0b10,
    PauliOp.SIGMA2: 0b11,
    PauliOp.SIGMA3: 0b01,
}
_MASK_TO_PAULI = {mask: op for op, mask in _PAULI_MASK.items()}


def bits_to_state(bits: int) -> BellStateId:
    if bits not in _BITS_TO_STATE:
        raise ValueError(f"two-bit value must lie in [0, 3], got {bits}")
    return _BITS_TO_STATE[bits]


def pauli_transition(state: BellStateId, op: PauliOp) -> BellStateId:
    """The Bell state (up to global phase) reached by applying ``op`` to the
    first qubit of ``state``."""
    return _BITS_TO_STATE[state.bits ^ _PAULI_MASK[op]]


def pauli_for_target(current: BellStateId, target: BellStateId) -> PauliOp:
    """The unique Pauli with pauli_transition(current, op) == target."""
    return _MASK_TO_PAULI[current.bits ^ target.bits]


@dataclass(frozen=True, slots=True)
class ModifiedPairRecord:
    """Transcript of one four-state round."""

    pair_index: int
    mode: ModifiedMode
    bob_state: BellStateId
    alice_bell_outcome: BellStateId | None
    alice_pauli: PauliOp | None
    alice_target: BellStateId | None
    bob_decoded: BellStateId | None
    control_basis: Basis | None
    outcomes: tuple[Outcome, ...]
    control_pass: bool | None
    announcements: tuple[ModifiedMessage, ...]
    eve_log: "EveLog | None"


def run_modified_pair(
    config: SimulationConfig,
    adversary: "Adversary | None",
    pair_index: int,
    *,
    alice_bits: int | None = None,
    bob_bits: int | None = None,
    _path: list | None = None,
) -> ModifiedPairRecord:
    """One four-state round; deterministic given (config, pair_index,
    payload bits, adversary type).  ``_path`` collects the round's choices
    for the session trie, as in :func:`protocol.run_pair`."""
    round_ = _Round(config, adversary, pair_index, _path)
    honest = round_.honest
    system = round_.system

    if bob_bits is None:
        bob_state = honest.choose(FOUR_STATE_CHOICE)
    else:
        bob_state = bits_to_state(bob_bits)
    control = honest.choose(_control_choice(config.control_probability))
    mode = ModifiedMode.CONTROL if control else ModifiedMode.MESSAGE

    first = round_.send_first(bob_state)

    alice_bell_outcome = alice_pauli = alice_target = bob_decoded = None
    control_basis = control_pass = None

    if mode is ModifiedMode.MESSAGE:
        round_.announce(ReceiptAck())
        alice_bell_outcome = system.bell_measure_pair(first, round_.send_second(), honest)
        if alice_bits is None:
            alice_target = honest.choose(FOUR_STATE_CHOICE)
        else:
            alice_target = bits_to_state(alice_bits)
        alice_pauli = pauli_for_target(alice_bell_outcome, alice_target)
        round_.announce(PauliAnnouncement(op=alice_pauli))
        bob_decoded = pauli_transition(bob_state, alice_pauli)
        outcomes: tuple[Outcome, ...] = ()
    else:
        control_basis = honest.choose(BASIS_CHOICE)
        outcome_1 = system.measure(first, control_basis.observable, honest)
        round_.announce(ModifiedControlDisclosure(basis=control_basis, outcome=outcome_1))
        round_.announce(StateDisclosure(state_id=bob_state))
        outcome_2 = system.measure(round_.send_second(), control_basis.observable, honest)
        outcomes = (outcome_1, outcome_2)
        control_pass = outcome_1 * outcome_2 == correlation_signature(bob_state, control_basis)

    return ModifiedPairRecord(
        pair_index=pair_index,
        mode=mode,
        bob_state=bob_state,
        alice_bell_outcome=alice_bell_outcome,
        alice_pauli=alice_pauli,
        alice_target=alice_target,
        bob_decoded=bob_decoded,
        control_basis=control_basis,
        outcomes=outcomes,
        control_pass=control_pass,
        announcements=tuple(round_.announcements),
        eve_log=round_.end(),
    )


# Classical-bit accounting for one message round: Alice's receipt plus her
# two-bit operation index.
RECEIPT_BITS = 1
OPERATION_INDEX_BITS = 2
CLASSICAL_BITS_PER_RUN = RECEIPT_BITS + OPERATION_INDEX_BITS


@dataclass(frozen=True)
class ModifiedEfficiency:
    per_run: Fraction
    average: Fraction


def modified_efficiency() -> ModifiedEfficiency:
    """Exact secret-bit efficiency of the four-state variant.

    Per full-duplex run: four secret bits against two qubits plus the three
    classical bits.  The averaged figure alternates the directions: Alice's
    two bits need receipt and operation index (3 classical bits), Bob's two
    bits only the receipt.
    """
    # Imported here: analysis imports this module to tally its records.
    from .analysis import EfficiencyQuery, cabello_efficiency

    per_run = cabello_efficiency(
        EfficiencyQuery(secret_bits=4, qubits_transmitted=2, classical_bits=CLASSICAL_BITS_PER_RUN)
    )
    alice_run = cabello_efficiency(
        EfficiencyQuery(secret_bits=2, qubits_transmitted=2, classical_bits=CLASSICAL_BITS_PER_RUN)
    )
    bob_run = cabello_efficiency(
        EfficiencyQuery(secret_bits=2, qubits_transmitted=2, classical_bits=RECEIPT_BITS)
    )
    return ModifiedEfficiency(per_run=per_run, average=(alice_run + bob_run) / 2)
