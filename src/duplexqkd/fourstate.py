"""Higher-rate variant: two bits per party per pair, carried by all four
Bell states.

Bob encodes two bits in his choice of Bell state and sends the halves
sequentially; Alice acknowledges receipt of the first before the second
moves.  She reads Bob's bits with a Bell measurement, then encodes her own
two bits by announcing the index of the Pauli operator that maps the state
Bob sent to her target state.  Bob applies the same permutation to the state
he knows he sent and recovers her bits with certainty.  A listener who
missed the quantum channel learns nothing about either party's bits from
the index alone.  It does learn about the pair: on a clean channel the
index is Bob's two bits XOR Alice's target, two of the pair's four bits, so
whoever learns one party's bits learns the other's.

Only the message round is the variant's own.  Its control rounds are the
base protocol's error checks (:func:`protocol.run_pair` runs both): Alice
announces the control flag after measuring the first half in her basis, and
discloses basis and correlation only once the second half has arrived; the
round passes iff the outcome product equals the sent state's signature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# ``protocol`` imports this module first, so its names are read at call time.
from . import protocol
from .quantum import BELL_ORDER, BellStateId, PauliOp
from .values import value

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary
    from .config import SimulationConfig

__all__ = ["PauliAnnouncement", "ReceiptAck", "pauli_for_target", "pauli_transition", "run_modified_pair"]


@value
class ReceiptAck:
    """Alice confirms arrival of the first qubit (one classical bit)."""


@value
class PauliAnnouncement:
    """Alice's encoding: the index of the Pauli mapping Bob's state to her
    target (two classical bits)."""

    op: PauliOp


def pauli_transition(state: BellStateId, op: PauliOp) -> BellStateId:
    """The Bell state (up to global phase) reached by applying ``op`` to the
    first qubit of ``state``."""
    return BELL_ORDER[state.value ^ op.value]


def pauli_for_target(current: BellStateId, target: BellStateId) -> PauliOp:
    """The unique Pauli with pauli_transition(current, op) == target."""
    return PauliOp(current.value ^ target.value)


def run_modified_pair(
    config: SimulationConfig, adversary: Adversary, pair_index: int, *, _replay: tuple | None = None
) -> protocol.PairRecord:
    """One four-state round: :func:`protocol.run_pair`, which runs both
    protocols.  A session of the variant calls its rounds through this name,
    so a profiler that wraps it still times the variant's sessions apart."""
    return protocol.run_pair(config, adversary, pair_index, _replay=_replay)
