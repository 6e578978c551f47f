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

Every random choice of a round - a party's bits, the control flag, a
measurement's branch, the attacker's moves - is a :class:`~quantum.Choice`
resolved by the next uniform of its party's :class:`Lane`.  Draw ``slot`` of
lane ``lane`` of pair ``pair_index`` is a pure function of (seed, pair_index,
lane, slot) (:mod:`duplexqkd.stream`), so records are reproducible and
independent of how many pairs ran before them.  The adversary draws from its
own lane: honest randomness is identical with and without an attack in
place.

A session (:class:`Session`) has only a few distinct rounds.  It runs the
round function once per distinct path of choices and resolves every other
pair in numpy, by walking a trie of those choices with the pair's draws.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from enum import Enum
from typing import TYPE_CHECKING, Union

import numpy as np

from .config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from .quantum import (
    Basis,
    BELL_ORDER,
    BellStateId,
    Choice,
    Outcome,
    PlanarObservable,
    PureState,
    bell_choice,
    bell_measure,
    bell_state,
    measure_choice,
    measure_qubit,
    tensor,
)
from .stream import LANES, stream_key, stream_keys, uniform, uniforms
from .values import value

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary, EveLog
    from .fourstate import ModifiedPairRecord

__all__ = [
    "BASIS_BIT",
    "BIT_BASIS",
    "BIT_STATE",
    "CHUNK",
    "CorrelationAnnouncement",
    "ControlDisclosure",
    "Lane",
    "MeasuredFirst",
    "Mode",
    "PairRecord",
    "PairSystem",
    "ProtocolMessage",
    "ProtocolViolation",
    "QberDisclosure",
    "STATE_BIT",
    "Session",
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


@value(slots=True)
class MeasuredFirst:
    """Alice's announcement that her first measurement is done; reveals the
    control flag and nothing else."""

    control: bool


@value(slots=True)
class CorrelationAnnouncement:
    correlated: bool


@value(slots=True)
class ControlDisclosure:
    """CHSH-round disclosure of one party's setting and outcome; Bob's copy
    carries his state so estimates can be binned."""

    setting: float
    outcome: Outcome
    state_id: BellStateId | None = None


@value(slots=True)
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

    def measure(self, name: str, obs: PlanarObservable, lane: "Lane") -> Outcome:
        """Measure one qubit; ``lane`` draws the branch."""
        pos = self._pos[name]
        rand = lane.draw(measure_choice(self.state, pos, obs))
        outcome, self.state = measure_qubit(self.state, pos, obs, rand)
        return outcome

    def bell_measure_pair(self, name_a: str, name_b: str, lane: "Lane") -> BellStateId:
        """Bell-measure two qubits, which leave the system; ``lane`` draws
        the outcome."""
        pa, pb = self._pos.pop(name_a), self._pos.pop(name_b)
        rand = lane.draw(bell_choice(self.state, pa, pb))
        outcome, self.state = bell_measure(self.state, pa, pb, rand)
        for name, p in self._pos.items():
            self._pos[name] = p - (p > pa) - (p > pb)
        return outcome


@value(slots=True)
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


_HONEST_LANE, _EVE_LANE = range(LANES)


#: The honest parties' uniform choices.
BOB_STATE_CHOICE = Choice.uniform(BIT_STATE)
BASIS_CHOICE = Choice.uniform(BIT_BASIS)
SETTING_CHOICE = Choice.uniform((0, 1))
FOUR_STATE_CHOICE = Choice.uniform(BELL_ORDER)


class Lane:
    """One party's draws in one round: lane ``lane`` of pair ``pair_index``,
    read in slot order.  Every choice the party makes reads the next
    uniform.  With ``path`` a list, each choice that the uniform decides is
    appended to it as (lane, slot, cuts, branch index): the round's path
    through its session's trie."""

    __slots__ = ("key", "slot", "_lane", "_path")

    def __init__(self, seed: int, pair_index: int, lane: int, path: list | None = None) -> None:
        self.key = stream_key(seed, pair_index, lane)
        self.slot = 0
        self._lane = lane
        self._path = path

    def draw(self, choice: Choice) -> float:
        """The uniform that resolves ``choice``."""
        slot = self.slot
        u = uniform(self.key, slot)
        if self._path is not None and choice.cuts:
            self._path.append((self._lane, slot, choice.cuts, bisect_right(choice.cuts, u)))
        self.slot = slot + 1
        return u

    def choose(self, choice: Choice):
        """The branch of ``choice`` this lane's next uniform selects."""
        return choice.pick(self.draw(choice))


def pair_stream(seed: int, pair_index: int, lane: int = _HONEST_LANE) -> Lane:
    """Per-pair random stream keyed by (seed, pair_index, lane); pair i's
    draws do not depend on how many pairs ran before it.  Honest parties and
    the adversary draw from different lanes, so honest randomness is the
    same with and without an attack."""
    return Lane(seed, pair_index, lane)


class _Round:
    """The scaffold every round of either protocol shares: the pair's honest
    and adversary lanes, the live qubits, the channel adversary's hooks and
    the public announcement list.  With no adversary the qubits travel
    untouched and ``eve`` is None.  Both lanes append to ``path`` (see
    :class:`Lane`)."""

    __slots__ = ("system", "announcements", "honest", "eve", "_adversary")

    def __init__(
        self, config: SimulationConfig, adversary: "Adversary | None", pair_index: int, path: list | None
    ) -> None:
        self.system = PairSystem()
        self.announcements: list = []
        self.honest = Lane(config.seed, pair_index, _HONEST_LANE, path)
        self.eve = Lane(config.seed, pair_index, _EVE_LANE, path) if adversary is not None else None
        self._adversary = adversary

    def send_first(self, bob_state: BellStateId) -> str:
        """Bob prepares his pair and the first half crosses the channel;
        returns the handle of the qubit Alice receives."""
        self.system.add_pair(bob_state, "bob0", "bob1")
        if self._adversary is None:
            return "bob0"
        self._adversary.begin_pair()
        return self._adversary.relay_qubit(self.system, "bob0", 1, self.eve)

    def send_second(self) -> str:
        """The second half crosses the channel to Alice."""
        if self._adversary is None:
            return "bob1"
        return self._adversary.relay_qubit(self.system, "bob1", 2, self.eve)

    def announce(self, message) -> None:
        self.announcements.append(message)
        if self._adversary is not None:
            self._adversary.hear(self.system, message, self.eve)

    def end(self) -> "EveLog | None":
        if self._adversary is None:
            return None
        return self._adversary.end_pair(self.system, self.eve)


def run_pair(
    config: SimulationConfig, adversary: "Adversary | None", pair_index: int, *, _path: list | None = None
) -> PairRecord:
    """Execute one round; deterministic given (config, pair_index, adversary
    type).  ``_path`` collects the round's choices for the session trie (see
    :class:`Lane`)."""
    round_ = _Round(config, adversary, pair_index, _path)
    honest = round_.honest
    system = round_.system

    # Bob's state choice.
    bob_state = honest.choose(BOB_STATE_CHOICE)

    # The encoding party flags the round as control with probability C; the
    # flag stays private until Alice's first measurement is announced.
    control = honest.choose(Choice((config.control_probability,), (True, False)))
    if control:
        mode = Mode.CONTROL_CHSH if config.check_kind is CheckKind.CHSH else Mode.CONTROL_QBER
    else:
        mode = Mode.MESSAGE

    first = round_.send_first(bob_state)

    # Alice's first measurement (a CHSH angle in control-CHSH rounds, her
    # basis bit otherwise).
    alice_basis: Basis | None = None
    alice_setting = alice_angle = None
    if mode is Mode.CONTROL_CHSH:
        alice_setting = honest.choose(SETTING_CHOICE)
        alice_angle = config.settings.alice_angles[alice_setting]
        first_obs = PlanarObservable(alice_angle)
    else:
        alice_basis = honest.choose(BASIS_CHOICE)
        first_obs = alice_basis.observable
    outcome_1 = system.measure(first, first_obs, honest)

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
        bob_setting = honest.choose(SETTING_CHOICE)
        bob_angle = config.settings.bob_angles[bob_setting]
        outcome_2 = system.measure("bob1", PlanarObservable(bob_angle), honest)
        outcomes = (outcome_1, outcome_2)
        round_.announce(ControlDisclosure(setting=alice_angle, outcome=outcome_1))
        round_.announce(ControlDisclosure(setting=bob_angle, outcome=outcome_2, state_id=bob_state))
    else:
        # Message and error-check rounds: the second half travels to Alice,
        # who measures it in her first basis.
        outcome_2 = system.measure(round_.send_second(), first_obs, honest)
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


#: Most pairs resolved together in one numpy pass over a session's trie.
CHUNK = 4096

# Trie codes: a node id (>= 0), an edge no pair has taken yet, or a leaf
# (leaf id k is coded -2 - k).
_UNSEEN = -1


class Session:
    """The rounds of one session, as :func:`run_session` returns them.

    Iterating yields one record per pair, in pair order.  Underneath, the
    session keeps a trie of its rounds' choices, built lazily: a node is one
    choice that ``u`` decides (the lane and slot it reads, its cut points),
    an edge is one of its branches, and a leaf holds the record of every
    round that takes that path (all but its ``pair_index``).  A pair whose
    path leaves the trie runs the round function once, which records the
    path and extends the trie; every other pair is resolved in numpy, a
    chunk at a time, by comparing its draws with the cut points.  A chunk
    is never larger than ``CHUNK`` or than the number of pairs before it, so
    the first pairs, which build the trie, come in small chunks.

    ``leaf_ids()`` yields the leaf of each pair, a chunk at a time,
    ``leaf_counts()`` the number of pairs per leaf, and ``leaves`` holds one
    record per leaf (its ``pair_index`` is that of the first pair to reach
    it), so consumers can work per leaf instead of per pair.  The trie
    relies on the adversary contract: a round's record is a function of its
    draws and its events, and an adversary resets its per-pair state in
    ``begin_pair``.
    """

    def __init__(self, config: SimulationConfig, adversary: "Adversary | None") -> None:
        if config.protocol is ProtocolKind.MODIFIED:
            from . import fourstate

            self._round_fn = fourstate.run_modified_pair
        else:
            self._round_fn = run_pair
        if adversary is None and config.attack is not AttackKind.NONE:
            from .attacks import build_adversary

            adversary = build_adversary(config.attack)
        if adversary is not None:
            adversary.begin_session(config)
        self._config = config
        self._adversary = adversary
        self._lanes = (_HONEST_LANE,) if adversary is None else (_HONEST_LANE, _EVE_LANE)
        self.leaves: list = []
        self._root = _UNSEEN
        # Per node: (lane, slot, cuts) as recorded, and the code of each
        # branch's child.  ``_depth`` is the longest path so far.
        self._nodes: list[tuple[int, int, tuple[float, ...]]] = []
        self._children: list[list[int]] = []
        self._depth = 0
        self._table: tuple | None = None

    def __iter__(self) -> Iterator[PairRecord | ModifiedPairRecord]:
        # Each record is its leaf's with another pair_index, the first field:
        # built positionally from the leaf's other fields, taken once.
        rests: list[tuple] = []
        pair_index = 0
        for ids in self.leaf_ids():
            for record in self.leaves[len(rests) :]:
                rests.append(tuple(getattr(record, name) for name in record._fields[1:]))
            for leaf in ids.tolist():
                yield type(self.leaves[leaf])(pair_index, *rests[leaf])
                pair_index += 1

    def leaf_ids(self) -> Iterator[np.ndarray]:
        """The leaf id of every pair, in pair order, one array per chunk of
        at most ``CHUNK`` pairs."""
        config = self._config
        start = 0
        while start < config.pairs:
            stop = min(start + min(CHUNK, max(start, 1)), config.pairs)
            pairs = np.arange(start, stop, dtype=np.uint64)
            keys = np.stack([stream_keys(config.seed, pairs, lane) for lane in self._lanes])
            code = self._walk(keys)
            for j in np.flatnonzero(code == _UNSEEN).tolist():
                code[j] = self._resolve(start + j)
            yield -2 - code
            start = stop

    def leaf_counts(self) -> list[int]:
        """How many pairs reach each leaf, in ``leaves`` order, from one
        walk of the whole session."""
        reached = np.zeros(0, dtype=np.int64)
        for ids in self.leaf_ids():
            counts = np.bincount(ids, minlength=len(self.leaves))
            counts[: len(reached)] += reached
            reached = counts
        return reached.tolist()

    def _walk(self, keys: np.ndarray) -> np.ndarray:
        """The trie code each pair's draws lead to: a leaf, or _UNSEEN where
        the path leaves the trie.  ``keys[lane]`` holds the pairs' keys.

        Every pair takes ``_depth`` steps over the node table, in which a
        leaf or the unseen edge is a row that leads back to itself.  Each
        step reads a pair's draw from its node's row of draws (one row per
        (lane, slot) the trie reads, drawn once for the whole chunk),
        counts the cuts at or below it and moves to that child."""
        n = keys.shape[1]
        code = np.full(n, self._root, dtype=np.intp)
        if not self._depth:
            return code
        draws, draw_row, cuts, child = self._walk_table()
        u = np.empty((len(draws), n))
        for row, (lane, slot) in enumerate(draws):
            u[row] = uniforms(keys[lane], slot)
        u = u.ravel()
        at = draw_row * n
        pairs = np.arange(n)
        stride = len(cuts) + 1
        for _ in range(self._depth):
            d = u[at[code] + pairs]
            flat = code * stride
            for cut in cuts:
                flat += d >= cut[code]
            code = child[flat]
        return code

    def _walk_table(self) -> tuple:
        """The trie as arrays for :meth:`_walk`, rebuilt when it has grown:
        the lane and slot of each row of draws (the slot as a one-element
        ``uint64`` array, since scalar ``uint64`` arithmetic warns on the
        wraparound the draws rely on), and per row of the node table its row
        of draws, its cuts (one array per cut, padded with +inf) and its
        children (flat, ``stride`` per row).  The nodes come first, then one
        row per leaf and one for the unseen edge; these are in reverse code
        order, so a negative code indexes its own row from the end, and each
        holds its own code as every child."""
        if self._table is not None and self._table[0] == len(self.leaves):
            return self._table[1]
        rows_of: dict[tuple[int, int], int] = {}
        draw_row = [rows_of.setdefault((lane, slot), len(rows_of)) for lane, slot, _ in self._nodes]
        width = max(len(cuts) for _, _, cuts in self._nodes)
        ends = range(-1 - len(self.leaves), 0)
        cuts = np.full((width, len(self._nodes) + len(ends)), np.inf)
        for node, (_, _, node_cuts) in enumerate(self._nodes):
            cuts[: len(node_cuts), node] = node_cuts
        child = [row + [_UNSEEN] * (width + 1 - len(row)) for row in self._children]
        child += [[end] * (width + 1) for end in ends]
        table = (
            [(lane, np.array([slot], dtype=np.uint64)) for lane, slot in rows_of],
            np.array(draw_row + [0] * len(ends), dtype=np.intp),
            cuts,
            np.array(child, dtype=np.intp).ravel(),
        )
        self._table = (len(self.leaves), table)
        return table

    def _resolve(self, pair_index: int) -> int:
        """The leaf code of one pair, by a scalar walk of the trie (the trie
        may have grown since the chunk's walk); a path that leaves the trie
        is discovered."""
        keys = {lane: stream_key(self._config.seed, pair_index, lane) for lane in self._lanes}
        code = self._root
        while code >= 0:
            lane, slot, cuts = self._nodes[code]
            code = self._children[code][bisect_right(cuts, uniform(keys[lane], slot))]
        return self._discover(pair_index) if code == _UNSEEN else code

    def _discover(self, pair_index: int) -> int:
        """Run one pair's round, add its path to the trie and return the
        code of its new leaf."""
        path: list = []
        record = self._round_fn(self._config, self._adversary, pair_index, _path=path)
        leaf = -2 - len(self.leaves)
        self.leaves.append(record)
        self._depth = max(self._depth, len(path))
        parent, branch, code = None, 0, self._root
        for lane, slot, cuts, index in path:
            if code == _UNSEEN:
                code = len(self._nodes)
                self._nodes.append((lane, slot, cuts))
                self._children.append([_UNSEEN] * (len(cuts) + 1))
                self._link(parent, branch, code)
            elif code < 0 or self._nodes[code] != (lane, slot, cuts):
                raise RuntimeError(
                    f"pair {pair_index} made a choice its path does not determine; rounds and "
                    "adversaries must be functions of their draws and reset in begin_pair"
                )
            parent, branch = code, index
            code = self._children[code][index]
        if code != _UNSEEN:
            raise RuntimeError(f"pair {pair_index} ended on a path that is already a leaf or a node")
        self._link(parent, branch, leaf)
        return leaf

    def _link(self, parent: int | None, branch: int, code: int) -> None:
        if parent is None:
            self._root = code
        else:
            self._children[parent][branch] = code


def run_session(config: SimulationConfig, adversary: "Adversary | None" = None) -> Session:
    """The ``config.pairs`` rounds of the protocol ``config.protocol``
    selects, as a :class:`Session` that yields each round's record in pair
    order when iterated.

    Records are made a chunk at a time and nothing else grows with the
    number of pairs, so a caller that folds or writes each record keeps
    memory flat however many pairs run; callers that need the whole
    transcript take ``list(...)``.  With ``adversary=None`` the attack layer
    is instantiated from ``config.attack`` (no layer at all for
    AttackKind.NONE).
    """
    return Session(config, adversary)
