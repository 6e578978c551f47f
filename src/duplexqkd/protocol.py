"""Round and session runners for both protocols.

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

The four-state variant (:mod:`duplexqkd.fourstate`) runs the same round
with Bob's state drawn from all four Bell states.  Only its message round
differs: Alice acknowledges the first qubit, Bell-measures both and
announces the Pauli that maps Bob's state to her target.  Its control
rounds are the error checks above.

Every random choice of a round - a party's bits, the control flag, a
measurement's branch, the attacker's moves - is a :class:`~quantum.Choice`
resolved by the next uniform of its party's :class:`Lane`.  Draw ``slot`` of
lane ``lane`` of pair ``pair_index`` is a pure function of (seed, pair_index,
lane, slot) (:mod:`duplexqkd.stream`), so records are reproducible and
independent of how many pairs ran before them.  The adversary draws from its
own lane: honest randomness is identical with and without an attack in
place.

A session (:class:`Session`) has only a few distinct rounds.  It replays
the round function once per path of choices, forcing each branch in turn,
and resolves every pair from its draws.  A session of at most one chunk
(``CHUNK`` pairs) walks the trie of those choices in plain Python, pair by
pair.  A longer one turns the trie into a bucket table, in which each
(lane, slot) the trie reads is one dimension, and resolves a chunk of pairs
at a time in numpy with one lookup per pair.  Numpy is imported only when a
longer session first walks, so a short run never loads it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from enum import Enum
from typing import TYPE_CHECKING

from .config import CheckKind, ProtocolKind, SimulationConfig
from . import fourstate
from .fourstate import PauliAnnouncement, ReceiptAck, pauli_for_target, pauli_transition
from .quantum import (
    Basis,
    BELL_ORDER,
    BellStateId,
    Choice,
    Outcome,
    PauliOp,
    PlanarObservable,
    PureState,
    bell_choice,
    bell_measure,
    bell_state,
    measure_choice,
    measure_qubit,
    tensor,
)
from .stream import LANES, draw_bits, stream_key, threshold_bits, uniform
from .values import value

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import Adversary, EveLog

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
    "ProtocolViolation",
    "QberDisclosure",
    "SENT_STATES",
    "STATE_BIT",
    "Session",
    "alice_decode",
    "bob_decode",
    "correlation_signature",
    "derived_fields",
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
#: The states each protocol's Bob sends, in symbol order: a sent state's
#: symbol is its index here, which is ``STATE_BIT`` in the base protocol and
#: ``BellStateId.bits`` in the four-state variant.
SENT_STATES = {ProtocolKind.BASE: BIT_STATE, ProtocolKind.MODIFIED: BELL_ORDER}


@value
class MeasuredFirst:
    """Alice's announcement that her first measurement is done; reveals the
    control flag and nothing else."""

    control: bool


@value
class CorrelationAnnouncement:
    correlated: bool


@value
class ControlDisclosure:
    """CHSH-round disclosure of one party's setting and outcome; Bob's copy
    carries his state so estimates can be binned."""

    setting: float
    outcome: Outcome
    state_id: BellStateId | None = None


@value
class QberDisclosure:
    basis: Basis
    correlated: bool


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


# The base decodes, keyed by what the decoding party knows and whether the
# round's outcomes were correlated: each base state has one basis of each
# signature, and each basis one base state of each.
_DECODED_BASIS = {(state, _SIGNATURE[state, basis] == +1): basis for state in BIT_STATE for basis in BIT_BASIS}
_DECODED_STATE = {(basis, _SIGNATURE[state, basis] == +1): state for state in BIT_STATE for basis in BIT_BASIS}


def bob_decode(sent: BellStateId, correlated: bool) -> Basis:
    """Bob recovers Alice's basis from his sent state and her announced
    correlation: the unique basis whose signature matches."""
    if sent not in STATE_BIT:
        raise ProtocolViolation(f"base protocol never sends {sent.name}")
    return _DECODED_BASIS[sent, correlated]


def alice_decode(basis: Basis, correlated: bool) -> BellStateId:
    """Alice recovers Bob's state from her basis and her own correlation:
    the unique base state whose signature matches."""
    return _DECODED_STATE[basis, correlated]


def derived_fields(
    protocol: ProtocolKind, mode: Mode, bob_state: BellStateId, alice_basis: Basis | None, outcome_1: Outcome | None,
    outcome_2: Outcome | None, alice_bell_outcome: BellStateId | None, alice_target: BellStateId | None,
) -> dict:
    """The fields of a round that follow from its others, by name:
    ``correlated``, ``bob_decoded_basis``, ``alice_decoded_state``,
    ``qber_pass``, ``alice_pauli`` and ``bob_decoded``, each None where the
    round has none.  A four-state message round derives Alice's Pauli from
    her Bell outcome and target, and Bob's decode from it and his state;
    every other round derives as in the base protocol, the correlation from
    the product of ``outcome_1`` and ``outcome_2``.  A round takes them
    from here, and the CSV loader refuses a row whose cells differ."""
    derived = dict.fromkeys(
        ("correlated", "bob_decoded_basis", "alice_decoded_state", "qber_pass", "alice_pauli", "bob_decoded")
    )
    if mode is Mode.MESSAGE and protocol is ProtocolKind.MODIFIED:
        alice_pauli = derived["alice_pauli"] = pauli_for_target(alice_bell_outcome, alice_target)
        derived["bob_decoded"] = pauli_transition(bob_state, alice_pauli)
    elif mode is not Mode.CONTROL_CHSH:
        correlated = derived["correlated"] = outcome_1 * outcome_2 == +1
        if mode is Mode.MESSAGE:
            derived["bob_decoded_basis"] = bob_decode(bob_state, correlated)
            derived["alice_decoded_state"] = alice_decode(alice_basis, correlated)
        else:
            derived["qber_pass"] = correlated == (correlation_signature(bob_state, alice_basis) == +1)
    return derived


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


@value
class PairRecord:
    """Complete transcript of one round of either protocol; the fields its
    protocol and mode leave out are None.  ``outcome_1`` and ``outcome_2``
    are the round's two ±1 outcomes (Alice's two results, or hers and Bob's
    in a CHSH check), None in a four-state message round.

    The fields are the CSV transcript's layout: a row is ``pair_index``,
    then these fields in order, with ``eve_log``, the last, as one
    ``eve_<field>`` column per :class:`~duplexqkd.attacks.EveLog` field."""

    protocol: ProtocolKind
    mode: Mode
    bob_state: BellStateId
    alice_basis: Basis | None
    alice_setting: int | None
    alice_angle: float | None
    bob_setting: int | None
    bob_angle: float | None
    outcome_1: Outcome | None
    outcome_2: Outcome | None
    correlated: bool | None
    bob_decoded_basis: Basis | None
    alice_decoded_state: BellStateId | None
    qber_pass: bool | None
    alice_bell_outcome: BellStateId | None
    alice_pauli: PauliOp | None
    alice_target: BellStateId | None
    bob_decoded: BellStateId | None
    eve_log: "EveLog"


_HONEST_LANE, _EVE_LANE = range(LANES)


#: The honest parties' uniform choices.
BOB_STATE_CHOICE = {kind: Choice.uniform(states) for kind, states in SENT_STATES.items()}
BASIS_CHOICE = Choice.uniform(BIT_BASIS)
SETTING_CHOICE = Choice.uniform((0, 1))


class Lane:
    """One party's draws in one round: lane ``lane`` of pair ``pair_index``,
    read in slot order.  Every choice the party makes reads the next
    uniform.  A replay (``replay`` = (forced, path), shared by the round's
    lanes) reads no stream: the round's k-th choice with cuts takes
    ``forced[k]``, or 0.0 past its end, and is appended to ``path`` as
    (lane, slot, cuts, u); a choice without cuts takes 0.0."""

    __slots__ = ("key", "slot", "_lane", "_replay")

    def __init__(self, seed: int, pair_index: int, lane: int, replay: tuple | None = None) -> None:
        self.key = stream_key(seed, pair_index, lane)
        self.slot = 0
        self._lane = lane
        self._replay = replay

    def draw(self, choice: Choice) -> float:
        """The uniform that resolves ``choice``."""
        slot = self.slot
        self.slot = slot + 1
        if self._replay is None:
            return uniform(self.key, slot)
        if not choice.cuts:
            return 0.0
        forced, path = self._replay
        u = forced[len(path)] if len(path) < len(forced) else 0.0
        path.append((self._lane, slot, choice.cuts, u))
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


def run_pair(
    config: SimulationConfig, adversary: "Adversary", pair_index: int, *, _replay: tuple | None = None
) -> PairRecord:
    """Execute one round of either protocol; deterministic given (config,
    pair_index, adversary type).

    ``adversary`` is the session's, its ``begin_session`` already called.
    A round always has one: with no attack it is the null
    :class:`~duplexqkd.attacks.Adversary`, which forwards the qubits
    untouched, never draws from the adversary's lane and logs an empty
    ``EveLog``.  Its hooks are the whole channel: every qubit in transit
    (``bob0`` on leg 1, ``bob1`` on leg 2) and every public announcement
    passes through them, and the round keeps no other copy of either.  With
    ``_replay``, the round replays one path of its session's trie instead
    of reading its draws, and both lanes share it (see :class:`Lane`)."""
    system = PairSystem()
    honest = Lane(config.seed, pair_index, _HONEST_LANE, _replay)
    eve = Lane(config.seed, pair_index, _EVE_LANE, _replay)

    # Bob's state choice, from his protocol's alphabet.
    bob_state = honest.choose(BOB_STATE_CHOICE[config.protocol])

    # The encoding party flags the round as control with probability C; the
    # flag stays private until Alice's first measurement is announced.
    control = honest.choose(Choice((config.control_probability,), (True, False)))
    if control:
        mode = Mode.CONTROL_CHSH if config.check_kind is CheckKind.CHSH else Mode.CONTROL_QBER
    else:
        mode = Mode.MESSAGE
    four_state_message = mode is Mode.MESSAGE and config.protocol is ProtocolKind.MODIFIED

    # Bob prepares his pair and the first half crosses the channel.
    system.add_pair(bob_state, "bob0", "bob1")
    adversary.begin_pair()
    first = adversary.relay_qubit(system, "bob0", 1, eve)

    alice_basis: Basis | None = None
    alice_setting = alice_angle = bob_setting = bob_angle = outcome_1 = outcome_2 = None
    alice_bell_outcome = alice_target = None
    if four_state_message:
        # Alice acknowledges the first half, reads Bob's two bits with a
        # Bell measurement of both and picks the target she will encode.
        adversary.hear(system, ReceiptAck(), eve)
        alice_bell_outcome = system.bell_measure_pair(first, adversary.relay_qubit(system, "bob1", 2, eve), honest)
        alice_target = honest.choose(BOB_STATE_CHOICE[ProtocolKind.MODIFIED])
    else:
        # Alice's first measurement (a CHSH angle in control-CHSH rounds,
        # her basis bit otherwise), announced itself but never its result.
        if mode is Mode.CONTROL_CHSH:
            alice_setting = honest.choose(SETTING_CHOICE)
            alice_angle = config.settings.alice_angles[alice_setting]
            first_obs = PlanarObservable(alice_angle)
        else:
            alice_basis = honest.choose(BASIS_CHOICE)
            first_obs = alice_basis.observable
        outcome_1 = system.measure(first, first_obs, honest)
        adversary.hear(system, MeasuredFirst(control=control), eve)

        if mode is Mode.CONTROL_CHSH:
            # Bob keeps the second half and measures locally.
            bob_setting = honest.choose(SETTING_CHOICE)
            bob_angle = config.settings.bob_angles[bob_setting]
            outcome_2 = system.measure("bob1", PlanarObservable(bob_angle), honest)
            adversary.hear(system, ControlDisclosure(setting=alice_angle, outcome=outcome_1), eve)
            adversary.hear(system, ControlDisclosure(setting=bob_angle, outcome=outcome_2, state_id=bob_state), eve)
        else:
            # Message and error-check rounds: the second half travels to
            # Alice, who measures it in her first basis.
            outcome_2 = system.measure(adversary.relay_qubit(system, "bob1", 2, eve), first_obs, honest)
    derived = derived_fields(
        config.protocol, mode, bob_state, alice_basis, outcome_1, outcome_2, alice_bell_outcome, alice_target
    )
    if four_state_message:
        adversary.hear(system, PauliAnnouncement(op=derived["alice_pauli"]), eve)
    elif mode is Mode.MESSAGE:
        adversary.hear(system, CorrelationAnnouncement(correlated=derived["correlated"]), eve)
    elif mode is Mode.CONTROL_QBER:
        adversary.hear(system, QberDisclosure(basis=alice_basis, correlated=derived["correlated"]), eve)

    return PairRecord(
        protocol=config.protocol,
        mode=mode,
        bob_state=bob_state,
        alice_basis=alice_basis,
        alice_setting=alice_setting,
        alice_angle=alice_angle,
        bob_setting=bob_setting,
        bob_angle=bob_angle,
        outcome_1=outcome_1,
        outcome_2=outcome_2,
        alice_bell_outcome=alice_bell_outcome,
        alice_target=alice_target,
        eve_log=adversary.end_pair(system, eve),
        **derived,
    )


#: Pairs resolved together in one numpy pass over a session's trie; a
#: session of at most this many pairs walks its trie in Python instead.
CHUNK = 4096


class Session:
    """The rounds of one session, as :func:`run_session` returns them.

    Iterating yields one record per pair, in pair order.  Underneath, the
    session holds the complete trie of its round's choices, built once by
    replaying every branch: a node is one choice that ``u`` decides (the
    lane and slot it reads, its cut points), an edge is one of its branches,
    and a leaf holds the record of every round that takes that path.  Each
    pair is resolved by comparing its draws with the cut points.  When the
    session has at most ``CHUNK`` pairs, it walks the trie in Python pair by
    pair.  Otherwise it builds a bucket table from the trie (the cuts of
    each (lane, slot) split [0, 1) into buckets, and the table holds the
    leaf of each tuple of buckets) and looks up a chunk of ``CHUNK`` pairs
    at a time in numpy.  Iteration yields the pair's leaf's record itself:
    every pair that takes one path shares one record, an immutable value
    (its Eve log included), so no reader can change what another pair
    reports.

    ``leaf_ids()`` yields the leaf of each pair, a list per chunk,
    ``leaf_counts()`` the number of pairs per leaf, ``leaves`` holds one
    record per leaf and ``probabilities`` the chance that a pair reaches
    each leaf, so consumers can work per leaf instead of per pair.  The trie
    relies on the adversary contract: a round's record is a function of its
    draws and its events, and an adversary resets its per-pair state in
    ``begin_pair``.

    Every session has one adversary, ``adversary`` or else the one
    ``config.attack`` names (the null ``Adversary`` for no attack), and
    calls its ``begin_session`` before any round.  The walk draws keys only
    for the lanes the trie reads, so an honest session draws the honest
    lane alone.
    """

    def __init__(self, config: SimulationConfig, adversary: "Adversary | None") -> None:
        from .attacks import Adversary, build_adversary

        # The variant's sessions call their rounds through its own entry.
        round_fn = fourstate.run_modified_pair if config.protocol is ProtocolKind.MODIFIED else run_pair
        adversary = adversary or build_adversary(config.attack) or Adversary()
        adversary.begin_session(config)
        self._config = config
        self.leaves: list = []
        self.probabilities: list[float] = []
        # Per node: (lane, slot, cuts) and the code of each branch's child, a
        # node id (>= 0) or a leaf (leaf k is coded -1 - k); a zero-width
        # branch, which no draw selects, keeps 0.  ``top`` holds the root.
        nodes: list[tuple[int, int, tuple[float, ...]]] = []
        children: list[list[int]] = []
        top = [0]
        # Paths still to replay, each as its forced uniforms, the choices the
        # replay must repeat, the edge it grows from and its probability.  A
        # branch's lower edge selects it: 0.0 for branch 0, and for the others
        # each distinct cut, since ``bisect_right`` skips the zero-width
        # interval between equal cuts.
        todo: list[tuple] = [((), [], top, 0, 1.0)]
        while todo:
            forced, expected, row, branch, p = todo.pop()
            path: list = []
            record = round_fn(config, adversary, 0, _replay=(forced, path))
            steps = [step[:3] for step in path]
            drawn = tuple(step[3] for step in path)
            if steps[: len(forced)] != expected:
                raise RuntimeError(
                    f"replay {len(self.leaves)} did not repeat the choices of its path; rounds and "
                    "adversaries must be functions of their draws and reset in begin_pair"
                )
            for k in range(len(forced), len(steps)):
                row[branch] = len(nodes)
                nodes.append(steps[k])
                cuts = steps[k][2]
                row = [0] * (len(cuts) + 1)
                children.append(row)
                upper = (*cuts, 1.0)
                for cut in sorted(set(cuts)):
                    i = bisect_right(cuts, cut)
                    todo.append((drawn[:k] + (cut,), steps[: k + 1], row, i, p * (upper[i] - cut)))
                branch = 0
                p *= cuts[0]
            row[branch] = -1 - len(self.leaves)
            self.leaves.append(record)
            self.probabilities.append(p)
        self._root = top[0]
        self._nodes, self._children = nodes, children
        self._lanes = range(1 + max(lane for lane, _, _ in nodes))

    def __iter__(self) -> Iterator[PairRecord]:
        for ids in self.leaf_ids():
            yield from map(self.leaves.__getitem__, ids)

    def leaf_ids(self) -> Iterator[list[int]]:
        """The leaf id of every pair, in pair order, one list per chunk of
        at most ``CHUNK`` pairs."""
        if self._config.pairs <= CHUNK:
            yield self._python_walk()
        else:
            for ids in self._numpy_walk():
                yield ids.tolist()

    def leaf_counts(self) -> list[int]:
        """How many pairs reach each leaf, in ``leaves`` order, from one
        walk of the whole session."""
        if self._config.pairs <= CHUNK:
            counts = Counter(self._python_walk())
            return [counts[leaf] for leaf in range(len(self.leaves))]
        import numpy as np

        counts = np.zeros(len(self.leaves), dtype=np.int64)
        for ids in self._numpy_walk():
            counts += np.bincount(ids, minlength=len(self.leaves))
        return counts.tolist()

    def _python_walk(self) -> list[int]:
        """The leaf id of every pair of the session: each pair keys the
        lanes the trie reads, and at each node moves to the child that its
        draw selects, by the rule of :meth:`Choice.pick`."""
        seed, nodes, children = self._config.seed, self._nodes, self._children
        ids = []
        for pair in range(self._config.pairs):
            keys = [stream_key(seed, pair, lane) for lane in self._lanes]
            code = self._root
            while code >= 0:
                lane, slot, cuts = nodes[code]
                code = children[code][bisect_right(cuts, uniform(keys[lane], slot))]
            ids.append(-1 - code)
        return ids

    def _numpy_walk(self) -> Iterator:
        """The leaf id of every pair, one numpy array per chunk of at most
        ``CHUNK`` pairs.

        The walk reads the trie as a bucket table.  Each (lane, slot) the
        trie reads is one row, and the sorted distinct cuts of that row's
        nodes split [0, 1) into its buckets, so a pair's draw falls in one
        bucket per row.  The table has one dimension per row and holds, at
        each tuple of buckets, the leaf that a pair with draws in those
        buckets reaches.  A pair then costs, per row, one draw and a count
        of the row's thresholds at or below it, and one gather in the
        table.

        A row's thresholds are the top 53 bits of
        :func:`~duplexqkd.stream.threshold_bits` of its cuts, and a draw's
        top 53 bits reach one exactly when its uniform reaches the cut, the
        rule of :meth:`Choice.pick`.  Both are below 2**53, so ``threshold
        - 1 - top``, wrapped in ``uint64``, borrows into bit 63 exactly when
        the draw's top bits ``top`` reach the threshold, and the walk adds
        that bit.  Every array of the walk stays ``uint64``, so numpy never
        builds a casting loop, as adding a ``bool`` comparison into an
        index array would make it."""
        import numpy as np

        rows, table = self._bucket_table()
        config = self._config
        for start in range(0, config.pairs, CHUNK):
            pairs = np.arange(start, min(start + CHUNK, config.pairs), dtype=np.uint64)
            keys = [stream_key(config.seed, pairs, lane) for lane in self._lanes]
            at = np.zeros(len(pairs), dtype=np.uint64)
            for lane, slot, thresholds in rows:
                top = draw_bits(keys[lane], slot)
                top >>= 11
                at *= len(thresholds) + 1
                for threshold in thresholds:
                    at += (threshold - 1 - top) >> 63
            yield table[at.view(np.int64)]

    def _bucket_table(self) -> tuple[list, object]:
        """The rows of the bucket table, each as (lane, slot, thresholds)
        with a row's thresholds the top 53 bits of its cuts'
        :func:`~duplexqkd.stream.threshold_bits`, as Python ints, and the
        table itself, flattened.  A depth-first pass gives each leaf its
        box: the buckets of the branch its path takes at each row it reads,
        and every bucket of the rows it does not read.  The boxes partition
        the table, so one slice assignment per leaf fills it."""
        import numpy as np

        cuts_of: dict[tuple[int, int], set[float]] = {}
        for lane, slot, cuts in self._nodes:
            cuts_of.setdefault((lane, slot), set()).update(cuts)
        row_of = {draw: row for row, draw in enumerate(cuts_of)}
        # Per row, the lower edge of each bucket, then 1.0.
        edges = [(0.0, *sorted(cuts), 1.0) for cuts in cuts_of.values()]
        table = np.empty([len(row_edges) - 1 for row_edges in edges], dtype=np.intp)
        todo = [(self._root, (slice(None),) * len(edges))]
        while todo:
            code, box = todo.pop()
            if code < 0:
                table[box] = -1 - code
                continue
            lane, slot, cuts = self._nodes[code]
            row, bounds = row_of[lane, slot], (0.0, *cuts, 1.0)
            for branch, child in enumerate(self._children[code]):
                lower, upper = bounds[branch : branch + 2]
                if lower < upper:  # a zero-width branch has no bucket and no child
                    span = slice(edges[row].index(lower), edges[row].index(upper))
                    todo.append((child, box[:row] + (span,) + box[row + 1 :]))
        thresholds = [[threshold_bits(cut) >> 11 for cut in row_edges[1:-1]] for row_edges in edges]
        return [(*draw, row) for draw, row in zip(cuts_of, thresholds)], table.ravel()


def run_session(config: SimulationConfig, adversary: "Adversary | None" = None) -> Session:
    """The ``config.pairs`` rounds of the protocol ``config.protocol``
    selects, as a :class:`Session` that yields each round's record in pair
    order when iterated.

    Pairs are resolved a chunk at a time into the session's shared leaf
    records and nothing else grows with the number of pairs, so a caller
    that folds or writes each record keeps memory flat however many pairs
    run; callers that need the whole transcript take ``list(...)``.  With
    ``adversary=None`` the attack layer is instantiated from
    ``config.attack``: the null ``Adversary`` for AttackKind.NONE, so every
    record carries an ``EveLog``, empty when nothing attacked.
    """
    return Session(config, adversary)
