import numpy as np

from duplexqkd.attacks import Adversary, build_adversary
from duplexqkd.config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from duplexqkd.protocol import run_pair
from duplexqkd.quantum import PureState
from oracle import TwoQubitDensity, mix


def random_pure_state(rng: np.random.Generator, num_qubits: int) -> PureState:
    """Haar-ish random pure state: complex gaussian amplitudes, normalized."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


def random_density(rng: np.random.Generator, max_components: int = 4) -> TwoQubitDensity:
    """Random two-qubit mixed state as a convex mixture of random pure states."""
    k = int(rng.integers(1, max_components + 1))
    weights = rng.random(k)
    weights /= weights.sum()
    return mix(
        [(float(w), TwoQubitDensity.from_pure(random_pure_state(rng, 2))) for w in weights]
    )


def random_product_state(rng: np.random.Generator) -> PureState:
    """Random two-qubit product (separable pure) state."""
    from duplexqkd.quantum import tensor

    return tensor(random_pure_state(rng, 1), random_pure_state(rng, 1))


class Wiretap(Adversary):
    """Records what crosses the channel in each round, then hands every hook
    to ``inner`` (the null ``Adversary`` by default), so the attack runs
    unchanged.  ``rounds[k]`` is the k-th round's trace, in hook order:
    ``("qubit", leg)`` for each qubit relayed and ``("announcement",
    message)`` for each message heard.  A session replays each of its
    leaves once, so there the k-th round is ``session.leaves[k]``'s."""

    def __init__(self, inner: Adversary | None = None) -> None:
        self.inner = inner or Adversary()
        self.rounds: list[list[tuple]] = []

    def begin_session(self, config):
        self.inner.begin_session(config)

    def begin_pair(self):
        self.rounds.append([])
        self.inner.begin_pair()

    def relay_qubit(self, system, handle, leg, lane):
        self.rounds[-1].append(("qubit", leg))
        return self.inner.relay_qubit(system, handle, leg, lane)

    def hear(self, system, message, lane):
        self.rounds[-1].append(("announcement", message))
        self.inner.hear(system, message, lane)

    def end_pair(self, system, lane):
        return self.inner.end_pair(system, lane)

    def announcements(self, k: int = -1) -> list:
        """The messages heard in round ``k``, in order."""
        return [payload for tag, payload in self.rounds[k] if tag == "announcement"]


def standalone_rounds(config: SimulationConfig) -> list:
    """Every pair of ``config``'s session run alone by the round function,
    with one adversary for the session: the reference a session must equal
    record for record."""
    adversary = build_adversary(config.attack) or Adversary()
    adversary.begin_session(config)
    return [run_pair(config, adversary, i) for i in range(config.pairs)]


#: Every protocol x attack x check a session accepts (the four-state
#: variant's control rounds are all error checks).
SESSION_CASES = [
    (protocol, attack, check)
    for protocol in ProtocolKind
    for attack in AttackKind
    for check in CheckKind
    if not (protocol is ProtocolKind.MODIFIED and check is CheckKind.CHSH)
]
