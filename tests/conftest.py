import numpy as np

from duplexqkd.attacks import build_adversary
from duplexqkd.config import AttackKind, CheckKind, ProtocolKind, SimulationConfig
from duplexqkd.fourstate import run_modified_pair
from duplexqkd.protocol import run_pair
from duplexqkd.quantum import PureState, TwoQubitDensity, mix


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


def standalone_rounds(config: SimulationConfig) -> list:
    """Every pair of ``config``'s session run alone by its protocol's round
    function, with one adversary for the session: the reference a session
    must equal record for record."""
    adversary = build_adversary(config.attack)
    if adversary is not None:
        adversary.begin_session(config)
    round_fn = run_modified_pair if config.protocol is ProtocolKind.MODIFIED else run_pair
    return [round_fn(config, adversary, i) for i in range(config.pairs)]


#: Every protocol x attack x check a session accepts (the four-state
#: variant's control rounds are all error checks).
SESSION_CASES = [
    (protocol, attack, check)
    for protocol in ProtocolKind
    for attack in AttackKind
    for check in CheckKind
    if not (protocol is ProtocolKind.MODIFIED and check is CheckKind.CHSH)
]
