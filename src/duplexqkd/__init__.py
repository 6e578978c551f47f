"""duplexqkd: a desk-scale simulator of a deterministic bidirectional
entanglement-based QKD protocol, its control-mode security checks, and the
standard eavesdropping attacks against it."""

from .quantum import (
    Basis,
    BellStateId,
    ChshSettings,
    PauliOp,
    PlanarObservable,
    PureState,
    bell_state,
)
from .config import (
    AttackKind,
    CheckKind,
    ConfigFieldError,
    DEFAULT_SETTINGS,
    ProtocolKind,
    SimulationConfig,
)
from .protocol import (
    Mode,
    PairRecord,
    ProtocolViolation,
    alice_decode,
    bob_decode,
    correlation_signature,
    run_pair,
    run_session,
)
from .attacks import Adversary, EveLog, InterceptResend, QmmSubstitute, QmmSwap, build_adversary
from .fourstate import pauli_for_target, pauli_transition, run_modified_pair
from .analysis import (
    ChshEstimate,
    DetectionStats,
    SimulationReport,
    build_report,
    efficiency_table,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
)

__version__ = "0.1.0"
