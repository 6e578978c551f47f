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
    TwoQubitDensity,
    bell_state,
    chsh_value,
    correlator,
    mix,
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
from .fourstate import (
    ModifiedMode,
    ModifiedPairRecord,
    modified_efficiency,
    pauli_for_target,
    pauli_transition,
    run_modified_pair,
)
from .analysis import (
    ChshEstimate,
    DetectionStats,
    EfficiencyQuery,
    SimulationReport,
    build_report,
    cabello_efficiency,
    efficiency_table,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
)

__version__ = "0.1.0"
