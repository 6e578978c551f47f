"""Run configuration: dataclasses shared by the protocol runners, the attack
layer, and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .quantum import Basis, BellStateId, ChshSettings

__all__ = [
    "AttackKind",
    "AttackSpec",
    "CheckKind",
    "ConfigFieldError",
    "DEFAULT_SETTINGS",
    "Duplex",
    "ProtocolKind",
    "SimulationConfig",
]


class ConfigFieldError(ValueError):
    """A :class:`SimulationConfig` field is out of range; ``field_name``
    names it."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(message)
        self.field_name = field_name


class CheckKind(Enum):
    """Which security check control rounds run."""

    CHSH = "chsh"
    QBER = "qber"


class Duplex(Enum):
    """SEPARATE alternates Alice-encoding and Bob-encoding runs; FULL puts
    both parties' bits on every pair."""

    SEPARATE = "separate"
    FULL = "full"


class ProtocolKind(Enum):
    BASE = "base"
    MODIFIED = "modified"


class AttackKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "ir"
    QMM_SUBSTITUTE = "qmm"
    QMM_SWAP = "qmm-swap"


# Maximal-violation settings: with these, the psi+ CHSH value is +2*sqrt(2)
# and the phi- value is -2*sqrt(2) (validated analytically in the tests).
DEFAULT_SETTINGS = ChshSettings(
    alice_angles=(0.0, 0.5 * math.pi),
    bob_angles=(0.75 * math.pi, 0.25 * math.pi),
)

#: States the base protocol encodes with (one bit per pair).
BASE_STATES: tuple[BellStateId, BellStateId] = (BellStateId.PSI_PLUS, BellStateId.PHI_MINUS)


@dataclass(frozen=True)
class AttackSpec:
    """Channel-attack selection and parameters.

    ``ir_basis`` fixes the intercept-resend measurement basis (None draws
    uniformly from {X, Z} per pair).  ``substitute_policy`` controls which
    Bell pair the man-in-the-middle injects: "uniform" draws from
    ``substitute_choices`` per pair, "fixed" always uses
    ``substitute_state``.
    """

    kind: AttackKind = AttackKind.NONE
    ir_basis: Basis | None = None
    substitute_policy: str = "uniform"
    substitute_state: BellStateId | None = None
    substitute_choices: tuple[BellStateId, ...] = BASE_STATES

    def __post_init__(self) -> None:
        if self.substitute_policy not in ("uniform", "fixed"):
            raise ValueError(f"unknown substitute policy {self.substitute_policy!r}")
        if self.substitute_policy == "fixed" and self.substitute_state is None:
            raise ValueError("fixed substitute policy needs substitute_state")
        if not self.substitute_choices:
            raise ValueError("substitute_choices must not be empty")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "ir_basis": self.ir_basis.value if self.ir_basis is not None else None,
            "substitute_policy": self.substitute_policy,
            "substitute_state": (
                self.substitute_state.name.lower() if self.substitute_state is not None else None
            ),
            "substitute_choices": [s.name.lower() for s in self.substitute_choices],
        }


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of a seeded session; two identical configs produce
    bit-identical transcripts."""

    pairs: int
    control_probability: float = 0.0
    check_kind: CheckKind = CheckKind.CHSH
    duplex: Duplex = Duplex.SEPARATE
    attack: AttackSpec = field(default_factory=AttackSpec)
    seed: int = 0
    settings: ChshSettings = DEFAULT_SETTINGS
    protocol: ProtocolKind = ProtocolKind.BASE

    def __post_init__(self) -> None:
        if self.pairs < 1:
            raise ConfigFieldError("pairs", f"pairs must be >= 1, got {self.pairs}")
        if not (0.0 <= self.control_probability < 1.0):
            raise ConfigFieldError(
                "control_probability",
                f"control probability must lie in [0, 1), got {self.control_probability}",
            )
        if not (0 <= self.seed < 2**64):
            raise ConfigFieldError("seed", "seed must be a 64-bit unsigned integer")

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol.value,
            "pairs": self.pairs,
            "control_probability": self.control_probability,
            "check": self.check_kind.value,
            "duplex": self.duplex.value,
            "attack": self.attack.to_dict(),
            "seed": self.seed,
            "settings": {
                "alice_angles": list(self.settings.alice_angles),
                "bob_angles": list(self.settings.bob_angles),
            },
        }
