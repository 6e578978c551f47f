"""Run configuration: dataclasses shared by the protocol runners, the attack
layer, and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quantum import ChshSettings
from .stream import STREAM_VERSION

__all__ = [
    "AttackKind",
    "CheckKind",
    "ConfigFieldError",
    "DEFAULT_SETTINGS",
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

@dataclass(frozen=True)
class SimulationConfig:
    """Full description of a seeded session; two identical configs produce
    bit-identical transcripts."""

    pairs: int
    control_probability: float = 0.0
    #: None resolves to CHSH for the base protocol and QBER for the
    #: four-state variant, whose control rounds are all error checks (CHSH
    #: is rejected there).
    check_kind: CheckKind | None = None
    attack: AttackKind = AttackKind.NONE
    seed: int = 0
    settings: ChshSettings = DEFAULT_SETTINGS
    protocol: ProtocolKind = ProtocolKind.BASE

    def __post_init__(self) -> None:
        modified = self.protocol is ProtocolKind.MODIFIED
        if self.check_kind is None:
            object.__setattr__(self, "check_kind", CheckKind.QBER if modified else CheckKind.CHSH)
        elif modified and self.check_kind is CheckKind.CHSH:
            raise ConfigFieldError(
                "check_kind", "the four-state variant runs no CHSH rounds; its control rounds are error checks"
            )
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
            "attack": self.attack.value,
            "seed": self.seed,
            "settings": {
                "alice_angles": list(self.settings.alice_angles),
                "bob_angles": list(self.settings.bob_angles),
            },
            "stream_version": STREAM_VERSION,
        }
