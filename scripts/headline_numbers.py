#!/usr/bin/env python3
"""Reproduce the headline figures in one run: clean-channel decoding and
CHSH violation, detection rates under each attack, the swap attack's flat
Bell mixture, the four-state variant, efficiencies, and evasion decay.

Usage: python scripts/headline_numbers.py [--pairs N] [--seed S]
"""

import argparse
import math
from collections import Counter

from duplexqkd import (
    AttackKind,
    BellStateId,
    CheckKind,
    Mode,
    ProtocolKind,
    SimulationConfig,
    build_report,
    efficiency_table,
    estimate_chsh,
    estimate_qber,
    evasion_probability,
    run_session,
)


def fmt(value, digits=4):
    return "n/a" if value is None else f"{value:.{digits}f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=40_000, help="pairs per session")
    parser.add_argument("--seed", type=int, default=1, help="base seed")
    args = parser.parse_args()
    pairs, seed = args.pairs, args.seed

    print(f"sessions of {pairs} pairs, seed {seed}\n")

    config = SimulationConfig(pairs=pairs, control_probability=0.0, seed=seed)
    report = build_report(run_session(config), config)
    print("clean channel, message mode:")
    print(f"  decode accuracy  alice={fmt(report.decode_accuracy_alice)}  bob={fmt(report.decode_accuracy_bob)}")

    config = SimulationConfig(pairs=pairs, control_probability=0.5, check_kind=CheckKind.CHSH, seed=seed)
    estimate = estimate_chsh(run_session(config), config.settings)
    print("clean channel, CHSH control mode (target |S| = 2*sqrt(2) = %.4f):" % (2 * math.sqrt(2)))
    for state, bin_ in sorted(estimate.per_state.items(), key=lambda kv: kv[0].bits):
        print(f"  {state.name.lower():<10} S_hat={bin_.s_hat:+.4f} +- {bin_.stderr:.4f}")

    for kind, label in [
        (AttackKind.INTERCEPT_RESEND, "intercept-resend"),
        (AttackKind.QMM_SUBSTITUTE, "pair substitution"),
    ]:
        config = SimulationConfig(
            pairs=pairs, control_probability=0.5, check_kind=CheckKind.QBER,
            attack=kind, seed=seed,
        )
        stats = estimate_qber(run_session(config))
        print(f"{label}, error-check control mode:")
        print(f"  d_hat={fmt(stats.d_hat)}  ({stats.errors}/{stats.checks} checks failed)")

    config = SimulationConfig(
        pairs=pairs, control_probability=0.5, check_kind=CheckKind.CHSH,
        attack=AttackKind.INTERCEPT_RESEND, seed=seed,
    )
    estimate = estimate_chsh(run_session(config), config.settings)
    print("intercept-resend, CHSH control mode (separable bound |S| <= 2):")
    for state, bin_ in sorted(estimate.per_state.items(), key=lambda kv: kv[0].bits):
        print(f"  {state.name.lower():<10} S_hat={bin_.s_hat:+.4f} +- {bin_.stderr:.4f}")

    config = SimulationConfig(
        pairs=pairs, control_probability=0.5, check_kind=CheckKind.CHSH,
        attack=AttackKind.QMM_SWAP, seed=seed,
    )
    records = list(run_session(config))  # read twice below
    estimate = estimate_chsh(records, config.settings)
    print("entanglement-swap attack, CHSH control mode (flat mixture, S = 0):")
    for state, bin_ in sorted(estimate.per_state.items(), key=lambda kv: kv[0].bits):
        print(f"  {state.name.lower():<10} S_hat={bin_.s_hat:+.4f} +- {bin_.stderr:.4f}")
    control = [r for r in records if r.mode is Mode.CONTROL_CHSH]
    outcomes = Counter(r.eve_log.bell_outcome for r in control)
    freq = " ".join(
        f"{state.name.lower()}={outcomes.get(state, 0) / len(control):.3f}" for state in BellStateId
    )
    print(f"  swap outcomes: {freq}")

    config = SimulationConfig(
        pairs=pairs, control_probability=0.2, protocol=ProtocolKind.MODIFIED, seed=seed,
    )
    report = build_report(run_session(config), config)
    print("four-state variant, clean channel:")
    print(
        f"  decode accuracy  alice={fmt(report.decode_accuracy_alice)}  "
        f"bob={fmt(report.decode_accuracy_bob)}  control d_hat={fmt(report.detection.d_hat)}"
    )

    print("secret-bit efficiencies (exact):")
    for name, value in efficiency_table().items():
        print(f"  {name:<13} {value}")

    print("evasion probability P(C, d, n), C=0.2:")
    for d in (0.25, 0.5):
        row = "  ".join(f"n={n}:{evasion_probability(0.2, d, n):.3f}" for n in (1, 5, 10, 20, 50))
        print(f"  d={d:.2f}  {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
