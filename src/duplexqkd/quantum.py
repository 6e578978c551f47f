"""Exact state algebra for small polarization-qubit systems (1 to 4 qubits).

Everything downstream (protocol runners, attacks, estimators) is built on the
handful of primitives here: Bell-state construction, tensor composition,
projective single-qubit measurement with collapse and Bell-basis
measurement, each collapse's decision as a :class:`Choice`.  The analytic
reference they are tested against (Pauli matrices, density matrices,
correlators, CHSH values) lives in ``tests/oracle.py``.

Conventions, fixed once and relied on everywhere:

* Computational basis: |H> maps to index 0 and |V> to index 1.  Multi-qubit
  amplitudes are ordered lexicographically (|HH>, |HV>, |VH>, |VV>, ...),
  with qubit 0 the leftmost slot.
* A planar observable with angle t is cos(t)*sigma_z + sin(t)*sigma_x; its
  +1/-1 eigenvectors are (cos t/2, sin t/2) and (-sin t/2, cos t/2), both
  real.  Angle 0 is the sigma_z measurement, pi/2 the sigma_x measurement.
* Collapsing operations take one uniform sample ``u`` in [0, 1) and are pure
  functions of (state, arguments, u).  Each one's decision is a
  :class:`Choice`, an interval table over [0, 1): the +1 branch is taken
  when u < P(+1); Bell outcomes are laid out cumulatively in the order
  psi+, psi-, phi+, phi-.
* Amplitudes are a tuple of Python ``complex``; a state never holds more
  than 16 of them, so the algebra is plain Python.
* Global phase is never observable, and nothing here compares states:
  the caches key on the state object, and the tests compare states up
  to phase through the oracle in ``tests/oracle.py``.

The collapsing primitives and :func:`tensor` are memoized with
:func:`functools.lru_cache`.  Their deterministic part is a pure function
of the state, the qubit indices and the angle; only the final branch choice
reads ``u``.  A state is immutable and every cached transition returns the
same state objects, so the caches key on the state object itself: an equal
state held by another object gets its own entry, with bit-identical
contents.  A session only ever reaches a small fixed set of states (a few
dozen to a few hundred transitions), so each transition is computed once
and then looked up.  The cached results are built with the same arithmetic
in the same order as an uncached call, so outputs are bit-identical; each
cache keeps at most ``_CACHE_CAP`` entries and drops the least recently
used one, so memory stays bounded for any input.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from functools import lru_cache

from .values import value

__all__ = [
    "ATOL_ALGEBRA",
    "BELL_ORDER",
    "MAX_QUBITS",
    "Basis",
    "BellStateId",
    "CapacityError",
    "ChshSettings",
    "Choice",
    "Outcome",
    "PauliOp",
    "PlanarObservable",
    "PureState",
    "bell_choice",
    "bell_measure",
    "bell_state",
    "measure_choice",
    "measure_qubit",
    "tensor",
]

MAX_QUBITS = 4

# A state's squared norm is 1 within 1e-12.
ATOL_ALGEBRA = 1e-12

#: Measurement outcome: always +1 or -1.
Outcome = int


class CapacityError(ValueError):
    """Raised when an operation would exceed the 4-qubit capacity."""


class BellStateId(Enum):
    """The four Bell states; enum values are the two-bit encodings used by
    the four-state protocol variant (psi+ = 00, psi- = 01, phi+ = 10,
    phi- = 11)."""

    PSI_PLUS = 0b00
    PSI_MINUS = 0b01
    PHI_PLUS = 0b10
    PHI_MINUS = 0b11

    @property
    def bits(self) -> int:
        return self.value


#: Canonical enumeration order; also the cumulative layout for sampling in
#: :func:`bell_measure`.
BELL_ORDER: tuple[BellStateId, ...] = tuple(BellStateId)


class PauliOp(Enum):
    SIGMA0 = 0
    SIGMA1 = 1
    SIGMA2 = 2
    SIGMA3 = 3


@value
class PlanarObservable:
    """A +-1-valued observable in the sigma_z / sigma_x plane.

    ``angle`` is stored reduced into [0, 2*pi).
    """

    angle: float

    def __post_init__(self) -> None:
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ValueError(f"observable angle must be finite, got {angle}")
        object.__setattr__(self, "angle", angle % (2.0 * math.pi))


class Basis(Enum):
    """The two measurement bases of the base protocol.

    X is the sigma_x (diagonal polarization) measurement, Z the sigma_z
    (rectilinear) one.
    """

    X = "x"
    Z = "z"

    @property
    def observable(self) -> PlanarObservable:
        return _BASIS_OBSERVABLES[self]


_BASIS_OBSERVABLES: dict[Basis, PlanarObservable] = {
    Basis.X: PlanarObservable(0.5 * math.pi),
    Basis.Z: PlanarObservable(0.0),
}


@value
class ChshSettings:
    """Measurement angles for CHSH testing: Alice's pair (a1_1, a1_2) and
    Bob's pair (a2_1, a2_2), all in radians."""

    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice_angles", tuple(float(a) for a in self.alice_angles))
        object.__setattr__(self, "bob_angles", tuple(float(a) for a in self.bob_angles))
        if len(self.alice_angles) != 2 or len(self.bob_angles) != 2:
            raise ValueError("ChshSettings needs exactly two angles per party")
        if not all(map(math.isfinite, self.alice_angles + self.bob_angles)):
            raise ValueError("CHSH angles must be finite")


class PureState:
    """Normalized complex amplitude vector over 1..4 qubits.

    Instances are immutable; the amplitudes are a tuple of ``complex``.  The
    squared norm is 1 within 1e-12 after construction and after every
    collapse.
    """

    __slots__ = ("amplitudes", "num_qubits")

    amplitudes: tuple[complex, ...]
    num_qubits: int

    def __init__(self, amplitudes) -> None:
        if isinstance(amplitudes, str):
            raise ValueError(f"amplitudes must be numbers, not the string {amplitudes!r}")
        amps = tuple(map(complex, amplitudes))
        n = len(amps).bit_length() - 1
        if len(amps) != (1 << n) or not (1 <= n <= MAX_QUBITS):
            raise ValueError(
                f"amplitude vector of length {len(amps)} does not describe "
                f"1..{MAX_QUBITS} qubits"
            )
        norm_sq = sum(a.real * a.real + a.imag * a.imag for a in amps)
        if not abs(norm_sq - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    @classmethod
    def _wrap(cls, amps: tuple[complex, ...], num_qubits: int) -> "PureState":
        # Internal fast path: caller guarantees normalization.
        self = object.__new__(cls)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", num_qubits)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PureState is immutable")

    def __repr__(self) -> str:
        return f"PureState({self.num_qubits} qubits, ({', '.join(f'{a:.6f}' for a in self.amplitudes)}))"


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_BELL_STATES: dict[BellStateId, PureState] = {
    BellStateId.PSI_PLUS: PureState((0, _SQRT_HALF, _SQRT_HALF, 0)),
    BellStateId.PSI_MINUS: PureState((0, _SQRT_HALF, -_SQRT_HALF, 0)),
    BellStateId.PHI_PLUS: PureState((_SQRT_HALF, 0, 0, _SQRT_HALF)),
    BellStateId.PHI_MINUS: PureState((_SQRT_HALF, 0, 0, -_SQRT_HALF)),
}


def bell_state(state_id: BellStateId) -> PureState:
    """The two-qubit Bell state, in the fixed |HH>,|HV>,|VH>,|VV> ordering.

    psi+- = (|HV> +- |VH>)/sqrt(2), phi+- = (|HH> +- |VV>)/sqrt(2).  Each
    call returns the same prebuilt instance.
    """
    return _BELL_STATES[state_id]


class Choice:
    """One decision on a uniform draw ``u`` in [0, 1), as an interval table.

    ``cuts`` is non-decreasing and ``branches`` has one more entry; ``u``
    selects ``branches[i]``, where ``i`` counts the cuts at or below ``u``
    (so branch 0 covers u < cuts[0]).  The table is kept in its smallest
    form: a cut no ``u`` can lie below (<= 0) or reach (>= 1) is dropped
    with the branches it makes unreachable, and neighbouring intervals with
    equal branches are merged.  A choice without cuts has one branch and
    does not depend on ``u``.
    """

    __slots__ = ("cuts", "branches")

    def __init__(self, cuts, branches) -> None:
        cuts, branches = tuple(cuts), tuple(branches)
        if len(branches) != len(cuts) + 1:
            raise ValueError(f"{len(cuts)} cuts need {len(cuts) + 1} branches, got {len(branches)}")
        kept_cuts: list[float] = []
        kept = [branches[0]]
        for cut, branch in zip(cuts, branches[1:]):
            if cut <= 0.0:
                kept_cuts, kept = [], [branch]
            elif cut >= 1.0:
                break
            elif branch != kept[-1]:
                kept_cuts.append(cut)
                kept.append(branch)
        self.cuts = tuple(kept_cuts)
        self.branches = tuple(kept)

    @classmethod
    def uniform(cls, branches) -> "Choice":
        """Each branch with probability 1/n; for n a power of two, branch
        ``floor(u * n)``."""
        n = len(branches)
        return cls((k / n for k in range(1, n)), branches)

    def pick(self, u: float):
        return self.branches[bisect_right(self.cuts, u)]


# ---------------------------------------------------------------------------
# Transition caches.  Keys hold the state objects themselves (a state is
# immutable, and hashes and compares by identity), so a hit means the same
# input.  A CLI session fills at most a few hundred entries per cache; the
# cap only bounds memory on arbitrary inputs.

_CACHE_CAP = 4096


@lru_cache(maxsize=_CACHE_CAP)
def _product(a: PureState, b: PureState) -> PureState:
    return PureState._wrap(tuple(x * y for x in a.amplitudes for y in b.amplitudes), a.num_qubits + b.num_qubits)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; b's qubits are appended after a's."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit capacity")
    return _product(a, b)


def _check_qubit(state: PureState, qubit: int) -> None:
    if not (0 <= qubit < state.num_qubits):
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _collapsed(
    pairs: list[tuple[int, int]], coeffs: list[complex], norm_sq: float, u0: float, u1: float, n: int
) -> PureState:
    # The addressed qubit left in eigenvector (u0, u1), the rest renormalized.
    scale = 1.0 / math.sqrt(norm_sq)
    out = [0j] * (1 << n)
    for (i0, i1), coeff in zip(pairs, coeffs):
        q = coeff * scale
        out[i0] = u0 * q
        out[i1] = u1 * q
    return PureState._wrap(tuple(out), n)


@lru_cache(maxsize=_CACHE_CAP)
def _measure_transition(state: PureState, qubit: int, angle: float) -> Choice:
    """The decision of a planar measurement: +1 with its collapsed state for
    u < P(+1), else -1 with its own.  A branch whose probability is below
    ``_MIN_BRANCH`` is never taken and its state never built, so rounding
    of the Born sums cannot pick an impossible branch (not even at u = 0)
    and nothing divides by zero."""
    n = state.num_qubits
    amps = state.amplitudes
    right = 1 << (n - 1 - qubit)  # stride of the addressed qubit's bit
    block = right << 1
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    pairs: list[tuple[int, int]] = []
    coeff_plus: list[complex] = []
    coeff_minus: list[complex] = []
    p_plus = 0.0
    p_minus = 0.0
    for base in range(0, 1 << n, block):
        for offset in range(base, base + right):
            pairs.append((offset, offset + right))
            cp = c * amps[offset] + s * amps[offset + right]
            cm = -s * amps[offset] + c * amps[offset + right]
            coeff_plus.append(cp)
            coeff_minus.append(cm)
            p_plus += cp.real * cp.real + cp.imag * cp.imag
            p_minus += cm.real * cm.real + cm.imag * cm.imag
    minus = (-1, _collapsed(pairs, coeff_minus, p_minus, -s, c, n)) if p_minus >= _MIN_BRANCH else None
    if p_plus < _MIN_BRANCH:
        return Choice((), (minus,))
    plus = (+1, _collapsed(pairs, coeff_plus, p_plus, c, s, n))
    if minus is None:
        return Choice((), (plus,))
    return Choice((p_plus,), (plus, minus))


def measure_choice(state: PureState, qubit: int, obs: PlanarObservable) -> Choice:
    """The decision a measurement of ``qubit`` with ``obs`` makes, as a
    :class:`Choice` over ``(outcome, collapsed state)``; computed once per
    (state object, qubit, angle) and cached, so repeated calls return the
    same table and the same state objects."""
    _check_qubit(state, qubit)
    # PlanarObservable reduces its angle into [0, 2*pi), never -0.0 or NaN,
    # so float equality of angles is bit equality.
    return _measure_transition(state, qubit, obs.angle)


def measure_qubit(
    state: PureState, qubit: int, obs: PlanarObservable, rand: float
) -> tuple[Outcome, PureState]:
    """Projectively measure one qubit; returns (outcome, collapsed state).

    The outcome is sampled by the Born rule from the +-1 eigenprojectors of
    ``obs`` on the addressed qubit: +1 iff ``rand`` < P(+1).  The returned
    state keeps all qubits, with the measured one left in the eigenstate.
    This is ``measure_choice(state, qubit, obs).pick(rand)``.
    """
    choice = measure_choice(state, qubit, obs)
    if not (0.0 <= rand < 1.0):
        raise ValueError("rand must lie in [0, 1)")
    return choice.pick(rand)


# Probability below which a measurement branch is treated as impossible and
# never selected (protects renormalization from rounding of the Born sums).
_MIN_BRANCH = 1e-15


@lru_cache(maxsize=_CACHE_CAP)
def _bell_transition(state: PureState, qubit_a: int, qubit_b: int) -> Choice:
    """The decision of a Bell measurement over ``(outcome, residual)``.
    Outcomes are laid out cumulatively in BELL_ORDER; an outcome below
    ``_MIN_BRANCH``, and any ``u`` past the last cumulative sum (rounding),
    selects the most likely outcome instead.  The residual keeps the
    surviving qubits in their original relative order (None for a two-qubit
    input)."""
    n = state.num_qubits
    amps = state.amplitudes
    sa = 1 << (n - 1 - qubit_a)
    sb = 1 << (n - 1 - qubit_b)
    both = sa | sb
    coeffs: list[list[complex]] = [[], [], [], []]
    probs = [0.0, 0.0, 0.0, 0.0]
    for rest in range(1 << n):
        if rest & both:
            continue
        a00 = amps[rest]
        a01 = amps[rest | sb]
        a10 = amps[rest | sa]
        a11 = amps[rest | both]
        for slot, c in enumerate(
            (
                (a01 + a10) * _SQRT_HALF,  # psi+
                (a01 - a10) * _SQRT_HALF,  # psi-
                (a00 + a11) * _SQRT_HALF,  # phi+
                (a00 - a11) * _SQRT_HALF,  # phi-
            )
        ):
            coeffs[slot].append(c)
            probs[slot] += c.real * c.real + c.imag * c.imag
    outcomes = []
    for slot, p in enumerate(probs):
        residual = None
        if n > 2 and p >= _MIN_BRANCH:
            scale = 1.0 / math.sqrt(p)
            residual = PureState._wrap(tuple(c * scale for c in coeffs[slot]), n - 2)
        outcomes.append((BELL_ORDER[slot], residual))
    likeliest = outcomes[max(range(4), key=probs.__getitem__)]
    cuts = []
    acc = 0.0
    for p in probs:
        acc += p
        cuts.append(acc)
    branches = [outcome if p >= _MIN_BRANCH else likeliest for outcome, p in zip(outcomes, probs)]
    return Choice(cuts, branches + [likeliest])


def bell_choice(state: PureState, qubit_a: int, qubit_b: int) -> Choice:
    """The decision a Bell measurement of the addressed pair makes, as a
    :class:`Choice` over ``(outcome, residual)``; cached per (state object,
    qubit_a, qubit_b)."""
    if qubit_a == qubit_b:
        raise IndexError("bell measurement needs two distinct qubits")
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    return _bell_transition(state, qubit_a, qubit_b)


def bell_measure(
    state: PureState, qubit_a: int, qubit_b: int, rand: float
) -> tuple[BellStateId, PureState | None]:
    """Project the addressed pair onto the Bell basis.

    Returns the sampled outcome and the renormalized residual state of the
    remaining qubits (None when the input had only the measured pair).  The
    residual keeps the surviving qubits in their original relative order.
    This is ``bell_choice(state, qubit_a, qubit_b).pick(rand)``.
    """
    choice = bell_choice(state, qubit_a, qubit_b)
    if not (0.0 <= rand < 1.0):
        raise ValueError("rand must lie in [0, 1)")
    return choice.pick(rand)
