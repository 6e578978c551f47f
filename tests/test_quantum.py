"""Tests for the statevector core, and for the analytic oracle in ``oracle.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_product_state, random_pure_state
from duplexqkd import quantum
from duplexqkd.quantum import (
    BELL_ORDER,
    Basis,
    BellStateId,
    CapacityError,
    ChshSettings,
    Choice,
    PauliOp,
    PlanarObservable,
    PureState,
    bell_measure,
    bell_state,
    measure_qubit,
    tensor,
)
from oracle import (
    TwoQubitDensity,
    apply_pauli,
    bell_outcome_probabilities,
    chsh_value,
    correlator,
    equal_up_to_phase,
    identify_bell,
    ket,
    mix,
    observable_matrix,
    pauli_matrix,
    vector,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
DEFAULT = ChshSettings((0.0, math.pi / 2), (3 * math.pi / 4, math.pi / 4))

angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Bell states and tensor products


def test_bell_state_amplitudes():
    np.testing.assert_allclose(
        bell_state(BellStateId.PSI_PLUS).amplitudes, [0, SQRT_HALF, SQRT_HALF, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        bell_state(BellStateId.PHI_MINUS).amplitudes, [SQRT_HALF, 0, 0, -SQRT_HALF], atol=1e-15
    )
    np.testing.assert_allclose(
        bell_state(BellStateId.PHI_PLUS).amplitudes, [SQRT_HALF, 0, 0, SQRT_HALF], atol=1e-15
    )
    np.testing.assert_allclose(
        bell_state(BellStateId.PSI_MINUS).amplitudes, [0, SQRT_HALF, -SQRT_HALF, 0], atol=1e-15
    )


def test_tensor_basis_kets():
    np.testing.assert_allclose(tensor(ket("H"), ket("V")).amplitudes, [0, 1, 0, 0])
    assert tensor(ket("H"), ket("V")).num_qubits == 2


def test_tensor_two_bell_pairs_matches_kron_oracle():
    a = bell_state(BellStateId.PSI_PLUS)
    got = tensor(a, a).amplitudes
    expected = np.kron(a.amplitudes, a.amplitudes)
    np.testing.assert_allclose(got, expected, atol=1e-15)
    nonzero = np.flatnonzero(np.abs(expected) > 1e-12)
    assert len(nonzero) == 4
    np.testing.assert_allclose(expected[nonzero], 0.5)


def test_tensor_capacity_error():
    two = bell_state(BellStateId.PSI_PLUS)
    with pytest.raises(CapacityError):
        tensor(tensor(two, two), ket("H"))


@given(seeds, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2))
def test_tensor_preserves_normalization(seed, na, nb):
    rng = np.random.default_rng(seed)
    t = tensor(random_pure_state(rng, na), random_pure_state(rng, nb))
    assert abs(np.linalg.norm(t.amplitudes) - 1.0) < 1e-12


def test_pure_state_rejects_unnormalized_and_oversized():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError):
        PureState([0.5] * 3)
    with pytest.raises(ValueError):
        PureState([1.0] + [0.0] * 31)
    with pytest.raises(ValueError):
        PureState([math.nan, 0.0])
    with pytest.raises(ValueError, match="not the string"):
        PureState("10")


# ---------------------------------------------------------------------------
# Projective measurement


def test_measure_eigenstate_is_deterministic():
    for rand in (0.0, 0.3, 0.999):
        outcome, post = measure_qubit(ket("H"), 0, PlanarObservable(0.0), rand)
        assert outcome == +1
        assert equal_up_to_phase(post, ket("H"))


def test_measure_psi_plus_collapses_partner():
    # H on one wing forces V on the other.
    outcome, post = measure_qubit(bell_state(BellStateId.PSI_PLUS), 0, PlanarObservable(0.0), 0.2)
    assert outcome == +1
    assert equal_up_to_phase(post, ket("HV"))
    outcome, post = measure_qubit(bell_state(BellStateId.PSI_PLUS), 0, PlanarObservable(0.0), 0.7)
    assert outcome == -1
    assert equal_up_to_phase(post, ket("VH"))


# Deterministic outcome products when both halves are read in the same basis.
SIGNATURES = {
    (BellStateId.PSI_PLUS, Basis.X): +1,
    (BellStateId.PSI_PLUS, Basis.Z): -1,
    (BellStateId.PSI_MINUS, Basis.X): -1,
    (BellStateId.PSI_MINUS, Basis.Z): -1,
    (BellStateId.PHI_PLUS, Basis.X): +1,
    (BellStateId.PHI_PLUS, Basis.Z): +1,
    (BellStateId.PHI_MINUS, Basis.X): -1,
    (BellStateId.PHI_MINUS, Basis.Z): +1,
}


def test_signature_table_matches_matrix_oracle():
    # <B| (O x O) |B> must be exactly the tabulated +-1 eigenvalue.
    for (state_id, basis), expected in SIGNATURES.items():
        obs = observable_matrix(basis.observable)
        vec = bell_state(state_id).amplitudes
        eig = np.vdot(vec, np.kron(obs, obs) @ vec).real
        assert abs(eig - expected) < 1e-12


@pytest.mark.parametrize("state_id", list(BellStateId))
@pytest.mark.parametrize("basis", list(Basis))
def test_same_basis_products_are_deterministic(state_id, basis):
    rng = np.random.default_rng(hash((state_id.value, basis.value)) % 2**32)
    expected = SIGNATURES[(state_id, basis)]
    for _ in range(2000):
        o1, post = measure_qubit(bell_state(state_id), 0, basis.observable, rng.random())
        o2, _ = measure_qubit(post, 1, basis.observable, rng.random())
        assert o1 * o2 == expected


def test_measure_is_deterministic_given_rand():
    state = bell_state(BellStateId.PHI_PLUS)
    a = measure_qubit(state, 0, PlanarObservable(1.1), 0.37)
    b = measure_qubit(state, 0, PlanarObservable(1.1), 0.37)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1].amplitudes, b[1].amplitudes)


def test_measure_validates_arguments():
    with pytest.raises(IndexError):
        measure_qubit(ket("H"), 1, PlanarObservable(0.0), 0.5)
    with pytest.raises(ValueError):
        measure_qubit(ket("H"), 0, PlanarObservable(0.0), 1.0)


@given(seeds, angles, angles)
@settings(max_examples=60, deadline=None)
def test_monte_carlo_correlator_consistency(seed, a, b):
    # Empirical product average from sampling must track the analytic value
    # within 4/sqrt(N).
    rng = np.random.default_rng(seed)
    state = bell_state(BellStateId.PSI_PLUS)
    obs_a, obs_b = PlanarObservable(a), PlanarObservable(b)
    n = 800
    total = 0
    for _ in range(n):
        o1, post = measure_qubit(state, 0, obs_a, rng.random())
        o2, _ = measure_qubit(post, 1, obs_b, rng.random())
        total += o1 * o2
    analytic = correlator(TwoQubitDensity.from_pure(state), obs_a, obs_b)
    assert abs(total / n - analytic) <= 4 / math.sqrt(n)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_collapse_keeps_unit_norm(seed):
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, int(rng.integers(1, 5)))
    for _ in range(3):
        _, state = measure_qubit(
            state, int(rng.integers(state.num_qubits)), PlanarObservable(rng.uniform(0, 2 * math.pi)),
            rng.random(),
        )
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Pauli application


def _pauli_oracle(state_id: BellStateId, op: PauliOp) -> np.ndarray:
    """Independent 4x4 matrix-multiplication oracle for Paulis on qubit 0."""
    return np.kron(pauli_matrix(op), np.eye(2)) @ bell_state(state_id).amplitudes


def test_apply_pauli_identity():
    got = apply_pauli(bell_state(BellStateId.PSI_PLUS), 0, PauliOp.SIGMA0)
    np.testing.assert_array_equal(got.amplitudes, bell_state(BellStateId.PSI_PLUS).amplitudes)


@pytest.mark.parametrize(
    "op,expected",
    [
        (PauliOp.SIGMA1, BellStateId.PHI_PLUS),
        (PauliOp.SIGMA3, BellStateId.PSI_MINUS),
        (PauliOp.SIGMA2, BellStateId.PHI_MINUS),
    ],
)
def test_apply_pauli_on_psi_plus(op, expected):
    got = apply_pauli(bell_state(BellStateId.PSI_PLUS), 0, op)
    oracle = _pauli_oracle(BellStateId.PSI_PLUS, op)
    assert abs(abs(np.vdot(oracle, got.amplitudes)) - 1.0) < 1e-12
    assert identify_bell(got) == expected


def test_pauli_bell_closure():
    # Each Pauli permutes the Bell states; the orbit of every state under
    # all four operators covers the Bell basis exactly once.
    for state_id in BellStateId:
        reached = set()
        for op in PauliOp:
            got = apply_pauli(bell_state(state_id), 0, op)
            oracle = _pauli_oracle(state_id, op)
            assert abs(abs(np.vdot(oracle, got.amplitudes)) - 1.0) < 1e-12
            target = identify_bell(got)
            assert target is not None
            reached.add(target)
        assert reached == set(BellStateId)


def test_apply_pauli_index_error():
    with pytest.raises(IndexError):
        apply_pauli(ket("H"), 2, PauliOp.SIGMA1)


# ---------------------------------------------------------------------------
# Bell measurement


@pytest.mark.parametrize("state_id", list(BellStateId))
def test_bell_measure_eigenstate(state_id):
    for rand in (0.0, 0.5, 0.99):
        outcome, residual = bell_measure(bell_state(state_id), 0, 1, rand)
        assert outcome == state_id
        assert residual is None


def test_bell_measure_probabilities_complete():
    probs = bell_outcome_probabilities(bell_state(BellStateId.PHI_MINUS), 0, 1)
    assert probs[BellStateId.PHI_MINUS] == pytest.approx(1.0, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


@given(seeds, st.integers(min_value=2, max_value=4))
@settings(max_examples=80, deadline=None)
def test_bell_outcome_distribution_sums_to_one(seed, n):
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, n)
    qa, qb = rng.choice(n, size=2, replace=False)
    probs = bell_outcome_probabilities(state, int(qa), int(qb))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_entanglement_swap_identity():
    # Measuring the inner pair (1,2) of psi+ x psi+ leaves the outer pair
    # (0,3) in the same Bell state as the observed outcome, each outcome
    # appearing with probability 1/4.  Verified against the 16-amplitude
    # projector oracle.
    joint = tensor(bell_state(BellStateId.PSI_PLUS), bell_state(BellStateId.PSI_PLUS))
    probs = bell_outcome_probabilities(joint, 1, 2)
    for p in probs.values():
        assert p == pytest.approx(0.25, abs=1e-12)

    vec = vector(joint).reshape(2, 2, 2, 2)
    for i, expected in enumerate(BELL_ORDER):
        outcome, residual = bell_measure(joint, 1, 2, (i + 0.5) / 4)
        assert outcome == expected
        # Projector oracle: contract <B|_{12} against the joint tensor.
        b = vector(bell_state(expected)).reshape(2, 2).conj()
        resid_oracle = np.einsum("ijkl,jk->il", vec, b).reshape(-1)
        resid_oracle = resid_oracle / np.linalg.norm(resid_oracle)
        assert abs(abs(np.vdot(resid_oracle, residual.amplitudes)) - 1.0) < 1e-12
        assert identify_bell(residual) == expected


def test_bell_measure_validates_indices():
    with pytest.raises(IndexError):
        bell_measure(bell_state(BellStateId.PSI_PLUS), 0, 0, 0.5)
    with pytest.raises(IndexError):
        bell_measure(bell_state(BellStateId.PSI_PLUS), 0, 2, 0.5)


@pytest.mark.parametrize("rand", [-0.25, 1.0, math.nan])
def test_bell_measure_validates_rand(rand):
    with pytest.raises(ValueError, match="rand must lie in"):
        bell_measure(bell_state(BellStateId.PSI_PLUS), 0, 1, rand)


@pytest.mark.parametrize("branches", [("a",), ("a", "b", "c")])
def test_choice_needs_one_branch_more_than_cuts(branches):
    with pytest.raises(ValueError, match="1 cuts need 2 branches"):
        Choice((0.5,), branches)


# ---------------------------------------------------------------------------
# Density matrices, correlators, CHSH


def test_mix_singleton_is_identity():
    rho = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    np.testing.assert_allclose(mix([(1.0, rho)]).matrix, rho.matrix, atol=1e-15)


def test_mix_equal_bell_mixture():
    rho = mix(
        [
            (0.5, TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))),
            (0.5, TwoQubitDensity.from_pure(bell_state(BellStateId.PHI_MINUS))),
        ]
    )
    expected = 0.5 * np.outer(
        vector(bell_state(BellStateId.PSI_PLUS)),
        vector(bell_state(BellStateId.PSI_PLUS)).conj(),
    ) + 0.5 * np.outer(
        vector(bell_state(BellStateId.PHI_MINUS)),
        vector(bell_state(BellStateId.PHI_MINUS)).conj(),
    )
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_mix_rejects_malformed_weights():
    rho = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    with pytest.raises(ValueError):
        mix([(0.7, rho), (0.2, rho)])
    with pytest.raises(ValueError):
        mix([(1.5, rho), (-0.5, rho)])
    with pytest.raises(ValueError):
        mix([])


def test_density_validation():
    with pytest.raises(ValueError):
        TwoQubitDensity(np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError):
        TwoQubitDensity(bad)
    neg = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        TwoQubitDensity(neg)


@given(angles, angles)
def test_correlator_psi_plus_is_minus_cos_sum(a, b):
    # Symbolic-expansion oracle: <sz sz> = -1, <sx sx> = +1, cross terms 0,
    # so E(a, b) = -cos a cos b + sin a sin b = -cos(a + b).
    rho = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    got = correlator(rho, PlanarObservable(a), PlanarObservable(b))
    assert got == pytest.approx(-math.cos(a + b), abs=1e-12)


def test_correlator_sigma_x_pair_on_psi_plus():
    rho = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    half_pi = math.pi / 2
    assert correlator(rho, PlanarObservable(half_pi), PlanarObservable(half_pi)) == pytest.approx(
        1.0, abs=1e-12
    )


@given(angles, angles)
def test_correlator_vanishes_on_equal_bell_mixture(a, b):
    # The psi+ and phi- correlators are -cos(a+b) and +cos(a+b): they cancel.
    rho = mix(
        [
            (0.5, TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))),
            (0.5, TwoQubitDensity.from_pure(bell_state(BellStateId.PHI_MINUS))),
        ]
    )
    assert correlator(rho, PlanarObservable(a), PlanarObservable(b)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_chsh_values():
    rho_psi = TwoQubitDensity.from_pure(bell_state(BellStateId.PSI_PLUS))
    assert chsh_value(rho_psi, DEFAULT) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    rho_phi = TwoQubitDensity.from_pure(bell_state(BellStateId.PHI_MINUS))
    assert chsh_value(rho_phi, DEFAULT) == pytest.approx(-2 * math.sqrt(2), abs=1e-9)

    mixture = mix([(0.5, rho_psi), (0.5, rho_phi)])
    rng = np.random.default_rng(7)
    for _ in range(25):
        settings_ = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
        assert chsh_value(mixture, settings_) == pytest.approx(0.0, abs=1e-12)

    rho_hh = TwoQubitDensity.from_pure(ket("HH"))
    assert chsh_value(rho_hh, ChshSettings((0.0, 0.0), (0.0, 0.0))) == pytest.approx(2.0, abs=1e-12)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_tsirelson_bound(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    settings_ = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
    assert abs(chsh_value(rho, settings_)) <= 2 * math.sqrt(2) + 1e-9


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_separable_bound(seed):
    rng = np.random.default_rng(seed)
    rho = TwoQubitDensity.from_pure(random_product_state(rng))
    settings_ = ChshSettings(tuple(rng.uniform(0, 2 * math.pi, 2)), tuple(rng.uniform(0, 2 * math.pi, 2)))
    assert abs(chsh_value(rho, settings_)) <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# Helpers


def test_equal_up_to_phase():
    psi = bell_state(BellStateId.PSI_PLUS)
    rotated = PureState(vector(psi) * np.exp(1j * 0.83))
    assert equal_up_to_phase(psi, rotated)
    assert not equal_up_to_phase(psi, bell_state(BellStateId.PHI_MINUS))
    assert not equal_up_to_phase(psi, ket("H"))


def test_identify_bell_rejects_non_bell():
    assert identify_bell(ket("HV")) is None
    assert identify_bell(ket("H")) is None


def test_basis_angles():
    assert Basis.Z.observable.angle == 0.0
    assert Basis.X.observable.angle == pytest.approx(math.pi / 2)
    assert observable_matrix(Basis.Z.observable)[0, 0] == 1.0 + 0j


# ---------------------------------------------------------------------------
# Transition caches: exact against the uncached arithmetic, and bounded

_MIN_BRANCH = 1e-15


def _oracle_measure(state, qubit, obs, rand):
    """The uncached measure_qubit arithmetic, kept as the reference."""
    n = state.num_qubits
    amps = state.amplitudes
    dim = 1 << n
    right = 1 << (n - 1 - qubit)
    block = right << 1
    half = 0.5 * obs.angle
    c, s = math.cos(half), math.sin(half)
    pairs = []
    coeff_plus = []
    p_plus = 0.0
    for base in range(0, dim, block):
        for offset in range(base, base + right):
            pair = (offset, offset + right)
            cp = c * amps[offset] + s * amps[offset + right]
            pairs.append(pair)
            coeff_plus.append(cp)
            p_plus += cp.real * cp.real + cp.imag * cp.imag
    take_plus = rand < p_plus and p_plus >= _MIN_BRANCH
    coeff_minus = []
    if not take_plus:
        p_minus = 0.0
        for i0, i1 in pairs:
            cm = -s * amps[i0] + c * amps[i1]
            coeff_minus.append(cm)
            p_minus += cm.real * cm.real + cm.imag * cm.imag
        if p_minus < _MIN_BRANCH:
            take_plus = True
    out = [0j] * dim
    if take_plus:
        outcome = +1
        scale = 1.0 / math.sqrt(p_plus)
        for (i0, i1), cp in zip(pairs, coeff_plus):
            q = cp * scale
            out[i0] = c * q
            out[i1] = s * q
    else:
        outcome = -1
        scale = 1.0 / math.sqrt(p_minus)
        for (i0, i1), cm in zip(pairs, coeff_minus):
            q = cm * scale
            out[i0] = -s * q
            out[i1] = c * q
    return outcome, out, p_plus


def _oracle_bell_coefficients(state, qubit_a, qubit_b):
    n = state.num_qubits
    amps = state.amplitudes
    sa = 1 << (n - 1 - qubit_a)
    sb = 1 << (n - 1 - qubit_b)
    both = sa | sb
    coeffs = [[], [], [], []]
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
                (a01 + a10) * SQRT_HALF,
                (a01 - a10) * SQRT_HALF,
                (a00 + a11) * SQRT_HALF,
                (a00 - a11) * SQRT_HALF,
            )
        ):
            coeffs[slot].append(c)
            probs[slot] += c.real * c.real + c.imag * c.imag
    return coeffs, probs


def _oracle_bell_measure(state, qubit_a, qubit_b, rand):
    """The uncached bell_measure arithmetic, kept as the reference."""
    coeffs, probs = _oracle_bell_coefficients(state, qubit_a, qubit_b)
    acc = 0.0
    chosen = -1
    for i, p in enumerate(probs):
        acc += p
        if rand < acc:
            chosen = i
            break
    if chosen < 0 or probs[chosen] < _MIN_BRANCH:
        chosen = max(range(4), key=probs.__getitem__)
    if state.num_qubits == 2:
        return BELL_ORDER[chosen], None
    scale = 1.0 / math.sqrt(probs[chosen])
    return BELL_ORDER[chosen], [c * scale for c in coeffs[chosen]]


def _bits(amplitudes):
    """Each amplitude's real and imaginary parts in ``float.hex``, so that
    equality is bit identity (a signed zero included)."""
    return [(a.real.hex(), a.imag.hex()) for a in amplitudes]


def _around(threshold):
    """rand values just below, at and just above ``threshold``, in [0, 1)."""
    near = (math.nextafter(threshold, -1.0), threshold, math.nextafter(threshold, 2.0))
    return [u for u in near if 0.0 <= u < 1.0]


_SPECIAL_ANGLES = [0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi, 1.5 * math.pi]


@st.composite
def _states(draw):
    """1-4 qubit states: random ones, and products of planar eigenvectors
    and Bell pairs, whose exact zeros and near-certain branches reach the
    rounding fallbacks.  Also returns the angles worth measuring at."""
    kind = draw(st.sampled_from(["random", "planar", "bell"]))
    n = draw(st.integers(min_value=1, max_value=4))
    if kind == "random":
        state = random_pure_state(np.random.default_rng(draw(seeds)), n)
        return state, []
    if kind == "bell":
        parts = [bell_state(draw(st.sampled_from(BELL_ORDER))) for _ in range(max(n // 2, 1))]
        if n % 2:
            parts.append(ket(draw(st.sampled_from(["H", "V"]))))
        state = parts[0]
        for part in parts[1:]:
            state = tensor(state, part)
        return state, []
    thetas = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_ANGLES), angles), min_size=n, max_size=n))
    state = PureState([math.cos(0.5 * thetas[0]), math.sin(0.5 * thetas[0])])
    for theta in thetas[1:]:
        state = tensor(state, PureState([math.cos(0.5 * theta), math.sin(0.5 * theta)]))
    return state, thetas


@given(_states(), angles, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_cached_transitions_equal_uncached_arithmetic(drawn, angle, u):
    state, own_angles = drawn
    n = state.num_qubits
    for theta in [angle, *_SPECIAL_ANGLES, *own_angles]:
        obs = PlanarObservable(theta)
        for qubit in range(n):
            p_plus = _oracle_measure(state, qubit, obs, 0.0)[2]
            for rand in [0.0, u, math.nextafter(1.0, 0.0), *_around(p_plus)]:
                outcome, post = measure_qubit(state, qubit, obs, rand)
                expected_outcome, expected_amps, _ = _oracle_measure(state, qubit, obs, rand)
                assert outcome == expected_outcome
                assert _bits(post.amplitudes) == _bits(expected_amps)
    for qa in range(n):
        for qb in range(n):
            if qa == qb:
                continue
            _, probs = _oracle_bell_coefficients(state, qa, qb)
            thresholds = [0.0, u, math.nextafter(1.0, 0.0)]
            acc = 0.0
            for p in probs:  # the cumulative sums bell_measure compares with
                acc += p
                thresholds += _around(acc)
            for rand in thresholds:
                outcome, residual = bell_measure(state, qa, qb, rand)
                expected_outcome, expected_amps = _oracle_bell_measure(state, qa, qb, rand)
                assert outcome == expected_outcome
                if expected_amps is None:
                    assert residual is None
                else:
                    assert _bits(residual.amplitudes) == _bits(expected_amps)
    for other in (ket("H"), bell_state(BellStateId.PSI_MINUS), random_pure_state(np.random.default_rng(1), 2)):
        if n + other.num_qubits <= 4:
            expected = [x * y for x in state.amplitudes for y in other.amplitudes]
            assert _bits(tensor(state, other).amplitudes) == _bits(expected)


def test_measure_choice_of_a_bell_state_keeps_no_branch_below_min_branch():
    # Rounding leaves P(+1) about 1e-33 on the second X measurement of psi+
    # and phi-.  Such a branch is impossible, and a draw of exactly 0.0 must
    # not be able to select it.
    observables = [Basis.X.observable, Basis.Z.observable,
                   *map(PlanarObservable, DEFAULT.alice_angles + DEFAULT.bob_angles)]
    bell = [bell_state(state_id) for state_id in BELL_ORDER]
    collapsed = [
        post
        for state in bell
        for qubit in (0, 1)
        for obs in observables
        for _, post in quantum.measure_choice(state, qubit, obs).branches
    ]
    for state in bell + collapsed:
        for qubit in (0, 1):
            for obs in observables:
                choice = quantum.measure_choice(state, qubit, obs)
                assert all(cut >= _MIN_BRANCH for cut in choice.cuts), (state, qubit, obs, choice.cuts)
                assert measure_qubit(state, qubit, obs, 0.0) == choice.branches[0]


def test_cached_transitions_return_the_same_read_only_states():
    for state_id in BellStateId:
        assert bell_state(state_id) is bell_state(state_id)
    four = tensor(bell_state(BellStateId.PSI_PLUS), bell_state(BellStateId.PHI_MINUS))
    assert tensor(bell_state(BellStateId.PSI_PLUS), bell_state(BellStateId.PHI_MINUS)) is four
    outcome, post = measure_qubit(four, 2, Basis.X.observable, 0.3)
    assert measure_qubit(four, 2, Basis.X.observable, 0.3) == (outcome, post)
    assert measure_qubit(four, 2, Basis.X.observable, 0.3)[1] is post
    swapped, residual = bell_measure(four, 0, 3, 0.3)
    assert bell_measure(four, 0, 3, 0.3)[1] is residual
    for state in (four, post, residual, bell_state(BellStateId.PSI_PLUS)):
        assert type(state.amplitudes) is tuple
        with pytest.raises(AttributeError):
            state.amplitudes = ()


def test_transitions_of_equal_states_are_bit_identical():
    # The caches key on the state object, so an equal state held by another
    # object computes its own transitions; they equal the original's bit for
    # bit, and the original still hits its own entries.
    four = tensor(bell_state(BellStateId.PSI_PLUS), bell_state(BellStateId.PHI_MINUS))
    copy = PureState(four.amplitudes)
    transitions = [
        *((quantum.measure_choice, (qubit, basis.observable)) for qubit in range(4) for basis in Basis),
        *((quantum.bell_choice, pair) for pair in ((0, 3), (1, 2), (2, 0))),
    ]
    for transition, args in transitions:
        original = transition(four, *args)
        copied = transition(copy, *args)
        assert copied is not original
        assert list(map(float.hex, copied.cuts)) == list(map(float.hex, original.cuts))
        assert len(copied.branches) == len(original.branches)
        for (outcome, state), (copy_outcome, copy_state) in zip(original.branches, copied.branches):
            assert copy_outcome == outcome
            assert _bits(copy_state.amplitudes) == _bits(state.amplitudes)
        assert transition(four, *args) is original


def test_transition_caches_stay_under_their_cap():
    caches = (quantum._measure_transition, quantum._bell_transition, quantum._product)
    cap = quantum._CACHE_CAP
    largest = [0] * len(caches)
    try:
        for i in range(cap + 200):
            theta = math.pi * (i + 1) / (cap + 400)
            state = PureState([math.cos(theta), math.sin(theta)])
            _, post = measure_qubit(state, 0, Basis.X.observable, 0.5)
            bell_measure(tensor(state, post), 0, 1, 0.5)
            sizes = [cache.cache_info().currsize for cache in caches]
            largest = list(map(max, largest, sizes))
            assert all(size <= cap for size in sizes)
        assert largest == [cap] * len(caches)
    finally:
        for cache in caches:
            cache.cache_clear()
