import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgates.entanglement import (
    BELL_TRANSFORM,
    ENTANGLING,
    NON_ENTANGLING,
    PERFECT_ENTANGLER,
    SPECIAL_PERFECT_ENTANGLER,
    apply_gate,
    concurrence,
    entangling_power,
    lmg_entanglement_profile,
    makhlin_g1,
    product_basis,
    separable_state,
    spe_condition,
)
from symgates.gates import LMGParams, gate, lmg_gate
from symgates.linalg import InputError, is_unitary

from helpers import kron_factor_2x2, max_phase_distance, random_spinor, random_su2

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SPE_THETA = {4: math.pi / 2, 5: math.pi / 2, 6: math.pi / 2, 7: math.pi / 2,
             8: SQ3 * math.pi / 2}


def test_bell_transform_is_unitary():
    assert is_unitary(BELL_TRANSFORM, atol=1e-14)


def test_identity_gate_is_local():
    assert makhlin_g1(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_makhlin_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        makhlin_g1(np.ones((4, 4)))
    with pytest.raises(ValueError, match="4x4"):
        makhlin_g1(np.eye(3))


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_invariant_law_for_entangling_gates(k):
    for theta in np.linspace(0.0, 2 * math.pi, 41):
        g1 = makhlin_g1(gate(k, theta).u4)
        assert abs(g1) == pytest.approx(math.cos(theta) ** 4, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rotation_gates_are_local(k):
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        report = entangling_power(gate(k, theta))
        assert report.g1_abs == pytest.approx(1.0, abs=1e-12)
        assert report.ep == pytest.approx(0.0, abs=1e-12)
        assert report.classification == NON_ENTANGLING


def test_classification_thresholds():
    assert entangling_power(gate(4, math.pi / 2)).classification == SPECIAL_PERFECT_ENTANGLER
    assert entangling_power(gate(4, math.pi / 2)).ep == pytest.approx(2 / 9, abs=1e-12)
    boundary = entangling_power(gate(4, math.pi / 4))
    assert boundary.classification == PERFECT_ENTANGLER
    assert boundary.ep == pytest.approx(1 / 6, abs=1e-12)
    assert entangling_power(gate(4, 0.1)).classification == ENTANGLING
    assert entangling_power(gate(8, SQ3 * math.pi / 2)).classification == SPECIAL_PERFECT_ENTANGLER


def test_report_carries_gate_provenance():
    report = entangling_power(gate(4, 0.3))
    assert report.gate_label == "B4"
    assert report.theta == pytest.approx(0.3)
    assert report.ep == pytest.approx(2 / 9 * (1 - report.g1_abs), abs=1e-14)


def test_equal_invariants_imply_equal_power():
    for theta in np.linspace(0.1, 1.5, 8):
        left = entangling_power(gate(4, theta))
        right = entangling_power(gate(7, theta))
        assert left.ep == pytest.approx(right.ep, abs=1e-12)


def test_invariant_is_locally_invariant(rng):
    g = gate(4, 0.8)
    base = abs(makhlin_g1(g.u4))
    for _ in range(25):
        left = np.kron(random_su2(rng), random_su2(rng))
        right = np.kron(random_su2(rng), random_su2(rng))
        dressed = abs(makhlin_g1(left @ g.u4 @ right))
        assert dressed == pytest.approx(base, abs=1e-9)


def test_concurrence_of_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / SQ2
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_concurrence_of_product_states_vanishes(seed):
    gen = np.random.default_rng(seed)
    a, b = random_spinor(gen)
    c, d = random_spinor(gen)
    psi = np.kron(np.array([a, b]), np.array([c, d]))
    assert concurrence(psi) < 1e-13


def test_concurrence_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        concurrence(np.zeros(4))


def test_concurrence_normalizes_with_warning():
    bell = np.array([1.0, 0.0, 0.0, 1.0])
    with pytest.warns(UserWarning, match="normalizing"):
        value = concurrence(bell)
    assert value == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e307, 1e-170, 5e-324])
def test_concurrence_survives_extreme_amplitude_scales(scale):
    with pytest.warns(UserWarning, match="normalizing"):
        assert concurrence([scale, 0.0, 0.0, scale]) == pytest.approx(1.0, abs=1e-15)
    with pytest.warns(UserWarning, match="normalizing"):
        assert concurrence([scale, scale, scale, scale]) == 0.0


def test_separable_state_poles_and_equator():
    north = separable_state(0.0, 0.3)
    np.testing.assert_allclose(north.vec3, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(north.vec4, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    equator = separable_state(math.pi / 2, 0.0)
    np.testing.assert_allclose(equator.vec3, [0.5, 1 / SQ2, 0.5], atol=1e-15)


def test_separable_state_wrapping_preserves_the_state():
    ref = separable_state(0.8, 1.1)
    same = separable_state(0.8 + 2 * math.pi, 1.1 - 2 * math.pi)
    np.testing.assert_allclose(same.vec4, ref.vec4, atol=1e-12)
    flipped = separable_state(2 * math.pi - 0.8, 1.1 + math.pi)
    np.testing.assert_allclose(flipped.vec4, ref.vec4, atol=1e-12)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                              np.float32(math.inf)])


@given(bad=non_finite, other=st.floats(-8.0, 8.0), bad_phi=st.booleans())
@settings(max_examples=40, deadline=None)
def test_separable_state_rejects_non_finite_angles(bad, other, bad_phi):
    name, args = ("phi", (other, bad)) if bad_phi else ("alpha", (bad, other))
    with pytest.raises(InputError, match=f"{name} must be finite"):
        separable_state(*args)


@given(bad=non_finite, index=st.integers(0, 3), imaginary=st.booleans(),
       amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_concurrence_rejects_non_finite_amplitudes(bad, index, imaginary, amplitudes):
    psi = np.array(amplitudes, dtype=np.complex128)
    psi[index] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(InputError, match=f"psi must be finite, got .* at index {index}"):
        concurrence(psi)


@given(alpha=st.floats(-8.0, 8.0), phi=st.floats(-8.0, 8.0))
@settings(max_examples=80, deadline=None)
def test_separable_states_have_zero_concurrence(alpha, phi):
    state = separable_state(alpha, phi)
    assert 0.0 <= state.alpha <= math.pi
    assert 0.0 <= state.phi < 2 * math.pi
    assert abs(np.linalg.norm(state.vec3) - 1.0) < 1e-14
    assert concurrence(state.vec4) < 1e-12


def test_b4_action_on_equator_state():
    g = gate(4, math.pi / 2)
    for phi in (0.0, 0.7, 2.9):
        out, conc = apply_gate(g, separable_state(math.pi / 2, phi))
        assert conc == pytest.approx(1.0, abs=1e-12)
        p = np.exp(1j * phi)
        expected = np.array([-0.5 * p * p, 0.5 * p, 0.5 * p, 0.5])
        assert max_phase_distance(out, expected) < 1e-12


def test_b7_action_on_equator_state():
    g = gate(7, math.pi / 2)
    phi = 1.3
    out, conc = apply_gate(g, separable_state(math.pi / 2, phi))
    p = np.exp(1j * phi)
    expected = np.array([0.5j * p * p, 0.5 * p, 0.5 * p, 0.5j])
    assert conc == pytest.approx(1.0, abs=1e-12)
    assert max_phase_distance(out, expected) < 1e-12


def test_b8_action_on_equator_state():
    g = gate(8, SQ3 * math.pi / 2)
    phi = 0.4
    out, conc = apply_gate(g, separable_state(math.pi / 2, phi))
    p = np.exp(1j * phi)
    expected = np.array([0.5j, -0.5 * p, -0.5 * p, 0.5j * p * p])
    assert conc == pytest.approx(1.0, abs=1e-12)
    assert max_phase_distance(out, expected) < 1e-12


def test_b5_action_on_pole_state():
    out, conc = apply_gate(gate(5, math.pi / 2), separable_state(0.0, 0.0))
    assert conc == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out, [0.5, -0.5, -0.5, -0.5], atol=1e-14)


def test_b6_action_on_pole_state():
    out, conc = apply_gate(gate(6, math.pi / 2), separable_state(0.0, 0.0))
    assert conc == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out, [0.5, -0.5j, -0.5j, 0.5], atol=1e-14)


def test_b4_pole_state_concurrence_profile():
    # exp(i M4 theta)|up up> = cos(theta)|up up> + sin(theta)|down down>,
    # so the pole state is maximally entangled at theta = pi/4 and back
    # to a product state at theta = pi/2.
    _, conc = apply_gate(gate(4, math.pi / 4), separable_state(0.0, 0.0))
    assert conc == pytest.approx(1.0, abs=1e-12)
    _, conc = apply_gate(gate(4, math.pi / 2), separable_state(0.0, 0.0))
    assert conc == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_gates_preserve_separability(k, rng):
    for _ in range(20):
        theta, alpha, phi = rng.uniform(0, 2 * math.pi, 3)
        _, conc = apply_gate(gate(k, theta), separable_state(alpha, phi))
        assert conc < 1e-10


def test_product_basis_computational_limit():
    basis = product_basis(1, 0, 1, 0, 1, 0)
    np.testing.assert_allclose(basis.states[0], [1, 0, 0, 0], atol=0)
    np.testing.assert_allclose(basis.states[1], [0, 0, 1, 0], atol=0)
    np.testing.assert_allclose(basis.states[2], [0, 1, 0, 0], atol=0)
    np.testing.assert_allclose(basis.states[3], [0, 0, 0, 1], atol=0)


def test_product_basis_orthonormal_for_random_spinors(rng):
    for _ in range(20):
        a, b = random_spinor(rng)
        c, d = random_spinor(rng)
        e, f = random_spinor(rng)
        basis = product_basis(a, b, c, d, e, f)
        gram = basis.states @ basis.states.conj().T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_product_basis_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        product_basis(1, 1, 1, 0, 1, 0)


def test_spe_condition_b4_uniform_amplitudes():
    basis = product_basis(*(1 / SQ2,) * 6)
    result = spe_condition(gate(4, math.pi / 2), basis)
    assert result.family == "abcd"
    assert result.condition_holds
    assert result.all_maximal
    assert result.consistent
    assert all(c == pytest.approx(1.0, abs=1e-12) for c in result.concurrences)


def test_spe_condition_b4_computational_basis_fails():
    result = spe_condition(gate(4, math.pi / 2), product_basis(1, 0, 1, 0, 1, 0))
    assert not result.condition_holds
    assert result.concurrences[0] == pytest.approx(0.0, abs=1e-12)
    assert result.consistent


def test_spe_condition_requires_spe_parameter():
    basis = product_basis(*(1 / SQ2,) * 6)
    with pytest.raises(ValueError, match="2/9"):
        spe_condition(gate(4, 0.3), basis)
    with pytest.raises(ValueError, match="families"):
        spe_condition(gate(1, math.pi / 2), basis)


def test_spe_condition_b6_matches_concurrence_oracle(rng):
    g = gate(6, math.pi / 2)
    for _ in range(30):
        basis = product_basis(*random_spinor(rng), *random_spinor(rng), *random_spinor(rng))
        result = spe_condition(g, basis)
        # For this gate the printed criterion is exact:
        # C(image of psi1) = |(a^2+b^2)(c^2+d^2)|.
        assert result.concurrences[0] == pytest.approx(result.condition_values[0], abs=1e-10)
        assert result.consistent


def test_spe_condition_b5_printed_criterion_has_counterexamples():
    # Real spinors with a = b satisfy the printed squares criterion but
    # this gate maps psi1 to a product state: the measured concurrence is
    # |(a^2-b^2)(c^2-d^2)|, not |(a^2+b^2)(c^2+d^2)|.  The result object
    # reports the disagreement rather than hiding it.
    basis = product_basis(1 / SQ2, 1 / SQ2, 1, 0, 1, 0)
    result = spe_condition(gate(5, math.pi / 2), basis)
    assert result.condition_holds
    assert result.concurrences[0] == pytest.approx(0.0, abs=1e-12)
    assert not result.all_maximal
    assert not result.consistent


def test_spe_condition_b5_concurrence_law(rng):
    g = gate(5, math.pi / 2)
    for _ in range(30):
        a, b = random_spinor(rng)
        c, d = random_spinor(rng)
        e, f = random_spinor(rng)
        result = spe_condition(g, product_basis(a, b, c, d, e, f))
        expected = abs((a * a - b * b) * (c * c - d * d))
        assert result.concurrences[0] == pytest.approx(expected, abs=1e-10)


def test_lmg_profile_structure():
    g1 = 1.0
    grid = np.linspace(0.0, math.pi, 9)
    t, ep, conc = lmg_entanglement_profile(g1, 0.6, grid)
    assert all(column.dtype == np.float64 and column.shape == (9,) for column in (t, ep, conc))
    assert t.tolist() == grid.tolist()
    assert ep[0] == pytest.approx(0.0, abs=1e-12)
    assert conc[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(conc, np.abs(np.sin(4 * g1 * grid)), rtol=0, atol=1e-10)


def test_lmg_profile_special_times():
    g1 = 1.0
    zeros = [n * math.pi / (4 * g1) for n in range(4)]
    maxima = [(2 * n + 1) * math.pi / (8 * g1) for n in range(4)]
    ts, _, concs = lmg_entanglement_profile(g1, 0.35, sorted(zeros + maxima))
    for t, c in zip(ts, concs):
        if any(abs(t - z) < 1e-12 for z in zeros):
            assert c == pytest.approx(0.0, abs=1e-10)
        else:
            assert c == pytest.approx(1.0, abs=1e-10)


def test_lmg_profile_reaches_maximal_power_on_condition():
    g1v = 1.0
    t = math.pi / 8
    g2v = (math.pi / 2 + 2 * g1v * t) / (2 * t)
    _, ep, conc = lmg_entanglement_profile(g1v, g2v, [t])
    assert ep[0] == pytest.approx(2 / 9, abs=1e-12)
    assert conc[0] == pytest.approx(1.0, abs=1e-12)


def test_lmg_profile_rejects_bad_grid():
    with pytest.raises(ValueError, match="ascending"):
        lmg_entanglement_profile(1.0, 1.0, [0.5, 0.1])
    with pytest.raises(ValueError, match="finite"):
        lmg_entanglement_profile(1.0, 1.0, [0.0, math.inf])


def test_kron_factor_flags_entangling_gates():
    _, _, residual = kron_factor_2x2(gate(4, math.pi / 2).u4)
    assert residual > 0.5
    v, w, residual = kron_factor_2x2(np.kron(random_su2(np.random.default_rng(5)),
                                             random_su2(np.random.default_rng(6))))
    assert residual < 1e-12


def test_lmg_gate_local_invariant():
    p = LMGParams(g1=0.9, g2=1.7, t=0.5)
    report = entangling_power(lmg_gate(p))
    expected = ((math.cos(2 * p.xi) + math.cos(2 * SQ3 * p.beta)) / 2) ** 2
    assert report.g1_abs == pytest.approx(expected, abs=1e-12)
