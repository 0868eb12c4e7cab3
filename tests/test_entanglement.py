import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgates import entanglement
from symgates.entanglement import (
    BELL_TRANSFORM,
    CLASSES,
    CLASSIFY_ATOL,
    ENTANGLING,
    MAX_EP,
    NON_ENTANGLING,
    PERFECT_ENTANGLER,
    PERFECT_EP,
    SPECIAL_PERFECT_ENTANGLER,
    _level,
    apply_gate,
    concurrence,
    entangling_power,
    lmg_entanglement_profile,
    makhlin_g1,
    product_basis,
    separable_state,
    spe_condition,
)
from symgates.gates import LMGParams, custom_gate, gate, lmg_gate
from symgates.linalg import InputError, is_unitary

from helpers import haar_unitary, kron_factor_2x2, max_phase_distance, random_spinor, random_su2

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


@pytest.mark.parametrize("threshold, label", [
    (PERFECT_EP - CLASSIFY_ATOL, PERFECT_ENTANGLER),
    (MAX_EP - CLASSIFY_ATOL, SPECIAL_PERFECT_ENTANGLER),
])
def test_level_at_the_inclusive_thresholds_and_one_ulp_below(threshold, label):
    below = math.nextafter(threshold, 0.0)
    levels = [_level(ep) for ep in (below, threshold)]
    assert levels[1] == levels[0] + 1 and CLASSES[levels[1]] == label
    assert _level(np.array([below, threshold])).tolist() == levels


def test_level_at_the_strict_entangling_threshold_and_one_ulp_either_side():
    grid = [math.nextafter(CLASSIFY_ATOL, 0.0), CLASSIFY_ATOL, math.nextafter(CLASSIFY_ATOL, 1.0)]
    assert [CLASSES[_level(ep)] for ep in grid] == [NON_ENTANGLING, NON_ENTANGLING, ENTANGLING]
    assert _level(np.array(grid)).tolist() == [_level(ep) for ep in grid]
    # the four classes in order, one array entry each
    assert _level(np.array([0.0, 0.1, PERFECT_EP, MAX_EP])).tolist() == [0, 1, 2, 3]


def test_report_ep_is_two_ninths_of_one_minus_g1_abs():
    report = entangling_power(gate(4, 0.3))
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
    with pytest.raises(InputError, match="^psi must be nonzero, got the zero vector$"):
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


@given(alpha=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28))
@settings(max_examples=40, deadline=None)
def test_separable_state_builds_vec4_on_first_access(alpha, phi):
    state = separable_state(alpha, phi)
    assert "vec4" not in vars(state)
    spinor = np.array([math.cos(alpha / 2), math.sin(alpha / 2) * np.exp(1j * phi)])
    assert np.array_equal(state.vec4, np.kron(spinor, spinor))
    assert state.vec4 is vars(state)["vec4"]


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


def _drawn_gate(seed, family, k, angle, g1, g2):
    """B_k(angle), the LMG gate at t = angle or a Haar-random custom gate."""
    if family == "B":
        return gate(k, angle)
    if family == "BL":
        return lmg_gate(LMGParams(g1=g1, g2=g2, t=angle))
    return custom_gate(haar_unitary(np.random.default_rng(seed), 3))


# a gate drawn by _drawn_gate and the angles of a separable state
given_gate_and_state = given(
    seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["B", "BL", "custom"]),
    k=st.integers(1, 8), angle=st.floats(-8.0, 8.0), g1=st.floats(-3.0, 3.0),
    g2=st.floats(-3.0, 3.0), alpha=st.floats(-8.0, 8.0), phi=st.floats(-8.0, 8.0))


@given_gate_and_state
@settings(max_examples=200, deadline=None)
def test_apply_gate_image_is_exactly_symmetric(seed, family, k, angle, g1, g2, alpha, phi):
    g = _drawn_gate(seed, family, k, angle, g1, g2)
    state = separable_state(alpha, phi)
    out, conc = apply_gate(g, state)
    assert out[1] == out[2]  # up-down and down-up amplitudes of a symmetric state
    assert np.max(np.abs(out - g.u4 @ state.vec4)) <= 1e-15
    assert conc == concurrence(out)


@given_gate_and_state
@settings(max_examples=200, deadline=None)
def test_apply_gate_scores_its_image_without_the_public_check(seed, family, k, angle, g1, g2,
                                                              alpha, phi):
    g = _drawn_gate(seed, family, k, angle, g1, g2)
    state = separable_state(alpha, phi)
    out, _ = apply_gate(g, state)
    expected = concurrence(out)

    def checked(psi):
        raise AssertionError("apply_gate called concurrence")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entanglement, "concurrence", checked)
        again, conc = apply_gate(g, state)
    assert again.tobytes() == out.tobytes() and conc.hex() == expected.hex()


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
    with pytest.raises(InputError, match=r"^g must be a special perfect entangler \(e_p = 2/9\), "
                                         r"got gate B4 with e_p = 0\.0371"):
        spe_condition(gate(4, 0.3), basis)
    with pytest.raises(ValueError, match="2/9"):
        spe_condition(gate(1, math.pi / 2), basis)


def _random_basis(rng):
    return product_basis(*random_spinor(rng), *random_spinor(rng), *random_spinor(rng))


def test_spe_condition_b6_matches_concurrence_oracle(rng):
    g = gate(6, math.pi / 2)
    for _ in range(30):
        basis = _random_basis(rng)
        result = spe_condition(g, basis)
        # For this gate the paper's criterion is exact:
        # C(image of psi1) = |(a^2+b^2)(c^2+d^2)|.
        a, b, c, d = basis.a, basis.b, basis.c, basis.d
        printed = abs((a * a + b * b) * (c * c + d * d))
        assert result.condition_values[0] == pytest.approx(printed, abs=1e-14)
        assert result.concurrences[0] == pytest.approx(printed, abs=1e-10)
        assert result.consistent


def test_spe_condition_b5_printed_criterion_has_counterexamples():
    # Real spinors with a = b satisfy the paper's printed B5 criterion
    # |(a^2+b^2)(c^2+d^2)| = 1, but this gate maps psi1 to a product state:
    # the measured concurrence is |(a^2-b^2)(c^2-d^2)|.  The derived
    # condition sees it.
    a = b = 1 / SQ2
    basis = product_basis(a, b, 1, 0, 1, 0)
    assert abs((a * a + b * b) * (1 * 1 + 0 * 0)) == pytest.approx(1.0, abs=1e-15)
    result = spe_condition(gate(5, math.pi / 2), basis)
    assert not result.condition_holds
    assert result.concurrences[0] == pytest.approx(0.0, abs=1e-12)
    assert result.consistent


def test_spe_condition_b5_concurrence_law(rng):
    g = gate(5, math.pi / 2)
    for _ in range(30):
        basis = _random_basis(rng)
        result = spe_condition(g, basis)
        a, b, c, d = basis.a, basis.b, basis.c, basis.d
        expected = abs((a * a - b * b) * (c * c - d * d))
        assert result.condition_values[0] == pytest.approx(expected, abs=1e-14)
        assert result.concurrences[0] == pytest.approx(expected, abs=1e-10)


SPE_GATES = [gate(k, SPE_THETA[k]) for k in sorted(SPE_THETA)] + [
    lmg_gate(LMGParams(1.0, 2.0, math.pi / 4))]


@pytest.mark.parametrize("g", SPE_GATES, ids=[f"B{k}" for k in sorted(SPE_THETA)] + ["BL"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_spe_condition_derived_values_equal_the_measured_concurrences(g, seed):
    result = spe_condition(g, _random_basis(np.random.default_rng(seed)))
    assert max(abs(v - c) for v, c in zip(result.condition_values,
                                          result.concurrences)) <= 1e-14
    assert result.consistent


@pytest.mark.parametrize("k", [4, 7, 8])
@given(seed=st.integers(0, 2**32 - 1), uniform=st.booleans())
@settings(max_examples=30, deadline=None)
def test_spe_condition_of_b4_b7_b8_is_the_papers_abcd_criterion(k, seed, uniform):
    # The paper's criterion |abcd| = |cdef| = 1/4 is an oracle here: the
    # derived values are 4|abcd| for psi1, psi2 and 4|cdef| for psi3, psi4.
    rng = np.random.default_rng(seed)
    if uniform:  # every |amplitude| = 1/sqrt2, random phases: the criterion holds
        basis = product_basis(*np.exp(1j * rng.uniform(0, 2 * math.pi, 6)) / SQ2)
    else:
        basis = _random_basis(rng)
    abcd = abs(basis.a * basis.b * basis.c * basis.d)
    cdef = abs(basis.c * basis.d * basis.e * basis.f)
    result = spe_condition(gate(k, SPE_THETA[k]), basis)
    np.testing.assert_allclose(result.condition_values, [4 * abcd, 4 * abcd, 4 * cdef, 4 * cdef],
                               rtol=0, atol=1e-14)
    assert result.condition_holds == (abs(abcd - 0.25) <= 2.5e-11 and abs(cdef - 0.25) <= 2.5e-11)
    assert result.condition_holds or not uniform


def test_spe_condition_accepts_an_lmg_special_perfect_entangler():
    g = lmg_gate(LMGParams(1.0, 2.0, math.pi / 4))
    assert entangling_power(g).classification == SPECIAL_PERFECT_ENTANGLER
    result = spe_condition(g, product_basis(*(1 / SQ2,) * 6))
    assert result.condition_holds and result.all_maximal and result.consistent


@pytest.mark.parametrize("k", [4, 5, 6])
def test_spe_condition_ignores_the_gate_label(k, rng):
    # A B_k gate relabelled as another family gets the result of the gate it
    # wraps: the label is display metadata.
    g = gate(k, math.pi / 2)
    for label in ("B4", "B5", "B8", "custom"):
        for _ in range(5):
            basis = _random_basis(rng)
            assert spe_condition(custom_gate(g.u3, label=label), basis) == spe_condition(g, basis)


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


def test_lmg_profile_takes_a_grid_in_any_order():
    # no order rule, as for lmg_batch: each row depends on its own t alone
    grid = np.linspace(0.0, math.pi, 257)
    ascending = lmg_entanglement_profile(1, 2, grid)
    for column, reversed_column in zip(ascending, lmg_entanglement_profile(1, 2, grid[::-1])):
        assert np.array_equal(reversed_column, column[::-1])


def test_lmg_profile_rejects_bad_grid():
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
