import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgates.gates import (
    LMGParams,
    custom_gate,
    gate,
    gates_batch,
    lmg_batch,
    lmg_gate,
    lmg_hamiltonian,
)
from symgates.linalg import InputError, commutator, expm_hermitian, is_unitary
from symgates.su3 import M, m_matrix, to_qubit_basis

from helpers import kron_factor_2x2, max_phase_distance

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_gate_index_zero_rejected():
    with pytest.raises(ValueError, match="global phase"):
        gate(0, 1.0)
    with pytest.raises(ValueError):
        gate(9, 1.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_gate_at_zero_angle_is_identity(k):
    g = gate(k, 0.0)
    np.testing.assert_allclose(g.u3, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(g.u4, np.eye(4), atol=1e-15)


def test_b3_is_diagonal_phase_gate():
    theta = 0.9
    expected = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
    np.testing.assert_allclose(gate(3, theta).u3, expected, atol=1e-15)


def test_b4_is_real_rotation():
    theta = 0.37
    c, s = math.cos(theta), math.sin(theta)
    expected = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
    np.testing.assert_allclose(gate(4, theta).u3, expected, atol=1e-15)


def test_b5_closed_form_at_quarter_turn():
    expected = np.array([
        [0.5, 1 / SQ2, -0.5],
        [-1 / SQ2, 0.0, -1 / SQ2],
        [-0.5, 1 / SQ2, 0.5],
    ])
    np.testing.assert_allclose(gate(5, math.pi / 2).u3, expected, atol=1e-15)


def test_b8_diagonal_phases():
    theta = 1.7
    expected = np.diag(np.exp(1j * theta / SQ3 * np.array([1.0, -2.0, 1.0])))
    np.testing.assert_allclose(gate(8, theta).u3, expected, atol=1e-15)


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_form_matches_eigendecomposition(k, rng):
    mk = m_matrix(k)
    for theta in rng.uniform(0.0, 2 * math.pi, 50):
        np.testing.assert_allclose(gate(k, theta).u3, expm_hermitian(mk, theta), atol=1e-12)


@given(k=st.integers(1, 8), theta=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_gate_unitary_and_invertible(k, theta):
    g = gate(k, theta)
    assert is_unitary(g.u3, atol=1e-12)
    assert is_unitary(g.u4, atol=1e-12)
    np.testing.assert_allclose(g.u3 @ gate(k, -theta).u3, np.eye(3), atol=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)


# gates_batch and lmg_batch check no grid for unitarity, so their closed
# forms must be unitary at every angle that the grid and overflow checks
# admit: +-0, subnormals and the largest finite angles included.
@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), thetas=st.lists(finite, min_size=1, max_size=8))
@example(k=8, thetas=[SQ3 / 2 * sys.float_info.max, -0.0, 5e-324])
@example(k=4, thetas=[sys.float_info.max, -sys.float_info.max, 0.0, -5e-324])
def test_gate_grids_are_unitary_at_every_admitted_angle(k, thetas):
    try:
        u3 = gates_batch(k, thetas).u3
    except InputError:  # only B8's 2*theta/sqrt3 can overflow
        assert k == 8 and math.isinf(max(abs(t / SQ3) for t in thetas) * 2.0)
        return
    assert is_unitary(u3, atol=1e-12)


@st.composite
def lmg_arguments(draw):
    """g1, g2 and a time grid, with |t| up to where 2 g1 t or 4 g2 t overflows."""
    g1, g2 = draw(finite), draw(finite)
    weight = max(2.0 * abs(g1), 4.0 * abs(g2))
    limit = sys.float_info.max / weight if weight else math.inf
    ts = draw(st.lists(st.floats(-limit, limit, allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=8))
    return g1, g2, ts


@settings(max_examples=300, deadline=None)
@given(args=lmg_arguments())
@example(args=(1.0, 2.0, [sys.float_info.max / 4, -0.0, 5e-324]))
@example(args=(sys.float_info.max / 2, 5e-324, [1.0, -1.0]))
def test_lmg_grids_are_unitary_at_every_admitted_time(args):
    g1, g2, ts = args
    try:
        u3 = lmg_batch(g1, g2, ts).u3
    except InputError:  # a product rounded past the largest float
        t_top = max(map(abs, ts))
        assert not all(map(math.isfinite, (2.0 * g1 * t_top, 2.0 * g2 * t_top,
                                           2.0 * g2 * t_top * 2.0)))
        return
    assert is_unitary(u3, atol=1e-12)


def _zero_sine(x):
    """math.sin(x), with sin(-0.0) as +0.0: 1j * -0.0 is (-0.0 + 0.0j), so
    the sign of that zero is gone before numpy's complex exp sees it."""
    return math.sin(x) + 0.0


# The closed forms take cos and sin from numpy's complex exp of 1j * angle,
# which must give the bits of math.cos and math.sin at every finite angle,
# on every numpy kernel, or the printed digits would depend on the kernel.
@settings(max_examples=300, deadline=None)
@given(xs=st.lists(finite, min_size=1, max_size=64))
@example(xs=[0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022])
@example(xs=[math.pi / 2, -math.pi / 2, 2.0 ** 52, 1.7976931348623157e308,
             -1.7976931348623157e308])
def test_complex_exp_is_math_cos_and_sin(xs):
    e = np.exp(1j * np.array(xs))
    assert e.real.tobytes() == np.array([math.cos(x) for x in xs]).tobytes()
    assert e.imag.tobytes() == np.array([_zero_sine(x) for x in xs]).tobytes()


def _per_angle_rotation(angles, k):
    """B_k of each angle from math.cos and math.sin, one angle at a time, as
    the closed form was built before it took them from numpy's complex exp."""
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])
    return (np.eye(3) + (cos - 1.0)[:, None, None] * (M[k] @ M[k])
            + (1j * sin)[:, None, None] * M[k])


def _per_angle_phases(angles, weights):
    return np.array([[complex(math.cos(a * w), _zero_sine(a * w)) for w in weights]
                     for a in angles])


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), thetas=st.lists(finite, min_size=1, max_size=8))
@example(k=8, thetas=[SQ3 / 2 * sys.float_info.max, -0.0, 5e-324])
@example(k=4, thetas=[sys.float_info.max, -sys.float_info.max, 0.0, -5e-324])
@example(k=7, thetas=[0.0, -0.0, 5e-324, -5e-324, math.pi / 2, 2.0 ** 52])
def test_gate_grids_equal_the_per_angle_formula_bit_for_bit(k, thetas):
    try:
        u3 = gates_batch(k, thetas).u3
    except InputError:  # only B8's 2*theta/sqrt3 can overflow
        assert k == 8
        return
    if k == 8:
        expected = np.zeros((len(thetas), 3, 3), dtype=complex)
        expected[:, range(3), range(3)] = _per_angle_phases([t / SQ3 for t in thetas],
                                                            [1.0, -2.0, 1.0])
    else:
        expected = _per_angle_rotation(thetas, k)
    assert u3.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(args=lmg_arguments())
@example(args=(1.0, 2.0, [sys.float_info.max / 4, -0.0, 5e-324]))
@example(args=(sys.float_info.max / 2, 5e-324, [1.0, -1.0]))
@example(args=(1.0, 2.0, [0.0, -0.0, 5e-324, -5e-324, math.pi / 4]))
def test_lmg_grids_equal_the_per_angle_formula_bit_for_bit(args):
    g1, g2, ts = args
    try:
        u3 = lmg_batch(g1, g2, ts).u3
    except InputError:  # a product rounded past the largest float
        return
    phases = _per_angle_phases([2.0 * g2 * t for t in ts], [1.0, 2.0, 1.0])
    expected = _per_angle_rotation([2.0 * g1 * t for t in ts], 7) * phases[:, None, :]
    assert u3.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", range(1, 9))
def test_embedding_is_identity_on_singlet(k):
    g = gate(k, 1.234)
    np.testing.assert_allclose(g.u4, to_qubit_basis(g.u3, 1.0), atol=1e-15)


@pytest.mark.parametrize("k, axis, sign", [(1, "x", -1.0), (2, "y", 1.0), (3, "z", 1.0)])
def test_rotation_gates_factor_into_identical_qubit_rotations(k, axis, sign):
    theta = 0.83
    v_expected = expm_hermitian(PAULI[axis], sign * theta / 2)
    g = gate(k, theta)
    v, w, residual = kron_factor_2x2(g.u4)
    assert residual < 1e-10
    np.testing.assert_allclose(np.kron(v, w), g.u4, atol=1e-10)
    assert max_phase_distance(v, w) < 1e-10
    assert max_phase_distance(v, v_expected) < 1e-10


def test_custom_gate_requires_unitary():
    with pytest.raises(ValueError, match="unitary"):
        custom_gate(np.ones((3, 3)))


def test_lmg_params_derived_quantities():
    p = LMGParams(g1=1.5, g2=0.75, t=2.0)
    assert p.xi == pytest.approx(6.0, abs=1e-14)
    assert p.beta == pytest.approx(2 * 0.75 * 2.0 / SQ3, abs=1e-14)


def test_lmg_hamiltonian_limits():
    np.testing.assert_allclose(lmg_hamiltonian(0.0, 0.0), np.zeros((3, 3)), atol=0)
    np.testing.assert_allclose(lmg_hamiltonian(1.0, 0.0), 2.0 * M[7], atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(g1=st.floats(-1e3, 1e3), g2=st.floats(-1e3, 1e3))
def test_lmg_hamiltonian_equals_its_basis_expansion(g1, g2):
    basis_form = 2.0 * g1 * M[7] + (2.0 / SQ3) * g2 * (math.sqrt(8.0) * M[0] - M[8])
    assert np.max(np.abs(lmg_hamiltonian(g1, g2) - basis_form)) <= 1e-12


def test_lmg_hamiltonian_accepts_large_couplings():
    h = lmg_hamiltonian(1e4, 3e4)
    assert np.array_equal(h, 1e4 * lmg_hamiltonian(1.0, 0.0) + 3e4 * lmg_hamiltonian(0.0, 1.0))


def test_lmg_hamiltonian_commutes_with_m8(rng):
    for g1, g2 in rng.uniform(-2, 2, size=(10, 2)):
        h = lmg_hamiltonian(g1, g2)
        np.testing.assert_allclose(commutator(h, M[8]), np.zeros((3, 3)), atol=1e-13)


def test_lmg_gate_at_zero_time():
    g = lmg_gate(LMGParams(g1=1.0, g2=2.0, t=0.0))
    np.testing.assert_allclose(g.u3, np.eye(3), atol=1e-15)


def test_lmg_gate_matches_closed_form(rng):
    for g1, g2, t in rng.uniform(-2, 2, size=(20, 3)):
        p = LMGParams(g1=g1, g2=g2, t=t)
        np.testing.assert_allclose(lmg_gate(p).u3, expm_hermitian(lmg_hamiltonian(g1, g2), t),
                                   atol=1e-12)


def test_lmg_gate_pure_dephasing_when_g1_vanishes():
    p = LMGParams(g1=0.0, g2=0.9, t=1.3)
    g = lmg_gate(p)
    corner = np.exp(1j * SQ3 * p.beta)
    expected = np.diag([corner, np.exp(2j * SQ3 * p.beta), corner])
    np.testing.assert_allclose(g.u3, expected, atol=1e-14)


def test_lmg_action_on_aligned_state():
    p = LMGParams(g1=0.7, g2=1.9, t=0.45)
    g = lmg_gate(p)
    out = g.u4 @ np.array([1.0, 0.0, 0.0, 0.0])
    expected = np.array([math.cos(p.xi), 0.0, 0.0, 1j * math.sin(p.xi)])
    assert max_phase_distance(out, expected) < 1e-12


def test_lmg_embedding_commutes_with_m8_embedding():
    g = lmg_gate(LMGParams(g1=1.1, g2=0.4, t=0.8))
    m8_embedded = to_qubit_basis(M[8], 0.0)
    np.testing.assert_allclose(commutator(g.u4, m8_embedded), np.zeros((4, 4)), atol=1e-13)
