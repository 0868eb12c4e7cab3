import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgates.linalg import commutator
from symgates.su3 import (
    ANTICOMMUTATOR_TABLE,
    COMMUTATOR_TABLE,
    GELL_MANN,
    M,
    U_QUBIT_TO_ANGULAR,
    angular_momentum,
    build_hamiltonian,
    decompose_hamiltonian,
    from_qubit_basis,
    gellmann_map,
    m_coefficients,
    m_matrix,
    to_qubit_basis,
    verify_algebra_tables,
    verify_gellmann,
)
from symgates.tensors import hermitian_basis

from helpers import m_coefficients_reference, random_hermitian

SQ3 = math.sqrt(3.0)
SQ23 = math.sqrt(2.0 / 3.0)


def test_literal_matrices():
    np.testing.assert_allclose(m_matrix(3), np.diag([1.0, 0.0, -1.0]), atol=0)
    np.testing.assert_allclose(m_matrix(8), np.diag([1.0, -2.0, 1.0]) / SQ3, atol=0)
    np.testing.assert_allclose(m_matrix(4),
                               np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]), atol=0)


def test_m_matrix_rejects_bad_index():
    with pytest.raises(ValueError):
        m_matrix(9)
    with pytest.raises(ValueError):
        m_matrix(-1)


def test_trace_normalization():
    for k in range(9):
        for kp in range(9):
            value = np.trace(M[k] @ M[kp])
            assert abs(value - (2.0 if k == kp else 0.0)) < 1e-14


def test_eigenvalues_of_m1_to_m7():
    for k in range(1, 8):
        eig = np.sort(np.linalg.eigvalsh(M[k]))
        np.testing.assert_allclose(eig, [-1.0, 0.0, 1.0], atol=1e-12)


def test_tracelessness():
    for k in range(1, 9):
        assert abs(np.trace(M[k])) < 1e-14


def test_angular_momentum_matrices():
    jz = angular_momentum("z")
    np.testing.assert_allclose(jz, np.diag([1.0, 0.0, -1.0]), atol=0)
    jx, jy = angular_momentum("x"), angular_momentum("y")
    np.testing.assert_allclose(commutator(jx, jy), 1j * jz, atol=1e-15)
    with pytest.raises(ValueError, match="axis"):
        angular_momentum("w")


def test_angular_momentum_expressions_for_basis():
    jx, jy, jz = (angular_momentum(a) for a in "xyz")
    eye = np.eye(3)
    expected = {
        1: -jx,
        2: jy,
        3: jz,
        4: -(jx @ jy + jy @ jx),
        5: jy @ jz + jz @ jy,
        6: -(jx @ jz + jz @ jx),
        7: jx @ jx - jy @ jy,
        # The 1/sqrt(3) keeps Tr(M8^2) = 2; without it the quadratic
        # combination has trace norm 6.
        8: (3 * jz @ jz - 2 * eye) / SQ3,
    }
    for k, mat in expected.items():
        np.testing.assert_allclose(M[k], mat, atol=1e-14)


def test_basis_matches_scaled_hermitian_tensor_basis():
    lookup = {(t.component, t.k, t.q): t.matrix for t in hermitian_basis(1)}
    mapping = {
        0: ("zero", 0, 0), 1: ("plus", 1, 1), 2: ("minus", 1, 1), 3: ("zero", 1, 0),
        4: ("minus", 2, 2), 5: ("minus", 2, 1), 6: ("plus", 2, 1), 7: ("plus", 2, 2),
        8: ("zero", 2, 0),
    }
    for k, key in mapping.items():
        np.testing.assert_allclose(math.sqrt(2) * lookup[key], M[k], atol=1e-13)


def test_table_data_symmetries():
    for (k, kp), entry in COMMUTATOR_TABLE.entries.items():
        partner = COMMUTATOR_TABLE.entries[(kp, k)]
        assert {(i, c) for c, i in partner} == {(i, -c) for c, i in entry}
    for (k, kp), entry in ANTICOMMUTATOR_TABLE.entries.items():
        assert ANTICOMMUTATOR_TABLE.entries[(kp, k)] == entry


def test_algebra_tables_verify():
    comm, anti, report = verify_algebra_tables()
    assert report.entries_checked == 128
    assert report.passed
    assert report.max_residual < 1e-13
    assert report.triplets_ok
    assert report.vanishing_ok and report.vanishing_residual < 1e-14
    assert comm.kind == "commutator" and anti.kind == "anticommutator"


def test_selected_table_entries():
    np.testing.assert_allclose(commutator(M[3], M[4]), 2j * M[7], atol=1e-14)
    expected = 2 * SQ23 * M[0] + M[7] - M[8] / SQ3
    np.testing.assert_allclose(M[1] @ M[1] + M[1] @ M[1], expected, atol=1e-14)
    np.testing.assert_allclose(commutator(M[8], M[3]), np.zeros((3, 3)), atol=0)


def test_gellmann_relations():
    report = verify_gellmann()
    assert report.passed
    assert report.max_residual < 1e-14
    relations = gellmann_map()
    assert relations[7] == ((1.0, 4),)
    np.testing.assert_allclose(M[7], GELL_MANN[3], atol=0)
    np.testing.assert_allclose(M[4], -GELL_MANN[4], atol=0)
    np.testing.assert_allclose(M[3], GELL_MANN[2] / 2 + SQ3 / 2 * GELL_MANN[7], atol=1e-15)


def test_m_coefficients_span_all_matrices(rng):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    coeffs = m_coefficients(x)
    rebuilt = sum(c * M[k] for k, c in enumerate(coeffs))
    np.testing.assert_allclose(rebuilt, x, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_stacked_m_coefficients_equal_the_per_matrix_loop(seed, scale):
    rng = np.random.default_rng(seed)
    x = scale * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert np.array_equal(m_coefficients(x), m_coefficients_reference(x))
    h = random_hermitian(rng, 3, scale)
    assert np.array_equal(decompose_hamiltonian(h), 2 * m_coefficients_reference(h).real)


def test_decompose_hamiltonian_basis_elements():
    coeffs = decompose_hamiltonian(M[3])
    expected = np.zeros(9)
    expected[3] = 2.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-14)
    coeffs = decompose_hamiltonian(np.eye(3))
    assert coeffs[0] == pytest.approx(math.sqrt(6), abs=1e-14)
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_decompose_build_round_trip(rng):
    for _ in range(25):
        h = random_hermitian(rng, 3)
        np.testing.assert_allclose(build_hamiltonian(decompose_hamiltonian(h)), h, atol=1e-13)


def test_decompose_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="3x3"):
        decompose_hamiltonian(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        decompose_hamiltonian(np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]]))


# Expected product-basis realizations of the nine matrices, ordered
# (up-up, up-down, down-up, down-down), written out from the literal
# 3x3 forms and the triplet/singlet basis change by hand.  The
# symmetric-projector weight in M0 is sqrt(2/3)/2 = 1/sqrt(6).  For the
# imaginary matrices M2, M4, M5 the signs also agree with the two-qubit
# angular momentum operators, e.g. <up up|Jy|up down> = -i/2.
def _qubit_realizations():
    s = 1 / math.sqrt(6)
    h = 0.5
    t = 1 / SQ3
    return {
        0: [[SQ23, 0, 0, 0], [0, s, s, 0], [0, s, s, 0], [0, 0, 0, SQ23]],
        1: [[0, -h, -h, 0], [-h, 0, 0, -h], [-h, 0, 0, -h], [0, -h, -h, 0]],
        2: [[0, -1j * h, -1j * h, 0], [1j * h, 0, 0, -1j * h],
            [1j * h, 0, 0, -1j * h], [0, 1j * h, 1j * h, 0]],
        3: [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
        4: [[0, 0, 0, 1j], [0, 0, 0, 0], [0, 0, 0, 0], [-1j, 0, 0, 0]],
        5: [[0, -1j * h, -1j * h, 0], [1j * h, 0, 0, 1j * h],
            [1j * h, 0, 0, 1j * h], [0, -1j * h, -1j * h, 0]],
        6: [[0, -h, -h, 0], [-h, 0, 0, h], [-h, 0, 0, h], [0, h, h, 0]],
        7: [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
        8: [[t, 0, 0, 0], [0, -t, -t, 0], [0, -t, -t, 0], [0, 0, 0, t]],
    }


@pytest.mark.parametrize("k", range(9))
def test_qubit_realizations_of_basis(k):
    expected = np.array(_qubit_realizations()[k], dtype=complex)
    np.testing.assert_allclose(to_qubit_basis(M[k], 0.0), expected, atol=1e-14)


def test_identity_with_unit_singlet_embeds_to_identity():
    np.testing.assert_allclose(to_qubit_basis(np.eye(3), 1.0), np.eye(4), atol=1e-15)


def test_qubit_basis_round_trip(rng):
    op3 = random_hermitian(rng, 3)
    op4 = to_qubit_basis(op3, 0.25)
    back, singlet = from_qubit_basis(op4)
    np.testing.assert_allclose(back, op3, atol=1e-13)
    assert singlet == pytest.approx(0.25, abs=1e-13)


def test_from_qubit_basis_rejects_sector_coupling():
    sigma_x_on_first = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
    with pytest.raises(ValueError, match="couples"):
        from_qubit_basis(sigma_x_on_first)


def test_basis_change_is_unitary():
    u = U_QUBIT_TO_ANGULAR
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)
