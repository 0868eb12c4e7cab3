from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symgates.linalg import (
    InputError,
    _hermitian,
    _hermiticity,
    anticommutator,
    commutator,
    expm_hermitian,
    is_hermitian,
    is_unitary,
)
from symgates.su3 import M1, M2, M3, M4, M7, M8, decompose_hamiltonian
from symgates.tensors import decompose

from helpers import WARNINGS_ARE_ERRORS, haar_unitary, near_hermitian, random_hermitian


def test_commutator_of_matrix_with_itself_vanishes():
    assert np.max(np.abs(commutator(M1, M1))) == 0.0


def test_commutator_m1_m2():
    np.testing.assert_allclose(commutator(M1, M2), -1j * M3, atol=1e-14)


def test_anticommutator_m3_m8():
    np.testing.assert_allclose(anticommutator(M3, M8), 2 / np.sqrt(3) * M3, atol=1e-14)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError, match=r"^b must be a 3x3 matrix, got shape \(4, 4\)"):
        commutator(np.eye(3), np.eye(4))
    with pytest.raises(InputError, match=r"^b must be a 2x2 matrix, got shape \(3, 3\)"):
        anticommutator(np.eye(2), np.eye(3))


def test_products_of_basis_matrices():
    np.testing.assert_allclose(M3 @ M3, np.diag([1.0, 0.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(M4 @ M7, 1j * np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_trace_and_determinant_facts():
    assert abs(np.trace(M8)) < 1e-15
    theta = 0.73
    u = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
    assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_expm_of_zero_is_identity():
    np.testing.assert_allclose(expm_hermitian(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-15)


def test_expm_m3_gives_diagonal_phases():
    theta = 1.234
    expected = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
    np.testing.assert_allclose(expm_hermitian(M3, theta), expected, atol=1e-14)


def test_expm_m4_quarter_turn():
    expected = np.array([[0, 0, -1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    np.testing.assert_allclose(expm_hermitian(M4, np.pi / 2), expected, atol=1e-14)


def test_expm_rejects_non_hermitian_and_names_entry():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        expm_hermitian(bad, 1.0)


def test_expm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        expm_hermitian(np.zeros((2, 3)), 1.0)


@st.composite
def hermitian_inputs(draw):
    dim = draw(st.integers(min_value=2, max_value=6))
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    flat = np.asarray(entries)
    a = flat[: dim * dim].reshape(dim, dim) + 1j * flat[dim * dim:].reshape(dim, dim)
    return (a + a.conj().T) / 2


@given(h=hermitian_inputs(), t=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_expm_is_unitary_and_invertible(h, t):
    u = expm_hermitian(h, t)
    assert is_unitary(u, atol=1e-12)
    np.testing.assert_allclose(u @ expm_hermitian(h, -t), np.eye(h.shape[0]), atol=1e-12)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12


@given(h=hermitian_inputs(), t1=st.floats(-10.0, 10.0), t2=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_expm_group_property(h, t1, t2):
    lhs = expm_hermitian(h, t1 + t2)
    rhs = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_hermiticity_predicate(rng):
    h = random_hermitian(rng, 4)
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3))


def test_hermiticity_checks_accept_rounding_that_grows_with_the_matrix(rng):
    # A A^dagger is Hermitian up to rounding, about 7e-12 at max|h| ~ 1e4
    for _ in range(20):
        a = 100.0 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        h = a @ a.conj().T
        assert is_hermitian(h)
        decompose(h, 1)
        decompose_hamiltonian(h)
        expm_hermitian(h)
        # the tolerance is 1e-12 * max|h|, not disabled
        bad = h + 1e-10 * np.max(np.abs(h)) * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        assert not is_hermitian(bad)
        for call in (lambda: decompose(bad, 1), lambda: decompose_hamiltonian(bad),
                     lambda: expm_hermitian(bad)):
            with pytest.raises(ValueError, match=r"not Hermitian: \|\(h - h\^dagger\)\[0, 1\]\|"):
                call()
    # nor infinite where |h| overflows a float
    big = np.array([[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]])
    assert is_hermitian(big) and not is_hermitian(big + np.array([[0, 1e300], [0, 0]]))


@WARNINGS_ARE_ERRORS
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
       size=st.sampled_from([1, 31, 32, 33, 256]), defect=st.sampled_from([0.0, 1e-11, np.inf]))
def test_stack_unitarity_verdict_is_the_per_matrix_verdict(seed, n, size, defect):
    # single matrices, stacks and a stack nested one level deeper
    rng = np.random.default_rng(seed)
    stack = np.stack([expm_hermitian(random_hermitian(rng, n)) for _ in range(size)])
    stack[rng.integers(size), rng.integers(n), rng.integers(n)] += defect
    expected = all(is_unitary(u) for u in stack)
    assert expected == (defect == 0.0)
    assert is_unitary(stack) == expected
    assert is_unitary(stack.reshape(1, size, n, n)) == expected


def _exact_unitarity_defect_squared(u: np.ndarray) -> Fraction:
    """max |(u^dagger u - I)_ij|^2 over the binary values of u, in exact arithmetic."""
    re = [[Fraction(x) for x in row] for row in u.real.tolist()]
    im = [[Fraction(x) for x in row] for row in u.imag.tolist()]
    worst = Fraction(0)
    for i in range(3):
        for j in range(i, 3):
            g_re = sum(re[k][i] * re[k][j] + im[k][i] * im[k][j] for k in range(3)) - (i == j)
            g_im = sum(re[k][i] * im[k][j] - im[k][i] * re[k][j] for k in range(3))
            worst = max(worst, g_re * g_re + g_im * g_im)
    return worst


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([0.0, 0.5, 2.0, 10.0]),
       log_atol=st.floats(-12.0, -4.0))
def test_3x3_unitarity_verdict_is_the_exact_one(seed, c, log_atol):
    # Haar unitaries, alone and plus c * atol * E; the closed form and the
    # (1, 3, 3) stack path, which numpy computes, both give the verdict of
    # exact arithmetic wherever the exact defect is 1% or more from atol
    rng = np.random.default_rng(seed)
    atol = 10.0 ** log_atol
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = haar_unitary(rng, 3) + c * atol * e
    worst, bound = _exact_unitarity_defect_squared(u), Fraction(atol) ** 2
    assume(not Fraction(99, 100) ** 2 * bound <= worst <= Fraction(101, 100) ** 2 * bound)
    expected = worst <= bound
    assert is_unitary(u, atol) is expected
    assert is_unitary(u[None], atol) is expected
    assert is_unitary(u, np.float64(atol)) is expected


def _numpy_hermiticity_verdict(h: np.ndarray) -> tuple[bool, float]:
    d, top, atol = _hermiticity(h, h.conj().T)
    return bool(d.max() <= atol), top


def _assert_numpys_verdict_at_the_tolerance(n, seed, ulps, scale):
    # A defect |h01 - conj h10| = |h01| a few ulps from the tolerance
    # 1e-12 * |h_(n-1)(n-1)|, at a random phase: numpy's complex abs and
    # Python's (libm's hypot) may round an ulp apart there, and the verdict,
    # the bound and the failure report stay numpy's.
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, scale)
    h[-1, -1] = 10.0 * scale
    h[1, 0] = 0.0
    tol = 1e-12 * max(1.0, 10.0 * scale)
    h[0, 1] = tol * (1.0 + ulps * 2.0**-52) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    expected, top = _numpy_hermiticity_verdict(h)
    assert is_hermitian(h) is expected
    if expected:
        assert _hermitian("h", h) == top
    else:
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: \|\(h - h\^dagger\)"
                                             r"\[0, 1\]\| = "):
            _hermitian("h", h)


def _assert_numpys_verdict_on_random_matrices(n, seed, frac, scale):
    # near-Hermitian matrices (largest defect `frac` of the tolerance) and
    # general complex ones, entries near 1e308 included, whose moduli can
    # overflow: the verdict of numpy's rule, and max|h| within two ulps of
    # numpy's where the check passes
    rng = np.random.default_rng(seed)
    general = rng.uniform(-1.0, 1.0, (2, n, n)) + 1j * rng.uniform(-1.0, 1.0, (2, n, n))
    for h in (near_hermitian(rng, n, scale, frac), scale * general[0], 1.7e308 * general[1]):
        expected, top = _numpy_hermiticity_verdict(h)
        assert is_hermitian(h) is expected
        if expected:
            assert abs(_hermitian("h", h) - top) <= 2 * np.spacing(top)


AT_THE_TOLERANCE = dict(seed=st.integers(0, 2**32 - 1), ulps=st.integers(-200, 200),
                        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e290]))
RANDOM_MATRICES = dict(seed=st.integers(0, 2**32 - 1),
                       frac=st.sampled_from([0.0, 0.5, 0.98, 1.02, 2.0]),
                       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e299, 1e307]))


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(**AT_THE_TOLERANCE)
def test_3x3_hermiticity_verdict_is_numpys_at_the_tolerance(seed, ulps, scale):
    _assert_numpys_verdict_at_the_tolerance(3, seed, ulps, scale)


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(**RANDOM_MATRICES)
def test_3x3_hermiticity_agrees_with_numpy_on_random_matrices(seed, frac, scale):
    _assert_numpys_verdict_on_random_matrices(3, seed, frac, scale)


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(**AT_THE_TOLERANCE)
def test_2x2_hermiticity_verdict_is_numpys_at_the_tolerance(seed, ulps, scale):
    _assert_numpys_verdict_at_the_tolerance(2, seed, ulps, scale)


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(**RANDOM_MATRICES)
def test_2x2_hermiticity_agrees_with_numpy_on_random_matrices(seed, frac, scale):
    _assert_numpys_verdict_on_random_matrices(2, seed, frac, scale)


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_2x2_non_finite_matrices_fail_the_hermiticity_check_and_name_the_entry(bad):
    for index in np.ndindex(2, 2):
        for value in (bad, complex(0.0, bad)):
            m = np.zeros((2, 2), dtype=complex)
            m[index] = value
            assert is_hermitian(m) is False
            with pytest.raises(InputError, match=rf"^h must be finite, got .* at index "
                                                 rf"{2 * index[0] + index[1]}$"):
                decompose(m, 0.5)
