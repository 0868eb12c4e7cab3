import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symgates import tensors
from symgates.linalg import InputError, expm_hermitian, is_hermitian
from symgates.tensors import (
    TensorParams,
    angular_momentum_matrices,
    clebsch_gordan,
    decompose,
    hermitian_basis,
    reconstruct,
    rotate_params,
    spherical_basis,
    tau,
    wigner_d,
)

from helpers import decompose_reference, near_hermitian, random_hermitian, spin_y

ALL_SPINS = [0.5, 1.0, 1.5, 2.0, 2.5]

# (j1, m1, j2, m2, j3, m3, value), Condon-Shortley phases.
KNOWN_CG = [
    (0.5, 0.5, 0.5, 0.5, 1, 1, 1.0),
    (0.5, 0.5, 0.5, -0.5, 1, 0, 1 / math.sqrt(2)),
    (0.5, 0.5, 0.5, -0.5, 0, 0, 1 / math.sqrt(2)),
    (0.5, -0.5, 0.5, 0.5, 0, 0, -1 / math.sqrt(2)),
    (1, 1, 1, 0, 2, 1, 1 / math.sqrt(2)),
    (1, 1, 1, 0, 1, 1, 1 / math.sqrt(2)),
    (1, 0, 1, 1, 1, 1, -1 / math.sqrt(2)),
    (1, 1, 1, -1, 2, 0, 1 / math.sqrt(6)),
    (1, 0, 1, 0, 2, 0, math.sqrt(2.0 / 3.0)),
    (1, 1, 1, -1, 1, 0, 1 / math.sqrt(2)),
    (1, 0, 1, 0, 1, 0, 0.0),
    (1, 1, 1, -1, 0, 0, 1 / math.sqrt(3)),
    (1, 0, 1, 0, 0, 0, -1 / math.sqrt(3)),
    (1, -1, 2, 2, 1, 1, math.sqrt(3.0 / 5.0)),
]


@pytest.mark.parametrize("j1, m1, j2, m2, j3, m3, value", KNOWN_CG)
def test_clebsch_gordan_known_values(j1, m1, j2, m2, j3, m3, value):
    assert clebsch_gordan(j1, m1, j2, m2, j3, m3) == pytest.approx(value, abs=1e-14)


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0  # m1 + m2 != m3
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle rule
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0, 0) == 0.0  # m mismatch at j3 = 0


def test_clebsch_gordan_invalid_arguments():
    with pytest.raises(InputError, match=r"^m1 must be one of -j1, -j1 \+ 1, \.\.\., j1, "
                                         r"got 1\.5 with j1 = 0\.5$"):
        clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1, 1)
    with pytest.raises(InputError, match="^j1 must be a half-integer, got 0.3$"):
        clebsch_gordan(0.3, 0.3, 0.5, 0.5, 1, 1)
    with pytest.raises(InputError, match=r"^m1 must be one of .* got 0\.5 with j1 = 1$"):
        clebsch_gordan(1, 0.5, 1, 0.5, 2, 1)
    with pytest.raises(InputError, match="^j2 must be between 0 and 10, got -1$"):
        clebsch_gordan(1, 0, -1, 0, 1, 0)
    with pytest.raises(InputError, match="^j3 must be between 0 and 10, got 10.5$"):
        clebsch_gordan(10, 10, 0.5, 0.5, 10.5, 10.5)
    # spins up to the bound are accepted: <29 29; 29 29 | 58 58> read inf before it
    assert tensors.MAX_CG_SPIN == 10
    assert clebsch_gordan(5, 5, 5, 5, 10, 10) == 1.0 == clebsch_gordan(10, 10, 0, 0, 10, 10)
    with pytest.raises(InputError, match="^j1 must be between 0 and 10, got 29$"):
        clebsch_gordan(29, 29, 29, 29, 58, 58)


def _exact_clebsch_gordan(tj1, tm1, tj2, tm2, tj3, tm3) -> float:
    """The coefficient of twice the quantum numbers by Racah's formula in
    rational arithmetic, rounded once: sign(S) sqrt(P S^2) with P the
    prefactor's square and S the sum, both exact."""
    if tm1 + tm2 != tm3 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2 or (tj1 + tj2 + tj3) % 2:
        return 0.0

    def fact(two_n):
        return math.factorial(two_n // 2)

    p = Fraction((tj3 + 1) * fact(tj1 + tj2 - tj3) * fact(tj1 - tj2 + tj3) * fact(tj2 + tj3 - tj1)
                 * fact(tj1 + tm1) * fact(tj1 - tm1) * fact(tj2 + tm2) * fact(tj2 - tm2)
                 * fact(tj3 + tm3) * fact(tj3 - tm3), fact(tj1 + tj2 + tj3 + 2))
    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 + tm2 - tj3) // 2)
    k_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    s = sum(Fraction((-1) ** k, math.factorial(k) * fact(tj1 + tj2 - tj3 - 2 * k)
                     * fact(tj1 - tm1 - 2 * k) * fact(tj2 + tm2 - 2 * k)
                     * fact(tj3 - tj2 + tm1 + 2 * k) * fact(tj3 - tj1 - tm2 + 2 * k))
            for k in range(k_min, k_max + 1))
    return math.copysign(math.sqrt(p * s * s), s)


@st.composite
def _quantum_numbers(draw):
    """Twice (j1, m1, j2, m2, j3, m3), every spin within the bound and every
    m a projection of its spin; m3 = m1 + m2 and the triangle rule hold."""
    top = 2 * tensors.MAX_CG_SPIN
    tj1, tj2 = draw(st.integers(0, top)), draw(st.integers(0, top))
    tj3 = draw(st.sampled_from(range(abs(tj1 - tj2), min(tj1 + tj2, top) + 1, 2)))
    tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tm2 = draw(st.sampled_from([tm for tm in range(-tj2, tj2 + 1, 2) if abs(tm1 + tm) <= tj3]))
    return tj1, tm1, tj2, tm2, tj3, tm1 + tm2


@given(_quantum_numbers())
@example((20, 0, 20, 0, 20, 0))  # a sum of 11 alternating terms
@example((20, -2, 20, 0, 20, -2))  # the largest error of an exhaustive search, 7.8e-16
@settings(max_examples=300, deadline=None)
def test_clebsch_gordan_matches_rational_arithmetic_up_to_the_spin_bound(twice):
    value = clebsch_gordan(*(n / 2 for n in twice))
    assert math.isfinite(value)
    assert value == pytest.approx(_exact_clebsch_gordan(*twice), abs=1e-15)


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_clebsch_gordan_exchange_symmetry(tj1, tj2):
    j1, j2 = tj1 / 2, tj2 / 2
    for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        j3 = tj3 / 2
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                if abs(tm1 + tm2) > tj3:
                    continue
                m1, m2 = tm1 / 2, tm2 / 2
                lhs = clebsch_gordan(j1, m1, j2, m2, j3, m1 + m2)
                rhs = clebsch_gordan(j2, m2, j1, m1, j3, m1 + m2)
                sign = (-1.0) ** round(j1 + j2 - j3)
                assert lhs == pytest.approx(sign * rhs, abs=1e-13)


def test_clebsch_gordan_orthogonality():
    j1, j2 = 1.0, 1.5
    tj1, tj2 = 2, 3
    for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tj3p in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm3 in range(-tj3, tj3 + 1, 2):
                if abs(tm3) > tj3p:
                    continue
                total = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tm3 - tm1
                    if abs(tm2) > tj2:
                        continue
                    total += (clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tj3 / 2, tm3 / 2)
                              * clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tj3p / 2, tm3 / 2))
                assert total == pytest.approx(1.0 if tj3 == tj3p else 0.0, abs=1e-13)


def test_tau_scalar_is_identity():
    np.testing.assert_allclose(tau(1, 0, 0).matrix, np.eye(3), atol=1e-15)


def test_tau_rank1_q0_matches_jz():
    np.testing.assert_allclose(tau(1, 1, 0).matrix,
                               math.sqrt(1.5) * np.diag([1.0, 0.0, -1.0]), atol=1e-14)


def test_tau_rank2_q2_single_entry():
    m = tau(1, 2, 2).matrix
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = math.sqrt(3)
    np.testing.assert_allclose(m, expected, atol=1e-14)


@pytest.mark.parametrize("j", ALL_SPINS)
def test_tau_rank1_proportional_to_angular_momentum(j):
    # Condon-Shortley phases give tau^1_0 ~ Jz and tau^1_1 ~ -J+.
    jm = angular_momentum_matrices(j)
    scale = math.sqrt(3.0 / (j * (j + 1)))
    np.testing.assert_allclose(tau(j, 1, 0).matrix, scale * jm.z, atol=1e-13)
    np.testing.assert_allclose(tau(j, 1, 1).matrix, -scale / math.sqrt(2) * jm.plus, atol=1e-13)


def test_tau_rejects_out_of_range():
    with pytest.raises(ValueError, match="rank"):
        tau(1, 3, 0)
    with pytest.raises(ValueError, match="projection"):
        tau(1, 2, 3)
    # an unsupported spin is outside the library's domain, as k and q are
    with pytest.raises(InputError, match="^j must be at most 2.5, got 3$"):
        tau(3, 1, 0)
    with pytest.raises(InputError, match="^j must be non-negative, got -0.5$"):
        tau(-0.5, 0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: tau(0.3, 0, 0), "j must be a half-integer, got 0.3"),
    (lambda: angular_momentum_matrices(0.7), "j must be a half-integer, got 0.7"),
    (lambda: clebsch_gordan(0.5, 0.3, 0.5, 0.5, 1, 1), "m1 must be a half-integer, got 0.3"),
])
def test_a_spin_or_projection_off_the_half_integers_is_an_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("j", ALL_SPINS)
def test_tau_orthogonality(j):
    ops = spherical_basis(j)
    dim = round(2 * j) + 1
    for a in ops:
        for b in ops:
            expected = dim if (a.k, a.q) == (b.k, b.q) else 0.0
            value = np.trace(a.matrix.conj().T @ b.matrix)
            assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("j", ALL_SPINS)
def test_tau_adjoint_symmetry(j):
    for k in range(round(2 * j) + 1):
        for q in range(-k, k + 1):
            lhs = tau(j, k, q).matrix.conj().T
            rhs = (-1.0) ** q * tau(j, k, -q).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("j, count", [(0.5, 4), (1.0, 9), (1.5, 16), (2.5, 36)])
def test_hermitian_basis_count(j, count):
    assert len(hermitian_basis(j)) == count


@pytest.mark.parametrize("j", ALL_SPINS)
def test_hermitian_basis_orthonormal_hermitian_traceless(j):
    ops = hermitian_basis(j)
    for a in ops:
        np.testing.assert_allclose(a.matrix, a.matrix.conj().T, atol=1e-12)
        if a.k >= 1:
            assert abs(np.trace(a.matrix)) < 1e-12
    for ia, a in enumerate(ops):
        for ib, b in enumerate(ops):
            value = np.trace(a.matrix @ b.matrix)
            assert abs(value - (1.0 if ia == ib else 0.0)) < 1e-12


def test_hermitian_basis_spin_half_scalar():
    first = hermitian_basis(0.5)[0]
    np.testing.assert_allclose(first.matrix, np.eye(2) / math.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("j", ALL_SPINS)
def test_hermitian_basis_expands_random_hermitian(j, rng):
    ops = hermitian_basis(j)
    dim = round(2 * j) + 1
    for _ in range(10):
        h = random_hermitian(rng, dim)
        rebuilt = sum(np.trace(h @ op.matrix) * op.matrix for op in ops)
        np.testing.assert_allclose(rebuilt, h, atol=1e-12)


def test_decompose_identity():
    params = decompose(np.eye(3), 1)
    assert params.coeffs[(0, 0)] == pytest.approx(3.0)
    assert all(abs(v) < 1e-14 for key, v in params.coeffs.items() if key != (0, 0))


def test_decompose_jz_like_matrix():
    params = decompose(np.diag([1.0, 0.0, -1.0]), 1)
    assert params.coeffs[(1, 0)] == pytest.approx(math.sqrt(6), abs=1e-14)
    assert all(abs(v) < 1e-14 for key, v in params.coeffs.items() if key != (1, 0))


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        decompose(np.array([[0, 1], [0, 0]], dtype=complex), 0.5)


@pytest.mark.parametrize("j", ALL_SPINS)
def test_decompose_reconstruct_round_trip(j, rng):
    dim = round(2 * j) + 1
    for _ in range(20):
        h = random_hermitian(rng, dim)
        np.testing.assert_allclose(reconstruct(decompose(h, j)), h, atol=1e-12)


@given(j=st.sampled_from(ALL_SPINS), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_stacked_decompose_equals_the_per_operator_loop(j, seed, scale):
    # one product sums the loop's d*d products in another order: within 2 d eps max|h|
    dim = round(2 * j) + 1
    h = random_hermitian(np.random.default_rng(seed), dim, scale)
    params, reference = decompose(h, j), decompose_reference(h, j)
    assert list(params.coeffs) == list(reference)
    delta = max(abs(params.coeffs[key] - value) for key, value in reference.items())
    assert delta <= 2 * dim * np.finfo(np.float64).eps * np.max(np.abs(h))
    np.testing.assert_allclose(reconstruct(params), h, atol=1e-12 * max(1.0, scale))


def test_tensor_params_validate_hermiticity():
    with pytest.raises(ValueError, match="Hermiticity"):
        TensorParams(j=0.5, coeffs={(0, 0): 1.0, (1, 0): 1j, (1, 1): 0.0, (1, -1): 0.0})


def test_tensor_params_hermiticity_check_signs_odd_q_and_scales_with_h():
    with pytest.raises(ValueError, match="Hermiticity"):
        TensorParams(j=0.5, coeffs={(1, 1): 1.0, (1, -1): 1.0})
    # conj(h^1_1) = -h^1_{-1} within 1e-12 * max(1, |h|), here 1e-6
    TensorParams(j=0.5, coeffs={(1, 1): 1e6 + 1j, (1, -1): -1e6 + 1j + 1e-7})
    with pytest.raises(ValueError, match="Hermiticity"):
        TensorParams(j=0.5, coeffs={(1, 1): 1e6 + 1j, (1, -1): -1e6 + 1j + 3e-6})
    # max|h| is that of every coefficient, even where |h| overflows a float
    big = 1.5e308 + 1.5e308j
    TensorParams(j=0.5, coeffs={(0, 0): 1 + 1e-11j, (1, 1): big, (1, 0): 0.0,
                                (1, -1): -big.conjugate()})


def test_tensor_params_name_the_first_failing_key_in_key_order():
    # both keys of the pair fail; (1, -1) comes first in (k, q) order
    with pytest.raises(ValueError) as err:
        TensorParams(j=0.5, coeffs={(1, 1): 1.0, (1, -1): 1.0})
    assert str(err.value) == ("coefficients violate Hermiticity at (k=1, q=-1): "
                              "conj(h) = (1-0j), (-1)^q h(-q) = (-1-0j)")


@settings(max_examples=200, deadline=None)
@given(two_j=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 3e4, 1e300]), frac=st.floats(0.0, 0.98))
def test_tensor_params_project_pairs_within_the_tolerance_onto_the_pair_rule(two_j, seed,
                                                                             scale, frac):
    rng = np.random.default_rng(seed)
    exact = decompose(random_hermitian(rng, two_j + 1, scale), two_j / 2)
    atol = 1e-12 * max(1.0, float(np.abs(exact.vector).max()))
    # a pair's defect is at most |e_q| + |e_-q| <= frac * atol, plus rounding
    noise = rng.normal(size=exact.vector.size) + 1j * rng.normal(size=exact.vector.size)
    noise *= frac * atol / 2 / np.abs(noise).max()
    given_coeffs = {key: h + e for (key, h), e in zip(exact.coeffs.items(), noise.tolist())}
    params = TensorParams(exact.j, given_coeffs)
    for (k, q), value in params.coeffs.items():
        partner = params.coeffs[(k, -q)]
        assert value.conjugate() == (-partner if q % 2 else partner)
        assert abs(value - given_coeffs[(k, q)]) <= atol


def test_tensor_params_store_an_exactly_paired_input_as_given():
    # halving rounds an odd multiple of the smallest subnormal to even: the
    # projection would store 1.5e-323 as 1e-323 + 1e-323 = 2e-323
    tiny = 5e-324
    for coeffs in ({(0, 0): 1.5e-323},
                   {(1, 1): tiny + 3 * tiny * 1j, (1, -1): -tiny + 3 * tiny * 1j, (1, 0): -0.0}):
        params = TensorParams(0.5, coeffs)
        for key, h in coeffs.items():
            stored, h = params.coeffs[key], complex(h)
            assert (stored.real.hex(), stored.imag.hex()) == (h.real.hex(), h.imag.hex())


@settings(max_examples=300, deadline=None)
@given(two_j=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 3e4, 1e300]), frac=st.floats(0.0, 1.0),
       angles=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
@example(two_j=1, seed=0, scale=1.0, frac=0.98, angles=(0.0, 0.0, 0.0))
@example(two_j=5, seed=3, scale=1.0, frac=0.98, angles=(0.0, 0.0, 0.0))
def test_decompose_and_rotate_params_meet_the_pair_rule_exactly(two_j, seed, scale, frac,
                                                                angles):
    # every h that the Hermiticity check accepts, defects up to its tolerance included
    h = near_hermitian(np.random.default_rng(seed), two_j + 1, scale, frac)
    assume(is_hermitian(h))
    params = decompose(h, two_j / 2)
    for p in (params, rotate_params(params, *angles)):
        for (k, q), value in p.coeffs.items():
            partner = p.coeffs[(k, -q)]
            assert value.conjugate() == (-partner if q % 2 else partner)
        rebuilt = TensorParams(p.j, p.coeffs)
        assert p == rebuilt and p.vector.tobytes() == rebuilt.vector.tobytes()


@settings(max_examples=60, deadline=None)
@given(j=st.sampled_from(ALL_SPINS), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e8]),
       angles=st.tuples(*[st.floats(-10.0, 10.0, allow_nan=False)] * 3))
def test_decompose_and_rotate_params_equal_the_public_constructor(j, seed, scale, angles):
    params = decompose(random_hermitian(np.random.default_rng(seed), round(2 * j) + 1, scale), j)
    for p in (params, rotate_params(params, *angles)):
        rebuilt = TensorParams(p.j, p.coeffs)
        assert p == rebuilt and list(p.coeffs) == list(rebuilt.coeffs)
        assert p.vector.tobytes() == rebuilt.vector.tobytes()
        assert not p.vector.flags.writeable


@pytest.mark.parametrize("j", ALL_SPINS)
def test_rotated_coefficients_of_large_matrices_pass_the_hermiticity_check(j):
    # pair defects are rounding of the largest coefficient, 1e-12 * max|h| allowed
    dim = round(2 * j) + 1
    for scale in (1e4, 1e6, 1e8):
        rng = np.random.default_rng(dim - 1)
        for _ in range(300):
            h = random_hermitian(rng, dim, scale)
            rotated = rotate_params(decompose(h, j), 0.3, 1.1, -2.0)
            np.testing.assert_allclose(reconstruct(rotated), reconstruct(rotated).conj().T,
                                       atol=1e-12 * scale)


def test_tensor_params_reject_keys_outside_the_basis():
    with pytest.raises(InputError, match=r"^coeffs\[\(2, 0\)\] must be a key \(k, q\) of "
                                         r"j = 0\.5: integers with 0 <= k <= 1 and \|q\| <= k$"):
        TensorParams(j=0.5, coeffs={(2, 0): 1.0})
    with pytest.raises(InputError, match=r"^coeffs\[\(1, 2\)\] must be a key "):
        TensorParams(j=1, coeffs={(1, 2): 1.0, (1, -2): 1.0})
    with pytest.raises(InputError, match=r"^coeffs\[\(1, 1\)\] must be given with its partner "
                                         r"coeffs\[\(1, -1\)\]$"):
        TensorParams(j=1, coeffs={(1, 1): 1.0})
    # a half-integer q lies within |q| <= k but names no tensor operator; nor does a bare int
    with pytest.raises(InputError, match=r"^coeffs\[\(1, 0\.5\)\] must be a key "):
        TensorParams(j=0.5, coeffs={(1, 0.5): 0.0, (1, -0.5): 0.0})
    with pytest.raises(InputError, match=r"^coeffs\[1\] must be a key "):
        TensorParams(j=0.5, coeffs={1: 0.0})
    # keys equal to integer ones are those keys
    assert TensorParams(j=0.5, coeffs={(1.0, 0.0): 2.0}).vector.tolist() == [0, 0, 2, 0]


def test_tensor_params_store_one_vector_and_view_it_read_only(rng):
    h = random_hermitian(rng, 3)
    for params in (decompose(h, 1), rotate_params(decompose(h, 1), 0.3, 1.1, -2.0),
                   TensorParams(1, {(1, 0): 2.0})):
        assert "coeffs" not in vars(params)
        assert list(params.coeffs) == [(k, q) for k in range(3) for q in range(-k, k + 1)]
        assert list(params.coeffs.values()) == params.vector.tolist()
        assert params.coeffs is vars(params)["coeffs"]
    with pytest.raises(TypeError):
        decompose(np.diag([1.0, 0.0, -1.0]), 1).coeffs[(1, 0)] = 0
    # once the view is read, a copy or a pickle carries the vector, not the view
    for twin in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert twin == params and "coeffs" not in vars(twin) and twin.coeffs == params.coeffs
        assert not twin.vector.flags.writeable


def test_tensor_params_count_missing_keys_as_zero():
    params = TensorParams(1, {(1, 0): 2.0})
    assert params.rank_coefficients(1).tolist() == [0, 2, 0]
    assert params == TensorParams(1, {(1, 0): 2.0, (0, 0): 0.0})
    assert params != TensorParams(1, {(1, 0): 2.5}) and params != TensorParams(2, {(1, 0): 2.0})
    # another type is not equal, whatever it holds
    assert params.__eq__(params.vector) is NotImplemented and params != (1, {(1, 0): 2.0})


@pytest.mark.parametrize("j, two_j", [(np.array(1.5), 3), (np.float64(2.0), 4), (np.array(0), 0)])
def test_a_spin_held_by_a_numpy_value_reads_as_its_float(j, two_j):
    # an array is not hashable, so it misses the spin lookup table
    assert tensors._as_two_j(j) == two_j
    assert np.array_equal(angular_momentum_matrices(j).z, angular_momentum_matrices(two_j / 2).z)


@pytest.mark.parametrize("k", [5, 3, -1, 1.5, "1", None])
def test_rank_coefficients_rejects_a_rank_outside_the_spin(k):
    with pytest.raises(InputError, match=r"^rank k must be an integer in 0\.\.2, got "):
        TensorParams(1, {}).rank_coefficients(k)


def test_tensor_params_convert_each_coefficient_once():
    # numpy numbers, np.bool_ included, give what the Python numbers give
    for value in (np.False_, np.True_, np.int64(3), np.float32(2.5), np.complex64(1.5)):
        params = TensorParams(j=1, coeffs={(1, 1): 0.0, (1, -1): 0.0, (1, 0): value})
        assert params.vector.tolist() == TensorParams(1, {(1, 0): value.item()}).vector.tolist()
        assert type(params.coeffs[(1, 0)]) is complex
    assert TensorParams(0.5, {(1, 1): np.False_, (1, -1): np.False_}).vector.tolist() == [0] * 4
    for value in ("1", "1+2j", b"1", None, [1.0], np.array(1.0)):
        with pytest.raises(InputError, match=r"^coeffs\[\(1, -1\)\] must be a number"):
            TensorParams(0.5, {(1, 1): 0.0, (1, -1): value})
    with pytest.raises(InputError, match=r"^coeffs\[\(0, 0\)\] must be finite"):
        TensorParams(0.5, {(0, 0): 10 ** 400})


@pytest.mark.parametrize("k", [0, 1, 2])
def test_wigner_d_at_zero_is_identity(k):
    np.testing.assert_allclose(wigner_d(k, 0.0), np.eye(2 * k + 1), atol=1e-15)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_wigner_d_high_ranks_match_spin_rotation(k):
    # J_y of spin k > 5/2 from its ladder form, outside the module's spin range
    for beta in (-17.0, -2.2, 0.0, 0.3, 1.1, 2.5, 4.0, 19.5):
        np.testing.assert_allclose(wigner_d(k, beta), expm_hermitian(-spin_y(k), beta).real,
                                   rtol=0, atol=1e-13)


def test_wigner_d_rejects_bad_arguments():
    with pytest.raises(ValueError, match="rank"):
        wigner_d(6, 0.5)
    with pytest.raises(ValueError, match="rank"):
        wigner_d(1.0, 0.5)
    with pytest.raises(InputError, match="beta must be finite"):
        wigner_d(1, math.nan)


def test_wigner_d1_quarter_turn():
    s = 1 / math.sqrt(2)
    expected = np.array([[0.5, -s, 0.5], [s, 0.0, -s], [0.5, s, 0.5]])
    np.testing.assert_allclose(wigner_d(1, math.pi / 2), expected, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_wigner_d_matches_spin_rotation(k):
    # Independent oracle: the matrix of exp(-i beta Jy) in the spin-k
    # representation with m ordered downward.
    jm = angular_momentum_matrices(k)
    for beta in (0.3, 1.1, 2.5, 4.0):
        np.testing.assert_allclose(wigner_d(k, beta),
                                   expm_hermitian(-jm.y, beta).real, atol=1e-12)


@given(beta1=st.floats(-6.0, 6.0), beta2=st.floats(-6.0, 6.0), k=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_wigner_d_group_property(beta1, beta2, k):
    lhs = wigner_d(k, beta1) @ wigner_d(k, beta2)
    np.testing.assert_allclose(lhs, wigner_d(k, beta1 + beta2), atol=1e-11)


def test_conjugation_matches_d_matrix_mixing():
    jm = angular_momentum_matrices(1)
    for beta in (0.4, 1.3, 2.9):
        rot = expm_hermitian(-jm.y, beta)
        for k in range(3):
            d = wigner_d(k, beta)
            for q in range(-k, k + 1):
                lhs = rot @ tau(1, k, q).matrix @ rot.conj().T
                rhs = sum(d[k - qp, k - q] * tau(1, k, qp).matrix
                          for qp in range(-k, k + 1))
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rotate_params_fixes_scalar_sector(rng):
    h = random_hermitian(rng, 3)
    params = decompose(h, 1)
    rotated = rotate_params(params, 0.7, 1.9, -2.2)
    assert rotated.coeffs[(0, 0)] == pytest.approx(params.coeffs[(0, 0)], abs=1e-12)


@given(alpha=st.floats(-4.0, 4.0), beta=st.floats(-4.0, 4.0), gamma=st.floats(-4.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rotate_params_preserves_rank_norms(alpha, beta, gamma, seed):
    h = random_hermitian(np.random.default_rng(seed), 3)
    params = decompose(h, 1)
    rotated = rotate_params(params, alpha, beta, gamma)
    for k in range(3):
        before = np.sum(np.abs(params.rank_coefficients(k)) ** 2)
        after = np.sum(np.abs(rotated.rank_coefficients(k)) ** 2)
        assert after == pytest.approx(before, abs=1e-11, rel=1e-11)


@pytest.mark.parametrize("j", ALL_SPINS)
def test_rotate_params_matches_inverse_conjugation(j, rng):
    # Parameter rotation is passive: it equals conjugating the operator
    # by the inverse of R = e^{-i a Jz} e^{-i b Jy} e^{-i g Jz}.
    jm = angular_momentum_matrices(j)
    dim = round(2 * j) + 1
    for _ in range(5):
        h = random_hermitian(rng, dim)
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, 3)
        rotated = reconstruct(rotate_params(decompose(h, j), alpha, beta, gamma))
        rot = (expm_hermitian(-jm.z, alpha) @ expm_hermitian(-jm.y, beta)
               @ expm_hermitian(-jm.z, gamma))
        np.testing.assert_allclose(rotated, rot.conj().T @ h @ rot, atol=1e-10)


def test_rotate_params_counts_missing_coefficients_as_zero(rng):
    full = decompose(random_hermitian(rng, 3), 1)
    rank2 = TensorParams(j=1, coeffs={key: h for key, h in full.coeffs.items() if key[0] == 2})
    rotated = rotate_params(rank2, 0.4, -1.2, 2.0)
    expected = rotate_params(full, 0.4, -1.2, 2.0)
    assert set(rotated.coeffs) == set(full.coeffs)
    for (k, q), h in rotated.coeffs.items():
        assert h == (pytest.approx(expected.coeffs[(k, q)], abs=1e-14) if k == 2 else 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rotate_params_rejects_non_finite_angles(bad, rng):
    params = decompose(random_hermitian(rng, 2), 0.5)
    with pytest.raises(InputError, match="alpha must be finite"):
        rotate_params(params, bad, 0.2, 0.3)
    with pytest.raises(InputError, match="beta must be finite"):
        rotate_params(params, 0.1, bad, 0.3)
    with pytest.raises(InputError, match="gamma must be finite"):
        rotate_params(params, 0.1, 0.2, bad)
