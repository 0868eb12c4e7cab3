"""The failure contract: bad input to a public entry point raises an
InputError whose message starts with the parameter, or the product, at
fault, and no numpy warning comes before it; input that passes the
checks where it enters gets a result.

`apply_gate` and `reconstruct` take objects that were checked when they
were built, and `spe_condition` checks only that its gate is a special
perfect entangler.  A tolerance check on an accepted argument (Hermiticity,
unitarity, a spinor norm) raises a plain ValueError instead.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symgates as sg
from symgates import InputError, LMGParams, TensorParams

from helpers import WARNINGS_ARE_ERRORS, near_hermitian

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
ROTATED = TensorParams(2, {})  # j = 2: every |q| up to 4


def _entry(shape, index, bad):
    """The identity of `shape` with `bad` at `index`."""
    m = np.eye(shape[0], dtype=np.complex128)
    m[index] = bad
    return m


# (id, call of a bad value, name the message starts with)
NON_FINITE = [
    ("commutator", lambda b: sg.commutator(_entry((3, 3), (1, 1), b), np.eye(3)), "a"),
    ("anticommutator", lambda b: sg.anticommutator(np.eye(3), _entry((3, 3), (0, 2), b)), "b"),
    ("expm_hermitian_h", lambda b: sg.expm_hermitian(_entry((3, 3), (1, 1), b)), "h"),
    ("expm_hermitian_t", lambda b: sg.expm_hermitian(np.eye(3), b), "t"),
    ("angular_momentum_matrices", lambda b: sg.angular_momentum_matrices(b), "j"),
    ("clebsch_gordan", lambda b: sg.clebsch_gordan(1, b, 1, 0, 1, 0), "m1"),
    ("decompose_h", lambda b: sg.decompose(_entry((2, 2), (0, 0), b), 0.5), "h"),
    ("decompose_j", lambda b: sg.decompose(np.eye(2), b), "j"),
    ("hermitian_basis", lambda b: sg.hermitian_basis(b), "j"),
    ("spherical_basis", lambda b: sg.spherical_basis(b), "j"),
    ("tau_j", lambda b: sg.tau(b, 0, 0), "j"),
    ("tau_k", lambda b: sg.tau(1, b, 0), "rank k"),
    ("tau_q", lambda b: sg.tau(1, 1, b), "projection q"),
    ("wigner_d_k", lambda b: sg.wigner_d(b, 0.1), "rank k"),
    ("wigner_d_beta", lambda b: sg.wigner_d(1, b), "beta"),
    ("TensorParams_j", lambda b: TensorParams(b, {}), "j"),
    ("TensorParams_coeff", lambda b: TensorParams(1, {(0, 0): b}), "coeffs[(0, 0)]"),
    ("TensorParams_partner", lambda b: TensorParams(1, {(1, 1): 0.5, (1, -1): b}),
     "coeffs[(1, -1)]"),
    ("rank_coefficients", lambda b: ROTATED.rank_coefficients(b), "rank k"),
    ("rotate_params_alpha", lambda b: sg.rotate_params(ROTATED, b, 0.0, 0.0), "alpha"),
    ("rotate_params_beta", lambda b: sg.rotate_params(ROTATED, 0.0, b, 0.0), "beta"),
    ("rotate_params_gamma", lambda b: sg.rotate_params(ROTATED, 0.0, 0.0, b), "gamma"),
    ("build_hamiltonian", lambda b: sg.build_hamiltonian([0.0] * 8 + [b]), "coeffs"),
    ("decompose_hamiltonian", lambda b: sg.decompose_hamiltonian(_entry((3, 3), (2, 2), b)),
     "h"),
    ("m_coefficients", lambda b: sg.su3.m_coefficients(_entry((3, 3), (0, 1), b)), "x"),
    ("to_qubit_basis_op3", lambda b: sg.to_qubit_basis(_entry((3, 3), (2, 0), b)), "op3"),
    ("to_qubit_basis_stack",
     lambda b: sg.to_qubit_basis(np.stack([np.eye(3), _entry((3, 3), (1, 2), b)])), "op3"),
    ("to_qubit_basis_singlet_value", lambda b: sg.to_qubit_basis(np.eye(3), b), "singlet_value"),
    ("to_qubit_basis_complex_singlet_value",
     lambda b: sg.to_qubit_basis(np.eye(3), complex(0.5, b)), "singlet_value"),
    ("from_qubit_basis", lambda b: sg.from_qubit_basis(_entry((4, 4), (1, 1), b)), "op4"),
    ("m_matrix", lambda b: sg.m_matrix(b), "basis index k"),
    ("custom_gate", lambda b: sg.custom_gate(_entry((3, 3), (0, 1), b)), "u3"),
    ("gate_theta", lambda b: sg.gate(4, b), "theta"),
    ("gate_k", lambda b: sg.gate(b, 0.1), "gate index"),
    ("gates_batch_thetas", lambda b: sg.gates_batch(4, [0.0, b]), "thetas"),
    ("gates_batch_k", lambda b: sg.gates_batch(b, [0.1]), "gate index"),
    ("lmg_batch_g1", lambda b: sg.lmg_batch(b, 1.0, [0.1]), "g1"),
    ("lmg_batch_g2", lambda b: sg.lmg_batch(1.0, b, [0.1]), "g2"),
    ("lmg_batch_ts", lambda b: sg.lmg_batch(1.0, 1.0, [0.1, b]), "ts"),
    ("lmg_gate_g1", lambda b: sg.lmg_gate(LMGParams(b, 1.0, 0.1)), "g1"),
    ("lmg_gate_g2", lambda b: sg.lmg_gate(LMGParams(1.0, b, 0.1)), "g2"),
    ("lmg_gate_t", lambda b: sg.lmg_gate(LMGParams(1.0, 1.0, b)), "t"),
    ("lmg_hamiltonian_g1", lambda b: sg.lmg_hamiltonian(b, 1.0), "g1"),
    ("lmg_hamiltonian_g2", lambda b: sg.lmg_hamiltonian(1.0, b), "g2"),
    ("concurrence", lambda b: sg.concurrence([b, 0.0, 0.0, 1.0]), "psi"),
    ("is_unitary_atol", lambda b: sg.is_unitary(np.eye(3), atol=b), "atol"),
    ("is_unitary_stack_atol", lambda b: sg.is_unitary(np.eye(3)[None], atol=b), "atol"),
    ("entangling_power", lambda b: sg.entangling_power(_entry((4, 4), (3, 0), b)), "u4"),
    ("entangling_power_batch",
     lambda b: sg.entangling_power_batch(_entry((4, 4), (3, 0), b)[None]), "u4"),
    ("lmg_entanglement_profile_g1", lambda b: sg.lmg_entanglement_profile(b, 1.0, [0.1]), "g1"),
    ("lmg_entanglement_profile_g2", lambda b: sg.lmg_entanglement_profile(1.0, b, [0.1]), "g2"),
    ("lmg_entanglement_profile_t",
     lambda b: sg.lmg_entanglement_profile(1.0, 1.0, [0.1, b]), "t_grid"),
    ("makhlin_g1", lambda b: sg.makhlin_g1(_entry((4, 4), (2, 1), b)), "u4"),
    ("product_basis_ab", lambda b: sg.product_basis(b, 0.0, 1.0, 0.0, 1.0, 0.0), "spinor (a, b)"),
    ("product_basis_cd", lambda b: sg.product_basis(1.0, 0.0, b, 0.0, 1.0, 0.0), "spinor (c, d)"),
    ("separable_state_alpha", lambda b: sg.separable_state(b), "alpha"),
    ("separable_state_phi", lambda b: sg.separable_state(0.5, b), "phi"),
]

# Finite parameters whose product with the largest weight they meet overflows.
OVERFLOW = [
    ("gate_B8", lambda: sg.gate(8, 1.6e308), "2*theta/sqrt3"),
    ("gates_batch_B8", lambda: sg.gates_batch(8, [0.0, -1.6e308]), "2*theta/sqrt3"),
    ("lmg_gate_phase", lambda: sg.lmg_gate(LMGParams(1.0, 6e307, 1.0)), "4*g2*t"),
    ("lmg_batch_phase", lambda: sg.lmg_batch(1.0, 6e307, [0.0, 1.0]), "4*g2*t"),
    ("lmg_batch_g1", lambda: sg.lmg_batch(1e308, 1.0, [10.0]), "2*g1*t"),
    ("lmg_batch_g2", lambda: sg.lmg_batch(1.0, 1e308, [10.0]), "2*g2*t"),
    ("lmg_batch_g1_grid", lambda: sg.lmg_batch(1e306, 1.0, [0.0, 500.0, 1000.0]), "2*g1*t"),
    ("lmg_gate_g1", lambda: sg.lmg_gate(LMGParams(1e308, 1.0, 10.0)), "2*g1*t"),
    ("lmg_gate_g2", lambda: sg.lmg_gate(LMGParams(1.0, 1e308, 10.0)), "2*g2*t"),
    ("lmg_gate_g1_t", lambda: sg.lmg_gate(LMGParams(1e306, 1.0, 1000.0)), "2*g1*t"),
    ("lmg_entanglement_profile",
     lambda: sg.lmg_entanglement_profile(1.0, 6e307, [0.0, 1.0]), "4*g2*t"),
    ("wigner_d", lambda: sg.wigner_d(2, 1e308), "beta*k"),
    ("rotate_params_alpha", lambda: sg.rotate_params(ROTATED, 1e308, 0.0, 0.0), "alpha*q"),
    ("rotate_params_beta", lambda: sg.rotate_params(ROTATED, 0.0, 1e308, 0.0), "beta*k"),
    ("rotate_params_gamma", lambda: sg.rotate_params(ROTATED, 0.0, 0.0, -1e308), "gamma*q"),
    ("tau_j", lambda: sg.tau(1e308, 0, 0), "2*j"),
    # max|h| times the basis' largest absolute row sum
    ("decompose_hamiltonian", lambda: sg.decompose_hamiltonian(np.diag([1e308, -1e308, 1e308])),
     "h"),
    ("m_coefficients", lambda: sg.su3.m_coefficients(np.full((3, 3), 1e308)), "x"),
    ("decompose_j1", lambda: sg.decompose(np.diag([1e308, -1e308, 1e308]), 1), "h"),
    ("decompose_j2.5", lambda: sg.decompose(np.diag([1e308, 0, 0, 0, 0, -1e308]), 2.5), "h"),
    # the rotated coefficients: 10 times the largest component bounds each partial sum
    ("rotate_params_coeffs",
     lambda: sg.rotate_params(TensorParams(1, {(1, 1): 1.5e308 + 1.5e308j, (1, 0): 1.7e308,
                                               (1, -1): -1.5e308 + 1.5e308j}), 0.0, 0.3, 0.0),
     "coeffs*d"),
    # the change of basis: 3 times the largest component bounds each entry and its modulus
    ("from_qubit_basis", lambda: sg.from_qubit_basis(np.full((4, 4), 1e308)), "op4"),
]

# Finite input that fails a tolerance check: the check's own ValueError,
# not an overflow and not an InputError.
OUT_OF_DOMAIN = [
    ("product_basis_ab", lambda: sg.product_basis(1e200, 0.0, 1.0, 0.0, 1.0, 0.0),
     "spinor (a, b) is not normalized"),
    ("product_basis_ef", lambda: sg.product_basis(1.0, 0.0, 1.0, 0.0, 1e308 + 1e308j, 1e308),
     "spinor (e, f) is not normalized"),
    ("decompose_hermiticity", lambda: sg.decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),
     "matrix is not Hermitian:"),
    ("TensorParams_pair_rule", lambda: TensorParams(1, {(1, 1): 1.0, (1, -1): 1.0}),
     "coefficients violate Hermiticity at (k=1, q=-1):"),
    ("custom_gate_unitarity", lambda: sg.custom_gate(2 * np.eye(3)),
     "gate custom is not unitary"),
    ("entangling_power_unitarity", lambda: sg.entangling_power(2 * np.eye(4)),
     "matrix is not unitary within"),
]

# Finite arguments outside what a function accepts, each named by its
# parameter: quantum numbers, tensor keys, a zero state, a gate that is no
# special perfect entangler.  (Wrong shapes of psi and coeffs are in SHAPES.)
ARGUMENTS = [
    ("clebsch_gordan_j1", lambda: sg.clebsch_gordan(10.5, 0.5, 1, 0, 10.5, 0.5), "j1"),
    ("clebsch_gordan_j2", lambda: sg.clebsch_gordan(1, 0, -1, 0, 1, 0), "j2"),
    ("clebsch_gordan_j3", lambda: sg.clebsch_gordan(10, 10, 1, 1, 11, 11), "j3"),
    ("clebsch_gordan_m1", lambda: sg.clebsch_gordan(0.5, 1.5, 0.5, -0.5, 1, 1), "m1"),
    ("clebsch_gordan_m2", lambda: sg.clebsch_gordan(1, 0, 1, 0.5, 2, 0.5), "m2"),
    ("clebsch_gordan_m3", lambda: sg.clebsch_gordan(1, 1, 1, 1, 1, 2), "m3"),
    ("TensorParams_key", lambda: TensorParams(0.5, {(2, 0): 1.0}), "coeffs[(2, 0)]"),
    ("TensorParams_partner", lambda: TensorParams(1, {(1, -1): 1.0}), "coeffs[(1, -1)]"),
    ("concurrence_zero", lambda: sg.concurrence(np.zeros(4)), "psi"),
    ("spe_condition", lambda: sg.spe_condition(sg.gate(4, 0.3), sg.product_basis(1, 0, 1, 0, 1, 0)),
     "g"),
    ("tau_half_integer", lambda: sg.tau(0.3, 0, 0), "j"),
    ("angular_momentum_matrices_spin", lambda: sg.angular_momentum_matrices(3.5), "j"),
    ("clebsch_gordan_half_integer", lambda: sg.clebsch_gordan(0.5, 0.3, 0.5, 0.5, 1, 1), "m1"),
]

# Wrong shapes: a 2x2 or a 4x4 where a 3x3 is expected (or a 3x3 where a 4x4
# is), a (2, 3, 3) stack where one matrix is expected, and a 0-d value.
M2, M3, M4, STACK3, SCALAR = np.eye(2), np.eye(3), np.eye(4), np.stack([np.eye(3)] * 2), 1.0
SHAPES = [
    ("commutator_a", lambda x: sg.commutator(x, M3), [np.ones((2, 3)), STACK3, SCALAR], "a"),
    ("commutator_b", lambda x: sg.commutator(M3, x), [M2, M4, STACK3, SCALAR], "b"),
    ("anticommutator_b", lambda x: sg.anticommutator(M3, x), [M2, M4, STACK3, SCALAR], "b"),
    ("is_hermitian", sg.is_hermitian, [np.ones((2, 3)), STACK3, SCALAR], "a"),
    ("is_unitary", sg.is_unitary, [np.ones((2, 3)), np.ones((2, 3, 4)), SCALAR], "a"),
    ("expm_hermitian", sg.expm_hermitian, [np.ones((2, 3)), STACK3, SCALAR], "h"),
    ("decompose", lambda x: sg.decompose(x, 1), [M2, M4, STACK3, SCALAR], "h"),
    ("decompose_hamiltonian", sg.decompose_hamiltonian, [M2, M4, STACK3, SCALAR], "h"),
    ("m_coefficients", sg.su3.m_coefficients, [M2, M4, STACK3, SCALAR], "x"),
    ("to_qubit_basis", sg.to_qubit_basis, [M2, M4, np.ones((2, 4, 4)), SCALAR], "op3"),
    ("from_qubit_basis", sg.from_qubit_basis, [M2, M3, np.stack([M4] * 2), SCALAR], "op4"),
    ("custom_gate", sg.custom_gate, [M2, M4, STACK3, SCALAR], "u3"),
    ("makhlin_g1", sg.makhlin_g1, [M2, M3, np.stack([M4] * 2), SCALAR], "u4"),
    ("entangling_power", sg.entangling_power, [M2, M3, np.stack([M4] * 2), SCALAR], "u4"),
    ("entangling_power_batch", sg.entangling_power_batch,
     [M3, np.ones((2, 3, 3)), np.ones((0, 4, 4)), SCALAR], "u4"),
    ("concurrence", sg.concurrence, [np.zeros(3), np.zeros((2, 3)), SCALAR], "psi"),
    ("build_hamiltonian", sg.build_hamiltonian, [np.zeros(8), np.zeros((3, 3)), SCALAR], "coeffs"),
]

CASES = [pytest.param(lambda c=call, b=bad: c(b), name, id=f"{key}-{label}")
         for key, call, name in NON_FINITE for label, bad in BAD.items()]
CASES += [pytest.param(call, name, id=f"overflow-{key}") for key, call, name in OVERFLOW]
CASES += [pytest.param(call, name, id=f"argument-{key}") for key, call, name in ARGUMENTS]


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("call, name", CASES)
def test_bad_input_raises_a_named_input_error(call, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must be "):
        call()


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("call, bad, name", [
    pytest.param(call, bad, name, id=f"{key}-{np.shape(bad)}")
    for key, call, shapes, name in SHAPES for bad in shapes])
def test_wrong_shape_raises_an_input_error_naming_the_parameter(call, bad, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must be a .*got shape "
                                         rf"{re.escape(str(np.shape(bad)))}$"):
        call(bad)


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=key)
                                           for key, call, message in OUT_OF_DOMAIN])
def test_finite_input_outside_the_domain_raises_the_documented_value_error(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} ") as caught:
        call()
    assert type(caught.value) is ValueError


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_predicates_read_non_finite_matrices_as_false(bad):
    # in each of the nine places of a 3x3, as a real or an imaginary part:
    # False from the predicates, and the checks that use them name the entry
    for index in np.ndindex(3, 3):
        for value in (bad, complex(0.0, bad)):
            m = _entry((3, 3), index, value)
            assert sg.is_hermitian(m) is False
            assert sg.is_unitary(m) is False
            at = rf" at index {3 * index[0] + index[1]}$"
            with pytest.raises(InputError, match=r"^u3 must be finite, got .*" + at):
                sg.custom_gate(m)
            for call in (sg.decompose_hamiltonian, lambda h: sg.decompose(h, 1),
                         sg.expm_hermitian):
                with pytest.raises(InputError, match=r"^h must be finite, got .*" + at):
                    call(m)
    assert sg.is_unitary(np.stack([np.eye(3)] * 40 + [_entry((3, 3), (1, 2), bad)])) is False


@pytest.mark.parametrize("kind", [np.int8, np.int32, np.int64, np.uint16])
def test_numpy_integer_indices_give_the_int_results(kind):
    for k in range(9):
        assert np.array_equal(sg.m_matrix(kind(k)), sg.m_matrix(k))
    for k in range(5):
        assert np.array_equal(sg.wigner_d(kind(k), 0.7), sg.wigner_d(k, 0.7))
        for q in range(-k, k + 1):
            op = sg.tau(2, kind(k), np.int64(q))
            assert (op.k, op.q) == (k, q) and type(op.k) is int and type(op.q) is int
            assert np.array_equal(op.matrix, sg.tau(2, k, q).matrix)


@pytest.mark.parametrize("index", [3.0, "3", None, np.float64(3.0)])
def test_non_integer_indices_are_rejected(index):
    with pytest.raises(InputError, match=r"^basis index k must be an integer in 0\.\.8"):
        sg.m_matrix(index)
    with pytest.raises(InputError, match=r"^rank k must be an integer in 0\.\.5"):
        sg.wigner_d(index, 0.1)
    with pytest.raises(InputError, match=r"^rank k must be an integer in 0\.\.4"):
        sg.tau(2, index, 0)
    with pytest.raises(InputError, match=r"^projection q must be an integer in -1\.\.1"):
        sg.tau(1, 1, index)


# Every public entry point with its numbers passed through `c`: a numpy scalar
# type, drawn per number.  The values stay in the domain under each type (a
# gate index or a rank becomes True, which no index check takes), and the
# grids run backwards.
E3, SWAP3 = np.eye(3), np.eye(3)[[2, 1, 0]]
ENTRY_POINTS = [
    ("commutator", lambda c, m: sg.commutator(m(SWAP3), m(E3))),
    ("anticommutator", lambda c, m: sg.anticommutator(m(SWAP3), m(E3))),
    ("is_hermitian", lambda c, m: sg.is_hermitian(m(SWAP3))),
    ("is_unitary", lambda c, m: sg.is_unitary(m(SWAP3), atol=c(1e-12))),
    ("expm_hermitian", lambda c, m: sg.expm_hermitian(m(SWAP3), c(0.7))),
    ("angular_momentum_matrices", lambda c, m: sg.angular_momentum_matrices(c(2))),
    ("clebsch_gordan", lambda c, m: sg.clebsch_gordan(c(1), c(1), c(1), c(-1), c(1), c(0))),
    ("tau", lambda c, m: sg.tau(c(2), c(2), c(1))),
    ("spherical_basis", lambda c, m: sg.spherical_basis(c(1))),
    ("hermitian_basis", lambda c, m: sg.hermitian_basis(c(2))),
    ("TensorParams", lambda c, m: TensorParams(c(2), {(1, 0): c(2.5), (0, 0): c(-1.0)})),
    ("decompose", lambda c, m: sg.decompose(m(SWAP3), c(1))),
    ("rank_coefficients", lambda c, m: ROTATED.rank_coefficients(c(3))),
    ("rotate_params", lambda c, m: sg.rotate_params(ROTATED, c(0.4), c(-1.5), c(3.0))),
    ("wigner_d", lambda c, m: sg.wigner_d(c(2), c(0.9))),
    ("m_matrix", lambda c, m: sg.m_matrix(c(7))),
    ("m_coefficients", lambda c, m: sg.su3.m_coefficients(m(SWAP3))),
    ("decompose_hamiltonian", lambda c, m: sg.decompose_hamiltonian(m(SWAP3))),
    ("build_hamiltonian", lambda c, m: sg.build_hamiltonian([c(x) for x in range(-4, 5)])),
    ("to_qubit_basis", lambda c, m: sg.to_qubit_basis(m(SWAP3), c(1))),
    ("from_qubit_basis", lambda c, m: sg.from_qubit_basis(m(np.eye(4)))),
    ("gate", lambda c, m: sg.gate(c(8), c(-2.5))),
    ("gates_batch", lambda c, m: sg.gates_batch(c(4), [c(3.0), c(0.5), c(-2.0)])),
    ("custom_gate", lambda c, m: sg.custom_gate(m(SWAP3))),
    ("lmg_hamiltonian", lambda c, m: sg.lmg_hamiltonian(c(1.5), c(-2.0))),
    ("lmg_gate", lambda c, m: sg.lmg_gate(LMGParams(c(1.0), c(2.0), c(0.5)))),
    ("lmg_batch", lambda c, m: sg.lmg_batch(c(1.0), c(-2.0), [c(3.0), c(1.0), c(0.0)])),
    ("lmg_entanglement_profile",
     lambda c, m: sg.lmg_entanglement_profile(c(1.0), c(2.0), [c(3.0), c(1.0), c(0.0)])),
    ("concurrence", lambda c, m: sg.concurrence([c(1), c(0), c(0), c(0)])),
    ("makhlin_g1", lambda c, m: sg.makhlin_g1(m(np.eye(4)))),
    ("entangling_power", lambda c, m: sg.entangling_power(m(np.eye(4)))),
    ("entangling_power_batch", lambda c, m: sg.entangling_power_batch(m(np.eye(4)[None]))),
    ("separable_state", lambda c, m: sg.separable_state(c(2.0), c(-1.0))),
    ("product_basis",
     lambda c, m: sg.product_basis(c(0), c(1), c(1), c(0), c(-1), c(0))),
]
SCALAR_KINDS = (np.float32, np.int64, np.bool_)


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(ENTRY_POINTS),
       kinds=st.lists(st.sampled_from(SCALAR_KINDS), min_size=9, max_size=9))
def test_numpy_scalars_and_reversed_grids_give_a_result_or_a_named_input_error(entry, kinds):
    _, call = entry
    drawn = iter(kinds)  # nine, as many as build_hamiltonian takes
    try:
        call(lambda x: next(drawn)(x), lambda a: a.astype(kinds[0]))
    except InputError as err:
        assert re.match(r"^[\w*()\[\], ]+ must be ", str(err)), str(err)


def test_input_that_passes_the_boundary_checks_gets_a_result():
    # Hermiticity defects of 0.98 of the tolerance, and spinor norms within
    # theirs, which checks of internal results used to reject
    h2, h3 = (near_hermitian(np.random.default_rng(seed), dim) for seed, dim in ((0, 2), (6, 3)))
    assert sg.is_hermitian(h2) and sg.is_hermitian(h3)
    sg.decompose(h2, 0.5)
    np.testing.assert_allclose(sg.build_hamiltonian(sg.decompose_hamiltonian(h3)),
                               (h3 + h3.conj().T) / 2, rtol=0, atol=1e-13)
    s = math.sqrt(1.0 + 0.99e-12)
    states = sg.product_basis(s, 0, s, 0, 1, 0).states
    np.testing.assert_allclose(states @ states.conj().T, np.eye(4), rtol=0, atol=2e-12)
