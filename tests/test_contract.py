"""The failure contract: bad input to a public entry point raises an
InputError whose message starts with the parameter, or the product, at
fault, and no numpy warning comes before it.

`to_qubit_basis` is left out: it is a linear embedding that maps a
non-finite matrix to a non-finite one, as numpy's matmul does.
`apply_gate`, `spe_condition` and `reconstruct` take objects that were
checked when they were built.
"""

import math
import re

import numpy as np
import pytest

import symgates as sg
from symgates import InputError, LMGParams, TensorParams

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
    ("rotate_params_alpha", lambda b: sg.rotate_params(ROTATED, b, 0.0, 0.0), "alpha"),
    ("rotate_params_beta", lambda b: sg.rotate_params(ROTATED, 0.0, b, 0.0), "beta"),
    ("rotate_params_gamma", lambda b: sg.rotate_params(ROTATED, 0.0, 0.0, b), "gamma"),
    ("build_hamiltonian", lambda b: sg.build_hamiltonian([0.0] * 8 + [b]), "coeffs"),
    ("decompose_hamiltonian", lambda b: sg.decompose_hamiltonian(_entry((3, 3), (2, 2), b)),
     "h"),
    ("m_coefficients", lambda b: sg.su3.m_coefficients(_entry((3, 3), (0, 1), b)), "x"),
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
]

# Finite input outside a function's domain: the documented ValueError, not an overflow.
OUT_OF_DOMAIN = [
    ("product_basis_ab", lambda: sg.product_basis(1e200, 0.0, 1.0, 0.0, 1.0, 0.0),
     "spinor (a, b) is not normalized"),
    ("product_basis_ef", lambda: sg.product_basis(1.0, 0.0, 1.0, 0.0, 1e308 + 1e308j, 1e308),
     "spinor (e, f) is not normalized"),
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
]

CASES = [pytest.param(lambda c=call, b=bad: c(b), name, id=f"{key}-{label}")
         for key, call, name in NON_FINITE for label, bad in BAD.items()]
CASES += [pytest.param(call, name, id=f"overflow-{key}") for key, call, name in OVERFLOW]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", CASES)
def test_bad_input_raises_a_named_input_error(call, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must be "):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, bad, name", [
    pytest.param(call, bad, name, id=f"{key}-{np.shape(bad)}")
    for key, call, shapes, name in SHAPES for bad in shapes])
def test_wrong_shape_raises_an_input_error_naming_the_parameter(call, bad, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must be a .*got shape "
                                         rf"{re.escape(str(np.shape(bad)))}$"):
        call(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=key)
                                           for key, call, message in OUT_OF_DOMAIN])
def test_finite_input_outside_the_domain_raises_the_documented_value_error(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} ") as caught:
        call()
    assert type(caught.value) is ValueError


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_predicates_read_non_finite_matrices_as_false(bad):
    assert sg.is_hermitian(_entry((3, 3), (1, 1), bad)) is False
    assert sg.is_unitary(_entry((3, 3), (1, 1), bad)) is False
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
