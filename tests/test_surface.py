"""The public surface: the names `symgates` exports, and the CLI's use of them."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types

import numpy as np

import symgates
from symgates import cli

# Every export, listed so that a new one is added on purpose.
PUBLIC_NAMES = [
    "ANTICOMMUTATOR_TABLE", "BELL_TRANSFORM", "COMMUTATOR_TABLE", "EntanglementBatch",
    "EntanglementReport", "GELL_MANN", "GateBatch", "InputError", "LMGParams", "M",
    "ProductBasis", "SeparableSymmetricState", "SpeConditionResult", "SpinMatrices",
    "SymmetricGate", "TensorOperator", "TensorParams", "U_QUBIT_TO_ANGULAR",
    "angular_momentum_matrices", "anticommutator", "apply_gate", "build_hamiltonian",
    "clebsch_gordan", "commutator", "concurrence", "custom_gate", "decompose",
    "decompose_hamiltonian", "entangling_power", "entangling_power_batch", "expm_hermitian",
    "from_qubit_basis", "gate", "gates_batch", "hermitian_basis", "is_hermitian", "is_unitary",
    "lmg_batch", "lmg_entanglement_profile", "lmg_gate", "lmg_hamiltonian", "m_matrix",
    "makhlin_g1", "product_basis", "reconstruct", "rotate_params", "separable_state",
    "spe_condition", "spherical_basis", "tau", "to_qubit_basis", "verify_algebra_tables",
    "verify_gellmann", "wigner_d",
]


def test_exported_names_are_the_listed_ones():
    exported = sorted(name for name, value in vars(symgates).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 54


def test_cli_uses_no_private_name_of_another_module():
    modules = {name for name, value in vars(cli).items()
               if isinstance(value, types.ModuleType) and value.__name__.startswith("symgates.")}
    assert modules
    private = [f"{node.value.id}.{node.attr}"
               for node in ast.walk(ast.parse(inspect.getsource(cli)))
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_failure_checks_live_in_linalg():
    """No library module but linalg sets numpy's error state or checks an
    index with isinstance(..., int); they call linalg's helpers instead.
    The CLI, an application of the library, is not one of them."""
    found = []
    for info in pkgutil.iter_modules(symgates.__path__):
        if info.name in ("linalg", "cli"):
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"symgates.{info.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "errstate":
                found.append(f"{info.name}:{node.lineno} errstate")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "int"
                            for n in ast.walk(node.args[1]))):
                found.append(f"{info.name}:{node.lineno} isinstance(..., int)")
    assert found == []


def test_records_that_hold_arrays_compare_by_identity():
    """A frozen dataclass with an array field compares and hashes as an
    object: a generated __eq__ would compare arrays elementwise and raise,
    and a generated __hash__ would hash an array."""
    holding = [value for value in vars(symgates).values()
               if dataclasses.is_dataclass(value) and isinstance(value, type)
               and any("ndarray" in str(f.type) for f in dataclasses.fields(value) if f.compare)]
    assert {cls.__name__ for cls in holding} == {
        "EntanglementBatch", "GateBatch", "ProductBasis", "SeparableSymmetricState",
        "SpinMatrices", "SymmetricGate", "TensorOperator"}
    assert all(cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
               for cls in holding)
    a, b = symgates.gate(4, 0.3), symgates.gate(4, 0.3)
    assert a == a and a != b and len({a, b, a}) == 2
    batch = symgates.gates_batch(4, [0.3])
    for record in (batch, symgates.entangling_power_batch(batch), symgates.separable_state(0.4),
                   symgates.product_basis(1, 0, 1, 0, 1, 0), symgates.tau(1, 1, 0),
                   symgates.angular_momentum_matrices(1)):
        assert record == record and hash(record) == hash(record)


def test_tensor_params_compare_by_j_and_coefficients():
    h = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -2.0]])
    a, b = symgates.decompose(h, 0.5), symgates.decompose(h, 0.5)
    assert a == b and a.vector is not b.vector
    assert a != symgates.decompose(2 * h, 0.5)
    assert "vector" not in repr(a)
