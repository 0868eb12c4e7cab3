"""The nine spin-1 basis matrices M0..M8 and their algebra.

M0..M8 are Hermitian, mutually orthogonal with Tr(M_k M_k') = 2 delta,
and M1..M8 are traceless, so they form an alternative SU(3) generator
set.  This module stores them as literal constants together with their
commutator/anticommutator tables, their relations to the Gell-Mann
matrices, and the change of basis between the two-qubit product basis
and the angular momentum (symmetric + singlet) basis.  The spin-1
operators J_x, J_y, J_z themselves are `tensors.angular_momentum_matrices(1)`.

Basis orderings: 3x3 matrices act on |1 m> with m = +1, 0, -1; 4x4
matrices act on the product basis (up-up, up-down, down-up, down-down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (InputError, _bounded, _finite, _flat_basis, _hermitian, _index, _matrix,
                     _require)

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ23 = math.sqrt(2.0 / 3.0)


def _mat(rows) -> np.ndarray:
    m = np.array(rows, dtype=np.complex128)
    m.setflags(write=False)
    return m


M0 = _mat([[_SQ23, 0, 0], [0, _SQ23, 0], [0, 0, _SQ23]])
M1 = _mat([[0, -1 / _SQ2, 0], [-1 / _SQ2, 0, -1 / _SQ2], [0, -1 / _SQ2, 0]])
M2 = _mat([[0, -1j / _SQ2, 0], [1j / _SQ2, 0, -1j / _SQ2], [0, 1j / _SQ2, 0]])
M3 = _mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
M4 = _mat([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
M5 = _mat([[0, -1j / _SQ2, 0], [1j / _SQ2, 0, 1j / _SQ2], [0, -1j / _SQ2, 0]])
M6 = _mat([[0, -1 / _SQ2, 0], [-1 / _SQ2, 0, 1 / _SQ2], [0, 1 / _SQ2, 0]])
M7 = _mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
M8 = _mat([[1 / _SQ3, 0, 0], [0, -2 / _SQ3, 0], [0, 0, 1 / _SQ3]])

M = (M0, M1, M2, M3, M4, M5, M6, M7, M8)
_M_BASIS = _flat_basis(_mat(M))

# Maps product-basis coordinates (up-up, up-down, down-up, down-down) to
# angular momentum coordinates (|1 1>, |1 0>, |1 -1>, |0 0>).
U_QUBIT_TO_ANGULAR = _mat([
    [1, 0, 0, 0],
    [0, 1 / _SQ2, 1 / _SQ2, 0],
    [0, 0, 0, 1],
    [0, 1 / _SQ2, -1 / _SQ2, 0],
])

GELL_MANN = (
    _mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
    _mat([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    _mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    _mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
    _mat([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    _mat([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    _mat([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    _mat([[1 / _SQ3, 0, 0], [0, 1 / _SQ3, 0], [0, 0, -2 / _SQ3]]),
)

# Each relation expresses M_k (k = 1..8) as a combination of Gell-Mann
# matrices: a tuple of (coefficient, lambda index 1..8).
GELLMANN_RELATIONS: dict[int, tuple[tuple[complex, int], ...]] = {
    1: ((-1 / _SQ2, 1), (-1 / _SQ2, 6)),
    2: ((1 / _SQ2, 2), (1 / _SQ2, 7)),
    3: ((0.5, 3), (_SQ3 / 2, 8)),
    4: ((-1.0, 5),),
    5: ((1 / _SQ2, 2), (-1 / _SQ2, 7)),
    6: ((1 / _SQ2, 6), (-1 / _SQ2, 1)),
    7: ((1.0, 4),),
    8: ((_SQ3 / 2, 3), (-0.5, 8)),
}

# Anticommutator diagonal entries.
_ENTRY_A = ((2 * _SQ23, 0), (1.0, 7), (-1 / _SQ3, 8))
_ENTRY_B = ((2 * _SQ23, 0), (-1.0, 7), (-1 / _SQ3, 8))
_ENTRY_C = ((2 * _SQ23, 0), (2 / _SQ3, 8))
_ENTRY_D = ((2 * _SQ23, 0), (-2 / _SQ3, 8))

# Off-diagonal commutator combinations i(sqrt(3) M8 +/- M7).
_ENTRY_PLUS = ((1j * _SQ3, 8), (1j, 7))
_ENTRY_MINUS = ((1j * _SQ3, 8), (-1j, 7))

_COMM_UPPER: dict[tuple[int, int], tuple[tuple[complex, int], ...]] = {
    (1, 2): ((-1j, 3),), (1, 3): ((1j, 2),), (1, 4): ((-1j, 6),),
    (1, 5): tuple((-c, i) for c, i in _ENTRY_PLUS),
    (1, 6): ((1j, 4),), (1, 7): ((1j, 5),), (1, 8): ((1j * _SQ3, 5),),
    (2, 3): ((-1j, 1),), (2, 4): ((1j, 5),), (2, 5): ((-1j, 4),),
    (2, 6): _ENTRY_MINUS,
    (2, 7): ((1j, 6),), (2, 8): ((-1j * _SQ3, 6),),
    (3, 4): ((2j, 7),), (3, 5): ((1j, 6),), (3, 6): ((-1j, 5),),
    (3, 7): ((-2j, 4),), (3, 8): (),
    (4, 5): ((1j, 2),), (4, 6): ((-1j, 1),), (4, 7): ((2j, 3),), (4, 8): (),
    # (5, 7): total antisymmetry of Tr([Ma, Mb] Mc) forces -i here, matching
    # the (7, 1) and (1, 5) entries; +i would be inconsistent.
    (5, 6): ((1j, 3),), (5, 7): ((-1j, 1),), (5, 8): ((-1j * _SQ3, 1),),
    (6, 7): ((-1j, 2),), (6, 8): ((1j * _SQ3, 2),),
    (7, 8): (),
}

_ANTI_UPPER: dict[tuple[int, int], tuple[tuple[complex, int], ...]] = {
    (1, 1): _ENTRY_A, (1, 2): ((1.0, 4),), (1, 3): ((1.0, 6),), (1, 4): ((1.0, 2),),
    (1, 5): (), (1, 6): ((1.0, 3),), (1, 7): ((1.0, 1),), (1, 8): ((-1 / _SQ3, 1),),
    (2, 2): _ENTRY_B, (2, 3): ((1.0, 5),), (2, 4): ((1.0, 1),), (2, 5): ((1.0, 3),),
    (2, 6): (), (2, 7): ((-1.0, 2),), (2, 8): ((-1 / _SQ3, 2),),
    (3, 3): _ENTRY_C, (3, 4): (), (3, 5): ((1.0, 2),), (3, 6): ((1.0, 1),),
    (3, 7): (), (3, 8): ((2 / _SQ3, 3),),
    (4, 4): _ENTRY_C, (4, 5): ((-1.0, 6),), (4, 6): ((-1.0, 5),), (4, 7): (),
    (4, 8): ((2 / _SQ3, 4),),
    (5, 5): _ENTRY_A, (5, 6): ((-1.0, 4),), (5, 7): ((1.0, 5),), (5, 8): ((-1 / _SQ3, 5),),
    (6, 6): _ENTRY_B, (6, 7): ((-1.0, 6),), (6, 8): ((-1 / _SQ3, 6),),
    (7, 7): _ENTRY_C, (7, 8): ((2 / _SQ3, 7),),
    (8, 8): _ENTRY_D,
}


def _full_table(upper, sign: int) -> dict[tuple[int, int], tuple[tuple[complex, int], ...]]:
    """All 64 entries (k, k') of a table from its upper triangle: entry (k', k)
    is entry (k, k') times `sign`, and a diagonal entry not given is zero."""
    full = dict.fromkeys(((k, k) for k in range(1, 9)), ())
    for (k, kp), entry in upper.items():
        full[(kp, k)] = tuple((sign * c, i) for c, i in entry)
        full[(k, kp)] = entry
    return full


def _coefficients(terms: tuple[tuple[complex, int], ...]) -> np.ndarray:
    """The nine coefficients c_i of a relation's terms (c_i, i), i = 0..8."""
    c = np.zeros(9, dtype=np.complex128)
    for coeff, idx in terms:
        c[idx] += coeff
    return c


@dataclass(frozen=True)
class AlgebraTable:
    """Symbolic product table: (k, k') -> weighted combination of M's."""

    kind: str
    entries: dict[tuple[int, int], tuple[tuple[complex, int], ...]]

    def expand(self, k: int, kp: int) -> np.ndarray:
        return _M_BASIS.combine(_coefficients(self.entries[(k, kp)]))


COMMUTATOR_TABLE = AlgebraTable("commutator", _full_table(_COMM_UPPER, -1))
ANTICOMMUTATOR_TABLE = AlgebraTable("anticommutator", _full_table(_ANTI_UPPER, 1))

# Index triplets closing under [M_a, M_b] = -i c eps_abc M_c.
VECTOR_TRIPLETS = (
    ((1, 2, 3), 1.0),
    ((1, 4, 6), 1.0),
    ((4, 2, 5), 1.0),
    ((5, 3, 6), 1.0),
    ((4, 3, 7), 2.0),
)

VANISHING_COMMUTATOR_PAIRS = ((3, 8), (4, 8), (7, 8))


def m_matrix(k: int) -> np.ndarray:
    """The basis matrix M_k, k = 0..8."""
    return M[_index("basis index k", k, 0, 8)].copy()


def m_coefficients(x) -> np.ndarray:
    """Complex coefficients c with x = sum_k c_k M_k (no Hermiticity needed),
    c_k = Tr(M_k x) / 2, by one matrix-vector product (`linalg._FlatBasis`):
    within 2 * 3 eps max|x| of a per-matrix trace(M_k @ x) loop."""
    x = _matrix("x", x, 3)
    return _M_BASIS.traces("x", x) / 2


def decompose_hamiltonian(h) -> np.ndarray:
    """Real coefficients h_k = Tr(h M_k) of a Hermitian 3x3 matrix, as
    `m_coefficients` takes them.

    The matrix is recovered as (1/2) sum_k h_k M_k.  As the M_k are
    Hermitian, the real part of Tr(h M_k) equals Tr(h_H M_k) for the
    Hermitian part h_H = (h + h^dagger)/2: a matrix that passes the
    Hermiticity check is expanded as its Hermitian part.
    """
    h = _matrix("h", h, 3)
    return _M_BASIS.traces("h", h, _hermitian("h", h)).real.copy()


def build_hamiltonian(coeffs) -> np.ndarray:
    """Hermitian matrix (1/2) sum_k h_k M_k from nine real coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (9,):
        raise InputError(f"coeffs must be a vector of nine real coefficients, "
                         f"got shape {coeffs.shape}")
    return _M_BASIS.combine(_finite("coeffs", coeffs)) / 2  # M_k^dagger = M_k


@dataclass(frozen=True)
class TableMismatch:
    kind: str
    k: int
    kp: int
    residual: float
    expected: tuple[complex, ...]
    computed: tuple[complex, ...]

    def __str__(self) -> str:
        return (
            f"{self.kind}(M{self.k}, M{self.kp}): residual {self.residual:.3e}, "
            f"expected coefficients {self.expected}, computed {self.computed}"
        )


@dataclass(frozen=True)
class AlgebraReport:
    entries_checked: int
    mismatches: tuple[TableMismatch, ...]
    max_residual: float
    triplets_ok: bool
    vanishing_ok: bool
    vanishing_residual: float

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.triplets_ok and self.vanishing_ok


def _residual(product: np.ndarray, c: np.ndarray, basis=_M_BASIS) -> float:
    """max|product - sum_i c_i b_i| over the matrices b_i of a Hermitian basis."""
    return float(np.max(np.abs(product - basis.combine(c))))


def verify_algebra_tables() -> AlgebraReport:
    """Check every tabulated commutator and anticommutator numerically.

    All of them are read from the 81 products M_a M_b, formed once.  Each of
    the 64 + 64 table entries, the vector triplets (all within 1e-13) and the
    vanishing commutators with M8 (within 1e-14) is compared entry by entry
    with the matrix of its coefficients.  A table mismatch names the entry, its
    expected coefficients and the M-basis coefficients of the computed product."""
    m = np.array(M)
    products = m[:, None] @ m  # (9, 9, 3, 3): M_a M_b
    comm, anti = products - products.swapaxes(0, 1), products + products.swapaxes(0, 1)
    mismatches: list[TableMismatch] = []
    residuals: list[float] = []
    for table, computed in ((COMMUTATOR_TABLE, comm), (ANTICOMMUTATOR_TABLE, anti)):
        for (k, kp), entry in sorted(table.entries.items()):
            product, c = computed[k, kp], _coefficients(entry)
            residuals.append(_residual(product, c))
            if residuals[-1] > 1e-13:
                mismatches.append(TableMismatch(table.kind, k, kp, residuals[-1], tuple(c),
                                                tuple(m_coefficients(product))))
    # [M_a, M_b] = -i scale M_c for each cyclic order (a, b, c) of a triplet
    triplets_ok = all(_residual(comm[a, b], _coefficients(((-1j * scale, c),))) <= 1e-13
                      for (x, y, z), scale in VECTOR_TRIPLETS
                      for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
    vanishing_residual = max((_residual(comm[k, kp], _coefficients(()))
                              for k, kp in VANISHING_COMMUTATOR_PAIRS), default=0.0)
    return AlgebraReport(entries_checked=len(residuals), mismatches=tuple(mismatches),
                         max_residual=max(residuals, default=0.0), triplets_ok=triplets_ok,
                         vanishing_ok=vanishing_residual < 1e-14,
                         vanishing_residual=vanishing_residual)


@dataclass(frozen=True)
class GellMannReport:
    relations_checked: int
    failures: tuple[int, ...]
    max_residual: float

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_gellmann() -> GellMannReport:
    """Check the Gell-Mann relations against the literal matrices, within 1e-14,
    in the basis lambda_0..lambda_8 with lambda_0 = M0, which no relation uses."""
    lambdas = _flat_basis(np.array((M0,) + GELL_MANN))
    residuals = {k: _residual(M[k], _coefficients(terms), lambdas)
                 for k, terms in GELLMANN_RELATIONS.items()}
    return GellMannReport(relations_checked=len(residuals),
                          failures=tuple(k for k, r in residuals.items() if r > 1e-14),
                          max_residual=max(residuals.values(), default=0.0))


def to_qubit_basis(op3, singlet_value: complex = 0.0) -> np.ndarray:
    """Embed a 3x3 symmetric-subspace operator as a 4x4 product-basis one.

    The operator acts as given on the triplet block and multiplies the
    singlet by `singlet_value` (0 for basis operators, 1 for gates).  A
    (..., 3, 3) stack gives a (..., 4, 4) stack.  InputError if an entry
    of either is NaN or infinite.
    """
    op3 = _finite("op3", _matrix("op3", op3, 3, stack=True))
    _finite("singlet_value", np.ravel(singlet_value))  # 1-d: a complex value stays complex
    op_ang = np.zeros(op3.shape[:-2] + (4, 4), dtype=np.complex128)
    op_ang[..., :3, :3] = op3
    op_ang[..., 3, 3] = singlet_value
    u = U_QUBIT_TO_ANGULAR
    return np.matmul(u.conj().T @ op_ang, u, out=op_ang)  # reuses op_ang's memory


def from_qubit_basis(op4) -> tuple[np.ndarray, complex]:
    """Inverse of `to_qubit_basis`: the triplet block and singlet value.

    Raises ValueError if the operator couples the symmetric and singlet
    sectors beyond 1e-10, and InputError if op4 is not finite or so large
    that its change of basis would overflow.
    """
    op4 = _finite("op4", _matrix("op4", op4, 4))
    # a row of |u| sums to at most sqrt2, so no entry of u op4 u^dagger, nor
    # its modulus, exceeds 2 sqrt2 times the largest component of op4
    _bounded("op4", np.maximum(abs(op4.real), abs(op4.imag)), 3.0)
    u = U_QUBIT_TO_ANGULAR
    op_ang = u @ op4 @ u.conj().T
    coupling = float(max(np.max(np.abs(op_ang[3, :3])), np.max(np.abs(op_ang[:3, 3]))))
    _require(coupling <= 1e-10, "operator couples the symmetric and singlet sectors "
             f"(residual {coupling:.3e})", "op4", op4)
    return op_ang[:3, :3].copy(), complex(op_ang[3, 3])
