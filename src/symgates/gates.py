"""One-parameter symmetric two-qubit gates and the LMG evolution gate.

Each gate is the unitary exp(i M_k theta) on the spin-1 (symmetric)
subspace.  Because M1..M7 have eigenvalues {1, 0, -1}, those seven
gates admit the closed form

    B_k = I + (cos theta - 1) M_k^2 + i sin theta M_k,

while B8, whose generator has eigenvalues {1, -2, 1}/sqrt(3), is a pure
phase gate: `_rotation` is the closed form, `_phases` a phase diagonal.
Both take their values from numpy's complex exp of 1j * angle (libm's cexp),
which gives math.cos and math.sin bit for bit, but +0.0 for sin(-0.0); numpy's
np.cos and np.sin kernels may round apart from them (tests/test_gates.py,
`test_complex_exp_is_math_cos_and_sin`).
The 4x4 product-basis embedding acts as the identity on the singlet state.

The LMG Hamiltonian H = g1 (J+^2 + J-^2) + g2 (J+J- + J-J+) is 2 g1 M7
+ (2/sqrt(3)) g2 (sqrt(8) M0 - M8) = 2 g1 M7 + 2 g2 diag(1, 2, 1), and M7
commutes with M8, so exp(i H t) = B7(xi) diag(e^{i phi}, e^{2i phi}, e^{i phi})
with xi = 2 g1 t, phi = 2 g2 t: the same two helpers, no eigendecomposition.

A symmetric gate is its 3x3 block u3: what is computed from a
`SymmetricGate` depends on u3 alone; its label is display metadata.
`gates_batch` and `lmg_batch` build a grid of one family as an (N, 3, 3)
stack, and `gate` and `lmg_gate` are their one-point case, so a gate is
the same (==) alone or in a grid.  Each argument is checked once, where
it enters: the index or couplings, a finite 1-D grid, and each product
that could overflow at the grid's largest |angle| (`_gate_grid` and
`_lmg_grid`, which the series laws of `entanglement` share; `gate` and
`lmg_gate` check their one point by the same rules).  The builders behind
them, `_gate_stack` and `_lmg_stack`, then take the checked values.
The closed forms are unitary by construction, so no grid is checked: a
hypothesis property in the tests pins them unitary within 1e-12 at every
finite angle that the grid and overflow checks admit.  `custom_gate`, which wraps a matrix from outside,
checks it.  The 4x4 embedding `u4` of a gate or a grid is built only if
it is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _bounded, _finite, _grid, _index, _matrix, _require, is_unitary
from .su3 import M, to_qubit_basis
from .tensors import angular_momentum_matrices

_SQ3 = math.sqrt(3.0)
_M_SQUARED = tuple(mk @ mk for mk in M)
# Both phase diagonals are diag(a, b, a): (a, b) are their distinct weights,
# and _DIAGONAL gives the weight of each diagonal entry (`_phases`)
_B8_WEIGHTS = (1.0, -2.0)  # eigenvalues of sqrt(3) M8: 1, -2, 1
_LMG_WEIGHTS = (1.0, 2.0)  # H - 2 g1 M7 = 2 g2 diag(1, 2, 1)
_DIAGONAL = (0, 1, 0)
_EYE = np.eye(3)
# The (row, column) entries of a 3x3 matrix.  A stack is built entry by
# entry, one strided column of N at a time: a product broadcast over the
# stack would take numpy's iteration buffers, up to 128 KiB per operand.
_ENTRIES = [(r, c) for r in range(3) for c in range(3)]
# The entries of B_k that can be nonzero: on the diagonal or nonzero in M_k
# or M_k^2.  At the others the sum I + (cos - 1) M_k^2 + i sin M_k rounds to
# +0 + 0j, whatever the signs of the zero products.
_ROTATION_ENTRIES = [[(r, c) for r, c in _ENTRIES if r == c or M[k][r, c] or _M_SQUARED[k][r, c]]
                     for k in range(8)]
_JM = angular_momentum_matrices(1)
_LADDER_G1 = _JM.plus @ _JM.plus + _JM.minus @ _JM.minus  # J+^2 + J-^2
_LADDER_G2 = _JM.plus @ _JM.minus + _JM.minus @ _JM.plus  # J+J- + J-J+


@dataclass(frozen=True)
class LMGParams:
    """Couplings and evolution time of the collective-spin interaction
    g1 (J+^2 + J-^2) + g2 (J+J- + J-J+)."""

    g1: float
    g2: float
    t: float

    @property
    def xi(self) -> float:
        """Twisting angle 2 g1 t."""
        return 2.0 * self.g1 * self.t

    @property
    def beta(self) -> float:
        """Phase angle (2/sqrt(3)) g2 t."""
        return 2.0 * self.g2 * self.t / _SQ3


@dataclass(frozen=True, eq=False)
class SymmetricGate:
    """A symmetric two-qubit gate: its 3x3 unitary u3, a closed form or a
    matrix checked unitary by `custom_gate`, and u4, its product-basis
    embedding, built on first access.
    `label`, `theta` and `lmg` say how it was built."""

    label: str
    u3: np.ndarray
    theta: float | None = None
    lmg: LMGParams | None = None

    @functools.cached_property
    def u4(self) -> np.ndarray:
        return to_qubit_basis(self.u3, 1.0)


@dataclass(frozen=True, eq=False)
class GateBatch:
    """Gates of one family on a 1-D grid: u3 (N, 3, 3), the closed forms of
    `gates_batch` / `lmg_batch`, unitary by construction, and u4 (N, 4, 4),
    their product-basis embeddings, built on first access."""

    u3: np.ndarray

    @functools.cached_property
    def u4(self) -> np.ndarray:
        return to_qubit_basis(self.u3, 1.0)


def _rotation(angles: np.ndarray, k: int) -> np.ndarray:
    """exp(i angle M_k), k in 1..7, for each angle of a 1-D grid: the B_k
    closed form of the module docstring, as a new (N, 3, 3) complex stack."""
    e = np.exp(1j * angles)  # cos + i sin, the kernel of `_phases` (module docstring)
    c, s = (e.real - 1.0).astype(np.complex128), 1j * e.imag
    # the entries outside _ROTATION_ENTRIES[k] are 0, as the sum rounds them
    out = np.zeros((angles.size, 3, 3), np.complex128)
    for r, col in _ROTATION_ENTRIES[k]:
        entry, m2, m = out[:, r, col], _M_SQUARED[k][r, col], M[k][r, col]
        # (I + (cos - 1) M_k^2) + i sin M_k: a term whose factor from M_k or
        # M_k^2 is 0 is a signed zero, which changes no sum that is not -0,
        # and adding I leaves no -0; only M3's diagonal has both terms
        first, factor = (c, m2) if m2 else (s, m)
        np.multiply(first, factor, out=entry)
        entry += _EYE[r, col]
        if m2 and m:
            entry += s * m
    return out


def _phases(angles: np.ndarray, weights: tuple[float, float]) -> np.ndarray:
    """exp(i angle w) for each angle of a 1-D grid, as row j of a new (2, N)
    complex array, for w the j-th of the two distinct `weights` of a phase
    diagonal diag(a, b, a); diagonal entry c is row _DIAGONAL[c].  One
    complex exp per distinct weight, over contiguous rows, on which numpy's
    exp is faster than on strided columns (with libm's bits either way)."""
    return np.exp(1j * np.multiply.outer(weights, angles))  # exact, as 1j times a real is


_INDEX_NOTE = " (index 0 would be a global phase)"


def _b8_bounded(k: int, top: float) -> None:
    """For B8, InputError if 2*theta/sqrt3 overflows at the largest |theta|, `top`."""
    if k == 8:
        _bounded("2*theta/sqrt3", top / _SQ3, 2.0)


def gate(k: int, theta: float) -> SymmetricGate:
    """The gate B_k = exp(i M_k theta) for k = 1..8.

    k = 0 is rejected: exp(i M_0 theta) is a global phase, not a gate.
    """
    k = _index("gate index", k, 1, 8, _INDEX_NOTE)
    theta = _finite("theta", theta)
    _b8_bounded(k, abs(theta))
    return SymmetricGate(label=f"B{k}", u3=_gate_stack(k, np.array([theta]))[0], theta=theta)


def gates_batch(k: int, thetas) -> GateBatch:
    """B_k(theta) for every angle of a 1-D grid; entry by entry equal to `gate`."""
    return GateBatch(_gate_stack(*_gate_grid(k, thetas)))


def _gate_grid(k: int, thetas) -> tuple[int, np.ndarray]:
    """k, the grid `thetas`, then for B8 2*theta/sqrt3 at its largest
    |angle|, checked in that order: `gates_batch`'s rule and the sweep law's."""
    k = _index("gate index", k, 1, 8, _INDEX_NOTE)
    thetas = _grid("thetas", thetas)
    _b8_bounded(k, max(float(thetas.max()), -float(thetas.min())))  # no array of the grid's size
    return k, thetas


def _gate_stack(k: int, thetas: np.ndarray) -> np.ndarray:
    """B_k at each angle of a checked grid, as a new (N, 3, 3) stack."""
    if k != 8:  # B1..B7 are rotations, B8 a phase diagonal
        return _rotation(thetas, k)
    u3 = np.zeros((thetas.size, 3, 3), np.complex128)
    u3[:, [0, 1, 2], [0, 1, 2]] = _phases(thetas / _SQ3, _B8_WEIGHTS)[list(_DIAGONAL)].T
    return u3


def custom_gate(u3, label: str = "custom") -> SymmetricGate:
    """Wrap an arbitrary 3x3 unitary as a symmetric gate."""
    u3 = _matrix("u3", u3, 3)
    _require(is_unitary(u3), f"gate {label} is not unitary within 1e-12", "u3", u3)
    return SymmetricGate(label=label, u3=u3)


def lmg_hamiltonian(g1: float, g2: float) -> np.ndarray:
    """Spin-1 matrix of g1 (J+^2 + J-^2) + g2 (J+J- + J-J+), from the
    ladder operators: the reference that the closed-form `lmg_batch` and
    the basis expansion of the module docstring are tested against."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    return g1 * _LADDER_G1 + g2 * _LADDER_G2


def lmg_gate(params: LMGParams) -> SymmetricGate:
    """The evolution gate exp(i H t) of the collective-spin Hamiltonian."""
    t, g1, g2 = _finite("t", params.t), _finite("g1", params.g1), _finite("g2", params.g2)
    _lmg_bounded(g1, g2, abs(t))
    return SymmetricGate(label="BL", u3=_lmg_stack(g1, g2, np.array([t]))[0], lmg=params)


def lmg_batch(g1: float, g2: float, ts) -> GateBatch:
    """LMG gates for every time of a 1-D grid, entry by entry equal to
    `lmg_gate`: B7(xi) diag(e^{i phi}, e^{2i phi}, e^{i phi}), xi = 2 g1 t,
    phi = 2 g2 t (see the module docstring), exact to a few ulps at the
    float angles; InputError names the product if xi, phi or 2 phi overflows."""
    return GateBatch(_lmg_stack(*_lmg_grid(g1, g2, ts, "ts")))


def _lmg_grid(g1: float, g2: float, ts, name: str) -> tuple[float, float, np.ndarray]:
    """g1, g2, the grid `ts` under `name`, then xi, phi and 2 phi at its largest
    |t|, checked in that order: `lmg_batch`'s rule and the LMG profile's."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    ts = _grid(name, ts)
    _lmg_bounded(g1, g2, max(float(ts.max()), -float(ts.min())))
    return g1, g2, ts


def _lmg_bounded(g1: float, g2: float, t_top: float) -> None:
    """InputError naming xi, phi or 2 phi if it overflows at the largest |t|,
    `t_top`: with the largest weights it bounds them at every t."""
    _bounded("2*g1*t", 2.0 * g1, t_top)
    _bounded("2*g2*t", 2.0 * g2, t_top)
    _bounded("4*g2*t", 2.0 * g2 * t_top, 2.0)


def _lmg_stack(g1: float, g2: float, ts: np.ndarray) -> np.ndarray:
    """The LMG gates at each time of a checked grid, as a new (N, 3, 3) stack."""
    b7 = _rotation(2.0 * g1 * ts, 7)
    phases = _phases(2.0 * g2 * ts, _LMG_WEIGHTS)
    u3 = np.empty_like(b7)
    # B7 times a diagonal matrix: column c of B7 times the c-th phase, not
    # written over B7 (numpy would take a loop without FMA for one gate)
    for r, c in _ENTRIES:
        np.multiply(b7[:, r, c], phases[_DIAGONAL[c]], out=u3[:, r, c])
    return u3
