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
the same (==) alone or in a grid.  The closed forms are unitary by
construction, so no grid is checked: a hypothesis property in the tests
pins them unitary within 1e-12 at every finite angle that the grid and
overflow checks admit.  `custom_gate`, which wraps a matrix from outside,
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
_B8_WEIGHTS = np.array([1.0, -2.0, 1.0])  # eigenvalues of sqrt(3) M8
_LMG_WEIGHTS = np.array([1.0, 2.0, 1.0])  # H - 2 g1 M7 = 2 g2 diag(1, 2, 1)
_DIAG = np.arange(3)
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
    closed form of the module docstring, an (N, 3, 3) stack."""
    e = np.exp(1j * angles)  # cos + i sin, the kernel of `_phases` (module docstring)
    cos, sin = e.real, e.imag
    return (np.eye(3) + (cos - 1.0)[:, None, None] * _M_SQUARED[k]
            + (1j * sin)[:, None, None] * M[k])


def _phases(angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The diagonal of exp(i angle diag(weights)) for each angle of a 1-D
    grid, an (N, 3) array."""
    return np.exp(1j * (angles[:, None] * weights))


def gate(k: int, theta: float) -> SymmetricGate:
    """The gate B_k = exp(i M_k theta) for k = 1..8.

    k = 0 is rejected: exp(i M_0 theta) is a global phase, not a gate.
    """
    k = _index("gate index", k, 1, 8, " (index 0 would be a global phase)")
    theta = _finite("theta", theta)
    return SymmetricGate(label=f"B{k}", u3=gates_batch(k, [theta]).u3[0], theta=theta)


def gates_batch(k: int, thetas) -> GateBatch:
    """B_k(theta) for every angle of a 1-D grid; entry by entry equal to `gate`."""
    k = _index("gate index", k, 1, 8, " (index 0 would be a global phase)")
    thetas = _grid("thetas", thetas)
    if k != 8:
        return GateBatch(_rotation(thetas, k))
    u3 = np.zeros((thetas.size, 3, 3), dtype=np.complex128)
    u3[:, _DIAG, _DIAG] = _phases(_bounded("2*theta/sqrt3", thetas / _SQ3, 2.0), _B8_WEIGHTS)
    return GateBatch(u3)


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
    u3 = lmg_batch(params.g1, params.g2, [_finite("t", params.t)]).u3[0]
    return SymmetricGate(label="BL", u3=u3, lmg=params)


def lmg_batch(g1: float, g2: float, ts) -> GateBatch:
    """LMG gates for every time of a 1-D grid, entry by entry equal to
    `lmg_gate`: B7(xi) diag(e^{i phi}, e^{2i phi}, e^{i phi}), xi = 2 g1 t,
    phi = 2 g2 t (see the module docstring), exact to a few ulps at the
    float angles; InputError names the product if xi, phi or 2 phi overflows."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    ts = _grid("ts", ts)
    t_top = float(abs(ts).max())  # with the largest weights, bounds xi, phi and 2 phi
    _bounded("2*g1*t", 2.0 * g1, t_top)
    _bounded("2*g2*t", 2.0 * g2, t_top)
    _bounded("4*g2*t", 2.0 * g2 * t_top, 2.0)
    # B7 times a diagonal matrix: column j of B7 times the j-th phase
    phases = _phases(2.0 * g2 * ts, _LMG_WEIGHTS)
    return GateBatch(_rotation(2.0 * g1 * ts, 7) * phases[:, None, :])
