"""One-parameter symmetric two-qubit gates and the LMG evolution gate.

Each gate is the unitary exp(i M_k theta) on the spin-1 (symmetric)
subspace.  Because M1..M7 have eigenvalues {1, 0, -1}, those seven
gates admit the closed form

    B_k = I + (cos theta - 1) M_k^2 + i sin theta M_k,

while B8, whose generator has eigenvalues {1, -2, 1}/sqrt(3), is a pure
phase gate handled explicitly.  The 4x4 product-basis embedding acts as
the identity on the singlet state.

The LMG Hamiltonian H = g1 (J+^2 + J-^2) + g2 (J+J- + J-J+) is 2 g1 M7
+ (2/sqrt(3)) g2 (sqrt(8) M0 - M8) = 2 g1 M7 + 2 g2 diag(1, 2, 1), and M7
commutes with M8, so exp(i H t) = B7(xi) diag(e^{i phi}, e^{2i phi}, e^{i phi})
with xi = 2 g1 t, phi = 2 g2 t: the same closed forms, no eigendecomposition.

`gates_batch` and `lmg_batch` build a whole grid of one family as an
(N, 3, 3) stack, checked unitary once; its (N, 4, 4) embedding is built
only if it is read.  `gate` and `lmg_gate` are their one-point case, so a
gate is the same (==) whether it is built alone or in a grid.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, _finite, _grid, is_unitary
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


@dataclass(frozen=True)
class SymmetricGate:
    """A symmetric two-qubit gate: 3x3 unitary plus 4x4 embedding."""

    label: str
    u3: np.ndarray
    u4: np.ndarray
    theta: float | None = None
    lmg: LMGParams | None = None


@dataclass(frozen=True)
class GateBatch:
    """Gates of one family on a 1-D grid: u3 (N, 3, 3), checked unitary by
    `gates_batch` / `lmg_batch`, and u4 (N, 4, 4), their product-basis
    embeddings, built on first access."""

    u3: np.ndarray

    @functools.cached_property
    def u4(self) -> np.ndarray:
        return to_qubit_basis(self.u3, 1.0)


def _unitary(label: str, u3: np.ndarray) -> np.ndarray:
    """u3, a 3x3 gate or a stack, once it is checked unitary within 1e-12."""
    if not is_unitary(u3):
        _finite("u3", u3)
        raise ValueError(f"gate {label} is not unitary within 1e-12")
    return u3


def _exp_i(angles: np.ndarray, generator) -> np.ndarray:
    """exp(i angle G) for each angle of a 1-D grid, not checked unitary, for
    G = M_k with an index k in 1..7 (the B_k closed form of the module
    docstring) or G = diag(w) with an array of weights w."""
    if isinstance(generator, np.ndarray):
        u3 = np.zeros((angles.size, 3, 3), dtype=np.complex128)
        u3[:, _DIAG, _DIAG] = np.exp(1j * (angles[:, None] * generator))
        return u3
    # math.cos/sin per angle: numpy's vector kernels may round differently,
    # which would change the printed digits
    values = angles.tolist()
    cos = np.fromiter(map(math.cos, values), np.float64, angles.size)
    sin = np.fromiter(map(math.sin, values), np.float64, angles.size)
    return (np.eye(3) + (cos - 1.0)[:, None, None] * _M_SQUARED[generator]
            + (1j * sin)[:, None, None] * M[generator])


def _gate_index(k) -> int:
    try:
        index = operator.index(k)
    except TypeError:
        index = None
    if index is None or not 1 <= index <= 8:
        raise InputError(f"gate index must be an integer in 1..8, got {k!r} "
                         "(index 0 would be a global phase)")
    return index


def gate(k: int, theta: float) -> SymmetricGate:
    """The gate B_k = exp(i M_k theta) for k = 1..8.

    k = 0 is rejected: exp(i M_0 theta) is a global phase, not a gate.
    """
    k = _gate_index(k)
    theta = _finite("theta", theta)
    batch = gates_batch(k, [theta])
    return SymmetricGate(label=f"B{k}", u3=batch.u3[0], u4=batch.u4[0], theta=theta)


def gates_batch(k: int, thetas) -> GateBatch:
    """B_k(theta) for every angle of a 1-D grid; entry by entry equal to `gate`."""
    k = _gate_index(k)
    thetas = _grid("thetas", thetas)
    u3 = _exp_i(thetas / _SQ3, _B8_WEIGHTS) if k == 8 else _exp_i(thetas, k)
    return GateBatch(_unitary(f"B{k}", u3))


def custom_gate(u3, label: str = "custom") -> SymmetricGate:
    """Wrap an arbitrary 3x3 unitary as a symmetric gate."""
    u3 = _unitary(label, np.asarray(u3, dtype=np.complex128))
    return SymmetricGate(label=label, u3=u3, u4=to_qubit_basis(u3, 1.0))


def lmg_hamiltonian(g1: float, g2: float) -> np.ndarray:
    """Spin-1 matrix of g1 (J+^2 + J-^2) + g2 (J+J- + J-J+), from the
    ladder operators: the reference that the closed-form `lmg_batch` and
    the basis expansion of the module docstring are tested against."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    return g1 * _LADDER_G1 + g2 * _LADDER_G2


def lmg_gate(params: LMGParams) -> SymmetricGate:
    """The evolution gate exp(i H t) of the collective-spin Hamiltonian."""
    batch = lmg_batch(params.g1, params.g2, [_finite("t", params.t)])
    return SymmetricGate(label="BL", u3=batch.u3[0], u4=batch.u4[0], lmg=params)


def lmg_batch(g1: float, g2: float, ts) -> GateBatch:
    """LMG gates for every time of a 1-D grid, entry by entry equal to
    `lmg_gate`: B7(xi) diag(e^{i phi}, e^{2i phi}, e^{i phi}), xi = 2 g1 t,
    phi = 2 g2 t (see the module docstring), exact to a few ulps at the
    float angles; InputError names the coupling and t if xi or phi overflows."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    ts = _grid("ts", ts)
    with np.errstate(over="ignore", invalid="ignore"):
        xi, phi = _finite("2*g1*t", 2.0 * g1 * ts), _finite("2*g2*t", 2.0 * g2 * ts)
    # B7 times a diagonal matrix: column j of B7 times the j-th phase
    phase = _exp_i(phi, _LMG_WEIGHTS)[:, _DIAG, _DIAG]
    return GateBatch(_unitary("BL", _exp_i(xi, 7) * phase[:, None, :]))
