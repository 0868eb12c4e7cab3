"""One-parameter symmetric two-qubit gates and the LMG evolution gate.

Each gate is the unitary exp(i M_k theta) on the spin-1 (symmetric)
subspace.  Because M1..M7 have eigenvalues {1, 0, -1}, those seven
gates admit the closed form

    B_k = I + (cos theta - 1) M_k^2 + i sin theta M_k,

while B8, whose generator has eigenvalues {1, -2, 1}/sqrt(3), is a pure
phase gate handled explicitly.  The 4x4 product-basis embedding acts as
the identity on the singlet state.

`gates_batch` and `lmg_batch` build a whole grid of one family as a
(N, 3, 3) / (N, 4, 4) stack; `gate` and `lmg_gate` are their one-point
case, so a gate is the same (==) whether it is built alone or in a grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, _finite, _grid, expm_hermitian, is_unitary
from .su3 import M, M0, M7, M8, to_qubit_basis
from .tensors import angular_momentum_matrices

_SQ3 = math.sqrt(3.0)
_SQ8 = math.sqrt(8.0)
_M_SQUARED = tuple(mk @ mk for mk in M)
_B8_WEIGHTS = np.array([1.0, -2.0, 1.0])  # eigenvalues of sqrt(3) M8
_DIAG = np.arange(3)


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
    """Gates of one family on a 1-D grid: u3 (N, 3, 3) and u4 (N, 4, 4)."""

    u3: np.ndarray
    u4: np.ndarray


def _embed(label: str, u3: np.ndarray) -> np.ndarray:
    """Product-basis embedding of a 3x3 gate, or of a stack, once it is checked unitary."""
    if not is_unitary(u3):
        raise ValueError(f"gate {label} is not unitary within 1e-12")
    return to_qubit_basis(u3, 1.0)


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
    if k == 8:
        u3 = np.zeros((thetas.size, 3, 3), dtype=np.complex128)
        u3[:, _DIAG, _DIAG] = np.exp(1j * ((thetas / _SQ3)[:, None] * _B8_WEIGHTS))
    else:
        # math.cos/sin per angle: numpy's vector kernels may round differently,
        # which would change the printed digits
        angles = thetas.tolist()
        cos = np.fromiter(map(math.cos, angles), np.float64, thetas.size)
        sin = np.fromiter(map(math.sin, angles), np.float64, thetas.size)
        u3 = (np.eye(3) + (cos - 1.0)[:, None, None] * _M_SQUARED[k]
              + (1j * sin)[:, None, None] * M[k])
    return GateBatch(u3, _embed(f"B{k}", u3))


def custom_gate(u3, label: str = "custom") -> SymmetricGate:
    """Wrap an arbitrary 3x3 unitary as a symmetric gate."""
    u3 = np.asarray(u3, dtype=np.complex128)
    return SymmetricGate(label=label, u3=u3, u4=_embed(label, u3))


def lmg_hamiltonian(g1: float, g2: float) -> np.ndarray:
    """Spin-1 matrix of g1 (J+^2 + J-^2) + g2 (J+J- + J-J+).

    Built from the ladder operators and cross-checked against the
    equivalent basis expansion 2 g1 M7 + (2/sqrt(3)) g2 (sqrt(8) M0 - M8);
    a disagreement would indicate corrupted basis constants.
    """
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    jm = angular_momentum_matrices(1)
    jp, jmn = jm.plus, jm.minus
    h_ladder = g1 * (jp @ jp + jmn @ jmn) + g2 * (jp @ jmn + jmn @ jp)
    h_basis = 2.0 * g1 * M7 + (2.0 / _SQ3) * g2 * (_SQ8 * M0 - M8)
    if np.max(np.abs(h_ladder - h_basis)) > 1e-12:
        raise RuntimeError("ladder and basis forms of the collective Hamiltonian disagree")
    return h_ladder


def lmg_gate(params: LMGParams) -> SymmetricGate:
    """The evolution gate exp(i H t) of the collective-spin Hamiltonian."""
    batch = lmg_batch(params.g1, params.g2, [_finite("t", params.t)])
    return SymmetricGate(label="BL", u3=batch.u3[0], u4=batch.u4[0], lmg=params)


def lmg_batch(g1: float, g2: float, ts) -> GateBatch:
    """LMG gates for every time of a 1-D grid, from one eigendecomposition
    of the Hamiltonian; entry by entry equal to `lmg_gate`."""
    h = lmg_hamiltonian(g1, g2)
    ts = _grid("ts", ts)
    u3 = expm_hermitian(h, ts)
    return GateBatch(u3, _embed("BL", u3))


def lmg_gate_closed_form(params: LMGParams) -> np.ndarray:
    """Closed form of the 3x3 collective-evolution gate.

    With xi = 2 g1 t and beta = (2/sqrt(3)) g2 t the corner entries are
    exp(i sqrt(3) beta) cos(xi), the off-corners i exp(i sqrt(3) beta)
    sin(xi), and the center exp(2 i sqrt(3) beta).
    """
    xi, beta = params.xi, params.beta
    corner = np.exp(1j * _SQ3 * beta)
    center = np.exp(2j * _SQ3 * beta)
    c, s = math.cos(xi), math.sin(xi)
    return np.array([
        [corner * c, 0.0, 1j * corner * s],
        [0.0, center, 0.0],
        [1j * corner * s, 0.0, corner * c],
    ])
