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
the same (==) alone or in a grid.  Behind them are two kernels,
`_gates_into` and `_lmg_into`, under one contract.  A kernel checks its
arguments over the whole grid once: the index or couplings, a finite 1-D
grid, and each product that could overflow at the grid's largest |angle|
(for LMG `_lmg_grid`, which the profile of `entanglement` shares).
It then walks the grid in runs of len(u3) points (`_runs`), writing each
run's stack entry by entry with out=, into the buffers of a provider: a
function of the grid's size N that returns the complex stacks u3 and tmp
and the complex phase rows, shaped (N, 3, 3), (N, 3, 3) and (2, N) or
capped at fewer rows.  `_scratch` is the provider that allocates them, so
a public batch function is the case of one run (`next`); the CLI hands
over views of the workspace it allocates once per series, so that a
block allocates no stack.
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


def _scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New buffers for one run of n gates: u3 and tmp, (n, 3, 3) complex
    stacks, and phases, (2, n) complex rows (module docstring)."""
    return tuple(np.empty(shape, dtype=np.complex128) for shape in ((n, 3, 3), (n, 3, 3), (2, n)))


def _rotation(angles: np.ndarray, k: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """exp(i angle M_k), k in 1..7, for each angle of a 1-D grid: the B_k
    closed form of the module docstring, written into the (N, 3, 3) complex
    stack `out`, with the first N entries of `tmp`, another, as scratch.
    Returns `out`."""
    e = np.exp(1j * angles)  # cos + i sin, the kernel of `_phases` (module docstring)
    cos, sin = e.real, e.imag
    c, s = (cos - 1.0).astype(np.complex128), 1j * sin
    x = tmp.reshape(-1)[:angles.size]
    out.fill(0.0)  # the entries outside _ROTATION_ENTRIES[k], as the sum rounds them
    for r, col in _ROTATION_ENTRIES[k]:
        entry, m2, m = out[:, r, col], _M_SQUARED[k][r, col], M[k][r, col]
        # (I + (cos - 1) M_k^2) + i sin M_k: a term whose factor from M_k or
        # M_k^2 is 0 is a signed zero, which changes no sum that is not -0,
        # and adding I leaves no -0; only M3's diagonal has both terms
        first, factor = (c, m2) if m2 else (s, m)
        np.multiply(first, factor, out=entry)
        entry += _EYE[r, col]
        if m2 and m:
            entry += np.multiply(s, m, out=x)
    return out


def _phases(angles: np.ndarray, weights: tuple[float, float], out: np.ndarray) -> np.ndarray:
    """exp(i angle w) for each angle of a 1-D grid, written into row j of
    `out`, a (2, N) complex array, for w the j-th of the two distinct
    `weights` of a phase diagonal diag(a, b, a); diagonal entry c is row
    _DIAGONAL[c].  One complex exp per distinct weight, over contiguous
    rows, on which numpy's exp is faster than on strided columns (with
    libm's bits either way).  Returns `out`."""
    for j, w in enumerate(weights):
        np.multiply(angles, w, out=out[j].real)
    out.imag = 0.0
    np.multiply(1j, out, out=out)  # exact, as 1j times a real is
    return np.exp(out, out=out)


def gate(k: int, theta: float) -> SymmetricGate:
    """The gate B_k = exp(i M_k theta) for k = 1..8.

    k = 0 is rejected: exp(i M_0 theta) is a global phase, not a gate.
    """
    k = _index("gate index", k, 1, 8, " (index 0 would be a global phase)")
    theta = _finite("theta", theta)
    return SymmetricGate(label=f"B{k}", u3=gates_batch(k, [theta]).u3[0], theta=theta)


def gates_batch(k: int, thetas) -> GateBatch:
    """B_k(theta) for every angle of a 1-D grid; entry by entry equal to `gate`."""
    return GateBatch(next(_gates_into(k, thetas, _scratch))[1])


def _gates_into(k: int, thetas, scratch):
    """The runs (angles, u3, tmp) of `gates_batch(k, thetas)` (`_runs`), once
    k, the grid and, for B8, 2*theta/sqrt3 at its largest |angle| are
    checked: each run's gates are written into its u3, with its tmp, or for
    B8 its phases, as scratch."""
    k = _index("gate index", k, 1, 8, " (index 0 would be a global phase)")
    thetas = _grid("thetas", thetas)
    if k == 8:
        _bounded("2*theta/sqrt3", max(float(thetas.max()), -float(thetas.min())) / _SQ3, 2.0)
    for theta, u3, tmp, phases in _runs(thetas, scratch):
        if k == 8:  # a phase diagonal; B1..B7 are rotations
            _phases(theta / _SQ3, _B8_WEIGHTS, phases)
            u3.fill(0.0)
            for j, row in enumerate(_DIAGONAL):
                u3[:, j, j] = phases[row]
        yield theta, (u3 if k == 8 else _rotation(theta, k, u3, tmp)), tmp


def _runs(grid: np.ndarray, scratch):
    """(points, u3, tmp, phases) for each run of len(u3) points of a checked
    grid of N, u3, tmp and phases the buffers of `scratch(N)` (module
    docstring) cut to the run's length; the last run may be shorter."""
    u3, tmp, phases = scratch(grid.size)
    for start in range(0, grid.size, len(u3)):
        n = min(len(u3), grid.size - start)
        yield grid[start:start + n], u3[:n], tmp[:n], phases[:, :n]


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
    return GateBatch(next(_lmg_into(g1, g2, ts, _scratch))[1])


def _lmg_grid(g1: float, g2: float, ts, name: str) -> tuple[float, float, np.ndarray]:
    """g1, g2, the grid `ts` under `name`, then xi, phi and 2 phi at its largest
    |t|, checked in that order: `_lmg_into`'s rule and the LMG profile's."""
    g1, g2 = _finite("g1", g1), _finite("g2", g2)
    ts = _grid(name, ts)
    # max |t|, taken without an array of the grid's size; with the largest
    # weights it bounds xi, phi and 2 phi
    t_top = max(float(ts.max()), -float(ts.min()))
    _bounded("2*g1*t", 2.0 * g1, t_top)
    _bounded("2*g2*t", 2.0 * g2, t_top)
    _bounded("4*g2*t", 2.0 * g2 * t_top, 2.0)
    return g1, g2, ts


def _lmg_into(g1: float, g2: float, ts, scratch):
    """The runs (times, u3, tmp) of `lmg_batch(g1, g2, ts)` (`_runs`), checked by
    `_lmg_grid`, each written into its u3 with its tmp and phases as scratch."""
    g1, g2, ts = _lmg_grid(g1, g2, ts, "ts")
    for t, u3, tmp, phases in _runs(ts, scratch):
        b7 = _rotation(2.0 * g1 * t, 7, tmp, u3)
        _phases(2.0 * g2 * t, _LMG_WEIGHTS, phases)
        # B7 times a diagonal matrix: column c of B7 times the c-th phase, not
        # written over B7 (numpy would take a loop without FMA for one gate)
        for r, c in _ENTRIES:
            np.multiply(b7[:, r, c], phases[_DIAGONAL[c]], out=u3[:, r, c])
        yield t, u3, tmp
