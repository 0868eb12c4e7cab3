"""Dense complex linear algebra for small operator matrices.

All functions work on plain numpy arrays of shape (n, n) with n <= 6 and
are pure; inputs are never mutated.  `is_unitary` also accepts a
(..., n, n) stack.  `expm_hermitian`, by eigendecomposition, is the
independent reference the tests compare the closed-form gates with.

It owns the matrix plumbing of every module: the shape of a matrix or
stack argument (`_matrix`), the one Hermiticity rule, a defect of at most
HERMITICITY_ATOL * max(1, max|h|) entrywise (`_hermiticity`, for matrices
and the coefficient pairs of `TensorParams`), and the expansion in a basis
of matrices as one matrix-vector product (`_FlatBasis`, for the M_k and
the tau^k_q).

A single 3x3 matrix, the spin-1 block of every gate and Hamiltonian, is
checked in closed form in Python complex arithmetic on `a.tolist()`, where
numpy's fixed cost per call would exceed the arithmetic: `is_unitary` as
the six Gram entries of its columns (`_unitary3`), and the Hermiticity rule
as its six distinct defects (`_hermitian_small`), which also takes the
three of a 2x2 matrix, the spin-1/2 tensor checks.  The Hermiticity closed
form only ever accepts: a defect above (1 - 1e-14) times the tolerance, a
non-finite entry or a modulus of 1e300 or more goes to `_hermiticity`,
which decides as for every other shape and writes each failure report, so
each verdict, message and bound is numpy's.  Numpy also checks stacks (a
(1, 3, 3) stack included), the 4..6 dimensional tensor checks and the 4x4
ones of `entanglement`.

It also owns the failure contract: bad input raises `InputError`, named
by the parameter or product at fault, with no numpy warning first.  A
matrix of the wrong shape is named with its shape (`_matrix`), a failed
tolerance check names a non-finite entry if there is one (`_require`;
defects are computed here with numpy's warnings off), an index is what
`operator.index` takes (`_index`), and a finite parameter times the
largest weight it meets must be finite (`_bounded`): `2*g1*t`, `2*g2*t`,
`4*g2*t`, `2*theta/sqrt3`, `beta*k`, `alpha*q`, `gamma*q`, `2*j`, a matrix
h (or x) expanded in a basis, times the basis' largest absolute row sum,
the coefficients that `rotate_params` rotates (`coeffs*d`) and the `op4`
of `from_qubit_basis`.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
# The 2x2 and 3x3 Hermiticity closed form accepts a defect up to this
# fraction of the tolerance (numpy's abs and libm's hypot differ by a few
# ulps at most) and moduli below _HERMITIAN_MAX, so that no sum or product
# of them that a caller bounds (`_bounded`) can overflow.
_HERMITIAN_SURE = 1.0 - 1e-14
_HERMITIAN_MAX = 1e300


class InputError(ValueError):
    """An argument outside a function's domain: a non-finite number, an
    index out of range, a matrix of the wrong shape.  A plain ValueError is
    a failed tolerance check on an accepted argument; the CLI exits 2 for
    the one and 1 for the other."""


def _finite(name: str, value):
    """`value` as a float, or a float array for a grid (a complex array
    stays complex); InputError naming `name` if any entry is NaN or
    infinite."""
    if value.__class__ is float and math.isfinite(value):
        return value  # the common case, without np.ndim's cost
    if np.ndim(value) == 0:
        x = float(value)
        if math.isfinite(x):
            return x
        raise InputError(f"{name} must be finite, got {x}")
    x = np.asarray(value)
    if not np.iscomplexobj(x):
        x = x.astype(np.float64, copy=False)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InputError(f"{name} must be finite, got {x.flat[bad[0]]} at index {bad[0]}")
    return x


def _grid(name: str, values) -> np.ndarray:
    """`values` as a non-empty, finite 1-D float array; InputError naming `name` if not."""
    grid = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D array, got shape {grid.shape}")
    if math.isfinite(grid.min()) and math.isfinite(grid.max()):  # NaN and inf show there
        return grid  # checked with no array of the grid's size
    return _finite(name, grid)  # raises, naming the first non-finite entry


def _require(ok: bool, message: str, name: str, value) -> None:
    """If not `ok`: InputError naming a non-finite entry of `value`, else ValueError(message)."""
    if not ok:
        _finite(name, value)
        raise ValueError(message)


def _index(name: str, value, lo: int, hi: int, note: str = "") -> int:
    """`value`, an integer (numpy's too) in lo..hi, as an int; InputError naming `name` if not."""
    if not (hasattr(value, "__index__") and lo <= operator.index(value) <= hi):
        raise InputError(f"{name} must be an integer in {lo}..{hi}, got {value!r}{note}")
    return operator.index(value)


def _bounded(name: str, x, weight: float):
    """x, a finite float or grid, once x * weight is finite (for a grid, its largest magnitude
    times weight, which bounds each x_i w with |w| <= |weight|); else InputError naming `name`."""
    top = (x if x.__class__ is float else float(abs(x).max())) * weight
    if not math.isfinite(top):
        raise InputError(f"{name} must be finite, got {top}")
    return x


def _matrix(name: str, a, n: int | None = None, stack: bool = False) -> np.ndarray:
    """`a` as a complex n x n matrix (any non-empty square one if n is None) or,
    with `stack`, also a non-empty (..., n, n) stack of them; InputError naming
    `name` for any other shape."""
    a = np.asarray(a, dtype=np.complex128)
    shape = a.shape
    if ((len(shape) == 2 or stack and len(shape) > 2) and a.size
            and shape[-1] == shape[-2] == (n or shape[-1])):
        return a
    what = f"{n}x{n} matrix" if n else "non-empty square matrix"
    raise InputError(f"{name} must be a {what}{' or a non-empty stack of them' if stack else ''}, "
                     f"got shape {shape}")


def commutator(a, b) -> np.ndarray:
    """ab - ba for two square matrices of the same dimension."""
    a = _finite("a", _matrix("a", a))
    b = _finite("b", _matrix("b", b, len(a)))
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """ab + ba for two square matrices of the same dimension."""
    a = _finite("a", _matrix("a", a))
    b = _finite("b", _matrix("b", b, len(a)))
    return a @ b + b @ a


def _hermiticity(a: np.ndarray, a_dagger: np.ndarray) -> tuple[np.ndarray, float, float]:
    """|a - a_dagger| entrywise (a matrix and its adjoint, or coefficients
    conj(h^k_q) and (-1)^q h^k_{-q}), max|a| and the Hermiticity tolerance
    HERMITICITY_ATOL * max(1, max|a|), as rounding grows with max|a|.  The
    tolerance stays finite (|a| may overflow where a does not), so a
    non-finite entry, which gives an inf or NaN defect, fails."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        d = np.abs(a - a_dagger)
        top = float(np.abs(a).max())
    return d, top, HERMITICITY_ATOL * max(1.0, min(top, sys.float_info.max))


def _hermitian_small(h: np.ndarray) -> float | None:
    """max|h| of a 2x2 or 3x3 matrix h that passes the Hermiticity rule in
    closed form, on h.tolist(): the defects are 2|Im h_ii| and
    |h_ij - conj h_ji| for i < j (the entry at (j, i) has the same modulus).
    Python's abs is libm's hypot, and numpy's complex abs may round up to
    2 ulps apart, so a defect above _HERMITIAN_SURE of the tolerance is left
    to numpy, as is any other shape, a non-finite entry and moduli that sum
    to _HERMITIAN_MAX or more: None, and `_hermiticity` decides."""
    try:
        if h.shape == (3, 3):
            (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h.tolist()
            moduli = (abs(h00), abs(h01), abs(h02), abs(h10), abs(h11), abs(h12),
                      abs(h20), abs(h21), abs(h22))
            worst = max(2.0 * max(abs(h00.imag), abs(h11.imag), abs(h22.imag)),
                        abs(h01 - h10.conjugate()), abs(h02 - h20.conjugate()),
                        abs(h12 - h21.conjugate()))
        elif h.shape == (2, 2):
            (h00, h01), (h10, h11) = h.tolist()
            moduli = (abs(h00), abs(h01), abs(h10), abs(h11))
            worst = max(2.0 * max(abs(h00.imag), abs(h11.imag)), abs(h01 - h10.conjugate()))
        else:
            return None
    except OverflowError:  # a modulus or a defect beyond the float range
        return None
    if not sum(moduli) < _HERMITIAN_MAX:  # NaN and inf too; a sum keeps a NaN that max() drops
        return None
    top = max(moduli)
    return top if worst <= _HERMITIAN_SURE * HERMITICITY_ATOL * max(1.0, top) else None


def is_hermitian(a) -> bool:
    """True if every |(a - a^dagger)_ij| <= HERMITICITY_ATOL * max(1, max|a|),
    the rule of every Hermiticity check; False if a is not finite."""
    a = _matrix("a", a)
    if _hermitian_small(a) is not None:
        return True
    d, _, atol = _hermiticity(a, a.conj().T)
    return bool(d.max() <= atol)


def _hermitian(name: str, h: np.ndarray) -> float:
    """max|h|, once the square matrix h passes `is_hermitian`; else InputError
    naming `name` if h is not finite, or ValueError naming the worst entry."""
    top = _hermitian_small(h)
    if top is not None:
        return top
    d, top, atol = _hermiticity(h, h.conj().T)
    if not d.max() <= atol:
        _finite(name, h)
        i, j = divmod(int(np.argmax(d)), h.shape[1])
        raise ValueError(f"matrix is not Hermitian: |(h - h^dagger)[{i}, {j}]| = {d[i, j]:.3e} "
                         f"exceeds {atol:.1e}")
    return top


@dataclass(frozen=True, eq=False)
class _FlatBasis:
    """The d x d matrices b_i of an (n, d, d) stack (`_flat_basis`), flattened
    for one matrix-vector product per expansion: row i of `flat_t` is b_i
    transposed and flattened, so `flat_t @ h.reshape(-1)` is every Tr(b_i h),
    and row i of `flat_dagger` is b_i^dagger flattened.  `row_sum`, the largest
    absolute row sum of `flat_t`, times max|h| bounds every partial sum."""

    dim: int
    flat_t: np.ndarray  # (n, d*d)
    flat_dagger: np.ndarray  # (n, d*d)
    row_sum: float

    def traces(self, name: str, h: np.ndarray, top: float | None = None) -> np.ndarray:
        """Every Tr(b_i h) of a d x d matrix h; InputError naming `name` if
        max|h| (`top`, when the caller has it) times `row_sum` overflows."""
        _bounded(name, h if top is None else top, self.row_sum)
        return self.flat_t @ h.reshape(-1)

    def combine(self, c: np.ndarray) -> np.ndarray:
        """The d x d matrix sum_i c_i b_i^dagger."""
        return (c @ self.flat_dagger).reshape(self.dim, self.dim)


def _flat_basis(stack: np.ndarray) -> _FlatBasis:
    n, dim, _ = stack.shape
    flat_t = stack.swapaxes(-1, -2).reshape(n, -1)  # reshape copies the transpose
    flat_dagger = flat_t.conj()
    for a in (flat_t, flat_dagger):
        a.setflags(write=False)
    return _FlatBasis(dim, flat_t, flat_dagger, float(np.abs(flat_t).sum(axis=1).max()))


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def is_unitary(a, atol: float = UNITARITY_ATOL) -> bool:
    """True if a, or every matrix of a (..., n, n) stack, is unitary within atol:
    every |(a^dagger a - I)_ij| <= atol; False if a is not finite.  InputError
    names `atol` if it is not finite, where a 3x3 matrix and a stack of one
    could read an overflowing defect differently."""
    atol = _finite("atol", atol)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape == (3, 3):  # a valid shape, so `_matrix` has nothing to check
        return _unitary3(a.tolist(), atol)
    a = _matrix("a", a, stack=True)
    n = a.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in a non-finite matrix
        defect = a.conj().swapaxes(-1, -2) @ a
    defect -= _identity(n)
    return bool(abs(defect).max() <= atol)


def _unitary3(a: list, atol: float) -> bool:
    """`is_unitary` of a 3x3 matrix given as rows of Python complex numbers:
    the six Gram entries <x_i, x_j> - delta_ij of its columns x_i, written
    out.  The diagonal ones come first, as a NaN or infinite entry makes one
    of them NaN or inf, which fails its comparison; once they pass, every
    column's squared norm is at most 1 + atol, finite, and an off-diagonal
    entry at most their product's root.  The OverflowError handler is a
    guard: a search at the float maximum found no finite atol that reaches
    it, and it reads an overflowing modulus as not unitary."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c00, c01, c02 = a00.conjugate(), a01.conjugate(), a02.conjugate()
    c10, c11, c12 = a10.conjugate(), a11.conjugate(), a12.conjugate()
    c20, c21, c22 = a20.conjugate(), a21.conjugate(), a22.conjugate()
    try:
        return (abs((c00 * a00 + c10 * a10 + c20 * a20).real - 1.0) <= atol
                and abs((c01 * a01 + c11 * a11 + c21 * a21).real - 1.0) <= atol
                and abs((c02 * a02 + c12 * a12 + c22 * a22).real - 1.0) <= atol
                and abs(c00 * a01 + c10 * a11 + c20 * a21) <= atol
                and abs(c00 * a02 + c10 * a12 + c20 * a22) <= atol
                and abs(c01 * a02 + c11 * a12 + c21 * a22) <= atol)
    except OverflowError:
        return False


def expm_hermitian(h, t: float = 1.0) -> np.ndarray:
    """Unitary exp(i h t) of a Hermitian matrix via eigendecomposition.

    Raises ValueError naming the offending entry if h is not Hermitian
    (`is_hermitian`), and InputError if h or t is not finite.
    """
    h = _matrix("h", h)
    t = _finite("t", t)
    _hermitian("h", h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w * t)) @ v.conj().T
