"""Dense complex linear algebra for small operator matrices.

All functions work on plain numpy arrays of shape (n, n) with n <= 6 and
are pure; inputs are never mutated.  `is_unitary` also accepts a
(..., n, n) stack.  `expm_hermitian`, by eigendecomposition, is the
independent reference the tests compare the closed-form gates with.

It owns the matrix plumbing of every module: the shape of a matrix or
stack argument (`_matrix`), the one Hermiticity rule, a defect of at most
HERMITICITY_ATOL * max(1, max|h|) entrywise (`is_hermitian`, `_hermitian`),
and the expansion in a basis of matrices as one matrix-vector product
(`_FlatBasis`, for the M_k and the tau^k_q).

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


class InputError(ValueError):
    """An argument outside a function's domain: a non-finite number, an
    index out of range, an unordered grid, a matrix of the wrong shape."""


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
    return _finite(name, grid)


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


def _hermiticity(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """|a - a^dagger| entrywise, max|a| and the Hermiticity tolerance
    HERMITICITY_ATOL * max(1, max|a|), as rounding grows with max|a|.  The
    tolerance stays finite (|a| may overflow where a does not), so a
    non-finite entry, which gives an inf or NaN defect, fails."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        d = np.abs(a - a.conj().T)
        top = float(np.abs(a).max())
    return d, top, HERMITICITY_ATOL * max(1.0, min(top, sys.float_info.max))


def is_hermitian(a) -> bool:
    """True if every |(a - a^dagger)_ij| <= HERMITICITY_ATOL * max(1, max|a|),
    the rule of every Hermiticity check; False if a is not finite."""
    d, _, atol = _hermiticity(_matrix("a", a))
    return bool(d.max() <= atol)


def _hermitian(name: str, h: np.ndarray) -> float:
    """max|h|, once the square matrix h passes `is_hermitian`; else InputError
    naming `name` if h is not finite, or ValueError naming the worst entry."""
    d, top, atol = _hermiticity(h)
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
    every |(a^dagger a - I)_ij| <= atol; False if a is not finite."""
    a = _matrix("a", a, stack=True)
    n = a.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in a non-finite matrix
        defect = a.conj().swapaxes(-1, -2) @ a
    defect -= _identity(n)
    return bool(abs(defect).max() <= atol)


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
