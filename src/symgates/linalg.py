"""Dense complex linear algebra for small operator matrices.

All functions work on plain numpy arrays of shape (n, n) with n <= 6 and
are pure; inputs are never mutated.  `is_unitary` also accepts a
(..., n, n) stack.  `expm_hermitian`, by eigendecomposition, is the
independent reference the tests compare the closed-form gates with.

It also owns the failure contract: bad input raises `InputError`, named
by the parameter or product at fault, with no numpy warning first.  A
failed tolerance check names a non-finite entry if there is one
(`_require`; defects are computed here with numpy's warnings off), an
index is what `operator.index` takes (`_index`), and a finite parameter
times the largest weight it meets must be finite (`_bounded`): `2*g1*t`,
`2*g2*t`, `4*g2*t`, `2*theta/sqrt3`, `beta*k`, `alpha*q`, `gamma*q`, `2*j`,
and a matrix h (or x) expanded in a basis, times the basis' largest
absolute row sum.
"""

from __future__ import annotations

import math
import operator

import numpy as np

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
# Stack size from which `is_unitary` multiplies elementwise.  On 3x3
# matrices (2-vCPU Xeon, numpy 2.4) the two forms cost the same at 16 to
# 32 matrices; the matmul is faster below (20 us against 27 us for one
# matrix) and the elementwise sum above (100 us against 165 us for 256).
_ELEMENTWISE_MIN = 32


class InputError(ValueError):
    """An argument outside a function's domain: a non-finite number, an
    index out of range, an unordered grid."""


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


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal-dimension square matrices."""
    a = _finite("a", _as_square(a, "a"))
    b = _finite("b", _as_square(b, "b"))
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """ab + ba for equal-dimension square matrices."""
    a = _finite("a", _as_square(a, "a"))
    b = _finite("b", _as_square(b, "b"))
    _check_same_dim(a, b)
    return a @ b + b @ a


def hermiticity_defect(a) -> tuple[int, int, float]:
    """Index and magnitude of the largest entry of a - a^dagger (inf or NaN if a is not finite)."""
    a = _as_square(a)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        d = np.abs(a - a.conj().T)
    i, j = divmod(int(np.argmax(d)), a.shape[1])
    return i, j, float(d[i, j])


def is_hermitian(a) -> bool:
    return hermiticity_defect(a)[2] <= HERMITICITY_ATOL


def _sector_coupling(u: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """b = u a u^dagger and how far it couples its last basis vector to the others."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0
        b = u @ a @ u.conj().T
        return b, float(max(np.max(np.abs(b[-1, :-1])), np.max(np.abs(b[:-1, -1]))))


def is_unitary(a, atol: float = UNITARITY_ATOL) -> bool:
    """True if a, or every matrix of a (..., n, n) stack, is unitary within atol.

    A stack of at least _ELEMENTWISE_MIN matrices forms a^dagger a as a sum
    of n broadcast products, one per row k of a: a stacked matmul makes one
    BLAS call per matrix, which is slower for a grid and faster for a few.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in a non-finite matrix
        if a.size < _ELEMENTWISE_MIN * n * n:
            defect = a.conj().swapaxes(-1, -2) @ a
        else:
            ac = a.conj()
            defect = sum(ac[..., k, :, None] * a[..., k, None, :] for k in range(n))
    defect -= np.eye(n)
    return bool(np.max(np.abs(defect)) <= atol)


def expm_hermitian(h, t: float = 1.0) -> np.ndarray:
    """Unitary exp(i h t) of a Hermitian matrix via eigendecomposition.

    Raises ValueError naming the offending entry if h is not Hermitian
    within HERMITICITY_ATOL, and InputError if h or t is not finite.
    """
    h = _as_square(h, "h")
    t = _finite("t", t)
    i, j, defect = hermiticity_defect(h)
    _require(defect <= HERMITICITY_ATOL, f"matrix is not Hermitian: |(h - h^dagger)[{i}, {j}]| "
             f"= {defect:.3e} exceeds {HERMITICITY_ATOL:.1e}", "h", h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w * t)) @ v.conj().T
