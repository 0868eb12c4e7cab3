"""Dense complex linear algebra for small operator matrices.

All functions work on plain numpy arrays of shape (n, n) with n <= 6 and
are pure; inputs are never mutated.  `is_unitary` also accepts a
(..., n, n) stack.  `expm_hermitian`, by eigendecomposition, is the
independent reference the tests compare the closed-form gates with.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-12


class InputError(ValueError):
    """An argument outside a function's domain: a non-finite number, an
    index out of range, an unordered grid."""


def _finite(name: str, value):
    """`value` as a float, or a float array for a grid (a complex array
    stays complex); InputError naming `name` if any entry is NaN or
    infinite."""
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


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=np.complex128).conj().T


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal-dimension square matrices."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """ab + ba for equal-dimension square matrices."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    _check_same_dim(a, b)
    return a @ b + b @ a


def hermiticity_defect(a) -> tuple[int, int, float]:
    """Index and magnitude of the largest entry of a - a^dagger."""
    a = _as_square(a)
    d = np.abs(a - a.conj().T)
    flat = int(np.argmax(d))
    i, j = divmod(flat, a.shape[1])
    return i, j, float(d[i, j])


def is_hermitian(a, atol: float = HERMITICITY_ATOL) -> bool:
    a = _as_square(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def is_unitary(a, atol: float = UNITARITY_ATOL) -> bool:
    """True if a, or every matrix of a (..., n, n) stack, is unitary within atol."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    defect = a.conj().swapaxes(-1, -2) @ a
    defect -= np.eye(a.shape[-1])
    return bool(np.max(np.abs(defect)) <= atol)


def expm_hermitian(h, t: float = 1.0, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Unitary exp(i h t) of a Hermitian matrix via eigendecomposition.

    Raises ValueError naming the offending entry if h is not Hermitian
    within `atol`.
    """
    h = _as_square(h, "h")
    i, j, defect = hermiticity_defect(h)
    if defect > atol:
        raise ValueError(
            f"matrix is not Hermitian: |(h - h^dagger)[{i}, {j}]| = {defect:.3e} "
            f"exceeds {atol:.1e}"
        )
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w * float(t))) @ v.conj().T
