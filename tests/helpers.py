"""Shared numeric helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

# Every warning an error but one: the DeprecationWarning that libcst raises
# on importing mypy_extensions.TypedDict, which hypothesis does to report a
# falsifying example.  As an error it would end the whole session with
# INTERNALERROR instead of the report.
WARNINGS_ARE_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst")


def align_global_phase(actual: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale `actual` by a unit phase to best match `reference`."""
    overlap = np.vdot(np.asarray(actual).ravel(), np.asarray(reference).ravel())
    if abs(overlap) == 0:
        return np.asarray(actual)
    return np.asarray(actual) * (overlap / abs(overlap))


def max_phase_distance(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max-abs difference after optimal global-phase alignment."""
    return float(np.max(np.abs(align_global_phase(actual, reference) - reference)))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) matrix from a normalized quaternion."""
    a, b, c, d = rng.normal(size=4)
    norm = np.sqrt(a * a + b * b + c * c + d * d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def near_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0,
                   frac: float = 0.98) -> np.ndarray:
    """`random_hermitian` plus a non-Hermitian part whose largest defect
    |(h - h^dagger)_ij| is `frac` of the Hermiticity tolerance
    1e-12 * max(1, max|h|), up to rounding."""
    h = random_hermitian(rng, dim, scale)
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    e *= frac * 1e-12 * max(1.0, float(np.abs(h).max())) / np.abs(e - e.conj().T).max()
    return h + e


def random_spinor(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def spin_y(j) -> np.ndarray:
    """J_y of spin j (any half-integer) in the |j m> basis, m descending,
    built from the ladder operator J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>."""
    m = j - np.arange(round(2 * j) + 1)
    plus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return (plus - plus.T) / 2j


def decompose_reference(h: np.ndarray, j) -> dict:
    """h^k_q = Tr(h tau^k_q), one matrix product and trace per (k, q)."""
    from symgates.tensors import tau

    two_j = round(2 * j)
    return {(k, q): complex(np.trace(h @ tau(j, k, q).matrix))
            for k in range(two_j + 1) for q in range(-k, k + 1)}


def m_coefficients_reference(x: np.ndarray) -> np.ndarray:
    """c_k = Tr(M_k x) / 2, one matrix product and trace per M_k."""
    from symgates.su3 import M

    return np.array([np.trace(m @ x) / 2 for m in M])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def kron_factor_2x2(u4) -> tuple[np.ndarray, np.ndarray, float]:
    """Best factorization of a 4x4 matrix as v (x) w with 2x2 factors.

    Returns (v, w, residual) where the residual is the second singular
    value of the rearranged matrix: zero exactly when u4 is a tensor
    product, i.e. a local (non-entangling) gate.
    """
    u4 = np.asarray(u4, dtype=np.complex128)
    assert u4.shape == (4, 4), u4.shape
    rearranged = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    left, sing, right = np.linalg.svd(rearranged)
    scale = math.sqrt(sing[0])
    v = scale * left[:, 0].reshape(2, 2)
    w = scale * right[0, :].reshape(2, 2)
    return v, w, float(sing[1])
