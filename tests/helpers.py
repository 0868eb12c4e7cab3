"""Shared numeric helpers for the test suite."""

from __future__ import annotations

import numpy as np


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
