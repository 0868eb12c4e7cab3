"""Closed-form checks of the outputs, run after the timed phase.

Sweep rows are checked against the local invariant G1 of each gate family
(Makhlin, QIP 1, 243 (2002); Zhang, Vala, Sastry & Whaley, PRA 67, 042313
(2003)):

- |G1| = 1 for B1..B3;
- |G1| = cos^4 theta for B4..B7;
- B8 sits at canonical coordinates (-a, -a, 2a) with a = theta/sqrt3, so
  |G1| = |cos^4 a cos^2 2a - sin^4 a sin^2 2a + (i/4) sin^2 2a sin 4a|.

LMG rows satisfy |G1| = ((cos 4 g1 t + cos 4 g2 t)/2)^2 and the |up up>
image has concurrence |sin 4 g1 t|.  In every case e_p = (2/9)(1 - |G1|).
The class column is not checked.

Pointwise results are checked against quantities the benchmark computes
itself: G1 and the output state from its own embedding and magic basis,
and the decompose -> reconstruct round trips.
"""

from __future__ import annotations

import math

import numpy as np

ATOL = 1e-11  # observed worst case is below 1e-13
MAX_EP = 2.0 / 9.0

SWEEP_HEADER = "theta,g1_abs,ep,class"
LMG_HEADER = "t,ep,concurrence"

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)

# Product basis (uu, ud, du, dd) -> (|1 1>, |1 0>, |1 -1>, singlet).
_TO_ANGULAR = np.array([
    [1, 0, 0, 0],
    [0, 1 / _SQ2, 1 / _SQ2, 0],
    [0, 0, 0, 1],
    [0, 1 / _SQ2, -1 / _SQ2, 0],
], dtype=np.complex128)

# Columns are the magic (Bell) basis in product coordinates.
_MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=np.complex128) / _SQ2


def sweep_g1_abs(k: int, theta: float) -> float:
    """Closed-form |G1| of B_k(theta)."""
    if k <= 3:
        return 1.0
    if k <= 7:
        return math.cos(theta) ** 4
    a = theta / _SQ3
    s2a = math.sin(2 * a)
    return abs(complex(math.cos(a) ** 4 * math.cos(2 * a) ** 2 - math.sin(a) ** 4 * s2a ** 2,
                       0.25 * s2a ** 2 * math.sin(4 * a)))


def _parse_rows(text: str, header: str):
    """Numeric columns of each row, or None for a malformed row."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        return None
    width = header.count(",") + 1
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            rows.append(tuple(float(x) for x in fields[:3]) if len(fields) == width else None)
        except ValueError:
            rows.append(None)
    return rows


def _close(x: float, y: float, atol: float = ATOL) -> bool:
    return abs(x - y) <= atol  # False for NaN


def _grid_ok(value: float, exact: float) -> bool:
    return _close(value, exact, 1e-13 * max(1.0, abs(exact)))


def check_sweep_csv(text: str, k: int, theta_max: float, steps: int) -> int:
    """Number of points of a `sweep` CSV that are missing or wrong."""
    rows = _parse_rows(text, SWEEP_HEADER)
    if rows is None:
        return steps
    failed = abs(len(rows) - steps)
    for theta, row in zip(np.linspace(0.0, theta_max, steps), rows):
        if row is None:
            failed += 1
            continue
        g1_abs = sweep_g1_abs(k, float(theta))
        ok = (_grid_ok(row[0], theta) and _close(row[1], g1_abs)
              and _close(row[2], MAX_EP * (1.0 - g1_abs)))
        failed += not ok
    return failed


def check_lmg_csv(text: str, g1: float, g2: float, t_max: float, steps: int) -> int:
    """Number of points of an `lmg --t-max` CSV that are missing or wrong."""
    rows = _parse_rows(text, LMG_HEADER)
    if rows is None:
        return steps
    failed = abs(len(rows) - steps)
    for t, row in zip(np.linspace(0.0, t_max, steps), rows):
        if row is None:
            failed += 1
            continue
        t = float(t)
        g1_abs = ((math.cos(4 * g1 * t) + math.cos(4 * g2 * t)) / 2) ** 2
        ok = (_grid_ok(row[0], t) and _close(row[1], MAX_EP * (1.0 - g1_abs))
              and _close(row[2], abs(math.sin(4 * g1 * t))))
        failed += not ok
    return failed


def embed(u3: np.ndarray) -> np.ndarray:
    """4x4 product-basis form of a 3x3 symmetric-subspace gate (singlet fixed)."""
    block = np.eye(4, dtype=np.complex128)
    block[:3, :3] = u3
    return _TO_ANGULAR.conj().T @ block @ _TO_ANGULAR


def g1_abs_of(u4: np.ndarray) -> float:
    """|G1| = |tr(m)^2 / (16 det U)| with m = U_B^T U_B in the magic basis."""
    ub = _MAGIC.conj().T @ u4 @ _MAGIC
    return abs(np.trace(ub.T @ ub) ** 2 / (16.0 * np.linalg.det(u4)))


def check_gate_request(u3, alpha: float, phi: float, ep: float, g1_abs: float,
                       conc: float, out) -> bool:
    """A gate request: e_p from G1, and the image of the product state."""
    u4 = embed(np.asarray(u3))
    expected_g1 = g1_abs_of(u4)
    spinor = np.array([math.cos(alpha / 2), math.sin(alpha / 2) * np.exp(1j * phi)])
    image = u4 @ np.kron(spinor, spinor)
    expected_conc = 2.0 * abs(image[0] * image[3] - image[1] * image[2])
    return (_close(g1_abs, expected_g1) and _close(ep, MAX_EP * (1.0 - expected_g1))
            and bool(np.max(np.abs(np.asarray(out) - image)) <= ATOL)
            and _close(conc, expected_conc))


def check_operator_request(h3, m_basis, coeffs, hermitians, recons, rotations) -> bool:
    """An operator request: round trips and norm-preserving rotations.

    `rotations` holds (params, rotated params) pairs; a rotation is unitary
    on each rank, so it keeps sum_q |h^k_q|^2 for every k.
    """
    coeffs = np.asarray(coeffs)
    rebuilt = 0.5 * np.tensordot(coeffs, np.stack(m_basis), axes=1)
    if not (np.isrealobj(coeffs) and np.max(np.abs(rebuilt - h3)) <= ATOL):
        return False
    for h, recon in zip(hermitians, recons):
        if not np.max(np.abs(np.asarray(recon) - h)) <= ATOL:
            return False
    for params, rotated in rotations:
        ranks = {k for k, _q in params.coeffs}
        for k in ranks:
            before = np.sum(np.abs(params.rank_coefficients(k)) ** 2)
            after = np.sum(np.abs(rotated.rank_coefficients(k)) ** 2)
            if not _close(before, after, ATOL * max(1.0, before)):
                return False
    return True
