"""Local invariants, entangling power and concurrence of two-qubit gates.

The nonlocal content of a 4x4 unitary B is captured by the invariant

    G1 = tr(m)^2 / (16 det B_bell),   m = B_bell^T B_bell,

where B_bell is the gate rewritten in a Bell ("magic") basis, in which
local unitaries become real orthogonal.  The entangling power follows as
e_p = (2/9)(1 - |G1|), with perfect entanglers filling 1/6 <= e_p <= 2/9
and special perfect entanglers the maximal value 2/9.

A symmetric gate u4 = blockdiag(u3, 1) (triplet, singlet) needs no 4x4
matrix.  The Bell transform maps the triplet onto three Bell vectors and
the singlet onto the fourth, so B_bell = blockdiag(W u3 W^dagger, 1) up to
the order of the Bell vectors, with W the 3x3 triplet block of the
transform; W is unitary and W^T W = S = antidiag(1, -1, 1).  Hence
det(B_bell) = det(u3), and, since W^dagger W^* = S^* = S,

    tr(m) = 1 + tr(u3^T S u3 S)
          = 1 + 2(u00 u22 + u02 u20 - u01 u21 - u10 u12) + u11^2.

`_symmetric_invariants` evaluates these two closed forms elementwise over
a (..., 3, 3) stack; `entangling_power` of a SymmetricGate (as a stack of
one) and `entangling_power_batch` of a GateBatch both use it, so a gate
scores the same (==) alone or in a grid.  A general 4x4 unitary, or an
(N, 4, 4) stack, goes through the Bell transform, trace and determinant
of `_bell_invariants` instead.  The last step (G1 from tr(m) and det,
then |G1|, e_p and the class) runs per gate on numpy scalars, because
numpy's array kernels for complex multiply and abs round differently from
its scalar arithmetic.

Amplitude ordering for all 4-vectors is (up-up, up-down, down-up,
down-down); the concurrence of a pure state (a, b, c, d) is 2|ad - bc|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gates import GateBatch, SymmetricGate, lmg_batch
from .gates import lmg_gate  # noqa: F401  (kept as entanglement.lmg_gate; perfbench rebinds it)
from .linalg import InputError, _finite, _grid, is_unitary
from .su3 import U_QUBIT_TO_ANGULAR

_SQ2 = math.sqrt(2.0)

MAX_EP = 2.0 / 9.0
PERFECT_EP = 1.0 / 6.0
CLASSIFY_ATOL = 1e-9

NON_ENTANGLING = "non-entangling"
ENTANGLING = "entangling"
PERFECT_ENTANGLER = "perfect-entangler"
SPECIAL_PERFECT_ENTANGLER = "special-perfect-entangler"

# Maps angular momentum coordinates (|1 1>, |1 0>, |1 -1>, |0 0>) to the
# Bell combinations ((dd + uu)/sqrt2, i(du + ud)/sqrt2, (du - ud)/sqrt2,
# i(dd - uu)/sqrt2), up to harmless sign choices on the last two vectors.
BELL_TRANSFORM = np.array([
    [1 / _SQ2, 0, 1 / _SQ2, 0],
    [0, -1j, 0, 0],
    [0, 0, 0, 1],
    [-1j / _SQ2, 0, 1j / _SQ2, 0],
], dtype=np.complex128)
BELL_TRANSFORM.setflags(write=False)

_QUBIT_TO_BELL = BELL_TRANSFORM @ U_QUBIT_TO_ANGULAR
_BELL_TO_QUBIT = _QUBIT_TO_BELL.conj().T
_G1_UNITARITY_ATOL = 1e-10
# Above this norm, squares of amplitudes that underflow change it by under 1e-23.
_MIN_SAFE_NORM = 1e-150
# |1 0> = (up-down + down-up)/sqrt2: the same factor as in U_QUBIT_TO_ANGULAR
_INV_SQ2 = U_QUBIT_TO_ANGULAR[1, 1].real


def _bell_invariants(u4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr(m) and det(B_bell) of a 4x4 unitary, or of each matrix of a stack."""
    b_bell = _QUBIT_TO_BELL @ u4 @ _BELL_TO_QUBIT
    m = b_bell.swapaxes(-1, -2) @ b_bell
    return np.trace(m, axis1=-2, axis2=-1), np.linalg.det(b_bell)


def _symmetric_invariants(u3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr(m) and det(B_bell) of the symmetric gates of a (..., 3, 3) stack,
    in closed form from the triplet block (see the module docstring)."""
    u00, u01, u02 = u3[..., 0, 0], u3[..., 0, 1], u3[..., 0, 2]
    u10, u11, u12 = u3[..., 1, 0], u3[..., 1, 1], u3[..., 1, 2]
    u20, u21, u22 = u3[..., 2, 0], u3[..., 2, 1], u3[..., 2, 2]
    tr = 1.0 + 2.0 * (u00 * u22 + u02 * u20 - u01 * u21 - u10 * u12) + u11 * u11
    det = (u00 * (u11 * u22 - u12 * u21) - u01 * (u10 * u22 - u12 * u20)
           + u02 * (u10 * u21 - u11 * u20))
    return tr, det


def _g1(tr, det) -> complex:
    """G1 from numpy scalars tr(m) and det(B_bell)."""
    return complex(tr ** 2 / (16.0 * det))


def makhlin_g1(u4, atol: float = _G1_UNITARITY_ATOL) -> complex:
    """Local invariant G1 of a 4x4 unitary in the product basis."""
    u4 = np.asarray(u4, dtype=np.complex128)
    if u4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u4.shape}")
    if not is_unitary(u4, atol=atol):
        _finite("u4", u4)
        raise ValueError(f"matrix is not unitary within {atol:.1e}")
    return _g1(*_bell_invariants(u4))


@dataclass(frozen=True)
class EntanglementReport:
    """G1, entangling power and classification of an analyzed gate."""

    g1: complex
    g1_abs: float
    ep: float
    classification: str
    gate_label: str | None = None
    theta: float | None = None


@dataclass(frozen=True)
class EntanglementBatch:
    """G1, |G1|, e_p and classification of each gate of a stack."""

    g1: np.ndarray
    g1_abs: np.ndarray
    ep: np.ndarray
    classification: tuple[str, ...]


def _classify(ep: float) -> str:
    if ep >= MAX_EP - CLASSIFY_ATOL:
        return SPECIAL_PERFECT_ENTANGLER
    if ep >= PERFECT_EP - CLASSIFY_ATOL:
        return PERFECT_ENTANGLER
    if ep > CLASSIFY_ATOL:
        return ENTANGLING
    return NON_ENTANGLING


def _power(g1: complex) -> tuple[float, float, str]:
    """|G1|, e_p = (2/9)(1 - |G1|) and the class of a gate.

    e_p lies in [0, 2/9]: it cannot exceed 2/9 since |G1| >= 0, and it is
    clamped at 0 because |G1| of a local gate can round a few ulps above 1.
    """
    g1_abs = abs(g1)
    ep = MAX_EP * (1.0 - g1_abs)
    if ep < -1e-12 or ep > MAX_EP + 1e-12:
        raise RuntimeError(f"entangling power {ep} out of range [0, 2/9]")
    if ep < 0.0:
        ep = 0.0
    return g1_abs, ep, _classify(ep)


def entangling_power(u4) -> EntanglementReport:
    """Entangling power e_p = (2/9)(1 - |G1|) and its classification.

    Accepts either a 4x4 product-basis unitary, checked unitary within
    1e-10, or a SymmetricGate, scored from its 3x3 block, which was checked
    unitary when the gate was built.
    """
    label = None
    theta = None
    if isinstance(u4, SymmetricGate):
        label, theta = u4.label, u4.theta
        tr, det = _symmetric_invariants(u4.u3[None])
        g1 = _g1(tr[0], det[0])
    else:
        g1 = makhlin_g1(u4)
    g1_abs, ep, classification = _power(g1)
    return EntanglementReport(g1=g1, g1_abs=g1_abs, ep=ep, classification=classification,
                              gate_label=label, theta=theta)


def entangling_power_batch(u4s) -> EntanglementBatch:
    """`entangling_power` of each gate of a GateBatch or (N, 4, 4) stack.

    Entry by entry equal (==) to the scalar function: a GateBatch to
    `entangling_power` of its gates as SymmetricGates, a stack to
    `entangling_power` of its 4x4 matrices.
    """
    if isinstance(u4s, GateBatch):
        invariants = _symmetric_invariants(u4s.u3)
    else:
        u4s = np.asarray(u4s, dtype=np.complex128)
        if u4s.ndim != 3 or u4s.shape[1:] != (4, 4) or len(u4s) == 0:
            raise ValueError(f"expected a non-empty (N, 4, 4) stack, got shape {u4s.shape}")
        if not is_unitary(u4s, atol=_G1_UNITARITY_ATOL):
            _finite("u4", u4s)
            raise ValueError(f"matrix is not unitary within {_G1_UNITARITY_ATOL:.1e}")
        invariants = _bell_invariants(u4s)
    g1 = [_g1(tr, det) for tr, det in zip(*invariants)]
    g1_abs, ep, classification = zip(*map(_power, g1))
    return EntanglementBatch(g1=np.array(g1), g1_abs=np.array(g1_abs), ep=np.array(ep),
                             classification=classification)


def _pure_concurrence(a, b, c, d) -> float:
    return float(2.0 * abs(a * d - b * c))


def concurrence(psi) -> float:
    """Concurrence 2|ad - bc| of a pure two-qubit state (a, b, c, d).

    Non-normalized input is normalized with a warning; the zero vector
    and non-finite amplitudes are rejected.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape != (4,):
        raise ValueError(f"expected four amplitudes, got shape {psi.shape}")
    norm = math.sqrt(np.vdot(psi, psi).real)
    scale = 1.0
    if not _MIN_SAFE_NORM < norm < math.inf:
        # Zero or non-finite amplitudes, or squares that underflowed or
        # overflowed: the norm of psi / max|amplitude| lies in [1, 2].  The
        # division is done in floats, as a subnormal complex divisor overflows.
        scale = float(np.max(np.abs(psi)))
        if not math.isfinite(scale):
            _finite("psi", psi)
        if scale == 0.0:
            raise ValueError("cannot compute the concurrence of the zero vector")
        psi = psi.real / scale + 1j * (psi.imag / scale)
        norm = math.sqrt(np.vdot(psi, psi).real)
    if abs(scale * norm - 1.0) > 1e-10:
        warnings.warn(f"state norm {scale * norm} deviates from 1; normalizing", stacklevel=2)
        psi = psi / norm
    return _pure_concurrence(psi[0], psi[1], psi[2], psi[3])


@dataclass(frozen=True)
class SeparableSymmetricState:
    """A permutation-symmetric product state of two qubits.

    vec3 holds the symmetric-subspace coordinates (|1 1>, |1 0>, |1 -1>)
    and vec4 the product-basis amplitudes of the same state.
    """

    alpha: float
    phi: float
    vec3: np.ndarray
    vec4: np.ndarray


def separable_state(alpha: float, phi: float = 0.0) -> SeparableSymmetricState:
    """Product state (cos(a/2)|up> + sin(a/2)e^{i phi}|down>)^(x2).

    Angles are wrapped into alpha in [0, pi], phi in [0, 2 pi); wrapping
    changes the spinor only by a global sign, so the two-qubit state is
    unaffected.  Non-finite angles raise InputError.
    """
    two_pi = 2.0 * math.pi

    def _wrap(x: float) -> float:
        # x % 2pi can round up to exactly 2pi for tiny negative x
        out = x % two_pi
        return 0.0 if out >= two_pi else out

    alpha = _wrap(_finite("alpha", alpha))
    phi = _wrap(_finite("phi", phi))
    if alpha > math.pi:
        alpha = two_pi - alpha
        phi = _wrap(phi + math.pi)
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    phase = np.exp(1j * phi)
    spinor = np.array([c, s * phase])
    vec3 = np.array([c * c, _SQ2 * s * c * phase, s * s * phase * phase])
    vec4 = np.multiply.outer(spinor, spinor).reshape(4)
    return SeparableSymmetricState(alpha=alpha, phi=phi, vec3=vec3, vec4=vec4)


def apply_gate(g: SymmetricGate, s: SeparableSymmetricState) -> tuple[np.ndarray, float]:
    """Gate image of a symmetric product state and its concurrence."""
    out = g.u4 @ s.vec4
    return out, concurrence(out)


@dataclass(frozen=True)
class ProductBasis:
    """Orthonormal basis of four two-qubit product states.

    Parametrized by three normalized spinor pairs (a, b), (c, d), (e, f);
    states are rows of `states` in the product-basis amplitude ordering.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    states: np.ndarray


def product_basis(a, b, c, d, e, f) -> ProductBasis:
    """Build the general orthonormal product basis from spinor amplitudes.

    Requires |a|^2+|b|^2 = |c|^2+|d|^2 = |e|^2+|f|^2 = 1 within 1e-12.
    """
    a, b, c, d, e, f = (complex(v) for v in (a, b, c, d, e, f))
    for name, (x, y) in (("(a, b)", (a, b)), ("(c, d)", (c, d)), ("(e, f)", (e, f))):
        if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > 1e-12:
            raise ValueError(f"spinor {name} is not normalized within 1e-12")
    first = np.array([a, b])
    first_perp = np.array([-np.conj(b), np.conj(a)])
    second = np.array([c, d])
    second_perp = np.array([-np.conj(d), np.conj(c)])
    third = np.array([e, f])
    third_perp = np.array([-np.conj(f), np.conj(e)])
    states = np.stack([
        np.kron(first, second),
        np.kron(first_perp, second),
        np.kron(third, second_perp),
        np.kron(third_perp, second_perp),
    ])
    gram = states @ states.conj().T
    if np.max(np.abs(gram - np.eye(4))) > 1e-12:
        raise RuntimeError("constructed product basis is not orthonormal")
    return ProductBasis(a=a, b=b, c=c, d=d, e=e, f=f, states=states)


_SPE_FAMILY_ABCD = ("B4", "B7", "B8")
_SPE_FAMILY_SQUARES = ("B5", "B6")


@dataclass(frozen=True)
class SpeConditionResult:
    """Outcome of a special-perfect-entangler basis check.

    `condition_holds` evaluates the family's algebraic criterion on the
    spinor amplitudes; `concurrences` are measured directly by applying
    the gate to all four basis states.  `consistent` records whether the
    two verdicts agree; disagreement is reported, never patched.
    """

    family: str
    condition_values: tuple[float, ...]
    condition_holds: bool
    concurrences: tuple[float, ...]
    all_maximal: bool

    @property
    def consistent(self) -> bool:
        return self.condition_holds == self.all_maximal


def spe_condition(g: SymmetricGate, basis: ProductBasis) -> SpeConditionResult:
    """Evaluate the maximal-entanglement criterion of a gate family.

    For B4/B7/B8 the criterion is |abcd| = |cdef| = 1/4; for B5/B6 it is
    |(a^2+b^2)(c^2+d^2)| = |(e^2+f^2)(c^2+d^2)| = 1.  The gate must be at
    its special-perfect-entangler parameter (e_p = 2/9).
    """
    if g.label in _SPE_FAMILY_ABCD:
        family = "abcd"
    elif g.label in _SPE_FAMILY_SQUARES:
        family = "squares"
    else:
        raise ValueError(f"gate {g.label} is not in the B4..B8 special-entangler families")
    report = entangling_power(g)
    if abs(report.ep - MAX_EP) > CLASSIFY_ATOL:
        raise ValueError(
            f"gate {g.label} has e_p = {report.ep}, not the special-perfect-entangler value 2/9"
        )
    a, b, c, d, e, f = basis.a, basis.b, basis.c, basis.d, basis.e, basis.f
    if family == "abcd":
        values = (abs(a * b * c * d), abs(c * d * e * f))
        holds = all(abs(v - 0.25) <= 2.5e-11 for v in values)
    else:
        values = (abs((a * a + b * b) * (c * c + d * d)),
                  abs((e * e + f * f) * (c * c + d * d)))
        holds = all(abs(v - 1.0) <= 1e-10 for v in values)
    concs = tuple(concurrence(g.u4 @ psi) for psi in basis.states)
    all_maximal = all(cv >= 1.0 - 1e-10 for cv in concs)
    return SpeConditionResult(family=family, condition_values=values,
                              condition_holds=holds, concurrences=concs,
                              all_maximal=all_maximal)


@dataclass(frozen=True)
class LmgProfilePoint:
    t: float
    ep: float
    concurrence: float


def _up_up_concurrences(u3: np.ndarray) -> np.ndarray:
    """Concurrence of u4 |up up> = (u00, u10/sqrt2, u10/sqrt2, u20) for each
    gate of a (N, 3, 3) stack, as |up up> = |1 1>; columns of gates unitary
    within 1e-12 need no renormalization."""
    a, b, d = u3[:, 0, 0], u3[:, 1, 0] * _INV_SQ2, u3[:, 2, 0]
    return np.fromiter(map(_pure_concurrence, a, b, b, d), np.float64, len(u3))


def _lmg_profile_columns(g1: float, g2: float, t_grid):
    """Columns t, e_p and |up up>-image concurrence of an LMG time series,
    computed as one stack."""
    t_grid = _grid("t_grid", t_grid)
    if np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be strictly ascending")
    g = lmg_batch(g1, g2, t_grid)
    return t_grid, entangling_power_batch(g).ep, _up_up_concurrences(g.u3)


def lmg_entanglement_profile(g1: float, g2: float, t_grid) -> list[LmgProfilePoint]:
    """Entangling power and |up up>-image concurrence over a time grid.

    The concurrence of the evolved |up up> state equals |sin(4 g1 t)|:
    zero at t = n pi / (4 g1) and maximal when 4 g1 t is an odd multiple
    of pi/2.  The entangling power reaches 2/9 whenever 2 g2 t - 2 g1 t
    is congruent to pi/2 modulo pi.
    """
    columns = _lmg_profile_columns(g1, g2, t_grid)
    return [LmgProfilePoint(t=t, ep=ep, concurrence=c)
            for t, ep, c in zip(*(column.tolist() for column in columns))]


def kron_factor_2x2(u4) -> tuple[np.ndarray, np.ndarray, float]:
    """Best factorization of a 4x4 matrix as v (x) w with 2x2 factors.

    Returns (v, w, residual) where the residual is the second singular
    value of the rearranged matrix: zero exactly when u4 is a tensor
    product, i.e. a local (non-entangling) gate.
    """
    u4 = np.asarray(u4, dtype=np.complex128)
    if u4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u4.shape}")
    rearranged = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    left, sing, right = np.linalg.svd(rearranged)
    scale = math.sqrt(sing[0])
    v = scale * left[:, 0].reshape(2, 2)
    w = scale * right[0, :].reshape(2, 2)
    return v, w, float(sing[1])
