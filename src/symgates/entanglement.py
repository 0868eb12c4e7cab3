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
a (..., 3, 3) stack for `entangling_power_batch` of a GateBatch, and
`_gate_invariants` evaluates them for `entangling_power` of one
SymmetricGate: its eleven products in one numpy array multiply over the
gathered entries of u3, the row-0 terms of det in a second, the sums in
Python.  Both take every complex product from numpy's array multiply
kernel, with its factors in the same order, and sums are exactly rounded
either way, so a gate scores the same (==) alone or in a grid.  (With FMA
the imaginary part of a product depends on the order of its factors, and
Python's own complex product can differ from numpy's array kernel.)  A
general 4x4 unitary, or an (N, 4, 4) stack, goes through the Bell
transform, trace and determinant of `_bell_invariants` instead, once
checked unitary within 1e-10.  The last step (G1 from tr(m) and det, then
|G1|, e_p and the class) is `_g1` and `_power` on numpy scalars for one
gate and `_power_batch`, elementwise over real arrays, for a stack.  Both
round alike: for tr(m) = a + ib, numpy's scalar tr**2 is the complex
product (a a - b b) + i (a b + b a), which `_power_batch` writes out in
real arithmetic (2 a b would round apart where a b is subnormal), and
Python's abs of a complex number is the hypot that `_power_batch` calls;
numpy's array kernels for complex multiply and abs are not used in this
step, as they may round differently.  Hypothesis tests in
tests/test_batch.py pin the two forms equal (==) on the B_k and LMG grids
and on Haar-random 3x3 unitaries.

The same S gives the concurrence of a symmetric gate's image without the
4x4 matrix: a product-basis state with triplet coordinates t and singlet
coordinate s has |psi^T (sigma_y x sigma_y) psi| = |t^T S t + s^2|, and
the gate maps (t, s) to (u3 t, s).  `spe_condition` evaluates that form
for every gate, whatever its label.  `apply_gate` embeds u3 @ vec3, a
unit vector, and takes its 2|ad - bc| without `concurrence`'s checks.

The series of `symgates sweep` and `symgates lmg --t-max` build no gate:
each is its family's law.  With m's eigenphases l_i, 1 - |G1| =
(1/4) sum_{i<j} sin^2((l_i - l_j)/2) (Makhlin, QIP 1, 243 (2002); Zhang,
Vala, Sastry & Whaley, PRA 67, 042313 (2003)), so e_p is a sum of
non-negative terms and nothing cancels.  c + i s below is numpy's complex
exp of the float angle (libm's bits, as in `gates`):
- B1..B3 are local: |G1| = 1 and e_p = 0.
- B4..B7 (phases +-2 theta, 0, 0), at c + i s = exp(i theta):
  |G1| = (c^2)^2 and e_p = (2/9)(1 + c^2) s^2.
- B8 (phases -4 phi, 0, 2 phi, 2 phi, phi = theta/sqrt3 rounded as `gates`
  rounds it), at c + i s = exp(i phi) and C + i S = exp(2i phi):
  |G1| = (c cos 3phi)^2 + (S C)^2 and e_p = (S^2 + 2 sin^2 3phi + 2 s^2)/18,
  with cos 3phi = C c - S s and sin 3phi = S c + C s.  Taking C and S from
  2 phi, which is exact, rather than from c and s keeps |G1| within
  4 * 2^-52 of its exact value at the float angle.
- LMG (`lmg_entanglement_profile`, the rows t, e_p, |up up> concurrence;
  phases +-2 xi, +-2 phi at xi = 2 g1 t, phi = 2 g2 t): |G1| =
  ((cos 2 xi + cos 2 phi)/2)^2, e_p = (2/9)(s_xi^2 + s_phi^2)(c_xi^2 +
  c_phi^2) and the concurrence |sin 2 xi| = 2|s_xi c_xi|.
Each is a few ulps from the exact value at the float angles (e_p may
round a few ulps above 2/9), and after the exp takes only IEEE multiply,
add, divide and abs, so the bytes are the same on every numpy kernel set.
`entangling_power` of a `gate` or `lmg_gate` scores its u3, so its values
can differ from the series row in the last digit.  The law kernels,
`_sweep_into` and `_lmg_profile_into`, check the whole grid once (by the
rules of `gates`), then walk it in runs of one (2, rows) complex phase
buffer that the caller hands over: the CLI's workspace, so that a series
block allocates only its new columns, or none, for one run over the grid.

Amplitude ordering for all 4-vectors is (up-up, up-down, down-up,
down-down); the concurrence of a pure state (a, b, c, d) is 2|ad - bc|.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gates import _SQ3, GateBatch, SymmetricGate, _gate_grid, _lmg_grid
from .linalg import InputError, _finite, _matrix, _require, is_unitary
from .su3 import U_QUBIT_TO_ANGULAR

_SQ2 = math.sqrt(2.0)

MAX_EP = 2.0 / 9.0
PERFECT_EP = 1.0 / 6.0
CLASSIFY_ATOL = 1e-9

NON_ENTANGLING = "non-entangling"
ENTANGLING = "entangling"
PERFECT_ENTANGLER = "perfect-entangler"
SPECIAL_PERFECT_ENTANGLER = "special-perfect-entangler"
CLASSES = (NON_ENTANGLING, ENTANGLING, PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER)

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
# Triplet coordinates to product-basis amplitudes; rows 1 and 2 are equal.
_TRIPLET_TO_QUBIT = np.ascontiguousarray(U_QUBIT_TO_ANGULAR[:3].conj().T)
_S = np.fliplr(np.diag([1.0, -1.0, 1.0]))  # W^T W, module docstring
_BELL_TO_QUBIT = _QUBIT_TO_BELL.conj().T
# Above this norm, squares of amplitudes that underflow change it by under 1e-23.
_MIN_SAFE_NORM = 1e-150


def _bell_invariants(u4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr(m) and det(B_bell) of a 4x4 unitary, or of each matrix of a stack."""
    b_bell = _QUBIT_TO_BELL @ u4 @ _BELL_TO_QUBIT
    m = b_bell.swapaxes(-1, -2) @ b_bell
    return np.trace(m, axis1=-2, axis2=-1), np.linalg.det(b_bell)


def _symmetric_invariants(u3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tr(m) and det(B_bell) of the symmetric gates of a (..., 3, 3) stack,
    in closed form from the triplet block (see the module docstring)."""
    tr, det, c, x = np.empty((4, *u3.shape[:-2]), np.complex128)
    u00, u01, u02 = u3[..., 0, 0], u3[..., 0, 1], u3[..., 0, 2]
    u10, u11, u12 = u3[..., 1, 0], u3[..., 1, 1], u3[..., 1, 2]
    u20, u21, u22 = u3[..., 2, 0], u3[..., 2, 1], u3[..., 2, 2]
    # Each product's factors are in the order `_gate_invariants` takes them
    # (module docstring), and each product is written into an array that is
    # neither of its factors: numpy multiplies an unnamed temporary of at
    # least 256 KiB in place, with its factors swapped, and takes a loop
    # without FMA when a one-entry factor is also the output.
    # tr = 1 + 2 (u00 u22 + u02 u20 - u01 u21 - u10 u12) + u11 u11
    np.multiply(u00, u22, out=c)
    c += np.multiply(u02, u20, out=x)
    c -= np.multiply(u01, u21, out=x)
    c -= np.multiply(u10, u12, out=x)
    np.multiply(2.0, c, out=tr)
    tr += 1.0
    tr += np.multiply(u11, u11, out=x)
    # det = u00 c0 - u01 c1 + u02 c2, each cofactor formed in c
    np.multiply(u11, u22, out=c)
    c -= np.multiply(u12, u21, out=x)
    np.multiply(u00, c, out=det)
    np.multiply(u10, u22, out=c)
    c -= np.multiply(u12, u20, out=x)
    det -= np.multiply(u01, c, out=x)
    np.multiply(u10, u21, out=c)
    c -= np.multiply(u11, u20, out=x)
    det += np.multiply(u02, c, out=x)
    return tr, det


# Flat indices of the nine entries u_rc = u3.reshape(9)[3 r + c]: the five
# products of tr(m), then the six of the cofactors of row 0, in the order
# in which `_symmetric_invariants` multiplies them.
_PRODUCT_LEFT = np.array([0, 2, 1, 3, 4, 4, 5, 3, 5, 3, 4])
_PRODUCT_RIGHT = np.array([8, 6, 7, 5, 4, 8, 7, 8, 6, 7, 6])


def _gate_invariants(u3: np.ndarray) -> tuple[np.complex128, np.complex128]:
    """`_symmetric_invariants` of one 3x3 block, equal to it (==): every
    product is taken by the same numpy array multiply, the additions and
    subtractions, exactly rounded either way, in Python in the same order."""
    flat = u3.reshape(9)
    products = flat[_PRODUCT_LEFT] * flat[_PRODUCT_RIGHT]
    p0, p1, p2, p3, p4 = products[:5].tolist()
    x0, x1, x2 = (flat[:3] * (products[5::2] - products[6::2])).tolist()
    return (np.complex128(1.0 + 2.0 * (p0 + p1 - p2 - p3) + p4),
            np.complex128(x0 - x1 + x2))


def _g1(tr, det) -> complex:
    """G1 from numpy scalars tr(m) and det(B_bell)."""
    return complex(tr ** 2 / (16.0 * det))


def makhlin_g1(u4) -> complex:
    """Local invariant G1 of a 4x4 product-basis unitary (checked within 1e-10)."""
    u4 = _matrix("u4", u4, 4)
    _require(is_unitary(u4, atol=1e-10), "matrix is not unitary within 1.0e-10", "u4", u4)
    return _g1(*_bell_invariants(u4))


@dataclass(frozen=True)
class EntanglementReport:
    """G1, entangling power and classification of an analyzed gate."""

    g1: complex
    g1_abs: float
    ep: float
    classification: str


@dataclass(frozen=True, eq=False)
class EntanglementBatch:
    """G1, |G1|, e_p and class of each gate of a stack: `level` holds the
    class as its index into CLASSES, `classification` (built on first read)
    as its label."""

    g1: np.ndarray
    g1_abs: np.ndarray
    ep: np.ndarray
    level: np.ndarray

    @functools.cached_property
    def classification(self) -> tuple[str, ...]:
        return tuple(map(CLASSES.__getitem__, self.level.tolist()))


def _level(ep):
    """The class of e_p, a float or each entry of an array, as its index into
    CLASSES: the number of the three nested thresholds that e_p reaches."""
    # `* 1` counts in integers: numpy adds two bool arrays as a logical or
    return ((ep > CLASSIFY_ATOL) * 1 + (ep >= PERFECT_EP - CLASSIFY_ATOL)
            + (ep >= MAX_EP - CLASSIFY_ATOL))


def _power(g1: complex) -> tuple[float, float, str]:
    """|G1|, e_p = (2/9)(1 - |G1|) and the class of a gate.

    e_p lies in [0, 2/9]: it cannot exceed 2/9 since |G1| >= 0, and it is
    clamped at 0 because |G1| of a local gate can round a few ulps above 1.
    """
    g1_abs = abs(g1)
    ep = MAX_EP * (1.0 - g1_abs)
    if not -1e-12 <= ep <= MAX_EP + 1e-12:  # NaN fails too
        raise RuntimeError(f"entangling power {ep} out of range [0, 2/9]")
    ep = max(ep, 0.0)
    return g1_abs, ep, CLASSES[_level(ep)]


def _power_batch(tr: np.ndarray, det: np.ndarray) -> EntanglementBatch:
    """`_g1` and `_power` of each entry of the stacks tr(m) and det(B_bell),
    elementwise, rounded as the scalar helpers round (module docstring)."""
    a, b = tr.real, tr.imag
    g1 = ((a * a - b * b) + 1j * (a * b + b * a)) / (16.0 * det)
    g1_abs = np.hypot(g1.real, g1.imag)
    ep = (1.0 - g1_abs) * MAX_EP
    bad = np.flatnonzero(~((ep >= -1e-12) & (ep <= MAX_EP + 1e-12)))  # NaN fails too
    if bad.size:
        raise RuntimeError(f"entangling power {float(ep[bad[0]])} out of range [0, 2/9]")
    ep[ep < 0.0] = 0.0
    return EntanglementBatch(g1=g1, g1_abs=g1_abs, ep=ep, level=_level(ep))


def entangling_power(u4) -> EntanglementReport:
    """Entangling power e_p = (2/9)(1 - |G1|) and its classification.

    Accepts either a 4x4 product-basis unitary, checked unitary within
    1e-10, or a SymmetricGate, scored from its 3x3 block: a closed form, or
    a matrix that `custom_gate` checked unitary.
    """
    if isinstance(u4, SymmetricGate):
        g1 = _g1(*_gate_invariants(u4.u3))
    else:
        g1 = makhlin_g1(u4)
    g1_abs, ep, classification = _power(g1)
    return EntanglementReport(g1=g1, g1_abs=g1_abs, ep=ep, classification=classification)


def entangling_power_batch(u4s) -> EntanglementBatch:
    """`entangling_power` of each gate of a GateBatch or of a stack of 4x4
    matrices, (N, 4, 4) or any (..., 4, 4) read in C order.

    Entry by entry equal (==) to the scalar function: a GateBatch to
    `entangling_power` of its gates as SymmetricGates, a stack to
    `entangling_power` of its 4x4 matrices.
    """
    if isinstance(u4s, GateBatch):
        return _power_batch(*_symmetric_invariants(u4s.u3))
    u4s = _matrix("u4", u4s, 4, stack=True).reshape(-1, 4, 4)
    _require(is_unitary(u4s, atol=1e-10), "matrix is not unitary within 1.0e-10", "u4", u4s)
    return _power_batch(*_bell_invariants(u4s))


def _pure_concurrence(a, b, c, d) -> float:
    return float(2.0 * abs(a * d - b * c))


def concurrence(psi) -> float:
    """Concurrence 2|ad - bc| of a pure two-qubit state (a, b, c, d).

    Non-normalized input is normalized with a warning; InputError names
    `psi` if it does not hold four amplitudes, is zero or is not finite.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.size != 4:
        raise InputError(f"psi must be a state of four amplitudes, got shape {psi.shape}")
    psi = psi.reshape(-1)
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
            raise InputError("psi must be nonzero, got the zero vector")
        psi = psi.real / scale + 1j * (psi.imag / scale)
        norm = math.sqrt(np.vdot(psi, psi).real)
    if abs(scale * norm - 1.0) > 1e-10:
        warnings.warn(f"state norm {scale * norm} deviates from 1; normalizing", stacklevel=2)
        psi = psi / norm
    return _pure_concurrence(psi[0], psi[1], psi[2], psi[3])


@dataclass(frozen=True, eq=False)
class SeparableSymmetricState:
    """A permutation-symmetric product state of two qubits.

    vec3 holds the symmetric-subspace coordinates (|1 1>, |1 0>, |1 -1>),
    and vec4, built from alpha and phi on first access, the product-basis
    amplitudes of the same state.
    """

    alpha: float
    phi: float
    vec3: np.ndarray

    @functools.cached_property
    def vec4(self) -> np.ndarray:
        # the spinor as `separable_state` computes its factors, bit for bit
        spinor = np.array([math.cos(self.alpha / 2),
                           math.sin(self.alpha / 2) * np.exp(1j * self.phi)])
        return np.multiply.outer(spinor, spinor).reshape(4)


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
    vec3 = np.array([c * c, _SQ2 * s * c * phase, s * s * phase * phase])
    return SeparableSymmetricState(alpha=alpha, phi=phi, vec3=vec3)


def apply_gate(g: SymmetricGate, s: SeparableSymmetricState) -> tuple[np.ndarray, float]:
    """Gate image of a symmetric product state, u3 @ vec3 embedded (so its
    up-down and down-up amplitudes are equal, ==), and its concurrence,
    2|ad - bc| of a unit vector that `concurrence` need not check again."""
    out = _TRIPLET_TO_QUBIT @ (g.u3 @ s.vec3)
    return out, _pure_concurrence(*out)


@dataclass(frozen=True, eq=False)
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

    Requires |a|^2+|b|^2 = |c|^2+|d|^2 = |e|^2+|f|^2 = 1 within 1e-12.  The
    states are Kronecker products of a spinor (x, y) or its orthogonal
    partner (-conj y, conj x), so they are orthonormal by construction.
    """
    a, b, c, d, e, f = (complex(v) for v in (a, b, c, d, e, f))
    for name, (x, y) in (("(a, b)", (a, b)), ("(c, d)", (c, d)), ("(e, f)", (e, f))):
        norm = math.hypot(x.real, x.imag, y.real, y.imag)  # inf, not OverflowError, if too large
        _require(abs(norm * norm - 1.0) <= 1e-12,
                 f"spinor {name} is not normalized within 1e-12", f"spinor {name}", (x, y))
    # each spinor (x, y) and its orthogonal partner (-conj y, conj x)
    (first, first_perp), (second, second_perp), (third, third_perp) = (
        (np.array([x, y]), np.array([-np.conj(y), np.conj(x)])) for x, y in ((a, b), (c, d), (e, f)))
    states = np.stack([
        np.kron(first, second),
        np.kron(first_perp, second),
        np.kron(third, second_perp),
        np.kron(third_perp, second_perp),
    ])
    return ProductBasis(a=a, b=b, c=c, d=d, e=e, f=f, states=states)


@dataclass(frozen=True)
class SpeConditionResult:
    """Outcome of a special-perfect-entangler basis check: the concurrences
    of the four basis-state images, derived from u3 (`condition_values`,
    all maximal if `condition_holds`) and measured through u4
    (`concurrences`, `all_maximal`).  `consistent` records whether the two
    verdicts agree; disagreement is reported, never patched."""

    condition_values: tuple[float, ...]
    condition_holds: bool
    concurrences: tuple[float, ...]
    all_maximal: bool

    @property
    def consistent(self) -> bool:
        return self.condition_holds == self.all_maximal


def spe_condition(g: SymmetricGate, basis: ProductBasis) -> SpeConditionResult:
    """Check that a special perfect entangler g (e_p = 2/9, else InputError
    naming `g`) maps each state of a product basis to a maximally entangled one.

    The condition values are C(U psi) = |t^T (u3^T S u3) t + s^2| for each
    basis state psi with triplet coordinates t and singlet coordinate s
    (module docstring): one form for every gate, whatever its label.
    """
    report = entangling_power(g)
    if report.classification != SPECIAL_PERFECT_ENTANGLER:
        raise InputError(f"g must be a special perfect entangler (e_p = 2/9), "
                         f"got gate {g.label} with e_p = {report.ep}")
    coords = basis.states @ U_QUBIT_TO_ANGULAR.T  # row n: (t, s) of state n
    t, s = coords[:, :3], coords[:, 3]
    form = g.u3.T @ _S @ g.u3
    values = tuple(np.abs(((t @ form) * t).sum(axis=1) + s * s).tolist())
    concs = tuple(concurrence(g.u4 @ psi) for psi in basis.states)
    return SpeConditionResult(condition_values=values,
                              condition_holds=all(v >= 1.0 - 1e-10 for v in values),
                              concurrences=concs,
                              all_maximal=all(cv >= 1.0 - 1e-10 for cv in concs))


def _runs(grid: np.ndarray, phases: np.ndarray | None):
    """(points, phase rows) for each run of a checked grid: runs of as many
    points as `phases`, a (2, rows) complex buffer, has columns, each with
    the first columns of `phases`; or, if `phases` is None, one run with
    new rows of the grid's size."""
    phases = np.empty((2, grid.size), np.complex128) if phases is None else phases
    for start in range(0, grid.size, phases.shape[1]):
        points = grid[start:start + phases.shape[1]]
        yield points, phases[:, :points.size]


def _cis(rows: np.ndarray, weights: tuple, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of w * angle for each weight w, one row per weight, from
    the complex exp written over the first rows of `rows`."""
    rows = rows[:len(weights)]
    rows.real = 0.0
    np.multiply.outer(weights, angles, out=rows.imag)
    np.exp(rows, out=rows)
    return rows.real, rows.imag


def _sweep_into(k: int, thetas, phases: np.ndarray | None = None):
    """The runs (theta, |G1|, e_p, class level) of a B_k sweep by its family
    law (module docstring), once `gates._gate_grid` has checked k and the
    grid, in the phase rows of `phases` (`_runs`).  theta is a view of the
    grid; |G1|, e_p and the levels are new arrays."""
    k, thetas = _gate_grid(k, thetas)
    for theta, rows in _runs(thetas, phases):
        if k <= 3:
            g1_abs, ep = np.ones(theta.size), np.zeros(theta.size)
        elif k <= 7:
            (c,), (s,) = _cis(rows, (1.0,), theta)
            c2 = c * c
            g1_abs, ep = c2 * c2, (c2 + 1.0) * (s * s) * MAX_EP
        else:
            (c, C), (s, S) = _cis(rows, (1.0, 2.0), theta / _SQ3)
            cos3, sin3 = C * c - S * s, S * c + C * s
            x, y = c * cos3, S * C
            g1_abs = x * x + y * y
            ep = (S * S + 2.0 * (sin3 * sin3) + 2.0 * (s * s)) / 18.0
        yield theta, g1_abs, ep, _level(ep)


def lmg_entanglement_profile(g1: float, g2: float,
                             t_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns t, e_p and |up up>-image concurrence of an LMG time series,
    as float arrays, from the family law of the module docstring.

    The concurrence of the evolved |up up> state equals |sin(4 g1 t)|:
    zero at t = n pi / (4 g1) and maximal when 4 g1 t is an odd multiple
    of pi/2.  |G1| = ((cos 4 g1 t + cos 4 g2 t)/2)^2, so the entangling
    power reaches 2/9 whenever 2 g2 t - 2 g1 t or 2 g2 t + 2 g1 t is
    congruent to pi/2 modulo pi.
    """
    (run,) = _lmg_profile_into(g1, g2, t_grid)
    return run


def _lmg_profile_into(g1: float, g2: float, t_grid, phases: np.ndarray | None = None):
    """The runs (t, e_p, concurrence) of `lmg_entanglement_profile`, by the
    family law (module docstring), once `gates._lmg_grid` has checked the
    couplings and the grid, in the phase rows of `phases` (`_runs`).  t is
    a view of the grid; e_p and concurrence are new arrays."""
    g1, g2, t_grid = _lmg_grid(g1, g2, t_grid, "t_grid")
    for t, rows in _runs(t_grid, phases):
        (c_xi, c_phi), (s_xi, s_phi) = _cis(rows, (2.0 * g1, 2.0 * g2), t)
        ep = (s_xi * s_xi + s_phi * s_phi) * (c_xi * c_xi + c_phi * c_phi) * MAX_EP
        yield t, ep, 2.0 * np.abs(s_xi * c_xi)
