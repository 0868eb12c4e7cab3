"""Irreducible spherical tensor operators for spin j <= 5/2.

The rank-k tensor operators tau^k_q are built from Clebsch-Gordan
coefficients,

    <j m' | tau^k_q | j m> = sqrt(2k + 1) * C(j m; k q | j m'),

with Condon-Shortley phases, which fixes the normalization

    Tr(tau^k_q^dagger tau^k'_q') = (2j + 1) delta_kk' delta_qq'

and the adjoint symmetry tau^k_q^dagger = (-1)^q tau^k_{-q}.  From these
an orthonormal Hermitian basis is assembled: for q >= 1 the combinations
(tau + tau^dagger) and i(tau - tau^dagger) scaled by 1/sqrt(2(2j+1)),
and for q = 0 the diagonal tau^k_0 / sqrt(2j+1).

Matrices are laid out in the |j m> basis with m descending from +j to
-j, so index i corresponds to m = j - i.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import (InputError, _bounded, _finite, _flat_basis, _FlatBasis, _hermitian,
                     _hermiticity, _index, _matrix)

MAX_TWO_J = 5

SPHERICAL = "spherical"
PLUS = "plus"
MINUS = "minus"
ZERO = "zero"


def _as_two(value, name: str) -> int:
    """Return 2*value as an exact integer; InputError naming `name` for a
    value that is not a half-integer."""
    doubled = 2 * _bounded(f"2*{name}", _finite(name, float(value)), 2)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise InputError(f"{name} = {value} is not a half-integer")
    return int(rounded)


# 2j of each supported spin, looked up before the general parse
_TWO_J = {two_j / 2: two_j for two_j in range(MAX_TWO_J + 1)}


def _as_two_j(j) -> int:
    try:
        return _TWO_J[j]
    except (KeyError, TypeError):  # another number, or an unhashable one such as an array
        pass
    two_j = _as_two(j, "j")
    if two_j < 0:
        raise InputError(f"j must be non-negative, got {j}")
    if two_j > MAX_TWO_J:
        raise InputError(f"j = {j} exceeds the supported maximum j = {MAX_TWO_J / 2}")
    return two_j


def _fact_half(two_n: int) -> float:
    """Factorial of two_n/2, requiring two_n to be an even non-negative int."""
    if two_n < 0 or two_n % 2:
        raise ValueError(f"factorial argument {two_n / 2} is not a non-negative integer")
    return float(math.factorial(two_n // 2))


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j3 m3> (Condon-Shortley).

    Returns 0 when m1 + m2 != m3 or the triangle rule fails; raises on
    invalid quantum numbers such as |m| > j or non-half-integer inputs.
    """
    tj1, tm1 = _as_two(j1, "j1"), _as_two(m1, "m1")
    tj2, tm2 = _as_two(j2, "j2"), _as_two(m2, "m2")
    tj3, tm3 = _as_two(j3, "j3"), _as_two(m3, "m3")
    for tj, tm, jn, mn in ((tj1, tm1, "j1", "m1"), (tj2, tm2, "j2", "m2"), (tj3, tm3, "j3", "m3")):
        if tj < 0:
            raise ValueError(f"{jn} must be non-negative")
        if abs(tm) > tj:
            raise ValueError(f"|{mn}| > {jn} is not a valid quantum-number combination")
        if (tj + tm) % 2:
            raise ValueError(f"{mn} must differ from {jn} by an integer")

    if tm1 + tm2 != tm3:
        return 0.0
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2 or (tj1 + tj2 + tj3) % 2:
        return 0.0

    prefactor = math.sqrt(
        (tj3 + 1)
        * _fact_half(tj1 + tj2 - tj3)
        * _fact_half(tj1 - tj2 + tj3)
        * _fact_half(-tj1 + tj2 + tj3)
        / _fact_half(tj1 + tj2 + tj3 + 2)
        * _fact_half(tj1 + tm1)
        * _fact_half(tj1 - tm1)
        * _fact_half(tj2 + tm2)
        * _fact_half(tj2 - tm2)
        * _fact_half(tj3 + tm3)
        * _fact_half(tj3 - tm3)
    )

    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 + tm2 - tj3) // 2)
    k_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        sign = -1.0 if k % 2 else 1.0
        total += sign / (
            math.factorial(k)
            * _fact_half(tj1 + tj2 - tj3 - 2 * k)
            * _fact_half(tj1 - tm1 - 2 * k)
            * _fact_half(tj2 + tm2 - 2 * k)
            * _fact_half(tj3 - tj2 + tm1 + 2 * k)
            * _fact_half(tj3 - tj1 - tm2 + 2 * k)
        )
    return prefactor * total


@dataclass(frozen=True, eq=False)
class SpinMatrices:
    """Angular momentum matrices for a single spin (m descending)."""

    j: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


@lru_cache(maxsize=None)
def _spin_matrices(two_j: int) -> SpinMatrices:
    j = two_j / 2
    dim = two_j + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(np.complex128)
    jplus = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(1, dim):
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
        jplus[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    for a in (jz, jplus, jminus, jx, jy):
        a.setflags(write=False)
    return SpinMatrices(j=j, x=jx, y=jy, z=jz, plus=jplus, minus=jminus)


def angular_momentum_matrices(j) -> SpinMatrices:
    """J_x, J_y, J_z and the ladder operators for spin j <= 5/2."""
    return _spin_matrices(_as_two_j(j))


@dataclass(frozen=True, eq=False)
class TensorOperator:
    """A tagged tensor-operator matrix of dimension 2j+1."""

    j: float
    k: int
    q: int
    component: str
    matrix: np.ndarray


@lru_cache(maxsize=None)
def _tau_matrix(two_j: int, k: int, q: int) -> np.ndarray:
    j = two_j / 2
    dim = two_j + 1
    scale = math.sqrt(2 * k + 1)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        two_m = two_j - 2 * col
        two_mp = two_m + 2 * q
        if abs(two_mp) > two_j:
            continue
        row = (two_j - two_mp) // 2
        mat[row, col] = scale * clebsch_gordan(j, two_m / 2, k, q, j, two_mp / 2)
    mat.setflags(write=False)
    return mat


def tau(j, k: int, q: int) -> TensorOperator:
    """Spherical tensor operator tau^k_q for spin j.

    Requires 0 <= k <= 2j and |q| <= k.
    """
    two_j = _as_two_j(j)
    k = _index("rank k", k, 0, two_j)
    q = _index("projection q", q, -k, k)
    return TensorOperator(j=two_j / 2, k=k, q=q, component=SPHERICAL,
                          matrix=_tau_matrix(two_j, k, q).copy())


def spherical_basis(j) -> list[TensorOperator]:
    """All tau^k_q for k = 0..2j, q = -k..k."""
    two_j = _as_two_j(j)
    return [tau(two_j / 2, k, q) for k in range(two_j + 1) for q in range(-k, k + 1)]


def hermitian_basis(j) -> list[TensorOperator]:
    """Orthonormal Hermitian basis of (2j+1)^2 matrices built from tau^k_q.

    Ordered by rank: the diagonal q = 0 member first, then for q = 1..k
    the symmetric ('plus') and antisymmetric ('minus') combinations.
    All members are traceless except the k = 0 one, and they satisfy
    Tr(T_a T_b) = delta_ab.
    """
    two_j = _as_two_j(j)
    j_val = two_j / 2
    norm_zero = math.sqrt(two_j + 1)
    norm_pm = math.sqrt(2 * (two_j + 1))
    out: list[TensorOperator] = []
    for k in range(two_j + 1):
        t0 = _tau_matrix(two_j, k, 0)
        out.append(TensorOperator(j_val, k, 0, ZERO, t0 / norm_zero))
        for q in range(1, k + 1):
            tq = _tau_matrix(two_j, k, q)
            out.append(TensorOperator(j_val, k, q, PLUS, (tq + tq.conj().T) / norm_pm))
            out.append(TensorOperator(j_val, k, q, MINUS, 1j * (tq - tq.conj().T) / norm_pm))
    return out


@dataclass(frozen=True, init=False, eq=False)
class TensorParams:
    """Expansion coefficients h^k_q of a Hermitian operator, stored once as
    the read-only `vector` in the spin's (k, q) order (k = 0..2j, q = -k..k).

    `TensorParams(j, coeffs)` checks each entry once: a key (k, q) with
    0 <= k <= 2j, |q| <= k and its partner (k, -q) given too (a missing
    pair counts as 0), and a finite Python or numpy number (np.bool_
    included), converted to a Python complex; any other value, a str
    included, raises InputError naming coeffs[(k, q)].  Then one check
    holds the pair rule conj(h^k_q) = (-1)^q h^k_{-q} of a Hermitian
    operator to the tolerance of `linalg.is_hermitian`, naming the first
    failing key in (k, q) order, and every instance meets it exactly (==),
    as it stores the projection of `_of_vector` for a pair that does not.
    `coeffs` is a read-only view of every (k, q), built on first read, and
    equality compares j and `vector`.
    """

    j: float
    vector: np.ndarray = field(repr=False, compare=False)  # compared by __eq__

    def __init__(self, j: float, coeffs: Mapping[tuple[int, int], complex]) -> None:
        two_j = _as_two_j(j)
        basis = _spin_basis(two_j)
        vector = np.zeros(len(basis.keys), dtype=np.complex128)
        for (k, q), h in coeffs.items():
            if (k, q) not in basis.index:
                raise ValueError(f"no tensor operator (k={k}, q={q}) for j = {two_j / 2}")
            if (k, -q) not in coeffs:
                raise ValueError(f"missing partner coefficient for (k={k}, q={-q})")
            vector[basis.index[(k, q)]] = _coefficient((k, q), h)
        partner = vector[basis.partner]
        d, _, atol = _hermiticity(vector.conj(), 2.0 * basis.half_sign * partner)
        bad = np.flatnonzero(~(d <= atol))  # in (k, q) order
        if bad.size:
            (k, q), h, p = basis.keys[bad[0]], complex(vector[bad[0]]), complex(partner[bad[0]])
            raise ValueError(f"coefficients violate Hermiticity at (k={k}, q={q}): "
                             f"conj(h) = {h.conjugate()}, (-1)^q h(-q) = {-p if q % 2 else p}")
        # a pair that meets the rule is kept as given: the projection halves
        # before it adds, which drops the last bit of an odd subnormal
        self._freeze(two_j, np.where(d == 0.0, vector, self._of_vector(two_j, vector).vector))

    @classmethod
    def _of_vector(cls, two_j: int, vector: np.ndarray) -> TensorParams:
        """The parameters of a finite complex vector in the spin's key order,
        as `decompose` and `rotate_params` compute it, projected onto the
        pair rule: h^k_q becomes (h^k_q + (-1)^q conj(h^k_{-q})) / 2, halved
        before the sum so that it stays finite.  Then conj(h^k_q) and
        (-1)^q h^k_{-q} are the same two halves added in the other order,
        so they are equal (==), and h^k_0 is real."""
        basis = _spin_basis(two_j)
        params = object.__new__(cls)
        params._freeze(two_j, 0.5 * vector + basis.half_sign * vector[basis.partner].conj())
        return params

    def _freeze(self, two_j: int, vector: np.ndarray) -> None:
        vector.setflags(write=False)
        object.__setattr__(self, "j", two_j / 2)
        object.__setattr__(self, "vector", vector)

    @cached_property
    def coeffs(self) -> Mapping[tuple[int, int], complex]:
        """Every (k, q) of the spin with its coefficient, a Python complex."""
        keys = _spin_basis(_as_two_j(self.j)).keys
        return MappingProxyType(dict(zip(keys, self.vector.tolist())))

    def __getstate__(self) -> dict:
        # the stored form, for pickle and copy: a mappingproxy does not pickle
        return {"j": self.j, "vector": self.vector}

    def __setstate__(self, state: dict) -> None:
        # an unpickled or deep-copied array comes back writable
        self._freeze(round(2 * state["j"]), state["vector"])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.j == other.j and np.array_equal(self.vector, other.vector)

    def rank_coefficients(self, k: int) -> np.ndarray:
        """Coefficients of rank k ordered by q descending from +k to -k, a
        read-only view of `vector`; InputError unless k is an integer in 0..2j."""
        k = _index("rank k", k, 0, _as_two_j(self.j))
        return self.vector[k * k:(k + 1) ** 2][::-1]


def _coefficient(key, h) -> complex:
    """The coefficient h of `key` as a finite Python complex number."""
    if not isinstance(h, (numbers.Number, np.bool_)):
        raise InputError(f"coeffs[{key}] must be a number, got {type(h).__name__} {h!r}")
    try:
        value = complex(h)
    except OverflowError:  # an int beyond the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise InputError(f"coeffs[{key}] must be finite, got {h}")
    return value


def decompose(h, j) -> TensorParams:
    """Coefficients h^k_q = Tr(h tau^k_q) of a Hermitian matrix, by one
    matrix-vector product (`linalg._FlatBasis`): within 2 d eps max|h|
    (d = 2j + 1) of a per-(k, q) trace(h @ tau) loop.  The projection of
    `TensorParams._of_vector` turns them into those of the Hermitian part
    (h + h^dagger)/2, as tau^k_q^dagger = (-1)^q tau^k_{-q}: a matrix that
    passes the Hermiticity check is expanded as its Hermitian part."""
    two_j = _as_two_j(j)
    h = _matrix("h", h, two_j + 1)
    basis = _spin_basis(two_j)
    return TensorParams._of_vector(two_j, basis.tau.traces("h", h, _hermitian("h", h)))


def reconstruct(params: TensorParams) -> np.ndarray:
    """Rebuild the operator (1/(2j+1)) sum_kq h^k_q tau^k_q^dagger."""
    two_j = _as_two_j(params.j)
    basis = _spin_basis(two_j)
    return basis.tau.combine(params.vector) / (two_j + 1)


def _exp_jy(w: np.ndarray, v: np.ndarray, vh: np.ndarray, w_top: float, beta) -> np.ndarray:
    """exp(-i beta J_y) from the eigendecomposition J_y = v diag(w) v^dagger,
    with w_top = max|w| (k, the largest rank)."""
    beta = _bounded("beta*k", _finite("beta", beta), w_top)
    return (v * np.exp(-1j * beta * w)) @ vh


@lru_cache(maxsize=None)
def _jy_eigenbasis(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Eigenvalues w and eigenvectors v of J_y in the spin-k representation
    (m descending), v^dagger and max|w|."""
    w, v = np.linalg.eigh(_spin_matrices(2 * k).y)
    vh = v.conj().T.copy()
    for a in (w, v, vh):
        a.setflags(write=False)
    return w, v, vh, float(abs(w).max())


def wigner_d(k: int, beta: float) -> np.ndarray:
    """Small Wigner d-matrix d^k_{q'q}(beta) = <k q'| exp(-i beta Jy) |k q>.

    Rows and columns are ordered with q descending from +k to -k.  Every
    rank k = 0..5 of the tensor operators of spin j <= 5/2 is supported.
    """
    return _exp_jy(*_jy_eigenbasis(_index("rank k", k, 0, MAX_TWO_J)), beta).real


@dataclass(frozen=True, eq=False)
class _SpinBasis:
    """Every tau^k_q of one spin, in (k, q) order with k = 0..2j and
    q = -k..k: the keys and the position of each, their flat basis, and J_y
    of every rank as one block-diagonal matrix in the same order, by its
    eigendecomposition (w, v, vh) and max|w| (w_top), with the q of each
    key.  `partner` holds the position of (k, -q) for each key, and
    `half_sign` is (-1)^q / 2, the factor of that partner's conjugate in
    `TensorParams._of_vector`."""

    keys: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    tau: _FlatBasis
    q: np.ndarray
    w: np.ndarray
    v: np.ndarray
    vh: np.ndarray
    w_top: float
    partner: np.ndarray
    half_sign: np.ndarray


@lru_cache(maxsize=None)
def _spin_basis(two_j: int) -> _SpinBasis:
    keys = tuple((k, q) for k in range(two_j + 1) for q in range(-k, k + 1))
    n = len(keys)
    w = np.empty(n)
    v = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for k in range(two_j + 1):
        block = slice(start, start + 2 * k + 1)
        wk, vk, _, _ = _jy_eigenbasis(k)
        w[block] = wk
        v[block, block] = vk[::-1]  # rows from q descending to the keys' q ascending
        start = block.stop
    index = {key: i for i, key in enumerate(keys)}
    q = np.array([q for _k, q in keys], dtype=np.float64)
    vh = v.conj().T.copy()
    partner = np.array([index[(k, -q)] for k, q in keys])
    half_sign = np.array([-0.5 if q % 2 else 0.5 for _k, q in keys])
    for a in (q, w, v, vh, partner, half_sign):
        a.setflags(write=False)
    tau = _flat_basis(np.stack([_tau_matrix(two_j, k, q) for k, q in keys]))
    return _SpinBasis(keys, index, tau, q, w, v, vh, float(abs(w).max()), partner, half_sign)


def rotate_params(params: TensorParams, alpha: float, beta: float, gamma: float) -> TensorParams:
    """Rotate tensor parameters: h'_q = sum_q' D^k_{q'q}(alpha beta gamma) h_q'.

    Uses D^k_{q'q} = exp(-i q' alpha) d^k_{q'q}(beta) exp(-i q gamma).
    Equivalent to conjugating the represented operator by the inverse of
    R = exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz).  InputError
    names `coeffs*d` if 10 times the largest real or imaginary part of a
    coefficient overflows.
    """
    two_j = _as_two_j(params.j)
    alpha = _bounded("alpha*q", _finite("alpha", alpha), two_j)
    gamma = _bounded("gamma*q", _finite("gamma", gamma), two_j)
    # no partial sum exceeds 10 times the largest coefficient component:
    # sqrt(2) for its modulus, sqrt(2k + 1) <= sqrt(11) for a column of |d|
    # (unitary) and 2 for a component of the gamma phase product
    _bounded("coeffs*d", params.vector.view(np.float64), 10.0)
    basis = _spin_basis(two_j)
    # every rank's d-matrix at once, as the blocks of one matrix
    d = _exp_jy(basis.w, basis.v, basis.vh, basis.w_top, beta)
    values = params.vector * np.exp(-1j * alpha * basis.q)
    return TensorParams._of_vector(two_j, (values @ d) * np.exp(-1j * gamma * basis.q))
