"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured output of a failing run).
"""

import math

import numpy as np
import pytest

from symgates.entanglement import (
    PERFECT_ENTANGLER,
    SPECIAL_PERFECT_ENTANGLER,
    concurrence,
    entangling_power,
    lmg_entanglement_profile,
    makhlin_g1,
    product_basis,
    separable_state,
    spe_condition,
)
from symgates.gates import LMGParams, gate, lmg_gate, lmg_hamiltonian
from symgates.linalg import expm_hermitian
from symgates.su3 import GELL_MANN, GELLMANN_RELATIONS, M, verify_algebra_tables, verify_gellmann
from symgates.tensors import (
    angular_momentum_matrices,
    decompose,
    hermitian_basis,
    reconstruct,
    rotate_params,
    spherical_basis,
    tau,
    wigner_d,
)

from helpers import max_phase_distance, random_hermitian, random_su2, random_spinor

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SEED = 20240811


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_algebra_tables():
    report = verify_algebra_tables()
    ok = (report.entries_checked == 128 and not report.mismatches
          and report.max_residual < 1e-13
          and report.vanishing_ok and report.vanishing_residual < 1e-14)
    _report(1, "64 + 64 algebra table entries at 1e-13, vanishing pairs at 1e-14", ok)


def test_criterion_02_basis_consistency_triangle():
    lookup = {(t.component, t.k, t.q): t.matrix for t in hermitian_basis(1)}
    mapping = {
        0: ("zero", 0, 0), 1: ("plus", 1, 1), 2: ("minus", 1, 1), 3: ("zero", 1, 0),
        4: ("minus", 2, 2), 5: ("minus", 2, 1), 6: ("plus", 2, 1), 7: ("plus", 2, 2),
        8: ("zero", 2, 0),
    }
    jm = angular_momentum_matrices(1)
    jx, jy, jz = jm.x, jm.y, jm.z
    from_j = {
        1: -jx, 2: jy, 3: jz,
        4: -(jx @ jy + jy @ jx), 5: jy @ jz + jz @ jy, 6: -(jx @ jz + jz @ jx),
        7: jx @ jx - jy @ jy, 8: (3 * jz @ jz - 2 * np.eye(3)) / SQ3,
    }
    worst = 0.0
    for k in range(9):
        from_tensors = SQ2 * lookup[mapping[k]]
        worst = max(worst, float(np.max(np.abs(M[k] - from_tensors))))
        if k in from_j:
            worst = max(worst, float(np.max(np.abs(M[k] - from_j[k]))))
            worst = max(worst, float(np.max(np.abs(from_tensors - from_j[k]))))
    trace_worst = max(
        abs(np.trace(M[k] @ M[kp]) - (2.0 if k == kp else 0.0))
        for k in range(9) for kp in range(9)
    )
    gm = verify_gellmann()
    ok = worst < 1e-13 and trace_worst < 1e-14 and gm.passed and gm.max_residual < 1e-14
    _report(2, "literal / tensor / angular-momentum forms agree; norms; Gell-Mann", ok)


def test_criterion_03_closed_form_vs_eigendecomposition():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(1, 9):
        mk = M[k]
        for theta in rng.uniform(0.0, 2 * math.pi, 1000):
            worst = max(worst, float(np.max(np.abs(
                gate(k, theta).u3 - expm_hermitian(mk, theta)))))
    _report(3, f"closed form vs exponential oracle, 1000 angles x 8 gates "
               f"(max {worst:.2e})", worst < 1e-12)


def test_criterion_04_entangling_power_law():
    thetas = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False)
    worst_law = 0.0
    for k in (4, 5, 6, 7):
        for theta in thetas:
            value = abs(makhlin_g1(gate(k, theta).u4))
            worst_law = max(worst_law, abs(value - math.cos(theta) ** 4))
    worst_local = 0.0
    for k in (1, 2, 3):
        for theta in thetas[::10]:
            report = entangling_power(gate(k, theta))
            worst_local = max(worst_local, abs(report.g1_abs - 1.0), report.ep)
    b8 = entangling_power(gate(8, SQ3 * math.pi / 2))
    ok = (worst_law < 1e-10 and worst_local < 1e-10
          and abs(b8.ep - 2.0 / 9.0) < 1e-12)
    _report(4, f"|G1| = cos^4 for B4..B7 (max {worst_law:.2e}); B1..B3 local; "
               f"B8 maximal at sqrt(3) pi/2", ok)


def test_criterion_05_perfect_entangler_window():
    thetas = np.linspace(0.0, math.pi / 2, 1001)
    ok = True
    for theta in thetas:
        report = entangling_power(gate(4, float(theta)))
        is_perfect = report.classification in (PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER)
        ok = ok and (is_perfect == (theta >= math.pi / 4 - 1e-12))
    boundary = entangling_power(gate(4, math.pi / 4))
    ok = ok and abs(boundary.ep - 1.0 / 6.0) < 1e-12
    _report(5, "B4 perfect-entangler window is exactly [pi/4, pi/2], boundary ep = 1/6", ok)


def test_criterion_06_maximal_entanglement_actions():
    ok = True
    phis = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
    spes = {4: gate(4, math.pi / 2), 7: gate(7, math.pi / 2), 8: gate(8, SQ3 * math.pi / 2)}
    for phi in phis:
        state = separable_state(math.pi / 2, float(phi))
        p = np.exp(1j * phi)
        expected = {
            4: np.array([-0.5 * p * p, 0.5 * p, 0.5 * p, 0.5]),
            7: np.array([0.5j * p * p, 0.5 * p, 0.5 * p, 0.5j]),
            8: np.array([0.5j, -0.5 * p, -0.5 * p, 0.5j * p * p]),
        }
        for k, g in spes.items():
            out = g.u4 @ state.vec4
            ok = ok and abs(concurrence(out) - 1.0) < 1e-10
            ok = ok and max_phase_distance(out, expected[k]) < 1e-10
    for k in (5, 6):
        for alpha in (0.0, math.pi):
            out = gate(k, math.pi / 2).u4 @ separable_state(alpha, 0.3).vec4
            ok = ok and abs(concurrence(out) - 1.0) < 1e-10
    _report(6, "B4/B7/B8 maximally entangle the equator states (amplitudes match); "
               "B5/B6 the poles", ok)


def test_criterion_07_spe_qubit_forms():
    literals = {
        4: np.array([[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=complex),
        5: 0.5 * np.array([[1, 1, 1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, 1, 1, 1]],
                          dtype=complex),
        6: 0.5 * np.array([[1, -1j, -1j, 1], [-1j, 1, -1, 1j], [-1j, -1, 1, 1j],
                           [1, 1j, 1j, 1]]),
        7: np.array([[0, 0, 0, 1j], [0, 1, 0, 0], [0, 0, 1, 0], [1j, 0, 0, 0]]),
        8: np.array([[1j, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1j]]),
    }
    thetas = {4: math.pi / 2, 5: math.pi / 2, 6: math.pi / 2, 7: math.pi / 2,
              8: SQ3 * math.pi / 2}
    worst = max(max_phase_distance(gate(k, thetas[k]).u4, literals[k]) for k in literals)
    _report(7, f"embedded B4..B8 at e_p = 2/9 match their literal 4x4 forms "
               f"(max {worst:.2e})", worst < 1e-12)


def _satisfying_tuple(rng):
    phases = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 6))
    return tuple(phases / SQ2)


def _violating_tuple(rng):
    while True:
        a, b = random_spinor(rng)
        c, d = random_spinor(rng)
        e, f = random_spinor(rng)
        if max(4 * abs(a * b * c * d), 4 * abs(c * d * e * f)) < 1.0 - 1e-3:
            return a, b, c, d, e, f


def test_criterion_08_product_basis_entanglement():
    rng = np.random.default_rng(SEED)
    gates_at_spe = [gate(4, math.pi / 2), gate(7, math.pi / 2), gate(8, SQ3 * math.pi / 2)]
    ok = True
    for _ in range(50):
        basis = product_basis(*_satisfying_tuple(rng))
        for g in gates_at_spe:
            result = spe_condition(g, basis)
            ok = ok and result.condition_holds
            ok = ok and all(c > 1.0 - 1e-10 for c in result.concurrences)
    for _ in range(50):
        basis = product_basis(*_violating_tuple(rng))
        for g in gates_at_spe:
            result = spe_condition(g, basis)
            ok = ok and min(result.concurrences) < 1.0 - 1e-6
    _report(8, "orthonormal product bases with |abcd| = |cdef| = 1/4 are fully "
               "maximally entangled by B4/B7/B8; violations are not", ok)


def test_criterion_09_lmg():
    rng = np.random.default_rng(SEED)
    jm = angular_momentum_matrices(1)
    jp, jmn = jm.plus, jm.minus
    ok = True
    for g1v, g2v in rng.uniform(-3, 3, size=(25, 2)):
        ladder = g1v * (jp @ jp + jmn @ jmn) + g2v * (jp @ jmn + jmn @ jp)
        basis_form = 2 * g1v * M[7] + (2 / SQ3) * g2v * (math.sqrt(8) * M[0] - M[8])
        ok = ok and np.max(np.abs(ladder - basis_form)) < 1e-13
        ok = ok and np.max(np.abs(lmg_hamiltonian(g1v, g2v) - ladder)) < 1e-13
    for g1v, g2v, t in rng.uniform(-2, 2, size=(25, 3)):
        p = LMGParams(g1=g1v, g2=g2v, t=t)
        reference = expm_hermitian(lmg_hamiltonian(g1v, g2v), t)
        ok = ok and np.max(np.abs(lmg_gate(p).u3 - reference)) < 1e-12
    g1v, g2v = 1.3, 0.7
    ts, _, conc = lmg_entanglement_profile(g1v, g2v, np.linspace(0.0, 2 * math.pi, 200))
    ok = ok and np.max(np.abs(conc - np.abs(np.sin(4 * g1v * ts)))) < 1e-10
    for n in range(6):
        t_zero = n * math.pi / (4 * g1v)
        t_one = (2 * n + 1) * math.pi / (8 * g1v)
        ok = ok and lmg_entanglement_profile(g1v, g2v, [t_zero])[2][0] < 1e-10
        ok = ok and abs(lmg_entanglement_profile(g1v, g2v, [t_one])[2][0] - 1) < 1e-10
    # |G1| = ((cos 4 g1 t + cos 4 g2 t)/2)^2 vanishes on two branches:
    # 2 (g2 - g1) t or 2 (g2 + g1) t congruent to pi/2 modulo pi
    g1v, g2v = 0.4, 1.1
    for n in range(6):
        for g_sum in (g2v - g1v, g2v + g1v):
            t = (math.pi / 2 + n * math.pi) / (2 * g_sum)
            report = entangling_power(lmg_gate(LMGParams(g1=g1v, g2=g2v, t=t)))
            ok = ok and abs(report.ep - 2.0 / 9.0) < 1e-9
    # on the sum branch only: 2 g2 t - 2 g1 t = pi/6
    report = entangling_power(lmg_gate(LMGParams(g1=1.0, g2=2.0, t=math.pi / 12)))
    ok = ok and report.ep == 0.2222222222222222
    ok = ok and abs(2 * 2.0 * math.pi / 12 - 2 * 1.0 * math.pi / 12 - math.pi / 6) < 1e-15
    _report(9, "ladder and basis Hamiltonian forms agree; gate matches exp(iHt); "
               "concurrence timing and both maximal-power branches hold", ok)


def test_criterion_10_local_invariance():
    rng = np.random.default_rng(SEED)
    analyzed = [gate(k, 0.7) for k in range(1, 9)]
    analyzed += [gate(4, math.pi / 2), gate(8, SQ3 * math.pi / 2)]
    analyzed.append(lmg_gate(LMGParams(g1=0.8, g2=1.7, t=0.6)))
    worst = 0.0
    for g in analyzed:
        base = abs(makhlin_g1(g.u4))
        for _ in range(200):
            left = np.kron(random_su2(rng), random_su2(rng))
            right = np.kron(random_su2(rng), random_su2(rng))
            worst = max(worst, abs(abs(makhlin_g1(left @ g.u4 @ right)) - base))
    _report(10, f"|G1| invariant under 200 random local dressings per gate "
                f"(max drift {worst:.2e})", worst < 1e-9)


def test_criterion_11_tensor_layer():
    ok = True
    for two_j in range(1, 6):
        j = two_j / 2
        dim = two_j + 1
        ops = spherical_basis(j)
        for a in ops:
            for b in ops:
                expected = dim if (a.k, a.q) == (b.k, b.q) else 0.0
                ok = ok and abs(np.trace(a.matrix.conj().T @ b.matrix) - expected) < 1e-12
        for k in range(two_j + 1):
            for q in range(-k, k + 1):
                defect = np.max(np.abs(tau(j, k, q).matrix.conj().T
                                       - (-1.0) ** q * tau(j, k, -q).matrix))
                ok = ok and defect < 1e-12
    jm = angular_momentum_matrices(1)
    rng = np.random.default_rng(SEED)
    for beta in rng.uniform(0.0, 2 * math.pi, 10):
        rot = expm_hermitian(-jm.y, beta)
        for k in range(3):
            d = wigner_d(k, float(beta))
            for q in range(-k, k + 1):
                lhs = rot @ tau(1, k, q).matrix @ rot.conj().T
                rhs = sum(d[k - qp, k - q] * tau(1, k, qp).matrix
                          for qp in range(-k, k + 1))
                ok = ok and np.max(np.abs(lhs - rhs)) < 1e-10
    for _ in range(10):
        h = random_hermitian(rng, 3)
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, 3)
        rotated = reconstruct(rotate_params(decompose(h, 1), alpha, beta, gamma))
        rot = (expm_hermitian(-jm.z, alpha) @ expm_hermitian(-jm.y, beta)
               @ expm_hermitian(-jm.z, gamma))
        ok = ok and np.max(np.abs(rotated - rot.conj().T @ h @ rot)) < 1e-10
    _report(11, "tensor orthogonality and adjoint symmetry for all j <= 5/2; "
                "rotation consistency for k <= 2", ok)
