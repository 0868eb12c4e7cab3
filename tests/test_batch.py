"""The batch path: equal to the scalar path, byte-identical CLI output, input contract."""

import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgates import cli, entanglement, gates
from symgates.cli import fmt_float, main
from symgates.entanglement import (
    CLASSES,
    _bell_invariants,
    _g1,
    _gate_invariants,
    _power,
    _power_batch,
    _symmetric_invariants,
    _up_up_concurrences,
    concurrence,
    entangling_power,
    entangling_power_batch,
    lmg_entanglement_profile,
    makhlin_g1,
    product_basis,
)
from symgates.gates import (
    GateBatch,
    LMGParams,
    SymmetricGate,
    custom_gate,
    gate,
    gates_batch,
    lmg_batch,
    lmg_gate,
)
from symgates.linalg import InputError, _grid, expm_hermitian
from symgates.su3 import build_hamiltonian, decompose_hamiltonian, from_qubit_basis, to_qubit_basis
from symgates.tensors import TensorParams, decompose

from helpers import WARNINGS_ARE_ERRORS, haar_unitary

UP_UP = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
THETA_MAX = {k: "pi" for k in range(1, 8)} | {8: "sqrt3*pi"}
THETA_MAX_VALUE = {k: math.pi for k in range(1, 8)} | {8: math.sqrt(3.0) * math.pi}

angles = st.floats(-20.0, 20.0, allow_nan=False)
couplings = st.floats(-3.0, 3.0, allow_nan=False)
times = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=24, unique=True)


def _invariants(u3):
    """`_symmetric_invariants` of a (..., 3, 3) stack, in scratch of its own."""
    return _symmetric_invariants(u3, np.empty((4, *u3.shape[:-2]), np.complex128))


def _tail(tr, det):
    """`_power_batch` of tr(m) and det(B_bell), in scratch of its own."""
    return _power_batch(tr, det, np.empty((3, *tr.shape), np.complex128))


def _assert_reports_equal(batch, i, report):
    assert batch.g1[i] == report.g1
    assert batch.g1_abs[i] == report.g1_abs
    assert batch.ep[i] == report.ep
    assert batch.classification[i] == report.classification


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 8), thetas=st.lists(angles, min_size=1, max_size=24))
def test_gates_batch_equals_scalar_path(k, thetas):
    batch = gates_batch(k, thetas)
    scores = entangling_power_batch(batch)
    for i, theta in enumerate(thetas):
        g = gate(k, theta)
        assert np.array_equal(batch.u3[i], g.u3)
        assert np.array_equal(batch.u4[i], g.u4)
        _assert_reports_equal(scores, i, entangling_power(g))


@settings(max_examples=80, deadline=None)
@given(g1=couplings, g2=couplings, ts=times)
# Im tr(m) = 1.5e-310: numpy's scalar tr**2 takes its imaginary part as
# a b + b a, which 2 a b rounds apart from where a b is subnormal
@example(g1=2.1607476819635814, g2=2.225073858507e-311, ts=[0.9151042458314187])
def test_lmg_batch_equals_scalar_path(g1, g2, ts):
    ts = sorted(ts)
    batch = lmg_batch(g1, g2, ts)
    scores = entangling_power_batch(batch)
    _, profile_ep, profile_conc = lmg_entanglement_profile(g1, g2, ts)
    for i, t in enumerate(ts):
        g = lmg_gate(LMGParams(g1=g1, g2=g2, t=t))
        assert np.array_equal(batch.u3[i], g.u3)
        assert np.array_equal(batch.u4[i], g.u4)
        report = entangling_power(g)
        _assert_reports_equal(scores, i, report)
        assert profile_ep[i] == report.ep
        assert profile_conc[i] == concurrence(g.u4 @ UP_UP)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
def test_raw_stack_scores_equal_the_scalar_path(seed, size):
    rng = np.random.default_rng(seed)
    stack = np.stack([haar_unitary(rng, 4) for _ in range(size)])
    scores = entangling_power_batch(stack)
    for i, u4 in enumerate(stack):
        _assert_reports_equal(scores, i, entangling_power(u4))
        # one 4x4 matrix, or a (..., 4, 4) stack, is read as its (N, 4, 4) rows
        _assert_reports_equal(entangling_power_batch(u4), 0, entangling_power(u4))
    _assert_reports_equal(entangling_power_batch(stack[None, :, None]), size - 1,
                          entangling_power(stack[-1]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 80))
def test_vector_tail_equals_the_scalar_tail_on_haar_gates(seed, size):
    # The vector tail and the |up up> column round as the scalar helpers
    # do for any unitary u3, not only on the B_k and LMG families.
    rng = np.random.default_rng(seed)
    u3 = np.stack([haar_unitary(rng, 3) for _ in range(size)])
    scores = entangling_power_batch(GateBatch(u3))
    concs = _up_up_concurrences(u3, np.empty_like(u3))
    for i in range(size):
        g = custom_gate(u3[i])
        _assert_reports_equal(scores, i, entangling_power(g))
        assert concs[i] == concurrence(g.u4 @ UP_UP)


def _bits(z) -> bytes:
    """The bytes of a complex number: == that also tells -0.0 from 0.0."""
    return np.complex128(z).tobytes()


def _exact_gates() -> list[np.ndarray]:
    """3x3 unitaries with exact and signed zeros: the signed permutation
    matrices, diagonal phase gates, B3, B8, the identity and -0.0 entries."""
    out = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in ((1, 1, 1), (-1, 1, 1), (1, -1j, 1), (1j, 1, -1), (-1, -1, -1j)):
            out.append(np.eye(3, dtype=np.complex128)[list(perm)] * np.array(signs))
    for phases in ((0.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (0.3, -1.1, 2.0), (math.pi / 2,) * 3):
        out.append(np.diag(np.exp(1j * np.array(phases))))
    for theta in (0.0, 0.3, math.pi / 4, math.pi / 2, math.pi, 2.0):
        out.extend([gate(3, theta).u3, gate(8, theta).u3])
    out.append(np.eye(3))
    negative_zero = np.eye(3, dtype=np.complex128)
    negative_zero[[0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]] = complex(-0.0, -0.0)
    out.append(negative_zero)
    flipped = negative_zero.copy()
    flipped[[0, 1, 2], [0, 1, 2]] = [complex(1.0, -0.0), complex(-1.0, 0.0), complex(0.0, 1.0)]
    out.append(flipped)
    return out


@pytest.mark.parametrize("u3", _exact_gates())
def test_one_gate_path_equals_the_grid_on_exact_and_signed_zeros(u3):
    # exact zeros are where the one-gate path's Python sums and the grid's
    # numpy sums could round apart (in the sign of a zero)
    tr, det = _invariants(u3[None])
    one_tr, one_det = _gate_invariants(u3)
    assert _bits(one_tr) == _bits(tr[0]) and _bits(one_det) == _bits(det[0])
    _assert_reports_equal(entangling_power_batch(GateBatch(u3[None])), 0,
                          entangling_power(custom_gate(u3)))


def test_one_gate_path_equals_a_grid_of_16384_gates():
    # numpy multiplies an unnamed temporary of 256 KiB or more (16384
    # complex entries) in place, which could swap the factors of a product
    rng = np.random.default_rng(5)
    u3, _ = np.linalg.qr(rng.normal(size=(16384, 3, 3)) + 1j * rng.normal(size=(16384, 3, 3)))
    tr, det = _invariants(u3)
    scores = entangling_power_batch(GateBatch(u3))
    for i in range(0, 16384, 61):
        one_tr, one_det = _gate_invariants(u3[i])
        assert _bits(one_tr) == _bits(tr[i]) and _bits(one_det) == _bits(det[i])
        _assert_reports_equal(scores, i, entangling_power(custom_gate(u3[i])))


def test_a_grid_in_one_call_equals_its_cli_blocks():
    # a call's stacks of more than 1820 points pass 256 KiB, where numpy may reuse
    # an unnamed temporary in place; its results must still be those of the
    # CLI's blocks, three here
    grid = np.linspace(-1.0, 7.0, 2 * cli._BLOCK + 300)
    blocks = [grid[i:i + cli._BLOCK] for i in range(0, len(grid), cli._BLOCK)]
    for k in range(1, 9):
        whole = entangling_power_batch(gates_batch(k, grid))
        parts = [entangling_power_batch(gates_batch(k, block)) for block in blocks]
        for field in ("g1", "g1_abs", "ep", "level"):
            assert np.array_equal(getattr(whole, field),
                                  np.concatenate([getattr(part, field) for part in parts]))
    whole = lmg_entanglement_profile(1.3, 2.7, grid)
    parts = [lmg_entanglement_profile(1.3, 2.7, block) for block in blocks]
    for column, pieces in zip(whole, zip(*parts)):
        assert np.array_equal(column, np.concatenate(pieces))


def test_vector_tail_clamps_rounding_below_zero():
    # a real tr(m) with det 1 whose e_p rounds to about -1e-13
    tr = np.array([4.0 * math.sqrt(1.0 + 4.5e-13)], dtype=np.complex128)
    scores = _tail(tr, np.ones(1, dtype=np.complex128))
    assert -2e-13 < 2.0 / 9.0 * (1.0 - scores.g1_abs[0]) < 0.0
    assert scores.ep[0] == 0.0 and math.copysign(1.0, scores.ep[0]) == 1.0
    assert scores.classification == ("non-entangling",)
    fh = io.BytesIO()
    cli._write_rows(fh, "ep", [((scores.ep,), None)], cli._Workspace(1))
    assert fh.getvalue() == b"ep\n0\n"


def test_vector_tail_rejects_e_p_out_of_range():
    # the second entry's e_p is about -1e-11, beyond the -1e-12 rounding allowance
    tr = np.array([0.5, 4.0 * math.sqrt(1.0 + 4.5e-11)], dtype=np.complex128)
    with pytest.raises(RuntimeError, match="out of range") as vector:
        _tail(tr, np.ones(2, dtype=np.complex128))
    with pytest.raises(RuntimeError) as scalar:
        _power(_g1(tr[1], np.complex128(1.0)))
    assert str(vector.value) == str(scalar.value)
    assert float(str(vector.value).split()[2]) == pytest.approx(-1e-11, rel=1e-3)


def test_nan_e_p_is_out_of_range():
    # records built around the checked constructors: NaN fails every
    # comparison, so the range test must be written to reject it
    nan_u3 = np.full((2, 3, 3), np.nan, dtype=np.complex128)
    with np.errstate(invalid="ignore"):  # NaN / NaN, as in any NaN arithmetic
        with pytest.raises(RuntimeError, match=r"entangling power nan out of range"):
            entangling_power(SymmetricGate("x", nan_u3[0]))
        with pytest.raises(RuntimeError, match=r"entangling power nan out of range"):
            entangling_power_batch(GateBatch(nan_u3))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), theta=angles, g1=couplings,
       g2=couplings, t=st.floats(-5.0, 5.0, allow_nan=False))
def test_symmetric_invariants_match_the_bell_transform(seed, k, theta, g1, g2, t):
    u3 = np.stack([haar_unitary(np.random.default_rng(seed), 3), gate(k, theta).u3,
                   lmg_gate(LMGParams(g1=g1, g2=g2, t=t)).u3])
    tr, det = _invariants(u3)
    bell_tr, bell_det = _bell_invariants(to_qubit_basis(u3, 1.0))
    assert np.max(np.abs(tr - bell_tr)) <= 1e-14
    assert np.max(np.abs(det - bell_det)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 8), thetas=st.lists(angles, min_size=1, max_size=24), g1=couplings,
       g2=couplings, ts=times, seed=st.integers(0, 2**32 - 1))
def test_gate_batch_u4_is_built_on_first_access(k, thetas, g1, g2, ts, seed):
    # GateBatch and SymmetricGate alike: construction builds u3 only
    for g in (gates_batch(k, thetas), lmg_batch(g1, g2, ts), gate(k, thetas[0]),
              lmg_gate(LMGParams(g1=g1, g2=g2, t=ts[0])),
              custom_gate(haar_unitary(np.random.default_rng(seed), 3))):
        assert "u4" not in vars(g)
        assert np.array_equal(g.u4, to_qubit_basis(g.u3, 1.0))
        assert g.u4 is g.u4


def _closed_form_g1_abs(mpmath, k, theta):
    """|G1| of B_k(theta) from the closed forms of the families."""
    if k <= 3:
        return mpmath.mpf(1)
    if k <= 7:
        return mpmath.cos(theta) ** 4
    # B8 sits at canonical coordinates (-a, -a, 2a), a = theta/sqrt3.
    a = theta / mpmath.sqrt(3)
    s2a = mpmath.sin(2 * a)
    return abs(mpmath.mpc(mpmath.cos(a) ** 4 * mpmath.cos(2 * a) ** 2
                          - mpmath.sin(a) ** 4 * s2a ** 2, s2a ** 2 * mpmath.sin(4 * a) / 4))


def test_g1_abs_matches_high_precision_forms():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for k in range(1, 9):
            thetas = np.linspace(0.0, THETA_MAX_VALUE[k], 97)
            scores = entangling_power_batch(gates_batch(k, thetas))
            for theta, g1_abs in zip(thetas.tolist(), scores.g1_abs.tolist()):
                assert abs(g1_abs - _closed_form_g1_abs(mpmath, k, mpmath.mpf(theta))) <= 2e-15
        # The LMG gate is B7(xi) times a phase, built from the float angles
        # xi = fl(2 g1 t) and phi = fl(2 g2 t), so |G1| and the |up up>
        # concurrence are compared with their exact values at those angles.
        for g1, g2 in [(1.0, 2.0), (-0.7, 1.3), (0.25, 1.75), (1e4, 3e4)]:
            ts = np.linspace(0.0, math.pi, 241)
            scores = entangling_power_batch(lmg_batch(g1, g2, ts))
            _, _, concs = lmg_entanglement_profile(g1, g2, ts)
            for t, g1_abs, conc in zip(ts.tolist(), scores.g1_abs.tolist(), concs.tolist()):
                xi, phi = mpmath.mpf(2.0 * g1 * t), mpmath.mpf(2.0 * g2 * t)
                exact = ((mpmath.cos(2 * xi) + mpmath.cos(2 * phi)) / 2) ** 2
                assert abs(g1_abs - exact) <= 2e-15
                assert abs(conc - abs(mpmath.sin(2 * xi))) <= 2e-15


# SHA-256 of the CSVs scored with the closed-form 3x3 invariants.  Against
# the earlier 4x4 Bell-transform path only g1_abs and e_p cells differ, each
# by at most 1.1e-15 (checked cell by cell when these were taken); theta, t,
# class and concurrence are byte-identical.  B1 == B2 and B4 == B7, B5 == B6:
# locally equivalent gates now give the same tr(m) and det bit for bit.
# These hashes, the LMG ones below and REPORT_STDOUT_SHA256 in test_cli.py
# depend on numpy's SIMD dispatch as well as on its release: they were
# taken with numpy 2.4.6 on x86-64, whose complex multiply kernels use FMA
# from X86_V3 (AVX2) on, and hold with X86_V3 or AVX-512 kernels alike.
# With NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# (baseline X86_V2, no FMA) the B3 and B8 sweeps, the three LMG series and
# the third report differ in their last digits; every other test passes
# there, the scalar == batch ones included.
SWEEP_2049_SHA256 = {
    1: "7d0cbded9089292b73cab1c82b323c9e0382f48f9baf54c5de00769c4dc2c363",
    2: "7d0cbded9089292b73cab1c82b323c9e0382f48f9baf54c5de00769c4dc2c363",
    3: "b8e302a27f875426bcb060054f1b5e40d1abfc7b09baefa4944c689cc2993af0",
    4: "0b4300cb96a67c1fb3495c08e2c038d983fd6454e5aa65b176a2342468b2f07c",
    5: "b0eac7f62aac3ae21c8bced88816d7a242fd996bdadc8bc94d77af1af33d6dc7",
    6: "b0eac7f62aac3ae21c8bced88816d7a242fd996bdadc8bc94d77af1af33d6dc7",
    7: "0b4300cb96a67c1fb3495c08e2c038d983fd6454e5aa65b176a2342468b2f07c",
    8: "e046876b13bec4c8fca01667e6f223f1ee247debc0865a3e21177d70de03db76",
}
# SHA-256 of the LMG series built as B7(2 g1 t) times a phase.  Against the
# earlier eigendecomposition of the Hamiltonian only ep and concurrence
# cells differ (1046 and 2499 of the 3881 rows, by at most 2.0e-15 and
# 7.1e-15; checked cell by cell when these were taken); every t is
# byte-identical.
LMG_SHA256 = {
    ("1.0", "2.0", "0", "pi", "1441"):
        "c50053dddfc019b1686ff696dd62b49c3752b1daa79443003707f2ad6a377613",
    ("1.1456878432254491", "1.9133114685703867", "0", "pi", "1441"):
        "90b027316497acfb0b88dede457a77d86a7ae9c2319f763eb5e41a93dee1509e",
    ("-0.7", "1.3", "-1", "7", "999"):
        "fdfd9cb02e28fc9ba6101bcc03a6ae5750b53761c2a536595bec18ade068119e",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k", range(1, 9))
def test_sweep_csv_is_byte_identical_to_the_per_point_output(tmp_path, capsys, k):
    out = tmp_path / f"b{k}.csv"
    assert main(["sweep", str(k), "--theta-max", THETA_MAX[k], "--steps", "2049",
                 "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_2049_SHA256[k]


@pytest.mark.parametrize("g1, g2, t_min, t_max, steps", list(LMG_SHA256))
def test_lmg_csv_is_byte_identical_to_the_per_point_output(tmp_path, capsys, g1, g2, t_min,
                                                         t_max, steps):
    out = tmp_path / "lmg.csv"
    assert main(["lmg", "--g1", g1, "--g2", g2, "--t-min", t_min, "--t-max", t_max,
                 "--steps", steps, "--out", str(out)]) == 0
    assert _sha256(out) == LMG_SHA256[(g1, g2, t_min, t_max, steps)]


@pytest.mark.parametrize("k", range(1, 9))
def test_no_sweep_row_has_a_negative_ep(k):
    thetas = np.linspace(0.0, math.pi if k < 8 else math.sqrt(3.0) * math.pi, 2049)
    for (_, _, ep), _ in cli.sweep_blocks(k, thetas, cli._Workspace(cli._BLOCK)):
        assert np.all(ep >= 0.0)


@pytest.mark.parametrize("g1, g2", [(1.5, 1.5), (1.0, 2.0), (-0.7, 1.3), (0.25, 0.25)])
def test_no_lmg_row_has_a_negative_ep(g1, g2):
    ws = cli._Workspace(1441)
    for (_, ep, _), _ in cli.lmg_blocks(g1, g2, np.linspace(0.0, math.pi, 1441), ws):
        assert np.all(ep >= 0.0)


def test_each_lmg_call_checks_its_grid_once(monkeypatch):
    names = []

    def counted(name, values):
        names.append(name)
        return _grid(name, values)

    monkeypatch.setattr(entanglement, "_grid", counted)
    monkeypatch.setattr(gates, "_grid", counted)
    grid = np.linspace(0.0, 2.0, 3 * cli._BLOCK + 7)
    for _ in cli.lmg_blocks(0.9, 1.7, grid, cli._Workspace(cli._BLOCK)):
        pass
    assert names == ["t_grid"] * 4
    names.clear()
    lmg_entanglement_profile(0.9, 1.7, grid)
    lmg_batch(0.9, 1.7, grid)
    assert names == ["t_grid", "ts"]


def _scalar_sweep_csv(k, thetas) -> str:
    lines = ["theta,g1_abs,ep,class"]
    for theta in thetas:
        r = entangling_power(gate(k, float(theta)))
        lines.append(",".join([fmt_float(theta), fmt_float(r.g1_abs), fmt_float(r.ep),
                               r.classification]))
    return "\n".join(lines) + "\n"


def _scalar_lmg_csv(g1, g2, ts) -> str:
    lines = ["t,ep,concurrence"]
    for t in ts:
        g = lmg_gate(LMGParams(g1=g1, g2=g2, t=float(t)))
        lines.append(",".join([fmt_float(t), fmt_float(entangling_power(g).ep),
                               fmt_float(concurrence(g.u4 @ UP_UP))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("steps", [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1])
def test_block_boundaries_write_every_row_once(tmp_path, capsys, steps):
    sweep_out, lmg_out = tmp_path / "b8.csv", tmp_path / "lmg.csv"
    assert main(["sweep", "8", "--theta-max", "sqrt3*pi", "--steps", str(steps),
                 "--out", str(sweep_out)]) == 0
    assert sweep_out.read_text() == _scalar_sweep_csv(
        8, np.linspace(0.0, math.sqrt(3.0) * math.pi, steps))
    assert main(["lmg", "--g1", "0.9", "--g2", "1.7", "--t-max", "pi", "--steps", str(steps),
                 "--out", str(lmg_out)]) == 0
    assert lmg_out.read_text() == _scalar_lmg_csv(0.9, 1.7, np.linspace(0.0, math.pi, steps))
    assert f"wrote {steps} rows" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep", "8", "--theta-max", "sqrt3*pi", "--steps", "16384"],
    ["lmg", "--g1", "1.0", "--g2", "2.0", "--t-max", "pi", "--steps", "1441"],
])
def test_a_grid_call_peaks_below_2_mib_traced(tmp_path, capsys, argv):
    # _BLOCK bounds what a grid call holds at once, whatever the grid's length
    argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0  # builds the parser and the CSV tables once
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["sweep", "4", "--theta-max", "pi", "--steps", "128"],
    ["lmg", "--g1", "1.0", "--g2", "2.0", "--t-max", "pi", "--steps", "64"],
])
def test_a_small_grid_call_peaks_below_256_kib_traced(tmp_path, capsys, argv):
    # a call's workspace has the rows of its grid, up to _BLOCK, not _BLOCK rows
    argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 10


def _traced_per_block(blocks, marks):
    """`blocks` that appends the traced memory, (current, peak since the last
    append), each time the next block is asked for, and once at the end."""
    def probed(*args):
        stream = blocks(*args)
        while True:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            try:
                block = next(stream)
            except StopIteration as stop:
                return stop.value
            yield block
    return probed


@pytest.mark.parametrize("argv, blocks, class_cell", [
    (["sweep", "8", "--theta-max", "sqrt3*pi", "--steps", "16384"], "sweep_blocks", True),
    (["sweep", "4", "--theta-max", "pi", "--steps", "16384"], "sweep_blocks", True),
    (["lmg", "--g1", "0.9", "--g2", "1.7", "--t-max", "pi", "--steps", str(2 * cli._BLOCK + 1)],
     "lmg_blocks", False),  # three blocks, so that two follow the first
])
def test_a_block_allocates_only_its_row_bytes(tmp_path, capsys, monkeypatch, argv, blocks,
                                             class_cell):
    # Every large intermediate of a block, its row buffer included, lives in
    # the call's workspace.  After the first block a block's traced memory
    # rises by less than 64 KiB beyond its row bytes, which it copies to
    # bytes objects, a slice of rows at a time, for translate.
    argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0  # builds the parser and the CSV tables once
    marks = []
    monkeypatch.setattr(cli, blocks, _traced_per_block(getattr(cli, blocks), marks))
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    steps = int(argv[argv.index("--steps") + 1])
    assert len(marks) == -(-steps // cli._BLOCK) + 1
    width = 3 * cli._CELL + (cli._class_cells().shape[1] if class_cell else 0)
    row_bytes = min(steps, cli._BLOCK) * width
    rises = [peak - current for (current, _), (_, peak) in zip(marks, marks[1:])]
    assert max(rises[1:]) < row_bytes + 64 * 2 ** 10


def test_workspace_stages_share_bytes_and_keep_cells_apart_from_rows():
    layout = cli._workspace_layout(2048)
    spans = {name: (offset, offset + field.itemsize)
             for name, (field, offset) in layout.fields.items()}
    gate_stage = ["u3", "tmp", "phases"]
    cell_stage = ["table", "scratch", "flags", "digit_zeros", "gather", "words", "layers", "cells"]
    assert sorted(spans) == sorted(gate_stage + cell_stage + ["rows"])

    def overlap(a, b):
        return spans[a][0] < spans[b][1] and spans[b][0] < spans[a][1]

    for stage in gate_stage, cell_stage:
        assert not any(overlap(a, b) for i, a in enumerate(stage) for b in stage[i + 1:])
    assert not overlap("rows", "cells")
    assert spans["rows"][1] - spans["rows"][0] == 2048 * (3 * cli._CELL + cli._class_cells().shape[1])
    cell_bytes = min(spans[name][0] for name in cell_stage), max(spans[name][1] for name in cell_stage)
    for name in gate_stage:
        assert cell_bytes[0] <= spans[name][0] and spans[name][1] <= cell_bytes[1]
    assert layout.itemsize <= 720 * 2048
    ws = cli._Workspace(2048)
    assert np.shares_memory(ws.u3, ws.table) and np.shares_memory(ws.rows, ws.scratch)
    assert not np.shares_memory(ws.rows, ws.cells)


@pytest.mark.parametrize("rows", [1, 7, cli._BLOCK])
def test_workspace_gate_stage_is_shaped_as_the_library_scratch(rows):
    # the CLI and the library hand the block kernels the same buffers
    ws = cli._Workspace(rows)
    for n in range(1, rows + 1):
        stage, scratch = ws.gate_stage(n), gates._scratch(n)
        assert [(a.shape, a.dtype) for a in stage] == [(a.shape, a.dtype) for a in scratch]
        u3, tmp, phases = stage
        assert u3.flags.c_contiguous and tmp.flags.c_contiguous
        assert all(row.flags.c_contiguous for row in phases)
        assert not any(np.shares_memory(a, b) for a, b in ((u3, tmp), (u3, phases), (tmp, phases)))


def test_blocks_outlive_the_next_block():
    grid = np.linspace(-1.0, 7.0, 2 * cli._BLOCK + 300)  # three blocks, the last short
    one_at_a_time = [grid[i:i + cli._BLOCK] for i in range(0, len(grid), cli._BLOCK)]
    series = {"B4": lambda g: cli.sweep_blocks(4, g, cli._Workspace(cli._BLOCK)),
              "B8": lambda g: cli.sweep_blocks(8, g, cli._Workspace(cli._BLOCK)),
              "LMG": lambda g: cli.lmg_blocks(0.9, 1.7, g, cli._Workspace(cli._BLOCK))}
    alone = {name: [next(blocks(part)) for part in one_at_a_time]
             for name, blocks in series.items()}

    def assert_equal(kept, expected):
        assert len(kept) == len(expected) == 3
        for (floats, level), (floats_alone, level_alone) in zip(kept, expected):
            assert all(map(np.array_equal, floats, floats_alone))
            assert (level is None and level_alone is None) or np.array_equal(level, level_alone)

    for name, blocks in series.items():
        assert_equal(list(blocks(grid)), alone[name])
    b4, b8 = series["B4"](grid), series["B8"](grid)  # advanced alternately
    interleaved = [block for pair in zip(b4, b8) for block in pair]
    assert_equal(interleaved[0::2], alone["B4"])
    assert_equal(interleaved[1::2], alone["B8"])


def test_b4_sweep_reaches_every_class_and_writes_the_per_point_csv(tmp_path, capsys):
    thetas = np.linspace(0.0, math.pi, 2049)  # two blocks or more while _BLOCK <= 2048
    ws = cli._Workspace(cli._BLOCK)
    levels = np.concatenate([level for _, level in cli.sweep_blocks(4, thetas, ws)])
    # local at 0 and pi, perfect on [pi/4, 3 pi/4] (1025 points), special
    # where cos(theta)**4 < 4.5e-9 (2/9 within 1e-9): 11 points about pi/2
    assert np.bincount(levels).tolist() == [2, 1022, 1014, 11]
    out = tmp_path / "b4.csv"
    assert main(["sweep", "4", "--theta-max", "pi", "--steps", str(len(thetas)),
                 "--out", str(out)]) == 0
    assert out.read_text() == _scalar_sweep_csv(4, thetas)


def test_batch_classification_is_built_from_level_on_first_read():
    scores = entangling_power_batch(gates_batch(4, [0.0, 0.1, math.pi / 4, math.pi / 2, 3.0]))
    assert scores.level.tolist() == [0, 1, 2, 3, 1]
    assert "classification" not in vars(scores)
    assert scores.classification == tuple(CLASSES[i] for i in scores.level)
    assert "classification" in vars(scores) and scores.classification is scores.classification


def test_gate_accepts_numpy_integers():
    assert np.array_equal(gate(np.int64(4), 0.3).u3, gate(4, 0.3).u3)
    assert np.array_equal(gates_batch(np.int32(8), [0.3]).u3[0], gate(8, 0.3).u3)


@pytest.mark.parametrize("k", [4.0, "4", None, 0, 9, np.int64(-1)])
def test_gate_rejects_bad_indices(k):
    with pytest.raises(InputError, match="gate index"):
        gate(k, 0.3)
    with pytest.raises(InputError, match="gate index"):
        gates_batch(k, [0.3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_named(bad):
    with pytest.raises(InputError, match="theta must be finite"):
        gate(4, bad)
    with pytest.raises(InputError, match="thetas must be finite"):
        gates_batch(4, [0.0, bad])
    with pytest.raises(InputError, match="g1 must be finite"):
        lmg_gate(LMGParams(g1=bad, g2=1.0, t=0.3))
    with pytest.raises(InputError, match="g2 must be finite"):
        lmg_batch(1.0, bad, [0.3])
    with pytest.raises(InputError, match="t must be finite"):
        lmg_gate(LMGParams(g1=1.0, g2=1.0, t=bad))
    with pytest.raises(InputError, match="ts must be finite"):
        lmg_batch(1.0, 1.0, [bad])


NAN = math.nan


# NaN passes a tolerance written as x > tol, so each check that fails its
# tolerance (written as not x <= tol) tests finiteness before raising.
@pytest.mark.parametrize("call, name", [
    (lambda: product_basis(NAN, 0, 1, 0, 1, 0), "spinor (a, b)"),
    (lambda: TensorParams(1, {(0, 0): NAN}), "coeffs[(0, 0)]"),
    (lambda: TensorParams(1, {(1, 1): 0.5, (1, -1): NAN}), "coeffs[(1, -1)]"),
    (lambda: from_qubit_basis(np.full((4, 4), NAN)), "op4"),
    (lambda: build_hamiltonian([NAN] * 9), "coeffs"),
    (lambda: expm_hermitian(np.eye(3), t=NAN), "t"),
    (lambda: expm_hermitian(np.diag([1.0, NAN, 0.0])), "h"),
    (lambda: decompose_hamiltonian(np.diag([1.0, NAN, 0.0])), "h"),
    (lambda: decompose(np.diag([1.0, NAN]), 0.5), "h"),
], ids=["product_basis", "TensorParams", "TensorParams_partner", "from_qubit_basis",
        "build_hamiltonian", "expm_hermitian_t", "expm_hermitian_h", "decompose_hamiltonian",
        "decompose"])
def test_nan_inputs_raise_a_named_input_error(call, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must be finite, got .*nan"):
        call()


# Finite couplings and times whose products 2 g1 t or 2 g2 t overflow.
@pytest.mark.parametrize("g1, g2, ts, coupling", [(1e308, 1.0, [10.0], "g1"),
                                                  (1.0, 1e308, [10.0], "g2"),
                                                  (1e306, 1.0, [0.0, 500.0, 1000.0], "g1")])
def test_overflowing_angles_are_named(g1, g2, ts, coupling):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"2\*{coupling}\*t must be finite, got inf"):
            lmg_batch(g1, g2, ts)
        with pytest.raises(InputError, match=rf"2\*{coupling}\*t must be finite"):
            lmg_gate(LMGParams(g1=g1, g2=g2, t=ts[-1]))


@pytest.mark.parametrize("args, coupling", [
    (["--g1", "1e308", "--g2", "1", "--t", "10"], "g1"),
    (["--g1", "1", "--g2", "1e308", "--t", "10"], "g2"),
    (["--g1", "1e306", "--g2", "1", "--t-max", "1000", "--steps", "3"], "g1"),
])
def test_cli_rejects_overflowing_angles(tmp_path, capsys, args, coupling):
    series = ["--out", str(tmp_path / "x.csv")] if "--t-max" in args else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lmg", *args, *series]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"2*{coupling}*t must be finite" in err
    assert list(tmp_path.iterdir()) == []


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
scalar_types = st.sampled_from([float, complex, np.float16, np.float32, np.float64,
                                np.complex64, np.complex128])


@WARNINGS_ARE_ERRORS
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bad=non_finite, kind=scalar_types,
       imag=st.booleans(), index=st.integers(0, 31))
def test_non_finite_matrix_entries_are_named(seed, bad, kind, imag, index):
    if imag and np.dtype(kind).kind == "c":
        bad = kind(complex(0.0, bad))
    else:
        bad = kind(bad)
    rng = np.random.default_rng(seed)
    u3, u4 = haar_unitary(rng, 3).tolist(), haar_unitary(rng, 4).tolist()
    stack = np.stack([haar_unitary(rng, 4) for _ in range(2)]).tolist()
    u3[index % 9 // 3][index % 3] = bad
    u4[index % 16 // 4][index % 4] = bad
    stack[index // 16][index % 16 // 4][index % 4] = bad
    with pytest.raises(InputError, match=rf"^u3 must be finite, got .* at index {index % 9}$"):
        custom_gate(u3)
    with pytest.raises(InputError, match=rf"^u4 must be finite, got .* at index {index % 16}$"):
        makhlin_g1(u4)
    with pytest.raises(InputError, match=rf"^u4 must be finite, got .* at index {index}$"):
        entangling_power_batch(stack)


def test_finite_non_unitary_matrices_keep_their_message():
    with pytest.raises(ValueError, match="gate custom is not unitary") as info:
        custom_gate(2.0 * np.eye(3))
    assert not isinstance(info.value, InputError)
    scaled = 2.0 * np.eye(4)
    for call, u4 in ((makhlin_g1, scaled), (entangling_power_batch, scaled[None])):
        with pytest.raises(ValueError, match="matrix is not unitary") as info:
            call(u4)
        assert not isinstance(info.value, InputError)


def test_grids_must_be_non_empty_and_one_dimensional():
    with pytest.raises(InputError, match="1-D"):
        gates_batch(4, [])
    with pytest.raises(InputError, match="1-D"):
        lmg_batch(1.0, 1.0, [[0.1, 0.2]])


def test_cli_rejects_non_finite_coupling(capsys):
    assert main(["lmg", "--g1", "nan", "--g2", "1", "--t", "0.3"]) == 2
    assert "--g1" in capsys.readouterr().err
    assert main(["lmg", "--g1", "1", "--g2", "inf", "--t", "0.3"]) == 2
    assert "--g2" in capsys.readouterr().err


def test_cli_rejects_infinite_angle(tmp_path, capsys):
    huge = "9" * 400
    assert main(["gate", "4", "--theta", huge]) == 2
    assert "--theta" in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main(["sweep", "4", "--theta-max", huge, "--steps", "3", "--out", str(out)]) == 2
    assert "--theta-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [(["sweep", "4"], "theta"),
                                           (["lmg", "--g1", "1", "--g2", "2"], "t")],
                         ids=["sweep", "lmg"])
@pytest.mark.parametrize("low, high", [("2", "1"), ("1", "1")], ids=["reversed", "equal"])
def test_cli_rejects_reversed_time_range(tmp_path, capsys, command, name, low, high):
    # an empty or reversed range is one usage error of both series
    out = tmp_path / "x.csv"
    assert main(command + [f"--{name}-min", low, f"--{name}-max", high, "--steps", "5",
                           "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --{name}-max ({high}) must be greater than "
                            f"--{name}-min ({low})\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_a_range_one_ulp_wide_is_a_series_of_both_commands(tmp_path, capsys):
    # linspace repeats the two endpoints' values: the rows are written as they are
    for command, name in ([["sweep", "4"], "theta"], [["lmg", "--g1", "1", "--g2", "2"], "t"]):
        out = tmp_path / f"{name}.csv"
        assert main(command + [f"--{name}-min", "1", f"--{name}-max", "1.0000000000000002",
                               "--steps", "5", "--out", str(out)]) == 0
        assert f"wrote 5 rows to {out}" in capsys.readouterr().out
        assert out.read_text().count("\n") == 6


@WARNINGS_ARE_ERRORS
def test_cli_maps_library_input_errors_to_usage(tmp_path, capsys):
    # Finite endpoints whose difference overflows give a non-finite grid.
    big = "17" + "0" * 307
    rc = main(["sweep", "4", "--theta-min", "-" + big, "--theta-max", big, "--steps", "3",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: thetas must be finite") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_failed_write_keeps_the_existing_file(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("earlier results\n")

    def blocks():
        yield (np.array([0.5]),), np.array([1])
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        cli.write_csv(out, "theta,class", blocks(), cli._Workspace(1))
    assert out.read_text() == "earlier results\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    block = (np.array([0.5, -0.0]),), np.array([0, 3])
    assert cli.write_csv(out, "theta,class", [block], cli._Workspace(2)) == 2
    assert out.read_text() == "theta,class\n0.5,non-entangling\n0,special-perfect-entangler\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


cells = st.floats(allow_subnormal=True) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(cells, cells, st.integers(0, 3)), min_size=1, max_size=20))
def test_row_format_equals_fmt_float(rows):
    xs, ys, levels = zip(*rows)
    fh = io.BytesIO()
    block = (np.array(xs), np.array(ys)), np.array(levels)
    assert cli._write_rows(fh, "x,y,class", [block], cli._Workspace(len(rows))) == len(rows)
    expected = "".join(f"{fmt_float(x)},{fmt_float(y)},{CLASSES[level]}\n"
                       for x, y, level in rows)
    assert fh.getvalue() == ("x,y,class\n" + expected).encode()


# Any float64 by its bits, and values that put the 15-digit rounding on
# edge: ties and near-ties of a 15-digit mantissa, and the neighbours of
# powers of ten, which round to a different exponent or notation.
any_float = st.integers(0, 2 ** 64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
rounding_edges = st.builds(lambda m, half, e: (m + half) * 10.0 ** e,
                           st.integers(10 ** 14, 10 ** 15 - 1), st.sampled_from([0.0, 0.5]),
                           st.integers(-32, 2))
power_neighbours = st.builds(lambda e, toward, sign: sign * np.nextafter(10.0 ** e, toward),
                             st.integers(-27, 16), st.sampled_from([-math.inf, math.inf]),
                             st.sampled_from([-1.0, 1.0]))
float_cells = st.one_of(any_float, rounding_edges, power_neighbours, st.floats())


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(float_cells, float_cells, float_cells, st.integers(0, 3)),
                     min_size=1, max_size=256))
def test_row_kernel_equals_the_per_cell_format_on_any_float64(rows):
    xs, ys, zs, levels = zip(*rows)
    floats = np.array(xs), np.array(ys), np.array(zs)
    cells = [f"{fmt_float(x)},{fmt_float(y)},{fmt_float(z)}" for x, y, z, _ in rows]
    fh, ws = io.BytesIO(), cli._Workspace(len(rows))
    assert cli._write_rows(fh, "x,y,z,class", [(floats, np.array(levels))], ws) == len(rows)
    expected = "".join(f"{row},{CLASSES[level]}\n" for row, level in zip(cells, levels))
    assert fh.getvalue() == ("x,y,z,class\n" + expected).encode()
    fh = io.BytesIO()
    assert cli._write_rows(fh, "x,y,z", [(floats, None)], ws) == len(rows)
    assert fh.getvalue() == ("x,y,z\n" + "".join(f"{row}\n" for row in cells)).encode()


@pytest.mark.parametrize("value, text", [
    (9.999999999999995e-05, "0.0001"),  # rounds up into fixed notation
    (99999.99999999999, "100000"),
    (999999999999999.5, "1e+15"),
    (1000000000000005.0, "1e+15"),  # ties, which '%.15g' breaks to even
    (1000000000000015.0, "1.00000000000002e+15"),
    (5e-324, "4.94065645841247e-324"),
    (1.7976931348623157e308, "1.79769313486232e+308"),
    (0.0, "0"), (-0.0, "0"), (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
])
def test_row_kernel_pins_rounding_and_special_cells(value, text):
    assert "%.15g" % (value + 0.0) == text
    fh = io.BytesIO()
    block = (np.array([value, 0.25]), np.array([-1.5, value])), None
    cli._write_rows(fh, "x,y", [block], cli._Workspace(2))
    assert fh.getvalue() == f"x,y\n{text},-1.5\n0.25,{text}\n".encode()


def test_write_csv_writes_through_a_symlink(tmp_path):
    (tmp_path / "data").mkdir()
    link = tmp_path / "latest.csv"
    link.symlink_to(tmp_path / "data" / "run.csv")
    assert cli.write_csv(link, "t", [((np.array([1.0]),), None)], cli._Workspace(1)) == 1
    assert link.is_symlink()
    assert (tmp_path / "data" / "run.csv").read_text() == "t\n1\n"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
