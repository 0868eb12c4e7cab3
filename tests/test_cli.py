import hashlib
import json
import math

import numpy as np
import pytest

from symgates.cli import main, parse_angle, parse_spin
from symgates.su3 import M

SQ3 = math.sqrt(3.0)


def write_matrix_file(path, matrix):
    matrix = np.asarray(matrix, dtype=complex)
    payload = {
        "dim": matrix.shape[0],
        "entries": [[[z.real, z.imag] for z in row] for row in matrix],
    }
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("text, value", [
    ("1.5707963", 1.5707963),
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("-pi/4", -math.pi / 4),
    ("2pi/3", 2 * math.pi / 3),
    ("sqrt3*pi/2", SQ3 * math.pi / 2),
    ("sqrt(3)*pi/2", SQ3 * math.pi / 2),
    ("0", 0.0),
    ("1e-3", 1e-3),
    ("2.5e-1pi", 0.25 * math.pi),
    ("-1E2", -100.0),
    ("+3e+1*pi/2", 15 * math.pi),
])
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=0, rel=1e-15)


def test_parse_angle_rejects_junk():
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("two*pi")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("1e")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("1e400")


def test_exponent_angle_prints_the_decimal_report(capsys):
    assert main(["gate", "4", "--theta", "1e-3"]) == 0
    exponent = capsys.readouterr().out
    assert main(["gate", "4", "--theta", "0.001"]) == 0
    assert exponent == capsys.readouterr().out


def test_negative_exponent_bound_is_written_with_equals(tmp_path, capsys):
    out = tmp_path / "b4.csv"
    assert main(["sweep", "4", "--theta-min=-1.5e-1", "--theta-max", "1e-1", "--steps", "3",
                 "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()] == [
        "theta", "-0.15", "-0.025", "0.1"]
    # theta-max - theta-min overflows: a usage error on one stderr line
    assert main(["sweep", "4", "--theta-min=-1.7e308", "--theta-max", "1.7e308", "--steps", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spaced, joined", [
    ("sweep 4 --theta-min -pi/2 --theta-max 1 --steps 5 --out OUT",
     "sweep 4 --theta-min=-pi/2 --theta-max 1 --steps 5 --out OUT"),
    ("lmg --g1 -1e-3 --g2 -2 --t-min -1 --t-max 1 --steps 5 --out OUT",
     "lmg --g1=-1e-3 --g2=-2 --t-min=-1 --t-max 1 --steps 5 --out OUT"),
    ("gate 8 --theta -sqrt3*pi/2", "gate 8 --theta=-sqrt3*pi/2"),
    ("act 4 --theta -pi/2 --alpha -pi/3 --phi -1e-2",
     "act 4 --theta=-pi/2 --alpha=-pi/3 --phi=-1e-2"),
    ("lmg --g1 -1 --g2 -2.5e-1 --t -pi/8", "lmg --g1=-1 --g2=-2.5e-1 --t=-pi/8"),
])
def test_negative_values_may_be_separate_arguments(tmp_path, capsys, spaced, joined):
    outputs = []
    for form, line in (("spaced", spaced), ("joined", joined)):
        out = tmp_path / f"{form}.csv"
        assert main(line.replace("OUT", str(out)).split()) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((stdout, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, name", [
    (["gate", "8", "--theta", "1.6e308"], "2*theta/sqrt3"),
    (["lmg", "--g1", "1", "--g2", "6e307", "--t", "1"], "4*g2*t"),
    (["sweep", "4", "--theta-min", "-1.7e308", "--theta-max", "1.7e308", "--steps", "3"],
     "thetas"),
])
def test_overflowing_products_exit_2_with_one_named_line(tmp_path, capsys, argv, name):
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []
    assert main(argv + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_overflowing_decompose_exits_2_with_one_named_line_and_no_coefficient(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_matrix_file(path, np.diag([1e308, -1e308, 1e308]))
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: h must be finite, got inf\n"


def test_parse_spin():
    assert parse_spin("3/2") == 1.5
    assert parse_spin("1") == 1.0
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_spin("0.3")


def test_basis_verify(capsys):
    assert main(["basis", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "128/128 table entries verified" in out
    assert "8/8 Gell-Mann relations verified" in out


def test_basis_show(capsys):
    assert main(["basis", "--show", "M3"]) == 0
    out = capsys.readouterr().out
    assert "M3 =" in out
    assert "[1+0i, 0+0i, 0+0i]" in out
    assert "[0+0i, 0+0i, -1+0i]" in out


def test_basis_count(capsys):
    assert main(["basis", "--j", "3/2", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_basis_default_prints_all(capsys):
    assert main(["basis"]) == 0
    out = capsys.readouterr().out
    for k in range(9):
        assert f"M{k} =" in out


def test_basis_tensor_basis_listing(capsys):
    assert main(["basis", "--j", "1/2", "--tensor-basis"]) == 0
    out = capsys.readouterr().out
    assert out.count("T(") == 4
    assert "T(zero, k=0, q=0) for j = 0.5:" in out


def test_gate_special_perfect_entangler(capsys):
    assert main(["gate", "4", "--theta", "pi/2"]) == 0
    out = capsys.readouterr().out
    assert "class = special-perfect-entangler" in out
    assert "e_p = 0.222222222222222" in out


def test_gate_local(capsys):
    assert main(["gate", "3", "--theta", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "class = non-entangling" in out
    assert "e_p = 0" in out.splitlines()[-2] or "e_p = 0" in out


def test_gate_boundary(capsys):
    assert main(["gate", "4", "--theta", "pi/4"]) == 0
    out = capsys.readouterr().out
    assert "e_p = 0.166666666666667" in out
    assert "class = perfect-entangler" in out


def test_gate_accepts_decimal_angle(capsys):
    assert main(["gate", "4", "--theta", "1.5707963"]) == 0
    out = capsys.readouterr().out
    ep = float([ln for ln in out.splitlines() if ln.startswith("e_p")][0].split("=")[1])
    assert ep == pytest.approx(2 / 9, abs=1e-9)
    assert "class = special-perfect-entangler" in out


def test_gate_rejects_bad_index(capsys):
    assert main(["gate", "9", "--theta", "0.5"]) == 2


def test_sweep_b4(tmp_path, capsys):
    out_file = tmp_path / "b4.csv"
    assert main(["sweep", "4", "--theta-max", "pi/2", "--steps", "5",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "theta,g1_abs,ep,class"
    assert len(lines) == 6
    for line in lines[1:]:
        theta, g1_abs, ep, _ = line.split(",")
        expected = (2 / 9) * (1 - math.cos(float(theta)) ** 4)
        assert float(ep) == pytest.approx(expected, abs=1e-12)
        assert float(g1_abs) == pytest.approx(math.cos(float(theta)) ** 4, abs=1e-12)


def test_sweep_b3_all_zero(tmp_path):
    out_file = tmp_path / "b3.csv"
    assert main(["sweep", "3", "--theta-max", "pi", "--steps", "7",
                 "--out", str(out_file)]) == 0
    for line in out_file.read_text().splitlines()[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_b8_endpoint(tmp_path):
    out_file = tmp_path / "b8.csv"
    assert main(["sweep", "8", "--theta-max", "sqrt3*pi/2", "--steps", "4",
                 "--out", str(out_file)]) == 0
    last = out_file.read_text().splitlines()[-1]
    assert float(last.split(",")[2]) == pytest.approx(2 / 9, abs=1e-12)
    assert last.endswith("special-perfect-entangler")


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "5", "--theta-max", "pi", "--steps", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_few_steps(tmp_path, capsys):
    assert main(["sweep", "4", "--theta-max", "pi", "--steps", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_act_maximally_entangling(capsys):
    assert main(["act", "4", "--theta", "pi/2", "--alpha", "pi/2", "--phi", "0"]) == 0
    out = capsys.readouterr().out
    assert "concurrence = 1" in out


def test_act_local_gate(capsys):
    assert main(["act", "1", "--theta", "1.0", "--alpha", "0.3", "--phi", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "concurrence = " in out
    conc = float(out.splitlines()[-1].split("=")[1])
    assert conc == pytest.approx(0.0, abs=1e-12)


def test_act_b5_pole(capsys):
    assert main(["act", "5", "--theta", "pi/2", "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "output vec4 = [0.5+0i, -0.5+0i, -0.5+0i, -0.5+0i]" in out
    assert "concurrence = 1" in out


def test_lmg_single_report(capsys):
    # 2 g2 t = pi/2 + 2 g1 t at t = pi/8, g1 = 1 gives g2 = 3.
    assert main(["lmg", "--g1", "1", "--g2", "3", "--t", "pi/8"]) == 0
    out = capsys.readouterr().out
    assert "e_p = 0.222222222222222" in out
    assert "class = special-perfect-entangler" in out
    assert "concurrence(B_L |upup>) = 1" in out


def test_lmg_zero_time(capsys):
    assert main(["lmg", "--g1", "1", "--g2", "0.5", "--t", "0"]) == 0
    out = capsys.readouterr().out
    conc = float(out.splitlines()[-1].split("=")[1])
    assert conc == pytest.approx(0.0, abs=1e-12)
    assert "class = non-entangling" in out


def test_lmg_series(tmp_path):
    out_file = tmp_path / "lmg.csv"
    assert main(["lmg", "--g1", "1", "--g2", "0.5", "--t-max", "pi",
                 "--steps", "9", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,ep,concurrence"
    rows = [line.split(",") for line in lines[1:]]
    # multiples of pi/4 (every second grid point) have zero concurrence
    for i, row in enumerate(rows):
        conc = float(row[2])
        if i % 2 == 0:
            assert conc == pytest.approx(0.0, abs=1e-10)
        else:
            assert conc == pytest.approx(1.0, abs=1e-10)


def test_lmg_accepts_large_couplings(capsys):
    assert main(["lmg", "--g1", "1e4", "--g2", "3e4", "--t", "0.1"]) == 0
    assert "class = " in capsys.readouterr().out


def test_internal_check_failure_is_one_line_with_exit_3(tmp_path, capsys, monkeypatch):
    from symgates import entanglement

    def failing_tail(*invariants):
        raise RuntimeError("entangling power 0.3 out of range [0, 2/9]")

    # one gate is scored by the scalar tail, a grid by the vector tail
    monkeypatch.setattr(entanglement, "_power", failing_tail)
    monkeypatch.setattr(entanglement, "_power_batch", failing_tail)
    assert main(["gate", "4", "--theta", "0.3"]) == 3
    assert capsys.readouterr().err == (
        "error: internal check failed: entangling power 0.3 out of range [0, 2/9]\n")
    out = tmp_path / "b4.csv"
    assert main(["sweep", "4", "--theta-max", "pi", "--steps", "5", "--out", str(out)]) == 3
    assert "internal check failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lmg_requires_time_argument(tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert main(["lmg", "--g1", "1", "--g2", "1", "--steps", "5", "--out", str(out)]) == 2
    assert "one of the arguments --t --t-max is required" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("series, named", [
    (["--t-min", "0"], "--t-min"),
    (["--steps", "5"], "--steps"),
    (["--out", "y.csv"], "--out"),
    (["--steps", "5", "--out", "y.csv"], "--steps, --out"),
])
def test_lmg_single_time_rejects_series_options(tmp_path, capsys, series, named):
    series = [str(tmp_path / arg) if arg == "y.csv" else arg for arg in series]
    assert main(["lmg", "--g1", "1", "--g2", "1", "--t", "0.3", *series]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} not allowed with --t (a series takes --t-max)\n"
    assert list(tmp_path.iterdir()) == []


def test_lmg_rejects_single_time_and_series_together(tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert main(["lmg", "--g1", "1", "--g2", "1", "--t", "0.3", "--t-max", "2",
                 "--steps", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_decompose_basis_element(tmp_path, capsys):
    path = tmp_path / "m7.json"
    write_matrix_file(path, M[7])
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "h7 = 2" in out
    assert "h0 = 0" in out
    assert "reconstruction residual = 0" in out


def test_decompose_collective_hamiltonian(tmp_path, capsys):
    from symgates.gates import lmg_hamiltonian
    path = tmp_path / "lmg.json"
    write_matrix_file(path, lmg_hamiltonian(1.0, 1.0))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if line.startswith("h"):
            key, _, val = line.partition(" = ")
            values[key] = float(val)
    assert values["h7"] == pytest.approx(4.0, abs=1e-12)
    assert values["h0"] == pytest.approx(8 * math.sqrt(2.0 / 3.0), abs=1e-12)
    assert values["h8"] == pytest.approx(-4 / SQ3, abs=1e-12)


def test_decompose_rejects_non_hermitian(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_matrix_file(path, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert main(["decompose", str(path)]) == 1
    assert "Hermitian" in capsys.readouterr().err


def test_decompose_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2
    path.write_text(json.dumps({"dim": 5, "entries": []}))
    assert main(["decompose", str(path)]) == 2


def test_decompose_rejects_wrong_dimension(tmp_path, capsys):
    path = tmp_path / "two.json"
    write_matrix_file(path, np.eye(2))
    assert main(["decompose", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: h must be a 3x3 matrix, got shape (2, 2)\n"


def test_gate_report_is_deterministic(capsys):
    assert main(["gate", "6", "--theta", "0.9"]) == 0
    first = capsys.readouterr().out
    assert main(["gate", "6", "--theta", "0.9"]) == 0
    assert capsys.readouterr().out == first


# SHA-256 of the standard output of reports that go through the tensor and
# M-basis kernels, captured from the per-operator implementation that
# preceded the stacked kernels; the output must not change by a byte.  The
# `act` hashes of B8, B2 and B5 were retaken when `apply_gate` started to
# embed u3 @ vec3 instead of multiplying by u4: their last printed digit
# moved (amplitudes by at most 1.6e-16, the B2 concurrence from 0 to 2.2e-16).
# Like the CSV hashes of test_batch.py they depend on numpy's SIMD dispatch:
# without FMA kernels the third report (`act 1 --theta 0.3`) prints other
# last digits.
DECOMPOSE_INPUTS = {
    "9ead8f7740c546965f98afae50fb9308b5ba2736786e260a2ccc3a4349b6ab78": [
        [[1.0, 0], [0.5, -0.25], [0, 0.3]],
        [[0.5, 0.25], [-2.0, 0], [0.125, 0.7]],
        [[0, -0.3], [0.125, -0.7], [0.75, 0]]],
    "831b094b9a81e281e7daae121c099a7c384fb5a514c547ccae5354c1301c0582": [
        [[0.3333333333333333, 0], [0.1, 0.2], [-0.7071067811865476, 0.1]],
        [[0.1, -0.2], [1.4142135623730951, 0], [2.5, -3.25]],
        [[-0.7071067811865476, -0.1], [2.5, 3.25], [-1.7320508075688772, 0]]],
    "2df7b8bead086c24d8d36de799f8c9535e87f46787c83e55cb81b7d948b1b945": [
        [[2, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-2, 0]]],
}
REPORT_STDOUT_SHA256 = {
    ("act", "4", "--theta", "pi/2", "--alpha", "pi/2", "--phi", "0"):
        "affff49b57a014711f82d5ec83fda834b86ad1e4f24dd97a3ead9d32375deb48",
    ("act", "8", "--theta", "sqrt3*pi/2", "--alpha", "1.234", "--phi", "5.678"):
        "575bd8bb8b585fd36e08a46bc73d38a987378a61c679014b4a7d1a47b51a900c",
    ("act", "1", "--theta", "0.3", "--alpha", "-0.5", "--phi", "7"):
        "390c772f2bb8aafa788bd972a7044718c4ce29e3820878264e10fd099caf6763",
    ("act", "6", "--theta", "2.5", "--alpha", "3.5", "--phi", "-1"):
        "0b3188f3b3c56a220f55749fabacd3a77116af3cb7042a0d9c220455ec7b1ea9",
    ("act", "2", "--theta", "-1.1", "--alpha", "pi", "--phi", "pi"):
        "71df406919626718b46cf4a9e37975d18cff886f59451c4b759fb5d0e2baba3f",
    ("act", "5", "--theta", "0.77", "--alpha", "6.5", "--phi", "0.01"):
        "a3343e4012a321cb7c64c42af6539ebca9d003b2c5015165a21d86900a9e8461",
    ("basis", "--tensor-basis", "--j", "3/2"):
        "f409f181910e6736c40fc09fc0de6e7a6178e435d70cd0c05c76a6dff854e3cc",
}


def _stdout_sha256(capsys) -> str:
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("digest", list(DECOMPOSE_INPUTS))
def test_decompose_output_is_unchanged(tmp_path, capsys, digest):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"dim": 3, "entries": DECOMPOSE_INPUTS[digest]}))
    assert main(["decompose", str(path)]) == 0
    assert _stdout_sha256(capsys) == digest


@pytest.mark.parametrize("argv", list(REPORT_STDOUT_SHA256))
def test_report_output_is_unchanged(capsys, argv):
    assert main(list(argv)) == 0
    assert _stdout_sha256(capsys) == REPORT_STDOUT_SHA256[argv]
