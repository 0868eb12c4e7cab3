import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgates import cli, su3
from symgates.cli import main, parse_angle, parse_spin
from symgates.entanglement import CLASSES, NON_ENTANGLING, PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER
from symgates.su3 import M

from helpers import WARNINGS_ARE_ERRORS

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
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("two*pi")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("1e")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("1e400")


@pytest.mark.parametrize("text, value", [
    (".5", 0.5), ("5.", 5.0), ("-.25pi", -0.25 * math.pi), (".5e1", 5.0), ("+5.e-1", 0.5),
    ("-.5*sqrt3", -0.5 * SQ3), ("3.*pi/2", 1.5 * math.pi),
    ("pi/.5", math.pi / 0.5), ("pi/2.", math.pi / 2.0), ("pi/1e1", math.pi / 10.0),
    ("3pi/2.5e-1", 3 * math.pi / 0.25),
])
def test_parse_angle_reads_a_decimal_as_float_does(text, value):
    assert parse_angle(text) == value


@pytest.mark.parametrize("text", [".", "-.", "pi.", "e5", ".e5", "5..", "1.2.3", "pi/.",
                                  "pi/0", "pi/0.", "pi/.0e3", "pi/1e-400", "pi/1e400", "pi/-2"])
def test_parse_angle_rejects_a_bare_point_or_exponent(text):
    with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle"):
        parse_angle(text)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_parse_angle_reads_back_repr(x):
    value = parse_angle(repr(x))
    assert value == x and math.copysign(1.0, value) == math.copysign(1.0, x)


def test_a_point_decimal_angle_gives_the_same_report(capsys):
    assert main(["gate", "4", "--theta", ".5"]) == 0
    short = capsys.readouterr().out
    assert main(["gate", "4", "--theta", "0.5"]) == 0
    assert short == capsys.readouterr().out


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


@WARNINGS_ARE_ERRORS
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


@WARNINGS_ARE_ERRORS
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


@pytest.mark.parametrize("spin", ["3/2", "1/2", "0", "2"])
def test_basis_verify_checks_only_spin_1(capsys, spin):
    assert main(["basis", "--j", spin, "--verify", "--count"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --verify checks only the spin-1 tables, "
                            f"got --j {cli.fmt_float(parse_spin(spin))}\n")
    assert main(["basis", "--verify"]) == 0
    default = capsys.readouterr()
    assert main(["basis", "--j", "1", "--verify"]) == 0
    assert capsys.readouterr() == default


def test_basis_verify_reports_each_broken_relation(capsys, monkeypatch):
    # one commutator entry with the wrong sign, one triplet scale doubled, a
    # "vanishing" pair that does not commute and one wrong Gell-Mann relation
    monkeypatch.setitem(su3.COMMUTATOR_TABLE.entries, (1, 2), ((1j, 3),))
    monkeypatch.setattr(su3, "VECTOR_TRIPLETS", (((1, 2, 3), 2.0),) + su3.VECTOR_TRIPLETS[1:])
    monkeypatch.setattr(su3, "VANISHING_COMMUTATOR_PAIRS", su3.VANISHING_COMMUTATOR_PAIRS + ((1, 2),))
    monkeypatch.setitem(su3.GELLMANN_RELATIONS, 7, ((-1.0, 4),))
    report = su3.verify_algebra_tables()
    assert report.entries_checked == 128 and len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert (mismatch.kind, mismatch.k, mismatch.kp) == ("commutator", 1, 2)
    assert mismatch.residual == pytest.approx(2.0, abs=1e-13)  # [M1, M2] = -i M3, not i M3
    np.testing.assert_array_equal(mismatch.expected, 1j * np.eye(9)[3])
    np.testing.assert_allclose(mismatch.computed, -1j * np.eye(9)[3], rtol=0, atol=1e-15)
    assert not report.triplets_ok
    assert not report.vanishing_ok and report.vanishing_residual == pytest.approx(1.0, abs=1e-15)
    assert not report.passed
    gm = su3.verify_gellmann()
    assert gm.relations_checked == 8 and gm.failures == (7,) and not gm.passed
    assert gm.max_residual == pytest.approx(2.0, abs=1e-15)  # M7 = lambda4, not -lambda4

    assert main(["basis", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "127/128 table entries verified, 7/8 Gell-Mann relations verified\n"
    assert captured.err.splitlines() == [
        str(mismatch),
        "vector triplet relations failed",
        "vanishing commutators with M8 failed",
        "Gell-Mann relation for M7 failed",
    ]
    assert str(mismatch).startswith("commutator(M1, M2): residual 2.000e+00, expected coefficients (")


def test_basis_show(capsys):
    assert main(["basis", "--show", "M3"]) == 0
    out = capsys.readouterr().out
    assert "M3 =" in out
    assert "[1+0i, 0+0i, 0+0i]" in out
    assert "[0+0i, 0+0i, -1+0i]" in out


@pytest.mark.parametrize("show", ["M9", "1.5", ""])
def test_basis_rejects_a_bad_show_naming_the_option(capsys, show):
    assert main(["basis", "--show", show]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --show takes M0..M8 or 0..8, got {show!r}\n"


def test_basis_rejects_an_unsupported_spin_as_a_usage_error(capsys):
    assert main(["basis", "--j", "7/2", "--tensor-basis"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: j = 3.5 exceeds the supported maximum j = 2.5\n"


def test_basis_count(capsys):
    assert main(["basis", "--j", "3/2", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "16"


@pytest.mark.parametrize("spin", ["1e400", "inf", "-inf", "nan", "1e400/2", "inf/inf"])
def test_basis_rejects_a_non_finite_spin(capsys, spin):
    assert main(["basis", f"--j={spin}", "--count"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"symgates basis: error: argument --j: spin must be finite, got {spin!r}")


@pytest.mark.parametrize("spin, message", [
    ("-1/2", "spin must be a non-negative half-integer, got '-1/2'"),
    ("-inf", "spin must be finite, got '-inf'"),
])
def test_basis_reads_a_negative_spin_given_either_way(capsys, spin, message):
    for argv in (["basis", "--j", spin, "--count"], ["basis", f"--j={spin}", "--count"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"symgates basis: error: argument --j: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["basis", "--j", "abc", "--count"], "symgates basis: error: argument --j: cannot parse spin 'abc'"),
    (["lmg", "--g1", "abc", "--g2", "1", "--t", "0.3"],
     "symgates lmg: error: argument --g1: expected a finite number, got 'abc'"),
])
def test_a_non_numeric_value_is_a_usage_error_naming_the_option(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message


def test_help_after_a_flag_is_still_help(capsys):
    assert main(["basis", "--count", "-h"]) == 0
    assert "--tensor-basis" in capsys.readouterr().out


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


def _series_report(argv):
    """The lines that `main(argv)` prints after its row count, with --out a
    new file."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv + ["--out", os.path.join(tmp, "series.csv")]) == 0
    wrote, *summary = out.getvalue().splitlines()
    assert wrote.startswith("wrote ")
    return summary


# The B4 summary as the sweep script printed it before local gates lost their angle.
B4_LINES = {
    33: "B4: max e_p = 0.222222222222 at theta = 1.570796326795; "
        "perfect entangler for theta in [0.785398, 2.356194]",
    720: "B4: max e_p = 0.222222222217 at theta = 1.568611630930; "
         "perfect entangler for theta in [0.786491, 2.355102]",
}


@pytest.mark.parametrize("steps", list(B4_LINES))
def test_local_gates_print_no_angle(steps):
    lines = [line for k in range(1, 5)
             for line in _series_report(["sweep", str(k), "--theta-max", "pi", "--steps", str(steps)])]
    assert lines[:3] == [f"B{k}: non-entangling on the grid (max e_p <= 1e-09)"
                         for k in range(1, 4)]
    assert lines[3] == B4_LINES[steps]


def test_b8_prints_each_perfect_entangler_run():
    assert _series_report(["sweep", "8", "--theta-max", "sqrt3*pi", "--steps", "721"]) == [
        "B8: max e_p = 0.222222222222 at theta = 2.720699046351; perfect entangler for theta in "
        "[0.816210, 1.360350], [2.229462, 3.211936], [4.081049, 4.625188]"]


# The LMG profile script's summary over t in [0, pi], as it printed it.
LMG_LINES = {
    (1, 2, 65): "maximal entangling power first expected at t = 0.261799, 0.785398; "
                "grid hits: 0.785398, 2.356194",
    (1, 2, 1441): "maximal entangling power first expected at t = 0.261799, 0.785398; "
                  "grid hits: 0.261799, 0.783217, 0.785398, 0.787580, 1.308997, 1.832596, "
                  "2.354013, 2.356194",
    (1, 1, 65): "maximal entangling power first expected at t = 0.392699; "
                "grid hits: 0.392699, 1.178097, 1.963495, 2.748894",
    (1, 1, 1441): "maximal entangling power first expected at t = 0.392699; "
                  "grid hits: 0.392699, 1.178097, 1.963495, 2.748894",
}


@pytest.mark.parametrize("g1, g2, steps", list(LMG_LINES))
def test_lmg_series_prints_the_profile_summary(g1, g2, steps):
    assert _series_report(["lmg", "--g1", str(g1), "--g2", str(g2), "--t-max", "pi",
                           "--steps", str(steps)]) == [
        "concurrence zeros near t = 0.000000, 0.785398, 1.570796, 2.356194, 3.141593",
        "  (expected multiples of pi/(4 g1) = 0.785398)",
        "concurrence maxima near t = 0.392699, 1.178097, 1.963495, 2.748894",
        LMG_LINES[g1, g2, steps]]


@pytest.mark.parametrize("g1, g2, spacing, first", [
    ("0", "1", "  (g1 = 0: the concurrence is 0 at every t)", "first expected at t = 0.785398"),
    ("0", "0", "  (g1 = 0: the concurrence is 0 at every t)", "never expected (g1 = g2 = 0)"),
    ("1", "-1", "  (expected multiples of pi/(4 g1) = 0.785398)", "first expected at t = 0.392699"),
    ("-1", "2", "  (expected multiples of pi/(4 g1) = 0.785398)",
     "first expected at t = 0.261799, 0.785398"),
])
def test_lmg_summary_without_a_spacing_or_a_branch_exits_0_quietly(capsys, g1, g2, spacing, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = _series_report(["lmg", "--g1", g1, "--g2", g2, "--t-max", "pi", "--steps", "65"])
    assert capsys.readouterr().err == ""
    assert lines[1] == spacing
    assert lines[3].startswith(f"maximal entangling power {first}; grid hits: ")
    if g1 == "0":
        assert lines[0].startswith("concurrence zeros near t = 0.000000, 0.049087, ")
        assert lines[2] == "concurrence maxima near t = none on grid"


@pytest.mark.parametrize("t_min, t_max, steps, zeros, maxima", [
    # the 5000-point grid passes within 1e-9 of no maximum of |sin(3.6 t)|
    ("0", "pi", 5000, "0.000000", "none on grid"),
    ("0.1", "0.8", 8, "none on grid", "none on grid"),
])
def test_lmg_summary_says_none_on_grid_for_an_empty_list(t_min, t_max, steps, zeros, maxima):
    grid = np.linspace(float(t_min), cli.parse_angle(t_max), steps)
    columns = _concatenated(cli.lmg_blocks(0.9, 1.7, grid, cli._Workspace(min(steps, cli._BLOCK))))
    lines = _series_report(["lmg", "--g1", "0.9", "--g2", "1.7", "--t-min", t_min,
                            "--t-max", t_max, "--steps", str(steps)])
    assert lines == _script_lmg_lines(0.9, 1.7, columns)
    assert lines[0] == f"concurrence zeros near t = {zeros}"
    assert lines[2] == f"concurrence maxima near t = {maxima}"


def _script_sweep_line(k, columns):
    """The sweep script's summary line, from all rows at once, listing the
    first eight windows."""
    rows = [(*row[:3], CLASSES[row[3]]) for row in zip(*columns)]
    runs = [[row[0] for row in run] for labelled, run in itertools.groupby(
        rows, lambda row: row[3] in (PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER)) if labelled]
    best_theta, _, best_ep, best_class = max(rows, key=lambda row: row[2])
    if best_class == NON_ENTANGLING:
        return f"B{k}: non-entangling on the grid (max e_p <= 1e-09)"
    if runs:
        windows = ", ".join(f"[{run[0]:.6f}, {run[-1]:.6f}]" for run in runs[:8])
        if len(runs) > 8:
            windows += f" and {len(runs) - 8} more"
        summary = f"perfect entangler for theta in {windows}"
    else:
        summary = "never a perfect entangler"
    return f"B{k}: max e_p = {best_ep:.12f} at theta = {best_theta:.12f}; {summary}"


def _script_lmg_lines(g1, g2, columns):
    """The LMG profile script's summary lines, from all rows at once."""
    rows = list(zip(*columns))
    zeros = [t for t, _, conc in rows if conc < 1e-9]
    maxima = [t for t, _, conc in rows if conc > 1.0 - 1e-9]
    spe_times = [t for t, ep, _ in rows if abs(ep - 2.0 / 9.0) < 1e-9]
    expected = []
    if g2 != g1:
        expected.append((math.pi / 2) / (2 * (g2 - g1)))
    if g2 != -g1:
        expected.append((math.pi / 2) / (2 * (g2 + g1)))
    return [f"concurrence zeros near t = "
            f"{', '.join(f'{t:.6f}' for t in zeros[:8]) or 'none on grid'}",
            f"  (expected multiples of pi/(4 g1) = {math.pi / (4 * g1):.6f})",
            f"concurrence maxima near t = "
            f"{', '.join(f'{t:.6f}' for t in maxima[:8]) or 'none on grid'}",
            f"maximal entangling power first expected at t = "
            f"{', '.join(f'{t:.6f}' for t in sorted(abs(t) for t in expected))}; "
            f"grid hits: {', '.join(f'{t:.6f}' for t in spe_times[:8]) or 'none on grid'}"]


def _concatenated(blocks):
    """A series' columns from its blocks: the floats, then the levels if any."""
    return [np.concatenate(column) for column in zip(*(
        floats if level is None else (*floats, level) for floats, level in blocks))]


STEPS_ABOUT_A_BLOCK = [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), steps=st.sampled_from(STEPS_ABOUT_A_BLOCK),
       edge=st.sampled_from([1, 3, 5, 7]), h=st.floats(1e-4, 3e-3) | st.floats(0.02, 0.03),
       at=st.sampled_from([cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK]))
# Steps of 0.02 or more give B4..B7 more than eight runs, whose summary
# lists eight.  With the run start pi/4 half a step before row 0, the 8th
# run (h = 22.5 / _BLOCK) or the 9th (h = 25.6 / _BLOCK) spans the block
# boundary at row _BLOCK.
@example(k=4, steps=2 * cli._BLOCK + 1, edge=1, h=22.5 / cli._BLOCK, at=0)
@example(k=5, steps=2 * cli._BLOCK + 1, edge=1, h=25.6 / cli._BLOCK, at=0)
@example(k=6, steps=cli._BLOCK + 1, edge=1, h=25.6 / cli._BLOCK, at=0)
def test_sweep_summary_streamed_equals_the_one_shot_reference(k, steps, edge, h, at):
    # B4..B7 are labelled perfect entanglers on [pi/4, 3 pi/4] mod pi: the
    # angle edge * pi/4 falls half a step before grid point `at`, so a run
    # starts or ends at, or one row from, a block boundary
    theta_min = edge * math.pi / 4 + (0.5 - at) * h
    theta_max = theta_min + (steps - 1) * h
    expected = _script_sweep_line(k, _concatenated(
        cli.sweep_blocks(k, np.linspace(theta_min, theta_max, steps), cli._Workspace(cli._BLOCK))))
    assert _series_report(["sweep", str(k), f"--theta-min={theta_min!r}",
                           f"--theta-max={theta_max!r}", "--steps", str(steps)]) == [expected]


def test_sweep_summary_takes_the_first_of_equal_maxima_across_blocks():
    # cos is even, so e_p at -pi/2 (row 0) and pi/2 (row _BLOCK, the next block) is equal
    steps = cli._BLOCK + 1
    argv = ["sweep", "4", "--theta-min", "-pi/2", "--theta-max", "pi/2", "--steps", str(steps)]
    columns = _concatenated(cli.sweep_blocks(4, np.linspace(-math.pi / 2, math.pi / 2, steps),
                                             cli._Workspace(cli._BLOCK)))
    assert columns[2][0] == columns[2][-1] == max(columns[2])
    assert _series_report(argv) == [_script_sweep_line(4, columns)] == [
        "B4: max e_p = 0.222222222222 at theta = -1.570796326795; "
        "perfect entangler for theta in [-1.570796, -0.785398], [0.785398, 1.570796]"]


@settings(max_examples=40, deadline=None)
@given(g1=st.floats(0.1, 10), ratio=st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.1, 4),
       period=st.integers(1, cli._BLOCK // 3), steps=st.sampled_from(STEPS_ABOUT_A_BLOCK))
def test_lmg_summary_streamed_equals_the_one_shot_reference(g1, ratio, period, steps):
    # the concurrence |sin 4 g1 t| is 0 every `period` grid points, so the
    # first eight zeros reach past the first block when period > _BLOCK / 7
    g2 = g1 * ratio
    t_max = (steps - 1) * math.pi / (4 * g1 * period)
    expected = _script_lmg_lines(g1, g2, _concatenated(
        cli.lmg_blocks(g1, g2, np.linspace(0.0, t_max, steps), cli._Workspace(cli._BLOCK))))
    assert _series_report(["lmg", "--g1", repr(g1), "--g2", repr(g2), "--t-max", repr(t_max),
                           "--steps", str(steps)]) == expected


def _symgates(argv, stdout=subprocess.PIPE, unbuffered=False):
    """`symgates argv` in a child process, through the console script's entry point."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "from symgates.cli import main_entry; main_entry()"
    return subprocess.run([sys.executable, "-c", code, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sweep_writes_its_csv_into_a_stdout_pipe(tmp_path):
    # /dev/stdout links to /proc/<pid>/fd/1, which names a pipe as
    # 'pipe:[N]': resolving that link gives a path that does not exist
    # the report goes to stderr, so that stdout holds the CSV alone
    argv = ["sweep", "4", "--theta-max", "pi", "--steps", "3"]
    run = _symgates(argv + ["--out", "/dev/stdout"])
    assert run.returncode == 0
    assert main(argv + ["--out", str(tmp_path / "b4.csv")]) == 0
    csv = (tmp_path / "b4.csv").read_bytes()
    assert run.stdout == csv
    assert csv.startswith(b"theta,g1_abs,ep,class\n")
    assert run.stderr == (b"wrote 3 rows to /dev/stdout\n"
                          b"B4: max e_p = 0.222222222222 at theta = 1.570796326795; "
                          b"perfect entangler for theta in [1.570796, 1.570796]\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_stdout_early_is_not_an_error(tmp_path, unbuffered):
    # as `symgates ... | head -1` when head exits before the report's last
    # line: the CSV is complete, and no traceback or error line follows;
    # or before the CSV's last row, with --out /dev/stdout: the command ends
    # there, with no report (3 rows fail when the file is closed, 5000 on a
    # write part way)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = tmp_path / "b4.csv"
        sweep = _symgates(["sweep", "4", "--theta-max", "pi", "--steps", "3", "--out", str(out)],
                          stdout=write_end, unbuffered=unbuffered)
        report = _symgates(["gate", "4", "--theta", "pi/2"], stdout=write_end,
                           unbuffered=unbuffered)
        piped = [_symgates(["sweep", "4", "--theta-max", "pi", "--steps", steps,
                            "--out", "/dev/stdout"], stdout=write_end, unbuffered=unbuffered)
                 for steps in ("3", "5000")]
    finally:
        os.close(write_end)
    assert (sweep.returncode, sweep.stderr) == (0, b"")
    assert (report.returncode, report.stderr) == (0, b"")
    assert out.read_text().count("\n") == 4
    assert [(run.returncode, run.stderr) for run in piped] == [(0, b""), (0, b"")]


HUGE_SERIES = [["sweep", "4", "--theta-max", "pi"],
               ["lmg", "--g1", "1", "--g2", "1", "--t-max", "2"]]


@pytest.mark.parametrize("steps", [2**62, 2**63])
@pytest.mark.parametrize("series", HUGE_SERIES, ids=["sweep", "lmg"])
def test_a_grid_numpy_refuses_to_allocate_exits_2_naming_steps(tmp_path, capsys, series, steps):
    # numpy refuses these sizes before it allocates: a ValueError at 2**62,
    # an IndexError at 2**63
    out = tmp_path / "big.csv"
    assert main(series + ["--steps", str(steps), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --steps {steps} is too large: "
                            "the grid does not fit in memory\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("series", HUGE_SERIES, ids=["sweep", "lmg"])
def test_a_grid_that_does_not_fit_in_memory_exits_2_naming_steps(tmp_path, capsys, monkeypatch,
                                                                 series):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(np, "linspace", no_memory)
    out = tmp_path / "big.csv"
    assert main(series + ["--steps", "1000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --steps 1000000000000 is too large: "
                                       "the grid does not fit in memory\n")
    assert list(tmp_path.iterdir()) == []


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


def test_lmg_series_requires_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["lmg", "--g1", "1", "--g2", "1", "--t-max", "2", "--steps", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --out is required for a series\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("series", [["sweep", "4", "--theta-max", "pi"],
                                    ["lmg", "--g1", "1", "--g2", "1", "--t-max", "2"]],
                         ids=["sweep", "lmg"])
def test_a_series_into_a_missing_directory_exits_2_on_one_line(tmp_path, capsys, series):
    out = tmp_path / "missing" / "x.csv"
    assert main(series + ["--steps", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
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


ZERO_ENTRIES = [[[0.0, 0.0]] * 3] * 3
INFINITE_ENTRIES = [[[0.0, 0.0]] * 3, [[0.0, 0.0], [0.0, math.inf], [0.0, 0.0]], [[0.0, 0.0]] * 3]


@pytest.mark.parametrize("payload, message", [
    ({"entries": ZERO_ENTRIES}, "matrix file must contain 'dim' and 'entries' fields"),
    ({"dim": 3}, "matrix file must contain 'dim' and 'entries' fields"),
    ({"dim": 3, "entries": INFINITE_ENTRIES}, "matrix entries must be finite"),
], ids=["no-dim", "no-entries", "infinity"])
def test_decompose_rejects_a_file_without_a_finite_matrix(tmp_path, capsys, payload, message):
    # json writes and reads an infinite entry as Infinity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["decompose", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
