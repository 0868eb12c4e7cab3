"""The experiment scripts' printed summaries."""

import importlib.util
import math
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# The B4 summary as the script printed it before local gates lost their angle.
B4_LINES = {
    33: "B4: max e_p = 0.222222222222 at theta = 1.570796326795; "
        "perfect entangler for theta in [0.785398, 2.356194]",
    720: "B4: max e_p = 0.222222222217 at theta = 1.568611630930; "
         "perfect entangler for theta in [0.786491, 2.355102]",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("steps", list(B4_LINES))
def test_local_gates_print_no_angle(tmp_path, capsys, steps):
    script = _load("entangling_power_sweep")
    for k in range(1, 5):
        script.sweep(k, math.pi, steps, tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"B{k}: non-entangling on the grid (max e_p <= 1e-09)"
                         for k in range(1, 4)]
    assert lines[3] == B4_LINES[steps]


def test_b8_prints_each_perfect_entangler_run(tmp_path, capsys):
    script = _load("entangling_power_sweep")
    script.sweep(8, math.sqrt(3) * math.pi, 721, tmp_path)
    assert capsys.readouterr().out == (
        "B8: max e_p = 0.222222222222 at theta = 2.720699046351; perfect entangler for theta in "
        "[0.816210, 1.360350], [2.229462, 3.211936], [4.081049, 4.625188]\n")
