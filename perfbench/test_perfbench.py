"""Self-tests of the benchmark at tiny size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle, tracing, worker, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

symgates = worker.import_package()


def _run(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def runs_of_all() -> dict:
    return {trace: _run("--workload", "all", "--seed", "3", "--seconds", "0.2", "--trace", trace)[0]
            for trace in ("0", "1")}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_runs_clean(runs_of_all, trace, section):
    result = runs_of_all[trace]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {f"{w}.{spec['name']}" for w in WORKLOAD_NAMES for spec in SPEC[section]}
    assert set(result["metrics"]) == names


def test_single_workload_result_has_the_contract_keys():
    result, stdout = _run("--workload", "lmg", "--seed", "4", "--seconds", "0.2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {spec["name"] for spec in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "failed_frac" in stdout


def test_traced_run_counts_two_unitarity_checks_per_point(runs_of_all):
    metrics = runs_of_all["1"]["metrics"]
    for name in ("sweep", "lmg"):
        assert metrics[f"{name}.linalg.is_unitary.calls_per_point"]["value"] == 2.0
    assert metrics["lmg.gates.lmg_hamiltonian.calls_per_point"]["value"] == 1.0
    assert metrics["sweep.linalg.expm_hermitian.calls"]["value"] == 0


def test_run_fails_without_the_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _sweep_csv(tmp_path, k: int, steps: int = 16) -> str:
    out = tmp_path / f"b{k}.csv"
    text, _ = workloads.SWEEP_THETA_MAX[k]
    argv = ["sweep", str(k), "--theta-max", text, "--steps", str(steps), "--out", str(out)]
    assert symgates.cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


def _perturb(text: str, row: int, column: int, delta: float) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_accepts_every_gate_family(tmp_path, k):
    _, theta_max = workloads.SWEEP_THETA_MAX[k]
    assert oracle.check_sweep_csv(_sweep_csv(tmp_path, k), k, theta_max, 16) == 0


@pytest.mark.parametrize("k", [2, 5, 8])
def test_oracle_flags_a_perturbed_ep_row(tmp_path, k):
    _, theta_max = workloads.SWEEP_THETA_MAX[k]
    text = _perturb(_sweep_csv(tmp_path, k), row=7, column=2, delta=1e-9)
    assert oracle.check_sweep_csv(text, k, theta_max, 16) == 1


def test_oracle_flags_missing_rows_and_a_bad_header(tmp_path):
    text = _sweep_csv(tmp_path, 4)
    assert oracle.check_sweep_csv(text.replace("theta", "angle", 1), 4, np.pi, 16) == 16
    truncated = "\n".join(text.split("\n")[:-3]) + "\n"
    assert oracle.check_sweep_csv(truncated, 4, np.pi, 16) == 2


def test_oracle_checks_lmg_rows(tmp_path):
    out = tmp_path / "lmg.csv"
    g1, g2 = 1.3, 0.55
    argv = ["lmg", "--g1", repr(g1), "--g2", repr(g2), "--t-max", "pi", "--steps", "20",
            "--out", str(out)]
    assert symgates.cli.main(argv) == 0
    text = out.read_text(encoding="utf-8")
    assert oracle.check_lmg_csv(text, g1, g2, np.pi, 20) == 0
    assert oracle.check_lmg_csv(_perturb(text, 3, 1, 1e-9), g1, g2, np.pi, 20) == 1
    assert oracle.check_lmg_csv(_perturb(text, 4, 2, -1e-9), g1, g2, np.pi, 20) == 1


def test_pointwise_oracle_flags_a_wrong_concurrence():
    wl = workloads.make("pointwise", symgates, np.random.default_rng(0), "")
    workloads.run_phase(wl, 0.0)
    assert wl.check().failed == 0
    kind, i = next(entry for entry in wl._stream if entry[0] == workloads.GATE)
    ep, g1_abs, conc, out = wl.results[kind][i]
    wl.results[kind][i] = (ep, g1_abs, conc + 1e-9, out)
    assert wl.check().failed == wl.repeats[kind][i] == 1


def test_inputs_follow_the_seed(tmp_path):
    def inputs(seed):
        return workloads.make("lmg", symgates, np.random.default_rng(seed), str(tmp_path))._stream

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_request_times_are_scaled_by_the_reference_units_around_them():
    ref = workloads.REFERENCE_S
    # Units ran before request 0, before request 2 and after request 2.
    scaled = workloads.scale_to_reference([1.0, 2.0, 3.0], [ref, 3 * ref, 5 * ref], [0, 2, 3])
    np.testing.assert_allclose(scaled, [0.5, 1.0, 0.75])
    # One disturbed unit among steady ones does not move the scaling.
    units = [2 * ref] * 3 + [20 * ref] + [2 * ref] * 3
    scaled = workloads.scale_to_reference([1.0] * 6, units, range(7))
    np.testing.assert_allclose(scaled, [0.5] * 6)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf(seconds):
        clock.advance(seconds)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.advance(1.0)
        traced_leaf(2.0)
        clock.advance(4.0)
        traced_leaf(8.0)
        clock.advance(16.0)

    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    clock.advance(32.0)
    traced_leaf(64.0)
    summary = tracer.summary()
    assert summary.per_function["outer"] == (1, 21.0, 31.0)
    assert summary.per_function["leaf"] == (3, 74.0, 74.0)
    assert summary.self_s_total == summary.root_s_total == 95.0
    assert summary.spans == 4


def test_installed_rebinds_imported_names_and_restores_them():
    gates, entanglement, linalg = symgates.gates, symgates.entanglement, symgates.linalg
    aliases = [(gates, "is_unitary"), (entanglement, "is_unitary"), (gates, "to_qubit_basis"),
               (gates, "expm_hermitian"), (entanglement, "lmg_gate"), (linalg, "is_unitary")]
    before = [getattr(module, name) for module, name in aliases]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert gates.is_unitary is entanglement.is_unitary is linalg.is_unitary
        assert all(getattr(module, name) is not original
                   for (module, name), original in zip(aliases, before))
        symgates.entanglement.entangling_power(symgates.gates.gate(4, 0.3))
    assert [getattr(module, name) for module, name in aliases] == before
    calls = {name: row[0] for name, row in tracer.summary().per_function.items()}
    assert calls["linalg.is_unitary"] == 2
    assert calls["gates.gate"] == calls["su3.to_qubit_basis"] == calls["entanglement.makhlin_g1"] == 1
