"""The batch path: equal to the scalar path, byte-identical CLI output, input contract."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgates import cli
from symgates.cli import fmt_float, main
from symgates.entanglement import (
    _lmg_profile_columns,
    concurrence,
    entangling_power,
    entangling_power_batch,
    lmg_entanglement_profile,
)
from symgates.gates import LMGParams, gate, gates_batch, lmg_batch, lmg_gate
from symgates.linalg import InputError

UP_UP = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
THETA_MAX = {k: "pi" for k in range(1, 8)} | {8: "sqrt3*pi"}

angles = st.floats(-20.0, 20.0, allow_nan=False)
couplings = st.floats(-3.0, 3.0, allow_nan=False)
times = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=24, unique=True)


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
def test_lmg_batch_equals_scalar_path(g1, g2, ts):
    ts = sorted(ts)
    batch = lmg_batch(g1, g2, ts)
    scores = entangling_power_batch(batch.u4)
    _, profile_ep, profile_conc = _lmg_profile_columns(g1, g2, ts)
    for i, t in enumerate(ts):
        g = lmg_gate(LMGParams(g1=g1, g2=g2, t=t))
        assert np.array_equal(batch.u3[i], g.u3)
        assert np.array_equal(batch.u4[i], g.u4)
        report = entangling_power(g)
        _assert_reports_equal(scores, i, report)
        assert profile_ep[i] == report.ep
        assert profile_conc[i] == concurrence(g.u4 @ UP_UP)


def test_profile_points_match_the_batch_columns():
    t, ep, conc = _lmg_profile_columns(0.7, 1.9, np.linspace(0.0, 2.0, 9))
    points = lmg_entanglement_profile(0.7, 1.9, np.linspace(0.0, 2.0, 9))
    assert [p.t for p in points] == t.tolist()
    assert [p.ep for p in points] == ep.tolist()
    assert [p.concurrence for p in points] == conc.tolist()


# SHA-256 of CSVs written by the per-point implementation that preceded the
# batch path; the batch path must reproduce them byte for byte.
SWEEP_2049_SHA256 = {
    1: "2621e187e37dbd73f6c699f7c9a021caf7dc2d2312b16891bd96b6bc5c1d5e39",
    2: "572680ef577ce746f3cc8a01644020e6da5e80cab06b37b286b787d2a834da4e",
    3: "b1c9012b238802b58974c0f5e3051f957123ca9fbe344e88175dd8aff0ebdbb6",
    4: "a4c4bb097d5318538906d08a04082256d5c6c0461821cedb3b8f888dacf134b2",
    5: "9d3020e771d87fbc96d35864a27510ef49e4ec26a1d1194c7a025e983cd36805",
    6: "de67d88c41a1a49cdb194377885ec16508350bf7e02861774814cc535c2a9aae",
    7: "03a61908e732c85de23b4e6dbdc7008bc232d656877d317039f0807882c8d7b4",
    8: "922f343ddb059857a7a7294f2c3b116412d242a2ace56dc9ad34f3c2d0484caa",
}
LMG_SHA256 = {
    ("1.0", "2.0", "0", "pi", "1441"):
        "3a3327a7909d1dfa38d0c84ff91a44fe9e848a96cd5284dcfbd2f29cee090db6",
    ("1.1456878432254491", "1.9133114685703867", "0", "pi", "1441"):
        "1594d7c36c788869137645028fa764a9078b73d9bc0508bcd6d03d9448200c62",
    ("-0.7", "1.3", "-1", "7", "999"):
        "167c10b514df9501b0a67e7c865d8173293b5cd3c51f19a8bbe82be48042bd89",
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


def test_cli_rejects_reversed_time_range(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["lmg", "--g1", "1", "--g2", "2", "--t-min", "2", "--t-max", "1",
                 "--steps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--t-max" in err and "--t-min" in err
    assert not out.exists()


def test_cli_maps_library_input_errors_to_usage(tmp_path, capsys):
    # Finite endpoints whose difference overflows give a non-finite grid.
    big = "17" + "0" * 307
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["sweep", "4", "--theta-min", "-" + big, "--theta-max", big, "--steps", "3",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "thetas must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_failed_write_keeps_the_existing_file(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("earlier results\n")

    def blocks():
        yield [np.array([0.5]), ("ok",)]
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        cli.write_csv(out, "theta,class", blocks())
    assert out.read_text() == "earlier results\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    assert cli.write_csv(out, "theta,class", [[np.array([0.5, -0.0]), ("a", "b")]]) == 2
    assert out.read_text() == "theta,class\n0.5,a\n0,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_write_csv_writes_through_a_symlink(tmp_path):
    (tmp_path / "data").mkdir()
    link = tmp_path / "latest.csv"
    link.symlink_to(tmp_path / "data" / "run.csv")
    assert cli.write_csv(link, "t", [[np.array([1.0])]]) == 1
    assert link.is_symlink()
    assert (tmp_path / "data" / "run.csv").read_text() == "t\n1\n"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
