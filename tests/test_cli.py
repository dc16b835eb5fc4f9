import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral.cli import main, validate_summary_csv
from sdfspectral.pipeline import DISCARD_REASONS


def _write_panel_csv(path, states, growth=None, sdf=None, returns=None):
    """Row t holds X_t plus the flow values realized over (t-1, t]."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n1, d = states.shape
    cols = [f"x{i+1}" for i in range(d)]
    header = cols[:]
    if growth is not None:
        header.append("G")
    if sdf is not None:
        header.append("m")
    if returns is not None:
        header += [f"r{j+1}" for j in range(returns.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(n1):
            row = [repr(float(states[t, i])) for i in range(d)]
            if growth is not None:
                row.append("" if t == 0 else repr(float(growth[t - 1])))
            if sdf is not None:
                row.append("" if t == 0 else repr(float(sdf[t - 1])))
            if returns is not None:
                row += ["" if t == 0 else repr(float(returns[t - 1, j]))
                        for j in range(returns.shape[1])]
            w.writerow(row)
    return path


@pytest.fixture(scope="module")
def sim_panel(testbed):
    return s.simulate_ar1(testbed, 276, np.random.default_rng(515))


def test_decompose_unit_sdf(tmp_path, sim_panel):
    csv_path = _write_panel_csv(
        tmp_path / "panel.csv", sim_panel.states, sdf=np.ones(sim_panel.n)
    )
    out = tmp_path / "out"
    status = main([
        "decompose", "--input", str(csv_path), "--state-cols", "x1",
        "--sdf-col", "m", "--basis", "hermite", "--k", "8", "--out", str(out),
    ])
    assert status == 0
    scalars = json.loads((out / "scalars.json").read_text())
    assert scalars["rho"] == pytest.approx(1.0, abs=1e-10)
    assert scalars["yield_y"] == pytest.approx(0.0, abs=1e-10)
    assert scalars["entropy_L"] == pytest.approx(0.0, abs=1e-10)
    for name in ("series.csv", "series.svg", "eigenfunctions.csv",
                 "eigenfunctions.svg", "provenance.json"):
        assert (out / name).exists()


def test_decompose_round_trip(tmp_path, sim_panel):
    csv_path = _write_panel_csv(
        tmp_path / "panel.csv", sim_panel.states, growth=sim_panel.growth
    )
    out = tmp_path / "out"
    status = main([
        "decompose", "--input", str(csv_path), "--state-cols", "x1",
        "--growth-col", "G", "--basis", "hermite", "--k", "8",
        "--preferences", "power", "--beta", "0.994", "--gamma", "15",
        "--out", str(out),
    ])
    assert status == 0
    scalars = json.loads((out / "scalars.json").read_text())
    rows = list(csv.DictReader((out / "series.csv").open()))
    m = np.array([float(r["m"]) for r in rows])
    mp = np.array([float(r["m_perm"]) for r in rows])
    mt = np.array([float(r["m_trans"]) for r in rows])
    # 17-digit serialization round-trips: identities hold exactly on re-ingest
    assert s.sdf_entropy(m) == scalars["sdf_entropy"]
    assert s.permanent_entropy(scalars["rho"], m) == pytest.approx(
        scalars["entropy_L"], abs=1e-15
    )
    np.testing.assert_allclose(mp * mt, m, rtol=1e-12)
    # eigenfunction grid has the change of measure column
    grid_rows = list(csv.DictReader((out / "eigenfunctions.csv").open()))
    com = np.array([float(r["change_of_measure"]) for r in grid_rows])
    phi = np.array([float(r["phi"]) for r in grid_rows])
    phs = np.array([float(r["phi_star"]) for r in grid_rows])
    np.testing.assert_allclose(com, phi * phs, rtol=1e-12)


def test_decompose_errors(tmp_path, sim_panel, capsys):
    csv_path = _write_panel_csv(tmp_path / "p.csv", sim_panel.states,
                                growth=sim_panel.growth)
    # missing column
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "nope",
                   "--sdf-col", "m", "--out", str(tmp_path / "o1")])
    assert status == 1
    assert "missing columns" in capsys.readouterr().err
    # nothing to decompose
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                   "--out", str(tmp_path / "o2")])
    assert status == 1
    # non-positive growth names the row
    states = np.array([0.0, 0.1, 0.2, 0.3])
    bad = _write_panel_csv(tmp_path / "bad.csv", states,
                           growth=np.array([1.0, -0.5, 1.0]))
    status = main(["decompose", "--input", str(bad), "--state-cols", "x1",
                   "--growth-col", "G", "--preferences", "power",
                   "--beta", "0.99", "--gamma", "5", "--out", str(tmp_path / "o3")])
    assert status == 1
    err = capsys.readouterr().err
    assert "must be positive" in err and "row 4" in err


def test_decompose_three_coordinate_state(tmp_path):
    rng = np.random.default_rng(33)
    states = 0.005 + 0.01 * rng.standard_normal((301, 3))
    csv_path = _write_panel_csv(tmp_path / "p3.csv", states, growth=np.exp(states[1:, 0]))
    out = tmp_path / "o"
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1,x2,x3",
                   "--growth-col", "G", "--preferences", "power", "--beta", "0.994",
                   "--gamma", "15", "--basis", "sparse", "--degree", "2", "--cap", "3",
                   "--out", str(out)])
    assert status == 0
    assert (out / "provenance.json").exists()
    rows = (out / "eigenfunctions.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,x3,phi,phi_star,change_of_measure" and len(rows) == 1 + 11**3
    # heat maps are drawn for two-coordinate states only
    assert not list(out.glob("eigenfunctions_*.svg"))


def test_decompose_fallback_exit_code(tmp_path, sim_panel, monkeypatch, capsys):
    import sdfspectral.pipeline as pipeline_mod

    def always_fallback(M, G, const_coeffs=None):
        k = M.shape[0]
        c = np.ones(k) if const_coeffs is None else np.asarray(const_coeffs)
        from sdfspectral.pfeig import EigenSolution

        return EigenSolution(
            rho=1.0, right_coeffs=c.copy(), left_coeffs=c.copy(),
            is_fallback=True, residuals=(np.nan, np.nan), spectral_gap=None,
            const_coeffs=c.copy(),
        )

    monkeypatch.setattr(pipeline_mod, "solve_generalized", always_fallback)
    csv_path = _write_panel_csv(tmp_path / "p.csv", sim_panel.states,
                                sdf=np.ones(sim_panel.n))
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                   "--sdf-col", "m", "--basis", "hermite", "--k", "8",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    assert "fell back" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, sim_panel):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                sdf=np.ones(sim_panel.n))
    cfg = {
        "input_csv": str(csv_path),
        "state_cols": ["x1"],
        "sdf_col": "m",
        "basis": {"family": "hermite", "k": 6},
        "out_dir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    status = main(["decompose", "--config", str(cfg_path), "--k", "8"])
    assert status == 0
    prov = json.loads((tmp_path / "from_config" / "provenance.json").read_text())
    assert prov["config"]["basis"]["k"] == 8  # flag beats config
    assert prov["versions"]["sdfspectral"] == s.__version__

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert main(["decompose", "--config", str(bad)]) == 1


def test_bootstrap_deterministic_outputs(tmp_path, sim_panel):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth)
    args = ["bootstrap", "--input", str(csv_path), "--state-cols", "x1",
            "--growth-col", "G", "--basis", "hermite", "--k", "8",
            "--preferences", "power", "--beta", "0.994", "--gamma", "15",
            "--boot-b", "100", "--block", "6", "--level", "0.90", "--seed", "31"]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    rows = validate_summary_csv(out1 / "summary.csv")
    names = {r["statistic"] for r in rows}
    assert {"rho", "y", "L", "beta", "gamma"} <= names
    boot = json.loads((out1 / "bootstrap.json").read_text())
    assert boot["b"] == 100 and boot["expected_block"] == 6.0
    assert list(boot["discard_reasons"]) == list(DISCARD_REASONS)
    assert sum(boot["discard_reasons"].values()) == boot["discarded"]
    for r in rows:
        if r["statistic"] == "rho":
            assert r["ci_lo"] is not None and r["ci_lo"] <= r["ci_hi"]


def test_value_command(tmp_path, testbed, quad_recursive):
    panel = s.simulate_ar1(testbed, 2000, np.random.default_rng(99))
    csv_path = _write_panel_csv(tmp_path / "panel.csv", panel.states, growth=panel.growth)
    out = tmp_path / "v"
    status = main(["value", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--basis", "hermite", "--k", "8",
                   "--preferences", "recursive", "--beta", "0.994", "--gamma", "15",
                   "--out", str(out)])
    assert status == 0
    payload = json.loads((out / "value.json").read_text())
    assert payload["converged"]
    assert abs(payload["lambda"] - quad_recursive.lam) < 3 * 0.0123 * np.sqrt(3200 / 2000)
    assert (out / "value_function.csv").exists()


def test_mc_command_smoke(tmp_path, testbed):
    out = tmp_path / "mc"
    status = main(["mc", "--design", "power", "--basis", "hermite", "--k", "8",
                   "--reps", "40", "--sizes", "400", "--seed", "1",
                   "--out", str(out)])
    assert status == 0
    rows = list(csv.DictReader((out / "mc_table.csv").open()))
    assert {r["statistic"] for r in rows} == {"rho", "y", "L", "phi", "phi_star"}
    meta = json.loads((out / "mc_table_meta.json").read_text())
    assert meta["replications"] == 40
    # the command drives the same engine: cells agree with a direct run
    design = s.McDesign(
        ar1=testbed, preferences=s.PowerUtility(beta=0.994, gamma=15.0),
        sample_sizes=(400,), replications=40,
        basis_spec=s.BasisSpec(family="hermite", k=8), seed=1,
    )
    table = s.run_mc_study(design)
    by_stat = {r["statistic"]: r for r in rows}
    for stat in ("rho", "y", "L"):
        assert float(by_stat[stat]["rmse"]) == table.rmse(400, stat)
        assert float(by_stat[stat]["bias"]) == table.bias(400, stat)
    # mc refuses an input CSV
    assert main(["mc", "--input", "x.csv", "--out", str(out)]) == 1


def test_summary_schema_validation(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text(
        "statistic,estimate,ci_lo,ci_hi,level\n"
        "rho,0.98,0.97,0.99,0.9\n"
        "beta,0.99,,,\n"
    )
    rows = validate_summary_csv(good)
    assert rows[0]["ci_lo"] == 0.97 and rows[1]["ci_lo"] is None
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("stat,estimate\nrho,1\n")
    with pytest.raises(ValueError, match="bad header"):
        validate_summary_csv(bad_header)
    bad_ci = tmp_path / "bad2.csv"
    bad_ci.write_text(
        "statistic,estimate,ci_lo,ci_hi,level\nrho,0.98,0.99,0.97,0.9\n"
    )
    with pytest.raises(ValueError, match="ci_lo > ci_hi"):
        validate_summary_csv(bad_ci)
    bad_stat = tmp_path / "bad3.csv"
    bad_stat.write_text("statistic,estimate,ci_lo,ci_hi,level\nweird,1,,,\n")
    with pytest.raises(ValueError, match="unknown statistic"):
        validate_summary_csv(bad_stat)


def test_console_script_entry_point(tmp_path, sim_panel):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                sdf=np.ones(sim_panel.n))
    proc = subprocess.run(
        [sys.executable, "-m", "sdfspectral.cli", "decompose",
         "--input", str(csv_path), "--state-cols", "x1", "--sdf-col", "m",
         "--basis", "hermite", "--k", "8", "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "scalars.json").exists()
