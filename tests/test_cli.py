import csv
import json
import subprocess
import sys
import types
import typing

import numpy as np
import pytest

import sdfspectral as s
from sdfspectral import cli
from sdfspectral.cli import (
    COMMANDS, SETTINGS, CliError, RunConfig, _parser, build_config, main, read_panel_csv,
    validate_summary_csv,
)
from sdfspectral.inference import DISCARD_REASON
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
    lr = s.long_run_stack(scalars["rho"], m)
    assert lr["sdf_entropy"] == scalars["sdf_entropy"]
    assert lr["L"] == pytest.approx(scalars["entropy_L"], abs=1e-15)
    np.testing.assert_allclose(mp * mt, m, rtol=1e-12)
    # eigenfunction grid has the change of measure column
    grid_rows = list(csv.DictReader((out / "eigenfunctions.csv").open()))
    com = np.array([float(r["change_of_measure"]) for r in grid_rows])
    phi = np.array([float(r["phi"]) for r in grid_rows])
    phs = np.array([float(r["phi_star"]) for r in grid_rows])
    np.testing.assert_allclose(com, phi * phs, rtol=1e-12)


def test_degree_above_170_exits_1_without_traceback(tmp_path, sim_panel):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states, growth=sim_panel.growth)
    out = tmp_path / "out"
    argv = ["decompose", "--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
            "--basis", "hermite", "--k", "172", "--preferences", "power", "--beta", "0.994",
            "--gamma", "15", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "sdfspectral.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "degree 171" in lines[0]
    assert not out.exists()


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


@pytest.mark.parametrize("column", ["x1", "G", "m", "r1"])
@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_non_finite_cell_names_its_column_and_row(column, cell, tmp_path, capsys):
    # every numeric column is checked where it is parsed; data row 4 holds the bad cell
    states = np.array([0.0, 0.1, 0.2, 0.3, 0.1])
    flows = {"G": np.full(4, 1.01), "m": np.full(4, 0.98), "r1": np.full(4, 1.02)}
    if column == "x1":
        states[2] = cell
    else:
        flows[column][1] = cell
    path = _write_panel_csv(tmp_path / "p.csv", states, growth=flows["G"], sdf=flows["m"],
                            returns=flows["r1"][:, None])
    status = main(["decompose", "--input", str(path), "--state-cols", "x1", "--growth-col", "G",
                   "--sdf-col", "m", "--return-cols", "r1", "--out", str(tmp_path / "o")])
    assert status == 1
    assert f"column {column!r} is non-finite at data row 4" in capsys.readouterr().err


# a three-row panel; row 0's flow cell is blank, as the time alignment allows
PLAIN_PANEL = "x1,G\n0.01,\n0.02,1.01\n0.015,0.99\n0.03,1.02\n"


def _read(tmp_path, text: str, newline: str = "\n"):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    return read_panel_csv(RunConfig(command="decompose", input_csv=str(path),
                                    state_cols=["x1"], growth_col="G"))


@pytest.mark.parametrize("text, message", [
    # data row 5 is the file's sixth line: the header is line 1
    (PLAIN_PANEL.replace("1.02", "abc"), "column 'G' has a non-numeric value 'abc' at data row 5"),
    ("x1,G\n0.01,\n0.02,\n0.03,1.0\n", "column 'G' has a non-numeric value '' at data row 3"),
    (PLAIN_PANEL + "0.02\n", "column 'G' has a non-numeric value None at data row 6"),
    (PLAIN_PANEL + "x,1.0\n", "column 'x1' has a non-numeric value 'x' at data row 6"),
    # a wholly blank line is not a data row
    ("x1,G\n0.01,\n\n0.02,1.01\n\n0.03,-1.0\n", "must be positive (data row 4)"),
])
def test_panel_cell_errors_name_column_and_row(tmp_path, text, message):
    with pytest.raises(CliError) as exc:
        _read(tmp_path, text)
    assert message in str(exc.value)


def test_panel_reader_accepts_crlf_padding_blank_lines_and_exponents(tmp_path):
    plain = _read(tmp_path, PLAIN_PANEL)
    messy = "x1,G\n 1.0e-02 ,  \n\n0.02 , 1.01e+00\n1.5E-2,0.99\n\n 0.03,1.02 \n\n"
    for text, newline in [(PLAIN_PANEL, "\r\n"), (messy, "\n"), (messy, "\r\n")]:
        panel = _read(tmp_path, text, newline)
        np.testing.assert_array_equal(panel.states, plain.states)
        np.testing.assert_array_equal(panel.growth, plain.growth)
    assert plain.growth.tolist() == [1.01, 0.99, 1.02]


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


@pytest.mark.parametrize("family", ["hermite", "sparse"])
@pytest.mark.parametrize("constant", [0, 1])
def test_constant_state_coordinate_is_named(family, constant, tmp_path, capsys):
    # both polynomial families name the state coordinate without sample variance,
    # also where rounding leaves the sd of 201 copies of 0.005 at 8.7e-19
    rng = np.random.default_rng(34)
    states = 0.005 + 0.01 * rng.standard_normal((201, 2))
    message = f"coordinate {constant} has zero sample variance"
    for level in (1.0, 0.005):
        states[:, constant] = level
        with pytest.raises(ValueError, match=message):
            s.BasisSpec(family=family, degree=2, cap=3).build(states)
        csv_path = _write_panel_csv(tmp_path / "p.csv", states,
                                    growth=np.exp(states[1:, 1 - constant]))
        out = tmp_path / f"o{level}"
        status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1,x2",
                       "--growth-col", "G", "--preferences", "power", "--beta", "0.994",
                       "--gamma", "15", "--basis", family, "--degree", "2", "--cap", "3",
                       "--out", str(out)])
        assert status == 1 and message in capsys.readouterr().err
        assert not out.exists()  # nothing is written when the basis cannot be built


@pytest.mark.parametrize("family", ["hermite", "sparse"])
def test_heat_grids_take_the_built_axes(family, tmp_path):
    # x2 alternates 1.0 and 1.0 + 9 ulp: its sd of 1.0e-15 passes the
    # zero-variance rule, and its 11-point grid axis has 10 distinct values
    rng = np.random.default_rng(34)
    states = 0.005 + 0.01 * rng.standard_normal((201, 2))
    states[:, 1] = np.where(np.arange(201) % 2, 1.0 + 9 * np.finfo(float).eps, 1.0)
    assert np.unique(np.linspace(1.0, states[:, 1].max(), 11)).size == 10
    csv_path = _write_panel_csv(tmp_path / "p.csv", states, growth=np.exp(states[1:, 0]))
    out = tmp_path / "o"
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1,x2",
                   "--growth-col", "G", "--preferences", "power", "--beta", "0.994",
                   "--gamma", "15", "--basis", family, "--degree", "2", "--cap", "3",
                   "--out", str(out)])
    assert status == 0
    assert len(list(out.glob("eigenfunctions_*.svg"))) == 3
    assert len(list(out.iterdir())) == 9


def test_decompose_fallback_exit_code(tmp_path, testbed, sim_panel, monkeypatch, capsys):
    import sdfspectral.pipeline as pipeline_mod

    solve_stack = pipeline_mod._solve_stack

    def always_fallback(M, factor):
        st = solve_stack(M, factor)
        return st._replace(reason=np.full(len(st.reason), "no_positive_real", dtype=object))

    monkeypatch.setattr(pipeline_mod, "_solve_stack", always_fallback)
    csv_path = _write_panel_csv(tmp_path / "p.csv", sim_panel.states,
                                sdf=np.ones(sim_panel.n))
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                   "--sdf-col", "m", "--basis", "hermite", "--k", "8",
                   "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert "fell back" in err and "no_positive_real" in err  # the warning names the rule
    # the constant fallback: rho = 1, phi = phi* = 1, and no standard errors
    scalars = json.loads((tmp_path / "o" / "scalars.json").read_text())
    assert scalars["rho"] == 1.0 and scalars["fallback"] is True
    assert not {"se_rho", "v_L", "nw_bandwidth"} & set(scalars)
    for name in ("eigenfunctions.csv", "change_of_measure_sample.csv"):
        rows = list(csv.DictReader((tmp_path / "o" / name).open()))
        assert len(rows) > 1
        assert all(float(r[col]) == 1.0 for r in rows for col in ("phi", "phi_star"))

    # a pencil with no positive real eigenvalue (its largest real one is -0.053)
    monkeypatch.undo()
    panel = s.simulate_ar1(testbed, 30, np.random.default_rng(71))
    prefs = s.PowerUtility(beta=0.994, gamma=15.0)
    basis = s.BasisSpec(family="hermite", k=12).build(panel.states)
    assert s.fit_panel(s.Design(basis, panel), prefs).reason == "no_positive_real"
    csv_path = _write_panel_csv(tmp_path / "p30.csv", panel.states, growth=panel.growth)
    status = main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--preferences", "power", "--beta", "0.994",
                   "--gamma", "15", "--basis", "hermite", "--k", "12",
                   "--out", str(tmp_path / "o30")])
    assert status == 2
    assert "no_positive_real" in capsys.readouterr().err
    scalars = json.loads((tmp_path / "o30" / "scalars.json").read_text())
    assert scalars["rho"] == 1.0 and scalars["fallback"] is True and "se_rho" not in scalars


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


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("decompose", {"grid_points": "many"}, "grid_points"),
        ("decompose", {"basis": {"family": "hermite", "k": "3"}}, "basis.k"),
        ("decompose", {"preferences": {"mode": "power", "beta": "0.994", "gamma": 15}},
         "preferences.beta"),
        ("mc", {"seed": "5"}, "seed"),
        ("mc", {"mc": {"reps": 2, "sizes": "400"}}, "mc.sizes"),
        ("mc", {"mc": {"reps": "3", "sizes": [40]}}, "mc.reps"),
        ("bootstrap", {"bootstrap": {"b": "many"}}, "bootstrap.b"),
        ("mc", {"mc": {"design": "Power", "reps": 2, "sizes": [40]}}, "mc.design"),
        ("calibrate", {"preferences": {"instrument_k": 6.5}}, "preferences.instrument_k"),
        ("calibrate", {"preferences": {"instrument_k": "x"}}, "preferences.instrument_k"),
        ("decompose", {"basis": {"k": 3}}, "basis.family"),  # a section given without it
        ("decompose", {"preferences": {"mode": "estimate"}}, "preferences.mode"),
    ],
)
def test_config_value_of_wrong_type(tmp_path, sim_panel, capsys, command, config, key):
    out = tmp_path / "out"
    cfg = {"out_dir": str(out), "mc": {"reps": 2, "sizes": [40]}}
    if command != "mc":
        csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                    growth=sim_panel.growth)
        cfg.update(input_csv=str(csv_path), state_cols=["x1"], growth_col="G",
                   preferences={"mode": "power", "beta": 0.994, "gamma": 15})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, **config}))
    assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not out.exists()


def _setting_values(setting):
    """A valid value of the setting's kind, its flag text, and file values it must not take.

    Those are a value of the wrong type and, of a choice, text that is no choice.
    """
    kind = setting.kind
    if isinstance(kind, tuple):
        return kind[-1], kind[-1], [5, kind[0].capitalize()]
    if kind is int:
        return 3, "3", ["3"]
    if kind is float:  # an expected block is at least 1
        value = 1.5 if setting.key == "bootstrap.expected_block" else 0.5
        return value, str(value), ["x"]
    if kind == list[int]:
        return [40, 80], "40,80", ["40"]
    if kind == list[str]:
        return ["a", "b"], "a,b", ["a"]
    assert str in typing.get_args(kind) or kind is str
    return "other.csv", "other.csv", [5]


@pytest.mark.parametrize("setting", SETTINGS, ids=[s.key for s in SETTINGS])
def test_each_setting_from_flag_or_file(tmp_path, capsys, setting):
    value, text, wrongs = _setting_values(setting)
    section, _, name = setting.key.rpartition(".")
    base = {"input_csv": "panel.csv"}

    def from_file(value) -> dict:
        if not section:
            return {**base, name: value}
        # a file gives the whole section, while a flag sets one key of it
        return {**base, section: {**getattr(RunConfig(command="decompose"), section), name: value}}

    def argv(config: dict) -> list[str]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return ["decompose", "--config", str(path)]

    by_file = build_config(_parser().parse_args(argv(from_file(value))))
    assert (getattr(by_file, section) if section else vars(by_file))[name] == value
    if setting.flag is not None:
        assert build_config(_parser().parse_args(argv(base) + [setting.flag, text])) == by_file

    out = tmp_path / "out"
    for wrong in wrongs:
        assert main(argv({"out_dir": str(out), **from_file(wrong)})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(setting.key) in err
    if section and setting.flag is not None:  # a flag sets a key in a section that is no object
        assert main(argv({**base, "out_dir": str(out), section: [1]}) + [setting.flag, text]) == 1
        assert f"config key {section!r}" in capsys.readouterr().err
    assert not out.exists()


# the Monte Carlo takes beta and gamma from the preferences section, not from its own
@pytest.mark.parametrize("section, key", [("preferences", "Mode"), ("bootstrap", "B"),
                                          ("mc", "rep"), ("basis", "bogus"),
                                          ("bootstrap", "seed"), ("mc", "beta"), ("mc", "gamma")])
def test_unknown_key_in_a_section_exits_1(tmp_path, capsys, section, key):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"input_csv": "panel.csv", "out_dir": str(out), section: {key: 10}}))
    assert main(["bootstrap", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(f"{section}.{key}") in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["mc", "--k", "x"], "--k"),
    (["mc", "--sizes", "400,x"], "--sizes"),
    (["mc", "--design", "Power"], "--design"),
    (["decompose", "--preferences", "estimate"], "--preferences"),
    (["calibrate", "--preferences", "estimate"], "--preferences"),
])
def test_usage_error_exits_1_naming_the_flag(capsys, argv, flag):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("case, message", [
    ("config_missing", "config file not found"),
    ("config_not_json", "config file is not valid JSON"),
    ("config_bool_seed", "config key 'seed' has a value of the wrong type: True"),
    ("no_input", "an input CSV is required"),
    ("input_missing", "input CSV not found"),
    ("no_state_cols", "state_cols must name at least one column"),
    ("one_data_row", "need at least two data rows"),
    ("power_without_gamma", "needs beta and gamma"),
    ("value_without_growth", "the value command needs a growth column"),
    ("value_power", "needs --preferences recursive"),
    ("calibrate_without_returns", "calibrate needs return columns"),
    ("calibrate_without_growth", "calibrate needs a growth column"),
    ("bootstrap_negative_seed", "config key 'seed' must be non-negative, not -1"),
    ("mc_negative_seed", "config key 'seed' must be non-negative, not -1"),
    ("mc_repeated_size", "config key 'mc.sizes' repeats 200"),
    ("mc_repeated_sizes", "config key 'mc.sizes' repeats 400, 800"),
    ("bootstrap_no_replications", "config key 'bootstrap.b' must be at least 1, not 0"),
    ("bootstrap_level_one", "config key 'bootstrap.level' must be in (0, 1), not 1.0"),
    ("bootstrap_short_block", "config key 'bootstrap.expected_block' must be at least 1, not 0.5"),
    ("mc_no_replications", "config key 'mc.reps' must be at least 1, not 0"),
])
def test_user_error_exits_1_with_one_line(tmp_path, sim_panel, capsys, case, message):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth, returns=sim_panel.growth[:, None])
    (tmp_path / "not_json.json").write_text("{")
    (tmp_path / "bool_seed.json").write_text(json.dumps({"seed": True}))
    (tmp_path / "one_row.csv").write_text("x1,G\n0.1,\n")
    panel = ["--input", str(csv_path), "--state-cols", "x1"]
    recursive = ["--preferences", "recursive", "--beta", "0.994", "--gamma", "15"]
    argv = {
        "config_missing": ["decompose", "--config", str(tmp_path / "missing.json")],
        "config_not_json": ["decompose", "--config", str(tmp_path / "not_json.json"), *panel],
        "config_bool_seed": ["decompose", "--config", str(tmp_path / "bool_seed.json"), *panel],
        "no_input": ["decompose", "--state-cols", "x1", "--sdf-col", "m"],
        "input_missing": ["decompose", "--input", str(tmp_path / "missing.csv"),
                          "--state-cols", "x1", "--sdf-col", "m"],
        "no_state_cols": ["decompose", "--input", str(csv_path), "--state-cols", ""],
        "one_data_row": ["decompose", "--input", str(tmp_path / "one_row.csv"),
                         "--state-cols", "x1", "--growth-col", "G", *recursive],
        "power_without_gamma": ["decompose", *panel, "--growth-col", "G",
                                "--preferences", "power", "--beta", "0.994"],
        "value_without_growth": ["value", *panel, *recursive],
        "value_power": ["value", *panel, "--growth-col", "G", "--preferences", "power",
                        "--beta", "0.994", "--gamma", "15"],
        "calibrate_without_returns": ["calibrate", *panel, "--growth-col", "G"],
        "calibrate_without_growth": ["calibrate", *panel, "--return-cols", "r1"],
        "bootstrap_negative_seed": ["bootstrap", *panel, "--growth-col", "G", "--preferences",
                                    "power", "--beta", "0.994", "--gamma", "15", "--seed", "-1"],
        "mc_negative_seed": ["mc", "--reps", "2", "--sizes", "40", "--seed", "-1"],
        "mc_repeated_size": ["mc", "--reps", "2", "--sizes", "200,200"],
        "mc_repeated_sizes": ["mc", "--reps", "2", "--sizes", "400,800,400,800,90"],
        # checked before the input is read: the missing CSV is not reported
        "bootstrap_no_replications": ["bootstrap", "--input", "nope.csv", "--state-cols", "x1",
                                      "--boot-b", "0"],
        "bootstrap_level_one": ["bootstrap", *panel, "--growth-col", "G", "--level", "1"],
        "bootstrap_short_block": ["decompose", *panel, "--growth-col", "G", "--block", "0.5"],
        "mc_no_replications": ["mc", "--reps", "0", "--sizes", "40"],
    }[case]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert not out.exists()


def test_out_naming_a_file_exits_1_before_any_work(tmp_path, monkeypatch, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    calls = []
    monkeypatch.setattr(cli, "run_mc_study", calls.append)
    assert main(["mc", "--basis", "hermite", "--k", "8", "--reps", "2", "--sizes", "400",
                 "--out", str(afile)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'out_dir'" in lines[0]
    assert calls == [] and afile.read_text() == "kept\n"


@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_out_below_a_file_exits_1_before_any_work(tmp_path, monkeypatch, capsys, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    calls = []
    monkeypatch.setattr(cli, "run_mc_study", calls.append)
    assert main(["mc", "--basis", "hermite", "--k", "4", "--reps", "2", "--sizes", "100",
                 "--out", str(afile / below)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'out_dir'" in lines[0]
    assert str(afile) in lines[0]
    assert calls == [] and afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, flags, message", [
    ("decompose", ["--preferences", "power"], "error: no usable fit: gram_not_spd"),
    ("bootstrap", ["--preferences", "power"], "error: no usable fit: gram_not_spd"),
    ("value", ["--preferences", "recursive"],
     "error: no value solution at beta=0.994, gamma=15.0: gram_not_spd"),
], ids=["decompose", "bootstrap", "value"])
def test_gram_matrix_that_overflows_exits_1_naming_it(tmp_path, testbed, command, flags, message):
    # k = 171 Hermite values overflow at the outlying state, so the Gram matrix is not finite
    _exits_1_on_an_overflow_panel(tmp_path, testbed, 2500, [command, *flags], message)


@pytest.mark.parametrize("command, flags, message", [
    ("decompose", ["--preferences", "power"], "error: no usable fit: pricing_not_finite"),
    ("bootstrap", ["--preferences", "power"], "error: no usable fit: pricing_not_finite"),
    ("decompose", ["--preferences", "recursive"], "error: no usable fit: pricing_not_finite"),
    ("bootstrap", ["--preferences", "recursive"], "error: no usable fit: pricing_not_finite"),
    ("value", ["--preferences", "recursive"],
     "error: no value solution at beta=0.994, gamma=15.0: pricing_not_finite"),
], ids=["decompose", "bootstrap", "decompose_recursive", "bootstrap_recursive", "value"])
def test_pricing_matrix_that_overflows_exits_1_naming_it(tmp_path, testbed, command, flags,
                                                         message):
    # the last state enters only b(X_{t+1}): G is finite and factors, while M and the
    # value-recursion map are not finite
    _exits_1_on_an_overflow_panel(tmp_path, testbed, -1, [command, *flags], message)


def _exits_1_on_an_overflow_panel(tmp_path, testbed, outlier, argv, message):
    """Run argv in a subprocess at k = 171 on 5001 simulated states whose state ``outlier``
    is 10.0; it exits 1 with ``message`` as its one error line, no traceback and no --out."""
    states = s.simulate_ar1(testbed, 5000, np.random.default_rng(1)).states[:, 0]
    states[outlier] = 10.0
    csv_path = _write_panel_csv(tmp_path / "panel.csv", states, growth=np.exp(states[1:]))
    out = tmp_path / "out"
    argv = [*argv, "--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
            "--beta", "0.994", "--gamma", "15", "--basis", "hermite", "--k", "171",
            "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "sdfspectral.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    # numpy's overflow warnings may come first; the error is the last line
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [message]
    assert proc.stderr.splitlines()[-1] == message
    assert not out.exists()


def test_a_failure_after_the_tables_are_computed_writes_nothing(tmp_path, sim_panel,
                                                                monkeypatch, capsys):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth)

    def decompose(out, k):
        return main(["decompose", "--input", str(csv_path), "--state-cols", "x1",
                     "--growth-col", "G", "--basis", "hermite", "--k", k,
                     "--preferences", "power", "--beta", "0.994", "--gamma", "15",
                     "--out", str(out)])

    kept = tmp_path / "kept"
    assert decompose(kept, "8") == 0
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    assert len(before) == 7

    def failing_plot(*args, **kwargs):
        raise ValueError("the plot failed")

    # series.csv, scalars.json and change_of_measure_sample.csv come before the first plot
    monkeypatch.setattr(cli, "line_plot", failing_plot)
    for out in (tmp_path / "new", kept):  # k = 6 would change every table of kept
        assert decompose(out, "6") == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: the plot failed"]
    assert not (tmp_path / "new").exists()
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_one_parser_serves_successive_calls(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert main(["decompose", "--input", "p.csv", "--state-cols", "x1,x2", "--k", "6",
                 "--beta", "0.9"]) == 0
    assert main(["bootstrap", "--input", "q.csv", "--state-cols", "y", "--boot-b", "7"]) == 0
    assert main(["mc", "--reps", "3"]) == 0
    assert _parser() is _parser()
    first, second, third = seen
    assert first.command == "decompose" and first.input_csv == "p.csv"
    assert first.state_cols == ["x1", "x2"]
    assert first.basis == {"family": "hermite", "k": 6} and first.preferences == {"beta": 0.9}
    assert first.bootstrap == {}
    assert (second.command, second.input_csv, second.state_cols) == ("bootstrap", "q.csv", ["y"])
    assert second.basis == {"family": "hermite", "k": 8} and second.preferences == {}
    assert second.bootstrap == {"b": 7}
    assert third.command == "mc" and third.input_csv is None and third.state_cols == []
    assert third.mc == {"reps": 3}
    assert main(["bootstrap", "--input", "q.csv", "--block", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--block" in err
    assert len(seen) == 3


def test_flags_before_the_command_build_the_same_config(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 4, "mc": {"kappa": 0.5}}))
    for command, flags in [
        ("decompose", ["--input", "p.csv", "--state-cols", "x1,x2", "--k", "6", "--beta", "0.9",
                       "--preferences", "recursive", "--config", str(tmp_path / "cfg.json")]),
        ("mc", ["--reps", "3", "--sizes", "40,80", "--design", "recursive", "--seed", "2"]),
    ]:
        after = build_config(_parser().parse_args([command, *flags]))
        assert build_config(_parser().parse_args([*flags, command])) == after
        assert build_config(_parser().parse_args([*flags[:2], command, *flags[2:]])) == after


def test_help_names_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per entry: no help text is wrapped
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (_, doc) in COMMANDS.items():
        assert f"{name}: {doc}" in out


@pytest.mark.parametrize("preferences", ["power", "recursive"])
def test_decompose_and_bootstrap_report_one_point_fit(tmp_path, sim_panel, preferences):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth)
    flags = ["--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
             "--basis", "hermite", "--k", "6", "--preferences", preferences,
             "--beta", "0.994", "--gamma", "15", "--boot-b", "20"]
    assert main(["decompose", *flags, "--out", str(tmp_path / "d")]) == 0
    assert main(["bootstrap", *flags, "--out", str(tmp_path / "b")]) == 0
    scalars = json.loads((tmp_path / "d" / "scalars.json").read_text())
    summary = {row["statistic"]: row["estimate"]
               for row in validate_summary_csv(tmp_path / "b" / "summary.csv")}
    names = {"rho": "rho", "yield_y": "y", "entropy_L": "L", "sdf_entropy": "sdf_entropy",
             "horizon_dependence": "horizon_dependence", "lambda": "lambda"}
    if preferences == "power":
        del names["lambda"]
        assert "lambda" not in scalars and "lambda" not in summary
    for key, statistic in names.items():
        assert scalars[key] == summary[statistic], key


@pytest.mark.parametrize("command, points", [("decompose", "0"), ("value", "-3")])
def test_grid_points_below_one(tmp_path, sim_panel, capsys, command, points):
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth)
    out = tmp_path / "out"
    assert main([command, "--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
                 "--preferences", "recursive", "--beta", "0.994", "--gamma", "15",
                 "--grid-points", points, "--out", str(out)]) == 1
    assert "'grid_points'" in capsys.readouterr().err
    assert not out.exists()


def test_bootstrap_sign_changing_eigenfunction(tmp_path, testbed, capsys):
    # on this panel the fitted eigenfunction is negative at two sample points
    panel = s.simulate_ar1(testbed, 400, np.random.default_rng(177))
    csv_path = _write_panel_csv(tmp_path / "panel.csv", panel.states, growth=panel.growth)
    out = tmp_path / "b"
    status = main(["bootstrap", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--basis", "hermite", "--k", "8",
                   "--preferences", "power", "--beta", "0.994", "--gamma", "15",
                   "--boot-b", "50", "--seed", "3", "--out", str(out)])
    assert status == 2
    assert "warning: eigenfunction not positive on sample;" in capsys.readouterr().err
    rows = {r["statistic"]: r for r in validate_summary_csv(out / "summary.csv")}
    assert rows["rho"]["estimate"] > 1
    assert not json.loads((out / "bootstrap.json").read_text())["fallback_point_estimate"]
    assert (out / "provenance.json").exists()


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


def test_bootstrap_json_counts_every_discard_reason(tmp_path, sim_panel, monkeypatch):
    # count rows discarded at a stage outside DISCARD_REASONS are counted under
    # their own reasons, after the reported ones
    statistic = cli.bootstrap_statistic

    def marking(design, prefs):
        stat = statistic(design, prefs)

        def marked(counts):
            out = dict(stat(counts))
            r = np.arange(len(counts))
            why = np.where(r % 7 == 0, "defective_pair",
                           np.where(r % 11 == 3, "nonpositive_sdf", out.pop(DISCARD_REASON)))
            return {**{k: np.where(why == "", v, np.nan) for k, v in out.items()},
                    DISCARD_REASON: why}

        return marked

    monkeypatch.setattr(cli, "bootstrap_statistic", marking)
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth)
    out = tmp_path / "b"
    assert main(["bootstrap", "--input", str(csv_path), "--state-cols", "x1",
                 "--growth-col", "G", "--basis", "hermite", "--k", "8",
                 "--preferences", "power", "--beta", "0.994", "--gamma", "15",
                 "--boot-b", "100", "--seed", "31", "--out", str(out)]) == 0
    boot = json.loads((out / "bootstrap.json").read_text())
    reasons = boot["discard_reasons"]
    assert list(reasons) == [*DISCARD_REASONS, "defective_pair", "nonpositive_sdf"]
    assert reasons["defective_pair"] == 15 and reasons["nonpositive_sdf"] == 7
    assert sum(reasons.values()) == boot["discarded"]


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
    assert payload["converged"] is True and isinstance(payload["iterations"], int)
    assert (payload["beta"], payload["gamma"]) == (0.994, 15.0)
    assert abs(payload["lambda"] - quad_recursive.lam) < 3 * 0.0123 * np.sqrt(3200 / 2000)
    assert (out / "value_function.csv").exists()


@pytest.mark.parametrize("command", ["decompose", "bootstrap"])
@pytest.mark.parametrize("flags, message", [
    (["--preferences", "recursive", "--beta", "0.99", "--gamma", "5"], "need a growth column"),
    ([], "no SDF column and no preferences"),
    (["--preferences", "power", "--beta", "0.99", "--gamma", "5"], "need a growth column"),
])
def test_sdf_source_errors(tmp_path, sim_panel, capsys, command, flags, message):
    # one check of where a fit's SDF comes from serves both commands
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states)
    out = tmp_path / "o"
    status = main([command, "--input", str(csv_path), "--state-cols", "x1", *flags,
                   "--out", str(out)])
    assert status == 1 and message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta, gamma, reason", [
    ("1.2", "5", "invalid_parameters"),
    ("0.99", "0.5", "invalid_parameters"),
    ("0.99", "1e5", "growth_overflow"),
    # the degenerate iterate of test_degenerate_column_ends_without_stopping_the_stack
    ("0.99", "60", "unconverged_value_recursion"),
])
def test_value_without_a_solution_exits_1(tmp_path, testbed, sim_panel, capsys, beta, gamma,
                                          reason):
    if gamma == "60":
        panel = s.simulate_ar1(testbed, 300, np.random.default_rng(5))
        states, growth = panel.states, np.full(panel.n, np.exp(-12.02))
    else:
        states, growth = sim_panel.states, sim_panel.growth
    csv_path = _write_panel_csv(tmp_path / "panel.csv", states, growth=growth)
    out = tmp_path / "v"
    status = main(["value", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--basis", "hermite", "--k", "8",
                   "--preferences", "recursive", "--beta", beta, "--gamma", gamma,
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert status == 1 and err.startswith("error:") and reason in err
    assert f"beta={float(beta)}" in err and f"gamma={float(gamma)}" in err
    assert not out.exists()


def test_unconverged_value_recursion_exits_2_with_a_warning(tmp_path, sim_panel, monkeypatch,
                                                            capsys):
    from sdfspectral import valuefn

    monkeypatch.setattr(valuefn, "MAX_ITER", 3)
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states, growth=sim_panel.growth)
    out = tmp_path / "v"
    status = main(["value", "--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
                   "--basis", "hermite", "--k", "8", "--preferences", "recursive",
                   "--beta", "0.994", "--gamma", "15", "--out", str(out)])
    payload = json.loads((out / "value.json").read_text())
    assert status == 2 and payload["converged"] is False and payload["iterations"] == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"warning: unconverged_value_recursion after 3 iterations, final step "
                     f"{payload['final_step']:.3g}; results are emitted but flagged"]


@pytest.mark.parametrize("sizes", ["", "400,5"])
def test_mc_sample_sizes_are_checked_before_any_simulation(tmp_path, monkeypatch, capsys, sizes):
    from sdfspectral import simkit

    calls = []
    for name in ("closed_form_truth", "_run_block"):
        monkeypatch.setattr(simkit, name, lambda *a, name=name, **kw: calls.append(name))
    out = tmp_path / "mc"
    status = main(["mc", "--basis", "hermite", "--k", "8", "--reps", "4", "--sizes", sizes,
                   "--out", str(out)])
    assert status == 1 and calls == []
    assert "sample size" in capsys.readouterr().err
    assert not out.exists()


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
        assert float(by_stat[stat]["rmse"]) == table.cells[(400, stat)].rmse
        assert float(by_stat[stat]["bias"]) == table.cells[(400, stat)].bias
    # mc refuses an input CSV
    assert main(["mc", "--input", "x.csv", "--out", str(out)]) == 1


@pytest.mark.parametrize("flags, design", [
    (["--preferences", "recursive"], "recursive"),
    (["--design", "power", "--preferences", "recursive"], "power"),
], ids=["recursive_mode", "design_over_mode"])
def test_mc_design_defaults_to_the_preferences_mode(tmp_path, flags, design):
    out = tmp_path / "mc"
    assert main(["mc", *flags, "--reps", "2", "--sizes", "40", "--out", str(out)]) == 0
    assert json.loads((out / "mc_table_meta.json").read_text())["design"] == design


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


def test_import_loads_no_scipy():
    # nor the process-pool machinery of multiprocessing and concurrent.futures
    code = ("import sys, sdfspectral, sdfspectral.cli; print([m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_all_names_public_objects_not_modules():
    assert len(s.__all__) == len(set(s.__all__)) == 31
    for name in s.__all__:
        assert not isinstance(getattr(s, name), types.ModuleType), name


@pytest.mark.parametrize("command", ["decompose", "value", "calibrate", "bootstrap", "mc",
                                     "decompose-bspline", "mc-bspline"])
def test_command_loads_no_scipy(command, tmp_path, sim_panel):
    """Each command runs in a process where scipy cannot be imported, and loads no scipy module."""
    rng = np.random.default_rng(3)
    returns = np.column_stack([1.01 * np.sqrt(sim_panel.growth),
                               1.0 + 0.001 * rng.standard_normal(sim_panel.n)])
    csv_path = _write_panel_csv(tmp_path / "panel.csv", sim_panel.states,
                                growth=sim_panel.growth, returns=returns)
    name, _, family = command.partition("-")
    basis = ["--basis", "bspline", "--k", "7"] if family else ["--basis", "hermite", "--k", "6"]
    panel = ["--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G", *basis]
    power = ["--preferences", "power", "--beta", "0.994", "--gamma", "15"]
    argv = {
        "decompose": ["decompose", *panel, *power],
        "value": ["value", *panel, "--preferences", "recursive", "--beta", "0.994",
                  "--gamma", "15"],
        "calibrate": ["calibrate", *panel, "--return-cols", "r1,r2"],
        "bootstrap": ["bootstrap", *panel, *power, "--boot-b", "20"],
        "mc": ["mc", *basis, "--reps", "4", "--sizes", "60"],
    }[name] + ["--out", str(tmp_path / "out")]
    code = ("import sys; sys.modules['scipy'] = None; from sdfspectral.cli import main; "
            f"status = main({argv!r}); print(status, sorted(m for m in sys.modules "
            "if m.startswith('scipy') and sys.modules[m] is not None))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_calibrate_reports_infeasible_counts(tmp_path, testbed, monkeypatch):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(41))
    design = s.Design(s.BasisSpec(family="hermite", k=6).build(panel.states), panel)
    m = s.fit_panel(design, s.RecursiveUtility(0.97, 10.0)).m
    csv_path = _write_panel_csv(tmp_path / "panel.csv", panel.states, growth=panel.growth,
                                returns=np.column_stack([1.0 / m, 1.0 / m]))
    monkeypatch.setattr(s.calibrate, "GRID_SHAPE", (3, 4))
    out = tmp_path / "cal"
    main(["calibrate", "--input", str(csv_path), "--state-cols", "x1", "--growth-col", "G",
          "--return-cols", "r1,r2", "--basis", "hermite", "--k", "6", "--out", str(out)])
    payload = json.loads((out / "calibration.json").read_text())
    trace = list(csv.DictReader((out / "trace.csv").open()))
    assert payload["evaluations"] == len(trace)
    # gamma = 60 leaves the continuation value non-positive somewhere on this panel
    assert payload["infeasible"].get("nonpositive_continuation", 0) > 0
    assert sum(payload["infeasible"].values()) == sum(r["criterion"] == "inf" for r in trace)
    assert set(payload["infeasible"]) <= set(s.calibrate.INFEASIBLE_REASONS)


def test_unconverged_polish_exits_2_with_a_warning(tmp_path, testbed, monkeypatch, capsys):
    panel = s.simulate_ar1(testbed, 300, np.random.default_rng(41))
    design = s.Design(s.BasisSpec(family="hermite", k=6).build(panel.states), panel)
    m = s.fit_panel(design, s.RecursiveUtility(0.97, 10.0)).m
    csv_path = _write_panel_csv(tmp_path / "panel.csv", panel.states, growth=panel.growth,
                                returns=np.column_stack([1.0 / m, 1.0 / m]))
    monkeypatch.setattr(s.calibrate, "GRID_SHAPE", (3, 4))
    monkeypatch.setattr(s.calibrate, "MAX_ITER", 2)
    out = tmp_path / "cal"
    status = main(["calibrate", "--input", str(csv_path), "--state-cols", "x1",
                   "--growth-col", "G", "--return-cols", "r1,r2", "--basis", "hermite",
                   "--k", "6", "--out", str(out)])
    assert status == 2
    assert json.loads((out / "calibration.json").read_text())["converged"] is False
    assert capsys.readouterr().err.splitlines() == [
        "warning: the Nelder-Mead polish did not converge; results are emitted but flagged"]


@pytest.mark.parametrize("state_cols, flags, advice", [
    # a univariate state takes instrument_k Hermite instruments
    ("x1", ["--basis", "hermite", "--k", "4", "--instrument-k", "6"],
     "instrument dimension 6 exceeds solve dimension 4; lower instrument_k"),
    # a multivariate state takes sparse instruments that instrument_k does not set
    ("x1,x2", ["--basis", "sparse", "--degree", "1", "--cap", "2"],
     "instrument dimension 4 exceeds solve dimension 3; a multivariate state takes sparse "
     "instruments of degree 1 and cap 3, so raise the solve basis's degree or cap"),
    ("x1,x2", ["--basis", "sparse", "--degree", "1", "--cap", "2", "--instrument-k", "1"],
     "raise the solve basis's degree or cap"),
], ids=["univariate", "bivariate", "bivariate_instrument_k"])
def test_instrument_dimension_error_gives_advice_that_applies(tmp_path, sim_panel, capsys,
                                                              state_cols, flags, advice):
    second = np.random.default_rng(8).normal(size=sim_panel.n + 1)
    states = np.column_stack([sim_panel.states, second])
    csv_path = _write_panel_csv(tmp_path / "panel.csv", states, growth=sim_panel.growth,
                                returns=sim_panel.growth[:, None])
    out = tmp_path / "out"
    assert main(["calibrate", "--input", str(csv_path), "--state-cols", state_cols,
                 "--growth-col", "G", "--return-cols", "r1", *flags, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and advice in lines[0]
    if "," in state_cols:
        assert "instrument_k" not in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("rho,0.98,0.97,,0.9", "half-specified CI at row 2"),
    ("rho,0.98,,0.99,0.9", "half-specified CI at row 2"),
    ("rho,0.98,0.97,0.99,1.5", r"level outside \(0,1\) at row 2"),
    ("rho,0.98,0.97,0.99,0", r"level outside \(0,1\) at row 2"),
], ids=["ci_hi_missing", "ci_lo_missing", "level_above_1", "level_0"])
def test_summary_schema_input_checks(tmp_path, row, message):
    path = tmp_path / "summary.csv"
    path.write_text(f"statistic,estimate,ci_lo,ci_hi,level\n{row}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_summary_csv(path)
