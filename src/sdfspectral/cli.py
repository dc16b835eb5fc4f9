"""Command-line front end.

Subcommands: decompose, value, calibrate, bootstrap, mc. Configuration
comes from a JSON file (--config) with individual flags taking
precedence. Outputs are CSVs/JSON plus small SVG plots, written to the
output directory together with a provenance record (config hash, seed,
versions). CSV conventions: header row, comma separator, UTF-8, decimal
point; floats carry 17 significant digits so they round-trip losslessly.

Each command computes the text of its files and writes none; ``run``
alone then makes the output directory and writes them. So a command that
exits 1 makes no output directory and touches no file in an existing one.

Time alignment of input CSVs: each row is one period; state columns hold
X_t for that row, while growth/SDF/return columns hold the increment or
return realized over the period ending at that row. Row 0 of the flow
columns is therefore ignored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .basis import BasisSpec
from .calibrate import estimate_preferences
from .csvout import write_csv, write_json
from .decomp import change_of_measure, long_run_stack, positive_on_sample, pt_association, pt_series
from .inference import bootstrap_ci, default_bandwidth, variance_entropy
from .oracle import Ar1Design
from .pfeig import _row
from .pipeline import DISCARD_REASONS, FitStack, bootstrap_statistic, fit_panel
from .preferences import PowerUtility, RecursiveUtility
from .sievemat import Design, StatePanel
from .simkit import McDesign, run_mc_study
from .svgplot import heat_grid, line_plot
from .valuefn import solve_value_stack

SUMMARY_COLUMNS = ["statistic", "estimate", "ci_lo", "ci_hi", "level"]
SUMMARY_STATISTICS = {
    "rho", "y", "L", "sdf_entropy", "horizon_dependence", "lambda", "beta", "gamma",
}


class CliError(Exception):
    """User-facing configuration or data error."""


@dataclass
class RunConfig:
    command: str
    input_csv: Optional[str] = None
    state_cols: list[str] = field(default_factory=list)
    growth_col: Optional[str] = None
    return_cols: list[str] = field(default_factory=list)
    sdf_col: Optional[str] = None
    basis: dict = field(default_factory=lambda: {"family": "hermite", "k": 8})
    preferences: dict = field(default_factory=dict)
    bootstrap: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)
    out_dir: str = "out"
    seed: int = 0
    grid_points: int = 101

    def canonical(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, default=str)


# ----------------------------------------------------------------- config


class Setting(NamedTuple):
    """One setting of the command line and the config file.

    ``key`` is a RunConfig field or "section.name" in a dict field, ``kind``
    a type hint or a tuple of choices, ``flag`` None for a config-only
    setting, and ``default`` what a command uses in its absence.
    """

    flag: Optional[str]
    key: str
    kind: object
    default: object = None
    help: Optional[str] = None


#: every setting, flags in the order that --help lists them
SETTINGS = (
    Setting("--input", "input_csv", Optional[str], help="input panel CSV"),
    Setting("--state-cols", "state_cols", list[str], help="comma-separated state column names"),
    Setting("--growth-col", "growth_col", Optional[str], help="growth column name"),
    Setting("--return-cols", "return_cols", list[str], help="comma-separated return column names"),
    Setting("--sdf-col", "sdf_col", Optional[str], help="observable SDF increment column name"),
    Setting("--basis", "basis.family", ("hermite", "bspline", "sparse")),
    Setting("--k", "basis.k", int, help="sieve dimension (per coordinate for hermite)"),
    Setting("--degree", "basis.degree", int, help="polynomial degree (hermite/sparse)"),
    Setting("--cap", "basis.cap", int, help="total-degree cap (sparse)"),
    Setting("--beta", "preferences.beta", float),
    Setting("--gamma", "preferences.gamma", float),
    Setting("--preferences", "preferences.mode", ("power", "recursive")),
    Setting("--instrument-k", "preferences.instrument_k", int, help="univariate instrument basis dimension"),
    Setting("--boot-b", "bootstrap.b", int, 1000, "bootstrap replications"),
    Setting("--block", "bootstrap.expected_block", float, 6.0, "expected bootstrap block length"),
    Setting("--level", "bootstrap.level", float, 0.90, "confidence level, e.g. 0.90"),
    Setting("--seed", "seed", int),
    Setting("--out", "out_dir", str, help="output directory"),
    Setting("--reps", "mc.reps", int, 2000, "MC replications"),
    Setting("--sizes", "mc.sizes", list[int], (400, 800, 1600, 3200), "comma-separated MC sample sizes"),
    Setting("--design", "mc.design", ("power", "recursive"), "power", "MC design"),
    Setting(None, "mc.beta", float, 0.994, "MC beta; preferences.beta when present"),
    Setting(None, "mc.gamma", float, 15.0, "MC gamma; preferences.gamma when present"),
    Setting(None, "mc.mu", float, 0.005, "MC mean of the AR(1) state"),
    Setting(None, "mc.kappa", float, 0.6, "MC persistence of the AR(1) state"),
    Setting(None, "mc.sigma", float, 0.01, "MC shock standard deviation of the AR(1) state"),
    Setting("--grid-points", "grid_points", int, help="eigenfunction grid resolution"),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as CliError; status 2 flags a fit."""

    def error(self, message):
        raise CliError(message)


def _flag_type(kind):
    """How argparse reads a flag: a comma-separated list, a number, or the text itself."""
    if typing.get_origin(kind) is not list:
        return kind if kind in (int, float) else None
    item = typing.get_args(kind)[0]

    def comma_separated_list(text: str) -> list:  # argparse names it in a usage error
        return [item(v) for v in text.split(",") if v]

    return comma_separated_list


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sdfspectral",
        description="Long-run spectral decomposition of stochastic discount factors",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("decompose", "estimate the eigenpair and permanent/transitory series"),
        ("value", "solve the recursive-preference continuation value"),
        ("calibrate", "estimate (beta, gamma) from Euler-equation moments"),
        ("bootstrap", "decompose with stationary-bootstrap confidence intervals"),
        ("mc", "run the Monte Carlo study and emit bias/RMSE tables"),
    ]:
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for s in SETTINGS:
            if s.flag is not None:
                choices = s.kind if isinstance(s.kind, tuple) else None
                sp.add_argument(s.flag, type=_flag_type(s.kind), choices=choices, help=s.help)
    return p


#: RunConfig's fields and their types, which a config file's values must have
_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _slot(cfg: RunConfig, key: str) -> tuple[dict, str]:
    """The dict of ``cfg`` that holds a setting's value, and the setting's name in it."""
    section, _, name = key.rpartition(".")
    return (getattr(cfg, section) if section else vars(cfg)), name


def _has_type(value, hint) -> bool:
    """Whether a JSON value has type ``hint``: one of its choices, a bool no number, an int a float."""
    if isinstance(hint, tuple):
        return value in hint
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, h) for h in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_types(cfg: RunConfig, checks) -> None:
    """Reject a config value of the wrong type, naming its key; ``checks`` holds (key, type)."""
    for key, hint in checks:
        values, name = _slot(cfg, key)
        if name not in values or _has_type(values[name], hint):
            continue
        if isinstance(hint, tuple):
            raise CliError(f"config key {key!r} is one of {', '.join(hint)}, not {values[name]!r}")
        raise CliError(f"config key {key!r} has a value of the wrong type: {values[name]!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge the JSON config (if any) with flag overrides."""
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}")
        unknown = set(raw) - set(_CONFIG_TYPES)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{**raw, "command": args.command})
    # flags set keys inside the sections, which must be objects
    _check_types(cfg, [(key, dict) for key, hint in _CONFIG_TYPES.items() if hint is dict])
    for s in SETTINGS:
        value = None if s.flag is None else getattr(args, s.flag[2:].replace("-", "_"))
        if value is not None:
            values, name = _slot(cfg, s.key)
            values[name] = value

    if cfg.command != "mc":
        if cfg.input_csv is None:
            raise CliError("an input CSV is required (--input or config input_csv)")
    elif cfg.input_csv is not None:
        raise CliError("the mc command takes a design, not an input CSV")
    # a section holds the settings of the table and nothing else
    keys = {s.key for s in SETTINGS}
    unknown = [f"{section}.{name}" for section, hint in _CONFIG_TYPES.items() if hint is dict
               for name in getattr(cfg, section) if f"{section}.{name}" not in keys]
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    _check_types(cfg, [(s.key, s.kind) for s in SETTINGS])
    if "family" not in cfg.basis:  # the one key of a section that has no default
        raise CliError("config key 'basis.family' is missing")
    for key, holds, rule in (("grid_points", lambda v: v >= 1, "at least 1"),
                             ("seed", lambda v: v >= 0, "non-negative"),
                             ("bootstrap.b", lambda v: v >= 1, "at least 1"),
                             ("bootstrap.expected_block", lambda v: v >= 1, "at least 1"),
                             ("bootstrap.level", lambda v: 0 < v < 1, "in (0, 1)")):
        value = _value(cfg, key)
        if not holds(value):
            raise CliError(f"config key {key!r} must be {rule}, not {value}")
    sizes = _value(cfg, "mc.sizes")
    repeated = sorted({n for n in sizes if sizes.count(n) > 1})
    if repeated:  # a repeated size would draw the same substreams twice
        raise CliError(f"config key 'mc.sizes' repeats {', '.join(map(str, repeated))}")
    above = cfg.out_dir  # the nearest existing path at or above out_dir
    while not os.path.exists(above):
        above = os.path.dirname(above) or "."
    if not os.path.isdir(above):
        raise CliError(f"config key 'out_dir' must name a directory, but {above} is a file")
    return cfg


def _value(cfg: RunConfig, key: str, fallback=None):
    """A setting as configured; else ``fallback`` if given, else the table's default."""
    values, name = _slot(cfg, key)
    default = fallback if fallback is not None else next(s.default for s in SETTINGS if s.key == key)
    return values.get(name, default)


# ----------------------------------------------------------------- ingest


def read_panel_csv(cfg: RunConfig) -> StatePanel:
    """Read and validate the panel CSV per the documented time alignment."""
    if not cfg.state_cols:
        raise CliError("state_cols must name at least one column")
    try:
        with open(cfg.input_csv, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]  # wholly blank lines are skipped
    except FileNotFoundError:
        raise CliError(f"input CSV not found: {cfg.input_csv}")
    column = {name: j for j, name in enumerate(header)}  # a repeated name: its last column
    needed = list(cfg.state_cols) + cfg.return_cols
    for col in (cfg.growth_col, cfg.sdf_col):
        if col:
            needed.append(col)
    missing = [c for c in needed if c not in header]
    if missing:
        raise CliError(f"missing columns in {cfg.input_csv}: {missing}")
    if len(rows) < 2:
        raise CliError("need at least two data rows (two state observations)")

    def parse(col: str, skip_first: bool = False) -> np.ndarray:
        # Flow columns (growth/SDF/returns) describe the period ending at
        # each row; the first row's value is unused and may be blank.
        start = 1 if skip_first else 0
        j = column[col]
        cells = [row[j] if j < len(row) else None for row in rows[start:]]  # a short row: None
        try:
            out = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        except (TypeError, ValueError):  # find the first cell that failed, to name it
            for i, cell in enumerate(cells):
                try:
                    float(cell)
                except (TypeError, ValueError):
                    raise CliError(
                        f"column {col!r} has a non-numeric value {cell!r} "
                        f"at data row {i + start + 2}"
                    )
        if not np.all(np.isfinite(out)):
            i = int(np.argmin(np.isfinite(out)))
            raise CliError(f"column {col!r} is non-finite at data row {i + start + 2}")
        return out

    def positive(label: str, col: Optional[str]) -> Optional[np.ndarray]:
        if not col:
            return None
        out = parse(col, skip_first=True)
        if np.any(out <= 0):
            r = int(np.argmax(out <= 0))
            raise CliError(f"{label} column {col!r} must be positive (data row {r + 3})")
        return out

    states = np.column_stack([parse(c) for c in cfg.state_cols])
    growth, sdf = positive("growth", cfg.growth_col), positive("SDF", cfg.sdf_col)
    returns = None
    if cfg.return_cols:
        returns = np.column_stack([parse(c, skip_first=True) for c in cfg.return_cols])
    return StatePanel.from_states(states, growth=growth, sdf_increments=sdf, returns=returns)


def _preferences(cfg: RunConfig):
    """The configured utility, or None where no preferences mode is set."""
    mode = cfg.preferences.get("mode")
    if mode is None:
        return None
    beta = cfg.preferences.get("beta")
    gamma = cfg.preferences.get("gamma")
    if beta is None or gamma is None:
        raise CliError(f"preferences mode {mode!r} needs beta and gamma")
    utility = PowerUtility if mode == "power" else RecursiveUtility
    return utility(beta=beta, gamma=gamma)


# ----------------------------------------------------------------- output


def _state_grid(panel: StatePanel, points: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Points spanning the sample's states, one per row, and the axes they are the mesh of.

    A univariate state gets one axis of ``points`` values; each coordinate
    of a multivariate one gets max(11, sqrt(points)) values, meshed in ij
    order.
    """
    lo = panel.x0.min(axis=0)
    hi = panel.x0.max(axis=0)
    side = points if panel.state_dim == 1 else max(11, int(math.sqrt(points)))
    axes = [np.linspace(lo[d], hi[d], side) for d in range(panel.state_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh]), axes


def _eigenfunction_files(cfg, panel, basis, fit: FitStack) -> dict[str, str]:
    """eigenfunctions.csv on the state grid, and its plots for a state of one or two coordinates."""
    grid, axes = _state_grid(panel, cfg.grid_points)
    if fit.reason:  # the constant fallback
        phi = np.ones(grid.shape[0])
        phi_star = np.ones(grid.shape[0])
    else:
        bg = basis.evaluate_many(grid)
        phi = bg @ fit.eig.right
        phi_star = bg @ fit.eig.left
    com = change_of_measure(phi, phi_star)
    files = {"eigenfunctions.csv": write_csv(
        [f"x{d+1}" for d in range(panel.state_dim)] + ["phi", "phi_star", "change_of_measure"],
        [*grid.T, phi, phi_star, com],
    )}
    if panel.state_dim == 1:
        files["eigenfunctions.svg"] = line_plot(
            grid[:, 0], {"phi": phi, "phi_star": phi_star, "phi*phi_star": com},
            title="Eigenfunctions and change of measure", xlabel="state")
    elif panel.state_dim == 2:
        xs, ys = axes
        for name, vals in [("phi", phi), ("phi_star", phi_star), ("change_of_measure", com)]:
            files[f"eigenfunctions_{name}.svg"] = heat_grid(
                ys, xs, vals.reshape(xs.size, ys.size),
                title=name, xlabel="state 2", ylabel="state 1",
            )
    return files


def _summary_csv(rows: list[dict], level: Optional[float]) -> str:
    """Table of point estimates and optional percentile CI columns."""
    return write_csv(SUMMARY_COLUMNS, [
        [row["statistic"] for row in rows],
        [row["estimate"] for row in rows],
        [row.get("ci_lo") for row in rows],
        [row.get("ci_hi") for row in rows],
        [None if row.get("ci_lo") is None else level for row in rows],
    ])


def validate_summary_csv(path) -> list[dict]:
    """Validate the summary-table schema; returns the parsed rows.

    Schema: exact header (statistic, estimate, ci_lo, ci_hi, level);
    known statistic names; numeric estimate; ci bounds both present or
    both absent with ci_lo <= ci_hi; level in (0, 1) when present.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SUMMARY_COLUMNS:
            raise ValueError(f"bad header {reader.fieldnames}; expected {SUMMARY_COLUMNS}")
        rows = []
        for i, row in enumerate(reader):
            if row["statistic"] not in SUMMARY_STATISTICS:
                raise ValueError(f"unknown statistic {row['statistic']!r} at row {i + 2}")
            est = float(row["estimate"])
            has_lo, has_hi = row["ci_lo"] != "", row["ci_hi"] != ""
            if has_lo != has_hi:
                raise ValueError(f"half-specified CI at row {i + 2}")
            lo = hi = None
            if has_lo:
                lo, hi = float(row["ci_lo"]), float(row["ci_hi"])
                if lo > hi:
                    raise ValueError(f"ci_lo > ci_hi at row {i + 2}")
                level = float(row["level"])
                if not 0 < level < 1:
                    raise ValueError(f"level outside (0,1) at row {i + 2}")
            rows.append({"statistic": row["statistic"], "estimate": est,
                         "ci_lo": lo, "ci_hi": hi})
    return rows


# ----------------------------------------------------------------- commands


def _flag(fit: FitStack) -> Optional[str]:
    """Why the outputs made from ``fit`` are flagged, or None."""
    if fit.reason:
        return f"eigenpair failed the {fit.reason} rule; fell back to the constant solution (rho = 1)"
    if not positive_on_sample(fit.sample.phi_t, fit.sample.phi_t1):
        return "eigenfunction not positive on sample; results are emitted but flagged"
    return None


def _sdf_source(cfg: RunConfig, panel: StatePanel):
    """The fixed preferences that imply the SDF of a fit, or None for the panel's SDF column."""
    prefs = _preferences(cfg)
    if prefs is None and panel.sdf_increments is None:
        raise CliError(f"no SDF column and no preferences; nothing to {cfg.command}")
    if prefs is not None and panel.growth is None:
        raise CliError("preference-implied SDFs need a growth column")
    return prefs


def _cmd_decompose(cfg: RunConfig) -> tuple[Optional[str], dict, dict]:
    panel = read_panel_csv(cfg)
    prefs = _sdf_source(cfg, panel)
    basis = BasisSpec(**cfg.basis).build(panel.states)
    fit = fit_panel(Design(basis, panel), prefs)  # a fallback fit has constant eigenfunctions
    fallback, on = bool(fit.reason), fit.sample
    series = pt_series(fit.eig.rho, on.phi_t, on.phi_t1, fit.m)
    lr = {stat: float(v) for stat, v in long_run_stack(fit.eig.rho, fit.m).items()}
    scalars = {"rho": lr["rho"], "yield_y": lr["y"], "entropy_L": lr["L"],
               "sdf_entropy": lr["sdf_entropy"], "horizon_dependence": lr["horizon_dependence"],
               "association": pt_association(series), "n": panel.n, "basis": basis.family,
               "k": basis.dimension_k, "fallback": fallback}
    if fit.fixed_point is not None:
        scalars["lambda"] = fit.fixed_point.lam
    if not fallback:
        bw = default_bandwidth(panel.n)
        scalars["se_rho"] = on.se_rho
        scalars["v_L"] = variance_entropy(on.psi_rho, fit.eig.rho, fit.m, bw)
        scalars["nw_bandwidth"] = bw
    t = np.arange(panel.n)
    files = {
        "series.csv": write_csv(["t", "m", "m_perm", "m_trans"],
                                [t, series.m, series.m_perm, series.m_trans]),
        "scalars.json": write_json(scalars),
        # change of measure on the sample points (the grid version sits in
        # eigenfunctions.csv)
        "change_of_measure_sample.csv": write_csv(
            ["t", "phi", "phi_star", "change_of_measure"],
            [t, on.phi_t, on.phi_star_t, change_of_measure(on.phi_t, on.phi_star_t)],
        ),
        "series.svg": line_plot(t, {"m": series.m, "m_perm": series.m_perm, "m_trans": series.m_trans},
                                title="SDF and permanent/transitory increments", xlabel="t"),
        **_eigenfunction_files(cfg, panel, basis, fit),
    }
    return _flag(fit), files, {"fallback": fallback}


def _cmd_value(cfg: RunConfig) -> tuple[Optional[str], dict, dict]:
    panel = read_panel_csv(cfg)
    if panel.growth is None:
        raise CliError("the value command needs a growth column")
    prefs = _preferences(cfg)
    if not isinstance(prefs, RecursiveUtility):
        raise CliError("the value command needs --preferences recursive with beta and gamma")
    basis = BasisSpec(**cfg.basis).build(panel.states)
    fp = _row(solve_value_stack(Design(basis, panel), prefs.beta, prefs.gamma), 0)
    if np.isnan(fp.lam):
        raise CliError(f"no value solution at beta={prefs.beta}, gamma={prefs.gamma}: {fp.reason}")
    converged = fp.reason == ""
    grid, _ = _state_grid(panel, cfg.grid_points)
    chi = basis.evaluate_many(grid) @ fp.chi_coeffs
    files = {
        "value.json": write_json({
            "lambda": fp.lam,
            "beta": prefs.beta,
            "gamma": prefs.gamma,
            "iterations": int(fp.iterations),
            "converged": converged,
            "final_step": fp.final_step,
        }),
        "value_function.csv": write_csv(
            [f"x{d+1}" for d in range(panel.state_dim)] + ["chi"], [*grid.T, chi]),
    }
    if panel.state_dim == 1:
        files["value_function.svg"] = line_plot(
            grid[:, 0], {"chi": chi}, title="Continuation-value eigenfunction", xlabel="state")
    return (None if converged else f"{fp.reason} after {fp.iterations} iterations, final step "
            f"{fp.final_step:.3g}; results are emitted but flagged"), files, {"converged": converged}


def _instrument_basis(cfg: RunConfig, panel: StatePanel, solve_basis):
    """Hermite instruments of instrument_k functions for a univariate state, else sparse ones."""
    if panel.state_dim == 1:
        k_inst = _value(cfg, "preferences.instrument_k", min(6, solve_basis.dimension_k))
        spec, advice = BasisSpec(family="hermite", k=k_inst), "lower instrument_k"
    else:
        # lower-order sparse instruments for multivariate states
        spec = BasisSpec(family="sparse", degree=min(2, cfg.basis.get("degree", 2)), cap=3)
        advice = (f"a multivariate state takes sparse instruments of degree {spec.degree} "
                  "and cap 3, so raise the solve basis's degree or cap")
    b = spec.build(panel.states)
    if b.dimension_k > solve_basis.dimension_k:
        raise CliError(
            f"instrument dimension {b.dimension_k} exceeds solve dimension "
            f"{solve_basis.dimension_k}; {advice}"
        )
    return b


def _cmd_calibrate(cfg: RunConfig) -> tuple[Optional[str], dict, dict]:
    panel = read_panel_csv(cfg)
    if panel.returns is None:
        raise CliError("calibrate needs return columns")
    if panel.growth is None:
        raise CliError("calibrate needs a growth column")
    solve_basis = BasisSpec(**cfg.basis).build(panel.states)
    inst_basis = _instrument_basis(cfg, panel, solve_basis)
    result = estimate_preferences(Design(solve_basis, panel), Design(inst_basis, panel))
    rows = [
        {"statistic": "beta", "estimate": result.beta_hat},
        {"statistic": "gamma", "estimate": result.gamma_hat},
    ]
    if result.inner_solution is not None:
        rows.append({"statistic": "lambda", "estimate": result.inner_solution.lam})
    files = {
        "calibration.json": write_json({
            "beta_hat": result.beta_hat,
            "gamma_hat": result.gamma_hat,
            "criterion_value": result.criterion_value,
            "converged": result.converged,
            "lambda": None if result.inner_solution is None else result.inner_solution.lam,
            "evaluations": len(result.optimizer_trace),
            "infeasible": result.infeasible,
        }),
        "trace.csv": write_csv(["beta", "gamma", "criterion"], list(zip(*result.optimizer_trace))),
        "estimates.csv": _summary_csv(rows, level=None),
    }
    return (None if result.converged else "the Nelder-Mead polish did not converge; results are "
            "emitted but flagged"), files, {"converged": result.converged}


def _cmd_bootstrap(cfg: RunConfig) -> tuple[Optional[str], dict, dict]:
    panel = read_panel_csv(cfg)
    prefs = _sdf_source(cfg, panel)
    design = Design(BasisSpec(**cfg.basis).build(panel.states), panel)
    fit = fit_panel(design, prefs)
    b = int(_value(cfg, "bootstrap.b"))
    block = float(_value(cfg, "bootstrap.expected_block"))
    level = float(_value(cfg, "bootstrap.level"))
    boot = bootstrap_ci(bootstrap_statistic(design, prefs), panel.n, b, block, level, cfg.seed)

    point = {stat: float(v) for stat, v in long_run_stack(fit.eig.rho, fit.m).items()}
    if fit.fixed_point is not None:
        point["lambda"] = fit.fixed_point.lam
    if prefs is not None:
        point.update(beta=prefs.beta, gamma=prefs.gamma)
    rows = [{"statistic": stat, "estimate": estimate, "ci_lo": boot.ci_lo.get(stat),
             "ci_hi": boot.ci_hi.get(stat)} for stat, estimate in point.items()]
    files = {
        "summary.csv": _summary_csv(rows, level=level),
        "bootstrap.json": write_json({
            "b": b, "expected_block": block, "level": level, "seed": cfg.seed,
            "discarded": boot.discarded,
            # the reported reasons in their order, then any other reason that occurred
            "discard_reasons": {**dict.fromkeys(DISCARD_REASONS, 0), **boot.discard_reasons},
            "fallback_point_estimate": bool(fit.reason),
        }),
    }
    return _flag(fit), files, {"discarded": boot.discarded}


def _cmd_mc(cfg: RunConfig) -> tuple[Optional[str], dict, dict]:
    preferences = PowerUtility if _value(cfg, "mc.design") == "power" else RecursiveUtility
    beta = float(_value(cfg, "mc.beta", cfg.preferences.get("beta")))
    gamma = float(_value(cfg, "mc.gamma", cfg.preferences.get("gamma")))
    ar1 = Ar1Design(**{k: float(_value(cfg, f"mc.{k}")) for k in ("mu", "kappa", "sigma")})
    design = McDesign(
        ar1=ar1,
        preferences=preferences(beta=beta, gamma=gamma),
        sample_sizes=tuple(_value(cfg, "mc.sizes")),
        replications=int(_value(cfg, "mc.reps")),
        basis_spec=BasisSpec(**cfg.basis),
        seed=cfg.seed,
    )
    table = run_mc_study(design)
    keys = sorted(table.cells)
    cells = [table.cells[key] for key in keys]
    files = {
        "mc_table.csv": write_csv(
            ["design", "basis", "n", "statistic", "bias", "rmse", "replications", "excluded",
             "flagged"],
            [[design.preferences.kind] * len(keys), [design.basis_spec.family] * len(keys),
             [n for n, _ in keys], [stat for _, stat in keys],
             [cell.bias for cell in cells], [cell.rmse for cell in cells],
             [design.replications] * len(keys), [table.excluded.get(n, 0) for n, _ in keys],
             [int(cell.flagged) for cell in cells]]),
        "mc_table_meta.json": write_json({
            "design": design.preferences.kind, "basis": design.basis_spec.family, "k": table.k,
            "replications": design.replications, "seed": design.seed,
            "excluded": {str(n): count for n, count in table.excluded.items()},
            "truths": table.truths, "elapsed_seconds": table.elapsed_seconds,
        }),
    }
    return None, files, {"elapsed_seconds": table.elapsed_seconds}


def run(cfg: RunConfig) -> int:
    """Execute one configured command, then write its files; returns the process exit status.

    A command returns why its outputs are flagged (None if they are not),
    its files as {name: text} in write order, and its extra provenance
    keys. A flag is printed as a warning and makes the exit status 2. Each
    file is rewritten in place, provenance.json last.
    """
    handlers = {
        "decompose": _cmd_decompose,
        "value": _cmd_value,
        "calibrate": _cmd_calibrate,
        "bootstrap": _cmd_bootstrap,
        "mc": _cmd_mc,
    }
    if cfg.command not in handlers:
        raise CliError(f"unknown command {cfg.command!r}")
    flag, files, extra = handlers[cfg.command](cfg)
    if flag is not None:
        print(f"warning: {flag}", file=sys.stderr)
    files["provenance.json"] = write_json({
        "command": cfg.command,
        "config": json.loads(cfg.canonical()),
        "config_sha256": hashlib.sha256(cfg.canonical().encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": {"sdfspectral": __version__, "numpy": np.__version__},
        **extra,
    })
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(cfg.out_dir, name), "w", newline="") as fh:
            fh.write(text)
    return 0 if flag is None else 2


def main(argv=None) -> int:
    try:
        return run(build_config(_parser().parse_args(argv)))
    except (CliError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
