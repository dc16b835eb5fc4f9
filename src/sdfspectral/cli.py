"""Command-line front end.

Subcommands: decompose, value, calibrate, bootstrap, mc. Configuration
comes from a JSON file (--config) with individual flags taking
precedence. Outputs are CSVs/JSON plus small SVG plots, written to the
output directory together with a provenance record (config hash, seed,
versions). CSV conventions: header row, comma separator, UTF-8, decimal
point; floats carry 17 significant digits so they round-trip losslessly.

Time alignment of input CSVs: each row is one period; state columns hold
X_t for that row, while growth/SDF/return columns hold the increment or
return realized over the period ending at that row. Row 0 of the flow
columns is therefore ignored.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .basis import BasisSpec
from .calibrate import estimate_preferences
from .csvout import write_csv
from .decomp import change_of_measure, scalars_to_json, series_to_csv
from .inference import bootstrap_ci, default_bandwidth, variance_entropy
from .oracle import Ar1Design
from .pipeline import DISCARD_REASONS, bootstrap_statistic, decompose_panel
from .preferences import PowerUtility, RecursiveUtility
from .sievemat import Design, StatePanel
from .simkit import McDesign, run_mc_study, write_mc_outputs
from .svgplot import heat_grid, line_plot
from .valuefn import solve_value_fixed_point

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


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
        sp.add_argument("--input", help="input panel CSV")
        sp.add_argument("--state-cols", help="comma-separated state column names")
        sp.add_argument("--growth-col", help="growth column name")
        sp.add_argument("--return-cols", help="comma-separated return column names")
        sp.add_argument("--sdf-col", help="observable SDF increment column name")
        sp.add_argument("--basis", choices=["hermite", "bspline", "sparse"])
        sp.add_argument("--k", type=int, help="sieve dimension (per coordinate for hermite)")
        sp.add_argument("--degree", type=int, help="polynomial degree (hermite/sparse)")
        sp.add_argument("--cap", type=int, help="total-degree cap (sparse)")
        sp.add_argument("--beta", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--preferences", choices=["power", "recursive", "estimate"],
                        dest="pref_mode")
        sp.add_argument("--instrument-k", type=int, help="instrument basis dimension")
        sp.add_argument("--boot-b", type=int, help="bootstrap replications")
        sp.add_argument("--block", type=float, help="expected bootstrap block length")
        sp.add_argument("--level", type=float, help="confidence level, e.g. 0.90")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--reps", type=int, help="MC replications")
        sp.add_argument("--sizes", help="comma-separated MC sample sizes")
        sp.add_argument("--design", choices=["power", "recursive"], help="MC design")
        sp.add_argument("--grid-points", type=int, help="eigenfunction grid resolution")
    return p


_CONFIG_KEYS = {
    "command", "input_csv", "state_cols", "growth_col", "return_cols", "sdf_col",
    "basis", "preferences", "bootstrap", "mc", "out_dir", "seed", "grid_points",
}


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
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(command=args.command)
    for key in _CONFIG_KEYS - {"command"}:
        if key in raw:
            setattr(cfg, key, raw[key])

    if args.input is not None:
        cfg.input_csv = args.input
    if args.state_cols is not None:
        cfg.state_cols = [c for c in args.state_cols.split(",") if c]
    if args.growth_col is not None:
        cfg.growth_col = args.growth_col
    if args.return_cols is not None:
        cfg.return_cols = [c for c in args.return_cols.split(",") if c]
    if args.sdf_col is not None:
        cfg.sdf_col = args.sdf_col
    for key in ("basis", "k", "degree", "cap"):
        val = getattr(args, key if key != "basis" else "basis")
        if val is not None:
            if key == "basis":
                cfg.basis["family"] = val
            else:
                cfg.basis[key] = val
    if args.pref_mode is not None:
        cfg.preferences["mode"] = args.pref_mode
    if args.beta is not None:
        cfg.preferences["beta"] = args.beta
    if args.gamma is not None:
        cfg.preferences["gamma"] = args.gamma
    if args.instrument_k is not None:
        cfg.preferences["instrument_k"] = args.instrument_k
    if args.boot_b is not None:
        cfg.bootstrap["b"] = args.boot_b
    if args.block is not None:
        cfg.bootstrap["expected_block"] = args.block
    if args.level is not None:
        cfg.bootstrap["level"] = args.level
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.reps is not None:
        cfg.mc["reps"] = args.reps
    if args.sizes is not None:
        cfg.mc["sizes"] = [int(s) for s in args.sizes.split(",") if s]
    if args.design is not None:
        cfg.mc["design"] = args.design
    if args.grid_points is not None:
        cfg.grid_points = args.grid_points

    if cfg.command != "mc":
        if cfg.input_csv is None:
            raise CliError("an input CSV is required (--input or config input_csv)")
    elif cfg.input_csv is not None:
        raise CliError("the mc command takes a design, not an input CSV")
    return cfg


# ----------------------------------------------------------------- ingest


def read_panel_csv(cfg: RunConfig) -> StatePanel:
    """Read and validate the panel CSV per the documented time alignment."""
    if not cfg.state_cols:
        raise CliError("state_cols must name at least one column")
    try:
        with open(cfg.input_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            rows = list(reader)
    except FileNotFoundError:
        raise CliError(f"input CSV not found: {cfg.input_csv}")
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
        out = np.empty(len(rows) - start)
        for i, row in enumerate(rows[start:]):
            cell = row[col]
            try:
                out[i] = float(cell)
            except (TypeError, ValueError):
                raise CliError(
                    f"column {col!r} has a non-numeric value {cell!r} "
                    f"at data row {i + start + 2}"
                )
        return out

    states = np.column_stack([parse(c) for c in cfg.state_cols])
    if not np.all(np.isfinite(states)):
        bad = np.argwhere(~np.isfinite(states))[0]
        raise CliError(
            f"state column {cfg.state_cols[bad[1]]!r} is non-finite at data row {bad[0] + 2}"
        )
    growth = None
    if cfg.growth_col:
        growth = parse(cfg.growth_col, skip_first=True)
        if np.any(growth <= 0):
            r = int(np.argmax(growth <= 0))
            raise CliError(
                f"growth column {cfg.growth_col!r} must be positive (data row {r + 3})"
            )
    sdf = None
    if cfg.sdf_col:
        sdf = parse(cfg.sdf_col, skip_first=True)
        if np.any(sdf <= 0):
            r = int(np.argmax(sdf <= 0))
            raise CliError(
                f"SDF column {cfg.sdf_col!r} must be positive (data row {r + 3})"
            )
    returns = None
    if cfg.return_cols:
        returns = np.column_stack([parse(c, skip_first=True) for c in cfg.return_cols])
    return StatePanel.from_states(states, growth=growth, sdf_increments=sdf, returns=returns)


def _preferences(cfg: RunConfig):
    mode = cfg.preferences.get("mode")
    if mode in (None, "none"):
        return None
    if mode == "estimate":
        return "estimate"
    beta = cfg.preferences.get("beta")
    gamma = cfg.preferences.get("gamma")
    if beta is None or gamma is None:
        raise CliError(f"preferences mode {mode!r} needs beta and gamma")
    if mode == "power":
        return PowerUtility(beta=beta, gamma=gamma)
    if mode == "recursive":
        return RecursiveUtility(beta=beta, gamma=gamma)
    raise CliError(f"unknown preferences mode {mode!r}")


def _basis_spec(cfg: RunConfig) -> BasisSpec:
    try:
        return BasisSpec.from_dict(cfg.basis)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad basis spec: {exc}")


# ----------------------------------------------------------------- output


def _write_provenance(cfg: RunConfig, extra: Optional[dict] = None) -> None:
    payload = {
        "command": cfg.command,
        "config": json.loads(cfg.canonical()),
        "config_sha256": hashlib.sha256(cfg.canonical().encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": {
            "sdfspectral": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
    }
    if extra:
        payload.update(extra)
    with open(os.path.join(cfg.out_dir, "provenance.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _state_grid(panel: StatePanel, points: int) -> np.ndarray:
    lo = panel.x0.min(axis=0)
    hi = panel.x0.max(axis=0)
    if panel.state_dim == 1:
        return np.linspace(lo[0], hi[0], points)[:, None]
    side = max(11, int(math.sqrt(points)))
    axes = [np.linspace(lo[d], hi[d], side) for d in range(panel.state_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _write_eigenfunction_outputs(cfg, panel, basis, sol) -> None:
    grid = _state_grid(panel, cfg.grid_points)
    if sol.is_fallback:
        phi = np.ones(grid.shape[0])
        phi_star = np.ones(grid.shape[0])
    else:
        bg = basis.evaluate_many(grid)
        phi = bg @ sol.right_coeffs
        phi_star = bg @ sol.left_coeffs
    com = change_of_measure(phi, phi_star)
    write_csv(
        os.path.join(cfg.out_dir, "eigenfunctions.csv"),
        [f"x{d+1}" for d in range(panel.state_dim)] + ["phi", "phi_star", "change_of_measure"],
        np.column_stack([grid, phi, phi_star, com]),
    )
    if panel.state_dim == 1:
        line_plot(
            os.path.join(cfg.out_dir, "eigenfunctions.svg"),
            grid[:, 0],
            {"phi": phi, "phi_star": phi_star, "phi*phi_star": com},
            title="Eigenfunctions and change of measure",
            xlabel="state",
        )
    elif panel.state_dim == 2:
        side = int(round(math.sqrt(grid.shape[0])))
        xs = np.unique(grid[:, 0])
        ys = np.unique(grid[:, 1])
        for name, vals in [("phi", phi), ("phi_star", phi_star), ("change_of_measure", com)]:
            heat_grid(
                os.path.join(cfg.out_dir, f"eigenfunctions_{name}.svg"),
                ys, xs, vals.reshape(side, side),
                title=name, xlabel="state 2", ylabel="state 1",
            )


def _write_summary_csv(path, rows: list[dict], level: Optional[float]) -> None:
    """Table of point estimates and optional percentile CI columns."""
    write_csv(path, SUMMARY_COLUMNS, [
        [row["statistic"], row["estimate"], row.get("ci_lo"), row.get("ci_hi"),
         None if row.get("ci_lo") is None else level]
        for row in rows
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


def _cmd_decompose(cfg: RunConfig) -> int:
    panel = read_panel_csv(cfg)
    prefs = _preferences(cfg)
    if prefs == "estimate":
        raise CliError("decompose needs fixed preferences or an SDF column; run calibrate first")
    if prefs is None and panel.sdf_increments is None:
        raise CliError("no SDF column and no preferences; nothing to decompose")
    if prefs is not None and panel.growth is None:
        raise CliError("preference-implied SDFs need a growth column")
    basis = _basis_spec(cfg).build(panel.states)
    res = decompose_panel(Design(basis, panel), prefs)
    fit = res.fit

    extra = {"n": panel.n, "basis": basis.family.value, "k": basis.dimension_k,
             "fallback": fit.sol.is_fallback}
    if fit.fixed_point is not None:
        extra["lambda"] = fit.fixed_point.lam
    if fit.influence is not None:
        bw = default_bandwidth(panel.n)
        extra["se_rho"] = fit.influence.se_rho()
        extra["v_L"] = variance_entropy(fit.influence, fit.m, bw)
        extra["nw_bandwidth"] = bw
    series_to_csv(res.series, os.path.join(cfg.out_dir, "series.csv"))
    scalars_to_json(res.series, os.path.join(cfg.out_dir, "scalars.json"),
                    association=res.association, extra=extra)
    # change of measure on the sample points (the grid version sits in
    # eigenfunctions.csv)
    write_csv(
        os.path.join(cfg.out_dir, "change_of_measure_sample.csv"),
        ["t", "phi", "phi_star", "change_of_measure"],
        zip(range(panel.n), fit.phi_t, fit.phi_star_t,
            change_of_measure(fit.phi_t, fit.phi_star_t)),
    )
    t = np.arange(panel.n)
    line_plot(
        os.path.join(cfg.out_dir, "series.svg"),
        t,
        {"m": res.series.m, "m_perm": res.series.m_perm, "m_trans": res.series.m_trans},
        title="SDF and permanent/transitory increments",
        xlabel="t",
    )
    _write_eigenfunction_outputs(cfg, panel, basis, fit.sol)
    _write_provenance(cfg, {"fallback": fit.sol.is_fallback})
    if fit.sol.is_fallback:
        print(
            "warning: no real simple positive eigenvalue; fell back to the "
            "constant solution (rho = 1)",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_value(cfg: RunConfig) -> int:
    panel = read_panel_csv(cfg)
    if panel.growth is None:
        raise CliError("the value command needs a growth column")
    prefs = _preferences(cfg)
    if not isinstance(prefs, RecursiveUtility):
        raise CliError("the value command needs --preferences recursive with beta and gamma")
    basis = _basis_spec(cfg).build(panel.states)
    fp = solve_value_fixed_point(Design(basis, panel), prefs.beta, prefs.gamma)
    payload = {
        "lambda": fp.lam,
        "beta": fp.beta,
        "gamma": fp.gamma,
        "iterations": fp.iterations,
        "converged": fp.converged,
        "final_step": fp.final_step,
    }
    with open(os.path.join(cfg.out_dir, "value.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    grid = _state_grid(panel, cfg.grid_points)
    chi = basis.evaluate_many(grid) @ fp.chi_coeffs
    write_csv(
        os.path.join(cfg.out_dir, "value_function.csv"),
        [f"x{d+1}" for d in range(panel.state_dim)] + ["chi"],
        np.column_stack([grid, chi]),
    )
    if panel.state_dim == 1:
        line_plot(os.path.join(cfg.out_dir, "value_function.svg"), grid[:, 0],
                  {"chi": chi}, title="Continuation-value eigenfunction", xlabel="state")
    _write_provenance(cfg, {"converged": fp.converged})
    return 0 if fp.converged else 2


def _instrument_basis(cfg: RunConfig, panel: StatePanel, solve_basis):
    k_inst = cfg.preferences.get("instrument_k", min(6, solve_basis.dimension_k))
    degree = max(0, int(k_inst) - 1) if panel.state_dim == 1 else cfg.basis.get("degree", 2)
    if panel.state_dim == 1:
        spec = BasisSpec(family="hermite", k=int(k_inst))
    else:
        # lower-order sparse instruments for multivariate states
        spec = BasisSpec(family="sparse", degree=min(2, degree), cap=3)
    b = spec.build(panel.states)
    if b.dimension_k > solve_basis.dimension_k:
        raise CliError(
            f"instrument dimension {b.dimension_k} exceeds solve dimension "
            f"{solve_basis.dimension_k}; lower instrument_k"
        )
    return b


def _cmd_calibrate(cfg: RunConfig) -> int:
    panel = read_panel_csv(cfg)
    if panel.returns is None:
        raise CliError("calibrate needs return columns")
    if panel.growth is None:
        raise CliError("calibrate needs a growth column")
    solve_basis = _basis_spec(cfg).build(panel.states)
    inst_basis = _instrument_basis(cfg, panel, solve_basis)
    result = estimate_preferences(Design(solve_basis, panel), Design(inst_basis, panel))
    payload = {
        "beta_hat": result.beta_hat,
        "gamma_hat": result.gamma_hat,
        "criterion_value": result.criterion_value,
        "converged": result.converged,
        "lambda": None if result.inner_solution is None else result.inner_solution.lam,
        "evaluations": len(result.optimizer_trace),
    }
    with open(os.path.join(cfg.out_dir, "calibration.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    write_csv(os.path.join(cfg.out_dir, "trace.csv"), ["beta", "gamma", "criterion"],
              result.optimizer_trace)
    rows = [
        {"statistic": "beta", "estimate": result.beta_hat},
        {"statistic": "gamma", "estimate": result.gamma_hat},
    ]
    if result.inner_solution is not None:
        rows.append({"statistic": "lambda", "estimate": result.inner_solution.lam})
    _write_summary_csv(os.path.join(cfg.out_dir, "estimates.csv"), rows, level=None)
    _write_provenance(cfg, {"converged": result.converged})
    return 0 if result.converged else 2


def _cmd_bootstrap(cfg: RunConfig) -> int:
    panel = read_panel_csv(cfg)
    prefs = _preferences(cfg)
    if prefs == "estimate":
        raise CliError("bootstrap with estimated preferences is not wired into the CLI; "
                       "fix beta and gamma")
    if prefs is None and panel.sdf_increments is None:
        raise CliError("no SDF column and no preferences; nothing to bootstrap")
    design = Design(_basis_spec(cfg).build(panel.states), panel)
    res = decompose_panel(design, prefs)
    b = int(cfg.bootstrap.get("b", 1000))
    block = float(cfg.bootstrap.get("expected_block", 6))
    level = float(cfg.bootstrap.get("level", 0.90))
    seed = int(cfg.bootstrap.get("seed", cfg.seed))
    boot = bootstrap_ci(bootstrap_statistic(design, prefs), panel, b, block, level, seed)

    point = res.scalar_record()
    rows = []
    for stat in ("rho", "y", "L", "sdf_entropy", "horizon_dependence", "lambda"):
        if stat not in point:
            continue
        rows.append(
            {
                "statistic": stat,
                "estimate": point[stat],
                "ci_lo": boot.ci_lo.get(stat),
                "ci_hi": boot.ci_hi.get(stat),
            }
        )
    if isinstance(prefs, (PowerUtility, RecursiveUtility)):
        rows.append({"statistic": "beta", "estimate": prefs.beta})
        rows.append({"statistic": "gamma", "estimate": prefs.gamma})
    _write_summary_csv(os.path.join(cfg.out_dir, "summary.csv"), rows, level=level)
    with open(os.path.join(cfg.out_dir, "bootstrap.json"), "w") as fh:
        json.dump(
            {
                "b": b,
                "expected_block": block,
                "level": level,
                "seed": seed,
                "discarded": boot.discarded,
                "discard_reasons": {
                    r: boot.discard_reasons.get(r, 0) for r in DISCARD_REASONS
                },
                "fallback_point_estimate": res.fit.sol.is_fallback,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    _write_provenance(cfg, {"discarded": boot.discarded})
    return 2 if res.fit.sol.is_fallback else 0


def _cmd_mc(cfg: RunConfig) -> int:
    mc = dict(cfg.mc)
    design_kind = mc.get("design", "power")
    beta = float(mc.get("beta", cfg.preferences.get("beta", 0.994)))
    gamma = float(mc.get("gamma", cfg.preferences.get("gamma", 15.0)))
    prefs = (
        PowerUtility(beta=beta, gamma=gamma)
        if design_kind == "power"
        else RecursiveUtility(beta=beta, gamma=gamma)
    )
    ar1 = Ar1Design(
        mu=float(mc.get("mu", 0.005)),
        kappa=float(mc.get("kappa", 0.6)),
        sigma=float(mc.get("sigma", 0.01)),
    )
    design = McDesign(
        ar1=ar1,
        preferences=prefs,
        sample_sizes=tuple(mc.get("sizes", (400, 800, 1600, 3200))),
        replications=int(mc.get("reps", 2000)),
        basis_spec=_basis_spec(cfg),
        seed=cfg.seed,
    )
    table = run_mc_study(design)
    write_mc_outputs(table, cfg.out_dir)
    _write_provenance(cfg, {"elapsed_seconds": table.elapsed_seconds})
    return 0


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    handlers = {
        "decompose": _cmd_decompose,
        "value": _cmd_value,
        "calibrate": _cmd_calibrate,
        "bootstrap": _cmd_bootstrap,
        "mc": _cmd_mc,
    }
    if cfg.command not in handlers:
        raise CliError(f"unknown command {cfg.command!r}")
    return handlers[cfg.command](cfg)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
