"""Check that every CLI output of this checkout is byte-identical to that of a git revision.

Usage: python3 tools/compare_outputs.py REV

Copies REV's src/ to a temporary directory with ``git archive``, writes
the benchmark inputs at seed 1 with the prepare functions of
bench/workloads.py, a copy of the bootstrap panel with an observed SDF
column m = beta G^(-gamma), the decompose settings as a JSON config
file, a JSON config file with a negative Monte Carlo persistence, two
with a persistence of 0.95 (one of them with preferences.gamma 5), a
power-utility panel whose fitted eigenfunction changes sign on the
sample, a 30-pair panel
whose k = 12 pencil has no positive real eigenvalue (so decompose
takes the constant fallback), the first 60 transition pairs of the
bootstrap panel, a panel whose state takes
eight distinct values (so the log permanent and transitory series are
heavily tied, and a sieve of nine functions needs the SPD ridge), a
messy copy of the bootstrap panel (CRLF rows, a blank line, padded
cells, exponent notation), a 5000-pair panel of the bootstrap law
whose state 2500 is set to 10.0, so that a k = 171 Hermite sieve
overflows and its Gram matrix is not finite, and the same 5001 states
with the last one instead set to 10.0, so that the Gram matrix is
finite but the pricing matrix is not. It runs each argument vector
below once per tree, each in a fresh ``python`` process writing to an
empty output directory (the same path for both trees, as
provenance.json records it). Exit statuses and every output file are
compared by bytes; JSON files are compared after dropping the top-level
``elapsed_seconds`` key. A vector whose stderr holds a Python traceback
on one tree and not the other is a difference too, and so is one whose
stderr lines that start with ``error:`` or ``warning:`` differ. Prints each
difference and exits 1 if there is any. For a CSV or JSON file that
differs, it also prints the largest relative difference |a - b| / max(|a|, |b|)
over the numeric fields, or says that the two files' layouts differ.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SEED = 1
#: one BLAS thread, as in the benchmark
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def argument_vectors(work: Path) -> dict[str, list[str]]:
    """Named argument vectors on the seed-1 benchmark inputs (without --out)."""

    def prepared(name: str) -> list:
        sub = work / name
        sub.mkdir()
        round_ = workloads.WORKLOADS[name][0](SEED, str(sub))
        for p in round_:  # drop the workload's own --out
            i = p.argv.index("--out")
            del p.argv[i:i + 2]
        return [p.argv for p in round_]

    def observed_sdf(argv: list[str]) -> list[str]:
        """argv without preferences, on a copy of its panel with the SDF column they imply."""
        opts = dict(zip(argv[1::2], argv[2::2]))  # the command, then flag/value pairs
        beta, gamma = float(opts.pop("--beta")), float(opts.pop("--gamma"))
        del opts["--preferences"]
        src = Path(opts["--input"])
        with open(src, newline="") as fh:
            rows = list(csv.reader(fh))
        g = rows[0].index(opts["--growth-col"])
        rows[0].append("m")
        for row in rows[1:]:  # flow columns leave row 0 blank
            row.append(row[g] and format(beta * float(row[g]) ** -gamma, ".17g"))
        dest = src.with_name("panel_sdf.csv")
        with open(dest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        opts.update({"--input": str(dest), "--sdf-col": "m"})
        return [argv[0], *(x for pair in opts.items() for x in pair)]

    def config_file(argv: list[str]) -> list[str]:
        """A decompose argv's settings as a JSON config file, with --cap overriding the file's cap."""
        opts = dict(zip(argv[1::2], argv[2::2]))
        config = {
            "input_csv": opts["--input"],
            "state_cols": opts["--state-cols"].split(","),
            "growth_col": opts["--growth-col"],
            "basis": {"family": opts["--basis"], "degree": int(opts["--degree"]),
                      "cap": int(opts["--cap"]) + 1},
            "preferences": {"mode": opts["--preferences"], "beta": float(opts["--beta"]),
                            "gamma": float(opts["--gamma"])},
        }
        dest = Path(opts["--input"]).with_name("config.json")
        dest.write_text(json.dumps(config))
        return [argv[0], "--config", str(dest), "--cap", opts["--cap"]]

    def sign_change_panel() -> str:
        """A panel of the bootstrap workload's law on which phi-hat changes sign (Hermite k = 8)."""
        states = workloads._ar1_states(workloads._rng(4, "bootstrap"), 800)
        path = work / "panel_sign_change.csv"
        workloads._write_csv(str(path), {"g": states}, {"G": np.exp(states[1:])})
        return str(path)

    def fallback_panel() -> str:
        """31 states of the bootstrap workload's law whose k = 12 pencil has no positive real eigenvalue."""
        states = workloads._ar1_states(workloads._rng(39, "bootstrap"), 800)[:31]
        path = work / "panel_fallback.csv"
        workloads._write_csv(str(path), {"g": states}, {"G": np.exp(states[1:])})
        return str(path)

    def discrete_panel() -> str:
        """A panel of the bootstrap workload's law, its state rounded to 0.01 (eight values)."""
        states = np.round(workloads._ar1_states(workloads._rng(1, "bootstrap"), 800), 2)
        path = work / "panel_discrete.csv"
        workloads._write_csv(str(path), {"g": states}, {"G": np.exp(states[1:])})
        return str(path)

    def short_panel() -> str:
        """The first 61 rows (60 transition pairs) of the bootstrap workload's panel."""
        states = workloads._ar1_states(
            workloads._rng(workloads.BOOTSTRAP_PANEL_SEED, "bootstrap"), workloads.BOOTSTRAP_N)[:61]
        path = work / "panel_short.csv"
        workloads._write_csv(str(path), {"g": states}, {"G": np.exp(states[1:])})
        return str(path)

    def overflow_panel(t: int) -> str:
        """5001 states of the bootstrap workload's law at seed 1, state t set to 10.0."""
        states = workloads._ar1_states(workloads._rng(1, "bootstrap"), 5000)
        states[t] = 10.0
        path = work / f"panel_overflow_{t}.csv"
        workloads._write_csv(str(path), {"g": states}, {"G": np.exp(states[1:])})
        return str(path)

    def messy_panel() -> str:
        """The bootstrap workload's panel as a hand-edited file might hold it.

        CRLF rows, one blank line, cells padded with spaces, exponent
        notation (17 significant digits, so the same values) and a blank
        row-0 growth cell.
        """
        states = workloads._ar1_states(
            workloads._rng(workloads.BOOTSTRAP_PANEL_SEED, "bootstrap"), workloads.BOOTSTRAP_N)
        lines = ["g,G", f" {states[0]:.16e} ,"]
        lines += [f"{x:.16e} , {g:.16e}  " for x, g in zip(states[1:], np.exp(states[1:]))]
        lines.insert(400, "")
        path = work / "panel_messy.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        return str(path)

    (decompose,), (bootstrap,), (mc,) = (prepared(w) for w in ("decompose", "bootstrap", "mc"))
    cases = {"decompose": decompose, "bootstrap": bootstrap, "mc": mc}
    cases.update({f"calibrate{j}": argv for j, argv in enumerate(prepared("calibrate"))})
    # one state: the univariate Hermite solve basis and the Hermite branch of the instruments
    cases["calibrate_univariate"] = [*cases["calibrate0"], "--state-cols", "g", "--basis", "hermite",
                                     "--degree", "7"]
    # later occurrences of a flag override earlier ones
    cases["value_recursive"] = ["value", *decompose[1:]]
    # one state (Hermite k = 8), so value_function.svg is written and compared
    cases["value_univariate"] = ["value", *bootstrap[1:], "--preferences", "recursive"]
    # a value run without a solution exits 1 and writes nothing: invalid parameters,
    # and a G^(1-gamma) that overflows
    cases["value_invalid_beta"] = [*cases["value_recursive"], "--beta", "1.2"]
    cases["value_gamma_below_one"] = [*cases["value_recursive"], "--gamma", "0.5"]
    cases["value_growth_overflow"] = [*cases["value_recursive"], "--gamma", "1e5"]
    cases["bootstrap_recursive"] = [*bootstrap, "--preferences", "recursive", "--k", "6",
                                    "--boot-b", "200"]
    # 60 pairs: some count rows' value recursions stop unconverged, others have a
    # continuation value that is not positive on their drawn pairs
    cases["bootstrap_recursive_short"] = [*cases["bootstrap_recursive"], "--input", short_panel()]
    cases["decompose_bspline"] = ["decompose", *bootstrap[1:], "--basis", "bspline", "--k", "7"]
    cases["decompose_power"] = ["decompose", *bootstrap[1:]]
    cases["decompose_config"] = config_file(decompose)
    # the command after its flags: one parser takes flags on either side of it
    cases["decompose_flags_first"] = [*decompose[1:], "decompose"]
    # the full tensor Hermite basis of the two-coordinate state
    cases["decompose_hermite2"] = [*decompose, "--basis", "hermite", "--degree", "2"]
    cases["bootstrap_sdf"] = observed_sdf(bootstrap)
    # every draw restarts a block; and long blocks on the n = 800 panel, many of
    # which wrap past its end
    cases["bootstrap_block1"] = [*bootstrap, "--block", "1"]
    cases["bootstrap_block_long"] = [*bootstrap, "--block", "400"]
    cases["decompose_sdf"] = ["decompose", *cases["bootstrap_sdf"][1:]]
    cases["mc_recursive"] = [*mc, "--design", "recursive", "--k", "6", "--reps", "30",
                             "--sizes", "300,600"]
    # at n = 1600, k = 8 the 45 replicates span several fit blocks: recursive
    # records that cross block edges
    cases["mc_recursive_blocks"] = [*mc, "--design", "recursive", "--k", "8", "--sizes", "1600",
                                    "--reps", "45"]
    # a Hermite degree overrides k: the run fits a k = 4 sieve
    cases["mc_degree"] = [*mc, "--degree", "3"]
    # alternating AR(1) paths; at n = 3200 a replicate range spans several fit blocks
    mc_config = work / "mc_config.json"
    mc_config.write_text(json.dumps({"mc": {"kappa": -0.7}}))
    cases["mc_kappa_negative"] = [*mc, "--config", str(mc_config), "--reps", "60",
                                  "--sizes", "401,3200"]
    # a persistent AR(1) law, whose truths an 80-node quadrature got wrong before they
    # were closed forms: at gamma 5 its rho of 1.59837 was off by 1.8e-6, and at
    # gamma 15 its long-run measure ran off the grid, so mc exited 1 (the rho is 83.0117).
    # The config's gamma 5 holds where the argv's --gamma is dropped
    i = mc.index("--gamma")
    for name, argv, config in (
            ("mc_persistent_gamma5", mc[:i] + mc[i + 2:],
             {"mc": {"kappa": 0.95}, "preferences": {"gamma": 5.0}}),
            ("mc_persistent", mc, {"mc": {"kappa": 0.95}})):
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        cases[name] = [*argv, "--config", str(path), "--reps", "20", "--sizes", "400"]
    # no --design: the Monte Carlo design is the preferences mode
    i = mc.index("--design")
    cases["mc_preferences_mode"] = [*mc[:i], *mc[i + 2:], "--preferences", "recursive",
                                    "--k", "6", "--reps", "20", "--sizes", "300"]
    # the B-spline branch of BasisSpec.evaluate_stack
    cases["mc_bspline"] = [*mc, "--basis", "bspline", "--k", "7", "--reps", "30",
                           "--sizes", "300,600"]
    # one replicate: the single-path branch of simkit._ar1_paths
    cases["mc_one_replicate"] = [*mc, "--reps", "1", "--sizes", "400"]
    # a flagged fit: bootstrap writes its outputs and exits 2, decompose exits 1
    cases["bootstrap_sign_change"] = [*bootstrap, "--input", sign_change_panel()]
    cases["decompose_sign_change"] = ["decompose", *cases["bootstrap_sign_change"][1:]]
    # the constant fallback: decompose writes its outputs with rho = 1 and exits 2
    cases["decompose_fallback"] = ["decompose", *bootstrap[1:], "--input", fallback_panel(),
                                   "--k", "12"]
    # tied ranks in the association statistics; k = 4 stays below the eight state values
    discrete = discrete_panel()
    cases["decompose_discrete"] = ["decompose", *bootstrap[1:], "--input", discrete, "--k", "4"]
    # k = 9 exceeds the eight state values: count-row Gram matrices take the SPD ridge
    cases["bootstrap_ridge"] = [*bootstrap, "--input", discrete, "--preferences", "recursive",
                                "--k", "9", "--boot-b", "200"]
    # CRLF, a blank line, padded cells and exponent notation read as the plain panel does
    cases["decompose_messy_csv"] = ["decompose", *bootstrap[1:], "--input", messy_panel()]
    # a Hermite degree of 171, whose sqrt(171!) is no float: exits 1 naming the degree
    cases["decompose_high_degree"] = ["decompose", *bootstrap[1:], "--k", "172"]
    # a seed of five 32-bit words, past the four of a SeedSequence pool: its words
    # advance the hash constant before the replicate keys are mixed in
    wide_seed = str(2**130 + 7)
    cases["bootstrap_wide_seed"] = [*bootstrap, "--seed", wide_seed]
    cases["mc_wide_seed"] = [*mc, "--seed", wide_seed, "--reps", "20"]
    # Hermite values that overflow at the outlying state: a Gram matrix that is not
    # finite fails the point fit, which exits 1 and writes nothing
    cases["decompose_gram_overflow"] = ["decompose", *bootstrap[1:], "--input",
                                        overflow_panel(2500), "--k", "171"]
    # the last state enters only b(X_{t+1}): G is finite and factors, but the pricing
    # matrix is not finite, which fails the point fit too
    cases["decompose_pricing_overflow"] = ["decompose", *bootstrap[1:], "--input",
                                           overflow_panel(5000), "--k", "171"]
    # under recursive preferences b(X_{t+1}) is the value recursion's input too, which
    # names the same reason before it iterates
    cases["value_pricing_overflow"] = ["value", *cases["decompose_pricing_overflow"][1:],
                                       "--preferences", "recursive"]
    cases["decompose_recursive_pricing_overflow"] = [*cases["decompose_pricing_overflow"],
                                                     "--preferences", "recursive"]
    return cases


def run(src: Path, argv: list[str], out: Path) -> tuple[int, bool, list[str]]:
    """The exit status of one run, whether its stderr holds a traceback, and its
    stderr lines that start with ``error:`` or ``warning:``."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "sdfspectral.cli", *argv, "--out", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=out.parent, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    messages = [line for line in proc.stderr.splitlines()
                if line.startswith(("error:", "warning:"))]
    return proc.returncode, "Traceback (most recent call last)" in proc.stderr, messages


def content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        obj = json.loads(data)
        if isinstance(obj, dict) and obj.pop("elapsed_seconds", None) is not None:
            data = json.dumps(obj).encode()
    return data


def fields(path: Path) -> list[tuple[tuple, object]]:
    """(position, value) of every field of a CSV file (a string) or JSON file (a leaf)."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [((i, j), cell) for i, row in enumerate(csv.reader(fh))
                    for j, cell in enumerate(row)]
    out = []

    def walk(pos: tuple, obj) -> None:
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(pos + (key,), obj[key])
        elif isinstance(obj, list):
            for j, item in enumerate(obj):
                walk(pos + (j,), item)
        else:
            out.append((pos, obj))

    obj = json.loads(path.read_bytes())
    if isinstance(obj, dict):
        obj.pop("elapsed_seconds", None)
    walk((), obj)
    return out


def number(value) -> float | None:
    """A field's numeric value, or None for text, booleans and nulls."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def numeric_report(a: Path, b: Path) -> str:
    """How two differing CSV or JSON files differ: their largest relative numeric difference."""
    fa, fb = fields(a), fields(b)
    if [pos for pos, _ in fa] != [pos for pos, _ in fb]:
        return "layouts differ"
    largest, text_differs = 0.0, False
    for (_, va), (_, vb) in zip(fa, fb):
        x, y = number(va), number(vb)
        if x is None or y is None:
            text_differs |= va != vb
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            scale = max(abs(x), abs(y))
            largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    report = f"largest relative difference over numeric fields {largest:.3g}"
    return report + ("; text fields differ" if text_differs else "")


def differences(name: str, runs: tuple[tuple[int, bool], tuple[int, bool]],
                outs: tuple[Path, Path]) -> list[str]:
    diffs = []
    (status_rev, trace_rev, said_rev), (status, trace, said) = runs
    if status_rev != status:
        diffs.append(f"{name}: exit status {status_rev} at REV, {status} here")
    if trace_rev != trace:
        diffs.append(f"{name}: a traceback on stderr {'at REV only' if trace_rev else 'here only'}")
    if said_rev != said:
        diffs.append(f"{name}: stderr says {said_rev} at REV, {said} here")
    files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in outs]
    for f in sorted(files[0] ^ files[1]):
        diffs.append(f"{name}: {f} written {'at REV only' if f in files[0] else 'here only'}")
    for f in sorted(files[0] & files[1]):
        if content(outs[0] / f) != content(outs[1] / f):
            detail = (f" ({numeric_report(outs[0] / f, outs[1] / f)})"
                      if f.suffix in (".csv", ".json") else "")
            diffs.append(f"{name}: {f} differs{detail}")
    return diffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        trees = (tmp / "src", ROOT / "src")
        inputs = tmp / "inputs"
        inputs.mkdir()
        cases = argument_vectors(inputs)
        diffs, n_files = [], 0
        for name, argv in cases.items():
            # both trees write to the same path, which provenance.json records
            out = tmp / "out" / name
            outs = (tmp / "rev" / name, tmp / "here" / name)
            runs = []
            for src, dest in zip(trees, outs):
                out.mkdir(parents=True)
                runs.append(run(src, argv, out))
                dest.parent.mkdir(exist_ok=True)
                out.rename(dest)
            found = differences(name, tuple(runs), outs)
            n_files += sum(1 for p in outs[1].rglob("*") if p.is_file())
            print(f"{name}: exit {runs[1][0]}, {'differs' if found else 'identical'}", flush=True)
            diffs += found
    for d in diffs:
        print(d)
    print(f"{len(cases)} argument vectors, {n_files} output files: "
          f"{len(diffs)} difference(s) against {rev}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
