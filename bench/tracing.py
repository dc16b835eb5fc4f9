"""Spans around the program's public functions, installed from outside.

A wrapper stands in for each traced function at every name its callers
look it up under (``pipeline.estimate_gram`` as well as
``sievemat.estimate_gram``; methods on their class) and records one span
per call in memory. The wrappers can be switched on and off between
operations, so traced and untraced operations can alternate. Self time
is a span's duration minus that of its traced children. The program's
files are not modified.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory spans: (id, parent id, operation, name, start, end, self seconds)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[list] = []  # [span id, seconds in children]
        self._next_id = 0

    def wrap(self, name: str, fn, post=None):
        """``fn`` recording a span per call; ``post(counters, result)`` may count outcomes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((frame[0], parent, self.op, name, start, end,
                                   end - start - frame[1]))
            if post is not None:
                post(self.counters, result)
            return result

        return traced

    def wrap_factory(self, name: str, factory):
        """``factory`` whose returned callable records a span per call."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s,self_s\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _count_fallback(c, sol):
    c["pfeig.fallbacks"] += sol.is_fallback


def _count_fixed_point(c, fp):
    c["valuefn.iterations"] += fp.iterations
    c["valuefn.unconverged"] += not fp.converged


def _count_infeasible(c, value):
    c["calibrate.criterion.infeasible"] += not math.isfinite(value)


def _count_kept(c, boot):
    c["inference.bootstrap_ci.kept"] += boot.b_total - boot.discarded
    c["inference.bootstrap_ci.total"] += boot.b_total


def _count_excluded(c, table):
    c["simkit.excluded"] += sum(table.excluded.values())


def wrappers(tracer: Tracer, pkg) -> list[tuple]:
    """(owner, attribute, original, traced) for every lookup site of a traced function.

    ``pkg`` maps a module's short name to the ``sdfspectral`` module. A
    lookup site the program no longer has is skipped, so its metrics read 0.
    """
    basis, sievemat, pipeline, valuefn = pkg["basis"], pkg["sievemat"], pkg["pipeline"], pkg["valuefn"]
    calibrate, inference, simkit, cli = pkg["calibrate"], pkg["inference"], pkg["simkit"], pkg["cli"]
    pfeig, oracle, decomp, svgplot = pkg["pfeig"], pkg["oracle"], pkg["decomp"], pkg["svgplot"]
    targets = [
        ("basis.evaluate_many", [(basis.SieveBasis, "evaluate_many")], None),
        ("basis.build", [(basis.BasisSpec, "build")], None),
        ("sievemat.estimate_gram", [sievemat, pipeline, valuefn, simkit], None),
        ("sievemat.estimate_pricing", [sievemat, pipeline, simkit], None),
        ("sievemat.resample", [(sievemat.StatePanel, "resample")], None),
        ("pfeig.solve_generalized", [pfeig, pipeline, simkit], _count_fallback),
        ("valuefn.solve_value_fixed_point", [valuefn, pipeline, calibrate, simkit, cli],
         _count_fixed_point),
        ("valuefn.recursive_sdf_series", [valuefn, pipeline, calibrate, simkit], None),
        ("calibrate.criterion", [calibrate], _count_infeasible),
        ("calibrate.estimate_preferences", [calibrate, cli], None),
        ("inference.stationary_bootstrap_indices", [inference], None),
        ("inference.bootstrap_ci", [inference, cli], _count_kept),
        ("inference.influence_rho", [inference, pipeline, simkit], None),
        ("pipeline.decompose_panel", [pipeline, cli], None),
        ("simkit.simulate_ar1", [simkit], None),
        ("simkit.run_mc_study", [simkit, cli], _count_excluded),
        ("oracle.quadrature_eig", [oracle, simkit], None),
        ("decomp.pt_association", [decomp, pipeline], None),
        ("decomp.series_to_csv", [decomp, cli], None),
        ("cli.read_panel_csv", [cli], None),
        ("cli.main", [cli], None),
        ("svgplot.line_plot", [svgplot, cli], None),
        ("svgplot.heat_grid", [svgplot, cli], None),
    ]
    out = []
    for name, sites, post in targets:
        attr = name.rsplit(".", 1)[1]
        for site in sites:
            owner, attr_here = site if isinstance(site, tuple) else (site, attr)
            original = getattr(owner, attr_here, None)
            if original is not None:
                out.append((owner, attr_here, original, tracer.wrap(name, original, post)))
    # each replicate's call of the returned closure is one pipeline.bootstrap_statistic span
    for owner in (pipeline, cli):
        factory = getattr(owner, "bootstrap_statistic", None)
        if factory is not None:
            out.append((owner, "bootstrap_statistic", factory,
                        tracer.wrap_factory("pipeline.bootstrap_statistic", factory)))
    return out


def switch(sites: list[tuple], traced: bool) -> None:
    """Put the traced (or the original) functions at every lookup site."""
    for owner, attr, original, wrapper in sites:
        setattr(owner, attr, wrapper if traced else original)


#: per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("basis.evaluate_many.calls", "calls/op", "lower"),
    ("basis.evaluate_many.ms", "ms/op", "lower"),
    ("basis.build.ms", "ms/op", "lower"),
    ("sievemat.estimate_gram.calls", "calls/op", "lower"),
    ("sievemat.estimate_gram.ms", "ms/op", "lower"),
    ("sievemat.estimate_pricing.ms", "ms/op", "lower"),
    ("sievemat.resample.ms", "ms/op", "lower"),
    ("pfeig.solve_generalized.calls", "calls/op", "lower"),
    ("pfeig.solve_generalized.ms", "ms/op", "lower"),
    ("pfeig.fallbacks", "count/op", "lower"),
    ("valuefn.solve_value_fixed_point.calls", "calls/op", "lower"),
    ("valuefn.solve_value_fixed_point.ms", "ms/op", "lower"),
    ("valuefn.iterations", "count/op", "lower"),
    ("valuefn.unconverged", "count/op", "lower"),
    ("valuefn.recursive_sdf_series.ms", "ms/op", "lower"),
    ("calibrate.criterion.calls", "calls/op", "lower"),
    ("calibrate.criterion.ms", "ms/op", "lower"),
    ("calibrate.criterion.infeasible", "count/op", "lower"),
    ("calibrate.estimate_preferences.self_ms", "ms/op", "lower"),
    ("inference.stationary_bootstrap_indices.ms", "ms/op", "lower"),
    ("inference.bootstrap_ci.self_ms", "ms/op", "lower"),
    ("inference.bootstrap_ci.kept_ratio", "ratio", "higher"),
    ("inference.influence_rho.ms", "ms/op", "lower"),
    ("pipeline.decompose_panel.ms", "ms/op", "lower"),
    ("pipeline.bootstrap_statistic.ms", "ms/rep", "lower"),
    ("simkit.simulate_ar1.ms", "ms/op", "lower"),
    ("simkit.run_mc_study.self_ms", "ms/op", "lower"),
    ("simkit.excluded", "count/op", "lower"),
    ("oracle.quadrature_eig.ms", "ms/op", "lower"),
    ("decomp.pt_association.ms", "ms/op", "lower"),
    ("decomp.series_to_csv.ms", "ms/op", "lower"),
    ("cli.read_panel_csv.ms", "ms/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("svgplot.line_plot.ms", "ms/op", "lower"),
    ("svgplot.heat_grid.ms", "ms/op", "lower"),
    ("sdfspectral.import_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def per_layer_metrics(tracer: Tracer, ops: int, import_ms: float, overhead_pct: float) -> dict:
    """Every PER_LAYER metric, per traced operation unless its unit says otherwise.

    A layer the workload never calls reads 0.
    """
    calls: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    for _, _, _, name, start, end, self_s in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
    c = tracer.counters
    values = {}
    for metric, unit, _ in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            v = calls[span] / ops
        elif stat == "ms" and unit == "ms/rep":
            v = 1000.0 * total[span] / calls[span] if calls[span] else 0.0
        elif stat == "ms":
            v = 1000.0 * total[span] / ops
        elif stat == "self_ms":
            v = 1000.0 * own[span] / ops
        elif metric == "inference.bootstrap_ci.kept_ratio":
            t = c["inference.bootstrap_ci.total"]
            v = c["inference.bootstrap_ci.kept"] / t if t else 0.0
        elif metric == "sdfspectral.import_ms":
            v = import_ms
        elif metric == "trace.overhead_pct":
            v = overhead_pct
        else:
            v = c[metric] / ops
        values[metric] = {"value": v, "unit": unit}
    return values
