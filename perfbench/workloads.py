"""The benchmark's workloads and the layer instrumentation they are traced with.

Each workload builds its inputs from the workload seed in its constructor
(the set-up phase), runs one unit per ``run_unit`` call (the timed phase),
and afterwards checks its outputs and reports result quality. Why each
workload exists, and which layers it bypasses, is stated in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import statistics
from pathlib import Path

import numpy as np

from indexvar import cli, decomp, estimators, select, simulate, tscore

# the package re-exports the function forecast under the module's name
forecast = importlib.import_module("indexvar.forecast")

# The CIAAR reference DGP of the c12 criterion: n=6, q=2, r=1, p=2, s=2.
CIAAR_DGP = dict(n=6, q=2, r=1, p=2, s=2, seed=0)
CIAAR_TRUTH = (2, 2, 2, 1)                    # (p, s, q, r)
GRID_ROWS = 54                                # (p, s, q, r) over p, q in 1..3
CLI_ORDERS = ["--model", "ciaar", "--p", "2", "--s", "2", "--q", "2", "--r", "1"]


def unit_seeds(seed: int, n_units: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n_units)]


def span(tracer, name):
    """A benchmark-side span around a call, or nothing when tracing is off."""
    return tracer.span(name) if tracer else contextlib.nullcontext({})


class SelectGrid:
    """One HQ grid search over (p, s, q, r) per CIAAR panel."""

    name = "select-grid"

    def __init__(self, seed, n_units, workdir, tracer):
        params = simulate.random_ciaar_params(**CIAAR_DGP)
        self.panels = [
            simulate.simulate_ciaar(params, 1000, seed=s) for s in unit_seeds(seed, n_units)
        ]
        self.opts = estimators.FitOptions(max_iter=120)

    def run_unit(self, i):
        return select.grid_search(
            self.panels[i], (1, 3), (1, 3), kind="hq", opts=self.opts, model="ciaar", workers=1,
        )

    @staticmethod
    def unit_failed(table) -> bool:
        return any(row.failed for row in table.rows)

    def check(self, tables) -> list[str]:
        errors = []
        for i, table in enumerate(tables):
            if len(table.rows) != GRID_ROWS:
                errors.append(f"grid {i}: {len(table.rows)} rows, expected {GRID_ROWS}")
            best = table.best_row("hq")
            if not (math.isfinite(best.hq) and math.isfinite(best.loglik)):
                errors.append(f"grid {i}: best row {best.orders()} is not finite")
        return errors

    def quality(self, tables) -> dict:
        picks = [table.best_row("hq").orders() == CIAAR_TRUTH for table in tables]
        return {"quality.hq_pick_rate": sum(picks) / len(picks)}


class PipelineRolling:
    """The CLI pipeline simulate -> fit -> decompose -> forecast with 50 rolling origins."""

    name = "pipeline-rolling"
    steps = ("simulate", "fit", "decompose", "forecast")

    def __init__(self, seed, n_units, workdir, tracer):
        self.seeds = unit_seeds(seed, n_units)
        self.workdir = Path(workdir)
        self.tracer = tracer

    def _argv(self, step, unit_dir, seed):
        panel = str(unit_dir / "simulate" / "panel.csv")
        extra = {
            "simulate": ["--n", "6", "--T", "1000", "--seed", str(seed), "--dgp-seed", "0"],
            "fit": ["--input", panel],
            "decompose": ["--input", panel, "--horizon", "200"],
            "forecast": ["--input", panel, "--horizon", "12", "--origins", "50"],
        }[step]
        return [step, *extra, *CLI_ORDERS, "--out", str(unit_dir / step)]

    def run_unit(self, i):
        unit_dir = self.workdir / f"unit{i}"
        codes = []
        for step in self.steps:
            with span(self.tracer, f"cli.{step}") as attrs:
                codes.append(cli.main(self._argv(step, unit_dir, self.seeds[i])))
            attrs["io.bytes_written"] = _dir_bytes(unit_dir / step)
        return unit_dir, codes

    @staticmethod
    def unit_failed(out) -> bool:
        return any(code != 0 for code in out[1])

    def check(self, outs) -> list[str]:
        errors = [
            f"unit {i}: {step} exited {code}"
            for i, (_, codes) in enumerate(outs)
            for step, code in zip(self.steps, codes)
            if code != 0
        ]
        for i, (unit_dir, _) in enumerate(outs):
            if not math.isfinite(_msfe_h1(unit_dir)):
                errors.append(f"unit {i}: horizon-1 MSFE is not finite")
        # c15: a repeated unit writes byte-identical report files
        unit_dir = outs[0][0]
        before = _snapshot(unit_dir)
        self.run_unit(0)
        if _snapshot(unit_dir) != before:
            errors.append("unit 0: repeated run wrote different report files")
        return errors

    def quality(self, outs) -> dict:
        return {"quality.msfe_h1": statistics.median(_msfe_h1(d) for d, _ in outs)}


class MCWide:
    """Monte Carlo replications of simulate_mai + fit_mai at n=20, q=2, p=2, T=2000."""

    name = "mc-wide"

    def __init__(self, seed, n_units, workdir, tracer):
        self.params = simulate.random_mai_params(20, 2, 2, seed=0)
        # spawned the way the CLI's montecarlo subcommand spawns replication seeds
        self.children = np.random.SeedSequence(seed).spawn(n_units)
        self.opts = estimators.FitOptions()

    def run_unit(self, i):
        panel = simulate.simulate_mai(self.params, 2000, burn=500, seed=self.children[i])
        fit = estimators.fit_mai(panel, 2, 2, opts=self.opts)
        return tscore.subspace_distance(fit.params.omega, self.params.omega)

    @staticmethod
    def unit_failed(dist) -> bool:
        return False

    def check(self, dists) -> list[str]:
        return [
            f"replication {i}: omega distance {d!r} is not finite"
            for i, d in enumerate(dists)
            if not math.isfinite(d)
        ]

    def quality(self, dists) -> dict:
        return {"quality.omega_dist_p50": statistics.median(dists)}


WORKLOADS = {w.name: w for w in (SelectGrid, PipelineRolling, MCWide)}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _snapshot(unit_dir: Path) -> dict:
    return {
        str(f.relative_to(unit_dir)): f.read_bytes()
        for f in sorted(unit_dir.rglob("*"))
        if f.is_file()
    }


def _msfe_h1(unit_dir: Path) -> float:
    """Mean over series of the horizon-1 MSFE in the forecast step's msfe.csv."""
    path = unit_dir / "forecast" / "msfe.csv"
    if not path.is_file():
        return math.nan
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cells = fh.readline().strip().split(",")
    if cells[0] != "1":
        return math.nan
    return statistics.fmean(float(c) for c in cells[1: len(header) - 1])


def instrument(tracer) -> None:
    """Span every public call the workloads reach, named <module>.<function>."""

    def fit_ciaar_attrs(args, fit):
        attrs = {
            "estimators.fit_ciaar.sweeps": fit.iterations,
            "estimators.fit_ciaar.nonconverged": int(not fit.converged),
        }
        # s = 1 with 0 < r < q runs the dense step-2 fallback
        if args["s"] == 1 and 0 < args["r"] < args["q"]:
            attrs["sublayer"] = "s1_partial_rank"
        return attrs

    def read_attrs(args, _):
        return {"io.bytes_read": os.path.getsize(args["path"])}

    tracer.instrument(
        "estimators.fit_ciaar", [(select, "fit_ciaar"), (estimators, "fit_ciaar")],
        fit_ciaar_attrs, ("estimators.fit_ciaar.sweeps", "estimators.fit_ciaar.nonconverged"),
    )
    tracer.declare("estimators.fit_ciaar.s1_partial_rank")
    tracer.instrument(
        "estimators.fit_mai", [(select, "fit_mai"), (estimators, "fit_mai")],
        lambda args, fit: {"estimators.fit_mai.sweeps": fit.iterations},
        ("estimators.fit_mai.sweeps",),
    )
    tracer.instrument("estimators.init_ciaar", [(estimators, "init_ciaar")])
    tracer.instrument("estimators.johansen_rrr", [(estimators, "johansen_rrr")])
    tracer.instrument("simulate.simulate_ciaar", [(simulate, "simulate_ciaar")])
    tracer.instrument("simulate.simulate_mai", [(simulate, "simulate_mai")])
    tracer.instrument("select.grid_search", [(select, "grid_search")])
    tracer.instrument("decomp.perm_trans", [(decomp, "perm_trans")])
    tracer.instrument("decomp.wold", [(decomp, "wold")])
    tracer.instrument(
        "forecast.rolling_evaluate", [(cli, "rolling_evaluate"), (forecast, "rolling_evaluate")]
    )
    tracer.instrument("forecast.forecast", [(cli, "forecast_path"), (forecast, "forecast")])
    tracer.instrument("forecast.evaluate", [(forecast, "evaluate")])
    tracer.instrument(
        "tscore.read_panel_csv", [(cli, "read_panel_csv"), (tscore, "read_panel_csv")],
        read_attrs, ("io.bytes_read",),
    )
    tracer.instrument("cli.write_panel_csv", [(cli, "write_panel_csv")])
    for step in PipelineRolling.steps:
        tracer.declare(f"cli.{step}", ("io.bytes_written",))
