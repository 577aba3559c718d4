"""Command-line front end: simulate | fit | select | decompose | forecast | montecarlo.

Configuration comes from a flat key = value file plus flag overrides (flags
win). Every flag but --config sets the RunConfig field of its name
(--max-iter sets max_iter), and a flag and a config key are converted by
that field's type. Every run writes a manifest that echoes the resolved configuration --
the manifest is itself a valid config file, so a run can be reproduced from
it alone. All numbers are written with 17 significant digits and all
randomness flows from one 64-bit seed through SeedSequence spawning, so
identical configurations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, decomp, estimators, simulate as sim
from .forecast import first_origin, forecast as forecast_path, rolling_evaluate
from .select import CRITERIA, FAMILIES, grid_search
from .tscore import (HAR_WINDOWS, Panel, cell, format_rows, read_panel_csv,
                     subspace_distance, write_csv)

__all__ = ["RunConfig", "run", "main"]

# the models simulate draws (estimators.MODELS gives each one's params class)
SIMULATED = tuple(m for m, model in estimators.MODELS.items() if model.simulated)
# the least value of each seed and count a subcommand reads (dgp_seed -1: draw from seed)
_DRAW = {"seed": 0, "dgp_seed": -1, "T": 1, "burn": 0}
LEAST = {"simulate": _DRAW, "forecast": {"horizon": 1, "origins": 0},
         "montecarlo": {**_DRAW, "reps": 0}, "select": {"p_max": 1, "q_max": 1}}


@dataclass
class RunConfig:
    subcommand: str
    out: str
    input: str = ""
    model: str = ""
    n: int = 6
    T: int = 1000
    p: int = 1
    s: int = 1
    q: int = 1
    r: int = 0
    p0: int = 2
    burn: int = 500
    seed: int = 0
    dgp_seed: int = -1
    dist: str = "gaussian"
    method: str = "ols"
    criterion: str = "hq"
    p_min: int = 1
    p_max: int = 2
    q_min: int = 1
    q_max: int = 2
    horizon: int = 12
    origins: int = 0
    refit: int = 1
    reps: int = 20
    max_iter: int = estimators.FitOptions.max_iter
    tol: float = estimators.FitOptions.tol

    def validate(self) -> None:
        for key, least in LEAST.get(self.subcommand, {}).items():
            if getattr(self, key) < least:
                raise ValueError(f"--{key.replace('_', '-')} must be >= {least}, "
                                 f"got {getattr(self, key)}")
        if self.subcommand == "forecast" and self.refit not in (0, 1):
            raise ValueError(f"--refit must be 0 or 1, got {self.refit}")
        if self.subcommand == "select":
            self.model = self.model or "ciaar"
            if self.model not in FAMILIES:
                raise ValueError(f"select searches {', '.join(FAMILIES)}, not {self.model!r}")
            for x in ("p", "q"):                       # else the candidate grid is empty
                lo, hi = getattr(self, f"{x}_min"), getattr(self, f"{x}_max")
                if lo > hi:
                    raise ValueError(f"--{x}-min must be <= --{x}-max, got {lo} > {hi}")
        if self.subcommand in ("fit", "decompose", "forecast"):
            if self.model not in estimators.MODELS:
                raise ValueError(f"missing or unknown model {self.model!r}")
        # decomp splits by omega, which neither a VECM nor an IAAR at q = 0 has
        if self.subcommand == "decompose" and (self.model == "vecm" or
                                               (self.model, self.q) == ("iaar", 0)):
            at = " at q = 0" if self.model == "iaar" else ""
            raise ValueError(f"no common/uncommon split for model {self.model!r}{at}")
        if self.subcommand in ("simulate", "montecarlo"):   # the others leave orders to the fitter
            if self.model not in SIMULATED:
                raise ValueError(f"cannot simulate model {self.model!r}")
            model = estimators.MODELS[self.model]
            model.simulated.check_orders(self.n, *(getattr(self, k) for k in model.orders))
            if self.model == "vhari" and self.burn < HAR_WINDOWS[-1]:   # simulate's rule for VHARI
                raise ValueError(f"--burn must be >= {HAR_WINDOWS[-1]} for model vhari, "
                                 f"got {self.burn}")
        for key in ("method", "dist", "criterion"):    # a configuration file's values skip argparse
            if getattr(self, key) not in CHOICES[key]:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}")

    def fit_options(self) -> estimators.FitOptions:
        return estimators.FitOptions(max_iter=self.max_iter, tol=self.tol)


REPORT_BLOCK = 256   # rows a CSV report formats at a time: bounds its text held in memory


def write_panel_csv(panel: Panel, path) -> None:
    values = panel.values
    write_csv(path, panel.names,
              (values[i:i + REPORT_BLOCK] for i in range(0, len(values), REPORT_BLOCK)))


def _write_manifest(cfg: RunConfig, path) -> None:
    lines = [f"# indexvar {__version__} manifest (feed back via --config to reproduce)"]
    lines.append(f"# numpy {np.__version__}")
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name} = {cell(getattr(cfg, f.name))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_params_text(params, path, extra: dict | None = None) -> None:
    lines = [f"model_class = {type(params).__name__}"]
    if extra:
        for k, v in extra.items():
            lines.append(f"{k} = {cell(v)}")
    lines.append(f"n_free_params = {params.n_free_params()}")
    for name, value in vars(params).items():
        if isinstance(value, list):
            for j, item in enumerate(value, start=1):
                lines.append(f"{name}[{j}] =")
                lines.extend(_array_lines(np.atleast_2d(item)))
        else:
            lines.append(f"{name} =")
            lines.extend(_array_lines(np.atleast_2d(value)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _array_lines(arr: np.ndarray) -> list:
    return ["  " + line for line in format_rows(arr.tolist(), " ")]


def _write_series_csv(path, header: list, columns: list) -> None:
    """The columns side by side under header, in order, stacked a block of rows at a time."""
    T, = {len(a) for a in columns}       # one length, as a whole column_stack would demand
    write_csv(path, header, (np.column_stack([a[i:i + REPORT_BLOCK] for a in columns])
                             for i in range(0, T, REPORT_BLOCK)))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _dgp_params(cfg: RunConfig):
    """The model's random_<model>_params draw at its orders (estimators.MODELS)."""
    orders = {k: getattr(cfg, k) for k in estimators.MODELS[cfg.model].orders}
    seed = cfg.dgp_seed if cfg.dgp_seed >= 0 else cfg.seed
    return getattr(sim, f"random_{cfg.model}_params")(cfg.n, seed=seed, **orders)


def _simulate_panel(cfg: RunConfig, params, seed):
    # looked up at call time, so a patched simulate_<model> is the one run
    simulate = getattr(sim, f"simulate_{cfg.model}")
    return simulate(params, T=cfg.T, burn=cfg.burn, seed=seed, dist=cfg.dist)


def _params_to_jsonable(params) -> dict:
    out = {"model_class": type(params).__name__}
    for name, value in vars(params).items():
        if isinstance(value, list):
            out[name] = [np.asarray(v).tolist() for v in value]
        else:
            out[name] = np.asarray(value).tolist()
    return out


def _cmd_simulate(cfg: RunConfig, outdir) -> None:
    params = _dgp_params(cfg)
    panel = _simulate_panel(cfg, params, cfg.seed)
    write_panel_csv(panel, outdir / "panel.csv")
    sidecar = {
        "seed": cfg.seed,
        "dgp_seed": cfg.dgp_seed if cfg.dgp_seed >= 0 else cfg.seed,
        "model": cfg.model,
        "orders": {"p": cfg.p, "s": cfg.s, "q": cfg.q, "r": cfg.r},
        "T": cfg.T,
        "burn": cfg.burn,
        "dist": cfg.dist,
        "params": _params_to_jsonable(params),
    }
    with open(outdir / "dgp_params.json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fit_from_config(cfg: RunConfig, panels: list, start: tuple | None = None):
    """The configured model's fits to equal-length panels, in order.

    The panels of a switching-engine model share one lockstep run of
    estimators.fit_many, which for one panel is the model's fitter, each
    from start = (gamma0, omega0, D0) when given; vecm and drvar are fitted
    panel by panel as the fits are read, and take no start.
    """
    opts = cfg.fit_options()
    orders = {k: getattr(cfg, k) for k in estimators.MODELS[cfg.model].orders}
    if cfg.model == "vecm":
        return map(lambda Y: estimators.johansen_rrr(Y, **orders), panels)
    if cfg.model == "drvar":                       # map goes on past a fit that raises
        return map(functools.partial(_fit_drvar, cfg), panels)
    return estimators.fit_many(cfg.model, panels, opts=opts, init=start, **orders)


def _fit_drvar(cfg: RunConfig, Y: Panel):
    omega, _ = estimators.fit_drvar_omega(Y, cfg.p0, cfg.q)
    return estimators.fit_drvar_coeffs(Y, omega, cfg.p, method=cfg.method)


def _cmd_fit(cfg: RunConfig, outdir, Y: Panel | None = None):
    Y = read_panel_csv(cfg.input) if Y is None else Y
    fit, = _fit_from_config(cfg, [Y])
    _write_params_text(
        fit.params, outdir / "fit_params.txt",
        extra={
            "loglik": fit.loglik, "converged": fit.converged,
            "iterations": fit.iterations, "T_eff": fit.T_eff,
        },
    )
    trace = fit.loglik_trace                           # "%.17g" writes iteration 1.0 as 1
    _write_series_csv(outdir / "loglik_trace.csv", ["iteration", "loglik"],
                      [np.arange(1.0, len(trace) + 1), trace])
    return fit, Y


def _cmd_decompose(cfg: RunConfig, outdir) -> None:
    fit, Y = _cmd_fit(cfg, outdir)
    if cfg.model == "drvar":
        d = decomp.drvar_decompose(fit, Y)
        parts = {"dynamic": d.chi, "static": d.iota, "nu": d.extras["nu"]}
    elif cfg.model in ("ciaar", "vecim") and fit.params.r >= 1:
        d = decomp.perm_trans(fit, Y=Y)
        parts = {"chi": d.chi, "iota": d.iota, "pi": d.pi, "tau": d.tau}
    else:
        d = decomp.common_uncommon(fit, Y)
        parts = {"chi": d.chi, "iota": d.iota}
    _write_series_csv(outdir / "components.csv",
                      [f"{label}_{name}" for label in parts for name in Y.names],
                      [column for block in parts.values() for column in block.T])


def _cmd_select(cfg: RunConfig, outdir) -> None:
    Y = read_panel_csv(cfg.input)
    table = grid_search(
        Y, (cfg.p_min, cfg.p_max), (cfg.q_min, cfg.q_max),
        kind=cfg.criterion, opts=cfg.fit_options(), model=cfg.model,
    )
    table.to_csv(outdir / "ic_table.csv")
    with open(outdir / "ic_table.csv", "a") as fh:
        fh.write(f"# best marks the {cfg.criterion} minimizer over T_eff = {table.T_eff}\n")
        fh.write("# n_params excludes the innovation covariance (constant across candidates)\n")
        fh.write(f"# pruned rows are unfitted: {cfg.criterion} at loglik_bound exceeds the best\n")


def _cmd_forecast(cfg: RunConfig, outdir) -> None:
    Y = read_panel_csv(cfg.input)
    if cfg.origins > 0:                                # refuse a short panel before any report
        first_origin(Y.T, cfg.horizon, cfg.origins)
    fit, _ = _cmd_fit(cfg, outdir, Y)
    path = forecast_path(fit, Y, cfg.horizon)
    _write_series_csv(outdir / "forecast.csv", ["step", *Y.names],
                      [np.arange(1.0, cfg.horizon + 1), *path.values.T])
    if cfg.origins > 0:
        start = None                                   # an engine model's windows start from fit
        if estimators.MODELS[cfg.model].setup:
            params = fit.params
            start = getattr(params, "gamma", None), params.omega, getattr(params, "ds", [])
        table, _, info = rolling_evaluate(
            Y, lambda windows: _fit_from_config(cfg, windows, start), cfg.horizon, cfg.origins,
            refit=bool(cfg.refit),
        )
        table.to_csv(outdir / "msfe.csv")
        with open(outdir / "msfe.csv", "a") as fh:
            fh.write(f"# refit_each_origin = {info['refit_each_origin']}\n")


MC_CHUNK = 50   # replications per lockstep fit: bounds the panels held at once


def _mc_rows(cfg: RunConfig, params, children: list):
    """The mc_results.csv row of each child seed's replication, MC_CHUNK panels at a time."""
    for first in range(0, len(children), MC_CHUNK):
        panels = [_simulate_panel(cfg, params, child) for child in children[first:first + MC_CHUNK]]
        try:
            fits = iter(_fit_from_config(cfg, panels))
        except (ValueError, np.linalg.LinAlgError) as exc:   # a setup error fails every panel alike
            fits = iter([exc] * len(panels))
        for rep in range(first, first + len(panels)):
            try:
                fit = next(fits)
                if isinstance(fit, Exception):
                    raise fit
                omega_hat = fit.params.omega          # nan below: IAAR's q = 0 has no index
                dist = subspace_distance(omega_hat, params.omega) if omega_hat.size else float("nan")
                yield rep, fit.loglik, fit.iterations, int(fit.converged), dist, ""
            except (ValueError, np.linalg.LinAlgError) as exc:   # a failed fit, not a bug
                yield rep, "nan", 0, 0, "nan", f"{type(exc).__name__}: {exc}"


def _cmd_montecarlo(cfg: RunConfig, outdir) -> None:
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    write_csv(outdir / "mc_results.csv",
              "rep,loglik,iterations,converged,omega_subspace_distance,error".split(","),
              _mc_rows(cfg, _dgp_params(cfg), children))


# ---------------------------------------------------------------------------
# argument and config handling
# ---------------------------------------------------------------------------


# each RunConfig field's converter for its flag and its config value: int or
# float for a numeric field, None (the text as given) for a string field
_CONVERTERS = {k: None if t is str else t for k, t in get_type_hints(RunConfig).items()}

_ORDERS = ("model", "p", "s", "q", "r")
_FITTING = (*_ORDERS, "p0", "max_iter", "tol", "method")
_DGP = ("n", "T", "burn", "dgp_seed")
# each subcommand's flags after --config, --out and --seed, in --help order,
# as the RunConfig fields they set: field max_iter is flag --max-iter
FLAGS = {
    "simulate": (*_ORDERS, *_DGP, "dist"),
    "fit": (*_FITTING, "input"),
    "decompose": (*_FITTING, "input", "horizon"),
    "forecast": (*_FITTING, "input", "horizon", "origins", "refit"),
    "select": ("input", "model", "p_min", "p_max", "q_min", "q_max", "max_iter", "criterion",
               "tol"),
    "montecarlo": (*_FITTING, *_DGP, "reps", "dist"),
}
# a flag's choices and help by field, or by (subcommand, field) where one subcommand's differ;
# RunConfig.validate holds a configuration file's values to the same choices
CHOICES = {"model": (*estimators.MODELS,), ("select", "model"): FAMILIES,
           ("simulate", "model"): SIMULATED, ("montecarlo", "model"): SIMULATED,
           ("decompose", "model"): tuple(m for m in estimators.MODELS if m != "vecm"),
           "method": ("ols", "gls"), "dist": ("gaussian", "lognormal_garch"), "criterion": CRITERIA}
HELP = {
    "out": "output directory",
    "input": "input panel CSV",
    ("decompose", "horizon"): "accepted so a configuration shared with forecast parses; "
                              "decompose writes exact components and reads no horizon",
}
COMMANDS = {                                           # the subcommands --help describes
    "simulate": "simulate a reference DGP and write panel.csv",
    "select": "information-criterion grid search",
    "montecarlo": "simulate-and-refit replications",
}


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "workers":                      # an old manifest's montecarlo pool size
                continue
            if key == "ridge":                        # every old manifest holds ridge = 0
                if value not in ("0", "0.0"):
                    raise ValueError(f"{path}:{lineno}: the ridge penalty was removed; "
                                     "only ridge = 0 is accepted")
                continue
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            convert = _CONVERTERS[key]
            try:
                out[key] = convert(value) if convert else value
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be of type {convert.__name__}, "
                                 f"got {value!r}") from None
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand, out=args.out or ".")
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key != "subcommand":
                setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None and f.name != "subcommand":
            setattr(cfg, f.name, flag)
    cfg.validate()
    return cfg


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "select": _cmd_select,
        "decompose": _cmd_decompose,
        "forecast": _cmd_forecast,
        "montecarlo": _cmd_montecarlo,
    }
    if cfg.subcommand not in dispatch:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")
    dispatch[cfg.subcommand](cfg, outdir)
    _write_manifest(cfg, outdir / "manifest.txt")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    Every flag defaults to None and parse_args fills a fresh namespace, so
    nothing one call parses reaches the next.
    """
    parser = argparse.ArgumentParser(
        prog="indexvar",
        description="Index-structured VAR toolkit: simulate, fit, select, decompose, forecast.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name, **({"help": COMMANDS[name]} if name in COMMANDS else {}))
        p.add_argument("--config", help="flat key = value configuration file")
        for field in ("out", "seed", *flags):
            p.add_argument(
                "--" + field.replace("_", "-"), type=_CONVERTERS[field],
                choices=CHOICES.get((name, field), CHOICES.get(field)),
                help=HELP.get((name, field), HELP.get(field)),
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(cfg)
    except Exception as exc:
        print(f"indexvar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
