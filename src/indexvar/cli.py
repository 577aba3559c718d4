"""Command-line front end: simulate | fit | select | decompose | forecast | montecarlo.

Configuration comes from a flat key = value file plus flag overrides (flags
win). Every run writes a manifest that echoes the resolved configuration --
the manifest is itself a valid config file, so a run can be reproduced from
it alone. All numbers are written with 17 significant digits and all
randomness flows from one 64-bit seed through SeedSequence spawning, so
identical configurations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, decomp, estimators, simulate as sim
from .forecast import forecast as forecast_path, rolling_evaluate
from .select import grid_search
from .tscore import Panel, read_panel_csv, subspace_distance

__all__ = ["RunConfig", "run", "main"]

MODELS = ("mai", "vhari", "iaar", "ciaar", "vecim", "vecm", "drvar")
SIM_MODELS = ("mai", "vhari", "iaar", "ciaar", "drvar")
SELECT_MODELS = ("ciaar", "iaar", "mai")


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
    workers: int = 1
    max_iter: int = 500
    tol: float = 1e-8
    ridge: float = 0.0

    def validate(self) -> None:
        if self.subcommand == "select":
            self.model = self.model or "ciaar"
            if self.model not in SELECT_MODELS:
                raise ValueError(f"select searches {', '.join(SELECT_MODELS)}, not {self.model!r}")
        if self.subcommand in ("fit", "decompose", "forecast"):
            if self.model not in MODELS:
                raise ValueError(f"missing or unknown model {self.model!r}")
        if self.subcommand in ("simulate", "montecarlo"):
            if self.model not in SIM_MODELS:
                raise ValueError(f"cannot simulate model {self.model!r}")
            if self.q >= self.n:
                raise ValueError(f"need q < n, got q={self.q}, n={self.n}")
        if self.model == "iaar" and self.s > self.p:
            raise ValueError(f"need s <= p, got s={self.s} > p={self.p}")
        if self.model == "ciaar" and self.p >= 2 and self.s > self.p:
            raise ValueError(f"need s <= p, got s={self.s} > p={self.p}")
        if self.model in ("ciaar", "vecim", "vecm") and self.r > self.q:
            raise ValueError(f"need r <= q, got r={self.r} > q={self.q}")
        if self.criterion not in ("aic", "bic", "hq"):
            raise ValueError(f"unknown criterion {self.criterion!r}")

    def fit_options(self) -> estimators.FitOptions:
        return estimators.FitOptions(max_iter=self.max_iter, tol=self.tol, ridge=self.ridge)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _format_rows(rows: list, sep: str) -> list:
    """Rows of numbers as "%.17g" cells joined by sep, through one row template."""
    template = sep.join(["%.17g"] * len(rows[0])) if rows else ""
    return [template % tuple(row) for row in rows]


def write_panel_csv(panel: Panel, path) -> None:
    lines = [",".join(panel.names)] + _format_rows(panel.values.tolist(), ",")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(cfg: RunConfig, path) -> None:
    lines = [f"# indexvar {__version__} manifest (feed back via --config to reproduce)"]
    lines.append(f"# numpy {np.__version__}")
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_params_text(params, path, extra: dict | None = None) -> None:
    lines = [f"model_class = {type(params).__name__}"]
    if extra:
        for k, v in extra.items():
            lines.append(f"{k} = {_fmt(v)}")
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
    return ["  " + line for line in _format_rows(arr.tolist(), " ")]


def _write_trace_csv(fit, path) -> None:
    lines = ["iteration,loglik"]
    for i, ll in enumerate(fit.loglik_trace, start=1):
        lines.append(f"{i},{ll:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_series_csv(path, columns: dict) -> None:
    rows = np.column_stack(list(columns.values())).tolist()
    lines = [",".join(columns)] + _format_rows(rows, ",")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _dgp_params(cfg: RunConfig):
    seed = cfg.dgp_seed if cfg.dgp_seed >= 0 else cfg.seed
    if cfg.model == "mai":
        return sim.random_mai_params(cfg.n, cfg.q, cfg.p, seed)
    if cfg.model == "vhari":
        return sim.random_vhari_params(cfg.n, cfg.q, seed)
    if cfg.model == "iaar":
        return sim.random_iaar_params(cfg.n, cfg.q, cfg.p, cfg.s, seed)
    if cfg.model == "ciaar":
        return sim.random_ciaar_params(cfg.n, cfg.q, cfg.r, cfg.p, cfg.s, seed)
    if cfg.model == "drvar":
        return sim.random_drvar_params(cfg.n, cfg.q, cfg.p, seed)
    raise ValueError(f"cannot simulate model {cfg.model!r}")


def _simulate_panel(cfg: RunConfig, params, seed):
    kw = dict(T=cfg.T, burn=cfg.burn, seed=seed, dist=cfg.dist)
    return {
        "mai": sim.simulate_mai,
        "vhari": sim.simulate_vhari,
        "iaar": sim.simulate_iaar,
        "ciaar": sim.simulate_ciaar,
        "drvar": sim.simulate_drvar,
    }[cfg.model](params, **kw)


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


def _fit_from_config(cfg: RunConfig, panels: list):
    """The configured model's fits to equal-length panels, in order.

    One panel goes to the model's fitter. Several panels of a
    switching-engine model share one lockstep run of estimators.fit_many;
    vecm and drvar are fitted panel by panel.
    """
    opts = cfg.fit_options()
    m = cfg.model
    if m == "vecm":
        return [estimators.johansen_rrr(Y, cfg.p, cfg.r) for Y in panels]
    if m == "drvar":
        return [_fit_drvar(cfg, Y) for Y in panels]
    if m not in estimators.ENGINE_ORDERS:
        raise ValueError(f"unknown model {m!r}")
    orders = {k: getattr(cfg, k) for k in estimators.ENGINE_ORDERS[m]}
    if len(panels) == 1:
        return [getattr(estimators, f"fit_{m}")(panels[0], opts=opts, **orders)]
    return estimators.fit_many(m, panels, opts=opts, **orders)


def _fit_drvar(cfg: RunConfig, Y: Panel):
    omega, _ = estimators.fit_drvar_omega(Y, cfg.p0, cfg.q)
    return estimators.fit_drvar_coeffs(Y, omega, cfg.p, method=cfg.method)


def _cmd_fit(cfg: RunConfig, outdir):
    Y = read_panel_csv(cfg.input)
    fit, = _fit_from_config(cfg, [Y])
    _write_params_text(
        fit.params, outdir / "fit_params.txt",
        extra={
            "loglik": fit.loglik, "converged": fit.converged,
            "iterations": fit.iterations, "T_eff": fit.T_eff,
        },
    )
    _write_trace_csv(fit, outdir / "loglik_trace.csv")
    return fit, Y


def _cmd_decompose(cfg: RunConfig, outdir) -> None:
    fit, Y = _cmd_fit(cfg, outdir)
    cols: dict = {}
    if cfg.model == "drvar":
        d = decomp.drvar_decompose(fit, Y)
        parts = {"dynamic": d.chi, "static": d.iota, "nu": d.extras["nu"]}
    elif cfg.model in ("ciaar", "vecim") and fit.params.r >= 1:
        d = decomp.perm_trans(fit, Y=Y)
        parts = {"chi": d.chi, "iota": d.iota, "pi": d.pi, "tau": d.tau}
    else:
        d = decomp.common_uncommon(fit, Y)
        parts = {"chi": d.chi, "iota": d.iota}
    for label, block in parts.items():
        if block is None:
            continue
        for i, name in enumerate(Y.names):
            cols[f"{label}_{name}"] = block[:, i]
    _write_series_csv(outdir / "components.csv", cols)


def _cmd_select(cfg: RunConfig, outdir) -> None:
    Y = read_panel_csv(cfg.input)
    table = grid_search(
        Y, (cfg.p_min, cfg.p_max), (cfg.q_min, cfg.q_max),
        kind=cfg.criterion, opts=cfg.fit_options(), model=cfg.model, workers=cfg.workers,
    )
    table.to_csv(outdir / "ic_table.csv")
    with open(outdir / "ic_table.csv", "a") as fh:
        fh.write(f"# best marks the {cfg.criterion} minimizer over T_eff = {table.T_eff}\n")
        fh.write("# n_params excludes the innovation covariance (constant across candidates)\n")


def _cmd_forecast(cfg: RunConfig, outdir) -> None:
    fit, Y = _cmd_fit(cfg, outdir)
    path = forecast_path(fit, Y, cfg.horizon)
    cols = {"step": np.arange(1, cfg.horizon + 1, dtype=float)}
    for i, name in enumerate(Y.names):
        cols[name] = path.values[:, i]
    _write_series_csv(outdir / "forecast.csv", cols)
    if cfg.origins > 0:
        table, _, info = rolling_evaluate(
            Y, lambda windows: _fit_from_config(cfg, windows), cfg.horizon, cfg.origins,
            refit=bool(cfg.refit),
        )
        table.to_csv(outdir / "msfe.csv")
        with open(outdir / "msfe.csv", "a") as fh:
            fh.write(f"# refit_each_origin = {info['refit_each_origin']}\n")


def _mc_one(args):
    cfg, params, rep, child = args
    panel = _simulate_panel(cfg, params, child)
    try:
        fit, = _fit_from_config(cfg, [panel])
        omega_hat = getattr(fit.params, "omega", None)
        dist = (
            subspace_distance(omega_hat, params.omega)
            if omega_hat is not None and omega_hat.shape[1]
            else float("nan")
        )
        return rep, fit.loglik, fit.iterations, int(fit.converged), dist, ""
    except (ValueError, np.linalg.LinAlgError) as exc:   # a failed fit, not a bug
        return rep, float("nan"), 0, 0, float("nan"), f"{type(exc).__name__}: {exc}"


def _cmd_montecarlo(cfg: RunConfig, outdir) -> None:
    params = _dgp_params(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    tasks = [(cfg, params, rep, children[rep]) for rep in range(cfg.reps)]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_mc_one, tasks))
    else:
        results = [_mc_one(t) for t in tasks]
    results.sort(key=lambda row: row[0])
    lines = ["rep,loglik,iterations,converged,omega_subspace_distance,error"]
    for rep, ll, iters, conv, dist, err in results:
        lines.append(f"{rep},{_fmt(ll)},{iters},{conv},{_fmt(dist)},{err}")
    with open(outdir / "mc_results.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument and config handling
# ---------------------------------------------------------------------------


def _read_config_file(path) -> dict:
    known = {f.name: f.type for f in fields(RunConfig)}
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
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def _coerce(value, target):
    if isinstance(value, str) and isinstance(target, int):
        return int(value)
    if isinstance(value, str) and isinstance(target, float):
        return float(value)
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand, out=args.out or ".")
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            if key == "subcommand":
                continue
            setattr(cfg, key, _coerce(value, getattr(cfg, key)))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None and f.name not in ("subcommand",):
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


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--seed", type=int, default=None)


def _add_model_flags(parser):
    parser.add_argument("--model", default=None, choices=MODELS)
    for name in ("p", "s", "q", "r", "p0", "max-iter"):
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--ridge", type=float, default=None)
    parser.add_argument("--method", default=None, choices=("ols", "gls"))


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

    ps = sub.add_parser("simulate", help="simulate a reference DGP and write panel.csv")
    _add_common(ps)
    _add_model_flags(ps)
    for name in ("n", "T", "burn", "dgp-seed"):
        ps.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int, default=None)
    ps.add_argument("--dist", default=None, choices=("gaussian", "lognormal_garch"))

    for name, extra in (
        ("fit", ()),
        ("decompose", ("horizon",)),
        ("forecast", ("horizon", "origins", "refit")),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        _add_model_flags(p)
        p.add_argument("--input", default=None, help="input panel CSV")
        for e in extra:
            p.add_argument(f"--{e}", dest=e, type=int, default=None, help=(
                "accepted so a configuration shared with forecast parses; decompose writes "
                "exact components and reads no horizon" if name == "decompose" else None))

    p = sub.add_parser("select", help="information-criterion grid search")
    _add_common(p)
    p.add_argument("--input", default=None)
    p.add_argument("--model", default=None, choices=SELECT_MODELS)
    for name in ("p-min", "p-max", "q-min", "q-max", "workers", "max-iter"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int, default=None)
    p.add_argument("--criterion", default=None, choices=("aic", "bic", "hq"))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--ridge", type=float, default=None)

    p = sub.add_parser("montecarlo", help="simulate-and-refit replications")
    _add_common(p)
    _add_model_flags(p)
    for name in ("n", "T", "burn", "dgp-seed", "reps", "workers"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int, default=None)
    p.add_argument("--dist", default=None, choices=("gaussian", "lognormal_garch"))
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
