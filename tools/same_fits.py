"""Check that source trees fit a fixed battery of cases to the same results.

    python tools/same_fits.py --tree parent=../parent/src --tree change=src

Each ``--tree`` is ``LABEL=SRC_DIR``. Every tree runs the whole battery in
one fresh process with ``PYTHONPATH`` at ``SRC_DIR`` and ``--blas`` as in
``tools/mc_timing.py``. A case's result is everything it returns, as JSON:
a fit's log-likelihood trace, parameters, sigma, diagnostics, residuals,
iterations and stop; a grid's rows (log-likelihoods, bounds, criteria,
stops and errors) and picks; or the type and message of the exception it
raised. Floats print exactly, so equal text means equal bits.

The battery (79 cases):
- c12 grids (CIAAR, HQ, n = 6, T = 1000), seeds 0-3, pruned and with
  prune=False, pruned under AIC and under BIC, seeds 0-1, and seed 0
  pruned at max_iter = 1 and at max_iter = 2;
- CIAAR and IAAR grids on the first 30 and 40 rows of an n = 6 CIAAR
  panel, pruned and with prune=False, each with failed rows;
- five CIAAR orders on n = 6, T = 400 panels, seeds 0-3;
- fit_many over 50 sliding CIAAR windows from their default starts, and
  from the whole panel's fit at (2, 2, 2, 1) and (2, 1, 3, 1), and over 50
  MAI windows from the whole panel's fit, as the CLI's forecast refits;
- fit_many over 50 undemeaned CIAAR (2, 2, 2, 1) windows from their default
  starts, one of them with y4_t = y1_{t-1}, whose start regression fails;
  and over 50 demeaned ones, one with y4_t = y1_{t-1} + y2_{t-1}, whose
  engine run ends but whose sigma fails the guard as the batch finishes;
- fit_many over 50 CIAAR (2, 2, 3, 1) windows at max_iter = 1 from the whole
  panel's fit, so each keeps the start's omega, and over 50 n = 20, T = 500
  MAI panels, the CLI's montecarlo chunk;
- fit_many over 50 sliding windows of IAAR (2, 2, 1), VHARI (q = 2) and
  VECIM (1, 2, 1), each from the default starts and from the whole panel's
  fit;
- fit_mai at n = 20, T = 2000, seeds 0-2 (the mc-wide shape);
- IAAR with q = 0 and q = 1, MAI with q = n (which the IAAR rule refuses),
  the IAAR grid, an n = 4 IAAR grid with prune=False whose (2, 2, 3, 0) and
  (3, 3, 3, 0) are not more parsimonious than the unrestricted VAR, and a
  MAI grid on 40 rows whose largest order fails the sample check;
- VHARI, fit_vecim(Y, 1, 2, 1), johansen_rrr and init_ciaar;
- degenerate covariances: on an n = 6 CIAAR panel with y4_t = y1_{t-1},
  the IAAR grid, the CIAAR grid pruned and with prune=False, and
  johansen_rrr(Y, 2, 1); and MAIParams built with a sigma whose eigenvalue
  ratio is 1e-13;
- fit_drvar_coeffs by OLS and by GLS; cc_projectors and
  structural_transitory_irf on a fitted CIAAR; and MAIParams built with a
  zero omega.

Prints each tree's wall time and every case whose text differs from the
first tree's, with the first differing characters, the largest relative
difference among its floats (over each array, relative to its largest
magnitude), and whether its iterations, stop reasons, error texts and
picks are equal; then the machine. Exits 1 when a case differs.
"""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from mc_timing import MACHINE, _env


DISCRETE = ("iterations", "stop", "error", "best")    # a case's fields compared for equality


def _plain(value):
    """value as JSON data: arrays as nested lists and dataclasses as dicts,
    recursively."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return _plain(vars(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _fit(fit) -> dict:
    return _plain({"model": fit.model, "trace": fit.loglik_trace, "iterations": fit.iterations,
                   "converged": fit.converged, "t_start": fit.t_start, "means": fit.means,
                   "diagnostics": fit.diagnostics, "params": fit.params, "residuals": fit.residuals})


def _each_fit(fits) -> list:
    """Each fit of a fit_many iterator, or its exception's type and message."""
    out = []
    while True:
        try:
            out.append(_fit(next(fits)))
        except StopIteration:
            return out
        except Exception as exc:               # a raised error is a result too
            out.append({"error": f"raised {type(exc).__name__}: {exc}"})


def _grid(table) -> dict:
    return _plain({"rows": table.rows, "best": table.best, "T_eff": table.T_eff, "kind": table.kind})


def battery() -> dict:
    """Each case's name and a callable returning its plain result."""
    from indexvar import decomp, estimators as est, simulate as sim
    from indexvar.params import MAIParams
    from indexvar.select import grid_search
    from indexvar.tscore import Panel

    cases = {}
    ciaar = sim.random_ciaar_params(6, 2, 1, 2, 2, seed=0)
    for seed in range(4):
        Y = sim.simulate_ciaar(ciaar, 1000, seed=seed)
        for prune in (True, False):
            cases[f"c12 seed={seed} prune={prune}"] = lambda Y=Y, prune=prune: _grid(grid_search(
                Y, (1, 3), (1, 3), kind="hq", opts=est.FitOptions(max_iter=120), prune=prune))
            for kind in ("aic", "bic") if seed < 2 and prune else ():
                cases[f"c12 seed={seed} {kind}"] = lambda Y=Y, kind=kind: _grid(grid_search(
                    Y, (1, 3), (1, 3), kind=kind, opts=est.FitOptions(max_iter=120)))
        for max_iter in (1, 2) if seed == 0 else ():
            cases[f"c12 seed=0 max_iter={max_iter}"] = lambda Y=Y, m=max_iter: _grid(grid_search(
                Y, (1, 3), (1, 3), kind="hq", opts=est.FitOptions(max_iter=m)))
    for rows in (30, 40):
        Y = Panel(sim.simulate_ciaar(ciaar, 1000, seed=0).values[:rows])
        for model in ("ciaar", "iaar"):
            for prune in (True, False):
                cases[f"{model} grid {rows} rows prune={prune}"] = lambda Y=Y, m=model, p=prune: (
                    _grid(grid_search(Y, (1, 3), (1, 3), model=m, prune=p)))
    for orders in ((2, 2, 2, 1), (3, 3, 2, 1), (2, 1, 2, 1), (0, 2, 2, 1), (2, 2, 3, 0)):
        for seed in range(4):
            Y = sim.simulate_ciaar(ciaar, 400, seed=seed)
            cases[f"fit_ciaar {orders} seed={seed}"] = lambda Y=Y, o=orders: _fit(est.fit_ciaar(Y, *o))
    Y = sim.simulate_ciaar(ciaar, 250, seed=7)
    windows = [Panel(Y.values[i: i + 200]) for i in range(50)]
    cases["fit_many ciaar 50 windows"] = lambda: [_fit(fit) for fit in est.fit_many(
        "ciaar", windows, opts=est.FitOptions(max_iter=60), p=2, s=2, q=2, r=1)]
    copy = windows[25].values.copy()
    copy[1:, 3] = copy[:-1, 0]                          # undemeaned, its start regression fails
    singular = [*windows[:25], Panel(copy), *windows[26:]]
    cases["fit_many ciaar 50 windows one singular start"] = lambda: _each_fit(est.fit_many(
        "ciaar", singular, opts=est.FitOptions(max_iter=60), demean=False, p=2, s=2, q=2, r=1))
    copy = windows[25].values.copy()
    copy[1:, 3] = copy[:-1, 0] + copy[:-1, 1]           # its run ends, its sigma fails the guard
    failing = [*windows[:25], Panel(copy), *windows[26:]]
    cases["fit_many ciaar 50 windows one failing the finish"] = lambda: _each_fit(est.fit_many(
        "ciaar", failing, opts=est.FitOptions(max_iter=60), p=2, s=2, q=2, r=1))

    def warm(model, windows, full, opts=None, **orders):
        # every window from the start the CLI's forecast takes: full's (gamma, omega, D)
        params = full.params
        start = getattr(params, "gamma", None), params.omega, getattr(params, "ds", [])
        return [_fit(fit) for fit in est.fit_many(model, windows, opts, init=start, **orders)]

    for orders in ((2, 2, 2, 1), (2, 1, 3, 1)):
        cases[f"fit_many ciaar {orders} 50 windows warm"] = lambda Y=Y, w=windows, o=orders: warm(
            "ciaar", w, est.fit_ciaar(Y, *o), **dict(zip("psqr", o)))
    cases["fit_many ciaar (2, 2, 3, 1) 50 windows warm max_iter=1"] = lambda Y=Y, w=windows: warm(
        "ciaar", w, est.fit_ciaar(Y, 2, 2, 3, 1), est.FitOptions(max_iter=1), p=2, s=2, q=3, r=1)
    Yw = sim.simulate_mai(sim.random_mai_params(6, 2, 2, seed=0), 250, seed=7)
    cases["fit_many mai 50 windows warm"] = lambda Y=Yw: warm(
        "mai", [Panel(Y.values[i: i + 200]) for i in range(50)], est.fit_mai(Y, 2, 2), p=2, q=2)
    iaar, vhari = sim.random_iaar_params(5, 1, 2, 2, seed=0), sim.random_vhari_params(5, 2, seed=0)
    refits = {                                          # model: (whole panel, orders)
        "iaar": (sim.simulate_iaar(iaar, 250, seed=7), dict(p=2, s=2, q=1)),
        "vhari": (sim.simulate_vhari(vhari, 250, seed=7), dict(q=2)),
        "vecim": (Y, dict(p=1, q=2, r=1)),
    }
    for model, (whole, orders) in refits.items():
        wins = [Panel(whole.values[i: i + 200]) for i in range(50)]
        cases[f"fit_many {model} 50 windows"] = lambda m=model, w=wins, o=orders: [
            _fit(fit) for fit in est.fit_many(m, w, **o)]
        cases[f"fit_many {model} 50 windows warm"] = lambda m=model, Y=whole, w=wins, o=orders: (
            warm(m, w, getattr(est, f"fit_{m}")(Y, **o), **o))
    mai = sim.random_mai_params(20, 2, 2, seed=0)
    chunk = [sim.simulate_mai(mai, 500, burn=500, seed=seed) for seed in range(10, 60)]
    cases["fit_many mai n=20 T=500 50 panels"] = lambda: [
        _fit(fit) for fit in est.fit_many("mai", chunk, p=2, q=2)]
    for seed in range(3):
        cases[f"fit_mai n=20 T=2000 seed={seed}"] = lambda seed=seed: _fit(
            est.fit_mai(sim.simulate_mai(mai, 2000, burn=500, seed=seed), 2, 2))
    Yi = sim.simulate_iaar(iaar, 500, seed=1)
    cases["fit_iaar q=0"] = lambda: _fit(est.fit_iaar(Yi, 2, 0, 0))
    cases["fit_iaar q=1"] = lambda: _fit(est.fit_iaar(Yi, 2, 2, 1))
    cases["fit_mai q=n"] = lambda: _fit(est.fit_mai(Yi, 2, 5))
    cases["iaar grid"] = lambda: _grid(grid_search(Yi, (1, 3), (1, 2), kind="hq", model="iaar"))
    Yn = sim.simulate_iaar(sim.random_iaar_params(4, 1, 2, 2, seed=0), 400, seed=1)
    cases["iaar grid n=4 prune=False"] = lambda: _grid(grid_search(
        Yn, (1, 3), (1, 3), model="iaar", prune=False))
    Ym = sim.simulate_mai(sim.random_mai_params(5, 2, 2, seed=1), 40, seed=2)
    cases["mai grid"] = lambda: _grid(grid_search(Ym, (1, 3), (1, 3), kind="bic", model="mai"))
    Yd = sim.simulate_vhari(vhari, 800, seed=1)
    cases["fit_vhari q=2"] = lambda: _fit(est.fit_vhari(Yd, 2))
    Yv = sim.simulate_ciaar(ciaar, 400, seed=6)
    cases["fit_vecim p=1 q=2 r=1"] = lambda: _fit(est.fit_vecim(Yv, 1, 2, 1))
    Y = sim.simulate_ciaar(ciaar, 400, seed=5)
    cases["johansen_rrr p=2 r=1"] = lambda: _fit(est.johansen_rrr(Y, 2, 1))
    cases["init_ciaar (2,2,2,1)"] = lambda: _plain(est.init_ciaar(Y, 2, 2, 2, 1))
    copy = sim.simulate_ciaar(ciaar, 300, seed=2).values.copy()
    copy[1:, 3] = copy[:-1, 0]                          # y4_t = y1_{t-1}
    cases["lagged copy iaar grid"] = lambda: _grid(grid_search(
        Panel(copy), (1, 3), (1, 3), model="iaar"))
    for prune in (True, False):
        cases[f"lagged copy ciaar grid prune={prune}"] = lambda p=prune: _grid(grid_search(
            Panel(copy), (1, 3), (1, 3), prune=p))
    cases["lagged copy johansen_rrr p=2 r=1"] = lambda: _fit(est.johansen_rrr(Panel(copy), 2, 1))
    cases["MAIParams sigma ratio 1e-13"] = lambda: _plain(MAIParams(
        np.eye(3)[:, :1], [np.zeros((3, 1))], np.diag([1.0, 1.0, 1e-13])))
    Yr = sim.simulate_drvar(sim.random_drvar_params(5, 2, 2, seed=0), 400, seed=1)
    for method in ("ols", "gls"):
        cases[f"fit_drvar_coeffs {method}"] = lambda m=method: _fit(
            est.fit_drvar_coeffs(Yr, est.fit_drvar_omega(Yr, 2, 2)[0], 2, m))
    fitted = est.fit_ciaar(sim.simulate_ciaar(ciaar, 400, seed=0), 2, 2, 2, 1)
    cases["cc_projectors fitted ciaar"] = lambda: _plain(decomp.cc_projectors(
        fitted.params.sigma, fitted.params.omega))
    cases["structural_transitory_irf fitted ciaar"] = lambda: _plain(
        decomp.structural_transitory_irf(fitted, 20))
    cases["MAIParams zero omega"] = lambda: _plain(MAIParams(
        np.zeros((3, 1)), [np.zeros((3, 1))], np.eye(3)))
    return cases


def run_battery() -> dict:
    """Each case's result, or its exception's type and message."""
    out = {}
    for name, case in battery().items():
        try:
            out[name] = case()
        except Exception as exc:               # a raised error is a result too
            out[name] = {"error": f"raised {type(exc).__name__}: {exc}"}
    return out


def _first_difference(a: str, b: str) -> str:
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"at char {i}: {a[max(i - 40, 0): i + 40]!r} vs {b[max(i - 40, 0): i + 40]!r}"


def _numbers(value) -> list | None:
    """The floats of a float or of a nested list that holds floats alone,
    flat; None for anything else."""
    if isinstance(value, float):
        return [value]
    if not isinstance(value, list):
        return None
    out = []
    for item in value:
        numbers = _numbers(item)
        if numbers is None:
            return None
        out += numbers
    return out


def _largest_float_difference(a, b) -> float | None:
    """The largest relative difference between two results' floats: over
    each array (a nested list of floats) or float at the same place, max
    |x - y| over its largest magnitude (inf where only one is nan). None
    when they are laid out differently."""
    xs, ys = _numbers(a), _numbers(b)
    if xs is not None and ys is not None:
        if len(xs) != len(ys):
            return None
        x, y = np.array(xs), np.array(ys)
        differ = (x != y) & ~(np.isnan(x) & np.isnan(y))
        if not differ.any():
            return 0.0
        if np.isnan(x[differ]).any() or np.isnan(y[differ]).any():
            return math.inf
        size = np.abs(np.concatenate([x, y]))
        scale = size[np.isfinite(size)].max(initial=0.0)
        return float(np.abs(x - y)[differ].max() / scale) if scale else math.inf
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [_largest_float_difference(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_largest_float_difference(x, y) for x, y in zip(a, b)]
    else:
        return 0.0 if type(a) is type(b) and not isinstance(a, (dict, list)) else None
    return None if None in parts else max(parts, default=0.0)


def _fields(value, key: str) -> list:
    """Every value stored under key anywhere in a result, in order."""
    found = []
    if isinstance(value, dict):
        for k, x in value.items():
            found += ([x] if k == key else []) + _fields(x, key)
    elif isinstance(value, list):
        for x in value:
            found += _fields(x, key)
    return found


def _describe(a, b) -> str:
    """How two differing results differ: their largest relative float
    difference, and which of their discrete fields are equal."""
    rel = _largest_float_difference(a, b)
    floats = "layout differs" if rel is None else f"largest relative float difference {rel:.3g}"
    equal = ", ".join(f"{key} {'equal' if _fields(a, key) == _fields(b, key) else 'DIFFER'}"
                      for key in DISCRETE)
    return f"{floats}; {equal}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", help="LABEL=SRC_DIR, repeatable")
    parser.add_argument("--blas", choices=("1", "default"), default="1")
    parser.add_argument("--dump", help=argparse.SUPPRESS)   # child mode: write the reprs here
    opts = parser.parse_args(argv)
    if opts.dump:
        Path(opts.dump).write_text(json.dumps(run_battery()))
        return 0
    if not opts.tree:
        parser.error("give at least one --tree")
    env = _env(opts.blas)
    machine = subprocess.run([sys.executable, "-c", MACHINE], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec in opts.tree:
            label, _, src = spec.partition("=")
            dump = Path(tmp, f"{len(results)}.json")
            start = time.perf_counter()
            subprocess.run([sys.executable, __file__, "--dump", str(dump)], check=True,
                           env=dict(env, PYTHONPATH=str(Path(src).resolve())))
            print(f"{label} ({src}): battery ran in {time.perf_counter() - start:.1f} s", flush=True)
            results.append((label, json.loads(dump.read_text())))
    (first, ref), differing = results[0], 0
    for label, got in results[1:]:
        equal = 0
        for name in sorted(ref.keys() | got.keys()):
            a, b = ref.get(name, "<missing>"), got.get(name, "<missing>")
            text_a, text_b = json.dumps(a), json.dumps(b)
            if text_a == text_b:
                equal += 1
                continue
            differing += 1
            print(f"DIFFERS {label} vs {first}: {name} {_first_difference(text_a, text_b)}\n"
                  f"    {_describe(a, b)}")
        print(f"{label}: {equal}/{len(ref)} cases equal to {first}'s")
    print(f"machine: {machine} (--blas {opts.blas})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
