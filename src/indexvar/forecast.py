"""Multi-step point forecasting from fitted models and accuracy evaluation.

Every forecast is the zero-shock continuation of a fitted recursion from the
rows before its origin (_presample states its arguments). _continue
advances a stack of such recursions of one shape together, one batched
product per step: forecast is its stack of one, and rolling_evaluate runs
it once for all of its origins and scores every path in one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult
from .tscore import Panel

__all__ = ["ForecastPath", "MsfeTable", "forecast", "evaluate", "rolling_evaluate"]


@dataclass
class ForecastPath:
    """h point forecasts from the observation at row `origin` of the panel."""

    horizon: int
    values: np.ndarray                # h x n
    origin: int

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, float))
        if self.values.shape[0] != self.horizon:
            raise ValueError("values must have one row per forecast step")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("forecasts contain non-finite values")


@dataclass
class MsfeTable:
    """Mean squared forecast error per series and horizon."""

    msfe: np.ndarray                  # h x n
    counts: np.ndarray                # evaluated origins per horizon
    names: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        header = "horizon," + ",".join(self.names) + ",n_origins"
        lines = [header]
        for k in range(self.msfe.shape[0]):
            cells = ",".join(f"{v:.17g}" for v in self.msfe[k])
            lines.append(f"{k + 1},{cells},{int(self.counts[k])}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def forecast(fit: FitResult, Y: Panel, h: int) -> ForecastPath:
    """Iterated one-step-ahead forecasts of the fitted recursion.

    The path is the zero-shock continuation from the end of the panel, the
    stack of one of _continue. Stationary fits iterate the implied levels
    VAR on the demeaned history and add the mean back. Error-correction
    fits iterate the differences with the error-correction term on the
    demeaned level and cumulate onto the last observation, so a fit with
    zero dynamics and a zero difference mean forecasts a flat path at the
    last observation.
    """
    if h < 1:
        raise ValueError("need h >= 1")
    return ForecastPath(h, _continue([_presample(fit, Y, Y.T)], h)[0], Y.T - 1)


def _presample(fit: FitResult, Y: Panel, start: int):
    """The fitted recursion's arguments for a continuation from the rows before `start`.

    Returns (phis, init, row, ec, level, mean): the lag matrices, the
    pre-sample rows, the constant drive, the error-correction factors, the
    last level and the level mean. Stationary fits give the implied levels
    VAR, the demeaned pre-sample levels and a zero drive (ec and level
    None). Error-correction fits give the short-run lags, the raw
    pre-sample differences, the constant (I - sum_j Pi_j) mu_diff, which
    keeps their demeaned lags in the recursion, the factors (alpha0, beta)
    and the last level net of the level mean.
    """
    n, values = Y.n, Y.values
    mu_l = fit.means.get("level", 0.0) + np.zeros(n)
    if fit.model not in ("ciaar", "vecim", "vecm"):
        phis = fit.params.var_coeffs()
        p = len(phis)
        if start - Y.t0 < p:
            raise ValueError(f"need at least {p} usable observations, got {start - Y.t0}")
        return phis, values[start - p: start] - mu_l, np.zeros(n), None, None, mu_l
    alpha0, beta, pis = fit.params.ec_form()
    m = len(pis)
    if start < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {start}")
    mu_d = fit.means.get("diff", 0.0) + np.zeros(n)
    row = (np.eye(n) - sum(pis, np.zeros((n, n)))) @ mu_d
    init = np.diff(values[start - m - 1: start], axis=0)
    return pis, init, row, (alpha0, beta), values[start - 1] - mu_l, mu_l


def _shape(presample) -> tuple:
    """What _continue needs equal across a stack: model kind, lag count and rank."""
    phis, _, _, ec, _, _ = presample
    return len(phis), None if ec is None else ec[1].shape[1]


def _continue(presamples: list, h: int) -> np.ndarray:
    """h zero-shock steps of B fitted recursions of one _shape, as (B, h, n) levels.

    presamples are the members' _presample arguments. Stationary members
    run x_t = sum_j Phi_j x_{t-j} on the demeaned levels. Error-correction
    members run dY_t = sum_j Pi_j dY_{t-j} + alpha0 z_{t-1} + d with z_t =
    beta' y_t = z_{t-1} + beta' dY_t, the stationary VAR of (dY_t, z_t) that
    tscore.var_recursion also runs, and cumulate dY onto the last level.
    Each step is one batched product of every member's [Phi_p ... Phi_1]
    with its p latest states; the level mean is added at the end.
    """
    phis, init, drive, ecs, level, mean = zip(*presamples)
    ec = ecs[0] is not None
    B, m, n = len(presamples), len(phis[0]), len(drive[0])
    r = ecs[0][1].shape[1] if ec else 0
    p, k = max(m, 1) if ec else m, n + r
    C = np.zeros((B, k, p, k))                        # [Phi_p ... Phi_1], lag p first
    if m:
        C[:, :n, p - m:, :n] = np.array(phis)[:, ::-1].transpose(0, 2, 1, 3)
    buf = np.zeros((B, p + h, k))                     # p pre-sample states, then h steps
    buf[:, p - m: p, :n] = np.array(init)
    drive = np.array(drive)
    if ec:
        beta_t = np.array([e[1] for e in ecs]).transpose(0, 2, 1)
        level = np.array(level)
        C[:, :n, -1, n:] = np.array([e[0] for e in ecs])               # alpha0
        C[:, n:] = (beta_t @ C[:, :n].reshape(B, n, -1)).reshape(B, r, p, k)
        C[:, n:, -1, n:] += np.eye(r)
        buf[:, p - 1, n:] = (beta_t @ level[..., None])[..., 0]
        drive = np.concatenate([drive, (beta_t @ drive[..., None])[..., 0]], axis=1)
    C = C.reshape(B, k, p * k)
    for t in range(h):
        buf[:, p + t] = (C @ buf[:, t: t + p].reshape(B, p * k, 1))[..., 0] + drive
    x = buf[:, p:, :n]
    if ec:                                            # levels: last level + cumulated dY
        x[:, 0] += level
        np.cumsum(x, axis=1, out=x)
    return x + np.array(mean)[:, None]


def evaluate(forecasts: list[ForecastPath], actuals: Panel) -> MsfeTable:
    """Mean squared forecast error per (series, horizon) across paths.

    Each path contributes the steps whose target rows fall inside the
    actuals, all paths' steps summed in one reduction; raises when no step
    of any path overlaps.
    """
    if not forecasts:
        raise ValueError("no forecast paths supplied")
    n = actuals.n
    if any(f.values.shape[1] != n for f in forecasts):
        raise ValueError("forecast width does not match actuals")
    h_max = max(f.horizon for f in forecasts)
    steps = np.concatenate([np.arange(f.horizon) for f in forecasts])
    targets = steps + np.repeat([f.origin + 1 for f in forecasts], [f.horizon for f in forecasts])
    inside = (targets >= 0) & (targets < actuals.T)
    steps, targets = steps[inside], targets[inside]
    counts = np.bincount(steps, minlength=h_max)
    if counts.sum() == 0:
        raise ValueError("no forecast origin overlaps the actuals")
    errors = np.concatenate([f.values for f in forecasts])[inside] - actuals.values[targets]
    sq = np.zeros((h_max, n))
    np.add.at(sq, steps, errors ** 2)                 # path by path, as a running sum would
    msfe = np.full((h_max, n), np.nan)
    nz = counts > 0
    msfe[nz] = sq[nz] / counts[nz, None]
    return MsfeTable(msfe, counts, list(actuals.names))


def rolling_evaluate(
    Y: Panel,
    fitter,
    h: int,
    n_origins: int,
    refit: bool = True,
    min_window: int | None = None,
):
    """Rolling-origin out-of-sample evaluation with a fixed estimation window.

    fitter maps a list of equal-length windows (Panels) to an iterable of
    their FitResults, in order; estimators.fit_many is such a map, and
    refits every window in one lockstep run of the switching engine. The
    window width is set by the first origin (or min_window) and rolled
    forward; refit=True re-estimates at every origin, refit=False passes the
    first window alone and reuses its parameters (the cheaper mode, flagged
    in the returned info). The fits are consumed one at a time, each kept
    only as its continuation's arguments, and the paths of all origins come
    from one _continue call per recursion shape (one call for fixed orders)
    and are scored by one evaluate. Raises ValueError when the fitter
    returns fewer or more fits than windows. Returns (MsfeTable, paths,
    info).
    """
    if n_origins < 1 or h < 1:
        raise ValueError("need n_origins >= 1 and h >= 1")
    first_origin = Y.T - h - n_origins
    if min_window is not None:
        first_origin = max(first_origin, min_window - 1)
    if first_origin < 1:
        raise ValueError("sample too short for the requested evaluation window")
    width = first_origin + 1
    origins = range(first_origin, Y.T - h)
    windows = [Panel(Y.values[o + 1 - width: o + 1], list(Y.names)) for o in origins]
    fitted = windows if refit else windows[:1]
    fits = _one_per_window(fitter(fitted), len(fitted))
    if not refit:
        fits = list(fits) * len(windows)
    stacks = {}                                       # _shape -> [(origin index, arguments)]
    for i, (window, fit) in enumerate(zip(windows, fits, strict=True)):
        args = _presample(fit, window, width)
        stacks.setdefault(_shape(args), []).append((i, args))
    values = np.empty((len(windows), h, Y.n))
    for members in stacks.values():
        index, presamples = zip(*members)
        values[list(index)] = _continue(presamples, h)
    paths = [ForecastPath(h, v, o) for v, o in zip(values, origins)]
    return evaluate(paths, Y), paths, {
        "refit_each_origin": refit,
        "n_origins": len(paths),
        "window": width,
    }


def _one_per_window(fits, n_windows: int):
    """The fitter's fits in turn; raises ValueError once they miscount the windows."""
    count = 0
    for count, fit in enumerate(fits, 1):
        if count > n_windows:
            raise ValueError(f"fitter returned more than {n_windows} fits for {n_windows} windows")
        yield fit
    if count < n_windows:
        raise ValueError(f"fitter returned {count} fits for {n_windows} windows")
