"""Multi-step point forecasting from fitted models and accuracy evaluation.

Every forecast is the zero-shock continuation of a fit's state form,
fit.params.state_form(), from the rows before its origin (_presample states
its arguments). _continue advances a stack of such forms of one shape
together, one batched product per step, and reads the observations back
from the states: forecast is its stack of one, and rolling_evaluate runs it
once for all of its origins and scores every path in one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult
from .tscore import Panel, StateForm, write_csv

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
        horizons = np.arange(1.0, len(self.msfe) + 1)
        write_csv(path, ["horizon", *self.names, "n_origins"],
                  [np.column_stack([horizons, self.msfe, self.counts])])


def forecast(fit: FitResult, Y: Panel, h: int) -> ForecastPath:
    """Iterated one-step-ahead forecasts of the fitted recursion.

    The path is the zero-shock continuation from the end of the panel, the
    stack of one of _continue. Stationary fits run their state on the
    demeaned history and add the mean back. Error-correction fits run the
    differences with the error-correction term on the demeaned level and
    cumulate onto the last observation, so a fit with zero dynamics and a
    zero difference mean forecasts a flat path at the last observation.
    """
    if h < 1:
        raise ValueError("need h >= 1")
    return ForecastPath(h, _continue([_presample(fit, Y, Y.T)], h)[0], Y.T - 1)


def _check_width(fit: FitResult, Y: Panel) -> None:
    if Y.n != fit.params.n:
        raise ValueError(f"panel has {Y.n} series, the fit has {fit.params.n}")


def _presample(fit: FitResult, Y: Panel, start: int, form=None):
    """The arguments of fit's continuation from the rows before `start`.

    Returns (form, init, mean_y, level, mean): fit.params.state_form() (or
    the given form), its p pre-sample observations and their mean, kept in
    the recursion by the drive form.intercept(mean_y), the last level net of
    the level mean, and the level mean. A stationary form observes the
    demeaned levels (mean_y zero, level None). An integrated form observes
    the raw differences (mean_y the difference mean), whose oldest one K_p
    alone reads: with no short-run lag it is padded with zero. A panel of
    another width than the fit's is refused (_check_width).
    """
    _check_width(fit, Y)
    form = fit.params.state_form() if form is None else form
    n, values, p = Y.n, Y.values, len(form.K)
    mu_l = fit.means["level"]
    if not form.integrated:
        if start < p:
            raise ValueError(f"need at least {p} usable observations, got {start}")
        return form, values[start - p: start] - mu_l, np.zeros(n), None, mu_l
    m = p                                             # differences read
    if start < p + 1 and not (form.K[-1] @ form.observed).any():
        m = p - 1
    if start < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {start}")
    init = np.zeros((p, n))
    init[p - m:] = values[start - m: start] - values[start - m - 1: start - 1]
    return form, init, fit.means["diff"], values[start - 1] - mu_l, mu_l


def _continue(presamples: list, h: int) -> np.ndarray:
    """h zero-shock steps of B state forms of one shape and kind, as (B, h, n) levels.

    presamples are the members' _presample arguments. Each step is one
    batched product of every member's [Phi_p ... Phi_1] with its p latest
    states s_t = sum_j Phi_j s_{t-j} + E d; the observations y_t = d +
    sum_j K_j s_{t-j} are read back at the end, an integrated member's
    cumulated onto its last level, and the level mean is added.
    """
    forms, init, mean_y, level, mean = zip(*presamples)
    integrated = forms[0].integrated
    E, K, carry = (np.array(m) for m in zip(*((f.E, f.K, f.carry) for f in forms)))
    stack = StateForm(E, K, carry, integrated)                   # the members on a leading axis
    B, (p, n, k) = len(forms), forms[0].K.shape
    C = stack.phis()[:, ::-1].transpose(0, 2, 1, 3).reshape(B, k, p * k)     # [Phi_p ... Phi_1]
    buf = np.zeros((B, p + h, k))                     # p pre-sample states, then h steps
    buf[:, :p] = np.array(init) @ stack.observed.transpose(0, 2, 1)
    if integrated:                                    # s_{-1} carries the last level
        level = np.array(level)
        buf[:, p - 1] += ((stack.carry @ stack.E) @ level[..., None])[..., 0]
    drive = stack.intercept(np.array(mean_y))
    u = (stack.E @ drive[..., None])[..., 0]
    for t in range(h):
        buf[:, p + t] = (C @ buf[:, t: t + p].reshape(B, p * k, 1))[..., 0] + u
    y = np.repeat(drive[:, None], h, axis=1)
    for j in range(1, p + 1):                         # y_t = d + sum_j K_j s_{t-j}
        y += buf[:, p - j: p - j + h] @ stack.K[:, j - 1].transpose(0, 2, 1)
    if integrated:                                    # levels: last level + cumulated dY
        y[:, 0] += level
        np.cumsum(y, axis=1, out=y)
    return y + np.array(mean)[:, None]


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


def first_origin(T: int, h: int, n_origins: int) -> int:
    """The first origin of rolling_evaluate's windows on T rows, h steps and n_origins origins,
    T - h - n_origins; raises ValueError unless it is at least 1 and h and n_origins are too."""
    if n_origins < 1 or h < 1:
        raise ValueError("need n_origins >= 1 and h >= 1")
    first = T - h - n_origins
    if first < 1:
        raise ValueError("sample too short for the requested evaluation window")
    return first


def rolling_evaluate(
    Y: Panel,
    fitter,
    h: int,
    n_origins: int,
    refit: bool = True,
):
    """Rolling-origin out-of-sample evaluation with a fixed estimation window.

    fitter maps a list of equal-length windows (Panels) to an iterable of
    their FitResults, in order; estimators.fit_many is such a map, and
    refits every window in one lockstep run of the switching engine. The
    window width is set by the first origin and rolled forward;
    refit=True re-estimates at every origin, refit=False passes the first
    window alone and reuses its parameters (the cheaper mode, flagged in
    the returned info). The fits are consumed one at a time, each kept
    only as its continuation's arguments, and the paths of all origins come
    from one _continue call per recursion shape (one call for fixed orders)
    and are scored by one evaluate. Raises ValueError when the fitter
    returns fewer or more fits than windows. Returns (MsfeTable, paths,
    info).
    """
    first = first_origin(Y.T, h, n_origins)
    width = first + 1
    origins = range(first, Y.T - h)
    windows = [Panel(Y.values[o + 1 - width: o + 1], list(Y.names)) for o in origins]
    fitted = windows if refit else windows[:1]
    fits = _one_per_window(fitter(fitted), len(fitted))
    if not refit:
        fits = list(fits) * len(windows)
    stacks = {}                                       # (K's shape, kind) -> [(origin index, arguments)]
    for i, (window, fit) in enumerate(zip(windows, fits, strict=True)):
        args = _presample(fit, window, width)
        stacks.setdefault((args[0].K.shape, args[0].integrated), []).append((i, args))
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
