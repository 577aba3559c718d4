"""Multi-step point forecasting from fitted models and accuracy evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult
from .tscore import Panel, var_recursion

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

    The path is the zero-shock continuation of the one lag recursion
    tscore.var_recursion from the end of the panel (see _presample).
    Stationary fits iterate the implied levels VAR on the demeaned history
    and add the mean back. Error-correction fits iterate the differences
    with the error-correction term on the demeaned level and cumulate onto
    the last observation, so a fit with zero dynamics and a zero
    difference mean forecasts a flat path at the last observation.
    """
    if h < 1:
        raise ValueError("need h >= 1")
    phis, init, row, ec, level = _presample(fit, Y, Y.T)
    levels = var_recursion(phis, init, np.tile(row, (h, 1)), ec=ec, level=level)
    if ec is not None:
        levels = levels[1]
    return ForecastPath(h, levels + fit.means.get("level", 0.0), Y.T - 1)


def _presample(fit: FitResult, Y: Panel, start: int):
    """The fitted recursion's arguments for a continuation from the rows before `start`.

    Returns (phis, init, row, ec, level) for tscore.var_recursion, with row
    the constant drive. Stationary fits give the implied levels VAR, the
    demeaned pre-sample levels and a zero drive (ec and level None).
    Error-correction fits give the short-run lags, the raw pre-sample
    differences, the constant (I - sum_j Pi_j) mu_diff, which keeps their
    demeaned lags in the recursion, the factors (alpha0, beta) and the last
    level net of the level mean.
    """
    n, values = Y.n, Y.values
    mu_l = fit.means.get("level", 0.0)
    if fit.model not in ("ciaar", "vecim", "vecm"):
        phis = fit.params.var_coeffs()
        p = len(phis)
        if start - Y.t0 < p:
            raise ValueError(f"need at least {p} usable observations, got {start - Y.t0}")
        return phis, values[start - p: start] - mu_l, np.zeros(n), None, None
    alpha0, beta, pis = fit.params.ec_form()
    m = len(pis)
    if start < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {start}")
    mu_d = np.broadcast_to(fit.means.get("diff", 0.0), (n,))
    row = (np.eye(n) - sum(pis, np.zeros((n, n)))) @ mu_d
    init = np.diff(values[start - m - 1: start], axis=0)
    return pis, init, row, (alpha0, beta), values[start - 1] - mu_l


def evaluate(forecasts: list[ForecastPath], actuals: Panel) -> MsfeTable:
    """Mean squared forecast error per (series, horizon) across paths.

    Each path contributes the steps whose target rows fall inside the
    actuals; raises when no step of any path overlaps.
    """
    if not forecasts:
        raise ValueError("no forecast paths supplied")
    n = actuals.n
    h_max = max(f.horizon for f in forecasts)
    sq = np.zeros((h_max, n))
    counts = np.zeros(h_max, dtype=int)
    for f in forecasts:
        if f.values.shape[1] != n:
            raise ValueError("forecast width does not match actuals")
        for k in range(f.horizon):
            t = f.origin + 1 + k
            if 0 <= t < actuals.T:
                sq[k] += (f.values[k] - actuals.values[t]) ** 2
                counts[k] += 1
    if counts.sum() == 0:
        raise ValueError("no forecast origin overlaps the actuals")
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
    in the returned info). Returns (MsfeTable, paths, info).
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
    fits = fitter(windows) if refit else list(fitter(windows[:1])) * len(windows)
    paths = []
    for origin, window, fit in zip(origins, windows, fits, strict=True):
        path = forecast(fit, window, h)
        paths.append(ForecastPath(h, path.values, origin))
    return evaluate(paths, Y), paths, {
        "refit_each_origin": refit,
        "n_origins": len(paths),
        "window": width,
    }
