"""Information criteria and the joint order search over (p, s, q, r).

Every candidate is fit on the same effective sample (conditioning on the
grid's maximum lag) so the log-likelihoods are comparable; the innovation
covariance's parameters are excluded from the penalty, a constant offset
across candidates that cannot change the argmin.

A CIAAR candidate with s = 1 has no index lag, so its likelihood sees omega
only through beta = omega gamma, which is identified up to an r x r rotation:
(p, 1, q, r) is fit as its identified equivalent (p, 1, r, r), every
(p, 1, q, 0) as the one diagonal fit of its p, and each such fit runs once
however many rows share it. Those rows carry its log-likelihood bit for bit
and their own parameter counts, so a duplicate never beats its equivalent.
The distinct fits take the engine path of every fit (estimators._fit_grid),
each equal to its candidate's single fit. A candidate whose fit raises is a
failed row carrying that error; stop records why a fit's sweeps ended
("tol", "max_iter" or "no_free_params") and sigma_cond the conditioning of
its residual covariance.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import FitOptions, _fit_grid
from .estimators import fit_ciaar, fit_mai  # noqa: F401  (traced by perfbench/workloads.py)
from .tscore import Panel

__all__ = ["ICRow", "ICTable", "info_criterion", "grid_search"]

CRITERIA = ("aic", "bic", "hq")


def info_criterion(loglik: float, n_params: int, T_eff: int, kind: str) -> float:
    """aic = -2l + 2k, bic = -2l + k log T, hq = -2l + 2k log log T."""
    if kind not in CRITERIA:
        raise ValueError(f"kind must be one of {CRITERIA}, got {kind!r}")
    if T_eff <= n_params:
        raise ValueError(f"effective sample {T_eff} not larger than {n_params} parameters")
    if kind == "aic":
        return -2.0 * loglik + 2.0 * n_params
    if kind == "bic":
        return -2.0 * loglik + n_params * math.log(T_eff)
    if T_eff <= 2:
        raise ValueError("Hannan-Quinn needs T_eff > 2")
    return -2.0 * loglik + 2.0 * n_params * math.log(math.log(T_eff))


@dataclass
class ICRow:
    """One candidate's fit: its criteria, why its sweeps stopped, and how
    well conditioned it was.

    stop is the fit's diagnostics["stop"] ("tol", "max_iter" or
    "no_free_params"), empty when the fit raised; error holds that
    exception, or why its criteria could not be computed. sigma_cond is the
    fit's diagnostics["sigma_cond"] (least over largest eigenvalue of its
    residual covariance); to_csv leaves it empty on failed rows. A CIAAR
    row with s = 1 holds the fit of its identified equivalent (module
    docstring) and its own parameter count.
    """

    model: str
    p: int
    s: int
    q: int
    r: int
    loglik: float
    n_params: int
    aic: float
    bic: float
    hq: float
    converged: bool
    failed: bool = False
    stop: str = ""
    error: str = ""
    sigma_cond: float = math.nan

    def orders(self) -> tuple:
        return (self.p, self.s, self.q, self.r)


@dataclass
class ICTable:
    """One row per candidate plus the argmin per criterion.

    best maps each criterion name to the index of its minimizer among the
    non-failed rows, tie-broken by parameter count then lexicographic
    orders. kind is the criterion the search was run for; to_csv marks its
    minimizer.
    """

    rows: list[ICRow]
    T_eff: int
    best: dict = field(default_factory=dict)
    kind: str = "hq"

    def __post_init__(self):
        if not self.best:
            self.best = {k: self._argmin(k) for k in CRITERIA}

    def _argmin(self, kind: str) -> int:
        candidates = [
            (getattr(row, kind), row.n_params, row.orders(), i)
            for i, row in enumerate(self.rows)
            if not row.failed
        ]
        if not candidates:
            raise ValueError("all candidate fits failed")
        return min(candidates)[-1]

    def best_row(self, kind: str) -> ICRow:
        return self.rows[self.best[kind]]

    def to_csv(self, path) -> None:
        """Write one line per candidate; best marks the minimizer of kind."""
        best = self.best[self.kind]
        header = (
            "model,p,s,q,r,loglik,n_params,aic,bic,hq,sigma_cond,"
            "converged,failed,stop,error,best"
        )
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header.split(","))
            for i, row in enumerate(self.rows):
                out.writerow([
                    row.model, row.p, row.s, row.q, row.r, f"{row.loglik:.17g}", row.n_params,
                    f"{row.aic:.17g}", f"{row.bic:.17g}", f"{row.hq:.17g}",
                    "" if row.failed else f"{row.sigma_cond:.17g}",
                    int(row.converged), int(row.failed), row.stop, row.error, int(i == best),
                ])


def _candidate_grid(model, p_range, q_range, n, s_max=None, r_max=None):
    p_lo, p_hi = p_range
    q_lo, q_hi = q_range
    if q_hi >= n:
        q_hi = n - 1
    combos = []
    for p in range(max(p_lo, 1), p_hi + 1):
        if model == "mai":
            combos.extend((p, p, q, 0) for q in range(max(q_lo, 1), q_hi + 1))
            continue
        for s in range(1, (p if s_max is None else min(p, s_max)) + 1):
            for q in range(max(q_lo, 1), q_hi + 1):
                if model == "iaar":
                    combos.append((p, s, q, 0))
                else:
                    cap = q if r_max is None else min(q, r_max)
                    combos.extend((p, s, q, r) for r in range(0, cap + 1))
    if not combos:
        raise ValueError("empty candidate grid")
    return combos


def _ic_row(model: str, orders: tuple, fit) -> ICRow:
    """The table row of a candidate's FitResult, or of the exception it raised."""
    if isinstance(fit, Exception):  # failed fits stay in the table, out of the argmin
        return ICRow(model, *orders, np.nan, 0, np.nan, np.nan, np.nan, False,
                     failed=True, error=f"{type(fit).__name__}: {fit}")
    diagnostics = dict(
        stop=fit.diagnostics.get("stop", ""),
        sigma_cond=fit.diagnostics.get("sigma_cond", math.nan),
    )
    try:
        crits = [info_criterion(fit.loglik, fit.n_params, fit.T_eff, c) for c in CRITERIA]
    except ValueError as exc:
        return ICRow(model, *orders, fit.loglik, fit.n_params, np.nan, np.nan, np.nan,
                     fit.converged, failed=True, error=str(exc), **diagnostics)
    return ICRow(model, *orders, fit.loglik, fit.n_params, *crits, fit.converged, **diagnostics)


def grid_search(
    Y: Panel,
    p_range: tuple = (1, 3),
    q_range: tuple = (1, 3),
    kind: str = "hq",
    opts: FitOptions | None = None,
    model: str = "ciaar",
    s_max: int | None = None,
    r_max: int | None = None,
    workers: int = 1,
) -> ICTable:
    """Fit every admissible (p, s, q, r) and tabulate the criteria.

    model selects the candidate family: "ciaar" searches the full quadruple
    (s <= p, r <= q), "iaar" the triple with r = 0, and "mai" the pair
    (p, q). All fits condition on the grid's maximum lag so likelihoods are
    comparable; kind is recorded as the table's criterion (all three are
    tabulated). The distinct fits of each engine q run as one lockstep
    group; workers > 1 fits the groups in a process pool.
    """
    if kind not in CRITERIA:
        raise ValueError(f"kind must be one of {CRITERIA}, got {kind!r}")
    if model not in ("ciaar", "iaar", "mai"):
        raise ValueError(f"model must be 'ciaar', 'iaar' or 'mai', got {model!r}")
    opts = opts or FitOptions()
    combos = _candidate_grid(model, p_range, q_range, Y.n, s_max, r_max)
    # conditioning offset shared by all candidates: t0 + max(p, s) covers the
    # longest lag in levels (and, for ciaar, the max(p-1, s-1) difference lags
    # plus the differencing row)
    t_start = Y.t0 + max(max(p, s) for p, s, _, _ in combos)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            fits = _fit_grid(model, Y, combos, opts, t_start, pool.map)
    else:
        fits = _fit_grid(model, Y, combos, opts, t_start)
    rows, T_eff = [], None
    for orders, fit in zip(combos, fits):        # each fit is dropped once tabulated
        rows.append(_ic_row(model, orders, fit))
        if not rows[-1].failed:
            T_eff = fit.T_eff
    if T_eff is None:
        raise ValueError("all candidate fits failed")
    return ICTable(rows, T_eff, kind=kind)
