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
each its candidate's single fit up to rounding; a row reads its fit's engine
state, and no parameter container is built. A failed fit's row carries its
error; stop records why a fit's sweeps ended ("tol", "max_iter" or
"no_free_params") and sigma_cond the conditioning of its residual covariance.

The search is a branch and bound for the table's criterion (Furnival and
Wilson 1974). Every candidate is nested in the unrestricted model of its
lags and rank on the same rows (Johansen's VECM for CIAAR, the OLS VAR in
levels for MAI and IAAR), whose maximized log-likelihood bounds the
log-likelihood of every parameter value of the candidate, its fit's
included. The engine groups run one after another in this process, in
ascending q, and a candidate whose criterion at that bound exceeds the best
fitted one's is not fitted, nor is its start solved: its row has stop
"pruned", its parameter count and its bound, and no log-likelihood. So a table defines the minimizer of
its own criterion only; grid_search(prune=False) fits every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimators import FitOptions, _fit_grid
from .tscore import Panel, write_csv

__all__ = ["CRITERIA", "FAMILIES", "ICRow", "ICTable", "info_criterion", "grid_search"]

CRITERIA = ("aic", "bic", "hq")
FAMILIES = ("ciaar", "iaar", "mai")        # the candidate families grid_search searches


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
    "no_free_params"), "pruned" when the candidate's bound certified that
    it cannot win and it was not fitted (its loglik and criteria are nan),
    and empty when the fit raised; error holds that exception, or why its
    criteria could not be computed. sigma_cond is the fit's
    diagnostics["sigma_cond"] (least over largest eigenvalue of its
    residual covariance); to_csv leaves it empty on failed and pruned rows.
    loglik_bound is the maximized log-likelihood of the unrestricted model
    the candidate is nested in (module docstring), nan when the search did
    not bound it. A CIAAR row with s = 1 holds the fit of its identified
    equivalent (module docstring) and its own parameter count.
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
    loglik_bound: float = math.nan

    def orders(self) -> tuple:
        return (self.p, self.s, self.q, self.r)


@dataclass
class ICTable:
    """One row per candidate plus the argmin of its criterion.

    kind is the criterion the search was run for, and best maps it to the
    index of its minimizer among the fitted rows (neither failed nor
    pruned), tie-broken by parameter count then lexicographic orders. A
    pruned row is certified to lose under kind alone, so best holds no
    other criterion and best_row of another raises ValueError. to_csv marks
    the minimizer.
    """

    rows: list[ICRow]
    T_eff: int
    kind: str = "hq"
    best: dict = field(init=False)

    def __post_init__(self):
        self.best = {self.kind: self._argmin(self.kind)}

    def _argmin(self, kind: str) -> int:
        candidates = [
            (getattr(row, kind), row.n_params, row.orders(), i)
            for i, row in enumerate(self.rows)
            if not row.failed and row.stop != "pruned"
        ]
        if not candidates:
            raise ValueError("all candidate fits failed")
        return min(candidates)[-1]

    def best_row(self, kind: str) -> ICRow:
        if kind not in self.best:
            raise ValueError(
                f"the table was searched for {self.kind!r}; its {kind!r} minimizer is not defined"
            )
        return self.rows[self.best[kind]]

    def to_csv(self, path) -> None:
        """Write one line per candidate; best marks the minimizer of kind."""
        best = self.best[self.kind]
        header = (
            "model,p,s,q,r,loglik,n_params,loglik_bound,aic,bic,hq,sigma_cond,"
            "converged,failed,stop,error,best"
        )
        write_csv(path, header.split(","), ([
            row.model, row.p, row.s, row.q, row.r, row.loglik, row.n_params,
            "" if math.isnan(row.loglik_bound) else row.loglik_bound, row.aic, row.bic, row.hq,
            "" if row.failed or row.stop == "pruned" else row.sigma_cond,
            int(row.converged), int(row.failed), row.stop, row.error, int(i == best),
        ] for i, row in enumerate(self.rows)))


def _candidate_grid(model, p_range, q_range, n):
    p_lo, p_hi = p_range
    q_lo, q_hi = q_range
    if q_hi >= n:
        q_hi = n - 1
    combos = []
    for p in range(max(p_lo, 1), p_hi + 1):
        if model == "mai":
            combos.extend((p, p, q, 0) for q in range(max(q_lo, 1), q_hi + 1))
            continue
        for s in range(1, p + 1):
            for q in range(max(q_lo, 1), q_hi + 1):
                if model == "iaar":
                    combos.append((p, s, q, 0))
                else:
                    combos.extend((p, s, q, r) for r in range(0, q + 1))
    if not combos:
        raise ValueError("empty candidate grid")
    return combos


def _ic_row(model: str, orders: tuple, state, n_params: int, bound: float, T_eff: int) -> ICRow:
    """The table row of a candidate's judged engine state, of the exception
    its fit raised, or of its pruning (None), with its parameter count and
    log-likelihood bound (estimators._fit_grid)."""
    if isinstance(state, Exception):    # failed fits stay in the table, out of the argmin
        return ICRow(model, *orders, np.nan, 0, np.nan, np.nan, np.nan, False,
                     failed=True, error=f"{type(state).__name__}: {state}", loglik_bound=bound)
    if state is None:                   # so do pruned candidates
        return ICRow(model, *orders, np.nan, n_params, np.nan, np.nan, np.nan, False,
                     stop="pruned", loglik_bound=bound)
    loglik, diagnostics = float(state["trace"][-1]), state["diagnostics"]
    try:
        crits, error = [info_criterion(loglik, n_params, T_eff, c) for c in CRITERIA], ""
    except ValueError as exc:           # no criterion: a failed row that keeps its fit's figures
        crits, error = [np.nan] * len(CRITERIA), str(exc)
    return ICRow(model, *orders, loglik, n_params, *crits, state["converged"], failed=bool(error),
                 stop=diagnostics["stop"], error=error, sigma_cond=diagnostics["sigma_cond"],
                 loglik_bound=bound)


def grid_search(
    Y: Panel,
    p_range: tuple = (1, 3),
    q_range: tuple = (1, 3),
    kind: str = "hq",
    opts: FitOptions | None = None,
    model: str = "ciaar",
    workers: int = 1,
    prune: bool = True,
) -> ICTable:
    """Search every admissible (p, s, q, r) for the minimizer of kind.

    model selects the candidate family: "ciaar" searches the full quadruple
    (s <= p, r <= q), "iaar" the triple with r = 0, and "mai" the pair
    (p, q). All fits condition on the grid's maximum lag so likelihoods are
    comparable. The distinct fits of each engine q run as one lockstep
    group, and the groups run in this process in ascending q, each pruned by
    the fits finished before it; workers is kept for callers that pass 1, and any other
    value raises ValueError. With prune, a candidate certified to lose under
    kind is not fitted (module docstring). prune=False fits and tabulates
    every candidate. Either way the table's best is kind's.
    """
    if workers != 1:
        raise ValueError(f"grid_search fits in one process, got workers={workers}: the q groups "
                         "run in order, each pruned by the ones before")
    if kind not in CRITERIA:
        raise ValueError(f"kind must be one of {CRITERIA}, got {kind!r}")
    if model not in FAMILIES:
        raise ValueError(f"model must be one of {FAMILIES}, got {model!r}")
    opts = opts or FitOptions()
    combos = _candidate_grid(model, p_range, q_range, Y.n)
    # conditioning offset shared by all candidates: max(p, s) covers the
    # longest lag in levels (and, for ciaar, the max(p-1, s-1) difference lags
    # plus the differencing row)
    t_start = max(max(p, s) for p, s, _, _ in combos)
    criterion = partial(info_criterion, kind=kind) if prune else None
    outcomes = _fit_grid(model, Y, combos, opts, t_start, criterion)
    T_eff = Y.T - t_start
    # ICTable raises when every row failed
    rows = [_ic_row(model, orders, *outcome, T_eff) for orders, outcome in zip(combos, outcomes)]
    return ICTable(rows, T_eff, kind=kind)
