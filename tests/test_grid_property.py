"""Property test: each grid_search row equals the single fit of its candidate.

The grid fits its distinct engine orders as lockstep q groups padded to each
group's largest lags and rank; every row must still match the candidate's own
fit at the grid's t_start and report the sigma of its log-likelihood, the
grid must solve one start regression per lag
count and rank, and its CIAAR starts must equal each single fit's default start,
one per distinct fit (a CIAAR order with s = 1 runs as (p, 1, r, r)).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import estimators, select
from indexvar.estimators import MODELS, FitOptions, fit_many
from indexvar.select import _candidate_grid, grid_search, info_criterion
from indexvar.tscore import gaussian_loglik
from indexvar.simulate import (
    random_ciaar_params,
    random_mai_params,
    simulate_ciaar,
    simulate_mai,
)
from starts import engine_start

N = 4
CIAAR_DGP = random_ciaar_params(N, 2, 1, 2, 2, seed=0)
MAI_DGP = random_mai_params(N, 2, 2, seed=0)
OPTS = FitOptions(max_iter=40)


@st.composite
def grids(draw):
    """A model family, a short panel and small p and q ranges."""
    model = draw(st.sampled_from(["ciaar", "iaar", "mai"]))
    T = draw(st.integers(60, 150))
    seed = draw(st.integers(0, 2**31))
    p_range = (1, draw(st.integers(1, 2)))
    q_range = (1, draw(st.integers(1, 2)))
    simulate, dgp = (simulate_ciaar, CIAAR_DGP) if model == "ciaar" else (simulate_mai, MAI_DGP)
    return model, simulate(dgp, T, seed=seed), p_range, q_range


def single_fit(model, Y, orders, t_start):
    named = dict(zip("psqr", orders))
    return next(fit_many(model, [Y], OPTS, t_start, **{k: named[k] for k in MODELS[model].orders}))


def traced_grid_search(Y, p_range, q_range, model):
    """grid_search, with the (block count, r) of each start regression it
    solves (Johansen's or the OLS VAR's), the starts of each group's
    members, keyed by q and the member's rank, and the row outcomes (an
    engine state or an exception)."""
    regression_calls, group_starts, outcomes = [], {}, []
    start_regression, engine = estimators._start_regression, estimators._sa_engine
    fit_grid = select._fit_grid

    def counted(grams, r):
        regression_calls.append((grams.M.shape[1] // grams.n, r))
        return start_regression(grams, r)

    def recorded(q, shapes, grams, starts, opts, size):
        for start, (_, _, r_i) in zip(starts, shapes):
            if not isinstance(start, Exception):
                group_starts.setdefault((q, r_i), []).append(start)
        return engine(q, shapes, grams, starts, opts, size)

    def kept(*args, **kwargs):
        for outcome in fit_grid(*args, **kwargs):
            outcomes.append(outcome[0])
            yield outcome

    estimators._start_regression, estimators._sa_engine = counted, recorded
    select._fit_grid = kept
    try:
        table = grid_search(Y, p_range, q_range, opts=OPTS, model=model, prune=False)
    finally:
        estimators._start_regression, estimators._sa_engine = start_regression, engine
        select._fit_grid = fit_grid
    return table, regression_calls, group_starts, outcomes


def assert_same_start(got, ref):
    gamma0, omega0, d0 = got
    assert np.array_equal(gamma0, ref[0]) and np.array_equal(omega0, ref[1])
    assert len(d0) == len(ref[2]) and all(np.array_equal(a, b) for a, b in zip(d0, ref[2]))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_grid_rows_equal_single_fits(case):
    model, Y, p_range, q_range = case
    combos = _candidate_grid(model, p_range, q_range, N)
    t_start = max(max(p, s) for p, s, _, _ in combos)
    try:
        table, regression_calls, group_starts, outcomes = traced_grid_search(
            Y, p_range, q_range, model)
    except ValueError as exc:
        assert "all candidate fits failed" in str(exc)
        return
    assert [row.orders() for row in table.rows] == combos
    assert len(outcomes) == len(combos)
    for row, state in zip(table.rows, outcomes):
        if not isinstance(state, Exception):
            assert state["trace"][-1] == gaussian_loglik(state["sigma"], table.T_eff)
        try:
            ref = single_fit(model, Y, row.orders(), t_start)
        except (ValueError, np.linalg.LinAlgError) as exc:
            assert row.failed
            assert row.error == f"{type(exc).__name__}: {exc}"
            continue
        assert row.n_params == ref.n_params
        assert row.converged == ref.converged
        assert row.stop == ref.diagnostics["stop"]
        assert abs(row.loglik - ref.loglik) <= 1e-8 * abs(ref.loglik)
        try:
            info_criterion(ref.loglik, ref.n_params, ref.T_eff, "hq")
        except ValueError as exc:
            assert row.failed and row.error == str(exc)
        else:
            assert not row.failed and row.error == ""
    # one start regression per lag count and rank
    assert len(regression_calls) == len(set(regression_calls))
    if model != "ciaar":
        return
    # every distinct engine fit starts from its single fit's start, at q_fit
    fits, refs = set(), {}
    for p, s, q, r in combos:
        q_fit = q if s > 1 else r
        if (p, s, q_fit, r) in fits:
            continue
        fits.add((p, s, q_fit, r))
        try:
            refs.setdefault((q_fit, r), []).append(engine_start("ciaar", Y, p=p, s=s, q=q, r=r))
        except (ValueError, np.linalg.LinAlgError):
            continue
    assert group_starts.keys() == refs.keys()
    for key, starts in group_starts.items():
        assert len(starts) == len(refs[key])
        for got, ref in zip(starts, refs[key]):
            assert_same_start(got, ref)
