"""Property test: a pruned grid search is the full search's minimizer.

grid_search skips the candidates whose criterion at their log-likelihood
bound exceeds the best fitted one's. Against prune=False, which fits every
candidate, on random panels, grids and criteria:
- both tables give the same best_row(kind);
- every pruned row's bound is at least its full fit's log-likelihood;
- every unpruned row is bit for bit the full search's row.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.estimators import FitOptions
from indexvar.select import grid_search
from indexvar.simulate import (
    random_ciaar_params,
    random_mai_params,
    simulate_ciaar,
    simulate_mai,
)

N = 4
CIAAR_DGP = random_ciaar_params(N, 2, 1, 2, 2, seed=0)
MAI_DGP = random_mai_params(N, 2, 2, seed=0)
OPTS = FitOptions(max_iter=40)
FIELDS = ("loglik", "n_params", "stop", "sigma_cond", "converged", "failed", "error")


@st.composite
def searches(draw):
    """A model family, a criterion, a short panel and small p and q ranges."""
    model = draw(st.sampled_from(["ciaar", "iaar", "mai"]))
    kind = draw(st.sampled_from(["aic", "bic", "hq"]))
    T = draw(st.integers(60, 200))
    seed = draw(st.integers(0, 2**31))
    p_range = (1, draw(st.integers(1, 3)))
    # an IAAR with s = p needs q < n - 1 to be more parsimonious than the VAR
    q_range = (1, draw(st.integers(1, 2 if model == "iaar" else 3)))
    simulate, dgp = (simulate_ciaar, CIAAR_DGP) if model == "ciaar" else (simulate_mai, MAI_DGP)
    return model, kind, simulate(dgp, T, seed=seed), p_range, q_range


def same(a, b) -> bool:
    """Bit-equal, a nan matching a nan."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(searches())
def test_pruned_search_keeps_the_full_search_minimizer(case):
    model, kind, Y, p_range, q_range = case
    try:
        full = grid_search(Y, p_range, q_range, kind, OPTS, model, prune=False)
    except ValueError as exc:
        assert "all candidate fits failed" in str(exc)
        with pytest.raises(ValueError, match="all candidate fits failed"):
            grid_search(Y, p_range, q_range, kind, OPTS, model)
        return
    pruned = grid_search(Y, p_range, q_range, kind, OPTS, model)
    assert pruned.T_eff == full.T_eff
    assert pruned.best == full.best == {kind: full.best[kind]}
    assert pruned.best_row(kind).orders() == full.best_row(kind).orders()
    for got, ref in zip(pruned.rows, full.rows, strict=True):
        assert got.orders() == ref.orders()
        assert math.isnan(ref.loglik_bound)          # prune=False bounds nothing
        if got.stop == "pruned":
            assert not got.failed and not got.converged
            assert got.n_params == ref.n_params
            assert math.isnan(got.loglik) and math.isnan(getattr(got, kind))
            # rounding: a fit nested at its bound's rank meets it to ~1e-16
            if not ref.failed:
                assert got.loglik_bound >= ref.loglik - 1e-12 * abs(ref.loglik)
            continue
        for name in FIELDS:
            assert same(getattr(got, name), getattr(ref, name)), name
        for crit in ("aic", "bic", "hq"):
            assert same(getattr(got, crit), getattr(ref, crit)), crit


def test_some_drawn_search_prunes():
    # the property above is not vacuous: a q = 3 grid on a q = 2 panel prunes
    Y = simulate_ciaar(CIAAR_DGP, 200, seed=1)
    table = grid_search(Y, (1, 3), (1, 3), "hq", OPTS)
    assert any(row.stop == "pruned" for row in table.rows)
    assert all(np.isfinite(row.loglik_bound) for row in table.rows)
