"""Property tests: the stacked forecast continuation and rolling evaluation
against per-member step recursions, evaluate against its step-by-step loop,
and the blocked log-normal GARCH draw against its row loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from indexvar.estimators import FitResult
from indexvar.forecast import ForecastPath, _continue, _presample, evaluate, rolling_evaluate
from indexvar.params import VECMParams
from indexvar.simulate import (
    draw_shocks,
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
)
from indexvar.tscore import Panel
from rowlevel import loop_evaluate, loop_lognormal_garch, step_recursion

SETTINGS = settings(max_examples=25, deadline=None)
KINDS = ["mai", "iaar", "drvar", "ciaar", "vecm"]
EC_KINDS = ("ciaar", "vecm")


def random_fit(kind, n, lags, r, seed):
    """A FitResult of `kind` with drawn parameters and means: stationary kinds
    get lags + 1 levels lags (an IAAR max(lags, 1) index lags, as its one
    index direction needs one), error-correction kinds `lags` short-run lags
    (none at lags = 0) and cointegration rank r <= 1."""
    rng = np.random.default_rng(seed)
    means = {"level": rng.standard_normal(n)}
    if kind == "mai":
        params = random_mai_params(n, 1, lags + 1, seed=seed)
    elif kind == "iaar":
        params = random_iaar_params(n, 1, lags + 1, max(lags, 1), seed=seed)
    elif kind == "drvar":
        params = random_drvar_params(n, 1, lags + 1, seed=seed)
    else:
        params = random_ciaar_params(n, 1, r, lags + 1, lags + 1, seed=seed)
        if kind == "vecm":
            params = VECMParams(params.alpha0, params.beta, params.diff_coeffs(), params.sigma)
        means["diff"] = 0.1 * rng.standard_normal(n)
    return FitResult(kind, params, np.array([0.0]), np.zeros((1, n)), True, 1, lags + 1, means)


def step_forecast(fit, Y, h):
    """The zero-shock continuation from the end of Y, one row per step."""
    mu = fit.means["level"]
    if fit.model not in EC_KINDS:
        phis = fit.params.var_coeffs()
        return step_recursion(phis, Y.values[Y.T - len(phis):] - mu, np.zeros((h, Y.n))) + mu
    alpha0, beta, pis = fit.params.ec_form()
    drive = np.tile((np.eye(Y.n) - sum(pis, np.zeros((Y.n, Y.n)))) @ fit.means["diff"], (h, 1))
    init = np.diff(Y.values[Y.T - len(pis) - 1:], axis=0)
    _, levels = step_recursion(pis, init, drive, ec=alpha0 @ beta.T, level=Y.values[-1] - mu)
    return levels + mu


def random_panel(rng, T, n):
    return Panel(np.cumsum(rng.standard_normal((T, n)), axis=0))


@pytest.mark.filterwarnings("ignore:q=.* is not more parsimonious")
@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 5),
    lags=st.integers(0, 2),
    r=st.integers(0, 1),
    B=st.integers(1, 6),
    h=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_stacked_continuation_equals_each_member(kind, n, lags, r, B, h, seed):
    rng = np.random.default_rng(seed)
    fits = [random_fit(kind, n, lags, r, seed + b) for b in range(B)]
    panels = [random_panel(rng, lags + 4, n) for _ in range(B)]
    paths = _continue([_presample(f, Y, Y.T) for f, Y in zip(fits, panels)], h)
    assert paths.shape == (B, h, n)
    for path, fit, Y in zip(paths, fits, panels):
        ref = step_forecast(fit, Y, h)
        assert np.abs(path - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.filterwarnings("ignore:q=.* is not more parsimonious")
@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 4),
    lags=st.integers(0, 1),
    r=st.integers(0, 1),
    h=st.integers(1, 6),
    n_origins=st.integers(1, 8),
    refit=st.booleans(),
    alternate=st.booleans(),
    seed=st.integers(0, 2**16),
)
# an MSFE entry of 3.0e-8 that the two sums round apart by 7.7e-20 under some BLAS kernels
@example(kind="drvar", n=2, lags=0, r=0, h=2, n_origins=1, refit=False, alternate=False, seed=474)
def test_rolling_evaluate_equals_per_origin_loop(kind, n, lags, r, h, n_origins, refit, alternate, seed):
    Y = random_panel(np.random.default_rng(seed), 12 + h + n_origins, n)
    returned = []

    def fitter(windows):
        # with alternate, consecutive windows get fits of different lag counts
        fits = [random_fit(kind, n, lags + (i % 2 if alternate else 0), r, seed + i)
                for i in range(len(windows))]
        returned.extend(fits)
        return iter(fits)

    table, paths, info = rolling_evaluate(Y, fitter, h, n_origins, refit=refit)
    width = info["window"]
    refs = []
    for i, origin in enumerate(range(Y.T - h - n_origins, Y.T - h)):
        window = Panel(Y.values[origin + 1 - width: origin + 1])
        refs.append(ForecastPath(h, step_forecast(returned[i if refit else 0], window, h), origin))
    for path, ref in zip(paths, refs, strict=True):
        assert path.origin == ref.origin
        assert np.abs(path.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
    msfe, counts = loop_evaluate(refs, Y)
    assert np.array_equal(table.counts, counts)
    # relative to the table's largest entry, as the paths are to their largest value
    np.testing.assert_allclose(table.msfe, msfe, rtol=0, atol=1e-12 * np.nanmax(np.abs(msfe)))


@SETTINGS
@given(n=st.integers(1, 4), T=st.integers(1, 12), seed=st.integers(0, 2**16), data=st.data())
def test_evaluate_equals_step_loop(n, T, seed, data):
    rng = np.random.default_rng(seed)
    actuals = Panel(rng.standard_normal((T, n)))
    paths = [
        ForecastPath(k, rng.standard_normal((k, n)), data.draw(st.integers(-8, T + 4)))
        for k in data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    ]
    try:
        msfe, counts = loop_evaluate(paths, actuals)
    except ValueError:
        with pytest.raises(ValueError, match="overlap"):
            evaluate(paths, actuals)
    else:
        table = evaluate(paths, actuals)
        assert np.array_equal(table.counts, counts)
        np.testing.assert_allclose(table.msfe, msfe, rtol=1e-12, atol=0)
    beyond = [ForecastPath(f.horizon, f.values, T - 1 + i) for i, f in enumerate(paths)]
    with pytest.raises(ValueError, match="overlap"):
        evaluate(beyond, actuals)


@SETTINGS
@given(n=st.integers(1, 20), length=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_lognormal_garch_equals_row_loop(n, length, seed):
    # a diagonal sigma keeps every shock one term, so the bound is per entry
    sigma = np.diag(np.random.default_rng(seed).uniform(0.1, 10.0, n))
    got = draw_shocks(sigma, length, seed, "lognormal_garch")
    ref = loop_lognormal_garch(sigma, length, seed)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
