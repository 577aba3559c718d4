"""A fit is its parameters, and decomp.residuals forms its residuals from the fitted panel.

A FitResult holds no residuals: its fields are all it carries, so it pickles
field for field. decomp.residuals(fit, Y) builds the fit's setup again on
the fitted panel Y and subtracts each fitted channel, so every window of a
lockstep run gets its own residuals, equal to its single fit's.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import estimators
from indexvar.decomp import residuals
from indexvar.estimators import FitResult
from indexvar.simulate import (
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
    random_vhari_params,
    simulate_ciaar,
    simulate_drvar,
    simulate_iaar,
    simulate_mai,
    simulate_vhari,
)
from indexvar.tscore import Panel

ORDERS = dict(p=2, s=2, q=2, r=1)
SEVEN = ["mai", "vhari", "iaar", "ciaar", "vecim", "vecm", "drvar"]


@pytest.fixture(scope="module")
def panel():
    return simulate_ciaar(random_ciaar_params(n=4, q=2, r=1, p=2, s=2, seed=0), 300, seed=1)


def test_fit_many_residuals_equal_each_window_single_fit(panel):
    windows = [Panel(panel.values[i: i + 200], list(panel.names)) for i in range(4)]
    fits = list(estimators.fit_many("ciaar", windows, **ORDERS))
    refs = [estimators.fit_ciaar(Y, **ORDERS) for Y in windows]
    for Y, fit, ref in zip(windows, fits, refs):
        assert np.array_equal(residuals(fit, Y), residuals(ref, Y))


def test_each_window_of_a_50_window_batch_forms_its_own_residuals(panel):
    # every member's params are its own window's, not the batch's last ones
    windows = [Panel(panel.values[i: i + 200], list(panel.names)) for i in range(50)]
    fits = list(estimators.fit_many("ciaar", windows, **ORDERS))
    for Y, fit in zip(windows, fits):
        assert np.array_equal(residuals(fit, Y), residuals(estimators.fit_ciaar(Y, **ORDERS), Y))
    assert not np.array_equal(residuals(fits[0], windows[0]), residuals(fits[49], windows[49]))


def test_a_pickled_fit_carries_its_residuals(panel):
    fit = estimators.fit_ciaar(panel, **ORDERS)
    back = pickle.loads(pickle.dumps(fit))
    assert np.array_equal(residuals(back, panel), residuals(fit, panel)) and back.T_eff == fit.T_eff
    assert np.array_equal(back.params.omega, fit.params.omega)


def _fit(model: str, seed: int, p: int, r: int):
    """A fit of model at lag order p (and rank r where it has one) to an n = 4 panel of its class
    simulated at seed, with the panel."""
    if model == "mai":
        Y = simulate_mai(random_mai_params(4, 2, 1, seed=seed), 300, seed=seed)
        return Y, estimators.fit_mai(Y, p, 2)
    if model == "vhari":
        Y = simulate_vhari(random_vhari_params(4, 2, seed=seed), 300, seed=seed)
        return Y, estimators.fit_vhari(Y, 1 + p % 2)
    if model == "iaar":
        Y = simulate_iaar(random_iaar_params(4, 1, 2, 1, seed=seed), 300, seed=seed)
        return Y, estimators.fit_iaar(Y, p, 1, 1)
    if model == "drvar":
        Y = simulate_drvar(random_drvar_params(4, 2, 1, seed=seed), 300, seed=seed)
        return Y, estimators.fit_drvar_coeffs(Y, estimators.fit_drvar_omega(Y, 2, 2)[0], p)
    Y = simulate_ciaar(random_ciaar_params(4, 2, 1, 2, 2, seed=seed), 300, seed=seed)
    if model == "ciaar":
        return Y, estimators.fit_ciaar(Y, p, min(p, 2), 2, r)
    if model == "vecim":
        return Y, estimators.fit_vecim(Y, p, 2, r)
    return Y, estimators.johansen_rrr(Y, p, r)


@pytest.fixture(scope="module")
def seven():
    return {model: _fit(model, 0, 2, 1) for model in SEVEN}


def _same(a, b) -> bool:
    """Whether a and b hold the same values: dataclasses field for field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (np.ndarray, float)):
        return np.array_equal(a, b, equal_nan=True)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("model", SEVEN)
def test_a_fit_is_a_plain_value_that_pickles_field_for_field(seven, model):
    fit = seven[model][1]
    names = {f.name for f in dataclasses.fields(FitResult)}
    assert set(vars(fit)) == names
    back = pickle.loads(pickle.dumps(fit))
    assert set(vars(back)) == names
    for name in names:
        assert _same(getattr(back, name), getattr(fit, name)), name


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(SEVEN), seed=st.integers(0, 10_000), p=st.integers(1, 3),
       r=st.integers(0, 2))
def test_sigma_is_the_covariance_of_the_residuals(model, seed, p, r):
    Y, fit = _fit(model, seed, p, r)
    e = residuals(fit, Y)
    assert e.shape == (fit.T_eff, Y.n)
    assert np.abs(fit.params.sigma - e.T @ e / fit.T_eff).max() < 1e-10
