"""Property test: c09's nesting identity at random orders and panels.

A CIAAR (0, s, q, 0) has no diagonal channel and no error-correction term, so
it is the MAI (s - 1, q) of the first differences: the same targets, the same
s - 1 lagged differences as index channels, and starts from the same VAR
coefficients (Johansen's with r = 0 against the OLS VAR). The two fits must
take the same sweeps to the same log-likelihoods and residuals.

Likewise a CIAAR (p, 1, q, 0) has no index lag and no error-correction term:
it is the diagonal IAAR (p - 1, 0, 0) of the first differences, and both
must be the same ML fit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.decomp import residuals
from indexvar.estimators import fit_ciaar, fit_iaar, fit_mai
from indexvar.simulate import random_ciaar_params, simulate_ciaar
from indexvar.tscore import Panel


@st.composite
def cases(draw):
    n = draw(st.integers(3, 6))
    q = draw(st.integers(1, n - 1))
    s = draw(st.integers(2, 4))
    T = draw(st.integers(120, 400))
    seed = draw(st.integers(0, 2**31))
    return simulate_ciaar(random_ciaar_params(n, q, 0, 1, s, seed=seed), T, seed=seed), s, q


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_ciaar_without_diagonal_or_ec_term_is_the_mai_of_the_differences(case):
    Y, s, q = case
    ciaar = fit_ciaar(Y, 0, s, q, 0)
    dY = Panel(np.diff(Y.values, axis=0))
    mai = fit_mai(dY, s - 1, q)
    assert ciaar.iterations == mai.iterations
    assert ciaar.diagnostics["stop"] == mai.diagnostics["stop"]
    gap = np.abs(ciaar.loglik_trace - mai.loglik_trace).max()
    assert gap <= 1e-12 * np.abs(mai.loglik_trace).max()
    e_ciaar, e_mai = residuals(ciaar, Y), residuals(mai, dY)
    assert np.abs(e_ciaar - e_mai).max() <= 1e-10 * np.abs(e_mai).max()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(), st.integers(2, 4))
def test_ciaar_without_index_lag_or_ec_term_is_the_diagonal_iaar_of_the_differences(case, p):
    Y, _, q = case
    ciaar = fit_ciaar(Y, p, 1, q, 0)
    iaar = fit_iaar(Panel(np.diff(Y.values, axis=0)), p - 1, 0, 0)
    assert abs(ciaar.loglik - iaar.loglik) <= 1e-10 * abs(iaar.loglik)
    ds, ref = np.concatenate(ciaar.params.ds), np.concatenate(iaar.params.ds)
    assert np.abs(ds - ref).max() <= 1e-8 * np.abs(ref).max()
    gap = np.abs(ciaar.params.sigma - iaar.params.sigma).max()
    assert gap <= 1e-8 * np.abs(iaar.params.sigma).max()
