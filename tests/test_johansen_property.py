"""Property test: the moment-based Johansen solve and the engine's CIAAR start
equal the dense, least-squares ones of tests/rowlevel.py."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.estimators import johansen_rrr
from indexvar.simulate import random_ciaar_params, simulate_ciaar
from indexvar.tscore import subspace_distance
from rowlevel import dense_ciaar_start, dense_johansen
from starts import engine_start

DGPS = {n: random_ciaar_params(n, 2, 1, 2, 2, seed=n) for n in range(3, 7)}


def rel_gap(got, ref):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    assert got.shape == ref.shape
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300) if ref.size else 0.0


@st.composite
def cases(draw):
    """A CIAAR panel and the orders of a Johansen fit and start on it.

    m = max(p, s) - 1 lagged differences, rank r, and p = 0 (the VECIM
    start) or p = m + 1 (every lag with its own diagonal). With m = 0 the
    stack alpha0 beta' has rank r, so q = r keeps omega0 identified.
    """
    n = draw(st.integers(3, 6))
    m = draw(st.integers(0, 2))
    r = draw(st.integers(0, 2))
    q = max(r, 1) if m == 0 else draw(st.integers(max(r, 1), n - 1))
    p = draw(st.sampled_from([0, m + 1]))
    Y = simulate_ciaar(DGPS[n], draw(st.integers(60, 400)), seed=draw(st.integers(0, 2**31)))
    return Y, m, p, q, r


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_moment_johansen_and_start_equal_the_dense_ones(case):
    Y, m, p, q, r = case
    vals, beta, alpha0, pis, sigma = dense_johansen(Y, m + 1, r)
    fit = johansen_rrr(Y, m + 1, r)
    assert rel_gap(fit.diagnostics["eigenvalues"], vals) <= 1e-10
    assert rel_gap(fit.params.beta, beta) <= 1e-10
    assert rel_gap(fit.params.alpha0, alpha0) <= 1e-10
    assert rel_gap(fit.params.pis, pis) <= 1e-10
    assert rel_gap(fit.params.sigma, sigma) <= 1e-10

    # with no index lag (m = 0) the engine starts at q_fit = r
    q_fit = q if m else r
    gamma0, omega0, d0 = engine_start("ciaar", Y, p=p, s=m + 1, q=q, r=r)
    ref = dense_ciaar_start(Y, p, m + 1, q_fit, r)
    assert omega0.shape == ref[1].shape
    assert not q_fit or subspace_distance(omega0, ref[1]) <= 1e-10
    assert rel_gap(gamma0, ref[0]) <= 1e-10
    assert len(d0) == len(ref[2]) and rel_gap(d0, ref[2]) <= 1e-10
