"""Property test: an index fit depends on its starting omega only through
the column space, so starting from omega0 R for an invertible R gives the
same fitted values and log-likelihood trace."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.decomp import residuals
from indexvar.estimators import MODELS, FitOptions, _default_starts, fit_many
from indexvar.simulate import random_ciaar_params, random_iaar_params, simulate_ciaar, simulate_iaar

N = 4
CIAAR_DGP = random_ciaar_params(N, 2, 1, 2, 2, seed=0)
IAAR_DGP = random_iaar_params(N, 2, 2, 1, seed=0)
OPTS = FitOptions(max_iter=40)


@st.composite
def cases(draw):
    """A model, its orders, a panel and an invertible q x q matrix R.

    CIAAR with s = 1 and 0 < r < q is drawn too: it is fit from the basis
    of beta0 = omega0 gamma0, which the rotation leaves unchanged.
    """
    model = draw(st.sampled_from(["mai", "iaar", "ciaar"]))
    q = draw(st.integers(1, 2))
    if model == "mai":
        orders = dict(p=draw(st.integers(1, 2)), q=q)
    elif model == "iaar":
        p = draw(st.integers(1, 2))
        orders = dict(p=p, s=draw(st.integers(1, p)), q=q)
    else:
        p = draw(st.integers(0, 2))
        r = draw(st.integers(0, q))
        s = draw(st.integers(1, p if p >= 2 else 2))
        orders = dict(p=p, s=s, q=q, r=r)
    T = draw(st.integers(80, 200))
    simulate, dgp = (simulate_ciaar, CIAAR_DGP) if model == "ciaar" else (simulate_iaar, IAAR_DGP)
    Y = simulate(dgp, T, seed=draw(st.integers(0, 2**31)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((q, q)))[0] for _ in range(2))
    R = Q1 @ np.diag(rng.uniform(0.3, 3.0, q)) @ Q2
    return model, orders, Y, R


def fit_from(model, orders, Y, start):
    """The fit of Y from start = (gamma0, omega0, D0)."""
    return next(fit_many(model, [Y], OPTS, init=start, **orders))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fit_is_invariant_to_the_basis_of_the_start_omega(case):
    model, orders, Y, R = case
    # the default start at the model's q, which fit_many maps itself when s = 1
    setup = MODELS[model].setup(Y, **orders)
    start = _default_starts([setup.start()], setup.r, setup.shape[0], orders["q"])[0]
    gamma0, omega0, d0 = start
    rotated = (np.linalg.solve(R, gamma0) if gamma0 is not None else None, omega0 @ R, d0)
    ref, got = fit_from(model, orders, Y, start), fit_from(model, orders, Y, rotated)
    assert got.iterations == ref.iterations
    gap = np.abs(got.loglik_trace - ref.loglik_trace).max()
    assert gap <= 1e-10 * np.abs(ref.loglik_trace).max()
    # equal residuals on equal targets: the fitted values agree
    e_got, e_ref = residuals(got, Y), residuals(ref, Y)
    assert np.abs(e_got - e_ref).max() <= 1e-10 * np.abs(e_ref).max()
