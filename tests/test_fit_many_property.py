"""Property test: one lockstep fit_many run equals the fits panel by panel,
and every member reports the sigma of its log-likelihood."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.decomp import residuals
from indexvar.estimators import (
    MODELS,
    FitOptions,
    fit_ciaar,
    fit_iaar,
    fit_mai,
    fit_many,
    fit_vecim,
    fit_vhari,
)
from indexvar.simulate import (
    random_ciaar_params,
    random_mai_params,
    random_vhari_params,
    simulate_ciaar,
    simulate_mai,
    simulate_vhari,
)
from indexvar.tscore import gaussian_loglik

N = 4
CIAAR_DGP = random_ciaar_params(N, 2, 1, 2, 2, seed=0)
MAI_DGP = random_mai_params(N, 2, 2, seed=0)
VHARI_DGP = random_vhari_params(N, 2, seed=0)
OPTS = FitOptions(max_iter=40)


@st.composite
def cases(draw):
    """A model, its orders and 2 to 4 short panels of one length; "diagonal"
    is the IAAR with q = 0."""
    model = draw(st.sampled_from(["ciaar", "vecim", "mai", "vhari", "iaar", "diagonal"]))
    q = draw(st.integers(1, 2))
    if model == "ciaar":
        p = draw(st.integers(0, 2))
        s = draw(st.integers(1, p if p >= 2 else 3))      # s > p without a diagonal lag
        orders = dict(p=p, s=s, q=q, r=draw(st.integers(0, q)))
    elif model == "vecim":
        orders = dict(p=draw(st.integers(1, 3)), q=q, r=draw(st.integers(0, q)))
    elif model == "mai":
        orders = dict(p=draw(st.integers(1, 2)), q=q)
    elif model == "vhari":
        orders = dict(q=q)
    else:
        p = draw(st.integers(1, 2))
        orders = dict(p=p, s=draw(st.integers(0, p)), q=q if model == "iaar" else 0)
        model = "iaar"
    T = draw(st.integers(60, 150))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=2, max_size=4))
    simulate, dgp = {"ciaar": (simulate_ciaar, CIAAR_DGP), "vecim": (simulate_ciaar, CIAAR_DGP),
                     "vhari": (simulate_vhari, VHARI_DGP)}.get(model, (simulate_mai, MAI_DGP))
    return model, orders, [simulate(dgp, T, seed=seed) for seed in seeds]


SINGLE = {"ciaar": fit_ciaar, "vecim": fit_vecim, "mai": fit_mai, "vhari": fit_vhari,
          "iaar": fit_iaar}


def test_every_engine_model_is_drawn():
    assert SINGLE.keys() == {m for m, model in MODELS.items() if model.setup}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fit_many_equals_per_panel_fits(case):
    model, orders, panels = case
    try:
        singles = [SINGLE[model](Y, opts=OPTS, **orders) for Y in panels]
    except (ValueError, np.linalg.LinAlgError) as exc:
        with pytest.raises(type(exc)):
            list(fit_many(model, panels, opts=OPTS, **orders))
        return
    batch = list(fit_many(model, panels, opts=OPTS, **orders))
    assert len(batch) == len(singles)
    for Y, got, ref in zip(panels, batch, singles):
        assert got.model == ref.model
        assert got.iterations == ref.iterations
        assert got.diagnostics == ref.diagnostics
        gap = np.abs(got.loglik_trace - ref.loglik_trace).max()
        assert gap <= 1e-10 * np.abs(ref.loglik_trace).max()
        e_got, e_ref = residuals(got, Y), residuals(ref, Y)
        assert np.abs(e_got - e_ref).max() <= 1e-10 * np.abs(e_ref).max()
        assert got.loglik == gaussian_loglik(got.params.sigma, got.T_eff)
