"""Property test: every class's state form is its levels recursion.

params.state_form() is the one recursion that the simulators, the
decompositions and the forecasts run. Drawn here: MAI, VHARI, IAAR, DRVAR,
CIAAR (no short-run lag, r = 0 and r = q included) and VECM parameters,
T 1-200, vector or n x c rows, from zero or random pre-samples. run must
equal rowlevel.step_recursion within 1e-12 max|ref|: on var_coeffs() for the
stationary classes, on the short-run lags with ec = alpha0 beta' and the
last level for the integrated ones. spectral_radius() must equal the radius
of the levels companion of every stationary class. On unfiltered CIAAR and
VECM draws, accepted and rejected, the state radius must make the decision
of the levels-companion I(1) rule (rowlevel.levels_i1_classification).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.params import CIAARParams, VECMParams
from indexvar.simulate import (
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
    random_vhari_params,
)
from indexvar.tscore import companion_spectral_radius
from rowlevel import levels_i1_classification, step_recursion

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
KINDS = ["mai", "vhari", "iaar", "drvar", "ciaar", "vecm"]


@st.composite
def parameters(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 6))
    q = draw(st.integers(1, n - 1))
    p = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**16))
    if kind == "mai":
        return random_mai_params(n, q, p, seed=seed)
    if kind == "vhari":
        return random_vhari_params(n, q, seed=seed)
    if kind == "iaar":
        q = draw(st.integers(0, n - 1))
        p = max(p, 1)
        s = draw(st.integers(1, p)) if q else 0
        return random_iaar_params(n, q, p, s, seed=seed)
    if kind == "drvar":
        return random_drvar_params(n, q, max(p, 1), seed=seed)
    # p, s <= 1 leave no short-run lag
    params = random_ciaar_params(n, q, draw(st.integers(0, q)), p, draw(st.integers(0, 3)), seed=seed)
    if kind == "vecm":
        return VECMParams(params.alpha0, params.beta, params.diff_coeffs(), params.sigma)
    return params


@pytest.mark.filterwarnings("ignore:q=.* is not more parsimonious")
@SETTINGS
@given(
    params=parameters(),
    T=st.integers(1, 200),
    c=st.sampled_from([None, 1, 3]),
    presample=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_state_form_runs_the_levels_recursion(params, T, c, presample, seed):
    rng = np.random.default_rng(seed)
    form = params.state_form()
    row = (params.n,) if c is None else (params.n, c)
    drive = rng.standard_normal((T,) + row)
    if form.integrated:
        _, _, pis = params.ec_form()
        init = rng.standard_normal((len(pis),) + row) * presample
        level = rng.standard_normal(row) * presample
        ref = step_recursion(pis, init, drive, ec=params.alpha0 @ params.beta.T, level=level)
        got = form.run(drive, init, level)
    else:
        phis = params.var_coeffs()
        init = rng.standard_normal((len(phis),) + row) * presample
        ref, got = [step_recursion(phis, init, drive)], [form.run(drive, init)]
        radius = companion_spectral_radius(phis)
        assert abs(params.spectral_radius() - radius) <= 1e-12
        assert abs(form.spectral_radius() - radius) <= 1e-12
    for g, r in zip(got, ref, strict=True):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


def _unfiltered(kind, n, q, r, m, scale, rng):
    """Error-correction parameters with no I(1) screening: m short-run lags
    and loadings scaled by `scale`, which the state radius accepts or rejects."""
    omega = np.linalg.qr(rng.standard_normal((n, q)))[0]
    gamma = rng.standard_normal((q, r))
    alpha0 = -scale * omega @ gamma + 0.2 * scale * rng.standard_normal((n, r))
    ds = [0.5 * scale * rng.uniform(-1.0, 1.0, n) for _ in range(m)]
    alphas = [scale * rng.standard_normal((n, q)) / np.sqrt(n) for _ in range(m)]
    params = CIAARParams(ds, alpha0, gamma, omega, alphas, np.eye(n))
    if kind == "vecm":
        return VECMParams(params.alpha0, params.beta, params.diff_coeffs(), params.sigma)
    return params


@SETTINGS
@given(
    kind=st.sampled_from(["ciaar", "vecm"]),
    n=st.integers(2, 6),
    m=st.integers(0, 2),
    scale=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_state_radius_decides_as_the_levels_companion(kind, n, m, scale, seed, data):
    q = data.draw(st.integers(1, n - 1))
    params = _unfiltered(kind, n, q, data.draw(st.integers(0, q)), m, scale, np.random.default_rng(seed))
    sv = np.linalg.svd(params.i1_matrix(), compute_uv=False)
    if sv.size and sv[-1] < 1e-8 * sv[0]:
        return                                        # I(2): refused before either rule
    accepted = params.state_form().spectral_radius() < 1.0 - 1e-8
    assert accepted == levels_i1_classification(params)


def test_state_radius_accepts_i1_draws_and_rejects_an_explosive_one():
    valid = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
    assert valid.state_form().spectral_radius() < 1.0 - 1e-8
    assert levels_i1_classification(valid)
    # alpha0 gamma' omega' = 0.5 e1 e1' puts a levels companion root at 1.5
    e1 = np.eye(3)[:, :1]
    explosive = CIAARParams([], 0.5 * e1, np.ones((1, 1)), e1, [], np.eye(3))
    assert abs(explosive.state_form().spectral_radius() - 1.5) < 1e-12
    assert not levels_i1_classification(explosive)
    # r = 0 with an explosive own lag: the differences themselves explode
    diffs = CIAARParams([np.array([1.2, 0.0, 0.0])], np.zeros((3, 0)), np.zeros((1, 0)), e1, [], np.eye(3))
    assert diffs.state_form().spectral_radius() >= 1.0
    assert not levels_i1_classification(diffs)
