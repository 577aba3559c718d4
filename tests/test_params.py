import numpy as np
import pytest

from indexvar.params import IAARParams, MAIParams, VECMParams
from indexvar.simulate import (
    random_ciaar_params,
    random_iaar_params,
    random_mai_params,
    random_vhari_params,
)
from indexvar.tscore import Panel, har_aggregates


def test_mai_free_param_count():
    for n, q, p in ((6, 2, 1), (6, 2, 3), (8, 3, 2)):
        params = random_mai_params(n, q, p, seed=n + q + p)
        assert params.n_free_params() == n * q * (p + 1) - q * q


def test_iaar_free_param_count():
    for n, q, p, s in ((6, 1, 2, 2), (6, 2, 3, 1), (5, 2, 2, 2)):
        params = random_iaar_params(n, q, p, s, seed=n + p)
        assert params.n_free_params() == n * (q * s + q + p) - q * q


def test_ciaar_count_is_iaar_count_plus_ec_terms():
    n, q, r, p, s = 6, 2, 1, 3, 2
    params = random_ciaar_params(n, q, r, p, s, seed=1)
    iaar_like = n * (q * (s - 1) + q + (p - 1)) - q * q
    assert params.n_free_params() == iaar_like + n * r + r * (q - r)


def test_vhari_count_matches_mai_with_three_loadings():
    params = random_vhari_params(5, 2, seed=0)
    assert params.n_free_params() == 5 * 2 * 4 - 4


def test_vhari_var22_is_the_daily_weekly_monthly_cascade():
    # sum_j Phi_j Y_{t-j} = alpha_d f_{t-1} + alpha_w f^w_{t-1} + alpha_m f^m_{t-1}
    # with f^w, f^m the trailing 5- and 22-day means of f = omega'Y
    params = random_vhari_params(5, 2, seed=0)
    Y = np.random.default_rng(1).standard_normal((60, 5))
    Yw, Ym = har_aggregates(Panel(Y))
    phis = params.var_coeffs()
    assert len(phis) == 22
    om = params.omega
    for t in range(22, 60):
        var = sum(phi @ Y[t - j] for j, phi in enumerate(phis, 1))
        har = (
            params.alpha_d @ om.T @ Y[t - 1]
            + params.alpha_w @ om.T @ Yw.values[t - 1]
            + params.alpha_m @ om.T @ Ym.values[t - 1]
        )
        assert np.abs(var - har).max() < 1e-12


def test_sigma_must_be_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        MAIParams(np.eye(3)[:, :1], [np.zeros((3, 1))], np.diag([1.0, 0.0, 1.0]))


def test_shape_validation():
    with pytest.raises(ValueError, match="alpha_1"):
        MAIParams(np.eye(3)[:, :2], [np.zeros((3, 1))], np.eye(3))
    with pytest.raises(ValueError, match="s <= p"):
        IAARParams([np.zeros(3)], [np.zeros((3, 1))] * 2, np.eye(3)[:, :1], np.eye(3))


def test_iaar_parsimony_warning():
    # s = p >= 2 with q = n-1 is no more parsimonious than the VAR
    n, q = 4, 3
    with pytest.warns(UserWarning, match="parsimonious"):
        IAARParams(
            [np.zeros(n)] * 2,
            [np.zeros((n, q))] * 2,
            np.linalg.qr(np.random.default_rng(0).standard_normal((n, q)))[0],
            np.eye(n),
        )


def test_vecm_i1_matrix_nonsingular_for_valid_draw():
    params = random_ciaar_params(5, 2, 1, 2, 2, seed=3)
    vec = VECMParams(
        params.alpha0, params.beta, params.diff_coeffs(), params.sigma
    )
    sv = np.linalg.svd(vec.i1_matrix(), compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]


def test_ciaar_unit_root_count():
    for r in (0, 1, 2):
        params = random_ciaar_params(5, 2, r, 2, 2, seed=10 + r)
        assert params.unit_roots() == 5 - r


def test_ciaar_beta_rank():
    params = random_ciaar_params(6, 3, 2, 2, 2, seed=4)
    assert np.linalg.matrix_rank(params.beta, tol=1e-8) == 2


def test_mai_rotation_leaves_fitted_values_identical():
    params = random_mai_params(5, 2, 2, seed=5)
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = MAIParams(
        params.omega @ Q, [a @ Q for a in params.alphas], params.sigma
    )
    for a, b in zip(params.var_coeffs(), rotated.var_coeffs()):
        assert np.abs(a - b).max() < 1e-12
