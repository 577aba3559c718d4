import numpy as np
import pytest

from indexvar.params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VECMParams,
    VHARIParams,
)
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


def test_a_vector_is_one_column_and_an_empty_array_none():
    vec = VECMParams(np.array([-0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), [], np.eye(3))
    assert vec.alpha0.shape == vec.beta.shape == (3, 1) and vec.r == 1
    np.testing.assert_array_equal(vec.alpha0[:, 0], [-0.5, 0.0, 0.0])
    ciaar = CIAARParams([], np.zeros(0), np.zeros(0), E1, [], np.eye(3))
    assert ciaar.alpha0.shape == (3, 0) and ciaar.gamma.shape == (1, 0) and ciaar.r == 0


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


# ---------------------------------------------------------------------------
# every container rejection: its exception type and exact message
# ---------------------------------------------------------------------------

E1, E12 = np.eye(3)[:, :1], np.eye(3)[:, :2]
RANK_1 = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])   # 3 x 2 of rank 1
SIGMA_CASES = [
    ({"sigma": np.ones((3, 2))}, "sigma must be square, got shape (3, 2)"),
    ({"sigma": np.triu(np.ones((3, 3)))}, "sigma must be symmetric"),
    ({"sigma": np.diag([1.0, 0.0, 1.0])}, "sigma is not positive definite"),
]
VALID = {
    MAIParams: dict(omega=E1, alphas=[np.zeros((3, 1))], sigma=np.eye(3)),
    VHARIParams: dict(omega=E1, alpha_d=np.zeros((3, 1)), alpha_w=np.zeros((3, 1)),
                      alpha_m=np.zeros((3, 1)), sigma=np.eye(3)),
    IAARParams: dict(ds=[np.full(3, 0.1)], alphas=[np.zeros((3, 1))], omega=E1, sigma=np.eye(3)),
    DRVARParams: dict(omega=E1, phis=[[[0.5]]], sigma=np.eye(3)),
    VECMParams: dict(alpha0=-0.5 * E1, beta=E1, pis=[np.zeros((3, 3))], sigma=np.eye(3)),
    CIAARParams: dict(ds=[np.full(3, 0.1)], alpha0=-0.3 * E1, gamma=[[1.0], [0.0]], omega=E12,
                      alphas=[np.zeros((3, 2))], sigma=np.eye(3)),
}


@pytest.mark.parametrize("cls", list(VALID))
def test_sigma_below_the_guard_margin_is_rejected(cls):
    # positive definite, with a Cholesky that completes, but an eigenvalue
    # ratio of 1e-13: at or below SIGMA_RTOL, where every fit refuses it too
    _assert_rejects(cls, {"sigma": np.diag([1.0, 1.0, 1e-13])}, "sigma is not positive definite")


def _assert_rejects(cls, override, message):
    cls(**VALID[cls])                                  # the valid base is accepted
    with pytest.raises(ValueError) as info:
        cls(**{**VALID[cls], **override})
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("override, message", [
    ({"omega": np.ones((2, 3)), "alphas": []}, "q=3 exceeds n=2"),
    ({"omega": RANK_1, "alphas": [np.zeros((3, 2))]}, "omega is not full rank"),
    ({"alphas": [np.zeros((3, 1)), np.zeros((2, 1))]}, "alpha_2 has shape (2, 1), expected (3, 1)"),
] + SIGMA_CASES)
def test_mai_rejections(override, message):
    _assert_rejects(MAIParams, override, message)


@pytest.mark.parametrize("override, message", [
    ({"omega": RANK_1}, "omega is not full rank"),
    ({"alpha_w": np.zeros((3, 2))}, "alpha_w has shape (3, 2), expected (3, 1)"),
] + SIGMA_CASES)
def test_vhari_rejections(override, message):
    _assert_rejects(VHARIParams, override, message)


@pytest.mark.parametrize("override, message", [
    ({"omega": RANK_1, "alphas": [np.zeros((3, 2))]}, "omega is not full rank"),
    ({"ds": [np.zeros(3), np.zeros(2)]}, "delta_2 has length 2, expected 3"),
    ({"alphas": [np.zeros((3, 2))]}, "alpha_1 has shape (3, 2), expected (3, 1)"),
    ({"alphas": [np.zeros((3, 1))] * 2}, "need s <= p (no more index lags than diagonal lags)"),
] + SIGMA_CASES)
def test_iaar_rejections(override, message):
    _assert_rejects(IAARParams, override, message)


@pytest.mark.parametrize("override, message", [
    ({"omega": 2 * E1}, "omega columns must be orthonormal"),
    ({"phis": [[[0.5]], np.zeros((2, 2))]}, "phi_2 has shape (2, 2), expected (1, 1)"),
] + SIGMA_CASES)
def test_drvar_rejections(override, message):
    _assert_rejects(DRVARParams, override, message)


@pytest.mark.parametrize("override, message", [
    ({"beta": E12}, "alpha0 and beta must have matching shapes"),
    ({"alpha0": RANK_1, "beta": E12}, "alpha0 is not full rank"),
    ({"alpha0": E12, "beta": RANK_1}, "beta is not full rank"),
    ({"pis": [np.zeros((3, 3)), np.zeros((3, 2))]}, "Pi_2 has shape (3, 2), expected (3, 3)"),
] + SIGMA_CASES)
def test_vecm_rejections(override, message):
    _assert_rejects(VECMParams, override, message)


@pytest.mark.parametrize("override, message", [
    ({"omega": RANK_1}, "omega is not full rank"),
    ({"gamma": E1}, "gamma has shape (3, 1), expected (2, 1)"),
    ({"alpha0": np.eye(3), "gamma": np.eye(2, 3)}, "r=3 exceeds q=2"),
    ({"alpha0": E12, "gamma": [[1.0, 1.0], [0.0, 0.0]]}, "gamma is not full rank"),
    # each factor's singular values span 1e-6, their product's 1e-12
    ({"alpha0": E12, "gamma": np.diag([1.0, 1e-6]), "omega": np.diag([1.0, 1e-6, 0.0])[:, :2]},
     "beta = omega gamma is not full rank"),
    ({"ds": [np.zeros(2)]}, "delta_1 has length 2, expected 3"),
    ({"alphas": [np.zeros((3, 2)), np.zeros((3, 1))]}, "alpha_2 has shape (3, 1), expected (3, 2)"),
] + SIGMA_CASES)
def test_ciaar_rejections(override, message):
    _assert_rejects(CIAARParams, override, message)


@pytest.mark.parametrize("cls, override, message", [
    (MAIParams, {"omega": np.zeros((3, 1))}, "omega is not full rank"),
    (VECMParams, {"alpha0": np.zeros((3, 1))}, "alpha0 is not full rank"),
    (CIAARParams, {"gamma": np.zeros((2, 1))}, "gamma is not full rank"),
])
def test_zero_matrices_are_not_full_rank(cls, override, message):
    # every singular value of a zero matrix is 0, which does not exceed 1e-10 times 0
    _assert_rejects(cls, override, message)


@pytest.mark.parametrize("norm", [1.0 + 4e-6, 1.0 - 4e-6])
def test_drvar_omega_off_unit_length_is_rejected(norm):
    # omega'omega - I is about 8e-6 on the diagonal: inside np.allclose's
    # default relative slack, far outside the 1e-10 rule
    _assert_rejects(DRVARParams, {"omega": norm * E1}, "omega columns must be orthonormal")
