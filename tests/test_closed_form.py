"""Closed-form maxima for two index models, written with numpy alone.

A MAI with one lag is the rank-q reduced-rank regression of Y_t on Y_{t-1},
and a VECIM with one lag (no lagged differences) is Johansen's rank-r
regression of dY_t on Y_{t-1}. Both maxima follow from the squared
canonical correlations l_1 >= l_2 >= .. of the target and the regressor,

    ll = -(T/2) (n log 2 pi + n + log|S00| + sum_{i <= rank} log(1 - l_i)),

with S00, S01 and S11 the target's, the cross and the regressor's moments
(Anderson 1951; Johansen 1995). The references below form them from the
demeaned panel the fitters demean, and share no code with the estimators.
The switching fits must reach these maxima: a fit may stop below one by its
stop tolerance, never above it by more than rounding.
"""

import numpy as np
import pytest

from indexvar import fit_mai, fit_vecim
from indexvar.simulate import random_ciaar_params, random_mai_params, simulate_ciaar, simulate_mai


def reduced_rank(Z: np.ndarray, X: np.ndarray, rank: int) -> dict:
    """The Gaussian ML reduced-rank regression Z_t = A B' X_t + e_t of rank
    `rank`: its maximized log-likelihood, B (the leading canonical
    directions of X), the coefficient A B' and the residual covariance."""
    T, n = Z.shape
    S00, S01, S11 = Z.T @ Z / T, Z.T @ X / T, X.T @ X / T
    Linv = np.linalg.inv(np.linalg.cholesky(S11))
    core = Linv @ S01.T @ np.linalg.solve(S00, S01) @ Linv.T
    vals, vecs = np.linalg.eigh((core + core.T) / 2.0)
    lam, B = vals[::-1][:rank], Linv.T @ vecs[:, ::-1][:, :rank]
    coef = S01 @ B @ np.linalg.solve(B.T @ S11 @ B, B.T)
    sigma = S00 - coef @ S01.T
    _, logdet = np.linalg.slogdet(S00)
    ll = -0.5 * T * (n * np.log(2.0 * np.pi) + n + logdet + np.log1p(-lam).sum())
    return {"loglik": ll, "B": B, "coef": coef, "sigma": (sigma + sigma.T) / 2.0}


def projector(B: np.ndarray) -> np.ndarray:
    Q = np.linalg.qr(B)[0]
    return Q @ Q.T


# (n, q, T, seeds): c-sized panels and the mc-wide width. The draws have two
# lags, so the one-lag fit is misspecified and its sweeps do not stop at once.
MAI_CASES = [(6, 2, 800, range(4)), (20, 2, 2000, range(2))]


@pytest.mark.parametrize("n, q, T, seeds", MAI_CASES)
def test_mai_with_one_lag_reaches_the_reduced_rank_maximum(n, q, T, seeds):
    for seed in seeds:
        Y = simulate_mai(random_mai_params(n, q, 2, seed=seed), T, seed=seed)
        V = Y.values - Y.values.mean(axis=0)
        ref = reduced_rank(V[1:], V[:-1], q)["loglik"]
        got = fit_mai(Y, 1, q).loglik
        assert got - ref <= 1e-9 * abs(ref)          # never above the maximum
        assert ref - got <= 1e-4 * abs(ref)          # at most the stop's shortfall below it


@pytest.mark.parametrize("n, q, r, T", [(6, 2, 1, 800), (20, 2, 1, 2000)])
def test_vecim_with_one_lag_is_johansens_regression(n, q, r, T):
    for seed in range(2):
        Y = simulate_ciaar(random_ciaar_params(n, q, r, 0, 1, seed=seed), T, seed=seed)
        levels = Y.values - Y.values.mean(axis=0)
        diffs = np.diff(Y.values, axis=0)
        ref = reduced_rank(diffs - diffs.mean(axis=0), levels[:-1], r)
        fit = fit_vecim(Y, 1, q, r)
        alpha0, beta, pis = fit.params.ec_form()
        assert len(pis) == 0                            # no lagged differences
        assert abs(fit.loglik - ref["loglik"]) <= 1e-9 * abs(ref["loglik"])
        assert np.abs(projector(beta) - projector(ref["B"])).max() <= 1e-10
        assert np.abs(alpha0 @ beta.T - ref["coef"]).max() <= 1e-10 * np.abs(ref["coef"]).max()
        assert np.abs(fit.params.sigma - ref["sigma"]).max() <= 1e-9 * np.abs(ref["sigma"]).max()
