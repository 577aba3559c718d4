"""Row-level Vec/Kronecker reference for the switching algorithm.

The library solves step 2 through gram normal equations and never forms the
stacked design. This module builds that design row by row, (X_t' kron A) for
Vec(omega') and (X_t' kron S) M for the diagonals, and runs the switching
loop on it, so the tests can check the gram engine against an independent
construction. row_level_simulate likewise iterates the structural form of
the IAAR and CIAAR models term by term, as an oracle for the simulators'
companion-form lag recursion.
"""

import numpy as np

from indexvar.estimators import _converged, _qr_normalize, _solve_rrr_eig
from indexvar.params import CIAARParams
from indexvar.tscore import fix_signs, gaussian_loglik


def diag_selection_matrix(n: int) -> np.ndarray:
    """Binary n^2 x n matrix M with Vec(diag(d)) = M d."""
    M = np.zeros((n * n, n))
    M[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    return M


def sym_inv_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root, eigenvalues floored at 1e-12 of the largest."""
    w, V = np.linalg.eigh(sigma)
    w = np.maximum(w, 1e-12 * w[-1])
    return (V / np.sqrt(w)) @ V.T


def vec_omega_block(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Stacked rows of (X_t' kron A), the design block multiplying Vec(omega')."""
    Te, n = X.shape
    return np.einsum("tk,im->tikm", X, A).reshape(Te * n, n * A.shape[1])


def vec_diag_block(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Stacked rows of (X_t' kron S) M, the design block multiplying delta_j."""
    Te, n = X.shape
    return np.einsum("tk,ik->tik", X, S).reshape(Te * n, n)


def row_level_sa(Z, index_X, ec_X, omega0, gamma0, r, opts):
    """Switching algorithm on the explicit (Te n) x (n q) step-2 design.

    Targets Z load on index_X @ omega and, for r > 0, on the
    error-correction term ec_X @ omega @ gamma. With r = 0 and level lags
    as index_X this is the MAI fit; with differences it is the VECIM fit.
    Both steps are unpenalized minimum-norm least squares.
    """
    if opts.ridge:
        raise ValueError("the row-level reference takes no ridge")
    Te, n = Z.shape
    q = omega0.shape[1]
    omega = omega0
    gamma = np.eye(q)[:, :r] if r == q else gamma0
    alpha0, alphas = np.zeros((n, r)), []
    trace = []
    it = 0
    while it < opts.max_iter:
        it += 1
        regs = ([ec_X @ omega @ gamma] if r else []) + [X @ omega for X in index_X]
        resid = Z
        if regs:
            X1 = np.hstack(regs)
            B = np.linalg.lstsq(X1, Z, rcond=1e-10)[0]
            resid = Z - X1 @ B
            alpha0 = B[:r].T
            alphas = [B[r + j * q: r + (j + 1) * q].T for j in range(len(index_X))]
        sigma = resid.T @ resid / Te
        trace.append(gaussian_loglik(sigma, Te))
        if _converged(trace, opts.tol) or it == opts.max_iter or not regs:
            break
        S = sym_inv_sqrt(sigma)
        X2 = sum(vec_omega_block(X, S @ a) for X, a in zip(index_X, alphas))
        if r:
            X2 = X2 + vec_omega_block(ec_X, S @ alpha0 @ gamma.T)
        omega = np.linalg.lstsq(X2, (Z @ S).ravel(), rcond=1e-10)[0].reshape(n, q)
        if opts.normalize:
            omega, R = _qr_normalize(omega)
            alphas = [a @ R.T for a in alphas]
            gamma = R @ gamma if 0 < r < q else gamma
        if 0 < r < q:
            ecf = ec_X @ omega
            R0, R1 = Z, ecf
            if index_X:
                F = np.hstack([X @ omega for X in index_X])
                R0 = Z - F @ np.linalg.lstsq(F, Z, rcond=None)[0]
                R1 = ecf - F @ np.linalg.lstsq(F, ecf, rcond=None)[0]
            _, vecs = _solve_rrr_eig(R0.T @ R0 / Te, R0.T @ R1 / Te, R1.T @ R1 / Te)
            gamma = fix_signs(vecs[:, :r])
    return {"omega": omega, "gamma": gamma, "alpha0": alpha0, "alphas": alphas,
            "sigma": sigma, "trace": np.asarray(trace), "iterations": it}


def ciaar_inputs(Y, nd, na):
    """(Z, diag_X, index_X, ec_X) of a t0 = 0 panel, demeaned as fit_ciaar does."""
    levels = Y.values - Y.values.mean(axis=0)
    d = np.diff(Y.values, axis=0)
    d = d - d.mean(axis=0)
    first, T = max(nd, na) + 1, Y.T
    lags = [d[first - 1 - j: T - 1 - j] for j in range(1, max(nd, na) + 1)]
    return d[first - 1:], lags[:nd], lags[:na], levels[first - 1: T - 1]


def row_level_simulate(params, eps):
    """Structural-form path over every row of eps from zero pre-sample values.

    IAAR params run in levels, Y_t = sum_j d_j * Y_{t-j}
    + sum_j alpha_j omega' Y_{t-j} + e_t. CIAAR params run in differences
    with the same diagonal and index terms on dY plus
    alpha0 gamma' omega' Y_{t-1}, cumulated into the returned levels.
    """
    ec = isinstance(params, CIAARParams)
    T, n = eps.shape
    X = np.zeros((T, n))            # levels (IAAR) or differences (CIAAR)
    Y = np.zeros((T, n))
    for t in range(T):
        acc = eps[t].copy()
        for j, d in enumerate(params.ds, start=1):
            if t >= j:
                acc += d * X[t - j]
        for j, a in enumerate(params.alphas, start=1):
            if t >= j:
                acc += a @ (params.omega.T @ X[t - j])
        if ec and t >= 1:
            acc += params.alpha0 @ (params.gamma.T @ (params.omega.T @ Y[t - 1]))
        X[t] = acc
        Y[t] = acc + (Y[t - 1] if t else 0.0)
    return Y if ec else X
