"""Row-level Vec/Kronecker reference for the switching algorithm.

The library solves step 2 through gram normal equations and never forms the
stacked design. This module builds that design row by row, (X_t' kron A) for
Vec(omega') and (X_t' kron S) M for the diagonals, and runs the switching
loop on it, so the tests can check the gram engine against an independent
construction; it normalizes omega by its own Householder QR
(householder_normalize) and stops by its own copy of the stop test
(converged), so it shares none of the engine's code. row_level_simulate
likewise iterates the structural form of the IAAR and CIAAR models term by
term, as an oracle for the simulators'
companion-form lag recursion, and step_recursion advances that recursion
one row per step, as an oracle for its blocked kernel and for every state
form's run (with the error-correction term in levels form, run in extended
precision, where the state form runs the stationary (x_t, beta'y_t));
levels_i1_classification is the levels-companion I(1) rule that the state
form's radius replaced; wold_convolution
filters shocks with the Wold sequence one lag at a time, as an oracle for the
recursive decomposition components. dense_johansen /
dense_ciaar_start run Johansen's reduced-rank regression and the CIAAR start
on the data matrices, by least squares after check_rank, and dense_ols_start
the MAI / VHARI / IAAR start, as oracles for the library's moment-based
solves, and diagonal_gls
the GLS solve of the diagonal VAR, as the oracle for its ML fit. loop_evaluate
scores forecast paths one step of one path at a time, as an oracle for
forecast.evaluate's single reduction, and loop_lognormal_garch draws the
log-normal GARCH shocks with their variance recursion one row per step, as
an oracle for simulate.draw_shocks' blocked recursion.
"""

import numpy as np

from indexvar.params import CIAARParams
from indexvar.tscore import check_rank, companion_matrix, fix_signs, gaussian_loglik


def householder_normalize(omega: np.ndarray):
    """(Q, R) of numpy's Householder QR of omega, R's diagonal made positive."""
    Q, R = np.linalg.qr(omega)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


def converged(trace: list, tol: float) -> bool:
    """The switching algorithm's stop test: the last two log-likelihoods differ by at most tol
    relative to one plus the magnitude of the earlier."""
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (1.0 + abs(trace[-2]))


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


def diagonal_gls(Z, diag_X, sigma):
    """GLS for the diagonal VAR z_t = sum_j diag(x_jt) d_j + e_t at sigma.

    Each row block (X_t' kron S) M, with S = sigma^-1/2, is the whitened
    design of one period; one lstsq on the stacked rows and the whitened
    targets S z_t gives (d_1, .., d_p) concatenated.
    """
    S = sym_inv_sqrt(sigma)
    design = np.hstack([vec_diag_block(X, S) for X in diag_X])
    return np.linalg.lstsq(design, (Z @ S).ravel(), rcond=None)[0]


def row_level_sa(Z, index_X, ec_X, omega0, gamma0, r, opts):
    """Switching algorithm on the explicit (Te n) x (n q) step-2 design.

    Targets Z load on index_X @ omega and, for r > 0, on the
    error-correction term ec_X @ omega @ gamma. With r = 0 and level lags
    as index_X this is the MAI fit; with differences it is the VECIM fit.
    Both steps are minimum-norm least squares.
    """
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
        if converged(trace, opts.tol) or it == opts.max_iter or not regs:
            break
        S = sym_inv_sqrt(sigma)
        X2 = sum(vec_omega_block(X, S @ a) for X, a in zip(index_X, alphas))
        if r:
            X2 = X2 + vec_omega_block(ec_X, S @ alpha0 @ gamma.T)
        omega = np.linalg.lstsq(X2, (Z @ S).ravel(), rcond=1e-10)[0].reshape(n, q)
        omega, R = householder_normalize(omega)
        alphas = [a @ R.T for a in alphas]
        gamma = R @ gamma if 0 < r < q else gamma
        if 0 < r < q:
            ecf = ec_X @ omega
            R0, R1 = Z, ecf
            if index_X:
                F = np.hstack([X @ omega for X in index_X])
                R0 = Z - F @ np.linalg.lstsq(F, Z, rcond=None)[0]
                R1 = ecf - F @ np.linalg.lstsq(F, ecf, rcond=None)[0]
            _, vecs = rrr_eig(R0.T @ R0 / Te, R0.T @ R1 / Te, R1.T @ R1 / Te)
            gamma = fix_signs(vecs[:, :r])
    return {"omega": omega, "gamma": gamma, "alpha0": alpha0, "alphas": alphas,
            "sigma": sigma, "trace": np.asarray(trace), "iterations": it}


def ciaar_inputs(Y, nd, na):
    """(Z, diag_X, index_X, ec_X) of a panel, demeaned as fit_ciaar does."""
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


def step_recursion(phis, init, drive, ec=None, level=None):
    """tscore.var_recursion one row per step: x_t = sum_j Phi_j x_{t-j} + drive_t
    from the p pre-sample rows init; with the n x n matrix ec = alpha0 beta',
    x_t gains ec y_{t-1} and cumulates into y_t = y_{t-1} + x_t from
    y_{-1} = level, returning (x, y), which the error-correction state form
    (VECMParams(alpha0, beta, phis, sigma).state_form().run) gives.

    The error-correction form runs in np.longdouble (80-bit extended on
    x86-64, eps 1.1e-19) and returns float64: its levels-form rounding
    grows with |y| and |ec|, and in double it drifts past the kernel's near
    the stability boundary."""
    dtype = float if ec is None else np.longdouble
    drive = np.asarray(drive, dtype=dtype)
    T, n, row = drive.shape[0], drive.shape[1], drive.shape[1:]
    p = len(phis)
    stacked = np.hstack([*phis[::-1], np.zeros((n, 0))]).astype(dtype)   # [Phi_p ... Phi_1]
    buf = np.concatenate([np.reshape(init, (p,) + row).astype(dtype), drive])
    flat = buf.reshape((-1,) + row[1:])
    ys = None if ec is None else np.empty_like(drive)
    y = None if ec is None else np.asarray(level, dtype=dtype)
    ec = None if ec is None else np.asarray(ec, dtype=dtype)
    for t in range(T):
        x = buf[p + t]
        if p:
            x += stacked @ flat[t * n: (t + p) * n]
        if ec is not None:
            x += ec @ y
            y = np.add(y, x, out=ys[t])
    return buf[p:] if ec is None else (buf[p:].astype(float), ys.astype(float))


def levels_i1_classification(params) -> bool:
    """I(1) validity by the levels companion of params.var_coeffs(): every
    root within 1e-6 of 1 counts as a unit root, and the parameters pass when
    there are exactly n - r of them and every other root lies below
    1 - 1e-8 in modulus."""
    eigs = np.linalg.eigvals(companion_matrix(params.var_coeffs()))
    unit = np.abs(eigs - 1.0) < 1e-6
    return int(unit.sum()) == params.n - params.r and not np.any(np.abs(eigs[~unit]) >= 1.0 - 1e-8)


def wold_convolution(psis, shocks):
    """y_t = sum_j Psi_j shocks_{t-j} over j <= min(t, H), zero pre-sample shocks.

    With H >= T - 1 (psis from wold(fit, T - 1)) nothing is truncated.
    """
    T, H = shocks.shape[0], psis.shape[0] - 1
    out = np.zeros((T, psis.shape[1]))
    for j in range(min(H, T - 1) + 1):
        out[j:] += shocks[: T - j] @ psis[j].T
    return out


def lstsq(X, Y):
    """Least-squares coefficients of Y on X, after check_rank(X)."""
    check_rank(X)
    return np.linalg.lstsq(X, Y, rcond=None)[0]


def dense_ols_start(X, Z, nd, q):
    """The MAI / VHARI / IAAR start from one lstsq of Z on the lag blocks X:
    the truncation of dense_index_start with no error-correction term."""
    C = lstsq(np.hstack(X), Z)
    n = Z.shape[1]
    pis = [C[j * n: (j + 1) * n].T for j in range(len(X))]
    return dense_index_start(pis, np.zeros((n, 0)), np.zeros((n, 0)), nd, q)


def rrr_eig(S00, S01, S11):
    """The eigenvalues, descending, and eigenvectors v, scaled to v'S11 v = 1, of
    S11^-1 S10 S00^-1 S01: the reduced-rank regression's eigenproblem as one
    nonsymmetric np.linalg.eig."""
    vals, vecs = np.linalg.eig(np.linalg.solve(S11, S01.T @ np.linalg.solve(S00, S01)))
    order = np.argsort(vals.real)[::-1]
    vals, vecs = vals.real[order], vecs.real[:, order]
    return vals, vecs / np.sqrt(np.einsum("ij,ij->j", vecs, S11 @ vecs))


def dense_johansen(Y, p, r):
    """Johansen's reduced-rank regression on the data matrices (demeaned).

    R0 and R1 are the OLS residuals of dY_t and Y_{t-1} on the p - 1 lagged
    differences, S_ij = R_i'R_j / T, beta the r leading eigenvectors of
    rrr_eig, and alpha0 and the Pi_j come from one OLS of dY_t on
    [Y_{t-1} beta | lags].
    Returns (eigenvalues, beta, alpha0, [Pi_j], sigma).
    """
    levels = Y.values - Y.values.mean(axis=0)
    d = np.diff(Y.values, axis=0)
    d = d - d.mean(axis=0)
    n, T = Y.n, Y.T
    dY = d[p - 1:]
    lagged = [d[p - 1 - j: T - 1 - j] for j in range(1, p)]
    lev = levels[p - 1: T - 1]
    R0, R1 = dY, lev
    if lagged:
        W = np.hstack(lagged)
        R0 = dY - W @ lstsq(W, dY)
        R1 = lev - W @ lstsq(W, lev)
    Te = dY.shape[0]
    vals, vecs = rrr_eig(R0.T @ R0 / Te, R0.T @ R1 / Te, R1.T @ R1 / Te)
    beta = fix_signs(vecs[:, :r])
    regs = ([lev @ beta] if r else []) + lagged
    alpha0, pis, resid = np.zeros((n, r)), [], dY
    if regs:
        X = np.hstack(regs)
        B = lstsq(X, dY)
        resid = dY - X @ B
        alpha0 = B[:r].T
        pis = [B[r + j * n: r + (j + 1) * n].T for j in range(p - 1)]
    return vals, beta, alpha0, pis, resid.T @ resid / Te


def dense_ciaar_start(Y, p, s, q, r):
    """The CIAAR start from dense_johansen (dense_index_start)."""
    _, beta, alpha0, pis, _ = dense_johansen(Y, max(p, s, 1), r)
    return dense_index_start(pis, alpha0, beta, max(p - 1, 0), q)


def dense_index_start(pis, alpha0, beta, nd, q):
    """The index start (gamma0, omega0, D0) from VAR or VECM coefficients: the
    Pi_j, diagonal-stripped for the first nd lags, and alpha0 beta' stacked, a
    full SVD with singular values sorted here, and gamma0 by least squares of
    beta on omega0."""
    n, r = beta.shape
    blocks = [pi - np.diag(np.diag(pi)) if j < nd else pi for j, pi in enumerate(pis)]
    blocks += [alpha0 @ beta.T] if r else []
    if not blocks:
        return np.zeros((q, r)), np.eye(n)[:, :q], []
    U, sv, Vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    keep = np.argsort(sv)[::-1][:q]
    bar = (U[:, keep] * sv[keep]) @ Vh[keep]
    omega0 = fix_signs(Vh[keep].T)
    d0 = [np.diag(pis[j]) - np.diag(bar[j * n: (j + 1) * n]) for j in range(nd)]
    return np.linalg.lstsq(omega0, beta, rcond=None)[0], omega0, d0


def loop_evaluate(forecasts, actuals):
    """(msfe, counts) of forecast.evaluate, summed path by path and step by step."""
    if not forecasts:
        raise ValueError("no forecast paths supplied")
    n = actuals.n
    h_max = max(f.horizon for f in forecasts)
    sq = np.zeros((h_max, n))
    counts = np.zeros(h_max, dtype=int)
    for f in forecasts:
        if f.values.shape[1] != n:
            raise ValueError("forecast width does not match actuals")
        for k in range(f.horizon):
            t = f.origin + 1 + k
            if 0 <= t < actuals.T:
                sq[k] += (f.values[k] - actuals.values[t]) ** 2
                counts[k] += 1
    if counts.sum() == 0:
        raise ValueError("no forecast origin overlaps the actuals")
    msfe = np.full((h_max, n), np.nan)
    nz = counts > 0
    msfe[nz] = sq[nz] / counts[nz, None]
    return msfe, counts


def loop_lognormal_garch(sigma, length, seed):
    """simulate.draw_shocks(sigma, length, seed, "lognormal_garch") with the
    GARCH(1,1) variances h_t = (1 - a - b) + (a u_{t-1}^2 + b) h_{t-1} run one
    row per step from h_0 = 1."""
    rng = np.random.default_rng(seed)
    n = sigma.shape[0]
    L = np.linalg.cholesky(sigma)
    z = rng.standard_normal((length, n))
    u = (np.exp(z) - np.exp(0.5)) / np.sqrt(np.exp(2.0) - np.exp(1.0))
    a, b = 0.05, 0.90
    h = np.empty((length, n))
    h[0] = 1.0
    for t in range(1, length):
        h[t] = (1.0 - a - b) + a * u[t - 1] ** 2 * h[t - 1] + b * h[t - 1]
    return (u * np.sqrt(h)) @ L.T
