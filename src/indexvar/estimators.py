"""Switching-algorithm maximum-likelihood estimation for index-structured VARs.

Every fitter alternates closed-form conditional maximizations (OLS steps, and
a reduced-rank eigenproblem when a cointegration rank is estimated), so the
Gaussian log-likelihood is non-decreasing across sweeps. All of them run one
gram-based engine. The loading-weight update rewrites the model with the Vec
operator, Vec(ABC) = (C' kron A)Vec(B), and solves the normal equations of
the resulting sigma^-1-weighted regression for (delta, Vec(omega')), which
only need the n x n cross-products of the data. The explicit row-level
Vec/Kronecker design, with its binary n^2 x n diagonal selection matrix, is
kept in tests/rowlevel.py as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VECMParams,
    VHARIParams,
)
from .tscore import (
    Panel,
    SingularDesignError,
    autocov,
    fix_signs,
    gaussian_loglik,
    har_aggregates,
    ols,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "fit_mai",
    "fit_vhari",
    "fit_iaar",
    "fit_ciaar",
    "fit_vecim",
    "johansen_rrr",
    "init_ciaar",
    "fit_drvar_omega",
    "fit_drvar_coeffs",
]


@dataclass
class FitOptions:
    """Switching-algorithm controls.

    tol is the relative log-likelihood convergence tolerance; ridge adds an
    l2 penalty to the normal equations of both SA steps; normalize
    orthonormalizes omega by QR each sweep (absorbed into the loadings, so
    fitted values are unchanged).
    """

    max_iter: int = 500
    tol: float = 1e-8
    ridge: float = 0.0
    normalize: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


@dataclass
class FitResult:
    """Estimation output common to all model classes.

    t_start is the row index (in the input panel) of the first regression
    target, so residual row i corresponds to panel row t_start + i. means
    holds the offsets subtracted before fitting ("level", and "diff" for
    error-correction fits).
    """

    model: str
    params: object
    loglik_trace: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int
    t_start: int
    means: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def T_eff(self) -> int:
        return self.residuals.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.n_free_params()


# ---------------------------------------------------------------------------
# shared numerical pieces
# ---------------------------------------------------------------------------


def _regress(X: np.ndarray, Y: np.ndarray, ridge: float) -> np.ndarray:
    """Coefficients of Y on X; strict rank check when unpenalized."""
    if ridge > 0.0:
        G = X.T @ X + ridge * np.eye(X.shape[1])
        return np.linalg.solve(G, X.T @ Y)
    return ols(X, Y).coeffs


def _qr_normalize(omega: np.ndarray):
    """QR-orthonormalize omega with positive R diagonal; returns (Q, R)."""
    Q, R = np.linalg.qr(omega)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    return Q * signs, R * signs[:, None]


def _converged(trace: list, tol: float) -> bool:
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (1.0 + abs(trace[-2]))


def _check_sample(Te: int, k: int) -> None:
    if Te <= k:
        raise ValueError(f"effective sample {Te} too small for {k} regressors")


def _demean(values: np.ndarray, t0: int, demean: bool):
    if not demean:
        return values, np.zeros(values.shape[1])
    mu = values[t0:].mean(axis=0)
    return values - mu, mu


# ---------------------------------------------------------------------------
# generalized switching engine (diagonal + index + error-correction channels)
# ---------------------------------------------------------------------------
#
# Every conditional-maximization step only touches the data through the n x n
# cross-products of the data matrices, so those are formed once per fit and
# no sweep depends on the sample length. Each step is assembled by a few
# batched products over the stacked gram tensor: step 1 and step 3 cost
# O((C n)^2 C q) for C vec channels, and step 2 is dominated by the Cholesky
# of its (nd n + n q)-square normal equations, O(n^3 (nd + q)^3) per sweep.
# Structurally rank-deficient step-2 systems get the minimum-norm solution
# from the eigenvalues of the same gram. The stacked row-level design never
# gets built here; it lives in tests/rowlevel.py as the independent reference
# construction.


class _Grams:
    """Cross-products X_a' X_b of the target, diagonal, EC, and index data.

    G[a, b] = X_a' X_b with the blocks ordered target, diagonal lags, then
    the vec channels (the EC block when present, then the index lags).
    Gcc lays the vec-channel grams out as one (C n) x (C n) matrix.
    """

    def __init__(self, Z, diag_X, ec_X, index_X):
        mats = [Z] + list(diag_X) + ([ec_X] if ec_X is not None else []) + list(index_X)
        k, n = len(mats), Z.shape[1]
        X = np.hstack(mats)
        XtX = X.T @ X
        self.n, self.nd = n, len(diag_X)
        self.G = XtX.reshape(k, n, k, n).transpose(0, 2, 1, 3).copy()
        self.Gcc = XtX[(1 + self.nd) * n:, (1 + self.nd) * n:].copy()


def _target_grams(g: _Grams, ds: list):
    """U'U and X_a'U for U = Z - sum_j X_j diag(d_j), for every data block a."""
    nd = g.nd
    D = np.asarray(ds).reshape(nd, g.n)
    GU = g.G[:, 0] - np.einsum("ajkl,jl->akl", g.G[:, 1: 1 + nd], D)   # X_a' U
    UU = GU[0] - np.einsum("jk,jkl->kl", D, GU[1: 1 + nd])
    return UU, GU


def _sa_engine(
    Z: np.ndarray,
    diag_X: list,
    index_X: list,
    ec_X: np.ndarray | None,
    q: int,
    r: int,
    omega0: np.ndarray,
    gamma0: np.ndarray | None,
    d0: list,
    opts: FitOptions,
) -> dict:
    """Run the switching algorithm on prepared data matrices.

    Z (Te x n) are the targets; diag_X feed the diagonal matrices D_j,
    index_X the loadings alpha_j omega', and ec_X (levels) the
    error-correction term alpha0 gamma' omega'. gamma is fixed to I_q when
    r == q and estimated by the reduced-rank eigenstep when 0 < r < q.
    diagnostics["stop"] says why the sweeps ended: "tol" (converged),
    "max_iter" (the sweep cap, not converged), or "no_free_params" (nothing
    beyond the loadings to estimate, so one OLS step is the fit).
    """
    Te, n = Z.shape
    nd, na = len(diag_X), len(index_X)
    _check_sample(Te, r + na * q + nd)
    if r == 0:
        ec_X = None  # the error-correction data only enters through alpha0
    omega = np.asarray(omega0, float).reshape(n, q)
    ds = [np.asarray(d, float).copy() for d in d0]
    if len(ds) != nd:
        raise ValueError(f"{len(ds)} diagonal starting values for {nd} lags")
    gamma_fixed = r == q
    gamma = np.eye(q)[:, :r] if gamma_fixed else (
        np.asarray(gamma0, float).reshape(q, r) if r else np.zeros((q, 0))
    )
    estimate_omega = q > 0 and (na > 0 or r > 0)
    grams = _Grams(Z, diag_X, ec_X, index_X)
    diagnostics: dict = {}
    trace: list[float] = []
    alpha0 = np.zeros((n, r))
    alphas = [np.zeros((n, q)) for _ in range(na)]
    UU, GU = _target_grams(grams, ds)                  # refreshed whenever D moves

    for it in range(1, opts.max_iter + 1):
        # Step 1: OLS for (alpha0, alphas) and sigma given (gamma, omega, D)
        weights = []                                   # regressor = X_c @ W_c
        if r > 0:
            weights.append(omega @ gamma)
        weights.extend([omega] * na)
        if weights:
            M, v = _normal_blocks(grams, weights, GU)
            _check_step_rank(M)
            solve_M = M + opts.ridge * np.eye(M.shape[0]) if opts.ridge > 0.0 else M
            B = np.linalg.solve(solve_M, v)
            sigma = (UU - v.T @ B - B.T @ v + B.T @ M @ B) / Te
            sigma = (sigma + sigma.T) / 2.0
            pos = 0
            if r > 0:
                alpha0 = B[:r].T
                pos = r
            alphas = [B[pos + j * q: pos + (j + 1) * q].T for j in range(na)]
        else:
            sigma = (UU + UU.T) / (2.0 * Te)
        trace.append(gaussian_loglik(sigma, Te))
        if _converged(trace, opts.tol):
            diagnostics["stop"] = "tol"
        elif nd == 0 and not estimate_omega:
            diagnostics["stop"] = "no_free_params"
        elif it == opts.max_iter:
            diagnostics["stop"] = "max_iter"
        if "stop" in diagnostics:
            break

        # Step 2: weighted OLS for (Vec(omega'), delta) given the rest
        sinv = _robust_inverse(sigma, diagnostics)
        loadings = []                                  # omega-channel loadings a_c
        if r > 0:
            loadings.append(alpha0 @ gamma.T)
        loadings.extend(alphas)
        theta = _step2_solve(grams, sinv, loadings, nd, q, estimate_omega, opts)
        if nd:
            ds = [theta[j * n: (j + 1) * n] for j in range(nd)]
            UU, GU = _target_grams(grams, ds)
        if estimate_omega:
            omega = theta[nd * n:].reshape(n, q)
            if opts.normalize:
                omega, R = _qr_normalize(omega)
                alphas = [a @ R.T for a in alphas]
                if r > 0 and not gamma_fixed:
                    gamma = R @ gamma

        # Step 3: reduced-rank eigenstep for gamma given (omega, D)
        if 0 < r < q:
            gamma = _rrr_gamma(grams, omega, UU, GU, r, Te)

    # one dense pass for the residuals at the final parameters
    resid = Z.copy()
    for d, X in zip(ds, diag_X):
        resid -= X * d
    if r > 0:
        resid -= (ec_X @ (omega @ gamma)) @ alpha0.T
    for X, a in zip(index_X, alphas):
        resid -= (X @ omega) @ a.T
    sigma = resid.T @ resid / Te
    return {
        "omega": omega,
        "gamma": gamma,
        "alpha0": alpha0,
        "alphas": alphas,
        "ds": ds,
        "sigma": sigma,
        "residuals": resid,
        "trace": np.asarray(trace),
        "converged": diagnostics["stop"] != "max_iter",
        "iterations": it,
        "diagnostics": diagnostics,
    }


def _check_step_rank(M: np.ndarray) -> None:
    w = np.linalg.eigvalsh(M)
    if w[0] < 1e-20 * max(w[-1], 1e-300):
        raise SingularDesignError(
            "switching-step design is rank deficient "
            f"(gram eigenvalue ratio {w[0] / max(w[-1], 1e-300):.3e} below 1e-20)"
        )


def _normal_blocks(grams: _Grams, weights: list, GU: np.ndarray):
    """X1'X1 and X1'U for X1 = [X_c @ W_c], one weight per vec channel.

    The weights form the block-diagonal Wb, so X1'X1 = Wb' Gcc Wb and
    X1'U = Wb' [X_c'U] in two products over the stacked channel grams.
    """
    n = grams.n
    Wb = np.zeros((len(weights) * n, sum(w.shape[1] for w in weights)))
    col = 0
    for c, w in enumerate(weights):
        Wb[c * n: (c + 1) * n, col: col + w.shape[1]] = w
        col += w.shape[1]
    return Wb.T @ grams.Gcc @ Wb, Wb.T @ GU[1 + grams.nd:].reshape(-1, n)


def _robust_inverse(sigma: np.ndarray, diagnostics: dict) -> np.ndarray:
    """Inverse of sigma with small-eigenvalue ridge repair."""
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(sigma))
        return Linv.T @ Linv
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(sigma)
        floor = 1e-12 * max(w[-1], 0.0)
        if floor <= 0.0:
            raise np.linalg.LinAlgError("covariance has no positive eigenvalues") from None
        diagnostics["ridge_repair"] = True
        w = np.maximum(w, floor)
        return (V / w) @ V.T


def _step2_solve(grams, sinv, loadings, nd, q, estimate_omega, opts):
    """Solve the stacked Vec regression through its normal equations.

    For theta = (delta_1..delta_nd, Vec(omega')) the blocks are
    G_jl * sinv (Hadamard) between diagonals, sum_ab G_ab kron W_ab with
    W_ab = a_a' sinv a_b for omega, and the matching cross terms, each formed
    in one batched product over the gram tensor. When the gram system is not
    positive definite (structurally unidentified loading directions), returns
    its minimum-norm solution: the directions whose eigenvalue falls below
    1e-12 of the largest are dropped.
    """
    n, G = grams.n, grams.G
    ow = nd * n                                     # start of the Vec(omega') block
    k2 = ow + (n * q if estimate_omega else 0)
    dd, cc = slice(1, 1 + nd), slice(1 + nd, None)
    G2 = np.empty((k2, k2))
    rhs = np.empty(k2)
    G2[:ow, :ow] = (G[dd, dd] * sinv).transpose(0, 2, 1, 3).reshape(ow, ow)
    rhs[:ow] = np.einsum("jik,ki->ji", G[dd, 0], sinv).ravel()
    if estimate_omega:
        A = np.asarray(loadings)                    # (C, n, q) channel loadings a_c
        SA = sinv @ A
        W = np.einsum("aiq,bir->abqr", A, SA)
        G2[ow:, ow:] = np.einsum("abij,abkl->ikjl", G[cc, cc], W).reshape(n * q, n * q)
        G2[:ow, ow:] = np.einsum("jckK,ckm->jkKm", G[dd, cc], SA).reshape(ow, n * q)
        G2[ow:, :ow] = G2[:ow, ow:].T
        rhs[ow:] = np.einsum("aik,akq->iq", G[cc, 0], SA).ravel()
    if opts.ridge > 0.0:
        G2 += opts.ridge * np.eye(k2)
    try:
        L = np.linalg.cholesky(G2)
        return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(G2)
    keep = w > 1e-12 * w[-1]
    return V[:, keep] @ ((V[:, keep].T @ rhs) / w[keep])


def _rrr_gamma(grams: _Grams, omega, UU, GU, r, Te) -> np.ndarray:
    """Eigenvectors of S11^-1 S10 S00^-1 S01 for the r largest eigenvalues.

    R0 and R1 are the residuals of the diagonal-adjusted targets and of the
    lagged index levels on the lagged index differences; all moments come
    from the cross grams and the target grams (UU, GU) at the current D.
    With every vec channel weighted by omega, the step-1 normal blocks hold
    E'E, E'U (E = ec_X omega, the first channel) and F'F, F'U, F'E (F the
    weighted index lags).
    """
    n, q = omega.shape
    M, v = _normal_blocks(grams, [omega] * (grams.Gcc.shape[0] // n), GU)
    FF, FE, FU = M[q:, q:], M[q:, :q], v[q:]
    sol = np.linalg.lstsq(FF, np.hstack([FU, FE]), rcond=None)[0]
    sol_U, sol_E = sol[:, :n], sol[:, n:]
    S00 = (UU - FU.T @ sol_U) / Te
    S01 = (v[:q] - FE.T @ sol_U).T / Te
    S11 = (M[:q, :q] - FE.T @ sol_E) / Te
    S00 = (S00 + S00.T) / 2.0
    S11 = (S11 + S11.T) / 2.0
    vals, vecs = _solve_rrr_eig(S00, S01, S11)
    return fix_signs(vecs[:, :r])


def _solve_rrr_eig(S00, S01, S11):
    """Sorted solutions of the generalized eigenproblem S10 S00^-1 S01 v = l S11 v.

    Solved through the Cholesky factor of S11 so the eigenvalues are the
    squared canonical correlations, all in [0, 1).
    """
    L = np.linalg.cholesky(S11)
    Linv = np.linalg.inv(L)
    mid = np.linalg.solve(S00, S01)
    core = Linv @ (S01.T @ mid) @ Linv.T
    vals, W = np.linalg.eigh((core + core.T) / 2.0)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = Linv.T @ W[:, order]
    return vals, vecs


# ---------------------------------------------------------------------------
# MAI
# ---------------------------------------------------------------------------


def fit_mai(
    Y: Panel,
    p: int,
    q: int,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
    omega0: np.ndarray | None = None,
) -> FitResult:
    """Switching-algorithm ML fit of the multivariate autoregressive index model.

    Runs the gram engine with the p level lags as index channels:
    alternates OLS for the loadings given omega with the Vec-rewritten
    normal equations for omega given the loadings. q = n reproduces the
    unrestricted VAR. The starting omega spans the leading right-singular
    subspace of the stacked OLS VAR coefficients unless supplied.
    """
    opts = opts or FitOptions()
    n = Y.n
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}")
    if p < 1:
        raise ValueError("need p >= 1")
    values, mu = _demean(Y.values, Y.t0, demean)
    first = max(Y.t0 + p, t_start if t_start is not None else 0)
    if first + 1 >= Y.T:
        raise ValueError("sample too short for the requested lag order")
    Z = values[first:]
    lags = [values[first - j: Y.T - j] for j in range(1, p + 1)]
    _check_sample(Z.shape[0], n * p)  # the initialization regresses on all n p lags

    if omega0 is None:
        C = _regress(np.hstack(lags), Z, opts.ridge)
        stack = np.vstack([C[(j - 1) * n: j * n].T for j in range(1, p + 1)])
        omega0 = _leading_right_singular(stack, q)

    out = _sa_engine(Z, [], lags, None, q, 0, omega0, None, [], opts)
    params = MAIParams(out["omega"], out["alphas"], out["sigma"])
    return FitResult(
        "mai", params, out["trace"], out["residuals"], out["converged"],
        out["iterations"], first, means={"level": mu}, diagnostics=out["diagnostics"],
    )


def _leading_right_singular(stack: np.ndarray, q: int) -> np.ndarray:
    """First q right-singular vectors, selected by singular value."""
    _, s, Vh = np.linalg.svd(stack, full_matrices=False)
    order = np.argsort(s)[::-1]
    return fix_signs(Vh.T[:, order[:q]])


# ---------------------------------------------------------------------------
# VHARI
# ---------------------------------------------------------------------------


def fit_vhari(
    Yd: Panel,
    q: int,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
) -> FitResult:
    """Switching-algorithm fit of the vector heterogeneous autoregressive index model.

    The daily panel is demeaned once, the weekly and monthly aggregates are
    rebuilt from the demeaned dailies (so the fitted indexes inherit the
    5/22-day cascade identities exactly), and the SA runs on the three
    aggregate regressors.
    """
    opts = opts or FitOptions()
    n = Yd.n
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}")
    if Yd.T < 22 + n + 2:
        raise ValueError("sample too short for the 22-day cascade")
    values, mu = _demean(Yd.values, Yd.t0, demean)
    dm = Panel(values, list(Yd.names), Yd.t0)
    Yw, Ym = har_aggregates(dm)
    first = max(Yw.t0 + 1, t_start if t_start is not None else 0)
    Z = values[first:]
    Xd = values[first - 1: Yd.T - 1]
    Xw = Yw.values[first - 1: Yd.T - 1]
    Xm = Ym.values[first - 1: Yd.T - 1]
    _check_sample(Z.shape[0], 3 * n)

    X = np.hstack([Xd, Xw, Xm])
    C = _regress(X, Z, opts.ridge)
    stack = np.vstack([C[j * n: (j + 1) * n].T for j in range(3)])
    omega0 = _leading_right_singular(stack, q)

    out = _sa_engine(Z, [], [Xd, Xw, Xm], None, q, 0, omega0, None, [], opts)
    params = VHARIParams(out["omega"], *out["alphas"], out["sigma"])
    return FitResult(
        "vhari", params, out["trace"], out["residuals"], out["converged"],
        out["iterations"], first, means={"level": mu}, diagnostics=out["diagnostics"],
    )


# ---------------------------------------------------------------------------
# IAAR
# ---------------------------------------------------------------------------


def fit_iaar(
    Y: Panel,
    p: int,
    s: int,
    q: int,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
) -> FitResult:
    """Switching-algorithm fit of the index-augmented autoregression.

    Runs the same machinery as the cointegrated model with no
    error-correction term, on levels. q = 0 drops the index channel and the
    system decouples into n own-lag autoregressions, estimated by
    equation-wise OLS.
    """
    opts = opts or FitOptions()
    n = Y.n
    if not 0 <= q < n:
        raise ValueError(f"need 0 <= q < n, got q={q}")
    if p < 1 or s < 0 or s > p:
        raise ValueError(f"need 1 <= s <= p (got p={p}, s={s})")
    values, mu = _demean(Y.values, Y.t0, demean)
    m = max(p, s)
    first = max(Y.t0 + m, t_start if t_start is not None else 0)
    Z = values[first:]
    lag = lambda j: values[first - j: Y.T - j]
    diag_X = [lag(j) for j in range(1, p + 1)]
    index_X = [lag(j) for j in range(1, s + 1)]
    _check_sample(Z.shape[0], n * m)

    if q == 0:
        return _fit_diagonal_var(Y, Z, diag_X, first, mu)

    omega0, d0 = _init_levels_index(values, first, p, s, q, opts)
    out = _sa_engine(Z, diag_X, index_X, None, q, 0, omega0, None, d0, opts)
    params = IAARParams(out["ds"], out["alphas"], out["omega"], out["sigma"])
    return FitResult(
        "iaar", params, out["trace"], out["residuals"], out["converged"],
        out["iterations"], first, means={"level": mu}, diagnostics=out["diagnostics"],
    )


def _fit_diagonal_var(Y: Panel, Z, diag_X, first, mu) -> FitResult:
    """Equation-wise OLS for the q = 0 case: n independent own-lag ARs."""
    n = Y.n
    Te = Z.shape[0]
    ds = [np.zeros(n) for _ in diag_X]
    resid = np.empty_like(Z)
    for i in range(n):
        Xi = np.column_stack([X[:, i] for X in diag_X])
        coef = ols(Xi, Z[:, i: i + 1]).coeffs.ravel()
        for j, c in enumerate(coef):
            ds[j][i] = c
        resid[:, i] = Z[:, i] - Xi @ coef
    sigma = resid.T @ resid / Te
    ll = gaussian_loglik(sigma, Te)
    params = IAARParams(ds, [], np.zeros((n, 0)), sigma)
    return FitResult(
        "iaar", params, np.asarray([ll]), resid, True, 1, first, means={"level": mu},
    )


def _init_levels_index(values, first, p, s, q, opts):
    """Levels analogue of the SVD initialization: strip diagonals of the
    unrestricted VAR estimates, take leading right-singular vectors, and
    start the diagonals at the residual diagonal of the rank-q truncation."""
    n = values.shape[1]
    m = max(p, s)
    T = values.shape[0]
    Z = values[first:]
    X = np.hstack([values[first - j: T - j] for j in range(1, m + 1)])
    C = _regress(X, Z, opts.ridge)
    phis = [C[(j - 1) * n: j * n].T for j in range(1, m + 1)]
    stripped = [phi - np.diag(np.diag(phi)) for phi in phis]
    stack = np.vstack(stripped)
    omega0, stack_bar = _svd_truncate(stack, q)
    d0 = [np.diag(phis[j]) - np.diag(stack_bar[j * n: (j + 1) * n]) for j in range(p)]
    return omega0, d0


def _svd_truncate(stack: np.ndarray, q: int):
    """Leading right-singular vectors and the rank-q reconstruction."""
    U, sv, Vh = np.linalg.svd(stack, full_matrices=False)
    order = np.argsort(sv)[::-1]
    keep = order[:q]
    omega0 = fix_signs(Vh.T[:, keep])
    bar = (U[:, keep] * sv[keep]) @ Vh[keep]
    return omega0, bar


# ---------------------------------------------------------------------------
# Johansen reduced-rank regression
# ---------------------------------------------------------------------------


def johansen_rrr(
    Y: Panel,
    p: int,
    r: int,
    demean: bool = True,
    t_start: int | None = None,
) -> FitResult:
    """Johansen's reduced-rank regression for the VECM with p - 1 lagged differences.

    Concentrates out the short-run terms, solves the canonical-correlation
    eigenproblem between the differences and the lagged levels, takes the
    eigenvectors of the r largest eigenvalues as beta, and recovers the
    remaining coefficients by OLS given beta. The eigenvalues are stored in
    diagnostics["eigenvalues"].
    """
    n = Y.n
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}")
    if p < 1:
        raise ValueError("need p >= 1")
    levels, mu_level = _demean(Y.values, Y.t0, demean)
    dvalues = np.diff(Y.values, axis=0)
    dvalues, mu_diff = _demean(dvalues, max(Y.t0 - 1, 0), demean)
    first = max(Y.t0 + p, t_start if t_start is not None else 0)
    T = Y.T
    dY = dvalues[first - 1:]                      # dY_t, t = first..T-1
    Te = dY.shape[0]
    _check_sample(Te, (p - 1) * n + r)
    lagged = [dvalues[first - 1 - j: T - 1 - j] for j in range(1, p)]
    lev = levels[first - 1: T - 1]                # Y_{t-1}

    if lagged:
        W = np.hstack(lagged)
        R0 = dY - W @ _regress(W, dY, 0.0)
        R1 = lev - W @ _regress(W, lev, 0.0)
    else:
        R0, R1 = dY, lev
    S00 = R0.T @ R0 / Te
    S01 = R0.T @ R1 / Te
    S11 = R1.T @ R1 / Te
    vals, vecs = _solve_rrr_eig(S00, S01, S11)
    beta = fix_signs(vecs[:, :r])

    regs = []
    if r > 0:
        regs.append(lev @ beta)
    regs.extend(lagged)
    if regs:
        X = np.hstack(regs)
        B = _regress(X, dY, 0.0)
        resid = dY - X @ B
        alpha0 = B[:r].T
        pis = [B[r + (j - 1) * n: r + j * n].T for j in range(1, p)]
    else:
        resid = dY
        alpha0 = np.zeros((n, 0))
        pis = []
    sigma = resid.T @ resid / Te
    ll = gaussian_loglik(sigma, Te)
    params = VECMParams(alpha0, beta if r else np.zeros((n, 0)), pis, sigma)
    return FitResult(
        "vecm", params, np.asarray([ll]), resid, True, 1, first,
        means={"level": mu_level, "diff": mu_diff},
        diagnostics={"eigenvalues": vals},
    )


# ---------------------------------------------------------------------------
# CIAAR initialization (Johansen + SVD starting values)
# ---------------------------------------------------------------------------


def init_ciaar(
    Y: Panel,
    p: int,
    s: int,
    q: int,
    r: int,
    demean: bool = True,
):
    """Starting values (gamma0, omega0, D0) for the cointegrated index fit.

    Johansen estimates with m = max(p, s) - 1 lagged differences are
    stripped of their diagonals, stacked together with the transposed
    error-correction coefficient, and the first q right-singular vectors
    give omega0; the rank-q truncation supplies the diagonal starting
    values, and gamma0 regresses beta on omega0.
    """
    n = Y.n
    nd = max(p - 1, 0)
    m = max(p, s, 1) - 1
    jo = johansen_rrr(Y, m + 1, r, demean=demean)
    pis = jo.params.pis
    beta = jo.params.beta
    alpha0 = jo.params.alpha0

    # strip the diagonal only where the model grants it own-lag freedom; for
    # the remaining lags the diagonal belongs to the index signal
    blocks = [
        pi - np.diag(np.diag(pi)) if j < nd else pi for j, pi in enumerate(pis)
    ]
    if r > 0:
        blocks.append(alpha0 @ beta.T)
    if not blocks or q == 0:
        omega0 = np.eye(n)[:, :q]
        d0 = [np.diag(pis[j]) if j < len(pis) else np.zeros(n) for j in range(nd)]
        return np.zeros((q, r)), omega0, d0
    stack = np.vstack(blocks)
    omega0, bar = _svd_truncate(stack, q)
    d0 = [
        np.diag(pis[j]) - np.diag(bar[j * n: (j + 1) * n])
        for j in range(nd)
    ]
    gamma0 = np.linalg.lstsq(omega0, beta, rcond=None)[0] if r > 0 else np.zeros((q, 0))
    return gamma0, omega0, d0


# ---------------------------------------------------------------------------
# CIAAR
# ---------------------------------------------------------------------------


def fit_ciaar(
    Y: Panel,
    p: int,
    s: int,
    q: int,
    r: int,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
    init: tuple | None = None,
) -> FitResult:
    """Switching-algorithm ML fit of the cointegrated index-augmented model.

    Y holds I(1) levels. The model carries p - 1 diagonal difference lags,
    s - 1 index difference lags, and (for r >= 1) the error-correction term
    alpha0 gamma' omega' Y_{t-1}; p = 0 drops the diagonal channel entirely
    (the vector error-correction index model), and r = 0 drops the
    error-correction term (an index-augmented model in differences). gamma
    is fixed to the identity when r = q; for 0 < r < q it is re-estimated
    each sweep from the reduced-rank eigenproblem. init overrides the
    Johansen/SVD starting values with (gamma0, omega0, D0).
    """
    opts = opts or FitOptions()
    n = Y.n
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}")
    if not 0 <= r <= q:
        raise ValueError(f"need 0 <= r <= q, got r={r}")
    if p >= 2 and s > p:
        raise ValueError(f"need s <= p when the diagonal channel is present (p={p}, s={s})")
    nd, na = max(p - 1, 0), max(s - 1, 0)

    levels, mu_level = _demean(Y.values, Y.t0, demean)
    dvalues = np.diff(Y.values, axis=0)
    dvalues, mu_diff = _demean(dvalues, max(Y.t0 - 1, 0), demean)
    first = max(Y.t0 + max(nd, na) + 1, t_start if t_start is not None else 0)
    T = Y.T
    Z = dvalues[first - 1:]
    diag_X = [dvalues[first - 1 - j: T - 1 - j] for j in range(1, nd + 1)]
    index_X = [dvalues[first - 1 - j: T - 1 - j] for j in range(1, na + 1)]
    ec_X = levels[first - 1: T - 1]

    if init is None:
        init = init_ciaar(Y, p, s, q, r, demean=demean)
    gamma0, omega0, d0 = init
    out = _sa_engine(Z, diag_X, index_X, ec_X, q, r, omega0, gamma0, d0, opts)

    gamma, alpha0 = out["gamma"], out["alpha0"]
    if 0 < r < q:
        gamma, alpha0 = _normalize_gamma(gamma, alpha0, out["diagnostics"])
    params = CIAARParams(out["ds"], alpha0, gamma, out["omega"], out["alphas"], out["sigma"])
    return FitResult(
        "ciaar", params, out["trace"], out["residuals"], out["converged"],
        out["iterations"], first, means={"level": mu_level, "diff": mu_diff},
        diagnostics=out["diagnostics"],
    )


def _normalize_gamma(gamma: np.ndarray, alpha0: np.ndarray, diagnostics: dict):
    """Scale the leading r x r block of gamma to the identity (reporting only)."""
    r = gamma.shape[1]
    head = gamma[:r, :]
    sv = np.linalg.svd(head, compute_uv=False)
    if sv.size == 0 or sv[-1] < 1e-10 * max(sv[0], 1e-300):
        diagnostics["gamma_unnormalized"] = True
        return gamma, alpha0
    return gamma @ np.linalg.inv(head), alpha0 @ head.T


def fit_vecim(
    Y: Panel,
    p: int,
    q: int,
    r: int,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
) -> FitResult:
    """Fit of the vector error-correction index model.

    dY_t = alpha0 gamma' f_{t-1} + sum_{j<p} alpha_j df_{t-j} + e_t with
    f = omega'Y. This is fit_ciaar with no diagonal channel and s = p, run
    from the same init_ciaar start and labelled "vecim". The row-level
    Vec/Kronecker loop in tests/rowlevel.py is the independent check of it.
    """
    n = Y.n
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}")
    if not 0 <= r <= q:
        raise ValueError(f"need 0 <= r <= q, got r={r}")
    if p < 1:
        raise ValueError("need p >= 1")
    fit = fit_ciaar(Y, 0, p, q, r, opts=opts, demean=demean, t_start=t_start)
    fit.model = "vecim"
    return fit


# ---------------------------------------------------------------------------
# DRVAR
# ---------------------------------------------------------------------------


def fit_drvar_omega(Y: Panel, p0: int, q: int):
    """Lagged-autocovariance estimator of the index space.

    Returns the orthonormal eigenvectors of the q largest eigenvalues of
    M = sum_{j=1..p0} Sigma_y(j) Sigma_y(j)', together with all eigenvalues
    for scree inspection.
    """
    n = Y.n
    if p0 < 1:
        raise ValueError("need p0 >= 1")
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}")
    if p0 >= Y.T - 1:
        raise ValueError(f"p0={p0} too large for sample length {Y.T}")
    usable = Panel(Y.usable(), list(Y.names))
    M = np.zeros((n, n))
    for j in range(1, p0 + 1):
        C = autocov(usable, j)
        M += C @ C.T
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)[::-1]
    omega = fix_signs(vecs[:, order[:q]])
    return omega, vals[order]


def fit_drvar_coeffs(
    Y: Panel,
    omega: np.ndarray,
    p: int,
    method: str = "ols",
    demean: bool = True,
) -> FitResult:
    """OLS or feasible one-step GLS for the small-scale VAR coefficients.

    OLS regresses Y_t on the lagged indexes and projects the coefficient
    matrices onto the form omega phi_j; GLS re-solves the projected system
    weighting by the inverse residual covariance of a first OLS pass,
    falling back to OLS (with a diagnostics flag) when that covariance is
    singular.
    """
    if method not in ("ols", "gls"):
        raise ValueError(f"method must be 'ols' or 'gls', got {method!r}")
    omega = np.atleast_2d(np.asarray(omega, float))
    n, q = omega.shape
    if not np.allclose(omega.T @ omega, np.eye(q), atol=1e-8):
        raise ValueError("omega must have orthonormal columns")
    if p < 1:
        raise ValueError("need p >= 1")
    values, mu = _demean(Y.values, Y.t0, demean)
    first = Y.t0 + p
    Z = values[first:]
    f = values @ omega
    Xf = np.hstack([f[first - j: Y.T - j] for j in range(1, p + 1)])
    Te = Z.shape[0]
    _check_sample(Te, p * q)

    B = ols(Xf, Z).coeffs                        # (p q) x n, unrestricted loadings
    phis = [omega.T @ B[j * q: (j + 1) * q].T for j in range(p)]
    diagnostics: dict = {}
    if method == "gls":
        resid0 = Z - Xf @ np.vstack([(omega @ ph).T for ph in phis])
        sigma0 = resid0.T @ resid0 / Te
        try:
            W = np.linalg.inv(sigma0)
            G = omega.T @ W @ omega
            Syx = Z.T @ Xf / Te
            Sxx = Xf.T @ Xf / Te
            phi_all = np.linalg.solve(G, omega.T @ W @ Syx) @ np.linalg.inv(Sxx)
            phis = [phi_all[:, j * q: (j + 1) * q] for j in range(p)]
        except np.linalg.LinAlgError:
            diagnostics["gls_fallback"] = True
    resid = Z - Xf @ np.vstack([(omega @ ph).T for ph in phis])
    sigma = resid.T @ resid / Te
    ll = gaussian_loglik(sigma, Te)
    params = DRVARParams(omega, phis, sigma)
    return FitResult(
        "drvar", params, np.asarray([ll]), resid, True, 1, first,
        means={"level": mu}, diagnostics=diagnostics,
    )
