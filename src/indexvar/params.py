"""Parameter containers for the index-structured VAR family.

Each container stores the mean parameters and the innovation covariance of
one model class, knows its free mean-parameter count (excluding sigma), and
can expand itself into the coefficient matrices of the implied levels VAR,
which is what forecasts and Wold recursions consume. MAI, VHARI and DRVAR
also give their index form through index_form(): omega and loadings A_j with
every levels coefficient Phi_j = A_j omega', so the indexes f_t = omega'Y_t
follow the q-dimensional VAR with coefficients omega'A_j, whose q p companion
gives spectral_radius() and which the simulators iterate.
The error-correction classes also give their difference form through
ec_form(): the factors alpha0 and beta of the error-correction matrix
alpha0 beta' and the short-run lags, from which tscore.var_recursion builds
the stationary VAR of (dY_t, beta'Y_t) that the I(1) simulator, forecasts
and decompositions iterate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tscore import companion_matrix, companion_spectral_radius, orth_complement

__all__ = [
    "MAIParams",
    "VHARIParams",
    "IAARParams",
    "DRVARParams",
    "VECMParams",
    "CIAARParams",
]


def _check_pd(sigma: np.ndarray, what: str = "sigma") -> None:
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{what} must be square, got shape {sigma.shape}")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError(f"{what} must be symmetric")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} is not positive definite") from None


def _check_full_rank(mat: np.ndarray, what: str) -> None:
    if min(mat.shape) == 0:
        return
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise ValueError(f"{what} is not full rank")


class _IndexForm:
    """Levels coefficients and stationarity of a class whose every lag
    coefficient shares the right factor omega': Phi_j = A_j omega', with
    (omega, [A_1..A_p]) = self.index_form()."""

    def var_coeffs(self) -> list[np.ndarray]:
        omega, loadings = self.index_form()
        return [a @ omega.T for a in loadings]

    def spectral_radius(self) -> float:
        """Spectral radius of the q p companion of the index VAR's omega'A_j.

        Sylvester's identity det(I_n - sum_j A_j omega' z^j) =
        det(I_q - sum_j omega'A_j z^j) makes its nonzero roots those of the
        n p companion of var_coeffs().
        """
        omega, loadings = self.index_form()
        return companion_spectral_radius([omega.T @ a for a in loadings])


@dataclass
class MAIParams(_IndexForm):
    """Multivariate autoregressive index model: Y_t = sum_j alpha_j omega' Y_{t-j} + e_t."""

    omega: np.ndarray                 # n x q loading weights, full column rank
    alphas: list[np.ndarray]          # p matrices, n x q
    sigma: np.ndarray                 # n x n positive definite

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        self.alphas = [np.atleast_2d(np.asarray(a, float)) for a in self.alphas]
        self.sigma = np.asarray(self.sigma, float)
        n, q = self.omega.shape
        if q > n:
            raise ValueError(f"q={q} exceeds n={n}")
        _check_full_rank(self.omega, "omega")
        for j, a in enumerate(self.alphas):
            if a.shape != (n, q):
                raise ValueError(f"alpha_{j + 1} has shape {a.shape}, expected ({n}, {q})")
        _check_pd(self.sigma)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]

    @property
    def p(self) -> int:
        return len(self.alphas)

    def index_form(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(omega, [alpha_1..alpha_p])."""
        return self.omega, list(self.alphas)

    def n_free_params(self) -> int:
        n, q, p = self.n, self.q, self.p
        return n * q * (p + 1) - q * q


@dataclass
class VHARIParams(_IndexForm):
    """Vector heterogeneous autoregressive index model on daily data.

    Y_t = alpha_d omega' Y_{t-1} + alpha_w omega' Yw_{t-1} + alpha_m omega' Ym_{t-1} + e_t
    with Yw and Ym the trailing 5- and 22-day means of Y.
    """

    omega: np.ndarray
    alpha_d: np.ndarray
    alpha_w: np.ndarray
    alpha_m: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        n, q = self.omega.shape
        _check_full_rank(self.omega, "omega")
        for name in ("alpha_d", "alpha_w", "alpha_m"):
            a = np.atleast_2d(np.asarray(getattr(self, name), float))
            setattr(self, name, a)
            if a.shape != (n, q):
                raise ValueError(f"{name} has shape {a.shape}, expected ({n}, {q})")
        self.sigma = np.asarray(self.sigma, float)
        _check_pd(self.sigma)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]

    def index_form(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(omega, the 22 daily loadings of the implied restricted VAR(22)):
        A_j = alpha_m/22 + 1[j <= 5] alpha_w/5 + 1[j = 1] alpha_d."""
        am, aw = self.alpha_m / 22.0, self.alpha_w / 5.0
        return self.omega, [am + (j < 5) * aw + (j == 0) * self.alpha_d for j in range(22)]

    def n_free_params(self) -> int:
        n, q = self.n, self.q
        return n * q * 4 - q * q


@dataclass
class IAARParams:
    """Index-augmented autoregression: own-lag diagonals plus lagged indexes.

    Y_t = sum_{j<=p} D_j Y_{t-j} + sum_{j<=s} alpha_j omega' Y_{t-j} + e_t,
    D_j = diag(ds[j-1]).
    """

    ds: list[np.ndarray]              # p diagonal vectors, length n
    alphas: list[np.ndarray]          # s matrices, n x q
    omega: np.ndarray                 # n x q
    sigma: np.ndarray

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        n, q = self.omega.shape
        if q > 0:
            _check_full_rank(self.omega, "omega")
        self.ds = [np.asarray(d, float).ravel() for d in self.ds]
        for j, d in enumerate(self.ds):
            if d.shape != (n,):
                raise ValueError(f"delta_{j + 1} has length {d.size}, expected {n}")
        self.alphas = [np.atleast_2d(np.asarray(a, float)) for a in self.alphas]
        for j, a in enumerate(self.alphas):
            if a.shape != (n, q):
                raise ValueError(f"alpha_{j + 1} has shape {a.shape}, expected ({n}, {q})")
        if len(self.alphas) > len(self.ds):
            raise ValueError("need s <= p (no more index lags than diagonal lags)")
        self.sigma = np.asarray(self.sigma, float)
        _check_pd(self.sigma)
        if self.s == self.p >= 2 and not q < n - 1:
            warnings.warn(
                f"q={q} with s=p={self.p} is not more parsimonious than the "
                f"unrestricted VAR (needs q < n-1)",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]

    @property
    def p(self) -> int:
        return len(self.ds)

    @property
    def s(self) -> int:
        return len(self.alphas)

    def var_coeffs(self) -> list[np.ndarray]:
        n = self.n
        phis = []
        for j in range(max(self.p, self.s)):
            phi = np.zeros((n, n))
            if j < self.p:
                phi += np.diag(self.ds[j])
            if j < self.s:
                phi += self.alphas[j] @ self.omega.T
            phis.append(phi)
        return phis

    def spectral_radius(self) -> float:
        return companion_spectral_radius(self.var_coeffs())

    def n_free_params(self) -> int:
        n, q, p, s = self.n, self.q, self.p, self.s
        return n * (q * s + q + p) - q * q


@dataclass
class DRVARParams(_IndexForm):
    """Dimension-reducible VAR: Y_t = sum_j omega phi_j f_{t-j} + e_t, f = omega'Y."""

    omega: np.ndarray                 # n x q, orthonormal columns
    phis: list[np.ndarray]            # p matrices, q x q
    sigma: np.ndarray

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        n, q = self.omega.shape
        if not np.allclose(self.omega.T @ self.omega, np.eye(q), atol=1e-10):
            raise ValueError("omega columns must be orthonormal")
        self.phis = [np.atleast_2d(np.asarray(f, float)) for f in self.phis]
        for j, f in enumerate(self.phis):
            if f.shape != (q, q):
                raise ValueError(f"phi_{j + 1} has shape {f.shape}, expected ({q}, {q})")
        self.sigma = np.asarray(self.sigma, float)
        _check_pd(self.sigma)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]

    @property
    def p(self) -> int:
        return len(self.phis)

    def index_form(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(omega, [omega phi_1..omega phi_p])."""
        return self.omega, [self.omega @ f for f in self.phis]

    def spectral_radius(self) -> float:
        # omega'omega = I, so the index VAR's coefficients are the phi_j
        return companion_spectral_radius(self.phis)

    def n_free_params(self) -> int:
        n, q, p = self.n, self.q, self.p
        return q * (n - q) + p * q * q


@dataclass
class VECMParams:
    """Vector error-correction model: dY_t = alpha0 beta' Y_{t-1} + sum_j Pi_j dY_{t-j} + e_t."""

    alpha0: np.ndarray                # n x r
    beta: np.ndarray                  # n x r
    pis: list[np.ndarray]             # p-1 matrices, n x n
    sigma: np.ndarray

    def __post_init__(self):
        self.alpha0 = _as_2d_cols(self.alpha0)
        self.beta = _as_2d_cols(self.beta)
        if self.alpha0.shape != self.beta.shape:
            raise ValueError("alpha0 and beta must have matching shapes")
        _check_full_rank(self.alpha0, "alpha0")
        _check_full_rank(self.beta, "beta")
        self.pis = [np.atleast_2d(np.asarray(m, float)) for m in self.pis]
        n = self.alpha0.shape[0]
        for j, m in enumerate(self.pis):
            if m.shape != (n, n):
                raise ValueError(f"Pi_{j + 1} has shape {m.shape}, expected ({n}, {n})")
        self.sigma = np.asarray(self.sigma, float)
        _check_pd(self.sigma)

    @property
    def n(self) -> int:
        return self.alpha0.shape[0]

    @property
    def r(self) -> int:
        return self.alpha0.shape[1]

    @property
    def p(self) -> int:
        return len(self.pis) + 1

    def ec_form(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(alpha0, beta, [Pi_1, ...]): the error-correction factors and short-run lags."""
        return self.alpha0, self.beta, list(self.pis)

    def var_coeffs(self) -> list[np.ndarray]:
        return _vecm_to_var(*self.ec_form())

    def i1_matrix(self) -> np.ndarray:
        """alpha0_perp' PiBar beta_perp; nonsingular iff the system is I(1)."""
        pibar = np.eye(self.n) - sum(self.pis) if self.pis else np.eye(self.n)
        a_perp = orth_complement(self.alpha0)
        b_perp = orth_complement(self.beta)
        return a_perp.T @ pibar @ b_perp

    def n_free_params(self) -> int:
        n, r = self.n, self.r
        return 2 * n * r - r * r + len(self.pis) * n * n


@dataclass
class CIAARParams:
    """Cointegrated index-augmented autoregression.

    dY_t = sum_{j<=len(ds)} D_j dY_{t-j} + alpha0 gamma' omega' Y_{t-1}
         + sum_{j<=len(alphas)} alpha_j omega' dY_{t-j} + e_t

    Nests a MAI in differences (ds empty, r=0), an IAAR in differences
    (r=0), and a VECIM (ds empty).
    """

    ds: list[np.ndarray]              # p-1 diagonal vectors, length n
    alpha0: np.ndarray                # n x r
    gamma: np.ndarray                 # q x r, full rank
    omega: np.ndarray                 # n x q, full rank
    alphas: list[np.ndarray]          # s-1 matrices, n x q
    sigma: np.ndarray

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        n, q = self.omega.shape
        if q > 0:
            _check_full_rank(self.omega, "omega")
        self.alpha0 = _as_2d_cols(self.alpha0, rows=n)
        r = self.alpha0.shape[1]
        self.gamma = _as_2d_cols(self.gamma, rows=q)
        if self.gamma.shape != (q, r):
            raise ValueError(f"gamma has shape {self.gamma.shape}, expected ({q}, {r})")
        if r > q:
            raise ValueError(f"r={r} exceeds q={q}")
        if r > 0:
            _check_full_rank(self.gamma, "gamma")
            _check_full_rank(self.beta, "beta = omega gamma")
        self.ds = [np.asarray(d, float).ravel() for d in self.ds]
        for j, d in enumerate(self.ds):
            if d.shape != (n,):
                raise ValueError(f"delta_{j + 1} has length {d.size}, expected {n}")
        self.alphas = [np.atleast_2d(np.asarray(a, float)) for a in self.alphas]
        for j, a in enumerate(self.alphas):
            if a.shape != (n, q):
                raise ValueError(f"alpha_{j + 1} has shape {a.shape}, expected ({n}, {q})")
        self.sigma = np.asarray(self.sigma, float)
        _check_pd(self.sigma)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]

    @property
    def r(self) -> int:
        return self.alpha0.shape[1]

    @property
    def beta(self) -> np.ndarray:
        return self.omega @ self.gamma

    def diff_coeffs(self) -> list[np.ndarray]:
        """Pi_j of the implied VECM: diagonal plus index channel at each lag."""
        n = self.n
        m = max(len(self.ds), len(self.alphas))
        pis = []
        for j in range(m):
            pi = np.zeros((n, n))
            if j < len(self.ds):
                pi += np.diag(self.ds[j])
            if j < len(self.alphas):
                pi += self.alphas[j] @ self.omega.T
            pis.append(pi)
        return pis

    def ec_form(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(alpha0, beta = omega gamma, diff_coeffs()): the error-correction
        factors, whose product alpha0 beta' multiplies Y_{t-1}, and the
        short-run lags."""
        return self.alpha0, self.beta, self.diff_coeffs()

    def var_coeffs(self) -> list[np.ndarray]:
        return _vecm_to_var(*self.ec_form())

    def i1_matrix(self) -> np.ndarray:
        """alpha0_perp' PiBar beta_perp; singular parameters induce I(2) behavior."""
        pis = self.diff_coeffs()
        pibar = np.eye(self.n) - sum(pis) if pis else np.eye(self.n)
        a_perp = orth_complement(self.alpha0)
        b_perp = orth_complement(self.beta) if self.r > 0 else np.eye(self.n)
        return a_perp.T @ pibar @ b_perp

    def unit_roots(self, tol: float = 1e-6) -> int:
        """Number of companion eigenvalues within tol of 1."""
        eigs = np.linalg.eigvals(companion_matrix(self.var_coeffs()))
        return int(np.sum(np.abs(eigs - 1.0) < tol))

    def n_free_params(self) -> int:
        n, q, r = self.n, self.q, self.r
        return (
            n * len(self.ds)
            + n * q * len(self.alphas)
            + n * q
            - q * q
            + n * r
            + r * (q - r)
        )


def _as_2d_cols(a, rows: int | None = None) -> np.ndarray:
    a = np.asarray(a, float)
    if a.ndim == 2:
        return a
    if a.ndim == 1 and a.size:
        return a[:, None]
    return a.reshape(rows if rows is not None else 0, 0)


def _vecm_to_var(alpha0: np.ndarray, beta: np.ndarray, pis: list[np.ndarray]) -> list[np.ndarray]:
    """Levels VAR coefficients implied by an error-correction representation.

    dY_t = ec Y_{t-1} + sum_j Pi_j dY_{t-j} + e_t with ec = alpha0 beta' maps
    to A_1 = I + ec + Pi_1, A_j = Pi_j - Pi_{j-1}, A_{m+1} = -Pi_m.
    """
    ec = alpha0 @ beta.T
    n = ec.shape[0]
    m = len(pis)
    if m == 0:
        return [np.eye(n) + ec]
    coeffs = [np.eye(n) + ec + pis[0]]
    for j in range(1, m):
        coeffs.append(pis[j] - pis[j - 1])
    coeffs.append(-pis[m - 1])
    return coeffs
