"""Parameter containers for the index-structured VAR family.

Each container stores the mean parameters and the innovation covariance of
one model class, knows its free mean-parameter count (excluding sigma), and
gives its lag recursion as one tscore.StateForm through state_form(),
the VAR of a state that carries the whole history. The simulators, the
decompositions and the forecasts run that form and judge stability by the
radius of its companion:
- MAI, VHARI and DRVAR: the q indexes f_t = omega'Y_t (E = omega', K_j the
  loadings A_j of Phi_j = A_j omega'; Reinsel 1983);
- IAAR: the levels (E = I, K_j = diag(delta_j) + alpha_j omega');
- CIAAR and VECM: the stationary (dY_t, beta'Y_t) of an I(1) system
  (E = [I; beta'], K_1 = [Pi_1, alpha0]; Johansen 1995), integrated into
  the levels.
var_coeffs() expands a container into the coefficient matrices of its
levels VAR (K_j E for the stationary classes). The error-correction classes
also give ec_form(), the factors alpha0 and beta of alpha0 beta' and the
short-run lags, and unit_roots(). The containers take any orders their
recursions can run; each simulated class's check_orders(n, ...) holds the
narrower rule of its fitter, which the fitter and the simulating CLI share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .tscore import StateForm, companion_matrix, full_rank, orth_complement, sigma_cond, var_form

__all__ = [
    "MAIParams",
    "VHARIParams",
    "IAARParams",
    "DRVARParams",
    "VECMParams",
    "CIAARParams",
]


def _pd(sigma) -> np.ndarray:
    """sigma as a float matrix, which must be symmetric and pass the sigma guard (sigma_cond)."""
    sigma = np.asarray(sigma, float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be square, got shape {sigma.shape}")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    try:
        sigma_cond(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("sigma is not positive definite") from None
    return sigma


def _matrix(a, shape: tuple, what: str) -> np.ndarray:
    """a as a float matrix, which must have the given shape."""
    a = np.atleast_2d(np.asarray(a, float))
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


def _lags(mats, shape: tuple, what: str) -> list[np.ndarray]:
    """The lag matrices what_1, what_2, ... as float matrices of one shape."""
    return [_matrix(a, shape, f"{what}_{j}") for j, a in enumerate(mats, start=1)]


def _diagonals(ds, n: int) -> list[np.ndarray]:
    """The diagonals delta_1, delta_2, ... as float vectors of length n."""
    ds = [np.asarray(d, float).ravel() for d in ds]
    for j, d in enumerate(ds, start=1):
        if d.shape != (n,):
            raise ValueError(f"delta_{j} has length {d.size}, expected {n}")
    return ds


def _check_full_rank(mat: np.ndarray, what: str) -> None:
    if not full_rank(np.linalg.svd(mat, compute_uv=False)).all():
        raise ValueError(f"{what} is not full rank")


class _Indexed:
    """n and q of a class with n x q index weights omega, and its containers of checked values."""

    @classmethod
    def from_checked(cls, *values):
        """The container of values, one per field in order, as they are: for values that have
        passed __post_init__'s checks (estimators._finished). It warns as __post_init__ does."""
        params = object.__new__(cls)
        vars(params).update(zip([f.name for f in fields(cls)], values))
        params._note()
        return params

    def _note(self) -> None:
        """Warn of what valid parameters imply; nothing by default."""

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def q(self) -> int:
        return self.omega.shape[1]


class _Stationary:
    """Levels coefficients and stationarity of a class from its state_form()."""

    def var_coeffs(self) -> list[np.ndarray]:
        """Phi_j = K_j E."""
        form = self.state_form()
        return list(form.K @ form.E)

    def spectral_radius(self) -> float:
        """Radius of the state companion. Sylvester's identity
        det(I_n - sum_j K_j E z^j) = det(I_k - sum_j E K_j z^j) makes its
        nonzero roots those of the n p companion of var_coeffs()."""
        return self.state_form().spectral_radius()


class _ErrorCorrection:
    """Levels coefficients, I(1) condition and state form of a class from its
    ec_form() (alpha0, beta, [Pi_1..Pi_m]) of dY_t = alpha0 beta'Y_{t-1} +
    sum_j Pi_j dY_{t-j} + e_t."""

    def var_coeffs(self) -> list[np.ndarray]:
        """A_1 = I + alpha0 beta' + Pi_1, A_j = Pi_j - Pi_{j-1}, A_{m+1} = -Pi_m."""
        alpha0, beta, pis = self.ec_form()
        n = self.n
        coeffs = np.diff(np.pad(np.reshape(pis, (-1, n, n)), ((1, 1), (0, 0), (0, 0))), axis=0)
        coeffs[0] += np.eye(n) + alpha0 @ beta.T
        return list(coeffs)

    def i1_matrix(self) -> np.ndarray:
        """alpha0_perp' (I - sum_j Pi_j) beta_perp; nonsingular iff the system
        is I(1), singular parameters induce I(2) behavior."""
        alpha0, beta, pis = self.ec_form()
        pibar = np.eye(self.n) - sum(pis, np.zeros((self.n, self.n)))
        return orth_complement(alpha0).T @ pibar @ orth_complement(beta)

    def state_form(self) -> StateForm:
        """The stationary state (dY_t, beta'Y_t): E = [I; beta'], K_1 =
        [Pi_1, alpha0], K_j = [Pi_j, 0] (one lag when there is no Pi_j) and
        carry = diag(0_n, I_r), so beta'Y_t = beta'Y_{t-1} + beta'dY_t. Its
        companion is stable whenever the system is I(1) (Johansen 1995)."""
        alpha0, beta, pis = self.ec_form()
        (n, r), m = beta.shape, len(pis)
        K = np.zeros((max(m, 1), n, n + r))
        if m:
            K[:m, :, :n] = pis
        K[0, :, n:] = alpha0
        E = np.zeros((n + r, n))                     # [I; beta']
        E.reshape(-1)[: n * n: n + 1] = 1.0
        E[n:] = beta.T
        carry = np.zeros((n + r, n + r))             # diag(0_n, I_r)
        carry.reshape(-1)[n * (n + r + 1):: n + r + 1] = 1.0
        return StateForm(E, K, carry, integrated=True)


@dataclass
class MAIParams(_Indexed, _Stationary):
    """Multivariate autoregressive index model: Y_t = sum_j alpha_j omega' Y_{t-j} + e_t."""

    omega: np.ndarray                 # n x q loading weights, full column rank
    alphas: list[np.ndarray]          # p matrices, n x q
    sigma: np.ndarray                 # n x n positive definite

    def __post_init__(self):
        self.omega = np.atleast_2d(np.asarray(self.omega, float))
        n, q = self.omega.shape
        if q > n:
            raise ValueError(f"q={q} exceeds n={n}")
        _check_full_rank(self.omega, "omega")
        self.alphas = _lags(self.alphas, (n, q), "alpha")
        self.sigma = _pd(self.sigma)

    @property
    def p(self) -> int:
        return len(self.alphas)

    @staticmethod
    def check_orders(n: int, p: int, q: int) -> None:
        """Raise ValueError unless 1 <= q <= n and p >= 1: the MAI fitter's rule."""
        if not 1 <= q <= n:
            raise ValueError(f"need 1 <= q <= n, got q={q}")
        if p < 1:
            raise ValueError("need p >= 1")

    def state_form(self) -> StateForm:
        """The indexes f_t = omega'Y_t: E = omega', K_j = alpha_j."""
        n, q = self.omega.shape
        return StateForm(self.omega.T, np.reshape(self.alphas, (self.p, n, q)), np.zeros((q, q)))

    @staticmethod
    def count(n: int, p: int, q: int) -> int:
        """The free parameters of a MAI with p lags and q indexes."""
        return n * q * (p + 1) - q * q

    def n_free_params(self) -> int:
        return self.count(self.n, self.p, self.q)


@dataclass
class VHARIParams(_Indexed, _Stationary):
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
            setattr(self, name, _matrix(getattr(self, name), (n, q), name))
        self.sigma = _pd(self.sigma)

    def state_form(self) -> StateForm:
        """The indexes f_t = omega'Y_t with the 22 daily loadings of the
        implied restricted VAR(22): K_j = alpha_m/22 + 1[j <= 5] alpha_w/5
        + 1[j = 1] alpha_d."""
        am, aw = self.alpha_m / 22.0, self.alpha_w / 5.0
        K = np.array([am + (j < 5) * aw + (j == 0) * self.alpha_d for j in range(22)])
        return StateForm(self.omega.T, K, np.zeros((self.q, self.q)))

    @staticmethod
    def check_orders(n: int, q: int) -> None:
        """Raise ValueError unless 1 <= q <= n: the VHARI fitter's rule."""
        if not 1 <= q <= n:
            raise ValueError(f"need 1 <= q <= n, got q={q}")

    @staticmethod
    def count(n: int, q: int) -> int:
        """The free parameters of a VHARI with q indexes."""
        return n * q * 4 - q * q

    def n_free_params(self) -> int:
        return self.count(self.n, self.q)


@dataclass
class IAARParams(_Indexed, _Stationary):
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
        _check_full_rank(self.omega, "omega")
        self.ds = _diagonals(self.ds, n)
        self.alphas = _lags(self.alphas, (n, q), "alpha")
        if len(self.alphas) > len(self.ds):
            raise ValueError("need s <= p (no more index lags than diagonal lags)")
        self.sigma = _pd(self.sigma)
        self._note()

    def _note(self) -> None:
        if self.s == self.p >= 2 and not self.q < self.n - 1:
            warnings.warn(f"q={self.q} with s=p={self.p} is not more parsimonious than the "
                          "unrestricted VAR (needs q < n-1)", stacklevel=3)

    @property
    def p(self) -> int:
        return len(self.ds)

    @property
    def s(self) -> int:
        return len(self.alphas)

    def state_form(self) -> StateForm:
        """The levels: E = I, K_j = diag(delta_j) + alpha_j omega'."""
        return var_form(_lag_sums(self.ds, self.alphas, self.omega), self.n)

    @staticmethod
    def check_orders(n: int, p: int, s: int, q: int) -> None:
        """Raise ValueError unless 0 <= q < n and 1 <= s <= p, or s = 0 with
        q = 0: with no index lag omega enters no term, so only the diagonal
        model (q = 0) may take s = 0. The IAAR fitter's rule, which
        random_iaar_params applies too."""
        if not 0 <= q < n:
            raise ValueError(f"need 0 <= q < n, got q={q}")
        if p < 1 or s > p or s < min(q, 1):
            raise ValueError(f"need 1 <= s <= p, or s = 0 with q = 0 (got p={p}, s={s}, q={q})")

    @staticmethod
    def count(n: int, p: int, s: int, q: int) -> int:
        """The free parameters of an IAAR with p diagonal and s index lags."""
        return n * (q * s + q + p) - q * q

    def n_free_params(self) -> int:
        return self.count(self.n, self.p, self.s, self.q)


@dataclass
class DRVARParams(_Indexed, _Stationary):
    """Dimension-reducible VAR: Y_t = sum_j omega phi_j f_{t-j} + e_t, f = omega'Y."""

    omega: np.ndarray                 # n x q, orthonormal columns
    phis: list[np.ndarray]            # p matrices, q x q
    sigma: np.ndarray

    def __post_init__(self):
        self.omega = self.check_omega(self.omega)
        q = self.omega.shape[1]
        self.phis = _lags(self.phis, (q, q), "phi")
        self.sigma = _pd(self.sigma)

    @staticmethod
    def check_omega(omega) -> np.ndarray:
        """omega as floats, refused unless omega'omega is within 1e-10 of I in every entry."""
        omega = np.atleast_2d(np.asarray(omega, float))
        if not np.allclose(omega.T @ omega, np.eye(omega.shape[1]), rtol=0, atol=1e-10):
            raise ValueError("omega columns must be orthonormal")
        return omega

    @property
    def p(self) -> int:
        return len(self.phis)

    @staticmethod
    def check_orders(n: int, p: int, q: int) -> None:
        """Raise ValueError unless 1 <= q < n and p >= 1: the rule of
        fit_drvar_omega for q and of fit_drvar_coeffs for p."""
        if not 1 <= q < n:
            raise ValueError(f"need 1 <= q < n, got q={q}")
        if p < 1:
            raise ValueError("need p >= 1")

    def state_form(self) -> StateForm:
        """The indexes f_t = omega'Y_t: E = omega', K_j = omega phi_j."""
        q = self.q
        return StateForm(self.omega.T, self.omega @ np.reshape(self.phis, (self.p, q, q)), np.zeros((q, q)))

    def n_free_params(self) -> int:
        n, q, p = self.n, self.q, self.p
        return q * (n - q) + p * q * q


@dataclass
class VECMParams(_ErrorCorrection):
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
        self.pis = _lags(self.pis, (self.n, self.n), "Pi")
        self.sigma = _pd(self.sigma)

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

    def n_free_params(self) -> int:
        n, r = self.n, self.r
        return 2 * n * r - r * r + len(self.pis) * n * n


@dataclass
class CIAARParams(_Indexed, _ErrorCorrection):
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
        _check_full_rank(self.omega, "omega")
        self.alpha0 = _as_2d_cols(self.alpha0, rows=n)
        r = self.alpha0.shape[1]
        self.gamma = _matrix(_as_2d_cols(self.gamma, rows=q), (q, r), "gamma")
        if r > q:
            raise ValueError(f"r={r} exceeds q={q}")
        _check_full_rank(self.gamma, "gamma")
        _check_full_rank(self.beta, "beta = omega gamma")
        self.ds = _diagonals(self.ds, n)
        self.alphas = _lags(self.alphas, (n, q), "alpha")
        self.sigma = _pd(self.sigma)

    @property
    def r(self) -> int:
        return self.alpha0.shape[1]

    @property
    def beta(self) -> np.ndarray:
        return self.omega @ self.gamma

    def diff_coeffs(self) -> list[np.ndarray]:
        """Pi_j of the implied VECM: diagonal plus index channel at each lag."""
        return list(_lag_sums(self.ds, self.alphas, self.omega))

    def ec_form(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(alpha0, beta = omega gamma, diff_coeffs()): the error-correction
        factors, whose product alpha0 beta' multiplies Y_{t-1}, and the
        short-run lags."""
        return self.alpha0, self.beta, self.diff_coeffs()

    def unit_roots(self, tol: float = 1e-6) -> int:
        """Number of companion eigenvalues within tol of 1."""
        eigs = np.linalg.eigvals(companion_matrix(self.var_coeffs()))
        return int(np.sum(np.abs(eigs - 1.0) < tol))

    @staticmethod
    def check_orders(n: int, p: int, s: int, q: int, r: int) -> None:
        """Raise ValueError unless 1 <= q < n, 0 <= r <= q, and s <= p when
        p >= 2 (a diagonal channel is present): the CIAAR fitter's rule,
        which fit_vecim applies with p = 0."""
        if not 1 <= q < n:
            raise ValueError(f"need 1 <= q < n, got q={q}")
        if not 0 <= r <= q:
            raise ValueError(f"need 0 <= r <= q, got r={r}")
        if p >= 2 and s > p:
            raise ValueError(f"need s <= p when the diagonal channel is present (p={p}, s={s})")

    @staticmethod
    def count(n: int, nd: int, na: int, q: int, r: int) -> int:
        """The free parameters of a CIAAR with nd diagonal and na index
        difference lags, q indexes and rank r."""
        return n * nd + n * q * na + n * q - q * q + n * r + r * (q - r)

    def n_free_params(self) -> int:
        return self.count(self.n, len(self.ds), len(self.alphas), self.q, self.r)


def _as_2d_cols(a, rows: int | None = None) -> np.ndarray:
    a = np.asarray(a, float)
    if a.ndim == 2:
        return a
    if a.ndim == 1 and a.size:
        return a[:, None]
    return a.reshape(rows if rows is not None else 0, 0)


def _lag_sums(ds, alphas, omega: np.ndarray) -> np.ndarray:
    """diag(d_j) + alpha_j omega' at each of max(len(ds), len(alphas)) lags,
    a missing term read as zero."""
    n = omega.shape[0]
    out = np.zeros((max(len(ds), len(alphas)), n, n))
    if ds:
        out.reshape(len(out), n * n)[:len(ds), ::n + 1] = ds      # the diagonals
    if alphas:
        out[:len(alphas)] += np.asarray(alphas) @ omega.T
    return out
