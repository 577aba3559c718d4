"""Deterministic time-series and regression primitives shared by all estimators."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Panel",
    "RegressionOut",
    "SingularDesignError",
    "read_panel_csv",
    "ols",
    "check_rank",
    "full_rank",
    "autocov",
    "companion_spectral_radius",
    "companion_matrix",
    "StateForm",
    "var_form",
    "har_aggregates",
    "subspace_distance",
    "orth_complement",
    "fix_signs",
]

RANK_RTOL = 1e-10    # a full-rank matrix's least singular value over its largest must exceed this
STABLE_RADIUS = 1.0 - 1e-8   # a stable state companion's spectral radius is below this
SIGMA_RTOL = 1e-12   # a covariance's least eigenvalue over its largest must exceed this
SIGMA_ERROR = f"residual covariance is not positive definite (eigenvalue ratio <= {SIGMA_RTOL:.0e})"


class SingularDesignError(ValueError):
    """Raised when a regression design matrix is rank deficient."""


@dataclass
class Panel:
    """A T x n block of time series observations.

    values: T x n float array, rows are time, columns are series.
    names:  n column labels.
    t0:     index of the first usable row (rows before t0 exist but are
            flagged unusable after transformations such as HAR averaging).
    """

    values: np.ndarray
    names: list[str] = field(default_factory=list)
    t0: int = 0

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("panel values must be a T x n matrix")
        if not self.names:
            self.names = [f"y{i + 1}" for i in range(self.values.shape[1])]
        if len(self.names) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.names)} names for {self.values.shape[1]} columns"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel contains non-finite values")
        if not 0 <= self.t0 < self.values.shape[0]:
            raise ValueError(f"t0={self.t0} outside sample of length {self.values.shape[0]}")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def usable(self) -> np.ndarray:
        """Rows from t0 on."""
        return self.values[self.t0:]


def read_panel_csv(path) -> Panel:
    """Read a panel from CSV: first row header, columns = series, rows = time.

    Cells must be numbers float() reads, with no missing entries; parse
    failures report the offending row and column. The header goes through
    csv.reader and the data rows, as ASCII bytes, through numpy's C reader.
    Wherever that reader might disagree with csv.reader and float() (a quoted
    header, a blank line, a non-ASCII data row, a cell it cannot parse, a row
    count or width other than the file's), the file is read again row by row
    (_read_rows), which gives every error message.
    """
    try:
        with open(path) as fh:
            header, _, body = fh.read().partition("\n")
        # numpy's reader strips \x1c-\x1f as whitespace, float() does not
        if '"' not in header and body.strip() and body.isascii() \
                and not any(c in body for c in "\x1c\x1d\x1e\x1f"):
            names = [s.strip() for s in next(csv.reader([header]))]
            data = io.BytesIO(body.encode("ascii"))     # a byte a character; StringIO holds 4
            values = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
            if values.shape == (body.count("\n") + (body[-1] != "\n"), len(names)):
                return Panel(values, names)
    except ValueError:
        pass
    return _read_rows(path)


def _read_rows(path) -> Panel:
    """read_panel_csv by csv.reader and float(), one row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [s.strip() for s in names]
        rows = []
        for i, row in enumerate(reader):
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: row {i + 2} has {len(row)} cells, expected {len(names)}"
                )
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                bad = next(j for j, c in enumerate(row) if not _is_float(c))
                raise ValueError(
                    f"{path}: row {i + 2}, column '{names[bad]}': cannot parse {row[bad]!r}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Panel(np.asarray(rows, dtype=float), names)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


@dataclass
class RegressionOut:
    """Multivariate least-squares output.

    sigma is the 1/T_eff residual covariance and loglik the Gaussian
    log-likelihood evaluated at that covariance,
    -(T_eff/2) * (m log 2pi + log det sigma + m). An exact fit is a valid
    regression, so loglik is evaluated on access and raises only then.
    """

    coeffs: np.ndarray
    residuals: np.ndarray
    sigma: np.ndarray

    @property
    def loglik(self) -> float:
        return gaussian_loglik(self.sigma, self.residuals.shape[0])


def gaussian_loglik(sigma: np.ndarray, T: int) -> float:
    """Concentrated Gaussian log-likelihood at a 1/T residual covariance.

    The quadratic form collapses to m, giving
    -(T/2)(m log 2pi + log det sigma + m). A stack of covariances
    (..., m, m) gives one value each. sigma must pass the guard
    (sigma_cond); log det sigma is 2 sum log diag L of its Cholesky factor L.
    """
    sigma_cond(sigma)
    return cholesky_loglik(pd_factor(sigma, SIGMA_ERROR), T)


def sigma_cond(sigma: np.ndarray):
    """The one guard on a residual covariance, or on each of a stack: its
    least over largest eigenvalue, or LinAlgError(SIGMA_ERROR) when that is
    at most SIGMA_RTOL, where the likelihood can grow without bound. The
    margin keeps the verdict off the rounding floor, where a Cholesky's
    would depend on the BLAS kernel."""
    w = np.linalg.eigvalsh(sigma)
    least, largest = w[..., 0], w[..., -1]
    passed = least > SIGMA_RTOL * largest                  # judged before dividing: no 0/0
    if not (passed if w.ndim == 1 else passed.all()):     # a scalar's all() costs a reduction
        raise np.linalg.LinAlgError(SIGMA_ERROR)
    return float(least / largest) if w.ndim == 1 else least / largest


def pd_factor(A: np.ndarray, message: str) -> np.ndarray:
    """The Cholesky factor of a (stacked) positive definite A, else LinAlgError(message)."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(message) from None


def cholesky_loglik(L: np.ndarray, T: int) -> float:
    """gaussian_loglik of sigma = L L' from its (stacked) Cholesky factor L."""
    m = L.shape[-1]
    logdet = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    return -0.5 * T * (m * np.log(2.0 * np.pi) + logdet + m)


def ols(X: np.ndarray, Y: np.ndarray) -> RegressionOut:
    """Multivariate OLS of Y (T x m) on X (T x k), after check_rank(X)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    check_rank(X)
    coeffs, *_ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coeffs
    return RegressionOut(coeffs, resid, resid.T @ resid / X.shape[0])


def full_rank(sv: np.ndarray):
    """The one rank rule, on singular values sv in svd's order, each of a stack's on its own: the
    least exceeds RANK_RTOL times the largest, judged before dividing, so an empty matrix passes
    and a zero one fails."""
    return sv[..., -1] > RANK_RTOL * sv[..., 0] if sv.shape[-1] else np.ones(sv.shape[:-1], bool)


def check_rank(X: np.ndarray) -> None:
    """Raise SingularDesignError unless the design X is full rank (full_rank)."""
    sv = np.linalg.svd(X, compute_uv=False)
    if not full_rank(sv):
        raise SingularDesignError(
            f"design is rank deficient: min/max singular value "
            f"{sv[-1]:.3e}/{sv[0]:.3e} below relative tolerance {RANK_RTOL:.0e}"
        )


def autocov(Y: Panel | np.ndarray, j: int) -> np.ndarray:
    """Lag-j sample autocovariance (1/T divisor, internally demeaned)."""
    values = Y.values if isinstance(Y, Panel) else np.atleast_2d(np.asarray(Y, float))
    T = values.shape[0]
    if not 0 <= j < T - 1:
        raise ValueError(f"lag {j} outside [0, {T - 2}]")
    Z = values - values.mean(axis=0)
    return Z[j:].T @ Z[: T - j] / T


def companion_matrix(phis: list[np.ndarray]) -> np.ndarray:
    """np x np companion matrix of the lag polynomial I - sum_j Phi_j L^j."""
    if not phis:
        raise ValueError("need at least one coefficient matrix")
    n = phis[0].shape[0]
    for j, phi in enumerate(phis):
        if phi.shape != (n, n):
            raise ValueError(f"coefficient {j + 1} has shape {phi.shape}, expected ({n}, {n})")
    p = len(phis)
    comp = np.zeros((n * p, n * p))
    comp[:n] = np.hstack(phis)
    if p > 1:
        comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return comp


def companion_spectral_radius(phis: list[np.ndarray]) -> float:
    """Spectral radius of the companion matrix; < 1 certifies stationarity.

    A VAR(0) or a VAR of dimension 0 has no roots, so its radius is 0.
    """
    if not phis or not phis[0].size:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(phis)))))


@dataclass
class StateForm:
    """A fitted lag recursion as the VAR of a state s_t that carries its history.

    The state follows s_t = carry s_{t-1} + E y_t and the observation reads
    it back as y_t = d_t + sum_j K_j s_{t-j}, so the state is the VAR
    s_t = sum_j Phi_j s_{t-j} + E d_t with Phi_j = E K_j and carry added at
    lag 1. y is the demeaned levels of a stationary model, or the first
    differences of an integrated one, which run cumulates into the levels.
    By Sylvester's determinant identity the state companion's nonzero roots
    are those of the levels recursion, less the integrated form's unit roots.
    """

    E: np.ndarray                     # k x n
    K: np.ndarray                     # p x n x k
    carry: np.ndarray                 # k x k
    integrated: bool = False

    def phis(self) -> np.ndarray:
        """The state VAR's coefficients Phi_1..Phi_p, p x k x k. A form whose
        E, K and carry share a leading stack axis gives a stack of them."""
        phis = self.E[..., None, :, :] @ self.K
        phis[..., :1, :, :] += self.carry[..., None, :, :]
        return phis

    def spectral_radius(self) -> float:
        """Radius of the state companion; below 1 the state is stationary."""
        return companion_spectral_radius(list(self.phis()))

    @cached_property
    def observed(self) -> np.ndarray:
        """(I - carry) E, the part of s_t that y_t alone gives (stacks too)."""
        return self.E - self.carry @ self.E

    def intercept(self, mean: np.ndarray) -> np.ndarray:
        """The constant drive d that keeps observations of this mean in the
        recursion: d = mean - sum_j K_j (I - carry) E mean (stacks too)."""
        return mean - (self.K.sum(axis=-3) @ (self.observed @ mean[..., None]))[..., 0]

    def run(self, drive, init=None, level=None):
        """The observations y_t for every row d_t of drive.

        init holds the latest pre-sample observations (at most p rows;
        earlier ones, or all when None, read as zero) and level, for an
        integrated form, the last level y_{-1} (zero when None), which
        s_{-1} carries and the levels cumulate onto. A row is a length-n
        vector or an n x c matrix. Returns y, or (y, levels) for an
        integrated form; a form with no lags or no state passes drive
        through.
        """
        drive = np.asarray(drive, dtype=float)
        p, T = len(self.K), len(drive)
        if not self.K.size:
            return drive
        (k, n), rows = self.E.shape, drive.shape[2:]
        s0 = np.zeros((p, k) + rows)                  # s_{-p}..s_{-1}
        if init is not None:
            s0[p - len(init):] = _apply(self.observed, init)
        if level is not None:
            s0[-1] += _apply(self.carry @ self.E, level[None])[0]
        states = var_recursion(list(self.phis()), s0, _apply(self.E, drive))
        if k >= n and not self.carry[:n].any() and np.array_equal(self.E[:n], np.eye(n)):
            y = states[:, :n]                         # the state leads with y_t itself
        else:                                         # y_t = d_t + [K_1 .. K_p] [s_{t-1}; ..; s_{t-p}]
            states = np.concatenate([s0, states])
            lagged = np.concatenate([states[p - j: p - j + T] for j in range(1, p + 1)], axis=1)
            y = drive + _apply(self.K.transpose(1, 0, 2).reshape(n, -1), lagged)
        if not self.integrated:
            return y
        levels = np.cumsum(y, axis=0)
        return y, levels if level is None else levels + level


def var_form(phis, n: int) -> StateForm:
    """The n-dimensional VAR y_t = d_t + sum_j Phi_j y_{t-j}, whose state is y_t itself."""
    return StateForm(np.eye(n), np.reshape(phis, (len(phis), n, n)), np.zeros((n, n)))


def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M applied to every row of x: rows are vectors (x is T x n) or n x c matrices."""
    return x @ M.T if x.ndim == 2 else M @ x


def var_recursion(phis, init, drive):
    """Iterate x_t = sum_j Phi_j x_{t-j} + drive_t for every row of drive.

    init holds the p pre-sample rows x_{-p}..x_{-1}. A row is a length-n
    vector or an n x k matrix (drive[0] = I with zero init gives the Wold
    sequence); n is read from drive, so an empty phis passes drive through.

    Each Python step advances L rows (_block_length) as C s + Psi u: s holds
    the p rows before, C the companion powers' first n rows, and Psi, the
    block Toeplitz matrix of the Wold coefficients Psi_0..Psi_{L-1}, maps
    every block's drive u at once.

    StateForm.run iterates every fitted model's state here: the simulators
    and the decomposition components. Forecasts do not: they are short
    (L = 1) and come many at a time, so forecast._continue steps a stack of
    state forms in one batched product per row, while a leading stack axis
    here would slow every single long recursion.
    """
    drive = np.asarray(drive, dtype=float)
    T, n, row = drive.shape[0], drive.shape[1], drive.shape[1:]
    p = len(phis)
    L = _block_length(n, p, drive[0].size // n, T)
    nb = -(-T // L)                                          # blocks of L rows
    buf = np.concatenate([np.reshape(init, (p,) + row), drive, np.zeros((nb * L - T,) + row)])
    C = np.hstack([*phis[::-1], np.zeros((n, 0))])          # [Phi_p ... Phi_1]
    if L > 1:          # L rows' responses to unit pre-sample rows (C) and a unit impulse (Psi_j)
        unit = np.eye(p * n + n).reshape(p + 1, n, p * n + n)
        resp = var_recursion(phis, unit[:p], np.concatenate([unit[p:], np.zeros((L - 1,) + unit.shape[1:])]))
        C = resp[:, :, : p * n].reshape(L * n, p * n)
        lag = np.subtract.outer(np.arange(L), np.arange(L))
        psi = np.where((lag >= 0)[:, None, :, None], resp[lag, :, p * n:].transpose(0, 2, 1, 3), 0.0)
        blocks = psi.reshape(L * n, L * n) @ buf[p:].reshape(nb, L * n, -1).swapaxes(0, 1).reshape(L * n, -1)
        buf[p:] = blocks.reshape(L * n, nb, -1).swapaxes(0, 1).reshape(buf[p:].shape)
    flat = buf.reshape((-1,) + row[1:])      # rows t..t+p-1 of buf stacked
    if p:
        for t in range(p * n, (p + nb * L) * n, L * n):      # t: where a block starts in flat
            x = flat[t: t + L * n]
            x += C @ flat[t - p * n: t]
    return buf[p: p + T]


def _block_length(n: int, p: int, k: int, T: int) -> int:
    """var_recursion's rows per step: 1, or the power of two up to 32 (Psi at
    most 256 rows) of least modelled cost in ns, 2.4 us per Python step (T / L
    and L + 8 to set up C and Psi) and 0.12 ns per multiply-add of Psi's
    product (T L n^2 k) and the setup's (L n^2 p (n p + n)). An L > 1 is < T."""
    cost = {L: 2400.0 * (T / L + L + 8) + 0.12 * L * n * n * (T * k + p * (p + 1) * n)
            for L in (2, 4, 8, 16, 32) if p and L * n <= 256}
    cost[1] = 2400.0 * T
    return min(cost, key=cost.get)


def har_aggregates(Yd: Panel) -> tuple[Panel, Panel]:
    """Weekly (5-day) and monthly (22-day) trailing means of a daily panel.

    Row t of the outputs averages the last 5 (resp. 22) daily rows ending
    at t. The first 21 rows use partial windows and are flagged unusable
    through t0 = 21.
    """
    if Yd.T < 22:
        raise ValueError(f"need at least 22 daily observations, got {Yd.T}")
    Yw = _trailing_mean(Yd.values, 5)
    Ym = _trailing_mean(Yd.values, 22)
    t0 = max(Yd.t0, 21)
    return (
        Panel(Yw, [f"{s}_w" for s in Yd.names], t0),
        Panel(Ym, [f"{s}_m" for s in Yd.names], t0),
    )


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    csum = np.cumsum(values, axis=0)
    out = np.empty_like(values)
    out[:window] = csum[:window] / np.arange(1, window + 1)[:, None]
    out[window:] = (csum[window:] - csum[:-window]) / window
    return out


def fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so each column's first nonzero entry is positive.

    Leading axes are a stack of matrices, each fixed on its own.
    """
    A = np.abs(V)
    nonzero = A > 1e-12 * np.maximum(A.max(axis=-2, keepdims=True), 1e-300)
    first = nonzero & (nonzero.cumsum(axis=-2) == 1)
    lead = (V * first).sum(axis=-2, keepdims=True)
    return np.where(lead < 0, -V, V)


def orth_complement(omega: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a full-rank omega' (n x (n-q)), sign fixed."""
    omega = np.atleast_2d(omega)
    n, q = omega.shape
    if q >= n:
        return np.zeros((n, 0))
    U, s, _ = np.linalg.svd(omega, full_matrices=True)
    if not full_rank(s):
        raise ValueError("omega is not full column rank")
    return fix_signs(U[:, q:])


def subspace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Rotation-invariant distance between column spaces of A and B.

    Frobenius norm of the difference of the orthogonal projectors, divided
    by sqrt(2 q); lies in [0, 1] for equal-width full-rank inputs.
    """
    QA, _ = np.linalg.qr(np.atleast_2d(A))
    QB, _ = np.linalg.qr(np.atleast_2d(B))
    PA = QA @ QA.T
    PB = QB @ QB.T
    q = max(A.shape[1], B.shape[1])
    return float(np.linalg.norm(PA - PB, "fro") / np.sqrt(2 * q))
