"""Switching-algorithm maximum-likelihood estimation for index-structured VARs.

Every fitter alternates closed-form conditional maximizations (OLS steps, and
a reduced-rank eigenproblem when a cointegration rank is estimated), so the
Gaussian log-likelihood is non-decreasing across sweeps. All of them run one
gram-based engine. The loading-weight update rewrites the model with the Vec
operator, Vec(ABC) = (C' kron A)Vec(B), and solves the normal equations of
the resulting sigma^-1-weighted regression for (delta, Vec(omega')), which
only need the n x n cross-products of the data. The explicit row-level
Vec/Kronecker design, with its binary n^2 x n diagonal selection matrix, is
kept in tests/rowlevel.py as an independent oracle. A fit's params.sigma is
the engine's step-1 covariance at the final parameters, the one its
log-likelihood is evaluated at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VECMParams,
    VHARIParams,
    _check_full_rank,
)
from .tscore import (
    HAR_WINDOWS,
    SIGMA_ERROR,
    SIGMA_RTOL,
    Panel,
    SingularDesignError,
    autocov,
    check_rank,
    cholesky_loglik,
    fix_signs,
    full_rank,
    gaussian_loglik,
    har_means,
    orth_complement,
    pd_factor,
    sigma_cond,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "fit_mai",
    "fit_vhari",
    "fit_iaar",
    "fit_ciaar",
    "fit_vecim",
    "fit_many",
    "MODELS",
    "johansen_rrr",
    "fit_drvar_omega",
    "fit_drvar_coeffs",
]


@dataclass
class FitOptions:
    """Switching-algorithm controls.

    max_iter caps the sweeps and tol is the relative log-likelihood
    convergence tolerance. Every step is an exact conditional maximum, so
    in exact arithmetic the log-likelihood never falls. Every sweep
    orthonormalizes omega by QR, Cholesky-QR unless ill conditioned
    (_qr_normalize), absorbed into the loadings, so fitted values are unchanged.
    """

    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer >= 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and > 0")


@dataclass
class _Deferred:
    """Residuals not formed yet: form() returns the T_eff x n array."""

    form: Callable
    T_eff: int


class _Residuals:
    """FitResult.residuals: the array given, or a _Deferred's, formed on first read."""

    def __get__(self, fit, owner=None):
        if fit is None:
            raise AttributeError("residuals")       # no class default: a required field
        if isinstance(fit._residuals, _Deferred):
            fit._residuals = fit._residuals.form()
        return fit._residuals

    def __set__(self, fit, value):
        fit._residuals = value


@dataclass
class FitResult:
    """Estimation output common to all model classes.

    t_start is the row index (in the input panel) of the first regression
    target, so residual row i corresponds to panel row t_start + i. means
    holds the offsets subtracted before fitting ("level", and "diff" for
    error-correction fits). loglik == gaussian_loglik(params.sigma, T_eff).
    An engine fit's residuals are formed when first read (_finished); T_eff
    and n_params leave them unformed, and a pickle holds them formed.
    """

    model: str
    params: object
    loglik_trace: np.ndarray
    residuals: np.ndarray = _Residuals()
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
        held = self._residuals
        return held.T_eff if isinstance(held, _Deferred) else held.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.n_free_params()

    def __getstate__(self) -> dict:
        self.residuals                                 # form them: a _Deferred does not pickle
        return self.__dict__


# ---------------------------------------------------------------------------
# shared numerical pieces
# ---------------------------------------------------------------------------

STEP_ERROR = "switching-step normal equations are not positive definite"
RRR_ERROR = ("reduced-rank regression: the level moments concentrated on the lags are not "
             "positive definite (too few rows, or collinear levels)")


def _qr_normalize(omega: np.ndarray):
    """omega = Q R with R's diagonal positive, each matrix of a stack on its own; returns (Q, R).
    By Cholesky-QR, L = chol(omega' omega), Q = omega L^-T and R = L', where ||L||_F^2
    ||L^-1||_F^2 <= 1e4 bounds kappa(omega)^2 so that Q'Q is within about 1e-12 of I (Yamamoto
    et al. 2015); a matrix past that bound, or whose factorization fails, by Householder QR."""
    try:
        L = np.linalg.cholesky(omega.swapaxes(-1, -2) @ omega)
        Linv = np.linalg.inv(L)
        if (np.square(L).sum((-2, -1)) * np.square(Linv).sum((-2, -1)) <= 1e4).all():
            return omega @ Linv.swapaxes(-1, -2), L.swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        pass
    if omega.ndim == 3 and len(omega) > 1:             # each member on its own path
        return tuple(map(np.concatenate, zip(*(_qr_normalize(w[None]) for w in omega))))
    Q, R = np.linalg.qr(omega)
    signs = np.where(R.diagonal(0, -2, -1) < 0, -1.0, 1.0)
    return Q * signs[..., None, :], R * signs[..., :, None]


def _converged(trace: list, tol: float) -> bool:
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (1.0 + abs(trace[-2]))


def _check_sample(Te: int, k: int) -> None:
    if Te <= k:
        raise ValueError(f"effective sample {Te} too small for {k} regressors")


def _demean(values: np.ndarray):
    mu = values.mean(axis=0)
    return values - mu, mu


def _demeaned(Y: Panel, differences: bool = False):
    """(levels, diffs, means, memo): Y's levels and, with differences, its
    first differences, each demeaned over all its rows, and an empty memo
    of their grams (_memo_grams). Every fit demeans its data so (the index
    models are written for mean-zero series), and a model's setups slice
    their data from these, so the setups of one panel (a selection grid's
    candidates) share them and the grams of equal rows and lags."""
    levels, mu = _demean(Y.values)
    if not differences:
        return levels, None, {"level": mu}, {}
    diffs, mu_diff = _demean(np.diff(Y.values, axis=0))
    return levels, diffs, {"level": mu, "diff": mu_diff}, {}


# ---------------------------------------------------------------------------
# generalized switching engine (diagonal + index + error-correction channels)
# ---------------------------------------------------------------------------
#
# Every conditional-maximization step only touches the data through the n x n
# cross-products of the data matrices, so those are formed once per fit, as
# the one flat X'X of all its data blocks (_Grams), and no sweep depends on
# the sample length. Each step is assembled by a few batched matmuls over
# slices of the stacked X'X; step 2 reshapes and transposes its slices so that
# the index it sums over is last (its Kronecker sums run over channel pairs),
# and it forms the two that no sweep moves once per engine grams (_Grams.step2),
# so once per run and per compaction. Step 1
# and step 3 cost O((C n)^2 C q) for C vec channels, and step 2 is dominated
# by the factorization of its (nd n + n q)-square normal equations,
# O(n^3 (nd + q)^3) per sweep. The stacked row-level design never gets built
# here; it lives in tests/rowlevel.py as the independent reference
# construction.
#
# Every array of the engine carries a leading batch axis: B fits of one
# structure (the same q, r, effective sample and padded nd, na) run their
# sweeps in lockstep on their stacked grams, so numpy's per-call cost on these small
# matrices is paid once per sweep rather than once per fit. A single fit is
# the batch of one. Each member keeps its own trace, diagnostics and stop
# reason; when a member stops, its final state is written out and the active
# arrays are compacted to the members still running. Compaction happens only
# then, so a batch of one never fancy-indexes. Each sweep runs in two phases
# (step 1 with the log-likelihood, then steps 2 and 3). Step 1's sigma is
# (U'U - v' coef) / T_eff at its solution coef = M^-1 v, and step 2 leaves omega
# the Q of its QR, by Cholesky-QR unless ill conditioned (_qr_normalize).
# Step 1 factors sigma once (pd_factor), and the factor gives the log-likelihood
# (cholesky_loglik) and, for a batch with diagonal channels, step 2's
# sigma^-1; a batch without them needs only sigma^-1 times the loadings, one
# solve against sigma (_step2_solve). When a phase raises, it is rerun
# member by member, and a member that raises on its own (a rank-deficient
# step, step-2 or step-3 normal equations or a covariance that are not
# positive definite) leaves the batch carrying the exception its single fit
# would raise, while the others go on.
#
# Members may also differ in their lags and cointegration rank, as a
# selection grid's candidates of one q do. Each member's own grams are then
# padded to the batch's largest (nd, na, r) (_padded_grams): every lag it
# lacks gets an identity gram and no cross-products. Its delta and loadings
# at those lags start at zero, and each step solves them to zero again,
# from a positive definite block decoupled from the rest with a zero
# right-hand side; step 2's omega block reads those lags only through their
# zero loadings. A Cholesky or LU solve meets the member's own block only
# through exact zeros, yet a larger system's BLAS sums may round otherwise:
# its solutions equal its single fit's to 1.2e-15 relative on c12 grids, and
# bit for bit only among members of one shape, as fit_many's are.
# A member of rank r_i keeps gamma's columns at or beyond r_i zero, so its
# step-1 weights there vanish and its alpha0 coordinates there get a unit
# diagonal; only members with 0 < r_i < q take step 3.
# Every member of a batch that estimates omega has an omega channel: a CIAAR
# order with no index lag runs as its identified equivalent (_setup_ciaar),
# so a well-posed fit's step-2 system is positive definite and no step needs
# a fallback.


@dataclass
class _Setup:
    """One panel's engine inputs, and what its FitResult needs besides them, as the setup of a
    MODELS entry builds them.

    diag_X and index_X are prefixes of one list of lags. start() checks the data of the default
    start and returns the grams to solve it from, this setup's grams() whenever the rows agree. q is
    the engine's index count, which a CIAAR order with no index lag sets to r (_setup_ciaar).
    params(out) builds the model parameters from a checked state, checks(st) makes a batch's stacked
    checks of them (_finished), memo is the gram memo of the data the setup slices (_memo_grams),
    and n_params is the count of free parameters params' n_free_params() gives. warm(init) maps a
    checked start (gamma0, omega0, D0) at the model's orders (_checked_start) to the engine's; warm
    is None when the setup takes no start.
    """

    model: str
    Z: np.ndarray
    diag_X: list
    index_X: list
    ec_X: np.ndarray | None
    q: int
    r: int
    first: int
    means: dict
    start: Callable
    params: Callable
    memo: dict
    n_params: int
    warm: Callable | None = lambda init: init
    checks: Callable = lambda st: {}

    def grams(self) -> "_Grams":
        """The grams of [Z | lags | ec_X], every block the engine or Johansen reads."""
        return _memo_grams(self.memo, self.Z, max(self.diag_X, self.index_X, key=len), self.ec_X)

    @property
    def shape(self) -> tuple:
        """(nd, na, r): the engine's diagonal and index lag counts and rank."""
        return len(self.diag_X), len(self.index_X), self.r

    @property
    def T_eff(self) -> int:
        return self.Z.shape[0]


@dataclass
class _Grams:
    """Stacked cross-products X'X of the target, diagonal, EC and index data.

    M[i] is batch member i's (k n) x (k n) gram of X = [Z | X_1 .. X_k-1],
    its k data blocks of n columns ordered target, diagonal lags, then the
    vec channels (the EC block when present, then the index lags), so
    X_a' X_b is M[i] at rows a n:(a + 1) n and columns b n:(b + 1) n. It is
    the one array held: every reader slices it, Gcc among them, and step2
    keeps copies of two of its slices. Te is the
    members' common effective sample. solved maps a rank r to these grams'
    start regression at r, or the error it raised (_default_starts).
    """

    M: np.ndarray
    n: int
    nd: int
    Te: int
    solved: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, Z, diag_X, ec_X, index_X) -> "_Grams":
        """The grams of one panel's data matrices, as a batch of one."""
        X = np.hstack([Z, *diag_X, *([ec_X] if ec_X is not None else []), *index_X])
        return cls((X.T @ X)[None], Z.shape[1], len(diag_X), Z.shape[0])

    @classmethod
    def stack(cls, members: list) -> "_Grams":
        first = members[0]
        return cls(np.concatenate([g.M for g in members]), first.n, first.nd, first.Te)

    def __getitem__(self, rows) -> "_Grams":
        return _Grams(self.M[rows], self.n, self.nd, self.Te)

    @cached_property
    def step2(self) -> tuple:
        """Step 2's operands no sweep moves, copies of M formed on first read: Gab, G_ab[i, j] at
        [(i, j), (a, b)] (B, n n, C C), and Gc0, G_c0[i, k] at [i, (k, c)] (B, n, n C)."""
        M, n, B, c = self.M, self.n, len(self.M), (1 + self.nd) * self.n
        C = M.shape[-1] // n - 1 - self.nd                 # the vec channels
        Gab = M[:, c:, c:].reshape(B, C, n, C, n).transpose(0, 2, 4, 1, 3).reshape(B, n * n, C * C)
        return Gab, M[:, c:, :n].reshape(B, C, n, n).transpose(0, 2, 3, 1).reshape(B, n, n * C)

    @property
    def Gcc(self) -> np.ndarray:
        """The vec channels' (B, C n, C n) gram, a view of M."""
        c = (1 + self.nd) * self.n
        return self.M[:, c:, c:]


def _memo_grams(memo: dict, Z, lags: list, ec_X) -> _Grams:
    """The gram of [Z | lags | ec_X] (_Grams.of(Z, lags, ec_X, [])), formed
    once per memo and count of rows and lags."""
    key = Z.shape[0], len(lags), ec_X is not None
    if key not in memo:
        memo[key] = _Grams.of(Z, lags, ec_X, [])
    return memo[key]


def _target_grams(g: _Grams, ds: np.ndarray):
    """U'U and X_a'U for U = Z - sum_j X_j diag(d_j), for every data block a.

    ds is (B, nd, n); returns UU (B, n, n) and GU (B, k, n, n). With D the
    stacked diagonals [diag(d_1); ..; diag(d_nd)], X'U = X'Z - X'[X_j]_j D,
    M's target columns less its lag columns times D, and U'U = Z'U -
    D'[X_j'U]_j, one batched product each.
    """
    M, n, nd = g.M, g.n, g.nd
    B = len(M)
    D = np.zeros((B, nd, n, n))
    D[:, :, np.arange(n), np.arange(n)] = ds
    D = D.reshape(B, nd * n, n)
    XU = M[:, :, :n] - M[:, :, n: (1 + nd) * n] @ D
    UU = XU[:, :n] - D.swapaxes(1, 2) @ XU[:, n: (1 + nd) * n]
    return UU, XU.reshape(B, -1, n, n)


def _sa_engine(
    grams: _Grams, q: int, r: int, starts: list, opts: FitOptions, shapes: list | None = None
) -> list:
    """Run the switching algorithm in lockstep on a batch of prepared fits.

    Member i has the grams grams.M[i] and starts from
    starts[i] = (gamma0, omega0, D0), float arrays of shapes (q, r_i),
    (n, q) and nd_i rows of n, as _index_start and _checked_start give
    them (gamma0 read only when 0 < r_i < q). The
    diagonal channels feed the matrices D_j, the index channels the loadings
    alpha_j omega', and the EC channel (levels, present when r > 0) the
    error-correction term alpha0 gamma' omega'. gamma is fixed to I_q when
    r == q and estimated by the reduced-rank eigenstep when 0 < r < q.
    shapes[i] = (nd_i, na_i, r_i), when given, is member i's own count of
    diagonal and index lags and its rank, at most the batch's (nd, na, r);
    its grams of the lags it lacks are identity blocks (_padded_grams).

    Returns each member's final state in order (its final parameters, and
    sigma, step 1's covariance at them), or the exception that ended its
    fit. A state's diagnostics["stop"] says why its sweeps ended: "tol"
    (converged), "max_iter" (the sweep cap, not converged), or
    "no_free_params" (nothing beyond the loadings to estimate, so one OLS
    step is the fit). Its sigma is judged once, after the run (_finished).
    """
    n, nd, Te = grams.n, grams.nd, grams.Te
    na = grams.Gcc.shape[-1] // n - (r > 0)
    shapes = shapes or [(nd, na, r)] * len(starts)
    finals = [None] * len(starts)
    for m, (nd_m, na_m, r_m) in enumerate(shapes):
        try:
            _check_sample(Te, r_m + na_m * q + nd_m)
        except ValueError as exc:
            finals[m] = exc
    members = [m for m, final in enumerate(finals) if final is None]  # member of each row
    if not members:
        return finals
    estimate_omega = q > 0 and (na > 0 or r > 0)
    ds = np.zeros((len(members), nd, n))
    gamma = np.zeros((len(members), q, r))
    for row, m in enumerate(members):
        nd_m, _, r_m = shapes[m]
        if nd_m:
            ds[row, :nd_m] = starts[m][2]
        if 0 < r_m < q:
            gamma[row, :, :r_m] = starts[m][0]
        else:                                          # fixed: I_q when r_m = q
            gamma[row, :, :r_m] = np.eye(q)[:, :r_m]
    st = {                                             # batch state, one row per member
        "grams": grams if len(members) == len(starts) else grams[members],
        "omega": np.stack([starts[m][1] for m in members]),
        "gamma": gamma,
        "ds": ds,
        "alpha0": np.zeros((len(members), n, r)),
        "alphas": np.zeros((len(members), na, n, q)),
    }
    del grams                                          # st holds it until a compaction
    if any(shapes[m][2] != r for m in members):
        st["rank"] = np.array([shapes[m][2] for m in members])
    st["UU"], st["GU"] = _target_grams(st["grams"], ds)   # refreshed whenever D moves
    traces = [[] for _ in starts]
    diagnostics = [{} for _ in starts]

    def loadings_step(st: dict) -> dict:
        # Step 1: OLS for (alpha0, alphas) and sigma given (gamma, omega, D)
        omega, UU = st["omega"], st["UU"]
        weights = ([omega @ st["gamma"]] if r > 0 else []) + [omega] * na  # regressor = X_c @ W_c
        if not weights:
            sigma, out = (UU + UU.transpose(0, 2, 1)) / (2.0 * Te), {}
        else:
            M, v = _normal_blocks(st["grams"].Gcc, weights, st["GU"][:, 1 + nd:])
            if "rank" in st:                           # alpha0 beyond r_i: zero weights
                M[:, np.arange(r), np.arange(r)] += np.arange(r) >= st["rank"][:, None]
            try:
                coef = _solve_pd(M, v)
            except np.linalg.LinAlgError:
                raise SingularDesignError("switching-step design is rank deficient") from None
            coefT = coef.transpose(0, 2, 1)
            sigma = (UU - v.transpose(0, 2, 1) @ coef) / Te   # U'U - v' M^-1 v, at coef = M^-1 v
            sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
            out = {
                "alpha0": coefT[:, :, :r],
                "alphas": coefT[:, :, r:].reshape(len(coef), n, na, q).transpose(0, 2, 1, 3),
            }
        chol = pd_factor(sigma, SIGMA_ERROR)          # step 2's sigma^-1, when it has diagonals
        return {"sigma": sigma, "chol": chol, "ll": cholesky_loglik(chol, Te), **out}

    def index_step(st: dict) -> dict:
        # Step 2: weighted OLS for (Vec(omega'), delta) given the rest
        grams, omega, UU, GU = st["grams"], st["omega"], st["UU"], st["GU"]
        loadings = st["alphas"]                        # omega-channel loadings a_c
        if r > 0:
            ec_loading = st["alpha0"] @ st["gamma"].transpose(0, 2, 1)
            loadings = np.concatenate([ec_loading[:, None], loadings], axis=1)
        theta = _step2_solve(grams, st["sigma"], st["chol"], loadings, nd, q, estimate_omega)
        out = {}
        if nd:
            out["ds"] = theta[:, :nd * n].reshape(len(theta), nd, n)
            out["UU"], out["GU"] = UU, GU = _target_grams(grams, out["ds"])
        if estimate_omega:
            # the rotation is absorbed by step 1's loadings and step 3's gamma,
            # both re-estimated before they are next used
            out["omega"] = omega = _qr_normalize(theta[:, nd * n:].reshape(len(theta), n, q))[0]
        # Step 3: reduced-rank eigenstep for gamma given (omega, D)
        if "rank" in st:                               # only members with 0 < r_i < q
            rank = st["rank"]
            rows = np.flatnonzero((rank > 0) & (rank < q))
            out["gamma"] = gamma = st["gamma"].copy()
            if len(rows):
                Gcc, XU = grams.Gcc[rows], GU[rows, 1 + nd:]
                eig = _rrr_gamma(Gcc, omega[rows], UU[rows], XU, Te, r)
                gamma[rows] = eig * (np.arange(r) < rank[rows, None])[:, None]
        elif 0 < r < q:
            out["gamma"] = _rrr_gamma(grams.Gcc, omega, UU, GU[:, 1 + nd:], Te, r)
        return out

    for it in range(1, opts.max_iter + 1):
        out, st, members = _each_member(loadings_step, st, members, finals)
        if not members:
            break
        lls = out.pop("ll")
        st.update(out)
        stopped = []
        for row, (m, value) in enumerate(zip(members, lls.tolist())):
            trace = traces[m]
            trace.append(value)
            nd_m, na_m, r_m = shapes[m]
            if _converged(trace, opts.tol):
                stop = "tol"
            elif nd_m == 0 and not (q > 0 and (na_m > 0 or r_m > 0)):
                stop = "no_free_params"
            elif it == opts.max_iter:
                stop = "max_iter"
            else:
                continue
            stopped.append(row)
            diagnostics[m]["stop"] = stop
            finals[m] = {
                "omega": st["omega"][row].copy(),
                "gamma": st["gamma"][row, :, :r_m].copy(),
                "alpha0": st["alpha0"][row, :, :r_m].copy(),
                "alphas": list(st["alphas"][row, :na_m].copy()),
                "ds": list(st["ds"][row, :nd_m].copy()),
                "sigma": st["sigma"][row].copy(),
                "trace": np.asarray(trace),
                "converged": stop != "max_iter",
                "iterations": it,
                "diagnostics": diagnostics[m],
            }
        if len(stopped) == len(members):
            break
        if stopped:
            keep = [row for row in range(len(members)) if row not in stopped]
            members = [members[row] for row in keep]
            st = {k: v[keep] for k, v in st.items()}
        out, st, members = _each_member(index_step, st, members, finals)
        if not members:
            break
        st.update(out)
    return finals


def _each_member(phase, st: dict, members: list, finals: list):
    """phase(st) on the whole batch, or member by member when it raises.

    A member whose phase raises on its own leaves the batch with that
    exception as its final state, the one its single fit would raise.
    Returns the phase's outputs, the batch state and the members, all
    restricted to the members still running.
    """
    try:
        return phase(st), st, members
    except (ValueError, np.linalg.LinAlgError) as exc:
        if len(members) == 1:
            finals[members[0]] = exc
            return {}, {}, []
    outs, keep = [], []
    for row, m in enumerate(members):
        try:
            outs.append(phase({k: v[row: row + 1] for k, v in st.items()}))
        except (ValueError, np.linalg.LinAlgError) as exc:
            finals[m] = exc
            continue
        keep.append(row)
    if not keep:
        return {}, {}, []
    out = {k: np.concatenate([o[k] for o in outs]) for k in outs[0]}
    return out, {k: v[keep] for k, v in st.items()}, [members[row] for row in keep]


def _normal_blocks(Gcc: np.ndarray, weights: list, XU: np.ndarray):
    """X1'X1 and X1'U for X1 = [X_c @ W_c], one (B, n, w_c) weight per vec channel.

    Gcc is the vec channels' (B, C n, C n) gram (_Grams.Gcc) and XU their
    (B, C, n, n) cross-products X_c'U. The weights form the block-diagonal
    Wb, so X1'X1 = Wb' Gcc Wb and X1'U = Wb' [X_c'U] in two products.
    """
    B, C, n, _ = XU.shape
    Wb = np.zeros((B, C * n, sum(w.shape[-1] for w in weights)))
    col = 0
    for c, w in enumerate(weights):
        Wb[:, c * n: (c + 1) * n, col: col + w.shape[-1]] = w
        col += w.shape[-1]
    WbT = Wb.transpose(0, 2, 1)
    return WbT @ Gcc @ Wb, WbT @ XU.reshape(B, C * n, n)


def _solve_pd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every A_i x = b_i of a stack of positive definite systems.

    The Cholesky factorization is the positive-definiteness test, and the
    stack is solved by one LU solve. A system that fails the test raises
    LinAlgError(STEP_ERROR), which _each_member turns into that member's
    final state.
    """
    pd_factor(A, STEP_ERROR)
    return np.linalg.solve(A, b)


def _step2_solve(grams, sigma, chol, loadings, nd, q, estimate_omega):
    """Solve the stacked Vec regressions through their normal equations.

    For theta = (delta_1..delta_nd, Vec(omega')) the blocks are
    G_jl * sinv (Hadamard) between diagonals, sum_ab G_ab kron W_ab with
    W_ab = a_a' sinv a_b for omega, and the matching cross terms, G_ab the
    n x n blocks X_a' X_b of grams.M and sinv = sigma^-1. Each product is
    one batched matmul with its slice of M reshaped and transposed to
    (batch, rows, summed index): the omega block sums G_ab[i, j] W_ab[k, l]
    over the channel pairs (a, b), the cross block G_jc[k, K]
    (sinv a_c)[k, m] over c, and the omega right-hand side
    G_c0[i, k] (sinv a_c)[k, m] over (k, c). sigma is (B, n, n), chol its
    Cholesky factors (step 1's) and loadings (B, C, n, q). Only the diagonal
    blocks read sinv itself, so it is formed from chol only when nd > 0;
    with no diagonal channel the omega blocks read sinv A alone, one solve
    against sigma, and there is no cross block. Returns theta as
    (B, nd n + n q), or raises LinAlgError(STEP_ERROR) when a system is not
    positive definite (_solve_pd).
    """
    n, M = grams.n, grams.M
    B = len(M)
    ow = nd * n                                     # start of the Vec(omega') block
    c = n + ow                                      # start of M's vec channels
    k2 = ow + (n * q if estimate_omega else 0)
    G2 = np.empty((B, k2, k2))
    rhs = np.empty((B, k2))
    if nd:
        Linv = np.linalg.inv(chol)
        sinv = Linv.transpose(0, 2, 1) @ Linv
        G2[:, :ow, :ow] = (M[:, n:c, n:c].reshape(B, nd, n, nd, n) * sinv[:, None, :, None]).reshape(B, ow, ow)
        rhs[:, :ow] = (M[:, n:c, :n].reshape(B, nd, n, n) * sinv.swapaxes(1, 2)[:, None]).sum(-1).reshape(B, ow)
    if estimate_omega:
        Gab, Gc0 = grams.step2
        A = np.asarray(loadings)                    # (B, C, n, q) channel loadings a_c
        C = A.shape[1]
        A = A.transpose(0, 2, 1, 3).reshape(B, n, C * q)    # [a_1 .. a_C]
        SA = sinv @ A if nd else np.linalg.solve(sigma, A)
        # W_ab[k, l] = (a_a' sinv a_b)[k, l] at [(a, b), (k, l)]
        W = (A.swapaxes(1, 2) @ SA).reshape(B, C, q, C, q).transpose(0, 1, 3, 2, 4)
        omega_block = (Gab @ W.reshape(B, C * C, q * q)).reshape(B, n, n, q, q)
        G2[:, ow:, ow:] = omega_block.transpose(0, 1, 3, 2, 4).reshape(B, n * q, n * q)
        SA = SA.reshape(B, n, C, q)                 # (sinv a_c)[k, m] at [k, c, m]
        if nd:
            cross = M[:, n:c, c:].reshape(B, nd, n, C, n).transpose(0, 1, 2, 4, 3) @ SA[:, None]
            G2[:, :ow, ow:] = cross.reshape(B, ow, n * q)
            G2[:, ow:, :ow] = G2[:, :ow, ow:].transpose(0, 2, 1)
        rhs[:, ow:] = (Gc0 @ SA.reshape(B, n * C, q)).reshape(B, n * q)
    return _solve_pd(G2, rhs[:, :, None])[:, :, 0]


def _rrr_gamma(Gcc, omega, UU, XU, Te: int, r: int) -> np.ndarray:
    """The r leading eigenvectors of the reduced-rank regression of the
    diagonal-adjusted targets U on the lagged index levels E = ec_X omega,
    concentrated on the weighted index lags F. The step-1 normal blocks
    with every vec channel weighted by omega hold the grams of [E | F], the
    target grams UU and XU (the vec channels' X_c'U) at the current D the
    rest. omega is (B, n, q); returns gamma (B, q, r).
    """
    n, q = omega.shape[1:]
    M, v = _normal_blocks(Gcc, [omega] * XU.shape[1], XU)
    UEF = np.concatenate([np.concatenate([UU, v.swapaxes(1, 2)], 2), np.concatenate([v, M], 2)], 1)
    (_, vecs), _, _ = _reduced_rank(UEF, slice(0, n), slice(n + q, None), slice(n, n + q), Te)
    return fix_signs(vecs[:, :, :r])


def _reduced_rank(M, y, w, x, Te: int):
    """The reduced-rank regression of block y on block x of the stacked gram
    M, both concentrated on block w (y, w, x slice M's rows). Returns
    _solve_rrr_eig's solution, the concentrated moments S (the Schur
    complement of M[w, w], over Te) and sol = M[w, w]^-1 M[w, :] (_solve_pd)."""
    sol = _solve_pd(M[:, w, w], M[:, w])
    S = (M - M[:, :, w] @ sol) / Te
    S00, S11 = ((A + A.swapaxes(1, 2)) / 2.0 for A in (S[:, y, y], S[:, x, x]))
    return _solve_rrr_eig(S00, S[:, y, x], S11), S, sol


def _solve_rrr_eig(S00, S01, S11):
    """Sorted solutions of the generalized eigenproblem S10 S00^-1 S01 v = l S11 v.

    Solved through the Cholesky factor of S11 so the eigenvalues are the
    squared canonical correlations, all in [0, 1). Leading axes are a stack
    of problems, each solved and sorted on its own. An S11, the level
    moments, that is not positive definite (pd_factor), or whose squared
    Cholesky pivots have least over largest at most SIGMA_RTOL, raises
    LinAlgError(RRR_ERROR): the sigma guard's margin, taken on the factor
    every step-3 sweep forms instead of on eigenvalues. The pivots lie
    between S11's extreme eigenvalues, so their ratio is never below the
    eigenvalue ratio, and no S11 the guard (sigma_cond) accepts is refused.
    """
    L = pd_factor(S11, RRR_ERROR)
    pivots = L.diagonal(0, -2, -1) ** 2
    if pivots.size and not (pivots.min(-1) > SIGMA_RTOL * pivots.max(-1)).all():
        raise np.linalg.LinAlgError(RRR_ERROR)
    Linv = np.linalg.inv(L)
    LinvT = Linv.swapaxes(-1, -2)
    mid = np.linalg.solve(S00, S01)
    core = Linv @ (S01.swapaxes(-1, -2) @ mid) @ LinvT
    vals, W = np.linalg.eigh((core + core.swapaxes(-1, -2)) / 2.0)
    # eigh sorts ascending, so reversing gives the descending order
    vals = vals[..., ::-1]
    vecs = LinvT @ W[..., ::-1]
    return vals, vecs


# ---------------------------------------------------------------------------
# from setups to fits: default starts, lockstep engine groups, finishing
# ---------------------------------------------------------------------------


def _engine_states(q: int, shapes: list, grams: list, starts: list, opts: FitOptions,
                   size=None) -> list:
    """Each member's final engine state, or the exception that ended its fit, in order.

    Member i has the engine shape shapes[i] = (nd, na, r), its grams of
    [Z | lags | ec_X] grams[i] (_Setup.grams) and the start starts[i] =
    (gamma0, omega0, D0), or the exception solving it raised, which is its
    outcome. The members whose starts hold run as one lockstep engine batch
    of index count q, padded to size = (nd, na, r), by default their largest
    (_padded_grams). The padded grams are handed to the engine alone, so
    they are freed at the engine's first compaction.
    """
    outcomes = list(starts)
    group = [i for i, start in enumerate(starts) if not isinstance(start, Exception)]
    if group:
        shapes = [shapes[i] for i in group]
        size = size or tuple(map(max, zip(*shapes)))
        states = _sa_engine(_padded_grams([grams[i] for i in group], shapes, size), q, size[2],
                            [starts[i] for i in group], opts, shapes)
        for i, state in zip(group, states):
            outcomes[i] = state
    return outcomes


def _padded_grams(fulls: list, shapes: list, size: tuple) -> _Grams:
    """The engine grams of a group of size (nd, na, r). Member i's slot holds its grams of
    [Z | lags | ec_X] in the engine's block order: the target, its nd_i diagonal lags, ec_X (if
    r > 0) and its na_i index lags. Each lag it lacks gets an identity gram and no cross-products,
    so that lag's coordinates decouple in every step with a zero right-hand side. One fancy index
    gathers the members of each (nd_i, na_i), all of fit_many's, or, in block order already (all
    of the group's size, no EC block and no lag both diagonal and index), stacks them."""
    nd, na, r = size
    k, n = 1 + nd + (r > 0) + na, fulls[0].n
    if r == 0 == nd * na and fulls[0].M.shape[-1] == k * n and {*shapes} == {size}:
        return _Grams(np.concatenate([g.M for g in fulls]), n, nd, fulls[0].Te)   # in block order
    M = np.zeros((len(fulls), k * n, k * n))
    M[:, np.arange(k * n), np.arange(k * n)] = 1.0     # kept only at the lags a member lacks
    for nd_i, na_i in {shape[:2] for shape in shapes}:
        rows = [i for i, shape in enumerate(shapes) if shape[:2] == (nd_i, na_i)]
        ec = [1 + fulls[rows[0]].nd] if r > 0 else []
        src = [*range(1 + nd_i), *ec, *range(1, 1 + na_i)]
        dst = [*range(1 + nd_i), *range(1 + nd, 1 + nd + len(ec) + na_i)]
        src, dst = ((n * np.array(blocks)[:, None] + np.arange(n)).ravel() for blocks in (src, dst))
        M[np.ix_(rows, dst, dst)] = _Grams.stack([fulls[i] for i in rows]).M[:, src[:, None], src]
    return _Grams(M, n, nd, fulls[0].Te)


def _finished(states: list, setup: _Setup | None = None, sources=(), means=()) -> list:
    """One engine run's outcomes finished as one batch, in order: each state's sigma takes the
    guard (sigma_cond), its ratio kept in diagnostics. With fit_many's setup, common to the
    batch, member i also takes its params' checks the engine does not prove (omega's rank if no
    step 2 ran, as one leaves QR's Q, and setup.checks), and becomes a FitResult with means[i],
    params built once (from_checked) and residuals formed from sources[i]() if read. Each check
    is one stacked call, rerun member by member when it raises (_each_member), so a member that
    fails keeps its single fit's exception and the others finish."""

    def checks(st):
        out = {"sigma_cond": sigma_cond(st["sigma"])}
        if setup is not None:
            once = st["iterations"] == 1
            if once.any():
                _check_full_rank(st["omega"][once], "omega")
            out.update(setup.checks(st))
        return out

    outcomes, live = list(states), [i for i, state in enumerate(states) if isinstance(state, dict)]
    if not live:
        return outcomes
    keys = ("sigma",) if setup is None else ("sigma", "omega", "gamma", "alpha0", "iterations")
    st = {k: np.stack([states[i][k] for i in live]) for k in keys}
    out, _, live = _each_member(checks, st, live, outcomes)
    for row, i in enumerate(live):
        state = states[i]
        state["diagnostics"]["sigma_cond"] = float(out["sigma_cond"][row])
        if setup is not None:
            outcomes[i] = FitResult(
                setup.model, setup.params({**state, **{k: v[row] for k, v in out.items()}}),
                state["trace"], _Deferred(partial(_residuals, sources[i], state), setup.T_eff),
                state["converged"], state["iterations"], setup.first, means[i], state["diagnostics"])
    return outcomes


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _residuals(source: Callable, state: dict) -> np.ndarray:
    """A member's residuals at its engine state, by one dense pass over the data of source()."""
    setup = source()
    omega, resid = state["omega"], setup.Z.copy()
    for d, X in zip(state["ds"], setup.diag_X):
        resid -= X * d
    if setup.r > 0:
        resid -= (setup.ec_X @ (omega @ state["gamma"])) @ state["alpha0"].T
    for X, a in zip(setup.index_X, state["alphas"]):
        resid -= (X @ omega) @ a.T
    return resid


def _checked_start(init: tuple, n: int, nd: int, q: int, r: int) -> tuple:
    """init = (gamma0, omega0, D0) at a model's n, nd diagonal lags, q and r as float arrays of
    shapes (q, r), (n, q) and (nd, n), each refused by name unless it reshapes to its shape.
    gamma0 is read only when 0 < r < q; elsewhere it is I_q's first r columns, as the engine's."""
    gamma0, omega0, d0 = init
    omega0 = np.asarray(omega0, float)
    if omega0.size != n * q:
        raise ValueError(f"omega0 has shape {omega0.shape}, expected ({n}, {q})")
    sizes = None if d0 is None else [np.size(d) for d in d0]
    if sizes is None or sizes != [n] * nd:
        raise ValueError(f"D0 holds vectors of lengths {sizes}, expected {nd} of length {n}")
    if 0 < r < q:
        gamma0 = np.asarray(gamma0, float)
        if gamma0.size != q * r:
            raise ValueError(f"gamma0 has shape {gamma0.shape}, expected ({q}, {r})")
    return (gamma0.reshape(q, r) if 0 < r < q else np.eye(q, r), omega0.reshape(n, q),
            np.asarray(d0, float).reshape(nd, n))


def fit_many(
    model: str,
    panels,
    opts: FitOptions | None = None,
    t_start: int | None = None,
    init: tuple | None = None,
    **orders,
):
    """Fit one model at fixed orders to equal-length panels in one lockstep run.

    model is a MODELS entry with an engine setup, and orders are the orders its fitter takes, by
    keyword (p=2, s=2, q=2, r=1 for "ciaar"); each single fitter is this function on one panel,
    and this is the one entry for a fit's first target row and its start. Every panel is demeaned
    (_demeaned), and its first regression target is row t_start when that is later than its lags
    need. Each starts from its own default starting values, solved together (_default_starts)
    from the start grams kept, with its grams, as its setup goes; or from init = (gamma0, omega0,
    D0) when given, checked once at the model's orders (_checked_start: omega0 must reshape to
    (n, q), D0 hold nd vectors of length n, and gamma0 reshape to (q, r) where 0 < r < q, else
    ValueError names it and the shape expected) and mapped by the setup's warm(): a CIAAR order
    with s <= 1 starts from the basis of beta0 = omega0 gamma0 (_setup_ciaar), refused unless
    full rank (_check_full_rank), and one with p <= 1 too is Johansen's fit, whose default start
    is its maximum, so init is neither checked nor used. Each fit keeps its own trace and stop
    reason. The last panel's setup is built first, so an invalid order or init raises here.
    Returns an iterator over the FitResults in panel order; the switching and the batch finish
    (_finished) run before this returns, and a fit's residuals are formed only if read, from its
    panel's setup built again (the last panel's is held). A panel whose fit fails does not stop
    the others: the iterator raises that fit's exception in its turn and goes on. The diagonal
    IAAR (q = 0) runs the engine too. Raises ValueError when the panels differ in length or width.
    """
    panels = list(panels)
    build = MODELS[model].setup if model in MODELS else None
    if build is None:
        raise ValueError(f"fit_many cannot fit model {model!r}")
    if not panels:
        raise ValueError("no panels to fit")
    if len({(Y.T, Y.n) for Y in panels}) > 1:
        raise ValueError("fit_many needs panels of equal length and width")
    make_setup = partial(build, t_start=t_start, **orders)
    last = make_setup(panels[-1])
    start = None
    if init is not None and last.warm is not None:
        start = last.warm(_checked_start(init, panels[0].n, last.shape[0], orders["q"], last.r))
    sources = [partial(make_setup, Y) for Y in panels[:-1]] + [lambda: last]
    means, grams, inits = [], [], []
    for source in sources:                             # each setup goes as the next is built
        setup = source()
        means.append(setup.means)
        grams.append(setup.grams())
        if start is None:
            inits.append(_start_or_error(setup))
    (nd, _, r), q = last.shape, last.q
    starts = [start] * len(panels) if start is not None else _default_starts(inits, r, nd, q)
    states = _engine_states(q, [last.shape] * len(panels), grams, starts, opts or FitOptions())
    return map(_raised, _finished(states, last, sources, means))


# ---------------------------------------------------------------------------
# MAI and IAAR: one setup on the lags of the levels
# ---------------------------------------------------------------------------


def _setup_levels(
    model: str, Y: Panel, p: int, nd: int, na: int, q: int, t_start: int | None,
    data, params: Callable, n_params: int,
):
    """The setup of a model on the p lags of Y's levels, its diagonal lags
    the first nd of them and its index lags the first na, both prefixes of
    one list: MAI is (0, p), IAAR (p, s), or (p, 0) when q = 0. The default
    start regresses on all p lags."""
    values, _, means, memo = data or _demeaned(Y)
    first = max(p, t_start or 0)
    Z = values[first:]
    lags = [values[first - j: Y.T - j] for j in range(1, p + 1)]
    _check_sample(Z.shape[0], Y.n * p)
    return _Setup(
        model, Z, lags[:nd], lags[:na], None, q, 0, first, dict(means),
        lambda: _start_grams(Z, lags, None, 0, memo), params, memo, n_params,
    )


def _setup_mai(Y: Panel, p: int, q: int, t_start: int | None = None, data=None):
    MAIParams.check_orders(Y.n, p, q)
    return _setup_levels(
        "mai", Y, p, 0, p, q, t_start, data,
        lambda out: MAIParams.from_checked(out["omega"], out["alphas"], out["sigma"]),
        MAIParams.count(Y.n, p, q),
    )


def fit_mai(Y: Panel, p: int, q: int, opts: FitOptions | None = None) -> FitResult:
    """Switching-algorithm ML fit of the multivariate autoregressive index model.

    Runs the gram engine with the p level lags as index channels:
    alternates OLS for the loadings given omega with the Vec-rewritten
    normal equations for omega given the loadings. q = n reproduces the
    unrestricted VAR. The starting omega spans the leading right-singular
    subspace of the stacked OLS VAR coefficients.
    """
    return next(fit_many("mai", [Y], opts, p=p, q=q))


# ---------------------------------------------------------------------------
# VHARI
# ---------------------------------------------------------------------------


def _setup_vhari(Yd: Panel, q: int, t_start: int | None = None):
    n = Yd.n
    VHARIParams.check_orders(n, q)
    values, mu = _demean(Yd.values)
    first = max(HAR_WINDOWS[-1], t_start or 0)   # its regressors are full-window means
    Z = values[first:]
    X = [A[first - 1: Yd.T - 1] for A in (values, *har_means(values))]
    _check_sample(Z.shape[0], 3 * n)
    memo = {}
    return _Setup(
        "vhari", Z, [], X, None, q, 0, first, {"level": mu},
        lambda: _start_grams(Z, X, None, 0, memo),
        lambda out: VHARIParams.from_checked(out["omega"], *out["alphas"], out["sigma"]), memo,
        VHARIParams.count(n, q),
    )


def fit_vhari(Yd: Panel, q: int, opts: FitOptions | None = None) -> FitResult:
    """Switching-algorithm fit of the vector heterogeneous autoregressive index model.

    The daily panel is demeaned once, the weekly and monthly aggregates are
    rebuilt from the demeaned dailies (so the fitted indexes inherit the
    5/22-day cascade identities exactly), and the SA runs on the three
    aggregate regressors.
    """
    return next(fit_many("vhari", [Yd], opts, q=q))


# ---------------------------------------------------------------------------
# IAAR
# ---------------------------------------------------------------------------


def _setup_iaar(Y: Panel, p: int, s: int, q: int, t_start: int | None = None, data=None):
    IAARParams.check_orders(Y.n, p, s, q)
    na = s if q else 0                                 # omega is n x 0: no index channel
    return _setup_levels(
        "iaar", Y, p, p, na, q, t_start, data,
        lambda out: IAARParams.from_checked(out["ds"], out["alphas"], out["omega"], out["sigma"]),
        IAARParams.count(Y.n, p, na, q),
    )


def fit_iaar(Y: Panel, p: int, s: int, q: int, opts: FitOptions | None = None) -> FitResult:
    """Switching-algorithm fit of the index-augmented autoregression.

    Runs the same machinery as the cointegrated model with no
    error-correction term, on levels. q = 0 drops the index channel: the
    diagonal VAR, whose equations share sigma but not regressors, so its ML
    alternates sigma with the GLS solve for the diagonals, not equation-wise OLS.
    """
    return next(fit_many("iaar", [Y], opts, p=p, s=s, q=q))


def _svd_truncate(stack: np.ndarray, q: int, rebuild: bool = True):
    """Leading right-singular vectors and, with rebuild (else None), the rank-q reconstruction
    of each matrix of a stack (numpy sorts the singular values descending)."""
    U, sv, Vh = np.linalg.svd(stack, full_matrices=False)
    Vq = Vh[..., :q, :]
    bar = (U[..., :q] * sv[..., None, :q]) @ Vq if rebuild else None
    return fix_signs(Vq.swapaxes(-1, -2)), bar


# ---------------------------------------------------------------------------
# Johansen reduced-rank regression, from its moments
# ---------------------------------------------------------------------------


def _ec_data(Y: Panel, m: int, data: tuple, t_start: int | None = None):
    """dY_t, its m lags, Y_{t-1}, the first target row and the means of the
    EC regressions, sliced from data (Y's _demeaned, with differences)."""
    levels, dvalues, means, _ = data
    first = max(m + 1, t_start or 0)
    lags = [dvalues[first - 1 - j: Y.T - 1 - j] for j in range(1, m + 1)]
    return dvalues[first - 1:], lags, levels[first - 1: Y.T - 1], first, dict(means)


def _start_grams(Z, lags, ec_X, r: int, memo: dict | None = None) -> _Grams:
    """The grams of [Z | lags | ec_X] (from memo, _memo_grams) a default
    start is solved from, once r, the sample size and the lag design pass
    their checks. The lag design takes check_rank's singular-value test,
    whose SVD runs only when the lag block of the grams cannot certify it
    (_certifies_rank), so every accept, reject and message is that test's.
    The memo keeps the certificate's verdict, one per count of rows and
    lags."""
    if not 0 <= r < Z.shape[1]:
        raise ValueError(f"need 0 <= r < n, got r={r}")
    _check_sample(Z.shape[0], len(lags) * Z.shape[1] + r)
    memo = {} if memo is None else memo
    full = _memo_grams(memo, Z, lags, ec_X)
    if lags:
        key = "rank certified", Z.shape[0], len(lags)
        if key not in memo:
            x = slice(full.n, (1 + len(lags)) * full.n)     # the lag block of the gram
            memo[key] = _certifies_rank(full.M[0, x, x], Z.shape[0])
        if not memo[key]:
            check_rank(np.hstack(lags))
    return full


def _certifies_rank(gram: np.ndarray, T: int) -> bool:
    """Whether the computed k x k gram X'X of a T x k design X proves that
    X passes check_rank: whether one Cholesky factorization of the gram
    shifted down by d = 2 (2 T + 2 k + 3) eps t, t its trace, runs to
    completion.

    With u = eps, forming X'X perturbs it by E with |E_ij| <= T u |x_i| |x_j|
    (each entry is a T-term dot product), so ||E|| <= T u trace(X'X) <=
    2 T u t. Subtracting d from the diagonal rounds each diagonal entry by
    at most u t. A Cholesky factorization that completes on a symmetric A
    gives R with R'R = A + F, |F| <= g |R'| |R| and g = (k + 1) u / (1 -
    (k + 1) u) (Higham 2002, section 10.1; the analysis needs only that it
    completes), so ||F|| <= g trace(R'R) <= 2 (k + 1) u t; R'R is
    semidefinite, so the least eigenvalue of A is at least -||F||.
    Together the true least eigenvalue of X'X is at least
    d - (2 T + 2 k + 3) u t = (2 T + 2 k + 3) u t, and its largest at most
    about t, so sigma_min^2 / sigma_max^2 exceeds 2 T eps >= 4e-16, far
    above RANK_RTOL^2 = 1e-20, and the SVD test passes. When the
    factorization fails the gram cannot tell, and the SVD decides.
    """
    k = len(gram)
    shift = 2.0 * (2 * T + 2 * k + 3) * np.finfo(float).eps * np.trace(gram)
    try:
        np.linalg.cholesky(gram - shift * np.eye(k))
    except np.linalg.LinAlgError:
        return False
    return True


def _johansen(grams: _Grams, r: int) -> dict:
    """Johansen's reduced-rank regression on stacked grams of
    [dY_t | dY_{t-1} .. dY_{t-m} | Y_{t-1}], read from grams.M as they are:
    beta holds the r leading eigenvectors, alpha0 and the Pi_j solve the
    normal equations given beta. Returns the eigenvalues, beta, alpha0 and
    the Pi_j (B, m, n, n).
    """
    M, n = grams.M, grams.n
    L = slice(M.shape[-1] - n, None)
    (vals, vecs), S, sol = _reduced_rank(M, slice(0, n), slice(n, L.start), L, grams.Te)
    beta = fix_signs(vecs[:, :, :r])
    betaT = beta.swapaxes(1, 2)
    alpha0 = np.linalg.solve(betaT @ S[:, L, L] @ beta, betaT @ S[:, L, :n]).swapaxes(1, 2)
    pisT = (sol[:, :, :n] - sol[:, :, -n:] @ beta @ alpha0.swapaxes(1, 2)).reshape(len(M), -1, n, n)
    return {"vals": vals, "beta": beta, "alpha0": alpha0, "pis": pisT.swapaxes(2, 3)}


def johansen_rrr(Y: Panel, p: int, r: int) -> FitResult:
    """Johansen's reduced-rank regression for the VECM with p - 1 lagged differences.

    Solved from moments: the concentrated moments are Schur complements of
    the grams of [dY_t | lagged differences | Y_{t-1}], beta the
    eigenvectors of the r largest canonical correlations, and the other
    coefficients solve the normal equations given beta; one pass over the
    data forms the residuals. The lag design takes check_rank's test
    (SingularDesignError) and sigma, before any params are built, the guard
    once (sigma_cond, whose ratio diagnostics["sigma_cond"] holds);
    diagnostics["eigenvalues"] holds the eigenvalues.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    data = _demeaned(Y, differences=True)
    Z, lags, ec_X, first, means = _ec_data(Y, p - 1, data)
    jo = _johansen(_start_grams(Z, lags, ec_X, r), r)
    alpha0, beta, pis = jo["alpha0"][0], jo["beta"][0], list(jo["pis"][0])
    resid = Z - (ec_X @ beta) @ alpha0.T - sum(X @ pi.T for X, pi in zip(lags, pis))
    sigma = resid.T @ resid / Z.shape[0]
    diagnostics = {"eigenvalues": jo["vals"][0], "sigma_cond": sigma_cond(sigma)}
    ll = cholesky_loglik(pd_factor(sigma, SIGMA_ERROR), Z.shape[0])
    return FitResult(
        "vecm", VECMParams(alpha0, beta, pis, sigma), np.asarray([ll]), resid, True, 1, first,
        means=means, diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Starting values: the Johansen start, and the SVD truncation of every start
# ---------------------------------------------------------------------------


def _default_starts(inits: list, r: int, nd: int, q: int) -> list:
    """The default starts of one batch of fits of rank r, nd diagonal lags
    and engine index count q, in order. inits holds each fit's start grams
    (its setup's start()), or the exception building them raised, which is
    returned as it is. The grams not yet solved at r (_Grams.solved) are
    regressed in one stacked _start_regression, a member whose regression
    fails on its own getting its exception, and the solutions are truncated
    in one _index_start."""
    fresh = [g for g in inits if isinstance(g, _Grams) and r not in g.solved]
    if fresh:
        out = [None] * len(fresh)
        jo, _, alive = _each_member(lambda st: _start_regression(st["grams"], r),
                                    {"grams": _Grams.stack(fresh)}, [*range(len(fresh))], out)
        for row, k in enumerate(alive):
            out[k] = {key: v[row: row + 1] for key, v in jo.items()}
        for g, solution in zip(fresh, out):
            g.solved[r] = solution
    starts = [g.solved[r] if isinstance(g, _Grams) else g for g in inits]
    ok = [i for i, start in enumerate(starts) if isinstance(start, dict)]
    if ok:
        stacked = {key: np.concatenate([starts[i][key] for i in ok]) for key in starts[ok[0]]}
        for i, start in zip(ok, _index_start(stacked, nd, q)):
            starts[i] = start
    return starts


def _start_or_error(setup: _Setup):
    """setup.start()'s grams, or the exception its checks raised."""
    try:
        return setup.start()
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc


def _start_regression(grams: _Grams, r: int) -> dict:
    """What a default start truncates, from its stacked grams: Johansen's
    rank-r estimates when they hold the levels block (_ec_data's Y_{t-1}),
    else the VAR coefficients of the target on the lags by their normal
    equations (_solve_pd)."""
    if grams.Gcc.shape[-1]:
        return _johansen(grams, r)
    M, n = grams.M, grams.n
    C = _solve_pd(M[:, n:, n:], M[:, n:, :n])
    return {"pis": C.reshape(len(M), -1, n, n).swapaxes(2, 3), "beta": np.zeros((len(M), n, 0))}


def _index_start(jo: dict, nd: int, q: int) -> list:
    """Index starting values (gamma0, omega0, D0) from stacked VAR or VECM
    coefficients, one per member: jo["pis"] (B, m, n, n), and "alpha0" and
    "beta" (B, n, r). The first nd lags keep their own diagonals apart."""
    pis, beta = jo["pis"], jo["beta"]
    B, m, n, _ = pis.shape
    r = beta.shape[-1]
    stripped = pis
    if nd:
        # strip the diagonal only where the model grants it own-lag freedom; for
        # the remaining lags the diagonal belongs to the index signal
        own = np.einsum("bjii->bji", pis[:, :nd])
        stripped = pis.copy()
        stripped[:, :nd, np.arange(n), np.arange(n)] = 0.0
    blocks = [stripped.reshape(B, m * n, n)] + ([jo["alpha0"] @ beta.swapaxes(1, 2)] if r else [])
    stack = np.concatenate(blocks, axis=1)
    if stack.shape[1] == 0:                            # no lag (so nd = 0) and r = 0
        return [(np.zeros((q, r)), np.eye(n)[:, :q], []) for _ in range(B)]
    omega0, bar = _svd_truncate(stack, q, rebuild=nd > 0)   # only D0 reads the reconstruction
    d0 = own - np.einsum("bjii->bji", bar[:, :nd * n].reshape(B, nd, n, n)) if nd else [[]] * B
    gamma0 = omega0.swapaxes(1, 2) @ beta              # omega0 has orthonormal columns
    return [(g, o, list(d)) for g, o, d in zip(gamma0, omega0, d0)]


# ---------------------------------------------------------------------------
# CIAAR
# ---------------------------------------------------------------------------


def _setup_ciaar(Y: Panel, p: int, s: int, q: int, r: int, t_start: int | None = None, data=None):
    n = Y.n
    CIAARParams.check_orders(n, p, s, q, r)
    nd, na = max(p - 1, 0), max(s - 1, 0)
    # with no index lag omega enters only through beta = omega gamma: run the
    # identified equivalent (p, s, r, r), gamma = I_r, and complete omega in params
    q_fit = q if na else r
    data = data or _demeaned(Y, differences=True)
    Z, lags, ec_X, first, means = _ec_data(Y, max(nd, na), data, t_start)

    def start() -> _Grams:
        # Johansen's rows, whose grams are grams() unless t_start moves the engine's later
        return _start_grams(*_ec_data(Y, len(lags), data)[:3], r, data[3])

    def params(out):
        omega, gamma = out["omega"], out["gamma"]
        if q_fit < q:
            omega = np.hstack([omega, orth_complement(omega)[:, :q - r]])
            gamma = np.eye(q, r)
        if out.get("gamma_unnormalized"):
            out["diagnostics"]["gamma_unnormalized"] = True
        return CIAARParams.from_checked(out["ds"], out["alpha0"], gamma, omega, out["alphas"], out["sigma"])

    def checks(st):
        if not 0 < r < q_fit:                          # else gamma is I_q's first r columns
            return {}
        gamma, alpha0, unnormalized = _normalize_gamma(st["gamma"], st["alpha0"])
        _check_full_rank(gamma, "gamma")
        _check_full_rank(st["omega"] @ gamma, "beta = omega gamma")
        return {"gamma": gamma, "alpha0": alpha0, "gamma_unnormalized": unnormalized}

    def warm(init):
        # the identified equivalent starts from the basis of beta0 = omega0 gamma0
        if q_fit == q:
            return init
        gamma0, omega0, d0 = init
        beta0 = omega0 @ gamma0
        _check_full_rank(beta0, "beta0 = omega0 gamma0")   # else its basis would be arbitrary
        return np.eye(r), _qr_normalize(beta0)[0], d0

    # with no short-run lag the fit is Johansen's, and the default start its maximum
    return _Setup(
        "ciaar", Z, lags[:nd], lags[:na], ec_X, q_fit, r, first, means, start, params, data[3],
        CIAARParams.count(n, nd, na, q, r), None if nd == na == 0 else warm, checks,
    )


def fit_ciaar(Y: Panel, p: int, s: int, q: int, r: int, opts: FitOptions | None = None) -> FitResult:
    """Switching-algorithm ML fit of the cointegrated index-augmented model.

    Y holds I(1) levels. The model carries p - 1 diagonal difference lags,
    s - 1 index difference lags, and (for r >= 1) the error-correction term
    alpha0 gamma' omega' Y_{t-1}; p = 0 drops the diagonal channel entirely
    (the vector error-correction index model), and r = 0 drops the
    error-correction term (an index-augmented model in differences). gamma
    is fixed to the identity when r = q; for 0 < r < q it is re-estimated
    each sweep from the reduced-rank eigenproblem. It starts from the
    Johansen/SVD starting values (fit_many takes another start, or a later first row).

    With s <= 1 there is no index lag, so the likelihood sees omega only
    through beta = omega gamma, identified up to an r x r rotation. Such an
    order is fit as its identified equivalent (p, s, r, r) (q = 0 when
    r = 0) and reported with
    omega = [omega_r | orth_complement(omega_r)[:, :q - r]] and
    gamma = [I_r; 0]: the same beta, alpha0, D and sigma, and the parameter
    count of (p, s, q, r). With p <= 1 too, the fit is Johansen's.
    """
    return next(fit_many("ciaar", [Y], opts, p=p, s=s, q=q, r=r))


def _normalize_gamma(gamma: np.ndarray, alpha0: np.ndarray):
    """Each (gamma, alpha0) of a stack with gamma's leading r x r block scaled to the identity
    (reporting only), or left, and flagged, where that block is not full rank."""
    r = gamma.shape[-1]
    keep = ~full_rank(np.linalg.svd(gamma[:, :r], compute_uv=False))[:, None, None]
    head = np.where(keep, np.eye(r), gamma[:, :r])
    return (np.where(keep, gamma, gamma @ np.linalg.inv(head)),
            np.where(keep, alpha0, alpha0 @ head.swapaxes(1, 2)), keep[:, 0, 0])


def _setup_vecim(Y: Panel, p: int, q: int, r: int, t_start: int | None = None):
    setup = _setup_ciaar(Y, 0, p, q, r, t_start)   # checks CIAAR's q, then r
    if p < 1:
        raise ValueError("need p >= 1")
    setup.model = "vecim"
    return setup


def fit_vecim(Y: Panel, p: int, q: int, r: int, opts: FitOptions | None = None) -> FitResult:
    """Fit of the vector error-correction index model.

    dY_t = alpha0 gamma' f_{t-1} + sum_{j<p} alpha_j df_{t-j} + e_t with
    f = omega'Y. This is fit_ciaar with no diagonal channel and s = p, run
    from the same Johansen/SVD start and labelled "vecim", so p = 1 is fit as
    its identified equivalent (1, r, r) and reported at q (fit_ciaar). The
    row-level Vec/Kronecker loop in tests/rowlevel.py is the independent
    check of it.
    """
    return next(fit_many("vecim", [Y], opts, p=p, q=q, r=r))


class _Model(NamedTuple):
    """A MODELS entry: the orders, among (p, s, q, r), the model's fitter
    takes by keyword; the setup of its switching-engine fit (None for a
    closed-form fit); and the params class simulate draws it from, whose
    check_orders(n, *orders) is the fitter's order rule (None when it is
    not simulated)."""

    orders: tuple
    setup: Callable | None
    simulated: type | None


MODELS = {
    "mai": _Model(("p", "q"), _setup_mai, MAIParams),
    "vhari": _Model(("q",), _setup_vhari, VHARIParams),
    "iaar": _Model(("p", "s", "q"), _setup_iaar, IAARParams),
    "ciaar": _Model(("p", "s", "q", "r"), _setup_ciaar, CIAARParams),
    "vecim": _Model(("p", "q", "r"), _setup_vecim, None),
    "vecm": _Model(("p", "r"), None, None),
    "drvar": _Model(("p", "q"), None, DRVARParams),
}


# ---------------------------------------------------------------------------
# fitting one panel at many orders: the selection grid
# ---------------------------------------------------------------------------


def _grid_setup(model: str, Y: Panel, orders: tuple, t_start: int, data=None) -> _Setup:
    """A candidate's setup at orders (p, s, q, r); data, when given, is the
    panel's _demeaned data, shared by every candidate's setup."""
    named = dict(zip("psqr", orders))
    keywords = {k: named[k] for k in MODELS[model].orders}
    return MODELS[model].setup(Y, **keywords, t_start=t_start, data=data)


PRUNE_RTOL = 1e-8   # a pruned candidate's criterion bound exceeds the best fitted one by this


def _fit_grid(
    model: str, Y: Panel, candidates: list, opts: FitOptions, t_start: int,
    criterion: Callable | None = None,
):
    """Fit one panel at every candidate (p, s, q, r) of a selection grid.

    model is "mai" (candidates (p, p, q, 0)), "iaar" (r = 0, q >= 1) or "ciaar". Every candidate's
    first regression target is panel row t_start, and its setup slices one demeaned copy of the
    panel. Candidates whose setups run the same engine fit (a CIAAR order with s = 1 and its
    identified equivalent, _setup_ciaar) are fit once and the others share its state. The distinct
    fits of each engine q form a group, and the groups run one after another in this process, in
    ascending q, each through _engine_states padded to the largest lags and rank of all its fits;
    its states are judged in one batch finish (_finished) as it returns, and none becomes a
    FitResult or a params container. Each fit's default start is solved alone, its regression kept
    on the start grams its lags share (_Grams.solved).

    criterion(loglik, n_params, T_eff), when given, is the score the grid
    is searched for, and the grid prunes by it. Each candidate's
    log-likelihood is bounded by its unrestricted model's on the same rows
    and lags (_loglik_bounds). Before each group runs, a
    distinct fit is skipped, its start never solved, when every candidate
    sharing it is certified: its criterion at its bound exceeds the best
    finished candidate's by a relative PRUNE_RTOL, so it cannot be the
    minimizer. A candidate whose bound is not finite, or whose criterion
    raises at it, is never certified. A candidate with at least T_eff
    parameters has no criterion and is not fitted: its outcome is
    info_criterion's ValueError. Returns an iterator over the candidates in
    order, giving (outcome, n_params, bound): its judged engine state (one
    dict per distinct fit), the exception its fit raised or None if pruned,
    its setup's parameter count (0 if none), and its bound (nan if none).
    """
    data = _demeaned(Y, differences=model == "ciaar")
    T_eff = Y.T - t_start
    setups, fitted, first = [], {}, []                 # first: the candidate whose fit it takes
    for i, orders in enumerate(candidates):
        try:
            setup = _grid_setup(model, Y, orders, t_start, data)
            if setup.n_params >= T_eff:                # info_criterion's rule, before any fit
                raise ValueError(
                    f"effective sample {T_eff} not larger than {setup.n_params} parameters")
            first.append(fitted.setdefault((setup.q, setup.shape), i))
        except (ValueError, np.linalg.LinAlgError) as exc:
            setup = exc
            first.append(i)
        setups.append(setup)
    groups, shares = {}, {}                            # engine q -> distinct fits -> candidates
    for i, j in enumerate(first):
        shares.setdefault(j, []).append(i)
        if i == j and not isinstance(setups[i], Exception):
            groups.setdefault(setups[i].q, []).append(i)
    bounds, lower = [np.nan] * len(candidates), [np.nan] * len(candidates)
    if criterion is not None:
        solved = {}                                    # one bound solve per count of lags
        for i, setup in enumerate(setups):
            if not isinstance(setup, Exception):
                lags = max(len(setup.diag_X), len(setup.index_X))
                if lags not in solved:
                    solved[lags] = _loglik_bounds(setup.grams())
                bounds[i] = float(solved[lags][setup.r])
                lower[i] = _score(criterion, bounds[i], setup.n_params, T_eff)
    outcomes = [s if isinstance(s, Exception) else None for s in setups]   # None: pruned
    best = np.inf                                      # the least criterion of a judged state
    for q in sorted(groups):
        size = tuple(map(max, zip(*(setups[j].shape for j in groups[q]))))
        cut = best + PRUNE_RTOL * abs(best)
        run = [j for j in groups[q] if not all(lower[i] > cut for i in shares[j])]
        shapes = [setups[j].shape for j in run]
        starts = [_default_starts([_start_or_error(setups[j])], r, nd, q)[0]
                  for j, (nd, _, r) in zip(run, shapes)]
        states = _engine_states(q, shapes, [setups[j].grams() for j in run], starts, opts, size)
        for j, state in zip(run, _finished(states)):
            for i in shares[j]:
                outcomes[i] = state
                if criterion is not None and isinstance(state, dict):
                    loglik = float(state["trace"][-1])
                    best = np.fmin(best, _score(criterion, loglik, setups[i].n_params, T_eff))
    return zip(outcomes, [0 if isinstance(s, Exception) else s.n_params for s in setups], bounds)


def _score(criterion: Callable, loglik: float, n_params: int, T_eff: int) -> float:
    """criterion(loglik, n_params, T_eff), or nan when it raises."""
    try:
        return criterion(loglik, n_params, T_eff)
    except ValueError:
        return np.nan


def _loglik_bounds(full: _Grams) -> np.ndarray:
    """The maximized log-likelihood of the unrestricted model on the data of
    full, a panel's grams of [Z | lags | ec_X], at each rank r = 0, 1, ..:
    Johansen's VECM of rank r when full holds the levels block ec_X, else
    the OLS VAR of Z on the lags (r = 0 alone). With S00 the moments of Z
    concentrated on the lags and l_i the squared canonical correlations of
    Z and ec_X given the lags, in descending order,

        ll(r) = -(Te/2)(n log 2pi + n + log|S00| + sum_{i<=r} log(1 - l_i))

    (Johansen 1995). Each index model of a selection grid is nested in the
    one of its rank on its own rows and lags, so its log-likelihood is at
    most ll(r). A bound that cannot be formed, or is not finite, is nan: so
    is every bound of an S00 that fails the sigma guard (gaussian_loglik).
    """
    n = full.n
    x = (1 + full.nd) * n                              # the levels block, if any, starts here
    try:
        (vals, _), S, _ = _reduced_rank(full.M, slice(0, n), slice(n, x), slice(x, None), full.Te)
        ll = gaussian_loglik((S[0, :n, :n] + S[0, :n, :n].T) / 2.0, full.Te)
    except np.linalg.LinAlgError:
        return np.full(n + 1, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        drops = np.cumsum(np.log1p(-vals[0]))
    ll = ll - 0.5 * full.Te * np.concatenate([[0.0], drops])
    return np.where(np.isfinite(ll), ll, np.nan)


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
    DRVARParams.check_orders(n, 1, q)                  # p is fit_drvar_coeffs' to check
    if p0 >= Y.T - 1:
        raise ValueError(f"p0={p0} too large for usable sample length {Y.T}")
    M = np.zeros((n, n))
    for j in range(1, p0 + 1):
        C = autocov(Y, j)
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
) -> FitResult:
    """OLS or feasible one-step GLS for the small-scale VAR coefficients.

    The loadings B of Y_t on the lagged indexes Xf (after check_rank) are
    projected onto the form omega phi_j by one weighted solve, phi =
    (omega'W omega)^-1 omega'W B': OLS takes W = I, and GLS the inverse
    residual covariance of that OLS pass. Each pass's covariance takes the
    sigma guard once (sigma_cond): at an eigenvalue ratio at most SIGMA_RTOL
    the fit raises LinAlgError(SIGMA_ERROR), and diagnostics["sigma_cond"]
    records the final one's. omega must pass DRVARParams.check_omega.
    """
    if method not in ("ols", "gls"):
        raise ValueError(f"method must be 'ols' or 'gls', got {method!r}")
    omega = DRVARParams.check_omega(omega)
    n, q = omega.shape
    if p < 1:
        raise ValueError("need p >= 1")
    values, mu = _demean(Y.values)
    first = p
    Z = values[first:]
    f = values @ omega
    Xf = np.hstack([f[first - j: Y.T - j] for j in range(1, p + 1)])
    Te = Z.shape[0]
    _check_sample(Te, p * q)

    check_rank(Xf)
    Bt = np.linalg.solve(Xf.T @ Xf, Xf.T @ Z).T       # n x (p q), unrestricted loadings B'
    W = np.eye(n)
    for gls in range(1 + (method == "gls")):
        if gls:
            W = np.linalg.inv(sigma)                   # the OLS pass's, just guarded
        phi_all = np.linalg.solve(omega.T @ W @ omega, omega.T @ W @ Bt)   # [phi_1 .. phi_p]
        resid = Z - Xf @ (omega @ phi_all).T
        sigma = resid.T @ resid / Te
        diagnostics = {"sigma_cond": sigma_cond(sigma)}
    ll = cholesky_loglik(pd_factor(sigma, SIGMA_ERROR), Te)   # sigma just passed the guard
    params = DRVARParams(omega, [phi_all[:, j * q: (j + 1) * q] for j in range(p)], sigma)
    return FitResult(
        "drvar", params, np.asarray([ll]), resid, True, 1, first,
        means={"level": mu}, diagnostics=diagnostics,
    )
