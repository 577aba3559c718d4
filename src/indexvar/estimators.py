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

import copy
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, starmap, zip_longest
from typing import Callable

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
    check_rank,
    fix_signs,
    gaussian_loglik,
    har_aggregates,
    ols,
    orth_complement,
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
    "johansen_rrr",
    "init_ciaar",
    "fit_drvar_omega",
    "fit_drvar_coeffs",
]


@dataclass
class FitOptions:
    """Switching-algorithm controls.

    tol is the relative log-likelihood convergence tolerance; ridge adds an
    l2 penalty to the normal equations of both SA steps. Every sweep
    orthonormalizes omega by QR (absorbed into the loadings, so fitted
    values are unchanged).
    """

    max_iter: int = 500
    tol: float = 1e-8
    ridge: float = 0.0

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
    error-correction fits). loglik == gaussian_loglik(params.sigma, T_eff).
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

SIGMA_RTOL = 1e-12   # a fit's least sigma eigenvalue over its largest must exceed this
SIGMA_ERROR = f"residual covariance is not positive definite (eigenvalue ratio <= {SIGMA_RTOL:.0e})"
STEP_ERROR = "switching-step normal equations are not positive definite"


def _qr_normalize(omega: np.ndarray):
    """QR-orthonormalize omega with positive R diagonal; returns (Q, R).

    Leading axes are a stack of matrices, each normalized on its own.
    """
    Q, R = np.linalg.qr(omega)
    signs = np.where(R.diagonal(0, -2, -1) < 0, -1.0, 1.0)
    return Q * signs[..., None, :], R * signs[..., :, None]


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


def _demeaned(Y: Panel, demean: bool, differences: bool = False):
    """(levels, diffs, means, memo): Y's levels and, with differences, its
    first differences, each demeaned over its usable rows when demean, and
    an empty memo of their grams (_memo_grams). A model's setups slice their
    data from these, so the setups of one panel (a selection grid's
    candidates) share them and the grams of equal rows and lags."""
    levels, mu = _demean(Y.values, Y.t0, demean)
    if not differences:
        return levels, None, {"level": mu}, {}
    diffs, mu_diff = _demean(np.diff(Y.values, axis=0), max(Y.t0 - 1, 0), demean)
    return levels, diffs, {"level": mu, "diff": mu_diff}, {}


# ---------------------------------------------------------------------------
# generalized switching engine (diagonal + index + error-correction channels)
# ---------------------------------------------------------------------------
#
# Every conditional-maximization step only touches the data through the n x n
# cross-products of the data matrices, so those are formed once per fit and
# no sweep depends on the sample length. Each step is assembled by a few
# batched matmuls over the stacked gram tensor, each gram operand transposed
# so that the index it sums over is last (step 2's Kronecker sums run over
# channel pairs, the target grams over the diagonal lags). The transposed
# copies are formed anew each call: keeping them measured no faster. Step 1
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
# (step 1 with the log-likelihood, then steps 2 and 3); when a phase raises,
# it is rerun member by member, and a member that raises on its own (a
# rank-deficient step, step-2 or step-3 normal equations or a covariance that
# are not positive definite) leaves the batch carrying the exception its
# single fit would raise, while the others go on.
#
# Members may also differ in their lags and cointegration rank, as a
# selection grid's candidates of one q do. Each member's own grams are then
# zero-padded to the batch's largest (nd, na, r) (_engine_grams), and its
# inactive delta, loading and step-3 index-lag coordinates are pinned: their
# rows and columns in steps 1-3 become a diagonal with a zero right-hand
# side, so they solve to zero and leave the member's own block, its rank
# checks and its eigenvalue cut-offs as in its single fit. A member of rank
# r_i keeps gamma's columns at or beyond r_i zero, so its step-1 weights
# there vanish and its alpha0 coordinates there are pinned; only members
# with 0 < r_i < q take step 3. A batch of equal members carries no masks
# and pays nothing for them.
# Every member of a batch that estimates omega has an omega channel: a CIAAR
# order with no index lag runs as its identified equivalent (_setup_ciaar),
# so a well-posed fit's step-2 system is positive definite and no step needs
# a fallback.


@dataclass
class _Setup:
    """One panel's engine inputs, and what its FitResult needs besides them.

    diag_X and index_X are prefixes of one list of lags. start(full, opts)
    checks the data of the default start and returns the grams to solve it
    from: full, this setup's grams(), whenever the rows agree. q is the
    engine's index count, which a CIAAR order with no index lag sets to r
    (_setup_ciaar). params(out) builds the model parameters, and memo is
    the gram memo of the data the setup slices (_memo_grams).
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

    def grams(self) -> "_Grams":
        """The grams of [Z | lags | ec_X], every block the engine or Johansen reads."""
        return _memo_grams(self.memo, self.Z, max(self.diag_X, self.index_X, key=len), self.ec_X)

    @property
    def shape(self) -> tuple:
        """(nd, na, r): the engine's diagonal and index lag counts and rank."""
        return len(self.diag_X), len(self.index_X), self.r


@dataclass
class _Grams:
    """Stacked cross-products X_a' X_b of the target, diagonal, EC and index data.

    G[i, a, b] = X_a' X_b of batch member i, with the blocks ordered target,
    diagonal lags, then the vec channels (the EC block when present, then
    the index lags). Gcc[i] lays member i's vec-channel grams out as one
    (C n) x (C n) matrix. Te is the members' common effective sample.
    """

    G: np.ndarray
    Gcc: np.ndarray
    nd: int
    Te: int

    @classmethod
    def of(cls, Z, diag_X, ec_X, index_X) -> "_Grams":
        """The grams of one panel's data matrices, as a batch of one."""
        mats = [Z] + list(diag_X) + ([ec_X] if ec_X is not None else []) + list(index_X)
        k, n = len(mats), Z.shape[1]
        X = np.hstack(mats)
        G = (X.T @ X).reshape(1, k, n, k, n).transpose(0, 1, 3, 2, 4)
        return cls.blocks(G, len(diag_X), Z.shape[0])

    @classmethod
    def blocks(cls, G: np.ndarray, nd: int, Te: int) -> "_Grams":
        """The grams of a (B, k, k, n, n) block tensor whose first nd + 1
        blocks are the target and the diagonal lags."""
        B, k, _, n, _ = G.shape
        C = k - 1 - nd
        Gcc = G[:, 1 + nd:, 1 + nd:].transpose(0, 1, 3, 2, 4).reshape(B, C * n, C * n)
        return cls(np.ascontiguousarray(G), Gcc, nd, Te)

    @classmethod
    def stack(cls, members: list) -> "_Grams":
        first = members[0]
        G = np.concatenate([g.G for g in members])
        return cls(G, np.concatenate([g.Gcc for g in members]), first.nd, first.Te)

    def __getitem__(self, rows) -> "_Grams":
        return _Grams(self.G[rows], self.Gcc[rows], self.nd, self.Te)

    @property
    def n(self) -> int:
        return self.G.shape[-1]


def _memo_grams(memo: dict, Z, lags: list, ec_X) -> _Grams:
    """_Grams.of(Z, lags, ec_X, []), formed once per memo and count of rows and lags."""
    key = Z.shape[0], len(lags), ec_X is not None
    if key not in memo:
        memo[key] = _Grams.of(Z, lags, ec_X, [])
    return memo[key]


def _engine_grams(full: _Grams, shape: tuple, size: tuple, out: np.ndarray) -> None:
    """Write the engine's gram blocks of a member of shape (nd_i, na_i, r_i)
    into out, its zeroed (k, k, n, n) slot in a batch of size (nd, na, r),
    from its grams of [Z | lags | ec_X]: the target, nd_i diagonal lags,
    ec_X (if r > 0) and na_i index lags, each lag channel padded with zeros
    to the batch's count."""
    (nd_i, na_i, _), (nd, na, r) = shape, size
    ec = [1 + full.nd] if r > 0 else []
    src = [*range(1 + nd_i), *ec, *range(1, 1 + na_i)]
    dst = np.array([*range(1 + nd_i), *range(1 + nd, 1 + nd + len(ec) + na_i)])
    out[dst[:, None], dst] = full.G[0][src][:, src]


def _target_grams(g: _Grams, ds: np.ndarray):
    """U'U and X_a'U for U = Z - sum_j X_j diag(d_j), for every data block a.

    ds is (B, nd, n); returns UU (B, n, n) and GU (B, k, n, n). With D the
    stacked diagonals [diag(d_1); ..; diag(d_nd)], X_a'U = X_a'Z - [X_a'X_j]_j D
    and U'U = Z'U - D'[X_j'U]_j, one batched product each.
    """
    B, k, _, n, _ = g.G.shape
    nd = g.nd
    D = np.zeros((B, nd, n, n))
    D[:, :, np.arange(n), np.arange(n)] = ds
    D = D.reshape(B, nd * n, n)
    lags = g.G[:, :, 1: 1 + nd].transpose(0, 1, 3, 2, 4).reshape(B, k * n, nd * n)
    GU = g.G[:, :, 0] - (lags @ D).reshape(B, k, n, n)
    UU = GU[:, 0] - D.swapaxes(1, 2) @ GU[:, 1: 1 + nd].reshape(B, nd * n, n)
    return UU, GU


def _sa_engine(
    grams: _Grams, q: int, r: int, starts: list, opts: FitOptions, shapes: list | None = None
) -> list:
    """Run the switching algorithm in lockstep on a batch of prepared fits.

    Member i has the grams grams.G[i] and starts from
    starts[i] = (gamma0, omega0, D0), the order init_ciaar returns. The
    diagonal channels feed the matrices D_j, the index channels the loadings
    alpha_j omega', and the EC channel (levels, present when r > 0) the
    error-correction term alpha0 gamma' omega'. gamma is fixed to I_q when
    r == q and estimated by the reduced-rank eigenstep when 0 < r < q.
    shapes[i] = (nd_i, na_i, r_i), when given, is member i's own count of
    diagonal and index lags and its rank, at most the batch's (nd, na, r);
    its D0 holds nd_i vectors, its gamma0 r_i columns, its grams of the lags
    it lacks are zero (_engine_grams), and its missing lags and rank are
    pinned (_member_masks).

    Returns each member's final state in order (its final parameters, and
    sigma, step 1's covariance at them), or the exception that ended its
    fit. A state's diagnostics["stop"] says why its sweeps ended: "tol"
    (converged), "max_iter" (the sweep cap, not converged), or
    "no_free_params" (nothing beyond the loadings to estimate, so one OLS
    step is the fit); diagnostics["sigma_cond"] is its final sigma's least
    over largest eigenvalue, and a member stopping at or below SIGMA_RTOL
    ends with LinAlgError, as its likelihood can grow without bound.
    """
    n, nd, Te = grams.n, grams.nd, grams.Te
    na = grams.Gcc.shape[-1] // n - (r > 0)
    shapes = shapes or [(nd, na, r)] * len(starts)
    finals = [None] * len(starts)
    for m, ((nd_m, na_m, r_m), start) in enumerate(zip(shapes, starts)):
        try:
            _check_sample(Te, r_m + na_m * q + nd_m)
            if len(start[2]) != nd_m:
                raise ValueError(f"{len(start[2])} diagonal starting values for {nd_m} lags")
        except (ValueError, np.linalg.LinAlgError) as exc:
            finals[m] = exc
    members = [m for m, final in enumerate(finals) if final is None]  # member of each row
    if not members:
        return finals
    estimate_omega = q > 0 and (na > 0 or r > 0)
    ds = np.zeros((len(members), nd, n))
    gamma = np.zeros((len(members), q, r))
    for row, m in enumerate(members):
        nd_m, _, r_m = shapes[m]
        ds[row, :nd_m] = np.asarray(starts[m][2], float).reshape(-1, n)
        if 0 < r_m < q:
            gamma[row, :, :r_m] = np.asarray(starts[m][0], float).reshape(q, r_m)
        else:                                          # fixed: I_q when r_m = q
            gamma[row, :, :r_m] = np.eye(q)[:, :r_m]
    st = {                                             # batch state, one row per member
        "grams": grams if len(members) == len(starts) else grams[members],
        "omega": np.stack([np.asarray(starts[m][1], float).reshape(n, q) for m in members]),
        "gamma": gamma,
        "ds": ds,
        "alpha0": np.zeros((len(members), n, r)),
        "alphas": np.zeros((len(members), na, n, q)),
    }
    if any(shapes[m] != (nd, na, r) for m in members):
        st.update(_member_masks([shapes[m] for m in members], n, q, (nd, na, r)))
    st["UU"], st["GU"] = _target_grams(st["grams"], ds)   # refreshed whenever D moves
    traces = [[] for _ in starts]
    diagnostics = [{} for _ in starts]

    def loadings_step(st: dict) -> dict:
        # Step 1: OLS for (alpha0, alphas) and sigma given (gamma, omega, D)
        omega, UU = st["omega"], st["UU"]
        weights = ([omega @ st["gamma"]] if r > 0 else []) + [omega] * na  # regressor = X_c @ W_c
        if not weights:
            sigma = (UU + UU.transpose(0, 2, 1)) / (2.0 * Te)
            return {"sigma": sigma, "ll": _step_loglik(sigma, Te)}
        M, v = _normal_blocks(st["grams"].Gcc, weights, st["GU"][:, 1 + nd:])
        _pin(M, st.get("pin1"))
        _check_step_rank(M)
        solve_M = M + opts.ridge * np.eye(M.shape[-1]) if opts.ridge > 0.0 else M
        coef = np.linalg.solve(solve_M, v)
        coefT = coef.transpose(0, 2, 1)
        sigma = (UU - v.transpose(0, 2, 1) @ coef - coefT @ v + coefT @ M @ coef) / Te
        sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
        return {
            "sigma": sigma,
            "ll": _step_loglik(sigma, Te),
            "alpha0": coefT[:, :, :r],
            "alphas": coefT[:, :, r:].reshape(len(coef), n, na, q).transpose(0, 2, 1, 3),
        }

    def index_step(st: dict) -> dict:
        # Step 2: weighted OLS for (Vec(omega'), delta) given the rest
        grams, omega, UU, GU = st["grams"], st["omega"], st["UU"], st["GU"]
        sinv = _sigma_inverse(st["sigma"])
        loadings = st["alphas"]                        # omega-channel loadings a_c
        if r > 0:
            ec_loading = st["alpha0"] @ st["gamma"].transpose(0, 2, 1)
            loadings = np.concatenate([ec_loading[:, None], loadings], axis=1)
        theta = _step2_solve(grams, sinv, loadings, nd, q, estimate_omega, opts, st.get("pin2"))
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
                eig = _rrr_gamma(Gcc, omega[rows], UU[rows], XU, Te, r, st["pin3"][rows])
                gamma[rows] = eig * (np.arange(r) < rank[rows, None])[:, None]
        elif 0 < r < q:
            out["gamma"] = _rrr_gamma(grams.Gcc, omega, UU, GU[:, 1 + nd:], Te, r, st.get("pin3"))
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
            diagnostics[m]["stop"] = stop
            w = np.linalg.eigvalsh(st["sigma"][row])    # the sigma guard
            diagnostics[m]["sigma_cond"] = float(w[0] / w[-1])
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
            if diagnostics[m]["sigma_cond"] <= SIGMA_RTOL:
                finals[m] = np.linalg.LinAlgError(SIGMA_ERROR)
            stopped.append(row)
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


def _member_masks(shapes: list, n: int, q: int, size: tuple) -> dict:
    """Pin each member's lags and rank beyond its own (nd_i, na_i, r_i) in a
    batch of size (nd, na, r): its grams of those lags are zero
    (_engine_grams), so their coordinates decouple from every step's normal
    equations with a zero right-hand side, and _pin gives them a diagonal.
    Its alpha0 coordinates at or beyond r_i are pinned too: their gamma
    columns, and so their step-1 weights, are zero. Returns pin1 over step
    1's (alpha0, alphas) coordinates, pin2 over step 2's (delta,
    Vec(omega')), pin3 over step 3's index-lag coordinates, and rank (each
    r_i) when the members' ranks differ.
    """
    nd, na, r = size
    nd_i, na_i, r_i = (np.array(col)[:, None] for col in zip(*shapes))
    diag_off = np.arange(nd) >= nd_i                   # (B, nd) lags a member lacks
    index_off = np.arange(na) >= na_i                  # (B, na)
    vec_omega = n * q if q > 0 and (na > 0 or r > 0) else 0    # step 2's free Vec(omega')
    masks = {
        "pin1": _pin_mask(
            np.concatenate([np.arange(r) >= r_i, np.repeat(index_off, q, axis=1)], axis=1)
        ),
        "pin2": _pin_mask(np.pad(np.repeat(diag_off, n, axis=1), ((0, 0), (0, vec_omega)))),
        "pin3": _pin_mask(np.repeat(index_off, q, axis=1)),
    }
    if (r_i != r).any():
        masks["rank"] = r_i[:, 0]
    return masks


def _pin_mask(pinned: np.ndarray) -> np.ndarray:
    """(B, 2, k): the pinned coordinates, and 1/count on each member's free ones."""
    free = ~pinned
    return np.stack([pinned, free / np.maximum(free.sum(axis=1, keepdims=True), 1)], axis=1)


def _pin(A: np.ndarray, pin: np.ndarray | None) -> None:
    """Put a diagonal on each member's pinned coordinates of A, in place.

    The pinned rows and columns of A are zero (their grams are zero), so
    the coordinates solve to their zero right-hand side. The diagonal is the
    mean of the member's free diagonal (1 when it has none), which lies
    between the free block's extreme eigenvalues, so rank checks and
    eigenvalue cut-offs see the free block alone.
    """
    if pin is None:
        return
    diag = np.einsum("bii->bi", A)                     # a writable view
    level = np.einsum("bi,bi->b", diag, pin[:, 1])
    diag += pin[:, 0] * np.where(level > 0.0, level, 1.0)[:, None]


def _check_step_rank(M: np.ndarray) -> None:
    """Raise SingularDesignError when a member's gram has least over largest
    eigenvalue below 1e-20. The message states the threshold only: near a
    singular design the ratio is rounding noise, which differs between a
    padded batch member and its single fit."""
    w = np.linalg.eigvalsh(M)
    if (w[:, 0] < 1e-20 * np.maximum(w[:, -1], 1e-300)).any():
        raise SingularDesignError(
            "switching-step design is rank deficient (gram eigenvalue ratio below 1e-20)"
        )


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


def _step_loglik(sigma: np.ndarray, Te: int) -> np.ndarray:
    """gaussian_loglik of step 1's stacked sigma; one that is not positive
    definite raises LinAlgError(SIGMA_ERROR), as _sigma_inverse does."""
    try:
        return gaussian_loglik(sigma, Te)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(SIGMA_ERROR) from None


def _sigma_inverse(sigma: np.ndarray) -> np.ndarray:
    """Inverses of the stacked sigma by one stacked Cholesky factorization.

    A sigma that is not positive definite raises LinAlgError(SIGMA_ERROR).
    """
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(sigma))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(SIGMA_ERROR) from None
    return Linv.transpose(0, 2, 1) @ Linv


def _solve_pd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every A_i x = b_i of a stack of positive definite systems.

    The Cholesky factorization is the positive-definiteness test, and the
    stack is solved by one LU solve. A system that fails the test raises
    LinAlgError(STEP_ERROR), which _each_member turns into that member's
    final state.
    """
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(STEP_ERROR) from None
    return np.linalg.solve(A, b)


def _step2_solve(grams, sinv, loadings, nd, q, estimate_omega, opts, pinned=None):
    """Solve the stacked Vec regressions through their normal equations.

    For theta = (delta_1..delta_nd, Vec(omega')) the blocks are
    G_jl * sinv (Hadamard) between diagonals, sum_ab G_ab kron W_ab with
    W_ab = a_a' sinv a_b for omega, and the matching cross terms. Each
    product is one batched matmul with its gram operand transposed to
    (batch, rows, summed index): the omega block sums G_ab[i, j] W_ab[k, l]
    over the channel pairs (a, b), the cross block G_jc[k, K] (sinv a_c)[k, m]
    over c, and the omega right-hand side G_c0[i, k] (sinv a_c)[k, m] over
    (k, c). sinv is (B, n, n) and loadings (B, C, n, q); returns theta as
    (B, nd n + n q), or raises LinAlgError(STEP_ERROR) when a system is not
    positive definite (_solve_pd). pinned marks the missing-lag coordinates of
    padded members (_member_masks).
    """
    n, G = grams.n, grams.G
    B = len(G)
    ow = nd * n                                     # start of the Vec(omega') block
    k2 = ow + (n * q if estimate_omega else 0)
    dd, cc = slice(1, 1 + nd), slice(1 + nd, None)
    G2 = np.empty((B, k2, k2))
    rhs = np.empty((B, k2))
    G2[:, :ow, :ow] = (G[:, dd, dd] * sinv[:, None, None]).transpose(0, 1, 3, 2, 4).reshape(B, ow, ow)
    rhs[:, :ow] = (G[:, dd, 0] * sinv.swapaxes(1, 2)[:, None]).sum(-1).reshape(B, ow)
    if estimate_omega:
        A = np.asarray(loadings)                    # (B, C, n, q) channel loadings a_c
        C = A.shape[1]
        A = A.transpose(0, 2, 1, 3).reshape(B, n, C * q)    # [a_1 .. a_C]
        SA = sinv @ A
        # W_ab[k, l] = (a_a' sinv a_b)[k, l] at [(a, b), (k, l)]
        W = (A.swapaxes(1, 2) @ SA).reshape(B, C, q, C, q).transpose(0, 1, 3, 2, 4)
        Gab = G[:, cc, cc].transpose(0, 3, 4, 1, 2).reshape(B, n * n, C * C)
        omega_block = (Gab @ W.reshape(B, C * C, q * q)).reshape(B, n, n, q, q)
        G2[:, ow:, ow:] = omega_block.transpose(0, 1, 3, 2, 4).reshape(B, n * q, n * q)
        SA = SA.reshape(B, n, C, q)                 # (sinv a_c)[k, m] at [k, c, m]
        cross = G[:, dd, cc].transpose(0, 1, 3, 4, 2) @ SA[:, None]
        G2[:, :ow, ow:] = cross.reshape(B, ow, n * q)
        G2[:, ow:, :ow] = G2[:, :ow, ow:].transpose(0, 2, 1)
        Gc0 = G[:, cc, 0].transpose(0, 2, 3, 1).reshape(B, n, n * C)
        rhs[:, ow:] = (Gc0 @ SA.reshape(B, n * C, q)).reshape(B, n * q)
    _pin(G2, pinned)
    if opts.ridge > 0.0:
        G2 += opts.ridge * np.eye(k2)
    return _solve_pd(G2, rhs[:, :, None])[:, :, 0]


def _rrr_gamma(Gcc, omega, UU, XU, Te: int, r: int, pinned=None) -> np.ndarray:
    """The r leading eigenvectors of the reduced-rank regression of the
    diagonal-adjusted targets U on the lagged index levels E = ec_X omega,
    concentrated on the weighted index lags F. The step-1 normal blocks
    with every vec channel weighted by omega hold the grams of [E | F], the
    target grams UU and XU (the vec channels' X_c'U) at the current D the
    rest. omega is (B, n, q); returns gamma (B, q, r); pinned marks padded
    members' missing lags.
    """
    n, q = omega.shape[1:]
    M, v = _normal_blocks(Gcc, [omega] * XU.shape[1], XU)
    _pin(M[:, q:, q:], pinned)
    UEF = np.concatenate([np.concatenate([UU, v.swapaxes(1, 2)], 2), np.concatenate([v, M], 2)], 1)
    (_, vecs), _, _ = _reduced_rank(
        UEF, slice(0, n), slice(n + q, None), slice(n, n + q), Te, _solve_pd
    )
    return fix_signs(vecs[:, :, :r])


def _reduced_rank(M, y, w, x, Te: int, solve=np.linalg.solve):
    """The reduced-rank regression of block y on block x of the stacked gram
    M, both concentrated on block w (y, w, x slice M's rows). Returns
    _solve_rrr_eig's solution, the concentrated moments S (the Schur
    complement of M[w, w], over Te) and sol = M[w, w]^-1 M[w, :]."""
    sol = solve(M[:, w, w], M[:, w])
    S = (M - M[:, :, w] @ sol) / Te
    S00, S11 = ((A + A.swapaxes(1, 2)) / 2.0 for A in (S[:, y, y], S[:, x, x]))
    return _solve_rrr_eig(S00, S[:, y, x], S11), S, sol


def _solve_rrr_eig(S00, S01, S11):
    """Sorted solutions of the generalized eigenproblem S10 S00^-1 S01 v = l S11 v.

    Solved through the Cholesky factor of S11 so the eigenvalues are the
    squared canonical correlations, all in [0, 1). Leading axes are a stack
    of problems, each solved and sorted on its own.
    """
    L = np.linalg.cholesky(S11)
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


def _engine_states(setups, opts: FitOptions, starts=(), map_groups=map) -> list:
    """Each setup's final engine state, or the exception that ended its fit, in order.

    setups yields _Setups, or the exceptions building them raised;
    starts[i], when not None, overrides setup i's default start. Only each
    setup's grams and start are kept, so its data can go as the next one is
    built. The default starts are solved in batches (_default_starts), and
    one lockstep engine batch runs per engine q, padded to the group's
    largest (nd, na, r) (_engine_grams), by map_groups: map or a pool's map.
    """
    outcomes, members = [], []                         # members: (index, q, shape, grams)
    for setup, start in zip_longest(setups, starts):
        if isinstance(setup, Exception):
            outcomes.append(setup)
            continue
        full = setup.grams()
        members.append((len(outcomes), setup.q, setup.shape, full))
        if start is None:
            try:
                start = setup.start(full, opts)
            except (ValueError, np.linalg.LinAlgError) as exc:
                start = exc
        outcomes.append(start)
    _default_starts(outcomes, members, opts)
    groups = {}                                        # engine q -> [(index, shape, grams)]
    for i, q, shape, full in members:
        if not isinstance(outcomes[i], Exception):
            groups.setdefault(q, []).append((i, shape, full))

    def task(q, group):
        shapes = [shape for _, shape, _ in group]
        nd, na, r = size = tuple(map(max, zip(*shapes)))
        k, n = 1 + nd + (r > 0) + na, group[0][2].n
        G = np.zeros((len(group), k, k, n, n))
        for out, (_, shape, full) in zip(G, group):
            _engine_grams(full, shape, size, out)
        starts = [outcomes[i] for i, _, _ in group]
        return _Grams.blocks(G, nd, group[0][2].Te), q, r, starts, opts, shapes

    for group, states in zip(groups.values(), map_groups(_run_group, starmap(task, groups.items()))):
        for (i, _, _), state in zip(group, states):
            outcomes[i] = state
    return outcomes


def _run_group(task: tuple) -> list:
    """One engine group's run; a process-pool task."""
    return _sa_engine(*task)


def _finished(setups, outcomes):
    """Each member's FitResult from its setup and engine state, or its exception."""
    for setup, outcome in zip(setups, outcomes):
        try:
            yield outcome if isinstance(outcome, Exception) else _finish(setup, outcome)
        except (ValueError, np.linalg.LinAlgError) as exc:
            yield exc


def _raised(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _lockstep(make_setup, panels: list, opts: FitOptions | None, starts: list | None = None):
    """Fit every panel in one lockstep engine run; returns an iterator of FitResults.

    make_setup(Y) validates a panel and builds its _Setup. The iterator
    raises a failed fit's exception in its turn and goes on. Each setup is
    built again for its residual pass but the last panel's, built first.
    """
    last = make_setup(panels[-1])

    def setups():
        return chain(map(make_setup, panels[:-1]), [last])

    states = _engine_states(setups(), opts or FitOptions(), starts or ())
    return map(_raised, _finished(setups(), states))


def _finish(setup: _Setup, state: dict) -> FitResult:
    """A member's residuals by one dense pass; its parameters and sigma are the engine's."""
    omega, resid = state["omega"], setup.Z.copy()
    for d, X in zip(state["ds"], setup.diag_X):
        resid -= X * d
    if setup.r > 0:
        resid -= (setup.ec_X @ (omega @ state["gamma"])) @ state["alpha0"].T
    for X, a in zip(setup.index_X, state["alphas"]):
        resid -= (X @ omega) @ a.T
    return FitResult(
        setup.model, setup.params(state), state["trace"], resid, state["converged"],
        state["iterations"], setup.first, means=setup.means, diagnostics=state["diagnostics"],
    )


def fit_many(
    model: str,
    panels,
    opts: FitOptions | None = None,
    demean: bool = True,
    t_start: int | None = None,
    **orders,
):
    """Fit one model at fixed orders to equal-length panels in one lockstep run.

    model is "mai", "vhari", "iaar", "ciaar" or "vecim", and orders are the
    orders its fitter takes, by keyword (p=2, s=2, q=2, r=1 for "ciaar").
    Every panel starts from its own default starting values and keeps its
    own trace and stop reason, so each fit equals the single fitter's on
    that panel. Returns an iterator over the FitResults in panel order; the
    switching runs before this returns, and each fit's residuals are formed
    as it is consumed. A panel whose fit fails does not stop the others:
    the iterator raises that fit's exception in its turn and goes on.
    The diagonal IAAR (q = 0) runs the engine too. Raises ValueError when
    the panels differ in length, width or first usable row.
    """
    panels = list(panels)
    if model not in _SETUPS:
        raise ValueError(f"fit_many cannot fit model {model!r}")
    if not panels:
        raise ValueError("no panels to fit")
    if len({(Y.T, Y.n, Y.t0) for Y in panels}) > 1:
        raise ValueError("fit_many needs panels of equal length, width and t0")
    make_setup = partial(_SETUPS[model], demean=demean, t_start=t_start, **orders)
    return _lockstep(make_setup, panels, opts)


# ---------------------------------------------------------------------------
# MAI
# ---------------------------------------------------------------------------


def _setup_mai(
    Y: Panel, p: int, q: int, demean: bool = True, t_start: int | None = None, data=None
):
    n = Y.n
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}")
    if p < 1:
        raise ValueError("need p >= 1")
    values, _, means, memo = data or _demeaned(Y, demean)
    first = max(Y.t0 + p, t_start if t_start is not None else 0)
    if first + 1 >= Y.T:
        raise ValueError("sample too short for the requested lag order")
    Z = values[first:]
    lags = [values[first - j: Y.T - j] for j in range(1, p + 1)]
    _check_sample(Z.shape[0], n * p)  # the initialization regresses on all n p lags

    return _Setup(
        "mai", Z, [], lags, None, q, 0, first, dict(means),
        lambda full, opts: _start_grams(Z, lags, None, 0, full, opts.ridge),
        lambda out: MAIParams(out["omega"], out["alphas"], out["sigma"]), memo,
    )


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
    make_setup = partial(_setup_mai, p=p, q=q, demean=demean, t_start=t_start)
    start = None if omega0 is None else (None, omega0, [])
    return next(_lockstep(make_setup, [Y], opts, [start]))


# ---------------------------------------------------------------------------
# VHARI
# ---------------------------------------------------------------------------


def _setup_vhari(Yd: Panel, q: int, demean: bool = True, t_start: int | None = None):
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
    X = [A[first - 1: Yd.T - 1] for A in (values, Yw.values, Ym.values)]
    _check_sample(Z.shape[0], 3 * n)

    return _Setup(
        "vhari", Z, [], X, None, q, 0, first, {"level": mu},
        lambda full, opts: _start_grams(Z, X, None, 0, full, opts.ridge),
        lambda out: VHARIParams(out["omega"], *out["alphas"], out["sigma"]), {},
    )


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
    make_setup = partial(_setup_vhari, q=q, demean=demean, t_start=t_start)
    return next(_lockstep(make_setup, [Yd], opts))


# ---------------------------------------------------------------------------
# IAAR
# ---------------------------------------------------------------------------


def _setup_iaar(
    Y: Panel, p: int, s: int, q: int, demean: bool = True, t_start: int | None = None, data=None
):
    n = Y.n
    if not 0 <= q < n:
        raise ValueError(f"need 0 <= q < n, got q={q}")
    if p < 1 or s > p or s < min(q, 1):
        # with no index lag omega enters no term, so only q = 0 may take s = 0
        raise ValueError(f"need 1 <= s <= p, or s = 0 with q = 0 (got p={p}, s={s}, q={q})")
    values, _, means, memo = data or _demeaned(Y, demean)
    first = max(Y.t0 + p, t_start if t_start is not None else 0)
    Z = values[first:]
    diag_X = [values[first - j: Y.T - j] for j in range(1, p + 1)]
    index_X = diag_X[:s] if q else []                  # omega is n x 0: no index channel
    _check_sample(Z.shape[0], n * p)
    return _Setup(
        "iaar", Z, diag_X, index_X, None, q, 0, first, dict(means),
        lambda full, opts: _start_grams(Z, diag_X, None, 0, full, opts.ridge),
        lambda out: IAARParams(out["ds"], out["alphas"], out["omega"], out["sigma"]), memo,
    )


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
    error-correction term, on levels. q = 0 drops the index channel: the
    diagonal VAR, whose equations share sigma but not regressors, so its ML
    alternates sigma with the GLS solve for the diagonals, not equation-wise OLS.
    """
    make_setup = partial(_setup_iaar, p=p, s=s, q=q, demean=demean, t_start=t_start)
    return next(_lockstep(make_setup, [Y], opts))


def _svd_truncate(stack: np.ndarray, q: int):
    """Leading right-singular vectors and the rank-q reconstruction of each
    matrix of a stack (numpy sorts the singular values descending)."""
    U, sv, Vh = np.linalg.svd(stack, full_matrices=False)
    Vq = Vh[..., :q, :]
    return fix_signs(Vq.swapaxes(-1, -2)), (U[..., :q] * sv[..., None, :q]) @ Vq


# ---------------------------------------------------------------------------
# Johansen reduced-rank regression, from its moments
# ---------------------------------------------------------------------------


def _ec_data(Y: Panel, m: int, data: tuple, t_start: int | None = None):
    """dY_t, its m lags, Y_{t-1}, the first target row and the means of the
    EC regressions, sliced from data (Y's _demeaned, with differences)."""
    levels, dvalues, means, _ = data
    first = max(Y.t0 + m + 1, t_start if t_start is not None else 0)
    lags = [dvalues[first - 1 - j: Y.T - 1 - j] for j in range(1, m + 1)]
    return dvalues[first - 1:], lags, levels[first - 1: Y.T - 1], first, dict(means)


def _start_grams(Z, lags, ec_X, r: int, full: _Grams | None = None, ridge: float = 0.0) -> _Grams:
    """The grams of [Z | lags | ec_X] (full, when formed) a default start is
    solved from, once r, the sample size and the lag design pass their
    checks. Unpenalized, the lag design takes ols's singular-value test
    (check_rank), whose SVD runs only when the lag block of the grams
    cannot certify it (_certifies_rank), so every accept, reject and message
    is that test's."""
    if not 0 <= r < Z.shape[1]:
        raise ValueError(f"need 0 <= r < n, got r={r}")
    _check_sample(Z.shape[0], len(lags) * Z.shape[1] + r)
    full = full if full is not None else _Grams.of(Z, lags, ec_X, [])
    lag_gram = full.G[0, 1: 1 + len(lags), 1: 1 + len(lags)]
    if lags and ridge == 0.0 and not _certifies_rank(lag_gram, Z.shape[0]):
        check_rank(np.hstack(lags))
    return full


def _certifies_rank(blocks: np.ndarray, T: int) -> bool:
    """Whether the computed gram X'X of a T x k design X, given as its
    (L, L, n, n) blocks, proves that X passes check_rank.

    Forming X'X perturbs it by E with |E_ij| <= T eps |x_i| |x_j| (each entry
    is a T-term dot product), so ||E|| <= T eps trace(X'X) <= T k eps l_max,
    and eigvalsh is backward stable, adding well under k^2 eps l_max. Each
    computed eigenvalue is therefore within d = (T k + k^2) eps l_max of
    the true one. A least computed eigenvalue above 2 d leaves the true
    least one above d, so the true ratio sigma_min^2 / sigma_max^2 exceeds
    about (T k + k^2) eps >= 4e-16, far above RANK_RTOL^2 = 1e-20, and the
    SVD test passes. Below that the gram cannot tell, and the SVD decides.
    """
    L, _, n, _ = blocks.shape
    k = L * n
    w = np.linalg.eigvalsh(blocks.transpose(0, 2, 1, 3).reshape(k, k))
    return bool(w[0] > 2.0 * (T * k + k * k) * np.finfo(float).eps * w[-1])


def _johansen(G: np.ndarray, Te: int, r: int) -> dict:
    """Johansen's reduced-rank regression on a stack of (B, m + 2, m + 2, n, n)
    grams of [dY_t | dY_{t-1} .. dY_{t-m} | Y_{t-1}]: beta holds the r
    leading eigenvectors, alpha0 and the Pi_j solve the normal equations
    given beta. Returns the eigenvalues, beta, alpha0 and the Pi_j (B, m, n, n).
    """
    B, k, _, n, _ = G.shape
    M = G.transpose(0, 1, 3, 2, 4).reshape(B, k * n, k * n)
    L = slice((k - 1) * n, None)
    (vals, vecs), S, sol = _reduced_rank(M, slice(0, n), slice(n, (k - 1) * n), L, Te)
    beta = fix_signs(vecs[:, :, :r])
    betaT = beta.swapaxes(1, 2)
    alpha0 = np.linalg.solve(betaT @ S[:, L, L] @ beta, betaT @ S[:, L, :n]).swapaxes(1, 2)
    pisT = (sol[:, :, :n] - sol[:, :, -n:] @ beta @ alpha0.swapaxes(1, 2)).reshape(B, k - 2, n, n)
    return {"vals": vals, "beta": beta, "alpha0": alpha0, "pis": pisT.swapaxes(2, 3)}


def johansen_rrr(
    Y: Panel,
    p: int,
    r: int,
    demean: bool = True,
    t_start: int | None = None,
) -> FitResult:
    """Johansen's reduced-rank regression for the VECM with p - 1 lagged differences.

    Solved from moments: the concentrated moments are Schur complements of
    the grams of [dY_t | lagged differences | Y_{t-1}], beta the
    eigenvectors of the r largest canonical correlations, and the other
    coefficients solve the normal equations given beta; one pass over the
    data forms the residuals. The lag design takes ols's rank check
    (SingularDesignError). diagnostics["eigenvalues"] holds the eigenvalues.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    data = _demeaned(Y, demean, differences=True)
    Z, lags, ec_X, first, means = _ec_data(Y, p - 1, data, t_start)
    jo = _johansen(_start_grams(Z, lags, ec_X, r).G, Z.shape[0], r)
    alpha0, beta, pis = jo["alpha0"][0], jo["beta"][0], list(jo["pis"][0])
    resid = Z - (ec_X @ beta) @ alpha0.T - sum(X @ pi.T for X, pi in zip(lags, pis))
    sigma = resid.T @ resid / Z.shape[0]
    return FitResult(
        "vecm", VECMParams(alpha0, beta, pis, sigma),
        np.asarray([gaussian_loglik(sigma, Z.shape[0])]), resid, True, 1, first,
        means=means, diagnostics={"eigenvalues": jo["vals"][0]},
    )


# ---------------------------------------------------------------------------
# Starting values: the Johansen start, and the SVD truncation of every start
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

    Johansen estimates with m = max(p, s) - 1 lagged differences (moments
    and rank check as in johansen_rrr) are stripped of their diagonals,
    stacked together with the transposed error-correction coefficient, and
    the first q right-singular vectors give omega0; the rank-q truncation
    supplies the diagonal starting values, and gamma0 = omega0' beta
    regresses beta on omega0. Lockstep fits batch this over their panels.
    """
    data = _demeaned(Y, demean, differences=True)
    Z, lags, ec_X, _, _ = _ec_data(Y, max(p, s, 1) - 1, data)
    jo = _johansen(_start_grams(Z, lags, ec_X, r).G, Z.shape[0], r)
    return _index_start(jo, max(p - 1, 0), q)[0]


def _default_starts(inits: list, members: list, opts: FitOptions) -> None:
    """Replace each grams entry of inits (its setup.start's) by its start, in
    place. members holds (index into inits, engine q, (nd, na, r), ...)
    records. One start regression runs per layout of the grams and rank,
    one truncation per (nd, q) within it; a member failing on its own gets
    its exception."""
    batches = {}                                       # (layout, r) -> {index: (nd, q)}
    for i, q, (nd, _, r), *_ in members:
        g = inits[i]
        if isinstance(g, _Grams):
            batches.setdefault((g.G.shape[1:], g.nd, g.Te, r), {})[i] = nd, q
    for (*_, r), batch in batches.items():
        grams = _Grams.stack([inits[i] for i in batch])
        jo, _, alive = _each_member(
            lambda st: _start_regression(st["grams"], r, opts), {"grams": grams}, list(batch), inits
        )
        rows = {}                                      # (nd, q) -> rows of jo
        for row, i in enumerate(alive):
            rows.setdefault(batch[i], []).append(row)
        for (nd, q), part in rows.items():
            for row, start in zip(part, _index_start({k: v[part] for k, v in jo.items()}, nd, q)):
                inits[alive[row]] = start


def _start_regression(grams: _Grams, r: int, opts: FitOptions) -> dict:
    """What a default start truncates, from its stacked grams: Johansen's
    rank-r estimates when they hold the levels block (_ec_data's Y_{t-1}),
    else the VAR coefficients of the target on the lags by their
    (ridge-penalized) normal equations."""
    if grams.Gcc.shape[-1]:
        return _johansen(grams.G, grams.Te, r)
    B, k, _, n, _ = grams.G.shape
    M = grams.G.transpose(0, 1, 3, 2, 4).reshape(B, k * n, k * n)
    C = np.linalg.solve(M[:, n:, n:] + opts.ridge * np.eye((k - 1) * n), M[:, n:, :n])
    return {"pis": C.reshape(B, k - 1, n, n).swapaxes(2, 3), "beta": np.zeros((B, n, 0))}


def _index_start(jo: dict, nd: int, q: int) -> list:
    """Index starting values (gamma0, omega0, D0) from stacked VAR or VECM
    coefficients, one per member: jo["pis"] (B, m, n, n), and "alpha0" and
    "beta" (B, n, r). The first nd lags keep their own diagonals apart."""
    pis, beta = jo["pis"], jo["beta"]
    B, m, n, _ = pis.shape
    r = beta.shape[-1]
    own = np.einsum("bjii->bji", pis)
    # strip the diagonal only where the model grants it own-lag freedom; for
    # the remaining lags the diagonal belongs to the index signal
    stripped = pis.copy()
    stripped[:, :nd, np.arange(n), np.arange(n)] = 0.0
    blocks = [stripped.reshape(B, m * n, n)] + ([jo["alpha0"] @ beta.swapaxes(1, 2)] if r else [])
    stack = np.concatenate(blocks, axis=1)
    if stack.shape[1] == 0:
        return [(np.zeros((q, r)), np.eye(n)[:, :q], list(d)) for d in own[:, :nd]]
    omega0, bar = _svd_truncate(stack, q)
    d0 = own[:, :nd] - np.einsum("bjii->bji", bar[:, :nd * n].reshape(B, nd, n, n))
    gamma0 = omega0.swapaxes(1, 2) @ beta              # omega0 has orthonormal columns
    return [(g, o, list(d)) for g, o, d in zip(gamma0, omega0, d0)]


# ---------------------------------------------------------------------------
# CIAAR
# ---------------------------------------------------------------------------


def _setup_ciaar(
    Y: Panel, p: int, s: int, q: int, r: int, demean: bool = True, t_start: int | None = None,
    data=None,
):
    n = Y.n
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}")
    if not 0 <= r <= q:
        raise ValueError(f"need 0 <= r <= q, got r={r}")
    if p >= 2 and s > p:
        raise ValueError(f"need s <= p when the diagonal channel is present (p={p}, s={s})")
    nd, na = max(p - 1, 0), max(s - 1, 0)
    # with no index lag omega enters only through beta = omega gamma: run the
    # identified equivalent (p, s, r, r), gamma = I_r, and complete omega in params
    q_fit = q if na else r
    data = data or _demeaned(Y, demean, differences=True)
    Z, lags, ec_X, first, means = _ec_data(Y, max(nd, na), data, t_start)

    def start(full: _Grams, opts: FitOptions) -> _Grams:
        # Johansen's rows, whose grams are full unless t_start moves the engine's later
        rows = _ec_data(Y, len(lags), data)[:3]
        return _start_grams(*rows, r, _memo_grams(data[3], *rows))

    def params(out):
        omega, gamma, alpha0 = out["omega"], out["gamma"], out["alpha0"]
        if q_fit < q:
            omega = np.hstack([omega, orth_complement(omega)[:, :q - r]])
            gamma = np.eye(q, r)
        elif 0 < r < q:
            gamma, alpha0 = _normalize_gamma(gamma, alpha0, out["diagnostics"])
        return CIAARParams(out["ds"], alpha0, gamma, omega, out["alphas"], out["sigma"])

    return _Setup(
        "ciaar", Z, lags[:nd], lags[:na], ec_X, q_fit, r, first, means, start, params, data[3]
    )


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

    With s <= 1 there is no index lag, so the likelihood sees omega only
    through beta = omega gamma, identified up to an r x r rotation. Such an
    order is fit as its identified equivalent (p, s, r, r) (q = 0 when
    r = 0), from init's beta0 = omega0 gamma0 when given, and reported with
    omega = [omega_r | orth_complement(omega_r)[:, :q - r]] and
    gamma = [I_r; 0]: the same beta, alpha0, D and sigma, and the parameter
    count of (p, s, q, r).
    """
    if init is not None and s <= 1 and r < q:
        gamma0, omega0, d0 = init
        beta0 = np.asarray(omega0, float) @ np.asarray(gamma0, float).reshape(q, r)
        init = (np.eye(r), _qr_normalize(beta0)[0], d0)
    make_setup = partial(_setup_ciaar, p=p, s=s, q=q, r=r, demean=demean, t_start=t_start)
    return next(_lockstep(make_setup, [Y], opts, [init]))


def _normalize_gamma(gamma: np.ndarray, alpha0: np.ndarray, diagnostics: dict):
    """Scale the leading r x r block of gamma to the identity (reporting only)."""
    r = gamma.shape[1]
    head = gamma[:r, :]
    sv = np.linalg.svd(head, compute_uv=False)
    if sv.size == 0 or sv[-1] < 1e-10 * max(sv[0], 1e-300):
        diagnostics["gamma_unnormalized"] = True
        return gamma, alpha0
    return gamma @ np.linalg.inv(head), alpha0 @ head.T


def _setup_vecim(
    Y: Panel, p: int, q: int, r: int, demean: bool = True, t_start: int | None = None
):
    n = Y.n
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}")
    if not 0 <= r <= q:
        raise ValueError(f"need 0 <= r <= q, got r={r}")
    if p < 1:
        raise ValueError("need p >= 1")
    setup = _setup_ciaar(Y, 0, p, q, r, demean, t_start)
    setup.model = "vecim"
    return setup


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
    from the same init_ciaar start and labelled "vecim", so p = 1 is fit as
    its identified equivalent (1, r, r) and reported at q (fit_ciaar). The
    row-level Vec/Kronecker loop in tests/rowlevel.py is the independent
    check of it.
    """
    make_setup = partial(_setup_vecim, p=p, q=q, r=r, demean=demean, t_start=t_start)
    return next(_lockstep(make_setup, [Y], opts))


_SETUPS = {
    "mai": _setup_mai,
    "vhari": _setup_vhari,
    "iaar": _setup_iaar,
    "ciaar": _setup_ciaar,
    "vecim": _setup_vecim,
}

# the orders, among (p, s, q, r), each model's setup and fitter take by keyword
ENGINE_ORDERS = {
    "mai": ("p", "q"),
    "vhari": ("q",),
    "iaar": ("p", "s", "q"),
    "ciaar": ("p", "s", "q", "r"),
    "vecim": ("p", "q", "r"),
}


# ---------------------------------------------------------------------------
# fitting one panel at many orders: the selection grid
# ---------------------------------------------------------------------------


def _grid_setup(model: str, Y: Panel, orders: tuple, t_start: int, data=None) -> _Setup:
    """A candidate's setup at orders (p, s, q, r); data, when given, is the
    panel's _demeaned data, shared by every candidate's setup."""
    named = dict(zip("psqr", orders))
    keywords = {k: named[k] for k in ENGINE_ORDERS[model]}
    return _SETUPS[model](Y, **keywords, t_start=t_start, data=data)


def _fit_grid(
    model: str, Y: Panel, candidates: list, opts: FitOptions, t_start: int, map_groups=map
):
    """Fit one panel at every candidate (p, s, q, r) of a selection grid.

    model is "mai" (candidates (p, p, q, 0)), "iaar" (r = 0, q >= 1) or
    "ciaar". Every candidate's first regression target is panel row
    t_start, and its setup slices one demeaned copy of the panel.
    Candidates whose setups run the same engine fit (a CIAAR order with
    s = 1 and its identified equivalent, _setup_ciaar) are fit once and
    the others copy its state; the distinct fits run through
    _engine_states. Returns an iterator over the candidates in order,
    giving each one's FitResult or the exception its single fit raises.
    """
    data = _demeaned(Y, True, differences=model == "ciaar")
    setups, fitted, first = [], {}, []                 # first: the candidate whose fit it takes
    for i, orders in enumerate(candidates):
        try:
            setup = _grid_setup(model, Y, orders, t_start, data)
            first.append(fitted.setdefault((setup.q, setup.shape), i))
        except (ValueError, np.linalg.LinAlgError) as exc:
            setup = exc
            first.append(i)
        setups.append(setup)
    distinct = [i for i, j in enumerate(first) if i == j]
    states = dict(zip(distinct, _engine_states([setups[i] for i in distinct], opts, (), map_groups)))
    outcomes = [states[i] if i == j else copy.deepcopy(states[j]) for i, j in enumerate(first)]
    return _finished(setups, outcomes)


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
