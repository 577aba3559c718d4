"""Data-generating-process simulators for every model class.

One simulator, simulate, serves every params class; simulate_mai,
simulate_iaar, simulate_vhari, simulate_drvar and simulate_ciaar are that
same function, kept so callers can look it up by model name. It and
simulate_var (the levels VAR's tscore.var_form) are deterministic given
(params, seed), start from zero pre-sample values, discard a burn-in
stretch, and refuse a state form whose companion is not stable. An explicit
shocks array (burn + T rows of innovations e_t) bypasses the random draw;
the nesting identities between models are checked that way.

A params object's checked state form, with the block operators that its
recursion builds (StateForm.ops), is built once and reused by every later
call while that object lives and its arrays keep their bytes; a refused one
is not kept. So Monte Carlo replications of one DGP pay only for their
shocks and their recursion.
"""

from __future__ import annotations

import weakref

import numpy as np

from .params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VHARIParams,
)
from .tscore import HAR_WINDOWS, STABLE_RADIUS, Panel, StateForm, fix_signs, orth_complement, var_form

__all__ = [
    "simulate",
    "simulate_var",
    "simulate_mai",
    "simulate_iaar",
    "simulate_vhari",
    "simulate_drvar",
    "simulate_ciaar",
    "random_mai_params",
    "random_iaar_params",
    "random_vhari_params",
    "random_drvar_params",
    "random_ciaar_params",
]

DEFAULT_BURN = 500


def draw_shocks(
    sigma: np.ndarray,
    length: int,
    seed: int,
    dist: str = "gaussian",
) -> np.ndarray:
    """Innovation draws with covariance sigma.

    dist="lognormal_garch" replaces the Gaussian marginals by standardized
    log-normals scaled by per-series GARCH(1,1) variances (unit unconditional
    variance), a stress distribution for the estimators.
    """
    rng = np.random.default_rng(seed)
    n = sigma.shape[0]
    L = np.linalg.cholesky(sigma)
    if dist == "gaussian":
        return rng.standard_normal((length, n)) @ L.T
    if dist == "lognormal_garch":
        z = rng.standard_normal((length, n))
        # standardized log-normal: mean 0, variance 1
        u = (np.exp(z) - np.exp(0.5)) / np.sqrt(np.exp(2.0) - np.exp(1.0))
        return (u * np.sqrt(_garch_variances(u, 0.05, 0.90))) @ L.T
    raise ValueError(f"unknown shock distribution {dist!r}")


def _garch_variances(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """h_0 = 1 and h_t = c + g_t h_{t-1}, g_t = a u_{t-1}^2 + b, c = 1 - a - b.

    From a known h_s, h_{s+k} = P_k (h_s + c sum_{i<=k} 1 / P_i) with P_k the
    running product of g over the block: a cumulative product and a
    cumulative sum of positive terms, with no cancellation. Every g_t >= b,
    so in blocks of at most 64 rows P >= b^64 (1.2e-3 at b = 0.9).
    """
    h = np.empty_like(u)
    h[0] = 1.0
    g = a * u[:-1] ** 2 + b                  # g[t - 1] = g_t
    for s in range(0, len(g), 64):
        P = np.cumprod(g[s: s + 64], axis=0)
        h[s + 1: s + 1 + len(P)] = P * (h[s] + (1.0 - a - b) * np.cumsum(1.0 / P, axis=0))
    return h


def _stable(form: StateForm) -> StateForm:
    """form, once its state companion's radius is below STABLE_RADIUS."""
    radius = form.spectral_radius()
    if radius >= STABLE_RADIUS:
        raise ValueError(f"nonstationary parameters: state companion spectral radius {radius:.6f}")
    return form


_CHECKED = {}   # id(params): (weak reference to params, the bytes of its arrays, its checked form)


def _checked_form(params) -> StateForm:
    """params.state_form(), refused unless it is stable and, for CIAAR, I(1)
    (Johansen 1995: alpha0_perp' PiBar beta_perp nonsingular, which leaves
    exactly n - r unit roots in the levels). A form that passed is kept, and
    served again, while params lives and its arrays hold the same bytes."""
    content = [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, vars(params).values())]
    ref, kept, form = _CHECKED.get(id(params), (None, None, None))
    if ref is not None and ref() is params and kept == content:
        return form
    if isinstance(params, CIAARParams):
        # a margin on parameters, not tscore.full_rank: it decides which random_ciaar_params draws stay
        sv = np.linalg.svd(params.i1_matrix(), compute_uv=False)
        if sv.size and (sv[0] == 0.0 or sv[-1] < 1e-8 * sv[0]):
            raise ValueError("parameters induce I(2) behavior: alpha0_perp' PiBar beta_perp is singular")
    form, key = _stable(params.state_form()), id(params)
    _CHECKED[key] = weakref.ref(params, lambda _: _CHECKED.pop(key, None)), content, form
    return form


def _simulate(form: StateForm, sigma, T, burn, seed, shocks, dist) -> Panel:
    """The last T of burn + T observations (levels of an integrated form) of
    a stable state form driven by the shocks, given or drawn, from zero
    pre-sample rows; raises unless T > 0 and burn >= 0."""
    if T <= 0 or burn < 0:
        raise ValueError("need T > 0 and burn >= 0")
    sigma = np.asarray(sigma)
    if shocks is None:
        shocks = draw_shocks(sigma, burn + T, seed, dist)
    shocks = np.asarray(shocks, float)
    if shocks.shape != (burn + T, sigma.shape[0]):
        raise ValueError(f"shocks must have shape ({burn + T}, {sigma.shape[0]})")
    out = form.run(shocks)
    return Panel((out[1] if form.integrated else out)[burn:])


def simulate_var(
    phis: list[np.ndarray],
    sigma: np.ndarray,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate a stationary VAR(p) given its coefficient matrices."""
    return _simulate(_stable(var_form(phis, np.shape(sigma)[0])), sigma, T, burn, seed, shocks, dist)


def simulate(
    params: MAIParams | IAARParams | VHARIParams | DRVARParams | CIAARParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """The last T of burn + T observations of params.state_form(), driven by
    the shocks. MAI's Y_t = sum_j alpha_j omega'Y_{t-j} + e_t runs as its
    index VAR f_t = sum_j omega'alpha_j f_{t-j} + omega'e_t, lifted to the
    levels Y_t = e_t + sum_j alpha_j f_{t-j}; VHARI and DRVAR run their index
    VARs likewise, IAAR its levels.

    VHARI needs burn >= 22: its 5/22-day means read the zero pre-sample rows
    and divide by the full 5 and 22 in the first 22 burn-in rows. The burn-in
    forgets that start at the rate of the companion radius: on
    random_vhari_params(5, 2) draws (radius 0.92 to 0.95), means over the
    available rows only would change the output by at most 2.4e-11 after the
    default burn of 500, 1.4e-2 at burn=100 and 0.39 at burn=22.

    A CIAAR panel has exactly n - r unit roots and stationary beta'Y_t, and
    is refused unless the I(1) conditions hold (nonsingular
    alpha0_perp' PiBar beta_perp, a stable state companion). It runs on the
    stationary (dY_t, beta'Y_t) and cumulates dY_t into the levels once;
    iterating the levels VAR instead accumulates rounding along the unit roots.
    """
    if isinstance(params, VHARIParams) and burn < HAR_WINDOWS[-1]:
        raise ValueError(f"VHARI simulation needs burn >= {HAR_WINDOWS[-1]} to fill the monthly window")
    return _simulate(_checked_form(params), params.sigma, T, burn, seed, shocks, dist)


simulate_mai = simulate_iaar = simulate_vhari = simulate_drvar = simulate_ciaar = simulate


# ---------------------------------------------------------------------------
# Deterministic reference DGP draws (tests, Monte Carlo mode, CLI simulate)
# ---------------------------------------------------------------------------


def _random_omega(rng, n: int, q: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, q)))
    return fix_signs(Q)


def _random_sigma(rng, n: int, strength: float = 0.3) -> np.ndarray:
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    return np.eye(n) + strength * (B @ B.T)


def _index_loadings(rng, omega, diag_coeffs, cross_scale: float):
    """alpha = omega B + omega_perp C so the index VAR has coefficients B."""
    n, q = omega.shape
    operp = orth_complement(omega)
    out = []
    for b in diag_coeffs:
        B = np.diag(b) + 0.1 * rng.standard_normal((q, q))
        C = cross_scale * rng.standard_normal((n - q, q))
        out.append(omega @ B + operp @ C)
    return out


def _zero_diagonal_loading(alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Project each row of alpha so (alpha omega')_ii = 0."""
    out = alpha.copy()
    for i in range(omega.shape[0]):
        w = omega[i]
        nrm = w @ w
        if nrm > 0:
            out[i] -= (out[i] @ w) / nrm * w
    return out


def _draw_stationary(seed: int, draw, limit: float, name: str):
    """The first of draw(rng, shrink) at shrink = 0.9**k, k = 0..63, from one
    generator, whose spectral radius is below limit."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        params = draw(rng, 0.9 ** attempt)
        if params.spectral_radius() < limit:
            return params
    raise RuntimeError(f"could not draw stationary {name} parameters")


def random_mai_params(
    n: int, q: int, p: int, seed: int = 0, radius: float = 0.7
) -> MAIParams:
    """Stationary MAI draw with index-VAR spectral radius close to `radius`."""
    def draw(rng, shrink):
        omega = _random_omega(rng, n, q)
        diag_coeffs = [shrink * np.linspace(radius, 0.3 * radius, q) * (0.35 ** j) for j in range(p)]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.4 * shrink)
        return MAIParams(omega, alphas, _random_sigma(rng, n))

    return _draw_stationary(seed, draw, 0.97, "MAI")


def random_iaar_params(
    n: int, q: int, p: int, s: int, seed: int = 0, diag: float = 0.3
) -> IAARParams:
    """Stationary IAAR draw with own-lag diagonals around `diag`, at orders
    the IAAR fitter accepts (IAARParams.check_orders)."""
    IAARParams.check_orders(n, p, s, q)

    def draw(rng, shrink):
        omega = _random_omega(rng, n, q)
        ds = [shrink * diag * rng.uniform(0.7, 1.0, n) * (0.5 ** j) for j in range(p)]
        diag_coeffs = [shrink * np.linspace(0.5, 0.2, max(q, 1)) * (0.35 ** j) for j in range(s)]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.3 * shrink) if q else []
        return IAARParams(ds, alphas, omega, _random_sigma(rng, n))

    return _draw_stationary(seed, draw, 0.97, "IAAR")


def random_vhari_params(n: int, q: int, seed: int = 0) -> VHARIParams:
    """Persistent VHARI draw mimicking realized-volatility cascades."""
    def draw(rng, shrink):
        omega = _random_omega(rng, n, q)
        diag_coeffs = [shrink * np.full(q, a) for a in (0.35, 0.30, 0.22)]
        ad, aw, am = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.25 * shrink)
        return VHARIParams(omega, ad, aw, am, _random_sigma(rng, n))

    return _draw_stationary(seed, draw, 0.98, "VHARI")


def random_drvar_params(n: int, q: int, p: int, seed: int = 0, radius: float = 0.8) -> DRVARParams:
    """DRVAR draw with orthonormal omega and index-VAR radius close to `radius`."""
    def draw(rng, shrink):
        omega = _random_omega(rng, n, q)
        phis = [
            shrink * np.diag(np.linspace(radius, 0.4 * radius, q)) * (0.35 ** j)
            + 0.1 * shrink * rng.standard_normal((q, q))
            for j in range(p)
        ]
        # innovation variance 2 along the index directions keeps the factors pervasive as n grows
        sigma = _random_sigma(rng, n, strength=0.2) + 2.0 * (omega @ omega.T)
        return DRVARParams(omega, phis, sigma)

    return _draw_stationary(seed, draw, 0.97, "DRVAR")


def random_ciaar_params(
    n: int, q: int, r: int, p: int, s: int, seed: int = 0, diag_orthogonal_loadings: bool = False
) -> CIAARParams:
    """I(1)-valid CIAAR draw.

    p and s follow the model-order convention: p-1 diagonal difference lags
    and s-1 index difference lags (p = 0 or 1 means none, likewise s). The
    own-lag diagonals lie around 0.3, and the error-correction term pulls
    the cointegration relations back to equilibrium at a rate near 0.4. With
    diag_orthogonal_loadings the index loadings are projected so that
    alpha_j omega' has a zero diagonal, leaving all own-lag dynamics to the
    D_j; on such draws the diagonal-stripping initialization is unbiased.
    """
    rng = np.random.default_rng(seed)
    nd, na = max(p - 1, 0), max(s - 1, 0)
    for _ in range(256):
        omega = _random_omega(rng, n, q)
        operp = orth_complement(omega)
        gamma = np.vstack([np.eye(r), 0.5 * rng.standard_normal((q - r, r))]) if r else np.zeros((q, 0))
        ds = [0.3 * rng.uniform(0.6, 1.0, n) * (0.5 ** j) for j in range(nd)]
        diag_coeffs = [np.linspace(0.4, 0.15, q) * (0.6 ** j) for j in range(na)]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.25)
        if diag_orthogonal_loadings:
            alphas = [_zero_diagonal_loading(a, omega) for a in alphas]
        if r:
            a0 = -0.4 * gamma @ np.linalg.inv(gamma.T @ gamma)
            alpha0 = omega @ (a0 + 0.05 * rng.standard_normal((q, r)))
            alpha0 = alpha0 + 0.1 * operp @ rng.standard_normal((n - q, r))
        else:
            alpha0 = np.zeros((n, 0))
        params = CIAARParams(ds, alpha0, gamma, omega, alphas, _random_sigma(rng, n))
        try:
            _checked_form(params)
        except ValueError:
            continue
        return params
    raise RuntimeError("could not draw I(1)-valid CIAAR parameters")
