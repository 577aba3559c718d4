"""Data-generating-process simulators for every model class.

All simulators are deterministic given (params, seed), start from zero
pre-sample values, and discard a burn-in stretch. Each runs its model's
state form, params.state_form() (simulate_var the levels VAR's,
tscore.var_form), driven by the shocks and refused unless its companion is
stable: MAI, VHARI and DRVAR iterate the q-dimensional VAR of their indexes
f_t = omega'Y_t, IAAR the levels, and CIAAR the stationary (dY_t, beta'Y_t),
whose differences are cumulated into the levels. Passing an explicit shocks
array (burn + T rows of innovations e_t) bypasses the random draw, which is
how the nesting identities between simulators are exercised.
"""

from __future__ import annotations

import numpy as np

from .params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VHARIParams,
)
from .tscore import Panel, StateForm, fix_signs, orth_complement, var_form

__all__ = [
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
    """form, once its state companion's radius is below 1 - 1e-8."""
    radius = form.spectral_radius()
    if radius >= 1.0 - 1e-8:
        raise ValueError(f"nonstationary parameters: state companion spectral radius {radius:.6f}")
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


def simulate_mai(
    params: MAIParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate Y_t = sum_j alpha_j omega' Y_{t-j} + e_t through its indexes
    f_t = omega'Y_t, the VAR f_t = sum_j omega'alpha_j f_{t-j} + omega'e_t,
    lifted to Y_t = e_t + sum_j alpha_j f_{t-j}."""
    return _simulate(_stable(params.state_form()), params.sigma, T, burn, seed, shocks, dist)


def simulate_iaar(
    params: IAARParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate the index-augmented autoregression (own-lag diagonals plus indexes)."""
    return _simulate(_stable(params.state_form()), params.sigma, T, burn, seed, shocks, dist)


def simulate_vhari(
    params: VHARIParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate the daily VHARI recursion through its index VAR(22).

    The 5/22-day means read the zero pre-sample rows before t = 0, so in
    the first 22 burn-in rows they divide sums that include zeros by the
    full 5 and 22. The burn-in forgets that start at the rate of the
    companion radius: on random_vhari_params(5, 2) draws (radius 0.92 to
    0.95), means over the available rows only would change the output by
    at most 2.4e-11 after the default burn of 500, 1.4e-2 at burn=100 and
    0.39 at burn=22.
    """
    if burn < 22:
        raise ValueError("VHARI simulation needs burn >= 22 to fill the monthly window")
    return _simulate(_stable(params.state_form()), params.sigma, T, burn, seed, shocks, dist)


def simulate_drvar(
    params: DRVARParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate Y_t = sum_j omega phi_j f_{t-j} + e_t with f_t = omega' Y_t."""
    return _simulate(_stable(params.state_form()), params.sigma, T, burn, seed, shocks, dist)


def simulate_ciaar(
    params: CIAARParams,
    T: int,
    burn: int = DEFAULT_BURN,
    seed: int = 0,
    shocks: np.ndarray | None = None,
    dist: str = "gaussian",
) -> Panel:
    """Simulate an I(1) panel from the cointegrated index-augmented model.

    The panel has exactly n - r unit roots and stationary beta' Y_t. Raises
    when the parameters violate the I(1) conditions (singular
    alpha0_perp' PiBar beta_perp, or an unstable state companion). The
    recursion runs on the stationary state (dY_t, beta'Y_t), whose companion
    those conditions make stable, and cumulates dY_t into the levels once;
    iterating the levels VAR instead accumulates rounding along the unit
    roots.
    """
    return _simulate(_validate_i1(params), params.sigma, T, burn, seed, shocks, dist)


def _validate_i1(params: CIAARParams) -> StateForm:
    """The state form of I(1) parameters: raises unless alpha0_perp' PiBar
    beta_perp is nonsingular and the state (dY_t, beta'Y_t) is stable, which
    leaves exactly n - r unit roots in the levels (Johansen 1995)."""
    sv = np.linalg.svd(params.i1_matrix(), compute_uv=False)
    if sv.size and (sv[0] == 0.0 or sv[-1] < 1e-8 * sv[0]):
        raise ValueError(
            "parameters induce I(2) behavior: alpha0_perp' PiBar beta_perp is singular"
        )
    return _stable(params.state_form())


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


def random_mai_params(
    n: int, q: int, p: int, seed: int = 0, radius: float = 0.7
) -> MAIParams:
    """Stationary MAI draw with index-VAR spectral radius close to `radius`."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        shrink = 0.9 ** attempt
        omega = _random_omega(rng, n, q)
        diag_coeffs = [
            shrink * np.linspace(radius, 0.3 * radius, q) * (0.35 ** j) for j in range(p)
        ]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.4 * shrink)
        params = MAIParams(omega, alphas, _random_sigma(rng, n))
        if params.spectral_radius() < 0.97:
            return params
    raise RuntimeError("could not draw stationary MAI parameters")


def random_iaar_params(
    n: int, q: int, p: int, s: int, seed: int = 0, diag: float = 0.3
) -> IAARParams:
    """Stationary IAAR draw with own-lag diagonals around `diag`."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        shrink = 0.9 ** attempt
        omega = _random_omega(rng, n, q)
        ds = [shrink * diag * rng.uniform(0.7, 1.0, n) * (0.5 ** j) for j in range(p)]
        diag_coeffs = [shrink * np.linspace(0.5, 0.2, max(q, 1)) * (0.35 ** j) for j in range(s)]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.3 * shrink) if q else []
        params = IAARParams(ds, alphas, omega, _random_sigma(rng, n))
        if params.spectral_radius() < 0.97:
            return params
    raise RuntimeError("could not draw stationary IAAR parameters")


def random_vhari_params(n: int, q: int, seed: int = 0) -> VHARIParams:
    """Persistent VHARI draw mimicking realized-volatility cascades."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        shrink = 0.9 ** attempt
        omega = _random_omega(rng, n, q)
        ad, aw, am = _index_loadings(
            rng,
            omega,
            [shrink * np.full(q, 0.35), shrink * np.full(q, 0.30), shrink * np.full(q, 0.22)],
            cross_scale=0.25 * shrink,
        )
        params = VHARIParams(omega, ad, aw, am, _random_sigma(rng, n))
        if params.spectral_radius() < 0.98:
            return params
    raise RuntimeError("could not draw stationary VHARI parameters")


def random_drvar_params(
    n: int,
    q: int,
    p: int,
    seed: int = 0,
    radius: float = 0.8,
    common_variance: float = 2.0,
) -> DRVARParams:
    """DRVAR draw with orthonormal omega and index-VAR radius close to `radius`.

    common_variance adds innovation variance along the index directions, so
    the factors stay pervasive as n grows.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        shrink = 0.9 ** attempt
        omega = _random_omega(rng, n, q)
        phis = [
            shrink * np.diag(np.linspace(radius, 0.4 * radius, q)) * (0.35 ** j)
            + 0.1 * shrink * rng.standard_normal((q, q))
            for j in range(p)
        ]
        sigma = _random_sigma(rng, n, strength=0.2) + common_variance * (omega @ omega.T)
        params = DRVARParams(omega, phis, sigma)
        if params.spectral_radius() < 0.97:
            return params
    raise RuntimeError("could not draw stationary DRVAR parameters")


def random_ciaar_params(
    n: int,
    q: int,
    r: int,
    p: int,
    s: int,
    seed: int = 0,
    diag: float = 0.3,
    adjustment: float = 0.4,
    diag_orthogonal_loadings: bool = False,
) -> CIAARParams:
    """I(1)-valid CIAAR draw.

    p and s follow the model-order convention: p-1 diagonal difference lags
    and s-1 index difference lags (p = 0 or 1 means none, likewise s).
    `adjustment` controls how fast the error-correction term pulls the
    cointegration relations back to equilibrium. With
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
        ds = [diag * rng.uniform(0.6, 1.0, n) * (0.5 ** j) for j in range(nd)]
        diag_coeffs = [np.linspace(0.4, 0.15, q) * (0.6 ** j) for j in range(na)]
        alphas = _index_loadings(rng, omega, diag_coeffs, cross_scale=0.25)
        if diag_orthogonal_loadings:
            alphas = [_zero_diagonal_loading(a, omega) for a in alphas]
        if r:
            a0 = -adjustment * gamma @ np.linalg.inv(gamma.T @ gamma)
            alpha0 = omega @ (a0 + 0.05 * rng.standard_normal((q, r)))
            alpha0 = alpha0 + 0.1 * operp @ rng.standard_normal((n - q, r))
        else:
            alpha0 = np.zeros((n, 0))
        params = CIAARParams(ds, alpha0, gamma, omega, alphas, _random_sigma(rng, n))
        try:
            _validate_i1(params)
        except ValueError:
            continue
        return params
    raise RuntimeError("could not draw I(1)-valid CIAAR parameters")
