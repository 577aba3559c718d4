"""Wold representations, common/uncommon and permanent/transitory
decompositions, structural transitory impulse responses, and the
dimension-reducible dynamic/static split.

All component series are built by filtering the fitted residual projections
with the truncated Wold sequence, so the orthogonality and reduced-rank
properties hold by construction; reconstruction identities are checked
against the deterministic continuation of the fitted recursion (the
initial-condition path), with the truncation horizon extended automatically
until the residual falls below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult
from .forecast import _continuation
from .tscore import (
    Panel,
    companion_matrix,
    companion_spectral_radius,
    orth_complement,
    var_recursion,
)

__all__ = [
    "WoldSeq",
    "Decomposition",
    "StructuralIRF",
    "wold",
    "cc_projectors",
    "common_uncommon",
    "perm_trans",
    "structural_transitory_irf",
    "drvar_decompose",
]

STATIONARY_MODELS = ("mai", "iaar", "vhari", "drvar")
I1_MODELS = ("ciaar", "vecim", "vecm")
RECON_TOL = 1e-8
H_CAP = 2000


@dataclass
class WoldSeq:
    """Truncated Wold sequence Psi_0..Psi_H (Psi_0 = I).

    For index models, thetas holds the reduced loadings
    theta_j = Psi_j omega (omega'omega)^-1 and violations the max-abs norm of
    the structure residual Psi_j - theta_j omega' at each lag j >= 1 (zero,
    up to rounding, whenever the Wold matrices share omega's row space).
    """

    psis: np.ndarray                  # (H+1) x n x n
    thetas: np.ndarray | None         # H x n x q
    violations: np.ndarray | None     # H

    @property
    def H(self) -> int:
        return self.psis.shape[0] - 1


@dataclass
class Decomposition:
    """Component series and their driving shocks over the residual span.

    chi/iota are the common and uncommon components; pi/tau the common
    permanent and transitory subcomponents of I(1) fits (None otherwise).
    baseline is the deterministic continuation of the fitted recursion from
    the pre-sample observations: components + baseline reconstruct the
    (demeaned) data up to Wold truncation.
    """

    chi: np.ndarray
    iota: np.ndarray
    eps_chi: np.ndarray
    eps_iota: np.ndarray
    pi: np.ndarray | None = None
    tau: np.ndarray | None = None
    eps_pi: np.ndarray | None = None
    eps_tau: np.ndarray | None = None
    baseline: np.ndarray | None = None
    horizon: int = 0
    recon_error: float = np.nan
    extras: dict = field(default_factory=dict)


@dataclass
class StructuralIRF:
    """Responses to the structural transitory shocks u_t = C^-1 D eps_tau_t."""

    theta_seq: np.ndarray             # (H+1) x n x r
    shocks: np.ndarray                # T_eff x r
    C: np.ndarray                     # r x r lower triangular


def _fitted_omega(fit: FitResult) -> np.ndarray:
    omega = getattr(fit.params, "omega", None)
    if omega is None or omega.shape[1] == 0:
        raise ValueError(f"fit of model {fit.model!r} carries no index weights")
    return omega


def _check_i1_roots(fit: FitResult) -> None:
    eigs = np.linalg.eigvals(companion_matrix(fit.params.var_coeffs()))
    unit = np.abs(eigs - 1.0) < 1e-8
    if np.any(np.abs(eigs[~unit]) >= 1.0 - 1e-8):
        raise ValueError("fitted model has unstable non-unit companion roots")


def wold(fit: FitResult, H: int) -> WoldSeq:
    """Truncated Wold coefficients of the fitted model.

    Stationary fits use the standard recursion on the levels AR polynomial;
    error-correction fits return the Wold sequence of the first differences
    (increments of the levels impulse responses).
    """
    if H < 0:
        raise ValueError("need H >= 0")
    if fit.model in STATIONARY_MODELS:
        phis = fit.params.var_coeffs()
        if companion_spectral_radius(phis) >= 1.0 - 1e-8:
            raise ValueError("fitted model is not stationary")
        psis = _impulse_responses(phis, fit.params.n, H)
    elif fit.model in I1_MODELS:
        _check_i1_roots(fit)
        ec, pis = fit.params.ec_form()
        psis = _impulse_responses(pis, fit.params.n, H, ec)
    else:
        raise ValueError(f"unknown model {fit.model!r}")

    omega = getattr(fit.params, "omega", None)
    thetas = violations = None
    if omega is not None and omega.shape[1] > 0 and H >= 1:
        proj = omega @ np.linalg.inv(omega.T @ omega)
        thetas = psis[1:] @ proj
        resid = psis[1:] - thetas @ omega.T
        violations = np.abs(resid).max(axis=(1, 2))
    return WoldSeq(psis, thetas, violations)


def _impulse_responses(phis: list, n: int, H: int, ec: np.ndarray | None = None) -> np.ndarray:
    """Psi_0 = I, ..., Psi_H of the n-dimensional recursion; with ec, of its increments."""
    impulse = np.zeros((H + 1, n, n))
    impulse[0] = np.eye(n)
    init = np.zeros((len(phis), n, n))
    if ec is None:
        return var_recursion(phis, init, impulse)
    return var_recursion(phis, init, impulse, ec=ec, level=np.zeros((n, n)))[0]


def cc_projectors(sigma: np.ndarray, omega: np.ndarray):
    """Oblique decomposition of the identity into common and uncommon projectors.

    P_common = Sigma omega (omega' Sigma omega)^-1 omega' and
    P_uncommon = omega_perp (omega_perp' Sigma^-1 omega_perp)^-1 omega_perp' Sigma^-1
    sum to the identity and are idempotent.
    """
    sigma = np.asarray(sigma, float)
    omega = np.atleast_2d(np.asarray(omega, float))
    mid = omega.T @ sigma @ omega
    sv = np.linalg.svd(mid, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise ValueError("omega' Sigma omega is singular")
    p_common = sigma @ omega @ np.linalg.solve(mid, omega.T)
    operp = orth_complement(omega)
    sig_inv_perp = np.linalg.solve(sigma, operp)
    p_uncommon = operp @ np.linalg.solve(operp.T @ sig_inv_perp, sig_inv_perp.T)
    return p_common, p_uncommon


def _apply_filter(coeffs: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """y_t = sum_{j=0..H} coeffs[j] shocks_{t-j} with zero pre-sample shocks."""
    Te = shocks.shape[0]
    H = coeffs.shape[0] - 1
    out = np.zeros((Te, coeffs.shape[1]))
    for j in range(min(H, Te - 1) + 1):
        if j == 0:
            out += shocks @ coeffs[0].T
        else:
            out[j:] += shocks[:-j] @ coeffs[j].T
    return out


def _i1_like(fit: FitResult) -> bool:
    return fit.model in I1_MODELS


def _baseline_increments(fit: FitResult, Y: Panel) -> np.ndarray:
    """Deterministic continuation of the fitted recursion over the target rows.

    The zero-shock path that forecast() also runs (forecast._continuation,
    one tscore.var_recursion call), started from the actual pre-target
    observations; the targets minus this path are exactly the
    truncated-Wold filtering of the residuals. Stationary fits return the
    decaying initial-condition path of the demeaned levels,
    error-correction fits the baseline of the demeaned differences.
    """
    levels, diffs = _continuation(fit, Y, fit.t_start, Y.T - fit.t_start)
    return levels if diffs is None else diffs - fit.means.get("diff", 0.0)


def _demeaned_targets(fit: FitResult, Y: Panel) -> np.ndarray:
    """The (differenced, demeaned) series the residuals refer to."""
    if _i1_like(fit):
        d = np.diff(Y.values, axis=0) - fit.means.get("diff", 0.0)
        return d[fit.t_start - 1:]
    return (Y.values - fit.means.get("level", 0.0))[fit.t_start:]


def _extend_wold(fit, Y, build, start_H):
    """Grow the truncation horizon until reconstruction is within tolerance."""
    H = max(start_H, 1)
    target = _demeaned_targets(fit, Y)
    base_inc = _baseline_increments(fit, Y)
    while True:
        w = wold(fit, H)
        parts = build(w)
        recon = sum(parts) + base_inc
        err = float(np.max(np.abs(recon - target)))
        if err <= RECON_TOL or H >= H_CAP:
            break
        H = min(2 * H, H_CAP)
    if err > RECON_TOL:
        raise ValueError(
            f"Wold truncation error {err:.2e} above {RECON_TOL:.0e} at horizon cap {H_CAP}"
        )
    return w, parts, base_inc, err, H


def common_uncommon(fit: FitResult, Y: Panel, H: int = 200) -> Decomposition:
    """Split the series into common and uncommon components.

    The common shocks are the index shocks omega' e_t and the uncommon
    shocks omega_perp' Sigma^-1 e_t; the components filter them with the
    truncated Wold sequence. For error-correction fits the filtering runs on
    increments and the components are cumulated from zero.
    """
    if fit.model not in ("mai", "iaar", "vhari", "ciaar", "vecim"):
        raise ValueError(f"no common/uncommon split for model {fit.model!r}")
    omega = _fitted_omega(fit)
    sigma = fit.params.sigma
    eps = fit.residuals
    operp = orth_complement(omega)
    eps_chi = eps @ omega
    eps_iota = eps @ np.linalg.solve(sigma, operp)
    sig_omega = sigma @ omega
    mid = np.linalg.inv(omega.T @ sig_omega)
    w_iota = operp @ np.linalg.inv(operp.T @ np.linalg.solve(sigma, operp))

    def build(w):
        chi_coeffs = w.psis @ (sig_omega @ mid)
        iota_coeffs = w.psis @ w_iota
        return [_apply_filter(chi_coeffs, eps_chi), _apply_filter(iota_coeffs, eps_iota)]

    w, (chi, iota), base_inc, err, H = _extend_wold(fit, Y, build, H)
    if _i1_like(fit):
        chi_lvl, iota_lvl = np.cumsum(chi, axis=0), np.cumsum(iota, axis=0)
        extras = {"dchi": chi, "diota": iota}
        chi, iota = chi_lvl, iota_lvl
    else:
        extras = {}
    return Decomposition(
        chi, iota, eps_chi, eps_iota, baseline=base_inc,
        horizon=H, recon_error=err, extras=extras,
    )


def _perm_trans_weights(fit: FitResult):
    """Index-space pieces: alpha0_bar, Sigma_bar, and the two shock maps."""
    omega = _fitted_omega(fit)
    sigma = fit.params.sigma
    a0_bar = omega.T @ fit.params.alpha0            # q x r
    sig_bar = omega.T @ sigma @ omega               # q x q
    a0_perp = orth_complement(a0_bar)               # q x (q-r)
    return omega, sigma, a0_bar, sig_bar, a0_perp


def perm_trans(fit: FitResult, H: int = 200, Y: Panel | None = None) -> Decomposition:
    """Permanent/transitory/uncommon split for error-correction index fits.

    eps_pi = alpha0_bar_perp' eps_chi drives the common permanent component
    and eps_tau = alpha0_bar' Sigma_bar^-1 eps_chi the common transitory
    one; r = 0 or r = q leave the respective component identically zero
    with a degenerate flag. Passing the fitted panel enables the exact
    reconstruction check (and horizon auto-extension).
    """
    if fit.model not in ("ciaar", "vecim"):
        raise ValueError(f"permanent/transitory split needs a CIAAR/VECIM fit, got {fit.model!r}")
    omega, sigma, a0_bar, sig_bar, a0_perp = _perm_trans_weights(fit)
    q, r = omega.shape[1], a0_bar.shape[1]
    eps = fit.residuals
    Te = eps.shape[0]
    eps_chi = eps @ omega
    operp = orth_complement(omega)
    eps_iota = eps @ np.linalg.solve(sigma, operp)
    eps_pi = eps_chi @ a0_perp
    sb_inv_a0 = np.linalg.solve(sig_bar, a0_bar) if r else np.zeros((q, 0))
    eps_tau = eps_chi @ sb_inv_a0

    sig_omega = sigma @ omega
    # Delta pi_t = Psi(L) Sigma omega a0_perp (a0_perp' Sigma_bar a0_perp)^-1 eps_pi
    w_pi = sig_omega @ a0_perp @ np.linalg.inv(a0_perp.T @ sig_bar @ a0_perp) if r < q else np.zeros((omega.shape[0], 0))
    # Delta tau_t = Psi(L) Sigma omega Sigma_bar^-1 a0_bar (a0_bar' Sigma_bar^-1 a0_bar)^-1 eps_tau
    w_tau = sig_omega @ np.linalg.solve(sig_bar, a0_bar) @ np.linalg.inv(a0_bar.T @ sb_inv_a0) if r else np.zeros((omega.shape[0], 0))
    w_iota = operp @ np.linalg.inv(operp.T @ np.linalg.solve(sigma, operp))

    def build(w):
        out = []
        out.append(_apply_filter(w.psis @ w_pi, eps_pi) if r < q else np.zeros((Te, omega.shape[0])))
        out.append(_apply_filter(w.psis @ w_tau, eps_tau) if r else np.zeros((Te, omega.shape[0])))
        out.append(_apply_filter(w.psis @ w_iota, eps_iota))
        return out

    extras = {}
    if r == 0:
        extras["degenerate"] = "tau"
    if r == q:
        extras["degenerate"] = "pi"
    if Y is not None:
        w, (dpi, dtau, diota), base_inc, err, H = _extend_wold(fit, Y, build, H)
    else:
        w = wold(fit, H)
        dpi, dtau, diota = build(w)
        base_inc, err = None, np.nan
    extras.update({"dpi": dpi, "dtau": dtau, "diota": diota})
    chi = np.cumsum(dpi + dtau, axis=0)
    return Decomposition(
        chi,
        np.cumsum(diota, axis=0),
        eps_chi,
        eps_iota,
        pi=np.cumsum(dpi, axis=0),
        tau=np.cumsum(dtau, axis=0),
        eps_pi=eps_pi,
        eps_tau=eps_tau,
        baseline=base_inc,
        horizon=w.H,
        recon_error=err,
        extras=extras,
    )


def structural_transitory_irf(fit: FitResult, H: int = 200) -> StructuralIRF:
    """Cholesky-identified responses to the common transitory shocks.

    With D the first r rows of the transitory filter at lag zero and C the
    lower Cholesky factor of D Cov(eps_tau) D', the shocks u_t = C^-1 D
    eps_tau_t have identity covariance and the first r rows of the impact
    response equal C (lower triangular, positive diagonal).
    """
    if fit.model not in ("ciaar", "vecim"):
        raise ValueError(f"structural transitory shocks need a CIAAR/VECIM fit, got {fit.model!r}")
    omega, sigma, a0_bar, sig_bar, _ = _perm_trans_weights(fit)
    r = a0_bar.shape[1]
    if r < 1:
        raise ValueError("structural transitory shocks need r >= 1")
    sb_inv_a0 = np.linalg.solve(sig_bar, a0_bar)
    w_tau = sigma @ omega @ sb_inv_a0 @ np.linalg.inv(a0_bar.T @ sb_inv_a0)
    w = wold(fit, H)
    t_seq = w.psis @ w_tau                        # (H+1) x n x r, T(L) coefficients
    D = t_seq[0][:r, :]
    sv = np.linalg.svd(D, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1e-300):
        raise ValueError(
            "first r rows of the impact transitory response are rank deficient; "
            "reorder the variables so the leading block is nonsingular"
        )
    cov_tau = a0_bar.T @ sb_inv_a0                # Cov(eps_tau), exact at the fit
    C = np.linalg.cholesky(D @ cov_tau @ D.T)
    eps_tau = (fit.residuals @ omega) @ sb_inv_a0
    shocks = eps_tau @ (np.linalg.solve(C, D)).T
    theta_seq = t_seq @ np.linalg.solve(D, C)
    return StructuralIRF(theta_seq, shocks, C)


def drvar_decompose(fit: FitResult, Y: Panel) -> Decomposition:
    """Dynamic/static split of a dimension-reducible VAR fit.

    The dynamic component omega f_t and static component
    omega_perp omega_perp' Y_t add up to Y_t exactly; regressing the static
    part on the index shocks gives the impact loading rho and the ignorable
    errors nu_t, with C_0 = omega + rho and C_j = omega gamma_j stored in
    extras.
    """
    if fit.model != "drvar":
        raise ValueError(f"expected a DRVAR fit, got {fit.model!r}")
    omega = fit.params.omega
    operp = orth_complement(omega)
    Z = (Y.values - fit.means.get("level", 0.0))[fit.t_start:]
    f = Z @ omega
    dynamic = f @ omega.T
    static = Z @ operp @ operp.T
    eps_chi = fit.residuals @ omega
    rho_t, *_ = np.linalg.lstsq(eps_chi, static, rcond=None)
    nu = static - eps_chi @ rho_t
    gammas = _impulse_responses(fit.params.phis, omega.shape[1], 200)
    c_seq = np.concatenate(
        [(omega + rho_t.T)[None], np.einsum("nq,jqm->jnm", omega, gammas[1:])], axis=0
    )
    return Decomposition(
        dynamic, static, eps_chi, Z @ operp,
        extras={"nu": nu, "rho": rho_t.T, "c_seq": c_seq},
    )
