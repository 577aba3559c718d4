"""Wold representations, common/uncommon and permanent/transitory
decompositions, structural transitory impulse responses, and the
dimension-reducible dynamic/static split.

A component Psi(L) W eps_t with zero pre-sample shocks is exactly the fitted
lag recursion driven by W eps_t, so every component series comes from one
run of the fit's state form, fit.params.state_form(), on the stacked
drives, with no truncation: the q indexes of a MAI or VHARI, the levels of
an IAAR, and (dY_t, beta'Y_t) of an error-correction fit, whose components
are differences cumulated into levels. A fit is decomposed only when its
state companion is stable. The orthogonality and reduced-rank properties
hold by construction; the components plus the deterministic continuation of
the fitted recursion (the initial-condition path) reconstruct the data to
rounding, which is checked whenever the fitted panel is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import FitResult
from .forecast import _presample
from .tscore import Panel, orth_complement, var_recursion

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

RECON_TOL = 1e-8


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
    (demeaned) data exactly, and recon_error is the rounding left over.
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


def _fitted_recursion(fit: FitResult, drive: np.ndarray, Y: Panel | None = None):
    """The fit's state form run on `drive` from zero pre-sample rows.

    Returns (y, None) for a stationary form, y the levels, and (y, levels)
    for an integrated one, y the differences. With the fitted panel Y, a
    (T, n, k) drive gains a last column, the baseline: the zero-shock
    continuation from the actual pre-target rows and the demeaned last
    level (forecast._presample). Raises unless the state companion is
    stable, so that the fit's Wold sequence converges.
    """
    form = fit.params.state_form()
    if form.spectral_radius() >= 1.0 - 1e-8:
        if form.integrated:
            raise ValueError("fitted model has unstable non-unit companion roots")
        raise ValueError("fitted model is not stationary")
    init = level = None
    if Y is not None:
        _, pre, mean_y, last, _ = _presample(fit, Y, fit.t_start, form)
        k = drive.shape[2]                            # the baseline is column k
        row = np.broadcast_to(form.intercept(mean_y)[:, None], drive.shape[:2] + (1,))
        drive = np.concatenate([drive, row], axis=2)
        init = np.concatenate([np.zeros(pre.shape + (k,)), pre[..., None]], axis=2)
        if last is not None:
            level = np.concatenate([np.zeros((len(last), k)), last[:, None]], axis=1)
    out = form.run(drive, init, level)
    return out if form.integrated else (out, None)


def _unit_impulse(n: int, H: int) -> np.ndarray:
    """H + 1 rows of n x n drive, the identity at row 0: its response is Psi_0..Psi_H."""
    impulse = np.zeros((H + 1, n, n))
    impulse[0] = np.eye(n)
    return impulse


def wold(fit: FitResult, H: int) -> WoldSeq:
    """Truncated Wold coefficients of the fitted model.

    The fit's state form driven by a unit impulse: the levels responses of
    a stationary fit, and for an error-correction fit the Wold sequence of
    the first differences (increments of the levels impulse responses).
    """
    if H < 0:
        raise ValueError("need H >= 0")
    psis = _fitted_recursion(fit, _unit_impulse(fit.params.n, H))[0]
    omega = getattr(fit.params, "omega", None)
    thetas = violations = None
    if omega is not None and omega.shape[1] > 0 and H >= 1:
        proj = omega @ np.linalg.inv(omega.T @ omega)
        thetas = psis[1:] @ proj
        resid = psis[1:] - thetas @ omega.T
        violations = np.abs(resid).max(axis=(1, 2))
    return WoldSeq(psis, thetas, violations)


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


def _demeaned_targets(fit: FitResult, Y: Panel, integrated: bool) -> np.ndarray:
    """The (differenced, demeaned) series the residuals refer to."""
    if integrated:
        d = np.diff(Y.values, axis=0) - fit.means.get("diff", 0.0)
        return d[fit.t_start - 1:]
    return (Y.values - fit.means.get("level", 0.0))[fit.t_start:]


def _components(fit: FitResult, Y: Panel | None, filters):
    """Psi(L) W eps_t for each (W, eps) of filters, all in one recursion.

    Returns the components on the last axis (differences for
    error-correction fits), their levels (None for stationary fits), the
    baseline and the reconstruction error, both None / NaN without Y. The
    baseline, the deterministic continuation of the fitted recursion from
    the actual pre-target rows (demeaned levels for stationary fits,
    demeaned differences for error-correction fits), is the recursion's last
    column. The components are exact, so a reconstruction error above
    RECON_TOL means the residuals are not those of the fitted parameters.
    """
    drive = np.stack([eps @ W.T for W, eps in filters], axis=2)
    comps, levels = _fitted_recursion(fit, drive, Y)
    if Y is None:
        return comps, levels, None, np.nan
    k = len(filters)
    base = comps[..., k] - fit.means.get("diff", 0.0)
    comps, levels = comps[..., :k], None if levels is None else levels[..., :k]
    err = float(np.max(np.abs(comps.sum(axis=2) + base - _demeaned_targets(fit, Y, levels is not None))))
    if err > RECON_TOL:
        raise ValueError(
            f"components miss the data by {err:.2e} (above {RECON_TOL:.0e}): "
            "the residuals do not match the fitted parameters"
        )
    return comps, levels, base, err


def _uncommon(fit: FitResult, omega: np.ndarray):
    """Uncommon shocks omega_perp' Sigma^-1 e_t and their loading W_iota."""
    sigma = fit.params.sigma
    operp = orth_complement(omega)
    sig_inv_perp = np.linalg.solve(sigma, operp)
    return fit.residuals @ sig_inv_perp, operp @ np.linalg.inv(operp.T @ sig_inv_perp)


def common_uncommon(fit: FitResult, Y: Panel) -> Decomposition:
    """Split the series into common and uncommon components.

    The common shocks are the index shocks omega' e_t and the uncommon
    shocks omega_perp' Sigma^-1 e_t; the components are the fitted
    recursion driven by their projections. For error-correction fits the
    recursion runs on increments and the components cumulate them from zero.
    """
    if fit.model not in ("mai", "iaar", "vhari", "ciaar", "vecim"):
        raise ValueError(f"no common/uncommon split for model {fit.model!r}")
    omega = _fitted_omega(fit)
    eps_chi = fit.residuals @ omega
    eps_iota, w_iota = _uncommon(fit, omega)
    sig_omega = fit.params.sigma @ omega
    w_chi = sig_omega @ np.linalg.inv(omega.T @ sig_omega)
    comps, levels, base, err = _components(fit, Y, [(w_chi, eps_chi), (w_iota, eps_iota)])
    extras = {}
    if levels is not None:
        extras = {"dchi": comps[..., 0], "diota": comps[..., 1]}
        comps = levels
    return Decomposition(
        comps[..., 0], comps[..., 1], eps_chi, eps_iota,
        baseline=base, recon_error=err, extras=extras,
    )


def _perm_trans_weights(fit: FitResult):
    """Index-space pieces: alpha0_bar, Sigma_bar, and the two shock maps."""
    omega = _fitted_omega(fit)
    sigma = fit.params.sigma
    a0_bar = omega.T @ fit.params.alpha0            # q x r
    sig_bar = omega.T @ sigma @ omega               # q x q
    a0_perp = orth_complement(a0_bar)               # q x (q-r)
    return omega, sigma, a0_bar, sig_bar, a0_perp


def perm_trans(fit: FitResult, Y: Panel | None = None) -> Decomposition:
    """Permanent/transitory/uncommon split for error-correction index fits.

    eps_pi = alpha0_bar_perp' eps_chi drives the common permanent component
    and eps_tau = alpha0_bar' Sigma_bar^-1 eps_chi the common transitory
    one; r = 0 or r = q leave the respective component identically zero
    with a degenerate flag. Passing the fitted panel adds the baseline and
    the reconstruction check.
    """
    if fit.model not in ("ciaar", "vecim"):
        raise ValueError(f"permanent/transitory split needs a CIAAR/VECIM fit, got {fit.model!r}")
    omega, sigma, a0_bar, sig_bar, a0_perp = _perm_trans_weights(fit)
    q, r = omega.shape[1], a0_bar.shape[1]
    eps_chi = fit.residuals @ omega
    eps_iota, w_iota = _uncommon(fit, omega)
    eps_pi = eps_chi @ a0_perp
    sb_inv_a0 = np.linalg.solve(sig_bar, a0_bar)
    eps_tau = eps_chi @ sb_inv_a0
    sig_omega = sigma @ omega
    # Delta pi_t = Psi(L) Sigma omega a0_perp (a0_perp' Sigma_bar a0_perp)^-1 eps_pi
    w_pi = sig_omega @ a0_perp @ np.linalg.inv(a0_perp.T @ sig_bar @ a0_perp)
    # Delta tau_t = Psi(L) Sigma omega Sigma_bar^-1 a0_bar (a0_bar' Sigma_bar^-1 a0_bar)^-1 eps_tau
    w_tau = sig_omega @ sb_inv_a0 @ np.linalg.inv(a0_bar.T @ sb_inv_a0)
    comps, levels, base, err = _components(
        fit, Y, [(w_pi, eps_pi), (w_tau, eps_tau), (w_iota, eps_iota)]
    )
    extras = {}
    if r == 0:
        extras["degenerate"] = "tau"
    if r == q:
        extras["degenerate"] = "pi"
    extras.update({"dpi": comps[..., 0], "dtau": comps[..., 1], "diota": comps[..., 2]})
    pi, tau, iota = levels[..., 0], levels[..., 1], levels[..., 2]
    return Decomposition(
        pi + tau,
        iota,
        eps_chi,
        eps_iota,
        pi=pi,
        tau=tau,
        eps_pi=eps_pi,
        eps_tau=eps_tau,
        baseline=base,
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
    phis, q = fit.params.phis, omega.shape[1]
    gammas = var_recursion(phis, np.zeros((len(phis), q, q)), _unit_impulse(q, 200))
    c_seq = np.concatenate(
        [(omega + rho_t.T)[None], np.einsum("nq,jqm->jnm", omega, gammas[1:])], axis=0
    )
    return Decomposition(
        dynamic, static, eps_chi, Z @ operp,
        extras={"nu": nu, "rho": rho_t.T, "c_seq": c_seq},
    )
