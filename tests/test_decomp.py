import dataclasses

import numpy as np
import pytest

from indexvar.decomp import (
    cc_projectors,
    common_uncommon,
    drvar_decompose,
    perm_trans,
    residuals,
    structural_transitory_irf,
    wold,
)
from indexvar.estimators import (
    fit_ciaar,
    fit_drvar_coeffs,
    fit_drvar_omega,
    fit_iaar,
    fit_mai,
    fit_vecim,
)
from indexvar.forecast import forecast, rolling_evaluate
from indexvar.params import CIAARParams
from indexvar.simulate import (
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
    simulate_ciaar,
    simulate_drvar,
    simulate_iaar,
    simulate_mai,
)
from indexvar.tscore import Panel, orth_complement


@pytest.fixture(scope="module")
def mai_fit():
    params = random_mai_params(6, 2, 1, seed=3)
    Y = simulate_mai(params, 2000, seed=11)
    return params, Y, fit_mai(Y, 1, 2)


@pytest.fixture(scope="module")
def vecim_fit():
    params = random_ciaar_params(6, 2, 1, 0, 3, seed=6)
    Y = simulate_ciaar(params, 3000, seed=10)
    return params, Y, fit_vecim(Y, 3, 2, 1)


class TestWold:
    def test_var1_powers(self):
        params = random_mai_params(4, 2, 1, seed=0)
        Y = simulate_mai(params, 600, seed=1)
        fit = fit_mai(Y, 1, 2)
        A = fit.params.var_coeffs()[0]
        w = wold(fit, 5)
        assert w.H == 5
        acc = np.eye(4)
        for j in range(6):
            assert np.abs(w.psis[j] - acc).max() < 1e-12
            acc = A @ acc

    def test_mai_wold_annihilates_omega_perp(self, mai_fit):
        _, _, fit = mai_fit
        w = wold(fit, 200)
        perp = orth_complement(fit.params.omega)
        viol = max(np.abs(w.psis[j] @ perp).max() for j in range(1, 201))
        assert viol < 1e-10
        assert w.violations.max() < 1e-10

    def test_iaar_violates_structure(self):
        ip = random_iaar_params(6, 1, 1, 1, seed=3, diag=0.8)
        Y = simulate_iaar(ip, 2000, seed=8)
        fit = fit_iaar(Y, 1, 1, 1)
        w = wold(fit, 50)
        assert w.violations.max() >= 1e-2

    def test_bad_horizon(self, mai_fit):
        with pytest.raises(ValueError):
            wold(mai_fit[2], -1)

    def test_nonstationary_fit_rejected(self):
        from indexvar.estimators import FitResult
        from indexvar.params import MAIParams

        bad = MAIParams(np.eye(3)[:, :1], [1.2 * np.eye(3)[:, :1]], np.eye(3))
        fit = FitResult("mai", bad, np.array([0.0]), np.zeros((10, 3)), True, 1, 1)
        with pytest.raises(ValueError, match="not stationary"):
            wold(fit, 10)


class TestProjectors:
    def test_identity_and_idempotence(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, q = 6, 2
            A = rng.standard_normal((n, n))
            sigma = A @ A.T + n * np.eye(n)
            omega = rng.standard_normal((n, q))
            Pc, Pu = cc_projectors(sigma, omega)
            assert np.abs(Pc + Pu - np.eye(n)).max() < 1e-12
            assert np.abs(Pc @ Pc - Pc).max() < 1e-12
            assert np.abs(Pu @ Pu - Pu).max() < 1e-12

    def test_orthonormal_case(self):
        omega = np.eye(4)[:, :2]
        Pc, _ = cc_projectors(np.eye(4), omega)
        assert np.abs(Pc - omega @ omega.T).max() < 1e-14

    def test_singular_mid_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            cc_projectors(np.eye(3), np.zeros((3, 1)))


class TestCommonUncommon:
    def test_mai_uncommon_is_white_noise(self, mai_fit):
        _, Y, fit = mai_fit
        d = common_uncommon(fit, Y)
        T = d.iota.shape[0]
        band = 3.0 / np.sqrt(T)
        scale = np.outer(d.iota.std(0), d.iota.std(0))
        for lag in (1, 2, 3):
            ac = d.iota[lag:].T @ d.iota[:-lag] / T
            frac = np.mean(np.abs(ac / scale) < band)
            assert frac >= 0.95

    def test_rank_and_orthogonality(self, mai_fit):
        _, Y, fit = mai_fit
        d = common_uncommon(fit, Y)
        T = d.iota.shape[0]
        ev = np.linalg.eigvalsh(d.iota.T @ d.iota / T)
        assert np.abs(ev[:2]).max() < 1e-10 * ev[-1]
        assert np.abs(d.eps_chi.T @ d.eps_iota / T).max() < 1e-10

    def test_reconstruction(self, mai_fit):
        _, Y, fit = mai_fit
        d = common_uncommon(fit, Y)
        target = (Y.values - fit.means["level"])[fit.t_start:]
        assert np.abs(d.chi + d.iota + d.baseline - target).max() < 1e-8

    def test_indexes_equal_projected_common(self, mai_fit):
        _, Y, fit = mai_fit
        d = common_uncommon(fit, Y)
        f = (Y.values - fit.means["level"])[fit.t_start:] @ fit.params.omega
        adj = f - d.baseline @ fit.params.omega
        assert np.abs(d.chi @ fit.params.omega - adj).max() < 1e-10

    def test_iaar_uncommon_autocorrelated(self):
        # strong own-lag dynamics leave the uncommon component autocorrelated
        ip = random_iaar_params(6, 1, 1, 1, seed=3, diag=0.8)
        Y = simulate_iaar(ip, 2000, seed=8)
        fit = fit_iaar(Y, 1, 1, 1)
        d = common_uncommon(fit, Y)
        T = d.iota.shape[0]
        ac = d.iota[1:].T @ d.iota[:-1] / T
        scale = np.outer(d.iota.std(0), d.iota.std(0))
        assert np.abs(ac / scale).max() > 3.0 / np.sqrt(T)

    def test_rotation_invariance(self, mai_fit):
        from indexvar.estimators import FitResult
        from indexvar.params import MAIParams

        _, Y, fit = mai_fit
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        rotated = FitResult(
            "mai",
            MAIParams(fit.params.omega @ Q, [a @ Q for a in fit.params.alphas], fit.params.sigma),
            fit.loglik_trace, fit.T_eff, fit.converged, fit.iterations,
            fit.t_start, fit.means,
        )
        a = common_uncommon(fit, Y)
        b = common_uncommon(rotated, Y)
        assert np.abs(a.chi - b.chi).max() < 1e-10
        assert np.abs(a.iota - b.iota).max() < 1e-10


class TestPermTrans:
    def test_exact_orthogonality_and_rank(self, vecim_fit):
        _, Y, fit = vecim_fit
        d = perm_trans(fit, Y=Y)
        T = d.eps_chi.shape[0]
        assert np.abs(d.eps_pi.T @ d.eps_tau / T).max() < 1e-10
        assert np.abs(d.eps_pi.T @ d.eps_iota / T).max() < 1e-10
        assert np.abs(d.eps_tau.T @ d.eps_iota / T).max() < 1e-10
        di = d.extras["diota"]
        ev = np.linalg.eigvalsh(di.T @ di / T)
        assert np.abs(ev[:2]).max() < 1e-10 * ev[-1]

    def test_uncommon_increments_white(self, vecim_fit):
        _, Y, fit = vecim_fit
        d = perm_trans(fit, Y=Y)
        di = d.extras["diota"]
        T = di.shape[0]
        ac = di[1:].T @ di[:-1] / T
        scale = np.outer(di.std(0), di.std(0))
        assert np.abs(ac / scale).max() < 3.0 / np.sqrt(T)

    def test_reconstruction_of_differences(self, vecim_fit):
        _, Y, fit = vecim_fit
        d = perm_trans(fit, Y=Y)
        dm = np.diff(Y.values, axis=0) - fit.means["diff"]
        target = dm[fit.t_start - 1:]
        recon = d.extras["dpi"] + d.extras["dtau"] + d.extras["diota"] + d.baseline
        assert np.abs(recon - target).max() < 1e-8

    def test_reduced_loading_closed_form_cross_check(self, vecim_fit):
        # P(L) built from the reduced Wold loadings matches the direct filter
        _, Y, fit = vecim_fit
        om = fit.params.omega
        sig = fit.params.sigma
        a0b = om.T @ fit.params.alpha0
        sb = om.T @ sig @ om
        a0p = orth_complement(a0b)
        w = wold(fit, 80)
        w_pi = sig @ om @ a0p @ np.linalg.inv(a0p.T @ sb @ a0p)
        direct = w.psis @ w_pi
        closed = np.empty_like(direct)
        closed[0] = sig @ om @ np.linalg.solve(sb, sb @ a0p @ np.linalg.inv(a0p.T @ sb @ a0p))
        for j in range(1, 81):
            closed[j] = w.thetas[j - 1] @ sb @ a0p @ np.linalg.inv(a0p.T @ sb @ a0p)
        assert np.abs(direct - closed).max() < 1e-10

    def test_without_the_panel(self, vecim_fit):
        # the shocks are formed from the fitted panel's residuals, so the splits need the panel
        _, Y, fit = vecim_fit
        for split in (perm_trans, structural_transitory_irf):
            with pytest.raises(TypeError, match="missing 1 required positional argument: 'Y'"):
                split(fit)
        full = perm_trans(fit, Y=Y)
        np.testing.assert_array_equal(full.eps_chi, residuals(fit, Y) @ fit.params.omega)
        assert full.baseline is not None and full.recon_error < 1e-8

    def test_degenerate_flags(self):
        params = random_ciaar_params(5, 2, 2, 0, 2, seed=2)
        Y = simulate_ciaar(params, 800, seed=3)
        fit = fit_ciaar(Y, 0, 2, 2, 2)
        d = perm_trans(fit, Y=Y)
        assert d.extras["degenerate"] == "pi"
        assert np.abs(d.pi).max() == 0.0

        params0 = random_ciaar_params(5, 2, 0, 0, 2, seed=4)
        Y0 = simulate_ciaar(params0, 800, seed=5)
        fit0 = fit_ciaar(Y0, 0, 2, 2, 0)
        d0 = perm_trans(fit0, Y=Y0)
        assert d0.extras["degenerate"] == "tau"
        assert np.abs(d0.tau).max() == 0.0

    def test_wrong_model_rejected(self, mai_fit):
        with pytest.raises(ValueError):
            perm_trans(mai_fit[2], mai_fit[1])


class TestStructuralIrf:
    def test_impact_block_is_cholesky_factor(self, vecim_fit):
        _, Y, fit = vecim_fit
        irf = structural_transitory_irf(fit, Y, H=50)
        r = fit.params.r
        head = irf.theta_seq[0][:r, :]
        assert np.abs(head - irf.C).max() < 1e-12
        assert np.abs(np.triu(irf.C, 1)).max() == 0.0
        assert np.all(np.diag(irf.C) > 0)

    def test_unit_shock_covariance(self, vecim_fit):
        _, Y, fit = vecim_fit
        irf = structural_transitory_irf(fit, Y, H=50)
        T = irf.shocks.shape[0]
        cov = irf.shocks.T @ irf.shocks / T
        assert np.abs(cov - np.eye(fit.params.r)).max() < 1e-8

    def test_r1_is_rescaled_transitory_filter(self, vecim_fit):
        _, Y, fit = vecim_fit
        om = fit.params.omega
        sig = fit.params.sigma
        a0b = om.T @ fit.params.alpha0
        sb = om.T @ sig @ om
        sb_inv_a0 = np.linalg.solve(sb, a0b)
        w_tau = sig @ om @ sb_inv_a0 @ np.linalg.inv(a0b.T @ sb_inv_a0)
        w = wold(fit, 50)
        t_seq = w.psis @ w_tau
        irf = structural_transitory_irf(fit, Y, H=50)
        scale = irf.C[0, 0] / t_seq[0][0, 0]
        assert np.abs(irf.theta_seq - t_seq * scale).max() < 1e-10


def test_a_zero_alpha0_is_named_by_the_splits():
    # alpha0_bar = omega'alpha0 has no complement; the refusal names it, not omega
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=1)
    fit = fit_ciaar(Y, 2, 2, 2, 1)
    P = fit.params
    bad = dataclasses.replace(fit, params=CIAARParams(P.ds, 0 * P.alpha0, P.gamma, P.omega, P.alphas, P.sigma))
    for split in (lambda: perm_trans(bad, Y), lambda: structural_transitory_irf(bad, Y, 10)):
        with pytest.raises(ValueError, match=r"^omega'alpha0 is not full rank$"):
            split()


class TestDrvarDecompose:
    def test_exact_split_and_orthogonality(self):
        dp = random_drvar_params(10, 2, 1, seed=4)
        Y = simulate_drvar(dp, 2000, seed=5)
        om, _ = fit_drvar_omega(Y, 2, 2)
        fit = fit_drvar_coeffs(Y, om, 1)
        d = drvar_decompose(fit, Y)
        Z = (Y.values - fit.means["level"])[fit.t_start:]
        assert np.abs(d.chi + d.iota - Z).max() < 1e-10
        nu = d.extras["nu"]
        T = nu.shape[0]
        assert np.abs(d.eps_chi.T @ nu / T).max() < 1e-10

    def test_nu_is_white(self):
        dp = random_drvar_params(10, 2, 1, seed=6)
        Y = simulate_drvar(dp, 4000, seed=7)
        om, _ = fit_drvar_omega(Y, 2, 2)
        fit = fit_drvar_coeffs(Y, om, 1)
        d = drvar_decompose(fit, Y)
        nu = d.extras["nu"]
        T = nu.shape[0]
        ac = nu[1:].T @ nu[:-1] / T
        scale = np.outer(nu.std(0), nu.std(0))
        assert np.abs(ac / scale).max() < 3.0 / np.sqrt(T)

    def test_impact_loading(self):
        dp = random_drvar_params(8, 2, 1, seed=8)
        Y = simulate_drvar(dp, 1000, seed=9)
        om, _ = fit_drvar_omega(Y, 2, 2)
        fit = fit_drvar_coeffs(Y, om, 1)
        d = drvar_decompose(fit, Y)
        assert np.abs(d.extras["c_seq"][0] - (om + d.extras["rho"])).max() < 1e-12


@pytest.fixture(scope="module")
def fits_on_300_rows():
    """MAI, CIAAR and DRVAR fits to n = 4 panels of 300 rows, by model, with their panels."""
    mai = simulate_mai(random_mai_params(4, 2, 1, seed=0), 300, seed=1)
    ciaar = simulate_ciaar(random_ciaar_params(4, 2, 1, 2, 2, seed=0), 300, seed=1)
    drvar = simulate_drvar(random_drvar_params(4, 2, 1, seed=0), 300, seed=1)
    return {
        "mai": (mai, fit_mai(mai, 1, 2)),
        "ciaar": (ciaar, fit_ciaar(ciaar, 2, 2, 2, 1)),
        "drvar": (drvar, fit_drvar_coeffs(drvar, fit_drvar_omega(drvar, 2, 2)[0], 1)),
    }


@pytest.mark.parametrize("call, model, rows, width, message", [
    (common_uncommon, "mai", 200, 4, "panel has 200 rows, the fit needs 300"),
    (common_uncommon, "mai", 300, 6, "panel has 6 series, the fit has 4"),
    (perm_trans, "ciaar", 200, 4, "panel has 200 rows, the fit needs 300"),
    (perm_trans, "ciaar", 300, 6, "panel has 6 series, the fit has 4"),
    (drvar_decompose, "drvar", 200, 4, "panel has 200 rows, the fit needs 300"),
    (drvar_decompose, "drvar", 300, 6, "panel has 6 series, the fit has 4"),
    (lambda fit, Y: forecast(fit, Y, 2), "mai", 300, 6, "panel has 6 series, the fit has 4"),
    (lambda fit, Y: rolling_evaluate(Y, lambda windows: [fit] * len(windows), 2, 5), "mai", 300, 6,
     "panel has 6 series, the fit has 4"),
], ids=["common_uncommon-rows", "common_uncommon-width", "perm_trans-rows", "perm_trans-width",
        "drvar_decompose-rows", "drvar_decompose-width", "forecast-width", "rolling_evaluate-width"])
def test_a_panel_that_is_not_the_fitted_one_is_refused_by_name(
        fits_on_300_rows, call, model, rows, width, message):
    # the first rows, or the series with two more beside them: the refusal names the panel's
    # rows or width and the fit's, where numpy's broadcast or dimension message stood
    Y, fit = fits_on_300_rows[model]
    values = np.hstack([Y.values, Y.values[:, :2] ** 2])[:rows, :width]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(fit, Panel(values))
