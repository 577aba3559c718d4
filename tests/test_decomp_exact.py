"""The decomposition components are exact, and their checks still hold.

decomp builds every component as the fitted recursion driven by the projected
residuals. rowlevel.wold_convolution filters the same residuals with
wold(fit, T_eff - 1), one lag at a time, which truncates nothing at that
horizon. The oracle's loadings are written out here from the projectors:
P_common and P_uncommon for chi / iota, and the permanent / transitory split
of P_common for pi / tau. Covered: MAI and IAAR, CIAAR with r = 0, 0 < r < q
and r = q, and a VECIM, each at about 300 rows. The remaining tests call
common_uncommon and perm_trans on fits whose Wold sequence diverges and on
residuals that are not those of the fitted parameters (decomp.residuals
plus noise).
"""

import dataclasses

import numpy as np
import pytest

from indexvar import decomp
from indexvar.decomp import cc_projectors, common_uncommon, perm_trans, residuals, wold
from indexvar.estimators import FitResult, fit_ciaar, fit_iaar, fit_mai, fit_vecim
from indexvar.params import CIAARParams, MAIParams
from indexvar.simulate import (
    random_ciaar_params,
    random_iaar_params,
    random_mai_params,
    simulate_ciaar,
    simulate_iaar,
    simulate_mai,
)
from indexvar.tscore import Panel, orth_complement
from rowlevel import wold_convolution

CASES = {   # name: (panel, fit)
    "mai": (lambda: simulate_mai(random_mai_params(6, 2, 1, seed=0), 300, seed=1),
            lambda Y: fit_mai(Y, 1, 2)),
    "iaar": (lambda: simulate_iaar(random_iaar_params(6, 1, 1, 1, seed=3), 300, seed=2),
             lambda Y: fit_iaar(Y, 1, 1, 1)),
    **{f"ciaar_r{r}": (lambda r=r: simulate_ciaar(random_ciaar_params(6, 2, r, 2, 2, seed=r), 300, seed=3 + r),
                       lambda Y, r=r: fit_ciaar(Y, 2, 2, 2, r)) for r in (0, 1, 2)},
    "vecim": (lambda: simulate_ciaar(random_ciaar_params(6, 2, 1, 0, 3, seed=6), 300, seed=6),
              lambda Y: fit_vecim(Y, 3, 2, 1)),
}


def _panel_and_fit(name):
    panel, fit_panel = CASES[name]
    Y = panel()
    return Y, fit_panel(Y)


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def _loadings(fit):
    """Maps e_t -> drive of chi, iota, pi and tau, from the closed forms."""
    om, sig = fit.params.omega, fit.params.sigma
    p_common, p_uncommon = cc_projectors(sig, om)
    out = {"chi": p_common, "iota": p_uncommon}
    if fit.model in ("ciaar", "vecim"):
        a0b = om.T @ fit.params.alpha0
        sb = om.T @ sig @ om
        a0p = orth_complement(a0b)
        sb_a0 = np.linalg.solve(sb, a0b)
        out["pi"] = sig @ om @ a0p @ np.linalg.solve(a0p.T @ sb @ a0p, a0p.T) @ om.T
        out["tau"] = sig @ om @ sb_a0 @ np.linalg.solve(a0b.T @ sb_a0, sb_a0.T) @ om.T
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_components_equal_the_untruncated_wold_filter(name):
    Y, fit = _panel_and_fit(name)
    Te = fit.T_eff
    psis = wold(fit, Te - 1).psis
    ref = {k: wold_convolution(psis, residuals(fit, Y) @ P.T) for k, P in _loadings(fit).items()}
    ec = fit.model in ("ciaar", "vecim")
    decs = [(common_uncommon(fit, Y), ("chi", "iota"))]
    if ec:
        decs.append((perm_trans(fit, Y=Y), ("chi", "iota", "pi", "tau")))
    for dec, names in decs:
        for k in names:
            if ec:
                if "d" + k in dec.extras:
                    _close(dec.extras["d" + k], ref[k])
                _close(getattr(dec, k), np.cumsum(ref[k], axis=0))
            else:
                _close(getattr(dec, k), ref[k])
        if ec:
            target = (np.diff(Y.values, axis=0) - fit.means["diff"])[fit.t_start - 1:]
        else:
            target = (Y.values - fit.means["level"])[fit.t_start:]
        assert target.shape == (Te, fit.params.n)
        bound = 1e-12 * np.abs(target).max()
        assert dec.recon_error <= bound
        assert np.abs(ref["chi"] + ref["iota"] + dec.baseline - target).max() <= bound


def _fit_of(model, params):
    fit = FitResult(model, params, np.array([0.0]), 10, True, 1, 1)
    return fit, Panel(np.zeros((11, params.n)))


def test_nonstationary_fit_rejected():
    fit, Y = _fit_of("mai", MAIParams(np.eye(3)[:, :1], [1.2 * np.eye(3)[:, :1]], np.eye(3)))
    with pytest.raises(ValueError, match="fitted model is not stationary"):
        common_uncommon(fit, Y)


def test_explosive_error_correction_fit_rejected():
    # alpha0 gamma' omega' = 0.5 e1 e1' puts a companion root at 1.5
    e1 = np.eye(3)[:, :1]
    fit, Y = _fit_of("ciaar", CIAARParams([], 0.5 * e1, np.ones((1, 1)), e1, [], np.eye(3)))
    with pytest.raises(ValueError, match="fitted model has unstable non-unit companion roots"):
        common_uncommon(fit, Y)
    with pytest.raises(ValueError, match="fitted model has unstable non-unit companion roots"):
        perm_trans(fit, Y=Y)


def _off_the_parameters(monkeypatch, noise):
    """Make every decomposition's residuals those of decomp.residuals plus noise."""
    formed = decomp.residuals
    monkeypatch.setattr(decomp, "residuals", lambda fit, Y: formed(fit, Y) + noise)


@pytest.mark.parametrize("name", ["mai", "vecim"])
def test_residuals_off_the_parameters_rejected(name, monkeypatch):
    Y, fit = _panel_and_fit(name)
    noise = 1e-6 * np.random.default_rng(0).standard_normal((fit.T_eff, fit.params.n))
    _off_the_parameters(monkeypatch, noise)
    calls = [common_uncommon] + ([lambda f, Y: perm_trans(f, Y=Y)] if name == "vecim" else [])
    for call in calls:
        with pytest.raises(ValueError, match="residuals do not match the fitted parameters"):
            call(fit, Y)


@pytest.mark.parametrize("k", [-30, 30])
def test_reconstruction_check_is_scale_free(k, monkeypatch):
    # Y -> cY with c = 2^k, exact in floating point, scales the fit's means and
    # residuals by c and sigma by c^2. The components scale by c, and residuals
    # moved off the parameters by 1e-6 of their size fail at every scale.
    c = 2.0 ** k
    Y, fit = _panel_and_fit("ciaar_r1")
    cY = Panel(c * Y.values, Y.names)
    scaled = dataclasses.replace(
        fit, params=dataclasses.replace(fit.params, sigma=c * c * fit.params.sigma),
        means={key: c * v for key, v in fit.means.items()},
    )
    assert np.array_equal(residuals(scaled, cY), c * residuals(fit, Y))
    calls = (common_uncommon, lambda f, Y: perm_trans(f, Y=Y))
    for call in calls:
        ref, got = call(fit, Y), call(scaled, cY)
        for name in ("chi", "iota"):
            _close(getattr(got, name), c * getattr(ref, name))
    noise = 1e-6 * c * np.random.default_rng(0).standard_normal((fit.T_eff, fit.params.n))
    _off_the_parameters(monkeypatch, noise)
    for call in calls:
        with pytest.raises(ValueError, match="residuals do not match the fitted parameters"):
            call(scaled, cY)
