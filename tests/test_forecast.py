import numpy as np
import pytest

from indexvar.cli import RunConfig, _fit_from_config
from indexvar.decomp import residuals
from indexvar.estimators import fit_ciaar, fit_mai, fit_many, fit_vhari, johansen_rrr
from indexvar.forecast import ForecastPath, evaluate, forecast, rolling_evaluate
from indexvar.params import MAIParams
from indexvar.simulate import (
    random_ciaar_params,
    random_mai_params,
    random_vhari_params,
    simulate_ciaar,
    simulate_mai,
    simulate_vhari,
)
from indexvar.tscore import Panel
from rowlevel import step_recursion


class TestForecast:
    def test_zero_coefficients_forecast_the_mean(self):
        from indexvar.estimators import FitResult

        rng = np.random.default_rng(0)
        Y = Panel(rng.standard_normal((200, 3)) + 5.0)
        mu = Y.values.mean(axis=0)
        params = MAIParams(np.eye(3)[:, :1], [np.zeros((3, 1))], np.eye(3))
        fit = FitResult("mai", params, np.array([0.0]), np.zeros((199, 3)),
                        True, 1, 1, means={"level": mu})
        path = forecast(fit, Y, 4)
        assert np.abs(path.values - mu).max() < 1e-12

    def test_mai_one_step_hand_formula(self):
        params = random_mai_params(4, 1, 2, seed=1)
        Y = simulate_mai(params, 500, seed=2)
        fit = fit_mai(Y, 2, 1)
        path = forecast(fit, Y, 1)
        mu = fit.means["level"]
        Z = Y.values - mu
        hand = (
            fit.params.alphas[0] @ (fit.params.omega.T @ Z[-1])
            + fit.params.alphas[1] @ (fit.params.omega.T @ Z[-2])
            + mu
        )
        assert np.abs(path.values[0] - hand).max() < 1e-12

    def test_random_walk_fit_forecasts_last_level(self):
        params = random_ciaar_params(4, 1, 0, 1, 1, seed=3)
        Y = simulate_ciaar(params, 300, seed=4)
        fit = fit_ciaar(Y, 1, 1, 1, 0)
        path = forecast(fit, Y, 6)
        drift = np.arange(1, 7)[:, None] * fit.means["diff"]   # k steps of the difference mean
        assert np.abs(path.values - (Y.values[-1] + drift)).max() < 1e-12

    def test_one_step_equals_fitted_value_identity(self):
        # forecasting from the sample minus its last point reproduces the
        # model's one-step fitted value there
        params = random_mai_params(4, 2, 1, seed=5)
        Y = simulate_mai(params, 400, seed=6)
        fit = fit_mai(Y, 1, 2)
        head = Panel(Y.values[:-1], list(Y.names))
        path = forecast(fit, head, 1)
        fitted = Y.values[fit.t_start:] - fit.means["level"] - residuals(fit, Y)
        assert np.abs(path.values[0] - (fitted[-1] + fit.means["level"])).max() < 1e-10

    def test_long_horizon_converges_to_mean(self):
        params = random_mai_params(4, 1, 1, seed=7, radius=0.85)
        Y = simulate_mai(params, 600, seed=8)
        fit = fit_mai(Y, 1, 1)
        path = forecast(fit, Y, 500)
        assert np.abs(path.values[-1] - fit.means["level"]).max() < 1e-6

    def test_vhari_cascade_forecast(self):
        vp = random_vhari_params(4, 1, seed=9)
        Yd = simulate_vhari(vp, 600, seed=10)
        fit = fit_vhari(Yd, 1)
        path = forecast(fit, Yd, 3)
        # hand-rolled recursion rebuilding the 5/22-day windows
        mu = fit.means["level"]
        hist = list(Yd.values - mu)
        om = fit.params.omega
        for k in range(3):
            arr = np.asarray(hist)
            z = (
                fit.params.alpha_d @ (om.T @ arr[-1])
                + fit.params.alpha_w @ (om.T @ arr[-5:].mean(axis=0))
                + fit.params.alpha_m @ (om.T @ arr[-22:].mean(axis=0))
            )
            hist.append(z)
            assert np.abs(path.values[k] - (z + mu)).max() < 1e-10

    def test_vecm_forecast_matches_the_row_by_row_levels_form(self):
        params = random_ciaar_params(5, 2, 1, 3, 2, seed=13)
        Y = simulate_ciaar(params, 400, seed=14)
        fit = johansen_rrr(Y, 3, 1)
        path = forecast(fit, Y, 12)
        n, pis, mu_l = Y.n, fit.params.pis, fit.means["level"]
        drive = np.tile((np.eye(n) - sum(pis)) @ fit.means["diff"], (12, 1))
        init = np.diff(Y.values[-len(pis) - 1:], axis=0)
        ec = fit.params.alpha0 @ fit.params.beta.T
        _, levels = step_recursion(pis, init, drive, ec=ec, level=Y.values[-1] - mu_l)
        ref = levels + mu_l
        assert np.abs(path.values - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_insufficient_history(self):
        params = random_mai_params(3, 1, 2, seed=11)
        Y = simulate_mai(params, 100, seed=12)
        fit = fit_mai(Y, 2, 1)
        with pytest.raises(ValueError):
            forecast(fit, Panel(Y.values[:1]), 2)
        with pytest.raises(ValueError):
            forecast(fit, Y, 0)


class TestEvaluate:
    def test_perfect_forecast_zero_msfe(self):
        actuals = Panel(np.arange(20.0).reshape(10, 2))
        path = ForecastPath(2, actuals.values[8:10], 7)
        table = evaluate([path], actuals)
        assert table.msfe.max() == 0.0
        assert table.counts.tolist() == [1, 1]

    def test_single_origin_squared_error(self):
        actuals = Panel(np.zeros((5, 1)))
        path = ForecastPath(1, np.array([[2.0]]), 3)
        table = evaluate([path], actuals)
        assert table.msfe[0, 0] == 4.0

    def test_constant_zero_on_unit_noise(self):
        rng = np.random.default_rng(13)
        T = 600
        actuals = Panel(rng.standard_normal((T, 1)))
        paths = [ForecastPath(1, np.zeros((1, 1)), o) for o in range(50, 550)]
        table = evaluate(paths, actuals)
        assert abs(table.msfe[0, 0] - 1.0) < 0.2
        assert table.counts[0] == 500

    def test_no_overlap_raises(self):
        actuals = Panel(np.zeros((5, 1)))
        path = ForecastPath(1, np.array([[1.0]]), 10)
        with pytest.raises(ValueError, match="overlap"):
            evaluate([path], actuals)


class TestRollingEvaluate:
    def test_refit_and_fixed_modes(self):
        params = random_mai_params(3, 1, 1, seed=14)
        Y = simulate_mai(params, 260, seed=15)
        fitter = lambda windows: fit_many("mai", windows, p=1, q=1)
        t_refit, paths, info = rolling_evaluate(Y, fitter, h=2, n_origins=5)
        assert info["refit_each_origin"] is True
        assert len(paths) == 5
        t_fixed, _, info2 = rolling_evaluate(Y, fitter, h=2, n_origins=5, refit=False)
        assert info2["refit_each_origin"] is False
        assert t_refit.msfe.shape == t_fixed.msfe.shape

    @pytest.mark.parametrize(
        "orders, single",
        [
            (dict(model="ciaar", p=2, s=2, q=2, r=1), lambda W: fit_ciaar(W, 2, 2, 2, 1)),
            (dict(model="mai", p=2, q=2), lambda W: fit_mai(W, 2, 2)),
            (dict(model="vecm", p=2, r=1), lambda W: johansen_rrr(W, 2, 1)),
        ],
    )
    def test_lockstep_refits_equal_per_window_loop(self, orders, single):
        # the CLI's fitter refits every window at once (fit_many for engine
        # models, a per-panel map for vecm); the reference is the cold
        # per-window loop of single fits
        if orders["model"] == "mai":
            Y = simulate_mai(random_mai_params(6, 2, 2, seed=0), 400, seed=16)
        else:
            Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 400, seed=16)
        h, n_origins = 3, 8
        cfg = RunConfig(subcommand="forecast", out=".", **orders)
        _, paths, info = rolling_evaluate(Y, lambda ws: _fit_from_config(cfg, ws), h, n_origins)
        width = info["window"]
        assert len(paths) == n_origins
        for path in paths:
            window = Panel(Y.values[path.origin + 1 - width: path.origin + 1], list(Y.names))
            ref = forecast(single(window), window, h).values
            assert np.abs(path.values - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_fitter_must_return_one_fit_per_window(self):
        params = random_mai_params(3, 1, 1, seed=14)
        Y = simulate_mai(params, 260, seed=15)
        fit = fit_mai(Y, 1, 1)
        with pytest.raises(ValueError, match="returned 1 fits for 5 windows"):
            rolling_evaluate(Y, lambda ws: [fit], h=2, n_origins=5)
        with pytest.raises(ValueError, match="more than 5 fits for 5 windows"):
            rolling_evaluate(Y, lambda ws: [fit] * 6, h=2, n_origins=5)
        with pytest.raises(ValueError, match="more than 1 fits for 1 windows"):
            rolling_evaluate(Y, lambda ws: [fit] * 2, h=2, n_origins=5, refit=False)
