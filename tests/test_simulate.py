import numpy as np
import pytest
from rowlevel import row_level_simulate

from indexvar.params import CIAARParams, IAARParams, MAIParams
from indexvar.simulate import (
    draw_shocks,
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
    random_vhari_params,
    simulate,
    simulate_ciaar,
    simulate_drvar,
    simulate_iaar,
    simulate_mai,
    simulate_var,
    simulate_vhari,
)
from indexvar.tscore import autocov, orth_complement


class TestSimulateMai:
    def test_zero_loadings_give_iid_noise(self):
        n = 4
        params = MAIParams(np.eye(n)[:, :1], [np.zeros((n, 1))], np.eye(n))
        Y = simulate_mai(params, 5000, burn=0, seed=0)
        assert np.abs(autocov(Y, 1)).max() < 3.0 / np.sqrt(5000)

    def test_index_recursion_holds_exactly(self):
        params = random_mai_params(5, 2, 2, seed=1)
        T, burn = 300, 50
        eps = draw_shocks(params.sigma, burn + T, seed=2)
        Y = simulate_mai(params, T, burn=burn, seed=0, shocks=eps).values
        f = Y @ params.omega
        state = params.omega.T @ params.alphas[0], params.omega.T @ params.alphas[1]
        for t in range(2, T):
            pred = state[0] @ f[t - 1] + state[1] @ f[t - 2] + params.omega.T @ eps[burn + t]
            assert np.abs(f[t] - pred).max() < 1e-10

    def test_seed_determinism(self):
        params = random_mai_params(4, 1, 1, seed=3)
        a = simulate_mai(params, 200, seed=9).values
        b = simulate_mai(params, 200, seed=9).values
        assert np.array_equal(a, b)

    def test_nonstationary_rejected(self):
        params = random_mai_params(4, 1, 1, seed=3)
        bad = MAIParams(params.omega, [1.2 * params.omega], params.sigma)
        with pytest.raises(ValueError, match="[Nn]onstationary"):
            simulate_mai(bad, 100, seed=0)

    def test_index_shocks_uncorrelated_with_future(self):
        # E(f_t e_{t+j}') = 0 only for j > 0
        params = random_mai_params(5, 2, 1, seed=4)
        T, burn = 8000, 100
        eps = draw_shocks(params.sigma, burn + T, seed=5)
        Y = simulate_mai(params, T, burn=burn, seed=0, shocks=eps).values
        f = Y @ params.omega
        e = eps[burn:]
        band = 3.0 / np.sqrt(T)
        for j in (1, 2):
            xc = f[:-j].T @ e[j:] / T
            scale = np.outer(f.std(axis=0), e.std(axis=0))
            assert np.abs(xc / scale).max() < band


class TestSimulateVhari:
    def test_reduces_to_mai_given_same_shocks(self):
        vp = random_vhari_params(4, 1, seed=0)
        from indexvar.params import VHARIParams

        degenerate = VHARIParams(
            vp.omega, vp.alpha_d, np.zeros_like(vp.alpha_w), np.zeros_like(vp.alpha_m), vp.sigma
        )
        mai = MAIParams(vp.omega, [vp.alpha_d], vp.sigma)
        eps = draw_shocks(vp.sigma, 22 + 100, seed=1)
        a = simulate_vhari(degenerate, 100, burn=22, seed=0, shocks=eps).values
        b = simulate_mai(mai, 100, burn=22, seed=0, shocks=eps).values
        assert np.abs(a - b).max() < 1e-12

    def test_weekly_index_is_five_day_mean(self):
        # 22 leading zero shocks make the hidden burn-in exactly zero, so the
        # output is the path from t = 0 with zero rows before it
        vp = random_vhari_params(5, 2, seed=2)
        T, n = 300, 5
        eps = draw_shocks(vp.sigma, T, seed=3)
        padded = np.vstack([np.zeros((22, n)), eps])
        Y = simulate_vhari(vp, T, burn=22, seed=0, shocks=padded).values
        Z = np.vstack([np.zeros((22, n)), Y])
        om = vp.omega
        for t in range(T):
            s = t + 22
            pred = (
                vp.alpha_d @ (om.T @ Z[s - 1])
                + vp.alpha_w @ (om.T @ Z[s - 5: s].mean(axis=0))
                + vp.alpha_m @ (om.T @ Z[s - 22: s].mean(axis=0))
            )
            assert np.abs(Y[t] - pred - eps[t]).max() < 1e-12
        # the 5/22-day means read zero rows before t = 0 also in the burn-in,
        # so dropping the zero padding only shifts the path
        tail = simulate_vhari(vp, T - 22, burn=22, seed=0, shocks=eps).values
        assert np.abs(tail - Y[22:]).max() < 1e-12

    def test_burn_requirement(self):
        vp = random_vhari_params(4, 1, seed=4)
        with pytest.raises(ValueError, match="burn"):
            simulate_vhari(vp, 100, burn=10, seed=0)


class TestOneSimulator:
    def test_every_model_name_is_the_one_simulator(self):
        assert simulate_mai is simulate_iaar is simulate_vhari is simulate_drvar is simulate_ciaar is simulate

    def test_the_vhari_burn_rule_follows_the_params_class(self):
        vp = random_vhari_params(4, 1, seed=4)
        with pytest.raises(ValueError, match=r"^VHARI simulation needs burn >= 22 to fill the monthly window$"):
            simulate_mai(vp, 100, burn=21, seed=0)
        assert simulate(vp, 100, burn=22, seed=0).values.shape == (100, 4)
        # the other classes need only burn >= 0
        assert simulate_vhari(random_mai_params(4, 1, 1, seed=0), 100, burn=0, seed=0).values.shape == (100, 4)


class TestSimulateDrvar:
    def test_perp_combinations_are_white_noise(self):
        dp = random_drvar_params(8, 2, 1, seed=0)
        Y = simulate_drvar(dp, 6000, seed=1)
        W = Y.values @ orth_complement(dp.omega)
        band = 3.0 / np.sqrt(6000)
        for j in range(1, 6):
            C = W[j:].T @ W[:-j] / len(W)
            assert np.abs(C / np.outer(W.std(0), W.std(0))).max() < band

    def test_index_var_recursion(self):
        dp = random_drvar_params(6, 2, 2, seed=2)
        T, burn = 250, 60
        eps = draw_shocks(dp.sigma, burn + T, seed=3)
        Y = simulate_drvar(dp, T, burn=burn, seed=0, shocks=eps).values
        f = Y @ dp.omega
        for t in range(2, T):
            pred = dp.phis[0] @ f[t - 1] + dp.phis[1] @ f[t - 2] + dp.omega.T @ eps[burn + t]
            assert np.abs(f[t] - pred).max() < 1e-10

    def test_q_equals_n_is_standard_var(self):
        from indexvar.params import DRVARParams

        rng = np.random.default_rng(4)
        n = 3
        phi = 0.4 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        sigma = np.eye(n)
        dp = DRVARParams(np.eye(n), [phi], sigma)
        eps = draw_shocks(sigma, 150, seed=5)
        a = simulate_drvar(dp, 100, burn=50, seed=0, shocks=eps).values
        b = simulate_var([phi], sigma, 100, burn=50, seed=0, shocks=eps).values
        assert np.abs(a - b).max() < 1e-12


class TestSimulateCiaar:
    def test_pure_random_walk(self):
        n = 3
        params = CIAARParams([], np.zeros((n, 0)), np.zeros((1, 0)), np.eye(n)[:, :1], [], np.eye(n))
        Y = simulate_ciaar(params, 4000, burn=10, seed=0)
        dY = np.diff(Y.values, axis=0)
        assert np.abs(autocov(dY, 1)).max() < 3.0 / np.sqrt(4000)

    def test_cointegration_variance_scaling(self):
        # var(beta'Y) stays bounded while the omega-perp directions grow ~ T
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=1)
        perp = orth_complement(params.omega)
        var_beta, var_perp = {}, {}
        for T in (500, 2000, 8000):
            vb, vp = [], []
            for seed in range(8):
                Y = simulate_ciaar(params, T, seed=seed).values
                vb.append((Y @ params.beta).var(axis=0).mean())
                vp.append((Y @ perp).var(axis=0).mean())
            var_beta[T], var_perp[T] = np.median(vb), np.median(vp)
        assert var_beta[8000] < 4.0 * var_beta[500]
        ratio = var_perp[8000] / var_perp[500]
        assert 16.0 * 0.4 < ratio < 16.0 * 2.5

    def test_vecim_special_case_matches_direct_simulator(self):
        params = random_ciaar_params(4, 2, 1, 0, 2, seed=2)
        T, burn = 200, 40
        eps = draw_shocks(params.sigma, burn + T, seed=3)
        Y = simulate_ciaar(params, T, burn=burn, seed=0, shocks=eps).values
        # direct VECIM recursion oracle
        ec = params.alpha0 @ params.gamma.T
        Z = np.zeros((burn + T, 4))
        dZ = np.zeros((burn + T, 4))
        for t in range(burn + T):
            acc = eps[t].copy()
            if t >= 1:
                acc += ec @ (params.omega.T @ Z[t - 1])
                acc += params.alphas[0] @ (params.omega.T @ dZ[t - 1])
            dZ[t] = acc
            Z[t] = (Z[t - 1] if t else 0.0) + acc
        assert np.abs(Y - Z[burn:]).max() < 1e-12

    def test_nests_mai_in_differences(self):
        params = random_ciaar_params(4, 1, 0, 0, 2, seed=4)
        mai = MAIParams(params.omega, list(params.alphas), params.sigma)
        T, burn = 150, 30
        eps = draw_shocks(params.sigma, burn + T, seed=5)
        Yc = simulate_ciaar(params, T, burn=burn, seed=0, shocks=eps).values
        Ym = simulate_mai(mai, T, burn=burn, seed=0, shocks=eps).values
        assert np.abs(np.diff(Yc, axis=0) - Ym[1:]).max() < 1e-12

    def test_r_equals_q_relations_are_stationary(self):
        params = random_ciaar_params(5, 2, 2, 2, 2, seed=6)
        Y = simulate_ciaar(params, 4000, seed=7).values
        B = Y @ params.beta
        # largest AR(1) eigenvalue of the relations bounded away from 1
        num = B[1:].T @ B[:-1]
        den = B[:-1].T @ B[:-1]
        rho = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(den.T, num.T).T)))
        assert rho <= 0.98

    def test_i2_parameters_rejected(self):
        # alpha0_perp' (I - D_1) beta_perp = 1 - 1 = 0 with alpha0_perp = beta_perp = e2
        i2 = CIAARParams([np.array([0.0, 1.0])], [[-0.5], [0.0]], [[1.0]], [[1.0], [0.0]], [],
                         np.eye(2))
        with pytest.raises(ValueError, match=r"I\(2\)"):
            simulate_ciaar(i2, 100, seed=0)

    def test_a_zero_alpha0_is_named(self):
        # alpha0_perp is not defined, so the I(1) check refuses alpha0 itself, not omega
        base = random_ciaar_params(4, 2, 1, 0, 1, seed=8)
        bad = CIAARParams([], np.zeros((4, 1)), base.gamma, base.omega, [], base.sigma)
        with pytest.raises(ValueError, match=r"^alpha0 is not full rank$"):
            simulate_ciaar(bad, 100, seed=0)


class TestSimulateIaar:
    def test_orders_the_fitter_rejects(self):
        # q index directions and no index lag: omega would enter no term
        message = r"need 1 <= s <= p, or s = 0 with q = 0 \(got p=1, s=0, q=1\)"
        with pytest.raises(ValueError, match=message):
            random_iaar_params(4, 1, 1, 0)
        params = random_iaar_params(4, 0, 1, 0)            # the diagonal model
        assert (params.q, params.s) == (0, 0)
        assert np.isfinite(simulate_iaar(params, 100, seed=0).values).all()


class TestNestingAcrossSimulators:
    def test_iaar_nests_mai(self):
        from indexvar.params import IAARParams
        from indexvar.simulate import simulate_iaar

        mp = random_mai_params(4, 1, 2, seed=9)
        ip = IAARParams([np.zeros(4)] * 2, list(mp.alphas), mp.omega, mp.sigma)
        eps = draw_shocks(mp.sigma, 120, seed=10)
        a = simulate_iaar(ip, 80, burn=40, seed=0, shocks=eps).values
        b = simulate_mai(mp, 80, burn=40, seed=0, shocks=eps).values
        assert np.abs(a - b).max() < 1e-12


class TestStructuralOracle:
    @pytest.mark.parametrize("p,s", [(2, 1), (2, 2)])
    def test_iaar_matches_row_level_levels_form(self, p, s):
        params = random_iaar_params(5, 2, p, s, seed=p + s)
        T, burn = 150, 50
        eps = draw_shocks(params.sigma, burn + T, seed=11)
        Y = simulate_iaar(params, T, burn=burn, seed=0, shocks=eps).values
        assert np.abs(Y - row_level_simulate(params, eps)[burn:]).max() < 1e-12

    @pytest.mark.parametrize("p,s,r", [(2, 2, 1), (3, 2, 0), (2, 1, 2)])
    def test_ciaar_matches_row_level_difference_form(self, p, s, r):
        params = random_ciaar_params(5, 2, r, p, s, seed=p + s + r)
        T, burn = 150, 50
        eps = draw_shocks(params.sigma, burn + T, seed=12)
        Y = simulate_ciaar(params, T, burn=burn, seed=0, shocks=eps).values
        assert np.abs(Y - row_level_simulate(params, eps)[burn:]).max() < 1e-12

    @pytest.mark.parametrize("p,s,r", [(2, 2, 1), (3, 2, 0), (2, 1, 2)])
    def test_ciaar_long_sample_does_not_drift_from_the_row_level_form(self, p, s, r):
        # the state (dY_t, beta'Y_t) is cumulated into levels once; over 8000
        # rows the levels must stay on the row-by-row path
        params = random_ciaar_params(6, 2, r, p, s, seed=p + s + r)
        T, burn = 8000, 50
        eps = draw_shocks(params.sigma, burn + T, seed=14)
        Y = simulate_ciaar(params, T, burn=burn, seed=0, shocks=eps).values
        ref = row_level_simulate(params, eps)[burn:]
        assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()


class TestZeroLags:
    def test_var0_passes_the_shocks_through(self):
        n, T, burn = 3, 40, 10
        omega = np.eye(n)[:, :1]
        sigma = np.eye(n)
        eps = draw_shocks(sigma, burn + T, seed=13)
        paths = [
            simulate_mai(MAIParams(omega, [], sigma), T, burn=burn, shocks=eps),
            simulate_iaar(IAARParams([], [], omega, sigma), T, burn=burn, shocks=eps),
            simulate_var([], sigma, T, burn=burn, shocks=eps),
        ]
        for Y in paths:
            assert np.array_equal(Y.values, eps[burn:])


def test_lognormal_garch_shocks():
    sigma = np.diag([1.0, 2.0])
    eps = draw_shocks(sigma, 20000, seed=0, dist="lognormal_garch")
    assert np.all(np.isfinite(eps))
    # unconditional covariance still close to sigma
    C = eps.T @ eps / len(eps)
    assert np.abs(C - sigma).max() < 0.25
    # heavier right tail than Gaussian
    z = eps[:, 0] / eps[:, 0].std()
    assert np.mean(z > 3.0) > np.mean(z < -3.0)
