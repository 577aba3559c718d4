import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import estimators
from indexvar.estimators import (
    FitOptions,
    RRR_ERROR,
    SIGMA_ERROR,
    STEP_ERROR,
    _Grams,
    _certifies_rank,
    _default_starts,
    _each_member,
    _finished,
    _fit_grid,
    _grid_setup,
    _normal_blocks,
    _normalize_gamma,
    _padded_grams,
    _sa_engine,
    _setup_ciaar,
    _setup_iaar,
    _setup_mai,
    _setup_vhari,
    _solve_pd,
    _start_grams,
    _step2_solve,
    _target_grams,
    fit_ciaar,
    fit_drvar_coeffs,
    fit_drvar_omega,
    fit_iaar,
    fit_mai,
    fit_many,
    fit_vecim,
    fit_vhari,
    johansen_rrr,
    _svd_truncate,
)
from indexvar.simulate import (
    random_ciaar_params,
    random_drvar_params,
    random_iaar_params,
    random_mai_params,
    random_vhari_params,
    simulate_ciaar,
    simulate_drvar,
    simulate_iaar,
    simulate_mai,
    simulate_vhari,
)
from indexvar.tscore import (
    Panel,
    SingularDesignError,
    check_rank,
    gaussian_loglik,
    har_aggregates,
    pd_factor,
    subspace_distance,
)
from indexvar.select import _candidate_grid, grid_search
from rowlevel import (
    ciaar_inputs,
    dense_ols_start,
    diag_selection_matrix,
    diagonal_gls,
    lstsq,
    row_level_sa,
    sym_inv_sqrt,
    vec_diag_block,
    vec_omega_block,
)
from starts import engine_start


def monotone(trace, slack=1e-8):
    return bool(np.all(np.diff(trace) >= -slack))


@st.composite
def padded_batches(draw, Te=40):
    """Stacked grams of B random panels with nd diagonal lags and 1 to 3 vec
    channels (the EC block when ec, then the index lags), each member's own
    (nd_i, na_i, r_i) padded as a selection grid pads it: its grams of the
    lags it lacks are identity blocks with no cross-products. Each member's
    data come with those lags zeroed: the design its own grams stand for. As
    in a selection grid, a member without index lags has r_i = q (its
    setup's identified equivalent, _setup_ciaar), so every member has an
    omega channel of full rank."""
    n = draw(st.integers(2, 6))
    q = draw(st.integers(1, n - 1))
    nd = draw(st.integers(0, 2))
    ec = draw(st.booleans())
    na = draw(st.integers(1 - ec, 3 - ec))
    r = (q if na == 0 else draw(st.integers(1, q))) if ec else 0
    shapes = draw(st.lists(
        st.tuples(st.integers(0, nd), st.integers(0 if r == q else 1, na), st.integers(0, r)).map(
            lambda shape: shape if shape[1] else (shape[0], 0, q)
        ), min_size=1, max_size=4
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grams, members = [], []
    for nd_i, na_i, r_i in shapes:
        Z, ec_X = rng.standard_normal((2, Te, n))
        diag_X = list(rng.standard_normal((nd, Te, n)))
        index_X = list(rng.standard_normal((na, Te, n)))
        members.append(dict(
            Z=Z, ec_X=ec_X, nd=nd_i, na=na_i, r=r_i,
            diag_X=[X * (j < nd_i) for j, X in enumerate(diag_X)],
            index_X=[X * (j < na_i) for j, X in enumerate(index_X)],
        ))
        padded = members[-1]
        grams.append(_Grams.of(Z, padded["diag_X"], ec_X if ec else None, padded["index_X"]))
        lacking = [*range(1 + nd_i, 1 + nd), *range(1 + nd + ec + na_i, 1 + nd + ec + na)]
        for block in lacking:
            grams[-1].M[0, block * n: (block + 1) * n, block * n: (block + 1) * n] = np.eye(n)
    return _Grams.stack(grams), members, rng, (n, q, nd, r)


@pytest.mark.parametrize("field, value, message", [
    ("max_iter", 0, "max_iter must be an integer >= 1"),
    ("max_iter", 2.5, "max_iter must be an integer >= 1"),
    ("tol", 0.0, "tol must be finite and > 0"),
    ("tol", np.inf, "tol must be finite and > 0"),
    ("tol", np.nan, "tol must be finite and > 0"),
])
def test_fit_options_rejections(field, value, message):
    with pytest.raises(ValueError) as info:
        FitOptions(**{field: value})
    assert type(info.value) is ValueError
    assert str(info.value) == message


class TestFitMai:
    def test_q_equals_n_matches_unrestricted_var(self):
        params = random_mai_params(4, 2, 1, seed=0)
        Y = simulate_mai(params, 600, seed=1)
        fit = fit_mai(Y, 1, 4)
        mu = Y.values.mean(axis=0)
        Z = Y.values - mu
        resid = Z[1:] - Z[:-1] @ lstsq(Z[:-1], Z[1:])
        assert abs(fit.loglik - gaussian_loglik(resid.T @ resid / len(resid), len(resid))) < 1e-8

    def test_recovery_and_monotonicity(self):
        params = random_mai_params(6, 2, 1, seed=12)
        dists = []
        for seed in range(10):
            Y = simulate_mai(params, 2000, seed=seed)
            fit = fit_mai(Y, 1, 2)
            assert monotone(fit.loglik_trace)
            assert fit.converged
            dists.append(subspace_distance(fit.params.omega, params.omega))
        assert np.median(dists) < 0.1

    def test_index_recursion_closure(self):
        # f_hat satisfies the index VAR recursion with residual omega'e_hat exactly
        params = random_mai_params(5, 2, 2, seed=3)
        Y = simulate_mai(params, 500, seed=4)
        fit = fit_mai(Y, 2, 2)
        Z = (Y.values - fit.means["level"])
        f = Z @ fit.params.omega
        om = fit.params.omega
        lhs = f[2:]
        rhs = (
            f[1:-1] @ (om.T @ fit.params.alphas[0]).T
            + f[:-2] @ (om.T @ fit.params.alphas[1]).T
            + fit.residuals @ om
        )
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_sigma_matches_residuals(self):
        params = random_mai_params(4, 1, 1, seed=5)
        Y = simulate_mai(params, 400, seed=6)
        fit = fit_mai(Y, 1, 1)
        direct = fit.residuals.T @ fit.residuals / fit.T_eff
        assert np.abs(fit.params.sigma - direct).max() < 1e-10

    @pytest.mark.parametrize("n,p,q", [(6, 1, 2), (20, 2, 2)])
    def test_matches_row_level_oracle(self, n, p, q):
        params = random_mai_params(n, q, p, seed=n)
        Y = simulate_mai(params, 1000, seed=p)
        fit = fit_mai(Y, p, q)
        Z = Y.values - fit.means["level"]
        lags = [Z[p - j: Y.T - j] for j in range(1, p + 1)]
        # one sweep stops before step 2, so omega is still the SVD start
        omega0 = fit_mai(Y, p, q, opts=FitOptions(max_iter=1)).params.omega
        ref = row_level_sa(Z[p:], lags, None, omega0, None, 0, FitOptions())
        assert abs(fit.loglik - ref["trace"][-1]) < 1e-12 * abs(ref["trace"][-1])
        assert subspace_distance(fit.params.omega, ref["omega"]) < 1e-10

    def test_bad_orders_rejected(self):
        Y = Panel(np.random.default_rng(7).standard_normal((50, 3)))
        with pytest.raises(ValueError):
            fit_mai(Y, 0, 1)
        with pytest.raises(ValueError):
            fit_mai(Y, 1, 4)


class TestShortPanels:
    # each setup leaves a short panel to the one sample check, whose message
    # every model shares

    @pytest.mark.parametrize("T", [2, 3])
    def test_mai_with_at_most_one_row_past_its_lags(self, T):
        Y = Panel(np.random.default_rng(0).standard_normal((T, 3)))
        with pytest.raises(ValueError, match=f"^effective sample {T - 2} too small for 6 regressors$"):
            fit_mai(Y, 2, 1)

    @pytest.mark.parametrize("T", range(22, 27))
    def test_vhari_shorter_than_the_cascade_and_its_regressors(self, T):
        Y = Panel(np.random.default_rng(1).standard_normal((T, 3)))
        with pytest.raises(ValueError, match=f"^effective sample {T - 22} too small for 9 regressors$"):
            fit_vhari(Y, 1)


class TestFitVhari:
    def test_fitted_cascade_identities(self):
        vp = random_vhari_params(5, 2, seed=0)
        Yd = simulate_vhari(vp, 800, seed=1)
        fit = fit_vhari(Yd, 2)
        assert fit.converged and monotone(fit.loglik_trace)
        Z = Yd.values - fit.means["level"]
        Yw, Ym = har_aggregates(Panel(Z))
        fd = Z @ fit.params.omega
        fw = Yw.values @ fit.params.omega
        fm = Ym.values @ fit.params.omega
        for t in range(21, len(Z)):
            assert np.abs(fw[t] - fd[t - 4: t + 1].mean(axis=0)).max() < 1e-12
            assert np.abs(fm[t] - fd[t - 21: t + 1].mean(axis=0)).max() < 1e-12

    def test_q1_index_follows_univariate_har(self):
        # with one index, its own recursion is a univariate HAR: regressing
        # f_d on its daily/weekly/monthly lags leaves exactly omega'e_hat
        vp = random_vhari_params(5, 1, seed=2)
        Yd = simulate_vhari(vp, 1200, seed=3)
        fit = fit_vhari(Yd, 1)
        om = fit.params.omega
        Z = Yd.values - fit.means["level"]
        Yw, Ym = har_aggregates(Panel(Z))
        ts = fit.t_start
        fd = Z @ om
        coeffs = np.array(
            [om.T @ fit.params.alpha_d, om.T @ fit.params.alpha_w, om.T @ fit.params.alpha_m]
        ).ravel()
        pred = (
            coeffs[0] * fd[ts - 1: -1, 0]
            + coeffs[1] * (Yw.values @ om)[ts - 1: -1, 0]
            + coeffs[2] * (Ym.values @ om)[ts - 1: -1, 0]
        )
        resid = fd[ts:, 0] - pred
        assert np.abs(resid - (fit.residuals @ om).ravel()).max() < 1e-10

    def test_recovery(self):
        vp = random_vhari_params(5, 1, seed=4)
        dists = []
        for seed in range(5):
            Yd = simulate_vhari(vp, 3000, seed=seed)
            fit = fit_vhari(Yd, 1)
            dists.append(subspace_distance(fit.params.omega, vp.omega))
        assert np.median(dists) < 0.1

    def test_recovery_under_lognormal_garch_errors(self):
        # the switching algorithm stays reliable under skewed,
        # conditionally heteroskedastic innovations
        vp = random_vhari_params(5, 1, seed=4)
        dists = []
        for seed in range(5):
            Yd = simulate_vhari(vp, 3000, seed=seed, dist="lognormal_garch")
            fit = fit_vhari(Yd, 1)
            dists.append(subspace_distance(fit.params.omega, vp.omega))
        assert np.median(dists) < 0.1


class TestFitIaar:
    def test_q0_is_the_gls_solution_at_its_own_sigma(self):
        # the diagonal VAR's equations share sigma but not regressors, so its
        # ML is the GLS fixed point, not equation-wise OLS
        ip = random_iaar_params(4, 1, 2, 1, seed=0)
        Y = simulate_iaar(ip, 600, seed=1)
        # sweep until the log-likelihood stops moving in floating point, which
        # leaves the diagonals at the fixed point to about sqrt(eps)
        fit = fit_iaar(Y, 2, 0, 0, opts=FitOptions(tol=1e-300))
        Z = Y.values - Y.values.mean(axis=0)
        target, lags = Z[2:], [Z[1:-1], Z[:-2]]
        ds = diagonal_gls(target, lags, fit.params.sigma)
        assert np.abs(np.concatenate(fit.params.ds) - ds).max() <= 1e-8 * np.abs(ds).max()
        sigma = fit.residuals.T @ fit.residuals / fit.T_eff
        assert np.abs(fit.params.sigma - sigma).max() <= 1e-12
        # the equation-wise OLS reference is dominated
        designs = [np.column_stack([X[:, i] for X in lags]) for i in range(4)]
        resid = np.column_stack([target[:, i] - X @ lstsq(X, target[:, i])
                                 for i, X in enumerate(designs)])
        assert fit.loglik >= gaussian_loglik(resid.T @ resid / len(resid), len(resid))

    def test_q0_runs_the_engine_alone_or_in_a_batch(self, monkeypatch):
        dgp = random_iaar_params(5, 2, 2, 1, seed=0)
        panels = [simulate_iaar(dgp, 300, seed=seed) for seed in range(3)]
        runs, engine = [], estimators._sa_engine
        monkeypatch.setattr(
            estimators, "_sa_engine", lambda *args: runs.append(1) or engine(*args))
        singles = [fit_iaar(Y, 2, 0, 0) for Y in panels]
        assert len(runs) == len(panels)
        for got, ref in zip(fit_many("iaar", panels, p=2, s=0, q=0), singles):
            assert got.iterations == ref.iterations
            assert got.diagnostics == ref.diagnostics
            assert np.array_equal(got.loglik_trace, ref.loglik_trace)
            assert np.array_equal(got.params.sigma, ref.params.sigma)
            assert np.array_equal(got.residuals, ref.residuals)

    def test_recovery_of_diagonals(self):
        ip = random_iaar_params(6, 1, 2, 2, seed=2, diag=0.35)
        errs = []
        for seed in range(8):
            Y = simulate_iaar(ip, 2000, seed=seed)
            fit = fit_iaar(Y, 2, 2, 1)
            assert monotone(fit.loglik_trace)
            errs.append(np.abs(fit.params.ds[0] - ip.ds[0]).max())
        assert np.median(errs) < 0.1

    def test_s_greater_than_p_rejected(self):
        Y = Panel(np.random.default_rng(5).standard_normal((100, 3)))
        with pytest.raises(ValueError):
            fit_iaar(Y, 1, 2, 1)

    def test_index_without_lag_rejected(self):
        # s = 0 leaves omega in no term: only the diagonal model q = 0 may take it
        Y = simulate_iaar(random_iaar_params(4, 2, 2, 1, seed=0), 300, seed=1)
        with pytest.raises(ValueError, match="s = 0 with q = 0"):
            fit_iaar(Y, 2, 0, 1)
        with pytest.raises(ValueError, match="s = 0 with q = 0"):
            next(fit_many("iaar", [Y, Y], p=2, s=0, q=2))
        fit = fit_iaar(Y, 2, 0, 0)
        assert fit.params.n_free_params() == 2 * 4
        assert np.isfinite(fit.loglik)


class TestFitCiaar:
    def test_all_rank_variants_converge_monotonically(self):
        for r, seed in ((0, 0), (1, 1), (2, 2)):
            params = random_ciaar_params(5, 2, r, 2, 2, seed=seed)
            Y = simulate_ciaar(params, 800, seed=seed + 10)
            fit = fit_ciaar(Y, 2, 2, 2, r)
            assert monotone(fit.loglik_trace), f"r={r}"
            assert fit.converged, f"r={r}"

    def test_vecim_special_case(self):
        # the VECIM through the gram engine against the row-level
        # Vec/Kronecker loop, both from the Johansen/SVD start
        params = random_ciaar_params(5, 2, 1, 0, 2, seed=3)
        Y = simulate_ciaar(params, 1200, seed=4)
        fit = fit_vecim(Y, 2, 2, 1)
        gamma0, omega0, _ = engine_start("ciaar", Y, p=0, s=2, q=2, r=1)
        Z, _, index_X, ec_X = ciaar_inputs(Y, 0, 1)
        ref = row_level_sa(Z, index_X, ec_X, omega0, gamma0, 1, FitOptions())
        assert abs(fit.loglik - ref["trace"][-1]) < 1e-6
        beta_hat = fit.params.beta
        assert np.linalg.matrix_rank(beta_hat, tol=1e-8) == 1

    def test_stop_reason_recorded(self):
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=1)
        Y = simulate_ciaar(params, 800, seed=11)
        capped = fit_ciaar(Y, 2, 2, 2, 1, opts=FitOptions(max_iter=2))
        assert capped.diagnostics["stop"] == "max_iter"
        assert not capped.converged and capped.iterations == 2
        full = fit_ciaar(Y, 2, 2, 2, 1)
        assert full.diagnostics["stop"] == "tol" and full.converged
        # no diagonal or index lags and r = 0: one OLS step is the whole fit
        ols_only = fit_ciaar(Y, 1, 1, 2, 0)
        assert ols_only.diagnostics["stop"] == "no_free_params"
        assert ols_only.converged and ols_only.iterations == 1

    def test_nests_mai_on_differences(self):
        params = random_ciaar_params(5, 2, 0, 1, 3, seed=5)
        Y = simulate_ciaar(params, 1200, seed=6)
        a = fit_ciaar(Y, 0, 3, 2, 0)
        b = fit_mai(Panel(np.diff(Y.values, axis=0)), 2, 2)
        assert abs(a.loglik - b.loglik) < 1e-6

    def test_beta_recovery(self):
        params = random_ciaar_params(6, 2, 1, 2, 2, seed=7)
        dists = []
        for seed in range(8):
            Y = simulate_ciaar(params, 2000, seed=seed)
            fit = fit_ciaar(Y, 2, 2, 2, 1)
            dists.append(subspace_distance(fit.params.beta, params.beta))
        assert np.median(dists) < 0.15

    def test_gamma_head_normalized_for_reporting(self):
        params = random_ciaar_params(5, 3, 1, 1, 2, seed=8)
        Y = simulate_ciaar(params, 1000, seed=9)
        fit = fit_ciaar(Y, 1, 2, 3, 1)
        head = fit.params.gamma[:1, :]
        assert np.abs(head - np.eye(1)).max() < 1e-10

    def test_gamma_with_a_singular_head_is_left_unnormalized(self):
        # q = 3, r = 2: the leading 2 x 2 block has rank 1, so no rotation
        # brings it to I_r; gamma and alpha0 come back as they are, flagged
        gamma = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, -1.0]])
        alpha0 = np.arange(10.0).reshape(5, 2)
        # a stack of it and a normalizable one: each member is judged on its own
        ok = np.array([[2.0, 0.0], [1.0, 4.0], [0.5, -1.0]])
        got = _normalize_gamma(np.stack([gamma, ok]), np.stack([alpha0, alpha0]))
        assert np.array_equal(got[0][0], gamma) and np.array_equal(got[1][0], alpha0)
        assert got[2].tolist() == [True, False]
        assert np.abs(got[0][1][:2] - np.eye(2)).max() <= 1e-15
        assert np.abs(got[1][1] @ got[0][1].T - alpha0 @ ok.T).max() <= 1e-12

    def test_unidentified_omega_direction_handled(self):
        # with s = 1 the weights enter only through the rank-r EC loading,
        # leaving omega directions unidentified; the gram minimum-norm solve
        # keeps the sweep monotone
        params = random_ciaar_params(6, 2, 1, 2, 1, seed=0)
        Y = simulate_ciaar(params, 800, seed=1)
        fit = fit_ciaar(Y, 2, 1, 2, 1)
        assert fit.converged
        assert monotone(fit.loglik_trace)

    def test_order_validation(self):
        Y = Panel(np.cumsum(np.random.default_rng(10).standard_normal((100, 3)), axis=0))
        with pytest.raises(ValueError):
            fit_ciaar(Y, 2, 3, 2, 1)  # s > p with diagonal channel present
        with pytest.raises(ValueError):
            fit_ciaar(Y, 1, 1, 2, 3)  # r > q
        with pytest.raises(ValueError):
            fit_ciaar(Y, 1, 1, 3, 0)  # q = n


class TestStep2Rewrite:
    def test_design_blocks_match_explicit_kronecker(self):
        rng = np.random.default_rng(0)
        n, q, Te = 4, 2, 9
        M = diag_selection_matrix(n)
        S = sym_inv_sqrt(np.eye(n) + 0.1 * np.diag(np.arange(n) + 1.0))
        X = rng.standard_normal((Te, n))
        A = rng.standard_normal((n, q))
        explicit_diag = np.vstack([np.kron(X[t][None, :], S) @ M for t in range(Te)])
        explicit_vec = np.vstack([np.kron(X[t][None, :], S @ A) for t in range(Te)])
        assert np.abs(vec_diag_block(X, S) - explicit_diag).max() < 1e-14
        assert np.abs(vec_omega_block(X, S @ A) - explicit_vec).max() < 1e-14

    def test_selection_matrix_extracts_diagonal(self):
        n = 5
        M = diag_selection_matrix(n)
        d = np.arange(1.0, n + 1.0)
        assert np.abs(M @ d - np.diag(d).reshape(-1, order="F")).max() == 0.0

    def test_step2_residuals_equal_direct_model_residuals(self):
        # at any parameter point, the reparametrized regression's residuals
        # are the Sigma^-1/2-weighted residuals of the original equation
        rng = np.random.default_rng(1)
        for trial in range(10):
            n, q, r, nd, na, Te = 5, 2, 1, 2, 1, 30
            params = random_ciaar_params(n, q, r, nd + 1, na + 1, seed=trial)
            Z = rng.standard_normal((Te, n))
            diag_X = [rng.standard_normal((Te, n)) for _ in range(nd)]
            index_X = [rng.standard_normal((Te, n)) for _ in range(na)]
            ec_X = rng.standard_normal((Te, n))
            S = sym_inv_sqrt(params.sigma)
            blocks = [vec_diag_block(X, S) for X in diag_X]
            ob = vec_omega_block(ec_X, S @ (params.alpha0 @ params.gamma.T))
            for X, a in zip(index_X, params.alphas):
                ob = ob + vec_omega_block(X, S @ a)
            blocks.append(ob)
            design = np.hstack(blocks)
            theta = np.concatenate([np.concatenate(params.ds), params.omega.ravel()])
            step2 = (Z @ S).ravel() - design @ theta
            direct = Z.copy()
            for d, X in zip(params.ds, diag_X):
                direct -= X * d
            direct -= (ec_X @ params.beta) @ params.alpha0.T
            for a, X in zip(params.alphas, index_X):
                direct -= (X @ params.omega) @ a.T
            assert np.abs(step2.reshape(Te, n) - direct @ S).max() < 1e-12

    @staticmethod
    def _multichannel_case(seed):
        # nd = 2 diagonal lags, the EC channel and 2 index lags, r = 1 < q = 2
        rng = np.random.default_rng(seed)
        n, Te = 5, 40
        params = random_ciaar_params(n, 2, 1, 3, 3, seed=seed)
        Z = rng.standard_normal((Te, n))
        diag_X = [rng.standard_normal((Te, n)) for _ in range(2)]
        index_X = [rng.standard_normal((Te, n)) for _ in range(2)]
        ec_X = rng.standard_normal((Te, n))
        assert len(params.ds) == len(params.alphas) == 2
        return params, Z, diag_X, index_X, ec_X

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=padded_batches())
    def test_batched_step2_matches_row_level_normal_equations(self, case):
        # each member's theta solves its row-level normal equations over its
        # own lags, and is zero on the coordinates of the lags it lacks
        grams, members, rng, (n, q, nd, r) = case
        ec = int(r > 0)
        sigmas = [L @ L.T + n * np.eye(n) for L in rng.standard_normal((len(members), n, n))]
        loadings = rng.standard_normal((len(members), grams.Gcc.shape[-1] // n, n, q))
        for a, m in zip(loadings, members):
            if ec and m["r"] == 0:                    # alpha0 gamma' of a member of rank 0
                a[0] = 0.0
            a[ec + m["na"]:] = 0.0                    # the engine's loadings of lacking lags
        theta = _step2_solve(grams, np.stack(sigmas), np.linalg.cholesky(sigmas), loadings, nd, q, True)
        for got, m, sigma, a in zip(theta, members, sigmas, loadings):
            S = sym_inv_sqrt(sigma)
            blocks = [vec_diag_block(X, S) for X in m["diag_X"][:m["nd"]]]
            channels = [m["ec_X"]] * ec + m["index_X"]
            blocks.append(sum(vec_omega_block(X, S @ a_c) for X, a_c in zip(channels, a)))
            free = list(range(m["nd"] * n)) + list(range(nd * n, nd * n + n * q))
            # the least-squares solution of the row-level design solves the
            # normal equations without squaring its condition number, as
            # forming X2' X2 here would
            X2 = np.hstack(blocks)
            ref = np.zeros_like(got)
            ref[free] = np.linalg.lstsq(X2, (m["Z"] @ S).ravel(), rcond=None)[0]
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=padded_batches())
    def test_batched_normal_blocks_match_explicit_design(self, case):
        # the design of each member's own lags, plus W_c' W_c on the block of
        # each index lag it lacks, whose gram is the identity
        grams, members, rng, (n, q, nd, r) = case
        B, ec = len(members), int(r > 0)
        ds = rng.standard_normal((B, nd, n))
        for d, m in zip(ds, members):
            d[m["nd"]:] = 0.0                         # the engine's diagonals of lacking lags
        UU, GU = _target_grams(grams, ds)
        weights = [rng.standard_normal((B, n, r))] * ec      # widths r (EC), then q
        weights += [rng.standard_normal((B, n, q)) for _ in members[0]["index_X"]]
        M, v = _normal_blocks(grams.Gcc, weights, GU[:, 1 + nd:])
        for i, m in enumerate(members):
            Z, vec = m["Z"], [m["ec_X"]] * ec + m["index_X"]
            U = Z - sum((X * d for X, d in zip(m["diag_X"], ds[i])), np.zeros((1, n)))
            X1 = np.hstack([X @ W[i] for X, W in zip(vec, weights)])
            XX = X1.T @ X1
            for c in range(ec + m["na"], len(vec)):
                at = slice(ec * r + (c - ec) * q, ec * r + (c - ec + 1) * q)
                XX[at, at] += weights[c][i].T @ weights[c][i]
            XU = np.stack([X.T @ U for X in [Z] + m["diag_X"] + vec])
            for got, ref in ((M[i], XX), (v[i], X1.T @ U), (UU[i], U.T @ U), (GU[i], XU)):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


class TestBatchAxis:
    def test_members_stop_at_their_own_sweep(self):
        # six CIAAR panels whose single fits take 16 to 27 sweeps: under a cap
        # of 20 some members converge and some hit the cap, and each member of
        # the lockstep run must match its batch-of-one fit
        params = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
        panels = [simulate_ciaar(params, 300, seed=seed) for seed in range(6)]
        opts = FitOptions(max_iter=20)
        batch = list(fit_many("ciaar", panels, opts=opts, p=2, s=2, q=2, r=1))
        singles = [fit_ciaar(Y, 2, 2, 2, 1, opts=opts) for Y in panels]
        stops = [fit.diagnostics["stop"] for fit in singles]
        assert {"tol", "max_iter"} <= set(stops)
        assert len({fit.iterations for fit in singles}) >= 3
        for got, ref in zip(batch, singles):
            assert got.iterations == ref.iterations
            assert got.diagnostics["stop"] == ref.diagnostics["stop"]
            assert got.converged == ref.converged
            gap = np.abs(got.loglik_trace - ref.loglik_trace).max()
            assert gap < 1e-10 * np.abs(ref.loglik_trace).max()
            assert np.abs(got.residuals - ref.residuals).max() < 1e-10 * np.abs(ref.residuals).max()
            assert np.abs(got.params.beta - ref.params.beta).max() < 1e-8

    def test_singular_step2_member_leaves_the_batch_with_the_step_error(self):
        # member 0 has a positive definite system; member 1 has zero loadings,
        # so its omega block is singular: the stacked solve raises, and run
        # member by member only member 1 leaves, with the fixed step error
        cases = [TestStep2Rewrite._multichannel_case(seed) for seed in (0, 1)]
        grams = [_Grams.of(Z, diag_X, ec_X, index_X) for _, Z, diag_X, index_X, ec_X in cases]
        sigma = np.stack([params.sigma for params, *_ in cases])
        chol = np.linalg.cholesky(sigma)
        params = cases[0][0]
        loadings = np.stack([
            [params.alpha0 @ params.gamma.T] + list(params.alphas),
            np.zeros((3, 5, 2)),
        ])

        def phase(st):
            grams = _Grams(st["M"], 5, 2, 40)
            return {"theta": _step2_solve(grams, st["sigma"], st["chol"], st["a"], 2, 2, True)}

        both = _Grams.stack(grams)
        st = {"M": both.M, "sigma": sigma, "chol": chol, "a": loadings}
        with pytest.raises(np.linalg.LinAlgError, match=STEP_ERROR):
            phase(st)
        finals = [None, None]
        out, _, members = _each_member(phase, st, [0, 1], finals)
        assert members == [0]
        assert isinstance(finals[1], np.linalg.LinAlgError) and str(finals[1]) == STEP_ERROR
        ref = _step2_solve(grams[0], sigma[:1], chol[:1], loadings[:1], 2, 2, True)[0]
        assert np.array_equal(out["theta"][0], ref)
        # a positive definite system keeps the exact solve however small its
        # least eigenvalue
        A = np.stack([np.diag([1.0, 1.0, 1e-13]), np.diag([2.0, 4.0, 1.0])])
        x = _solve_pd(A, np.ones((2, 3, 1)))[:, :, 0]
        assert np.allclose(x, [[1.0, 1.0, 1e13], [0.5, 0.25, 1.0]], rtol=1e-12, atol=0.0)

    def test_sigma_that_is_not_positive_definite_leaves_the_batch(self):
        # the stacked factorization raises SIGMA_ERROR; run member by member,
        # only the failing member leaves, and the others keep their own factors
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        pd = A @ A.T + np.eye(4)
        sigma = np.stack([pd, np.diag([1.0, 2.0, 0.5, 0.0]), 2.0 * pd])
        with pytest.raises(np.linalg.LinAlgError) as info:
            pd_factor(sigma, SIGMA_ERROR)
        assert str(info.value) == SIGMA_ERROR
        finals = [None, None, None]
        out, _, members = _each_member(
            lambda st: {"chol": pd_factor(st["sigma"], SIGMA_ERROR)}, {"sigma": sigma}, [0, 1, 2],
            finals,
        )
        assert members == [0, 2]
        assert isinstance(finals[1], np.linalg.LinAlgError) and str(finals[1]) == SIGMA_ERROR
        for L, i in zip(out["chol"], members):
            assert np.array_equal(L, pd_factor(sigma[i: i + 1], SIGMA_ERROR)[0])
            assert np.abs(L @ L.T - sigma[i]).max() < 1e-10 * np.abs(sigma[i]).max()

    def test_error_in_one_member_raises_as_its_single_fit(self):
        # y4_t = y1_{t-1} has no innovation, so a MAI(2) with q = 2 fits it
        # exactly and its residual covariance is singular
        dgp = random_mai_params(4, 1, 2, seed=0)
        good = simulate_mai(dgp, 600, seed=1)
        values = simulate_mai(dgp, 600, seed=2).values.copy()
        values[1:, 3] = values[:-1, 0]
        bad = Panel(values)
        match = "residual covariance is not positive definite"
        with pytest.raises(np.linalg.LinAlgError, match=match):
            fit_mai(bad, 2, 2)
        # the good panels still fit; the bad one raises when its turn comes
        fits = fit_many("mai", [good, bad, good], p=2, q=2)
        assert next(fits).loglik == fit_mai(good, 2, 2).loglik
        with pytest.raises(np.linalg.LinAlgError, match=match):
            next(fits)

    def test_failing_members_leave_the_batch_with_their_single_fit_errors(self):
        # a batch of MAI(2) q = 2 fits: two healthy panels, one whose
        # residual covariance turns singular (y4_t = y1_{t-1}), and one whose
        # start omega repeats a column, so its step-1 design is rank deficient
        dgp = random_mai_params(4, 1, 2, seed=0)
        panels = [simulate_mai(dgp, 600, seed=seed) for seed in (1, 2, 3, 4)]
        values = panels[1].values.copy()
        values[1:, 3] = values[:-1, 0]
        panels[1] = Panel(values)
        column = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 1)))[0]
        inits = [None, None, None, (None, np.hstack([column, column]), [])]
        opts = FitOptions(max_iter=60)
        setups = [_setup_mai(Y, 2, 2) for Y in panels]
        grams = _Grams.stack([_Grams.of(s.Z, s.diag_X, None, s.index_X) for s in setups])
        nd, _, r = setups[0].shape
        starts = _default_starts([s.start() for s in setups[:3]], r, nd, 2)
        starts.append(inits[3])
        states = _sa_engine(grams, 2, 0, starts, opts)
        failed = []
        finished = _finished(states, setups[0], [None] * 4, [setup.means for setup in setups])
        for Y, init, got in zip(panels, inits, finished):   # sigma judged as they finish
            try:
                ref = next(fit_many("mai", [Y], opts, init=init, p=2, q=2))
            except (ValueError, np.linalg.LinAlgError) as exc:
                assert type(got) is type(exc)
                assert str(got) == str(exc)
                failed.append(type(exc))
                continue
            assert got.iterations == ref.iterations
            assert got.diagnostics == ref.diagnostics
            gap = np.abs(got.loglik_trace - ref.loglik_trace).max()
            assert gap <= 1e-10 * np.abs(ref.loglik_trace).max()
        assert failed == [np.linalg.LinAlgError, SingularDesignError]

    @pytest.mark.parametrize("model, orders", [
        ("ciaar", dict(p=2, s=2, q=2, r=1)),
        ("ciaar", dict(p=3, s=2, q=2, r=1)),
        ("ciaar", dict(p=1, s=2, q=2, r=2)),
        ("vecim", dict(p=2, q=2, r=1)),
    ])
    def test_fit_many_starts_every_window_from_its_init_ciaar(self, model, orders, monkeypatch):
        # 50 sliding windows, as rolling_evaluate refits them: the batched
        # Johansen starts equal each window's own start, and so do the fits they start
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 250, seed=7)
        windows = [Panel(Y.values[i: i + 200]) for i in range(50)]
        starts, engine = [], estimators._sa_engine

        def recorded(grams, q, r, inits, opts, shapes=None):
            starts.extend(inits)
            return engine(grams, q, r, inits, opts, shapes)

        monkeypatch.setattr(estimators, "_sa_engine", recorded)
        opts = FitOptions(max_iter=60)
        fits = list(fit_many(model, windows, opts=opts, **orders))
        monkeypatch.undo()
        assert len(starts) == len(fits) == 50
        for W, (gamma0, omega0, d0), fit in zip(windows, starts, fits):
            ref = engine_start(model, W, **orders)
            for got, want in ((gamma0, ref[0]), (omega0, ref[1]), (d0, ref[2])):
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=1.0)
            single = next(fit_many(model, [W], opts, init=ref, **orders))
            assert fit.iterations == single.iterations
            assert fit.diagnostics["stop"] == single.diagnostics["stop"]

    def test_fit_many_solves_its_starts_in_one_batch(self, monkeypatch):
        # 50 sliding windows share one Johansen regression and one truncation
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 250, seed=7)
        windows = [Panel(Y.values[i: i + 200]) for i in range(50)]
        calls = []

        def counting(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("_start_regression", "_index_start"):
            monkeypatch.setattr(estimators, name, counting(name, getattr(estimators, name)))
        fits = list(fit_many("ciaar", windows, opts=FitOptions(max_iter=5), p=2, s=2, q=2, r=1))
        assert len(fits) == 50
        assert sorted(calls) == ["_index_start", "_start_regression"]

    def test_failing_windows_leave_the_batch_with_their_single_fit_errors(self):
        # equal-length CIAAR panels: two healthy ones, one whose lag design
        # is exactly collinear (series 3 duplicates series 2), and one with
        # y4_t = y1_{t-1}, whose Johansen residual covariance is singular (dy4_t
        # is a lagged difference) and whose fit drives sigma singular too
        dgp = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
        panels = [simulate_ciaar(dgp, 300, seed=seed) for seed in (0, 1, 2, 4)]
        dup, lag = panels[1].values.copy(), panels[2].values.copy()
        dup[:, 2] = dup[:, 1]
        lag[1:, 3] = lag[:-1, 0]
        panels[1:3] = [Panel(dup), Panel(lag)]
        with pytest.raises(SingularDesignError):
            johansen_rrr(panels[1], 2, 1)
        opts = FitOptions(max_iter=60)
        fits = fit_many("ciaar", panels, opts=opts, p=2, s=2, q=2, r=1)
        failed = []
        for Y in panels:
            try:
                ref = fit_ciaar(Y, 2, 2, 2, 1, opts=opts)
            except (ValueError, np.linalg.LinAlgError) as exc:
                with pytest.raises(type(exc)) as info:
                    next(fits)
                assert str(info.value) == str(exc)
                failed.append(type(exc))
                continue
            got = next(fits)
            assert got.iterations == ref.iterations
            assert got.diagnostics == ref.diagnostics
            assert np.array_equal(got.loglik_trace, ref.loglik_trace)
            assert np.array_equal(got.residuals, ref.residuals)
        assert failed == [SingularDesignError, np.linalg.LinAlgError]

    def test_default_starts_solve_one_batch_in_order(self, monkeypatch):
        # the panels of the test above, but the lagged copy's first y4 set so
        # that its level mean is y1's level mean less y1's difference mean:
        # then y4_{t-1} = y1_{t-1} - dy1_{t-1} holds of the demeaned data too,
        # to rounding, so its levels concentrated on its lags are singular and
        # its Johansen regression fails on its own. The collinear one's start
        # grams raise and pass through as its entry, and the healthy ones get
        # the starts a batch of one gives them, bit for bit
        dgp = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
        panels = [simulate_ciaar(dgp, 300, seed=seed) for seed in (0, 1, 2, 4)]
        dup, lag = panels[1].values.copy(), panels[2].values.copy()
        dup[:, 2] = dup[:, 1]
        lag[1:, 3] = lag[:-1, 0]
        y1 = lag[:, 0]
        lag[0, 3] = len(y1) * (y1.mean() - np.diff(y1).mean()) - y1[:-1].sum()
        panels[1:3] = [Panel(dup), Panel(lag)]
        inits = []
        for Y in panels:
            try:
                inits.append(_setup_ciaar(Y, 2, 2, 2, 1).start())
            except SingularDesignError as exc:
                inits.append(exc)
        starts = _default_starts(inits, 1, 1, 2)
        assert starts[1] is inits[1]
        with pytest.raises(np.linalg.LinAlgError) as info:
            engine_start("ciaar", panels[2], p=2, s=2, q=2, r=1)
        assert type(starts[2]) is type(info.value) and str(starts[2]) == str(info.value)
        for i in (0, 3):
            setup = _setup_ciaar(panels[i], 2, 2, 2, 1)
            alone = _default_starts([setup.start()], 1, 1, 2)[0]
            for got, want in zip(starts[i], alone):
                assert np.array_equal(np.asarray(got), np.asarray(want))
        # grams already solved at r are not regressed again, fresh ones are
        regressed, start_regression = [], estimators._start_regression
        monkeypatch.setattr(estimators, "_start_regression",
                            lambda grams, r: regressed.append(len(grams.M)) or
                            start_regression(grams, r))
        fresh = _setup_ciaar(panels[0], 2, 2, 2, 1).start()
        again = _default_starts([*inits, fresh], 1, 1, 2)
        assert regressed == [1]
        assert again[1:3] == starts[1:3]
        for got, want in zip([*again[:1], *again[3:]], [starts[0], starts[3], starts[0]]):
            for a, b in zip(got, want):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_fit_many_rejects_unequal_lengths(self):
        params = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
        panels = [simulate_ciaar(params, 300, seed=0), simulate_ciaar(params, 301, seed=1)]
        with pytest.raises(ValueError, match="equal length"):
            fit_many("ciaar", panels, p=2, s=2, q=2, r=1)
        with pytest.raises(ValueError, match="cannot fit"):
            fit_many("vecm", panels[:1], p=2, r=1)


def _ols_case(model):
    """Four equal-length panels of a model with an OLS start, its fitter's
    orders, and the setup of a panel at those orders."""
    if model == "mai":
        dgp, orders, make = random_mai_params(5, 2, 2, seed=0), dict(p=2, q=2), _setup_mai
        panels = [simulate_mai(dgp, 300, seed=seed) for seed in range(4)]
    elif model == "vhari":
        dgp, orders, make = random_vhari_params(4, 2, seed=0), dict(q=2), _setup_vhari
        panels = [simulate_vhari(dgp, 300, seed=seed) for seed in range(4)]
    else:
        dgp, orders, make = random_iaar_params(5, 2, 2, 1, seed=0), dict(p=2, s=1, q=2), _setup_iaar
        panels = [simulate_iaar(dgp, 300, seed=seed) for seed in range(4)]
    return panels, orders, lambda Y: make(Y, **orders)


def _dense_start(setup):
    """dense_ols_start on a setup's data: IAAR regresses on its diagonal lags."""
    X = setup.diag_X if setup.model == "iaar" else setup.index_X
    return dense_ols_start(X, setup.Z, len(setup.diag_X), setup.q)


def _assert_close_start(got, ref, tol=1e-10):
    for a, b in zip(got, ref):
        a, b = np.asarray(a, float), np.asarray(b, float)
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= tol * np.abs(b).max(initial=1.0)


class TestGramStarts:
    """The MAI / VHARI / IAAR starts solve the normal equations of the grams
    the engine reads; the dense lstsq start (dense_ols_start) is the oracle."""

    FITTERS = {"mai": fit_mai, "vhari": fit_vhari, "iaar": fit_iaar}

    @staticmethod
    def _engine_starts(monkeypatch, run):
        starts, engine = [], estimators._sa_engine

        def recorded(grams, q, r, inits, opts, shapes=None):
            starts.extend(inits)
            return engine(grams, q, r, inits, opts, shapes)

        monkeypatch.setattr(estimators, "_sa_engine", recorded)
        out = run()
        monkeypatch.undo()
        return starts, out

    @pytest.mark.parametrize("model", ["mai", "vhari", "iaar"])
    def test_single_and_batched_starts_equal_the_dense_ols_start(self, model, monkeypatch):
        panels, orders, setup = _ols_case(model)
        fit = self.FITTERS[model]
        opts = FitOptions(max_iter=40)
        batch_starts, batch = self._engine_starts(
            monkeypatch, lambda: list(fit_many(model, panels, opts=opts, **orders)))
        assert len(batch_starts) == len(panels)
        for Y, start, got in zip(panels, batch_starts, batch):
            single_starts, ref = self._engine_starts(
                monkeypatch, lambda: fit(Y, opts=opts, **orders))
            _assert_close_start(single_starts[0], _dense_start(setup(Y)))
            _assert_close_start(start, _dense_start(setup(Y)))
            # a lockstep member is its single fit, bit for bit
            assert got.iterations == ref.iterations
            assert got.diagnostics == ref.diagnostics
            assert np.array_equal(got.loglik_trace, ref.loglik_trace)
            assert np.array_equal(got.residuals, ref.residuals)

    @pytest.mark.parametrize("model", ["mai", "iaar"])
    def test_grid_starts_equal_the_dense_ols_start(self, model, monkeypatch):
        Y = _ols_case(model)[0][0]
        candidates = _candidate_grid(model, (1, 3), (1, 2), Y.n)
        t_start = 3
        starts, _ = self._engine_starts(monkeypatch, lambda: list(
            _fit_grid(model, Y, candidates, FitOptions(max_iter=40), t_start)))
        starts = iter(starts)
        for q in sorted({c[2] for c in candidates}):
            for p, s, q_, _ in candidates:
                if q_ == q:
                    setup = _grid_setup(model, Y, (p, s, q, 0), t_start)
                    _assert_close_start(next(starts), _dense_start(setup))
        assert next(starts, None) is None

    @pytest.mark.parametrize("model", ["mai", "vhari", "iaar"])
    def test_collinear_design_raises_its_single_fit_error_on_every_path(self, model):
        panels, orders, _ = _ols_case(model)
        values = panels[1].values.copy()
        values[:, 2] = values[:, 1]
        panels[1] = Panel(values)
        fit = self.FITTERS[model]
        with pytest.raises(SingularDesignError) as single:
            fit(panels[1], **orders)
        fits = fit_many(model, panels[:3], **orders)
        assert np.array_equal(next(fits).residuals, fit(panels[0], **orders).residuals)
        with pytest.raises(SingularDesignError) as batch:
            next(fits)
        assert str(batch.value) == str(single.value)
        assert next(fits).loglik == fit(panels[2], **orders).loglik
        if model == "vhari":                           # no selection grid
            return
        p, q = orders["p"], orders["q"]
        orders_row = (p, orders.get("s", p), q, 0)
        t_start = p
        outcome, _, _ = next(_fit_grid(model, panels[1], [orders_row], FitOptions(), t_start))
        with pytest.raises(SingularDesignError) as ref:
            next(fit_many(model, [panels[1]], t_start=t_start, **orders))
        assert isinstance(outcome, SingularDesignError)
        assert str(outcome) == str(ref.value)

    # least over largest singular value of the lag design; 0 repeats a column
    @pytest.mark.parametrize("ratio", [1e-4, 1e-9, 1e-10 * 1.001, 1e-10 * 0.999, 1e-12, 0.0])
    def test_gram_rank_certificate_keeps_the_svd_outcome(self, ratio, monkeypatch):
        rng = np.random.default_rng(0)
        T, n = 300, 3
        U = np.linalg.qr(rng.standard_normal((T, 2 * n)))[0]
        V = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
        X = (U * [1.0, 0.7, 0.4, 0.2, 0.1, ratio or 1e-4]) @ V.T
        if ratio == 0.0:
            X[:, 4] = X[:, 1]
        try:
            check_rank(X)
            expected = None
        except SingularDesignError as exc:
            expected = str(exc)
        assert (expected is None) == (ratio >= 1e-10)
        svds = []
        monkeypatch.setattr(estimators, "check_rank", lambda X: svds.append(1) or check_rank(X))
        Z, lags = rng.standard_normal((T, n)), [X[:, :n], X[:, n:]]
        if expected is None:
            assert _start_grams(Z, lags, None, 0).M.shape == (1, 3 * n, 3 * n)
        else:
            with pytest.raises(SingularDesignError) as got:
                _start_grams(Z, lags, None, 0)
            assert str(got.value) == expected
        # the gram certifies the well-conditioned design; the SVD decides the rest
        assert len(svds) == (ratio < 1e-4)

    def test_grid_certifies_each_lag_block_once(self, monkeypatch):
        # a c12 grid's default starts read two lag blocks (1 and 2 lagged
        # differences, each at its own rows); the 0-lag block has no design.
        # The gram of L lags of the n = 6 series is 6 L square
        calls, certifies = [], estimators._certifies_rank
        monkeypatch.setattr(
            estimators, "_certifies_rank", lambda gram, T: calls.append((len(gram) // 6, T))
            or certifies(gram, T)
        )
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=0)
        candidates = _candidate_grid("ciaar", (1, 3), (1, 3), Y.n)
        list(_fit_grid("ciaar", Y, candidates, FitOptions(max_iter=5), 3))
        assert sorted(calls) == [(1, 998), (2, 997)]

    def test_pruned_grid_solves_starts_only_for_fits_that_run(self, monkeypatch):
        # c12's seed-0 grid prunes 15 of its 39 distinct fits: each start
        # truncation row is a member the engine runs, and Johansen regresses
        # each pair of start grams (its lag count) and rank once
        truncated, engine_ids, regressed, shapes = [], [], [], []
        index_start, johansen, engine = (
            estimators._index_start, estimators._johansen, estimators._sa_engine)

        def traced_index_start(jo, nd, q):
            starts = index_start(jo, nd, q)
            truncated.extend(id(omega0) for _, omega0, _ in starts)
            return starts

        def traced_johansen(grams, r):
            lags = grams.M.shape[1] // grams.n - 2     # target, lags, levels
            regressed.extend([(lags, r)] * len(grams.M))
            return johansen(grams, r)

        def traced_engine(grams, q, r, starts, opts, shapes_=None):
            engine_ids.extend(id(omega0) for _, omega0, _ in starts)
            shapes.extend(shapes_)
            return engine(grams, q, r, starts, opts, shapes_)

        monkeypatch.setattr(estimators, "_index_start", traced_index_start)
        monkeypatch.setattr(estimators, "_johansen", traced_johansen)
        monkeypatch.setattr(estimators, "_sa_engine", traced_engine)
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=0)
        table = grid_search(Y, (1, 3), (1, 3), kind="hq", opts=FitOptions(max_iter=120))
        assert sum(row.stop == "pruned" for row in table.rows) > 0
        assert sorted(truncated) == sorted(engine_ids)
        assert sorted(regressed) == sorted({(max(nd, na), r) for nd, na, r in shapes})

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        T=st.integers(10, 400), k=st.integers(2, 8), log_eps=st.floats(-15.0, -2.0),
        scale=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1), data=st.data(),
    )
    def test_rank_certificate_implies_the_svd_test(self, T, k, log_eps, scale, seed, data):
        # one column equals another plus eps noise, the design scaled by 2^scale:
        # whenever the gram's Cholesky certificate holds, check_rank passes
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((T, k))
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        X[:, j] = X[:, i] + 10.0**log_eps * rng.standard_normal(T)
        X *= 2.0**scale
        if _certifies_rank(X.T @ X, T):
            check_rank(X)

    def test_mc_wide_and_c12_lag_grams_take_the_cholesky_certificate(self, monkeypatch):
        # the mc-wide fit's 40-square lag gram and the c12 grid's 6- and
        # 12-square ones certify, so no singular-value test runs
        verdicts, svds, certifies = [], [], estimators._certifies_rank
        monkeypatch.setattr(estimators, "_certifies_rank", lambda gram, T: verdicts.append(
            (len(gram), certifies(gram, T))) or verdicts[-1][1])
        monkeypatch.setattr(estimators, "check_rank", lambda X: svds.append(X.shape))
        fit_mai(simulate_mai(random_mai_params(20, 2, 2, seed=0), 2000, burn=500, seed=1), 2, 2)
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=0)
        grid_search(Y, (1, 3), (1, 3), kind="hq", opts=FitOptions(max_iter=5))
        assert sorted(verdicts) == [(6, True), (12, True), (40, True)]
        assert svds == []


class TestOneSweepFit:
    """A max_iter=1 fit stops before any step 2 runs, so its reported omega and D are its
    start: the start tests read from it (c13) is the one the engine ran."""

    @pytest.mark.parametrize("model, orders", [
        ("mai", dict(p=2, q=2)), ("vhari", dict(q=2)), ("iaar", dict(p=2, s=1, q=2)),
        ("ciaar", dict(p=2, s=2, q=2, r=1)), ("ciaar", dict(p=1, s=2, q=2, r=2)),
        ("ciaar", dict(p=2, s=1, q=3, r=1)), ("vecim", dict(p=2, q=2, r=1)),
    ])
    def test_omega_and_d_are_the_start_the_engine_ran(self, model, orders, monkeypatch):
        if model in ("ciaar", "vecim"):
            Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=5)
        else:
            Y = _ols_case(model)[0][0]
        (start,), (fit,) = TestGramStarts._engine_starts(
            monkeypatch, lambda: list(fit_many(model, [Y], FitOptions(max_iter=1), **orders)))
        omega0, d0 = np.asarray(start[1]), np.asarray(start[2])
        # an order with no index lag reports omega0 completed by its orthogonal complement
        assert np.array_equal(fit.params.omega[:, :omega0.shape[1]], omega0)
        assert np.array_equal(np.asarray(getattr(fit.params, "ds", [])), d0)
        assert fit.iterations == 1 and fit.diagnostics["stop"] == "max_iter"


class TestMixedRankBatch:
    """One q = 3 engine batch whose members differ in lags and in rank, as a
    selection grid's q group runs them: each member must be its single fit."""

    # (p, s, q, r): r = 0, r = 1 and r = 2 (gamma from step 3), and r = q
    # with gamma fixed to I_q. An s = 1 order is fit at q = r, in its own group.
    CANDIDATES = [
        (3, 2, 3, 0), (2, 2, 3, 1), (3, 3, 3, 1), (3, 2, 3, 2), (1, 2, 3, 3), (2, 2, 3, 3),
    ]
    BROKEN = (3, 3, 3, 1)                              # started from a repeated omega column

    @pytest.mark.parametrize("seed", [0, 4])
    def test_members_equal_their_single_fits(self, seed):
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=seed)
        t_start, opts = 3, FitOptions(max_iter=60)
        setups = [_grid_setup("ciaar", Y, orders, t_start) for orders in self.CANDIDATES]
        starts = [engine_start("ciaar", Y, **dict(zip("psqr", orders)))
                  for orders in self.CANDIDATES]
        broken = self.CANDIDATES.index(self.BROKEN)
        gamma0, omega0, d0 = starts[broken]
        starts[broken] = (gamma0, np.hstack([omega0[:, :1]] * 3), d0)
        shapes = [(len(s.diag_X), len(s.index_X), s.r) for s in setups]
        nd, na, r = (max(col) for col in zip(*shapes))
        assert (nd, na, r) == (2, 2, 3)
        grams = _padded_grams([setup.grams() for setup in setups], shapes, (nd, na, r))
        states = _sa_engine(grams, 3, r, starts, opts, shapes)
        for orders, setup, start, state in zip(self.CANDIDATES, setups, starts, states):
            p, s, q, r_i = orders
            try:
                ref = next(fit_many("ciaar", [Y], opts, t_start, start, p=p, s=s, q=q, r=r_i))
            except SingularDesignError as exc:
                # the step-1 design is exactly singular: the padded member
                # raises its single fit's error, word for word
                assert orders == self.BROKEN
                assert type(state) is SingularDesignError
                assert str(state) == str(exc)
                continue
            got = _finished([state], setup, [None], [setup.means])[0]
            assert got.params.gamma.shape == (q, r_i) and got.params.alpha0.shape == (6, r_i)
            assert got.iterations == ref.iterations
            assert got.diagnostics["stop"] == ref.diagnostics["stop"]
            assert abs(got.loglik - ref.loglik) <= 1e-8 * abs(ref.loglik)
            assert np.abs(got.params.gamma - ref.params.gamma).max(initial=0.0) <= 1e-6
        assert sum(isinstance(state, Exception) for state in states) == 1


class TestPaddedGroup:
    """The q = 2 group of a c12 grid: (p, s, 2, r) for every p, s <= p and
    r, which differ in their diagonal and index lags and in rank."""

    @staticmethod
    def _group():
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=0)
        setups = [_grid_setup("ciaar", Y, orders, 3)
                  for orders in _candidate_grid("ciaar", (1, 3), (1, 3), 6)]
        group = [setup for setup in setups if setup.q == 2]
        shapes = [setup.shape for setup in group]
        assert tuple(map(max, zip(*shapes))) == (2, 2, 2)
        assert {(0, 0, 2), (1, 1, 0), (2, 1, 1)} <= set(shapes)
        return group, shapes

    def test_padded_grams_hold_own_grams_and_identity_blocks(self):
        group, shapes = self._group()
        n, size = 6, (2, 2, 2)
        M = _padded_grams([setup.grams() for setup in group], shapes, size).M
        assert M.shape == (len(group), 6 * n, 6 * n)   # target, 2 diagonal, EC, 2 index
        for got, setup, (nd_i, na_i, _) in zip(M, group, shapes):
            # the member's own data in engine order, at their slots
            X = np.hstack([setup.Z, *setup.diag_X, setup.ec_X, *setup.index_X])
            slots = [0, *range(1, 1 + nd_i), 3, *range(4, 4 + na_i)]
            cols = np.concatenate([np.arange(b * n, (b + 1) * n) for b in slots])
            own = got[np.ix_(cols, cols)]
            assert np.abs(own - X.T @ X).max() <= 1e-12 * np.abs(X.T @ X).max()
            lacking = [b for b in range(6) if b not in slots]
            assert len(lacking) == (2 - nd_i) + (2 - na_i)
            for b in lacking:
                rows = slice(b * n, (b + 1) * n)
                expected = np.zeros((n, 6 * n))
                expected[:, rows] = np.eye(n)
                assert np.array_equal(got[rows], expected)
                assert np.array_equal(got[:, rows], expected.T)

    def test_lacking_lags_and_rank_stay_exactly_zero(self, monkeypatch):
        # every sweep's step-1 solution (alpha0, alphas) and step-2 diagonals
        # are exactly zero at the lags a member lacks and, for alpha0, beyond
        # its rank
        group, shapes = self._group()
        each_member, phases = estimators._each_member, []

        def recorded(phase, st, members, finals):
            out, st, members = each_member(phase, st, members, finals)
            phases.append((list(members), out))
            return out, st, members

        monkeypatch.setattr(estimators, "_each_member", recorded)
        starts = [estimators._default_starts([s.start()], s.r, s.shape[0], s.q)[0] for s in group]
        states = estimators._engine_states(2, shapes, [s.grams() for s in group], starts,
                                           FitOptions(max_iter=120))
        assert all(isinstance(state, dict) for state in states)
        lacking = {                                    # a member's part of each output held at zero
            "alphas": lambda a, nd_i, na_i, r_i: a[na_i:],
            "alpha0": lambda a, nd_i, na_i, r_i: a[:, r_i:],
            "ds": lambda a, nd_i, na_i, r_i: a[nd_i:],
        }
        checked = dict.fromkeys(lacking, 0)
        for members, out in phases:
            for key in lacking.keys() & out.keys():
                for row, m in enumerate(members):
                    block = lacking[key](out[key][row], *shapes[m])
                    if block.size:
                        assert not block.any(), (key, shapes[m])
                        checked[key] += 1
        assert min(checked.values()) > 100
        assert max(state["iterations"] for state in states) > 10


class TestSigmaGuard:
    @staticmethod
    def _lagged_copy(seed):
        """A CIAAR panel with y4_t = y1_{t-1}, which a (2, 2, 2, 1) fit can
        track until its residual covariance is singular."""
        values = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=seed).values
        values = values.copy()
        values[1:, 3] = values[:-1, 0]
        return Panel(values)

    @pytest.mark.parametrize("seed", [4, 5, 6, 9])
    def test_fit_that_drives_sigma_singular_fails(self, seed):
        # without the guard these fits end with sigma's eigenvalue ratio at
        # most 1.7e-16 and log-likelihoods near +1700, above every healthy fit
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            fit_ciaar(self._lagged_copy(seed), 2, 2, 2, 1, opts=FitOptions(max_iter=500))

    def test_well_conditioned_fit_records_its_sigma_conditioning(self):
        fit = fit_ciaar(self._lagged_copy(0), 2, 2, 2, 1, opts=FitOptions(max_iter=500))
        w = np.linalg.eigvalsh(fit.params.sigma)
        assert 1e-7 < fit.diagnostics["sigma_cond"] < 1e-5
        assert abs(fit.diagnostics["sigma_cond"] - w[0] / w[-1]) <= 1e-6 * w[0] / w[-1]
        healthy = fit_mai(simulate_mai(random_mai_params(4, 1, 2, seed=0), 400, seed=1), 2, 1)
        assert 0.0 < healthy.diagnostics["sigma_cond"] <= 1.0


class TestJohansen:
    def test_known_cointegration_vector(self):
        rng = np.random.default_rng(0)
        T = 2000
        w = np.cumsum(rng.standard_normal(T))
        Y = Panel(np.column_stack([w + 0.3 * rng.standard_normal(T),
                                   w + 0.3 * rng.standard_normal(T)]))
        fit = johansen_rrr(Y, 2, 1)
        b = fit.params.beta.ravel()
        b = b / b[0]
        assert np.abs(b - np.array([1.0, -1.0])).max() < 0.05

    def test_r0_equals_var_in_differences(self):
        rng = np.random.default_rng(1)
        Y = Panel(np.cumsum(rng.standard_normal((500, 3)), axis=0))
        fit = johansen_rrr(Y, 2, 0)
        d = np.diff(Y.values, axis=0)
        d = d - d.mean(axis=0)
        resid = d[1:] - d[:-1] @ lstsq(d[:-1], d[1:])
        assert abs(fit.loglik - gaussian_loglik(resid.T @ resid / len(resid), len(resid))) < 1e-8

    def test_eigenvalues_in_unit_interval(self):
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=2)
        Y = simulate_ciaar(params, 800, seed=3)
        fit = johansen_rrr(Y, 2, 2)
        vals = fit.diagnostics["eigenvalues"]
        assert np.all(vals >= -1e-12) and np.all(vals < 1.0)

    def test_rank_bounds(self):
        Y = Panel(np.cumsum(np.random.default_rng(4).standard_normal((100, 3)), axis=0))
        with pytest.raises(ValueError):
            johansen_rrr(Y, 1, 3)

    def test_collinear_levels_raise_the_reduced_rank_error(self):
        # a level column equal to column 0 plus 1e-9 noise leaves the level
        # moments concentrated on the lags singular to rounding: under some
        # BLAS kernels their Cholesky fails, under others its squared pivots
        # fall below the SIGMA_RTOL margin
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 400, seed=1)
        values = Y.values.copy()
        values[:, 5] = values[:, 0] + 1e-9 * np.random.default_rng(0).standard_normal(len(values))
        for fit in (lambda: johansen_rrr(Panel(values), 2, 1),
                    lambda: fit_ciaar(Panel(values), 2, 2, 2, 1)):
            with pytest.raises(np.linalg.LinAlgError) as info:
                fit()
            assert str(info.value) == RRR_ERROR

    def test_lagged_copy_fails_the_sigma_guard(self):
        # y4_t = y1_{t-1}: dy4_t is a lagged difference, so the residual
        # covariance is singular (eigenvalue ratio -1.3e-16), where the fit
        # used to report a log-likelihood of +5997.48
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=2)
        values = Y.values.copy()
        values[1:, 3] = values[:-1, 0]
        with pytest.raises(np.linalg.LinAlgError) as info:
            johansen_rrr(Panel(values), 2, 1)
        assert str(info.value) == SIGMA_ERROR
        fit = johansen_rrr(Y, 2, 1)
        w = np.linalg.eigvalsh(fit.params.sigma)
        assert fit.diagnostics["sigma_cond"] == w[0] / w[-1]
        assert 1e-3 < fit.diagnostics["sigma_cond"] < 1.0


class TestInitCiaar:
    def test_exact_low_rank_recovery(self):
        # a stack that is exactly rank q must be matched to machine precision
        rng = np.random.default_rng(0)
        n, q = 6, 2
        omega = np.linalg.qr(rng.standard_normal((n, q)))[0]
        A = rng.standard_normal((3 * n, q))
        omega0, bar = _svd_truncate(A @ omega.T, q)
        assert subspace_distance(omega0, omega) < 1e-10
        assert np.abs(bar - A @ omega.T).max() < 1e-10

    def test_largest_singular_values_selected_by_value(self):
        rng = np.random.default_rng(1)
        U = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        sv = np.array([0.1, 3.0, 0.2, 2.0, 0.5])
        stack = (U[:, :5] * sv) @ V.T
        omega0, _ = _svd_truncate(stack, 2)
        assert subspace_distance(omega0, V[:, [1, 3]]) < 1e-10

    def test_init_close_to_final_estimate(self):
        params = random_ciaar_params(
            6, 2, 1, 2, 2, seed=0, diag_orthogonal_loadings=True
        )
        ratios = []
        for seed in range(6):
            Y = simulate_ciaar(params, 4000, seed=seed)
            omega0 = fit_ciaar(Y, 2, 2, 2, 1, opts=FitOptions(max_iter=1)).params.omega
            fit = fit_ciaar(Y, 2, 2, 2, 1)
            d0 = subspace_distance(omega0, params.omega)
            d1 = subspace_distance(fit.params.omega, params.omega)
            ratios.append(d0 / d1)
        assert np.median(ratios) < 2.0

    def test_d0_lengths(self):
        params = random_ciaar_params(5, 2, 1, 3, 2, seed=1)
        Y = simulate_ciaar(params, 600, seed=2)
        gamma0, omega0, d0 = engine_start("ciaar", Y, p=3, s=2, q=2, r=1)
        assert len(d0) == 2 and omega0.shape == (5, 2) and gamma0.shape == (2, 1)


class TestDrvar:
    def test_iid_noise_has_no_dominant_directions(self):
        # ratio of largest eigenvalue to trace stays near the iid benchmark
        rng = np.random.default_rng(0)
        benchmark = []
        for rep in range(20):
            Y = Panel(rng.standard_normal((1000, 10)))
            _, vals = fit_drvar_omega(Y, 2, 2)
            benchmark.append(vals[0] / vals.sum())
        expected = np.mean(benchmark)
        Y = Panel(np.random.default_rng(99).standard_normal((1000, 10)))
        _, vals = fit_drvar_omega(Y, 2, 2)
        assert vals[0] / vals.sum() < 3.0 * expected

    def test_recovery(self):
        dp = random_drvar_params(20, 2, 1, seed=100)
        dists = []
        for seed in range(10):
            Y = simulate_drvar(dp, 1000, seed=seed)
            om, _ = fit_drvar_omega(Y, 2, 2)
            dists.append(subspace_distance(om, dp.omega))
        assert np.median(dists) < 0.2

    def test_noiseless_exact_coefficients(self):
        # five periods of a noiseless index orbit under an eighth turn: the
        # panel's mean is zero, so demeaning leaves the exact recursion
        omega = random_drvar_params(6, 2, 1, seed=1, radius=0.9).omega
        c = np.cos(np.pi / 4)
        phi = np.array([[c, -c], [c, c]])
        f = [np.array([1.0, 0.5])]
        for _ in range(39):
            f.append(phi @ f[-1])
        fit = fit_drvar_coeffs(Panel(np.array(f) @ omega.T), omega, 1)
        assert np.abs(fit.params.phis[0] - phi).max() < 1e-8

    def test_gls_equals_ols_under_spherical_noise(self):
        from indexvar.params import DRVARParams

        dp0 = random_drvar_params(8, 2, 1, seed=3)
        dp = DRVARParams(dp0.omega, dp0.phis, np.eye(8))
        Y = simulate_drvar(dp, 4000, seed=4)
        om, _ = fit_drvar_omega(Y, 2, 2)
        a = fit_drvar_coeffs(Y, om, 1, method="ols")
        b = fit_drvar_coeffs(Y, om, 1, method="gls")
        assert np.abs(a.params.phis[0] - b.params.phis[0]).max() < 1e-2

    def test_phi_within_monte_carlo_bands(self):
        dp = random_drvar_params(8, 2, 1, seed=5)
        ests = []
        for seed in range(30):
            Y = simulate_drvar(dp, 1000, seed=seed)
            fit = fit_drvar_coeffs(Y, dp.omega, 1)
            ests.append(fit.params.phis[0])
        ests = np.stack(ests)
        se = ests.std(axis=0)
        inside = np.abs(ests - dp.phis[0]) <= 3.0 * se
        assert inside.mean() >= 0.95

    @pytest.mark.parametrize("method", ["ols", "gls"])
    def test_duplicate_column_fails_the_sigma_guard(self, method):
        # a copy of column 0 leaves sigma's eigenvalue ratio at 1.8e-16, where
        # both methods used to report a log-likelihood of 3305.27
        Y = simulate_drvar(random_drvar_params(5, 2, 1, seed=0), 400, seed=1)
        Z = Panel(np.hstack([Y.values, Y.values[:, :1]]))
        omega, _ = fit_drvar_omega(Z, 2, 2)
        with pytest.raises(np.linalg.LinAlgError) as info:
            fit_drvar_coeffs(Z, omega, 1, method)
        assert str(info.value) == SIGMA_ERROR

    @pytest.mark.parametrize("method", ["ols", "gls"])
    def test_fit_records_its_sigma_conditioning(self, method):
        Y = simulate_drvar(random_drvar_params(5, 2, 1, seed=0), 400, seed=1)
        fit = fit_drvar_coeffs(Y, fit_drvar_omega(Y, 2, 2)[0], 1, method)
        w = np.linalg.eigvalsh(fit.params.sigma)
        assert fit.diagnostics == {"sigma_cond": w[0] / w[-1]}
        assert 1e-3 < fit.diagnostics["sigma_cond"] < 1.0

    @pytest.mark.parametrize("norm", [1.0 + 4e-6, 1.0 - 4e-6])
    def test_omega_off_unit_length_is_refused(self, norm):
        # the params' rule, with no relative slack, before any regression
        Y = simulate_drvar(random_drvar_params(5, 2, 1, seed=0), 400, seed=1)
        omega = fit_drvar_omega(Y, 2, 2)[0] * norm
        with pytest.raises(ValueError, match="^omega columns must be orthonormal$"):
            fit_drvar_coeffs(Y, omega, 1)

    def test_orthonormality_required(self):
        Y = Panel(np.random.default_rng(6).standard_normal((200, 4)))
        with pytest.raises(ValueError, match="orthonormal"):
            fit_drvar_coeffs(Y, np.ones((4, 2)), 1)

    @pytest.mark.parametrize("first, p0", [(10, 9), (10, 15), (0, 19)])
    def test_p0_is_checked_against_the_usable_rows(self, first, p0):
        # autocovariances run over the panel's rows, here those from row first
        # on, so p0 must fit in those
        Y = Panel(np.random.default_rng(7).standard_normal((20, 4))[first:])
        with pytest.raises(ValueError, match=f"^p0={p0} too large for usable sample length "
                                             f"{20 - first}$"):
            fit_drvar_omega(Y, p0, 2)
        fit_drvar_omega(Y, 20 - first - 2, 2)


class TestMonotonicityFuzz:
    @pytest.mark.filterwarnings("ignore:.*parsimonious.*")
    def test_random_configurations_stay_monotone(self):
        # misspecified orders and skewed heteroskedastic shocks included:
        # every conditional-maximization sweep must still be monotone and
        # the reported sigma must match the residuals and the log-likelihood
        rng = np.random.default_rng(99)
        opts = FitOptions(max_iter=150)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(3, 7))
            dist = "lognormal_garch" if trial % 5 == 0 else "gaussian"
            T = int(rng.integers(150, 600))
            try:
                if trial % 3 == 0:
                    dgp = random_mai_params(n, int(rng.integers(1, n)), 1, seed=trial)
                    Y = simulate_mai(dgp, T, seed=trial, dist=dist)
                    fit = fit_mai(Y, int(rng.integers(1, 3)), int(rng.integers(1, n + 1)), opts=opts)
                elif trial % 3 == 1:
                    q = int(rng.integers(1, n))
                    r = int(rng.integers(0, q + 1))
                    dgp = random_ciaar_params(n, q, r, 2, 2, seed=trial)
                    Y = simulate_ciaar(dgp, T, seed=trial, dist=dist)
                    qf = int(rng.integers(1, n))
                    fit = fit_ciaar(Y, 2, 2, qf, int(rng.integers(0, qf + 1)), opts=opts)
                else:
                    dgp = random_iaar_params(n, int(rng.integers(1, n)), 2, 1, seed=trial)
                    Y = simulate_iaar(dgp, T, seed=trial, dist=dist)
                    fit = fit_iaar(Y, 2, int(rng.integers(0, 3)) % 3, int(rng.integers(0, n)), opts=opts)
            except ValueError:
                continue
            checked += 1
            assert monotone(fit.loglik_trace), f"trial {trial}"
            gap = np.abs(fit.params.sigma - fit.residuals.T @ fit.residuals / fit.T_eff).max()
            assert gap < 1e-10, f"trial {trial}"
            # one sigma: the reported covariance is the reported likelihood's
            assert fit.loglik == gaussian_loglik(fit.params.sigma, fit.T_eff), f"trial {trial}"
        assert checked >= 25


class TestRotationIdentifiability:
    def test_rotated_omega_same_fit(self):
        params = random_mai_params(5, 2, 1, seed=0)
        Y = simulate_mai(params, 800, seed=1)
        fit = fit_mai(Y, 1, 2)
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        from indexvar.params import MAIParams

        rotated = MAIParams(
            fit.params.omega @ Q, [a @ Q for a in fit.params.alphas], fit.params.sigma
        )
        assert subspace_distance(rotated.omega, fit.params.omega) < 1e-12
        for a, b in zip(rotated.var_coeffs(), fit.params.var_coeffs()):
            assert np.abs(a - b).max() < 1e-12
