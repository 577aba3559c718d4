"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The simulation-oracle criteria use fixed reference DGPs drawn by the
deterministic generators in indexvar.simulate, so the whole suite is
reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from indexvar.cli import main as cli_main
from indexvar.decomp import cc_projectors, common_uncommon, perm_trans, structural_transitory_irf, wold
from indexvar.estimators import (
    FitOptions,
    fit_ciaar,
    fit_drvar_omega,
    fit_iaar,
    fit_mai,
    fit_vecim,
    fit_vhari,
)
from indexvar.params import IAARParams, MAIParams
from indexvar.select import grid_search
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
from indexvar.tscore import Panel, har_aggregates, orth_complement, subspace_distance
from rowlevel import ciaar_inputs, diag_selection_matrix, row_level_sa, sym_inv_sqrt
from starts import engine_start


def report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def monotone_slack(trace):
    diffs = np.diff(trace)
    return float(diffs.min()) if diffs.size else 0.0


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mai_recovery():
    """100 MAI fits at T = 2000 plus the 100 medians input at T = 8000."""
    params = random_mai_params(6, 2, 1, seed=12)
    t0 = time.time()
    fits2 = []
    for seed in range(100):
        Y = simulate_mai(params, 2000, seed=seed)
        fits2.append((Y, fit_mai(Y, 1, 2)))
    d8 = []
    for seed in range(100):
        Y = simulate_mai(params, 8000, seed=seed)
        d8.append(subspace_distance(fit_mai(Y, 1, 2).params.omega, params.omega))
    return params, fits2, np.asarray(d8), time.time() - t0


@pytest.fixture(scope="module")
def vecim_reference():
    params = random_ciaar_params(6, 2, 1, 0, 3, seed=6)
    Y = simulate_ciaar(params, 4000, seed=10)
    return params, Y, fit_vecim(Y, 3, 2, 1)


def test_c01_switching_algorithm_monotonicity():
    t0 = time.time()
    worst = 0.0
    configs = []
    mp = random_mai_params(6, 2, 1, seed=0)
    configs.append(("mai", lambda s: fit_mai(simulate_mai(mp, 1000, seed=s), 1, 2)))
    vp = random_vhari_params(6, 2, seed=0)
    configs.append(("vhari", lambda s: fit_vhari(simulate_vhari(vp, 1000, seed=s), 2)))
    ip = random_iaar_params(6, 1, 2, 2, seed=0)
    configs.append(("iaar", lambda s: fit_iaar(simulate_iaar(ip, 1000, seed=s), 2, 2, 1)))
    for r in (0, 1, 2):
        cp = random_ciaar_params(6, 2, r, 2, 2, seed=r)
        configs.append(
            (f"ciaar_r{r}", lambda s, cp=cp, r=r: fit_ciaar(simulate_ciaar(cp, 1000, seed=s), 2, 2, 2, r))
        )
    for name, fitter in configs:
        for seed in range(50):
            fit = fitter(seed)
            slack = monotone_slack(fit.loglik_trace)
            worst = min(worst, slack)
            assert slack >= -1e-8, f"{name} seed {seed}: loglik decreased by {-slack:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(1, "SA monotonicity", f"6 fitters x 50 seeds, worst step {worst:.1e}, {elapsed:.0f}s")


def test_c02_mai_recovery(mai_recovery):
    params, fits2, d8, elapsed = mai_recovery
    d2 = np.asarray([subspace_distance(f.params.omega, params.omega) for _, f in fits2])
    assert np.median(d2) < 0.1
    assert np.median(d8) < np.median(d2)
    assert elapsed < 60.0
    report(
        2, "MAI recovery",
        f"median d(T=2000)={np.median(d2):.3f}, d(T=8000)={np.median(d8):.3f}, {elapsed:.0f}s",
    )


def test_c03_uncommon_component_whiteness(mai_recovery):
    _, fits2, _, _ = mai_recovery
    inside = 0
    total = 0
    for Y, fit in fits2:
        d = common_uncommon(fit, Y)
        T = d.iota.shape[0]
        band = 3.0 / np.sqrt(T)
        scale = np.outer(d.iota.std(0), d.iota.std(0))
        for lag in (1, 2, 3):
            ac = d.iota[lag:].T @ d.iota[:-lag] / T
            inside += int((np.abs(ac / scale) < band).sum())
            total += ac.size
        ev = np.linalg.eigvalsh(d.iota.T @ d.iota / T)
        assert np.abs(ev[:2]).max() < 1e-10 * ev[-1]
    frac = inside / total
    assert frac >= 0.95
    report(3, "Uncommon-component whiteness", f"{100 * frac:.1f}% of autocorrelations in band; rank n-q exact")


def test_c04_wold_structure(mai_recovery, vecim_reference):
    _, fits2, _, _ = mai_recovery
    worst = 0.0
    for _, fit in (fits2[0], fits2[1]):
        w = wold(fit, 200)
        perp = orth_complement(fit.params.omega)
        worst = max(worst, max(np.abs(w.psis[j] @ perp).max() for j in range(1, 201)))
    _, _, vfit = vecim_reference
    wv = wold(vfit, 200)
    perp = orth_complement(vfit.params.omega)
    worst = max(worst, max(np.abs(wv.psis[j] @ perp).max() for j in range(1, 201)))
    assert worst < 1e-10

    ip = random_iaar_params(6, 1, 1, 1, seed=3, diag=0.8)
    Yi = simulate_iaar(ip, 2000, seed=8)
    fi = fit_iaar(Yi, 1, 1, 1)
    wi = wold(fi, 200)
    viol = wi.violations.max()
    assert viol >= 1e-2
    report(4, "Wold structure", f"MAI/VECIM max |Psi_j w_perp| = {worst:.1e}; IAAR violation {viol:.2f}")


def test_c05_cc_projector_identity():
    rng = np.random.default_rng(0)
    worst_sum = worst_idem = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 8))
        q = int(rng.integers(1, n))
        A = rng.standard_normal((n, n))
        sigma = A @ A.T + n * np.eye(n)
        omega = rng.standard_normal((n, q))
        Pc, Pu = cc_projectors(sigma, omega)
        worst_sum = max(worst_sum, np.abs(Pc + Pu - np.eye(n)).max())
        worst_idem = max(worst_idem, np.abs(Pc @ Pc - Pc).max(), np.abs(Pu @ Pu - Pu).max())
    assert worst_sum < 1e-12 and worst_idem < 1e-12
    report(5, "CC identity", f"1000 draws, sum error {worst_sum:.1e}, idempotence {worst_idem:.1e}")


def test_c06_vhari_cascade():
    vp = random_vhari_params(6, 2, seed=5)
    Yd = simulate_vhari(vp, 1500, seed=7)
    # simulated identity
    f = Yd.values @ vp.omega
    worst = 0.0
    for t in range(21, Yd.T):
        worst = max(worst, np.abs((Yd.values[t - 4: t + 1].mean(0) @ vp.omega) - f[t - 4: t + 1].mean(0)).max())
        worst = max(worst, np.abs((Yd.values[t - 21: t + 1].mean(0) @ vp.omega) - f[t - 21: t + 1].mean(0)).max())
    # fitted identity
    fit = fit_vhari(Yd, 2)
    Z = Yd.values - fit.means["level"]
    Yw, Ym = har_aggregates(Panel(Z))
    fd = Z @ fit.params.omega
    fw = Yw.values @ fit.params.omega
    fm = Ym.values @ fit.params.omega
    for t in range(21, Yd.T):
        worst = max(worst, np.abs(fw[t] - fd[t - 4: t + 1].mean(0)).max())
        worst = max(worst, np.abs(fm[t] - fd[t - 21: t + 1].mean(0)).max())
    assert worst < 1e-12
    report(6, "VHARI cascade", f"1/5 and 1/22 aggregation identities hold to {worst:.1e}")


def test_c07_drvar_root_T_consistency():
    t0 = time.time()
    dp = random_drvar_params(20, 2, 1, seed=100)
    d1, d4 = [], []
    for seed in range(200):
        Y1 = simulate_drvar(dp, 1000, seed=seed)
        Y4 = simulate_drvar(dp, 4000, seed=seed)
        d1.append(subspace_distance(fit_drvar_omega(Y1, 2, 2)[0], dp.omega))
        d4.append(subspace_distance(fit_drvar_omega(Y4, 2, 2)[0], dp.omega))
    ratio = float(np.median(d4) / np.median(d1))
    elapsed = time.time() - t0
    assert 0.3 <= ratio <= 0.8
    assert elapsed < 180.0
    report(7, "DRVAR sqrt-T consistency", f"median ratio {ratio:.2f} over 200 seeds, {elapsed:.0f}s")


def test_c08_vec_kronecker_rewrite_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n, q, r, nd, na, Te = 5, 2, 1, 2, 1, 25
        params = random_ciaar_params(n, q, r, nd + 1, na + 1, seed=trial)
        Z = rng.standard_normal((Te, n))
        diag_X = [rng.standard_normal((Te, n)) for _ in range(nd)]
        index_X = [rng.standard_normal((Te, n)) for _ in range(na)]
        ec_X = rng.standard_normal((Te, n))
        S = sym_inv_sqrt(params.sigma)
        M = diag_selection_matrix(n)
        rows = []
        for t in range(Te):
            blocks = [np.kron(X[t][None, :], S) @ M for X in diag_X]
            ob = np.kron(ec_X[t][None, :], S @ params.alpha0 @ params.gamma.T)
            for X, a in zip(index_X, params.alphas):
                ob = ob + np.kron(X[t][None, :], S @ a)
            blocks.append(ob)
            rows.append(np.hstack(blocks))
        design = np.vstack(rows)
        theta = np.concatenate([np.concatenate(params.ds), params.omega.ravel()])
        step2 = (Z @ S).ravel() - design @ theta
        direct = Z.copy()
        for d, X in zip(params.ds, diag_X):
            direct -= X * d
        direct -= (ec_X @ params.beta) @ params.alpha0.T
        for a, X in zip(params.alphas, index_X):
            direct -= (X @ params.omega) @ a.T
        worst = max(worst, np.abs(step2.reshape(Te, n) - direct @ S).max())
    assert worst < 1e-12
    report(8, "Vec/Kronecker rewrite", f"100 draws, residual gap {worst:.1e} (binary-M extraction)")


def test_c09_nesting_identities():
    params = random_ciaar_params(6, 2, 0, 1, 3, seed=5)
    Y = simulate_ciaar(params, 1500, seed=9)
    gap_mai = abs(
        fit_ciaar(Y, 0, 3, 2, 0).loglik
        - fit_mai(Panel(np.diff(Y.values, axis=0)), 2, 2).loglik
    )
    assert gap_mai < 1e-6
    p2 = random_ciaar_params(6, 2, 1, 0, 3, seed=6)
    Y2 = simulate_ciaar(p2, 1500, seed=10)
    # the VECIM through the gram engine against the row-level Vec/Kronecker
    # loop, both from the Johansen/SVD start
    gamma0, omega0, _ = engine_start("ciaar", Y2, p=0, s=3, q=2, r=1)
    Z, _, index_X, ec_X = ciaar_inputs(Y2, 0, 2)
    ref = row_level_sa(Z, index_X, ec_X, omega0, gamma0, 1, FitOptions())
    gap_vecim = abs(fit_ciaar(Y2, 0, 3, 2, 1).loglik - ref["trace"][-1])
    assert gap_vecim < 1e-6
    report(9, "Nesting identities", f"MAI-in-differences gap {gap_mai:.1e}; VECIM gap {gap_vecim:.1e}")


def test_c10_permanent_transitory_structure(vecim_reference):
    _, Y, fit = vecim_reference
    d = perm_trans(fit, Y=Y)
    di = d.extras["diota"]
    T = di.shape[0]
    band = 3.0 / np.sqrt(T)
    ac = di[1:].T @ di[:-1] / T
    scale = np.outer(di.std(0), di.std(0))
    worst_ac = np.abs(ac / scale).max()
    assert worst_ac < band
    ev = np.linalg.eigvalsh(di.T @ di / T)
    assert np.abs(ev[:2]).max() < 1e-10 * ev[-1]
    worst_xc = max(
        np.abs(d.eps_pi.T @ d.eps_tau / T).max(),
        np.abs(d.eps_pi.T @ d.eps_iota / T).max(),
        np.abs(d.eps_tau.T @ d.eps_iota / T).max(),
    )
    assert worst_xc < 1e-10
    report(
        10, "Permanent/transitory structure",
        f"diota autocorr {worst_ac:.3f} < {band:.3f}; rank n-q exact; shock cross-corr {worst_xc:.1e}",
    )


def test_c11_structural_transitory_shocks(vecim_reference):
    _, Y, fit = vecim_reference
    irf = structural_transitory_irf(fit, Y, H=100)
    r = fit.params.r
    head = irf.theta_seq[0][:r, :]
    assert np.abs(np.triu(head, 1)).max() < 1e-14
    assert np.all(np.diag(head) > 0)
    T = irf.shocks.shape[0]
    cov = irf.shocks.T @ irf.shocks / T
    gap = np.abs(cov - np.eye(r)).max()
    assert gap < 1e-8
    report(11, "Structural transitory shocks", f"impact block lower triangular; Cov(u) - I = {gap:.1e}")


@pytest.fixture(scope="module")
def hq_selection():
    """HQ grid search over 100 seeds; sweeps capped for the time budget."""
    truth = (2, 2, 2, 1)
    params = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
    opts = FitOptions(max_iter=120)
    t0 = time.time()
    picks = []
    tables = []
    for seed in range(100):
        Y = simulate_ciaar(params, 1000, seed=seed)
        tab = grid_search(Y, (1, 3), (1, 3), kind="hq", opts=opts)
        picks.append(tab.best_row("hq").orders())
        if seed == 0:
            tables.append(tab)
    return truth, picks, tables[0], time.time() - t0


def test_c12_hq_selection(hq_selection):
    truth, picks, _, elapsed = hq_selection
    rate = np.mean([p == truth for p in picks])
    assert rate >= 0.60
    assert elapsed < 600.0
    report(12, "HQ selection", f"true quadruple picked {100 * rate:.0f}% of 100 seeds, {elapsed:.0f}s")


def test_c13_initialization_consistency():
    params = random_ciaar_params(6, 2, 1, 2, 2, seed=0, diag_orthogonal_loadings=True)
    medians = []
    for T in (500, 2000, 8000):
        ds = []
        for seed in range(100):
            Y = simulate_ciaar(params, T, seed=seed)
            # a one-sweep fit reports its start's omega (TestOneSweepFit)
            omega0 = fit_ciaar(Y, 2, 2, 2, 1, opts=FitOptions(max_iter=1)).params.omega
            ds.append(subspace_distance(omega0, params.omega))
        medians.append(float(np.median(ds)))
    assert medians[0] > medians[1] > medians[2]

    # exactly low-rank stack
    rng = np.random.default_rng(1)
    omega = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    from indexvar.estimators import _svd_truncate

    om0, _ = _svd_truncate(rng.standard_normal((18, 2)) @ omega.T, 2)
    exact = subspace_distance(om0, omega)
    assert exact < 1e-10
    report(
        13, "Initialization consistency",
        f"medians {medians[0]:.3f} > {medians[1]:.3f} > {medians[2]:.3f}; exact low-rank {exact:.1e}",
    )


def test_c14_parameter_count_formulas(hq_selection):
    _, _, table, _ = hq_selection
    n = 6
    for row in table.rows:
        p, s, q, r = row.orders()
        mai = MAIParams(
            np.eye(n)[:, :q], [np.zeros((n, q))] * p, np.eye(n)
        )
        assert mai.n_free_params() == n * q * (p + 1) - q * q
        iaar = IAARParams(
            [np.zeros(n)] * p, [np.zeros((n, q))] * s, np.eye(n)[:, :q], np.eye(n)
        )
        assert iaar.n_free_params() == n * (q * s + q + p) - q * q
        expected_ciaar = (
            n * (p - 1) + n * q * (s - 1) + n * q - q * q + n * r + r * (q - r)
        )
        assert row.n_params == expected_ciaar
    report(14, "Parameter counts", f"formulas exact on all {len(table.rows)} grid points")


def test_c15_cli_reproducibility(tmp_path):
    t0 = time.time()
    base = ["--model", "ciaar", "--p", "2", "--s", "2", "--q", "2", "--r", "1"]
    out = tmp_path / "run"
    assert cli_main(["simulate", "--n", "6", "--T", "1000", "--seed", "3", "--out", str(out)] + base) == 0
    panel = str(out / "panel.csv")
    assert cli_main(["fit", "--input", panel, "--out", str(out)] + base) == 0
    assert cli_main(["decompose", "--input", panel, "--out", str(out)] + base) == 0
    assert cli_main(["forecast", "--input", panel, "--horizon", "8", "--out", str(out)] + base) == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0

    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli_main(["simulate", "--n", "6", "--T", "1000", "--seed", "3", "--out", str(out)] + base) == 0
    assert cli_main(["fit", "--input", panel, "--out", str(out)] + base) == 0
    assert cli_main(["decompose", "--input", panel, "--out", str(out)] + base) == 0
    assert cli_main(["forecast", "--input", panel, "--horizon", "8", "--out", str(out)] + base) == 0
    rerun = {p.name: p.read_bytes() for p in out.iterdir()}
    assert snapshot.keys() == rerun.keys()
    for name in snapshot:
        assert snapshot[name] == rerun[name], f"{name} differs between identical runs"
    report(15, "CLI reproducibility", f"pipeline {elapsed:.1f}s; all report files byte-identical")
