"""A CIAAR or VECIM order with no index lag (s <= 1) is fit as its identified
equivalent.

With no index lag the likelihood sees omega only through beta = omega gamma,
which it identifies up to an r x r rotation (Johansen 1995). So (p, 1, q, r)
runs as (p, 1, r, r) and every (p, 1, q, 0) as the one diagonal fit of its p.
Checked on the c12 panels (seeds 0-4, criterion c12's grid and sweep cap) and
on a T = 25 panel whose fits used to be set by rounding:
- the grid rows, the single fits, the fit_many members and the fits of the
  panel perturbed by (1 + 1e-15 z) agree to 1e-12 relative;
- rows sharing one engine fit carry its log-likelihood bit for bit, and
  each its own parameter count;
- the reported omega is orthonormal, its first r columns are beta, and gamma
  is [I_r; 0].
"""

import numpy as np
import pytest

from indexvar import estimators
from indexvar.estimators import FitOptions, fit_ciaar, fit_many, fit_vecim
from indexvar.select import grid_search
from indexvar.simulate import random_ciaar_params, simulate_ciaar
from indexvar.tscore import Panel

C12 = random_ciaar_params(6, 2, 1, 2, 2, seed=0)
CASES = [(C12, 1000, seed, (1, 3), (1, 3), 120) for seed in range(5)]
CASES.append((random_ciaar_params(4, 1, 1, 1, 1, seed=12), 25, 3, (1, 2), (1, 3), 20))


def rel(a, b):
    return abs(a - b) / abs(b)


def assert_identified_params(fit, q, r):
    """omega orthonormal with beta as its first r columns, gamma = [I_r; 0]."""
    omega, gamma = fit.params.omega, fit.params.gamma
    assert omega.shape == (fit.params.n, q)
    assert np.abs(omega.T @ omega - np.eye(q)).max() <= 1e-12
    assert np.array_equal(gamma, np.eye(q, r))
    assert np.array_equal(fit.params.beta, omega[:, :r])


@pytest.mark.parametrize("dgp, T, seed, p_range, q_range, max_iter", CASES)
def test_s1_rows_single_batched_and_perturbed_fits_agree(dgp, T, seed, p_range, q_range, max_iter):
    opts = FitOptions(max_iter=max_iter)
    Y = simulate_ciaar(dgp, T, seed=seed)
    z = np.random.default_rng(seed).standard_normal(Y.values.shape)
    perturbed = Panel(Y.values * (1.0 + 1e-15 * z))
    table = grid_search(Y, p_range, q_range, opts=opts, prune=False)
    t_start = p_range[1]
    shared = {}                                        # (p, r) -> the rows of one engine fit
    for row in table.rows:
        p, s, q, r = row.orders()
        if s != 1:
            continue
        assert not row.failed
        shared.setdefault((p, r), []).append(row)
        orders = dict(p=p, s=s, q=q, r=r)
        single = next(fit_many("ciaar", [Y], opts=opts, t_start=t_start, **orders))
        moved = next(fit_many("ciaar", [perturbed], opts=opts, t_start=t_start, **orders))
        batch = list(fit_many("ciaar", [Y, perturbed], opts=opts, t_start=t_start, **orders))
        assert row.n_params == single.n_params
        assert row.stop == single.diagnostics["stop"] == moved.diagnostics["stop"]
        assert row.converged == single.converged
        assert rel(row.loglik, single.loglik) <= 1e-12
        assert rel(moved.loglik, single.loglik) <= 1e-12
        assert rel(batch[0].loglik, single.loglik) <= 1e-12
        assert rel(batch[1].loglik, moved.loglik) <= 1e-12
        for fit in (single, moved, *batch):
            assert_identified_params(fit, q, r)
    for rows in shared.values():
        assert len({row.loglik for row in rows}) == 1
        assert len({row.stop for row in rows}) == 1
        n = Y.n
        for row in rows:
            p, _, q, r = row.orders()
            assert row.n_params == n * (p - 1) + n * q - q * q + n * r + r * (q - r)


def engine_members(monkeypatch) -> list:
    """The shapes of the members every engine group runs, as they run."""
    members, engine = [], estimators._sa_engine
    monkeypatch.setattr(
        estimators, "_sa_engine",
        lambda grams, q, r, starts, opts, shapes: members.extend(shapes) or engine(
            grams, q, r, starts, opts, shapes),
    )
    return members


def test_c12_grid_runs_each_distinct_model_once(monkeypatch):
    # 54 candidates; the 27 with s = 1 are 12 distinct fits: (p, 1, r, r) for
    # r = 1..3 and the diagonal fit (p, 1, 0, 0), for each p
    members = engine_members(monkeypatch)
    Y = simulate_ciaar(C12, 1000, seed=0)
    table = grid_search(Y, (1, 3), (1, 3), opts=FitOptions(max_iter=120), prune=False)
    assert len(table.rows) == 54 and len(members) == 39


def test_default_c12_grid_prunes_engine_members(monkeypatch):
    members = engine_members(monkeypatch)
    Y = simulate_ciaar(C12, 1000, seed=0)
    table = grid_search(Y, (1, 3), (1, 3), opts=FitOptions(max_iter=120))
    assert len(table.rows) == 54 and len(members) < 39


def test_vecim_with_one_lag_follows_the_same_rule():
    Y = simulate_ciaar(C12, 1000, seed=0)
    for q in (1, 2, 3):
        for r in range(q + 1):
            fit = fit_vecim(Y, 1, q, r)
            equivalent = fit_vecim(Y, 1, max(r, 1), r) if r < q else fit
            assert fit.loglik == equivalent.loglik
            assert fit.loglik == fit_ciaar(Y, 0, 1, q, r).loglik
            assert fit.n_params == Y.n * q - q * q + Y.n * r + r * (q - r)
            assert_identified_params(fit, q, r)
