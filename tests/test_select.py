import csv
import math
import warnings
from functools import partial

import numpy as np
import pytest

from indexvar import estimators, params
from indexvar.estimators import _fit_grid
from indexvar.select import ICRow, ICTable, grid_search, info_criterion
from indexvar.simulate import (
    random_ciaar_params,
    random_iaar_params,
    random_mai_params,
    simulate_ciaar,
    simulate_iaar,
    simulate_mai,
)
from indexvar.estimators import RRR_ERROR, SIGMA_ERROR, STEP_ERROR, FitOptions, fit_many
from indexvar.tscore import Panel


class TestInfoCriterion:
    def test_zero_params_all_equal(self):
        for kind in ("aic", "bic", "hq"):
            assert info_criterion(-10.0, 0, 100, kind) == 20.0

    def test_hq_penalty_at_e_to_the_e(self):
        T = math.e ** math.e
        per_param = info_criterion(0.0, 1, T, "hq") - info_criterion(0.0, 0, T, "hq")
        assert abs(per_param - 2.0) < 1e-12

    def test_bic_beats_aic_beyond_e_squared(self):
        T = 9
        aic_pen = info_criterion(0.0, 1, T, "aic")
        bic_pen = info_criterion(0.0, 1, T, "bic")
        assert bic_pen > aic_pen

    def test_errors(self):
        with pytest.raises(ValueError):
            info_criterion(0.0, 10, 5, "aic")
        with pytest.raises(ValueError):
            info_criterion(0.0, 0, 2, "hq")
        with pytest.raises(ValueError):
            info_criterion(0.0, 0, 100, "xyz")


def _row(model, p, s, q, r, ll, k, T=500, converged=True, failed=False):
    return ICRow(
        model, p, s, q, r, ll, k,
        info_criterion(ll, k, T, "aic"),
        info_criterion(ll, k, T, "bic"),
        info_criterion(ll, k, T, "hq"),
        converged, failed=failed,
    )


class TestICTable:
    def test_tie_breaks_by_param_count_then_orders(self):
        # integer log-likelihoods make the aic tie exact
        rows = [
            _row("mai", 2, 2, 1, 0, -100.0, 8),
            _row("mai", 1, 1, 2, 0, -104.0, 4),
        ]
        assert rows[0].aic == rows[1].aic
        table = ICTable(rows, 500, kind="aic")
        assert table.best["aic"] == 1  # fewer parameters wins

        # equal counts fall back to lexicographic orders
        rows = [
            _row("mai", 2, 2, 1, 0, -100.0, 8),
            _row("mai", 1, 1, 2, 0, -100.0, 8),
        ]
        table = ICTable(rows, 500, kind="aic")
        assert table.best["aic"] == 1

    def test_failed_rows_excluded(self):
        rows = [
            _row("mai", 1, 1, 1, 0, np.nan, 0, failed=True),
            _row("mai", 2, 2, 1, 0, -100.0, 8),
        ]
        rows[0].aic = rows[0].bic = rows[0].hq = np.nan
        table = ICTable(rows, 500, kind="aic")
        assert table.best["aic"] == 1

    def test_all_failed_raises(self):
        rows = [_row("mai", 1, 1, 1, 0, np.nan, 0, failed=True)]
        with pytest.raises(ValueError, match="failed"):
            ICTable(rows, 500)

    def test_argmin_invariant_to_affine_transform(self):
        rng = np.random.default_rng(0)
        lls = -1000.0 + 50.0 * rng.standard_normal(8)
        rows = [_row("mai", 1, 1, 1 + i % 3, 0, ll, 5 + i) for i, ll in enumerate(lls)]
        table = ICTable(rows, 500)
        vals = np.array([r.hq for r in rows])
        transformed = 3.5 * vals + 11.0
        assert int(np.argmin(transformed)) == table.best["hq"]


class TestGridSearch:
    def test_single_point_grid(self):
        params = random_mai_params(4, 1, 1, seed=0)
        Y = simulate_mai(params, 400, seed=1)
        table = grid_search(Y, (1, 1), (1, 1), model="mai")
        assert len(table.rows) == 1
        assert table.best_row("hq").orders() == (1, 1, 1, 0)

    def test_recomputed_criteria_match_table(self):
        params = random_mai_params(4, 2, 1, seed=2)
        Y = simulate_mai(params, 400, seed=3)
        table = grid_search(Y, (1, 2), (1, 2), model="mai")
        for row in table.rows:
            for kind in ("aic", "bic", "hq"):
                assert getattr(row, kind) == info_criterion(
                    row.loglik, row.n_params, table.T_eff, kind
                )

    def test_determinism(self):
        params = random_ciaar_params(4, 1, 1, 2, 2, seed=4)
        Y = simulate_ciaar(params, 400, seed=5)
        t1 = grid_search(Y, (1, 2), (1, 2))
        t2 = grid_search(Y, (1, 2), (1, 2))
        for a, b in zip(t1.rows, t2.rows):
            assert a == b

    def test_enlarging_grid_never_worsens_best(self):
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=6)
        Y = simulate_ciaar(params, 500, seed=7)
        small = grid_search(Y, (1, 1), (1, 2))
        large = grid_search(Y, (1, 2), (1, 2))
        assert large.best_row("hq").hq <= small.best_row("hq").hq + 1e-9

    def test_param_counts_match_formulas(self):
        params = random_ciaar_params(5, 2, 1, 2, 2, seed=8)
        Y = simulate_ciaar(params, 500, seed=9)
        n = 5
        table = grid_search(Y, (1, 2), (1, 2))
        for row in table.rows:
            p, s, q, r = row.orders()
            expected = (
                n * (p - 1) + n * q * (s - 1) + n * q - q * q + n * r + r * (q - r)
            )
            assert row.n_params == expected

    def test_csv_round_trip(self, tmp_path):
        params = random_mai_params(4, 1, 1, seed=10)
        Y = simulate_mai(params, 300, seed=11)
        table = grid_search(Y, (1, 2), (1, 1), model="mai")
        path = tmp_path / "ic.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(table.rows)
        cells = lines[1].split(",")
        assert float(cells[5]) == table.rows[0].loglik

    def test_csv_quotes_errors_and_marks_the_best_row(self, tmp_path):
        rows = [
            _row("mai", 1, 1, 1, 0, np.nan, 0, failed=True),
            _row("mai", 2, 2, 1, 0, -100.0, 8),
        ]
        rows[0].error = "ValueError: effective sample 9 too small, say"
        rows[1].stop = "tol"
        path = tmp_path / "ic.csv"
        ICTable(rows, 500, kind="aic").to_csv(path)
        with open(path, newline="") as fh:
            header, *cells = list(csv.reader(fh))
        assert header[-4:] == ["failed", "stop", "error", "best"]
        assert [c[-3:] for c in cells] == [["", rows[0].error, "0"], ["tol", "", "1"]]

    def test_csv_writes_conditioning_cells_only_for_fitted_rows(self, tmp_path):
        rows = [
            _row("mai", 1, 1, 1, 0, np.nan, 0, failed=True),
            _row("mai", 2, 2, 1, 0, -100.0, 8),
        ]
        rows[0].sigma_cond = 0.5                              # ignored: the row failed
        rows[1].sigma_cond = 1 / 3
        path = tmp_path / "ic.csv"
        ICTable(rows, 500, kind="aic").to_csv(path)
        with open(path, newline="") as fh:
            header, *cells = list(csv.reader(fh))
        at = header.index("sigma_cond")
        assert header[at - 1: at + 2] == ["hq", "sigma_cond", "converged"]
        assert [c[at] for c in cells] == ["", "0.33333333333333331"]

    def test_grid_fits_in_one_process(self):
        params = random_ciaar_params(4, 1, 1, 2, 2, seed=4)
        Y = simulate_ciaar(params, 400, seed=5)
        with pytest.raises(ValueError, match="each pruned by the ones before"):
            grid_search(Y, (1, 2), (1, 2), workers=2)
        default = grid_search(Y, (1, 2), (1, 2))
        serial = grid_search(Y, (1, 2), (1, 2), workers=1)
        assert serial.rows == default.rows
        assert serial.best == default.best

    def test_failed_candidates_recorded(self):
        # a sample too short for the largest candidates fails but is tabulated
        params = random_ciaar_params(4, 1, 1, 1, 1, seed=12)
        Y = simulate_ciaar(params, 18, seed=13)
        table = grid_search(Y, (1, 6), (1, 3), opts=FitOptions(max_iter=20), prune=False)
        assert any(r.failed for r in table.rows)
        assert not table.rows[table.best["hq"]].failed

    def test_singular_sigma_candidates_fail_and_lose(self):
        # y4_t = y1_{t-1} has no innovation, so a candidate that fits y4
        # exactly has a singular residual covariance; (2,2,2,0) and (2,2,3,0)
        # do, and they must fail rather than win on an unbounded likelihood
        Y = simulate_mai(random_mai_params(4, 1, 2, seed=0), 600, seed=1)
        values = Y.values.copy()
        values[1:, 3] = values[:-1, 0]
        table = grid_search(Panel(values, list(Y.names)), (1, 2), (1, 3), model="mai")
        rows = {row.orders(): row for row in table.rows}
        for orders in ((2, 2, 2, 0), (2, 2, 3, 0)):
            assert rows[orders].failed
            assert rows[orders].error == f"LinAlgError: {SIGMA_ERROR}"
        assert not table.best_row("hq").failed
        assert not any(row.stop == "pruned" for row in table.rows)

    @staticmethod
    def lagged_copy():
        """A CIAAR panel with y4_t = y1_{t-1}."""
        Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=2)
        values = Y.values.copy()
        values[1:, 3] = values[:-1, 0]
        return Panel(values)

    def test_bound_of_a_lag_count_that_fits_a_series_exactly_is_empty(self):
        # the unrestricted VAR(2) and VAR(3) in levels fit y4 exactly, so
        # their residual covariances fail the sigma guard and no bound is
        # formed (finite 1537.48 and 1623.0 before the guard); nothing prunes
        table = grid_search(self.lagged_copy(), (1, 3), (1, 3), model="iaar")
        for row in table.rows:
            assert math.isnan(row.loglik_bound) == (row.p > 1), row.orders()
        best = table.best_row("hq")
        assert (best.orders(), best.stop) == ((2, 2, 3, 0), "max_iter")

    def test_ciaar_bounds_on_the_lagged_copy_are_kept(self):
        # in differences the copy leaves a demeaning offset, so every bound
        # that could be formed before the guard still is, and the pick holds
        table = grid_search(self.lagged_copy(), (1, 3), (1, 3))
        for row in table.rows:
            assert math.isnan(row.loglik_bound) == (row.p > 2), row.orders()
        best = table.best_row("hq")
        assert (best.orders(), best.stop) == ((2, 1, 3, 3), "tol")

    RANK_DEFICIENT = "SingularDesignError: design is rank deficient: "

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("model", ["ciaar", "iaar", "mai"])
    def test_lagged_copy_grids_keep_their_failed_rows(self, model, prune):
        # each family's failed rows and their errors, pruned or not; the
        # rank-deficient texts end in kernel-dependent singular values, and
        # (2, 2, 3, 1) fails at the step-2 Cholesky under OpenBLAS's SkylakeX
        # kernel, at the sigma guard under Haswell, SandyBridge and Nehalem
        table = grid_search(self.lagged_copy(), (1, 3), (1, 3), model=model, prune=prune)
        failed = {row.orders(): row.error for row in table.rows if row.failed}
        if model == "ciaar":
            assert failed.pop((2, 2, 3, 1)) in {f"LinAlgError: {e}" for e in (STEP_ERROR, SIGMA_ERROR)}
            expected = {orders: f"LinAlgError: {SIGMA_ERROR}" for orders in (
                (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 3, 2), (2, 2, 3, 3))}
            expected.update({(3, s, q, r): f"LinAlgError: {RRR_ERROR}"
                             for s in (1, 2, 3) for q in (1, 2, 3) for r in range(q + 1)})
            assert failed == expected and len(failed) == 32
            assert sum(row.stop == "pruned" for row in table.rows) == (5 if prune else 0)
        else:                                          # the p = 3 lag designs are singular
            s_range = (3,) if model == "mai" else (1, 2, 3)
            assert sorted(failed) == [(3, s, q, 0) for s in s_range for q in (1, 2, 3)]
            assert all(error.startswith(self.RANK_DEFICIENT) for error in failed.values())
        best = table.best_row("hq")
        if model != "mai":
            assert (best.orders(), best.stop) == {
                "ciaar": ((2, 1, 3, 3), "tol"), "iaar": ((2, 2, 3, 0), "max_iter")}[model]


class TestGridStates:
    """A grid tabulates its fits' engine states: it builds no FitResult and
    no params container, and judges each distinct fit's sigma once."""

    @staticmethod
    def c12_grid(Y, prune):
        return grid_search(Y, (1, 3), (1, 3), kind="hq", opts=FitOptions(max_iter=120),
                           prune=prune)

    @staticmethod
    def c12_panel():
        return simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=0)

    @pytest.mark.parametrize("prune", [True, False])
    def test_a_grid_builds_no_fit_result_or_params_container(self, prune, monkeypatch):
        Y, built = self.c12_panel(), []                # simulating builds the DGP's params
        for cls in (estimators.FitResult, *(getattr(params, name) for name in params.__all__)):
            def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
                built.append(name)
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        table = self.c12_grid(Y, prune)
        assert built == []
        assert not table.best_row("hq").failed

    @pytest.mark.parametrize("prune", [True, False])
    def test_sigma_is_judged_once_per_distinct_fit(self, prune, monkeypatch):
        judged, states = [], []
        guard, engine = estimators.sigma_cond, estimators._sa_engine

        def counted(sigma):
            judged.append(sigma)
            return guard(sigma)

        def recorded(*args):
            finals = engine(*args)
            states.extend(final for final in finals if isinstance(final, dict))
            return finals

        monkeypatch.setattr(estimators, "sigma_cond", counted)
        monkeypatch.setattr(estimators, "_sa_engine", recorded)
        table = self.c12_grid(self.c12_panel(), prune)
        # the s = 1 rows share their equivalents' fits, so there are more rows than states
        fitted = [row for row in table.rows if row.stop != "pruned" and not row.failed]
        assert len(fitted) > len(states)
        # one stacked call per engine run, whose rows are its states' sigmas in order
        assert all(stack.ndim == 3 for stack in judged)
        assert np.array_equal(np.concatenate(judged), [state["sigma"] for state in states])

    def test_an_iaar_grid_raises_no_parsimony_warning(self):
        # (2, 2, 3, 0) and (3, 3, 3, 0) are not more parsimonious than the
        # unrestricted VAR, which IAARParams warns of; a grid builds none
        Y = simulate_iaar(random_iaar_params(4, 1, 2, 2, seed=0), 400, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = grid_search(Y, (1, 3), (1, 3), model="iaar", prune=False)
        rows = {row.orders(): row for row in table.rows}
        assert not any(rows[orders].failed for orders in ((2, 2, 3, 0), (3, 3, 3, 0)))


class TestPruning:
    """grid_search skips the candidates its log-likelihood bound certifies
    to lose under the table's criterion (tests/test_prune_property.py holds
    the property against prune=False)."""

    @staticmethod
    def panel():
        return simulate_ciaar(random_ciaar_params(4, 1, 1, 2, 2, seed=4), 400, seed=5)

    def test_pruned_rows_keep_their_counts_and_bounds(self):
        table = grid_search(self.panel(), (1, 2), (1, 3))
        pruned = [row for row in table.rows if row.stop == "pruned"]
        assert pruned
        n = 4
        for row in pruned:
            p, s, q, r = row.orders()
            expected = n * (p - 1) + n * q * (s - 1) + n * q - q * q + n * r + r * (q - r)
            assert row.n_params == expected
            assert not row.failed and not row.converged
            assert math.isnan(row.loglik) and math.isnan(row.hq)
            assert info_criterion(row.loglik_bound, row.n_params, table.T_eff, "hq") > (
                table.best_row("hq").hq
            )

    def test_a_grid_whose_fitted_rows_all_fail_prunes_nothing(self, monkeypatch):
        # T_eff = 7 is not larger than any candidate's count (7, 12, 15): each
        # fails before the engine, unbounded, and the search raises
        Y = simulate_mai(random_mai_params(4, 1, 1, seed=0), 8, seed=0)
        candidates = [(1, 1, q, 0) for q in (1, 2, 3)]
        hq = partial(info_criterion, kind="hq")
        outcomes = list(_fit_grid("mai", Y, candidates, FitOptions(), 1, criterion=hq))
        assert [f"{type(fit).__name__}: {fit}" for fit, _, _ in outcomes] == [
            f"ValueError: effective sample 7 not larger than {k} parameters" for k in (7, 12, 15)]
        assert all(np.isnan(bound) for _, _, bound in outcomes)
        with pytest.raises(ValueError, match="all candidate fits failed"):
            grid_search(Y, (1, 1), (1, 3), model="mai")
        # every candidate is fitted and bounded but every sigma fails the
        # guard as the grid judges it: with no incumbent to prune against,
        # nothing is pruned, and the search raises
        Y = simulate_mai(random_mai_params(4, 1, 1, seed=0), 60, seed=0)

        def refused(sigma):
            raise np.linalg.LinAlgError(SIGMA_ERROR)

        monkeypatch.setattr(estimators, "sigma_cond", refused)
        outcomes = list(_fit_grid("mai", Y, candidates, FitOptions(), 1, criterion=hq))
        assert all(np.isfinite(bound) for _, _, bound in outcomes)
        assert not any(fit is None for fit, _, _ in outcomes)
        assert all(str(fit) == SIGMA_ERROR for fit, _, _ in outcomes)
        with pytest.raises(ValueError, match="all candidate fits failed"):
            grid_search(Y, (1, 1), (1, 3), model="mai")

    def test_an_incumbent_whose_sigma_fails_the_guard_is_passed_over(self, monkeypatch):
        # the best fit's sigma fails the guard as the grid judges it: its row
        # fails carrying that error, and the search prunes against the next
        # best fit, so it picks what prune=False picks
        Y = self.panel()
        target = grid_search(Y, (1, 2), (1, 3), prune=False).best_row("hq").orders()
        assert target[2] < 3 and target[1] > 1         # fitted before the last q group, alone
        sigma = next(fit_many("ciaar", [Y], t_start=2, **dict(zip("psqr", target)))).params.sigma
        guard = estimators.sigma_cond

        def judged(s):                                 # a stack: refused if it holds the target
            if (np.abs(s - sigma).max((-2, -1)) <= 1e-9 * np.abs(sigma).max()).any():
                raise np.linalg.LinAlgError(SIGMA_ERROR)
            return guard(s)

        monkeypatch.setattr(estimators, "sigma_cond", judged)
        pruned, full = (grid_search(Y, (1, 2), (1, 3), prune=prune) for prune in (True, False))
        for table in (pruned, full):
            failed = [row for row in table.rows if row.failed]
            assert [row.orders() for row in failed] == [target]
            assert failed[0].error == f"LinAlgError: {SIGMA_ERROR}"
        assert any(row.stop == "pruned" for row in pruned.rows)
        assert pruned.best == full.best
        assert pruned.best_row("hq").orders() != target

    def test_a_candidate_whose_setup_raises_is_a_failed_row(self, monkeypatch):
        # T = 20: the p = 3 setups need 18 regressors from 17 rows and raise,
        # and three more candidates have at least 17 parameters, so no
        # criterion: all fail before the engine, pruned or not, and leave the
        # pick alone
        Y = simulate_mai(random_mai_params(6, 2, 1, seed=0), 20, seed=1)
        seen, engine = [], estimators._sa_engine

        def recorded(q, shapes, grams, starts, opts, size=None):
            seen.append((q, shapes))
            return engine(q, shapes, grams, starts, opts, size)

        monkeypatch.setattr(estimators, "_sa_engine", recorded)
        for prune in (True, False):
            seen.clear()
            table = grid_search(Y, (1, 3), (1, 2), model="mai", prune=prune)
            rows = {row.orders(): row for row in table.rows}
            for orders in ((3, 3, 1, 0), (3, 3, 2, 0)):
                assert rows[orders].failed
                assert rows[orders].error == "ValueError: effective sample 17 too small for 18 regressors"
            for orders, k in (((1, 1, 2, 0), 20), ((2, 2, 1, 0), 17), ((2, 2, 2, 0), 32)):
                assert rows[orders].failed and math.isnan(rows[orders].loglik)
                assert rows[orders].error == f"ValueError: effective sample 17 not larger than {k} parameters"
            assert table.best == {"hq": 0}
            assert seen == [(1, [(0, 1, 0)])]              # only (1, 1, 1, 0) reaches the engine

    def test_best_row_of_another_criterion_raises(self):
        table = grid_search(self.panel(), (1, 2), (1, 2), kind="bic")
        assert table.best_row("bic") is table.rows[table.best["bic"]]
        for other in ("aic", "hq"):
            with pytest.raises(ValueError, match="'bic'"):
                table.best_row(other)
