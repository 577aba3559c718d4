import warnings

import numpy as np
import pytest

from indexvar import tscore
from indexvar.simulate import random_ciaar_params, random_mai_params
from indexvar.tscore import (
    RANK_RTOL,
    SIGMA_ERROR,
    SIGMA_RTOL,
    Panel,
    SingularDesignError,
    autocov,
    check_rank,
    companion_matrix,
    companion_spectral_radius,
    full_rank,
    gaussian_loglik,
    har_aggregates,
    orth_complement,
    pd_factor,
    read_panel_csv,
    sigma_cond,
    subspace_distance,
    var_recursion,
)


class TestGaussianLoglik:
    def test_singular_sigma_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gaussian_loglik(np.diag([1.0, 0.0]), 50)

    def test_indefinite_sigma_with_a_positive_determinant_raises(self):
        # two negative eigenvalues: det > 0, so a determinant's sign passes it
        indefinite = np.diag([-1.0, -2.0, 3.0])
        assert np.linalg.det(indefinite) > 0
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gaussian_loglik(indefinite, 100)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gaussian_loglik(np.stack([np.eye(3), indefinite]), 100)

    def test_sigma_below_the_guard_margin_raises_the_guard_error(self):
        # the Cholesky completes; the eigenvalue ratio 1e-13 is below SIGMA_RTOL
        sigma = np.diag([1.0, 1.0, 1e-13])
        np.linalg.cholesky(sigma)
        with pytest.raises(np.linalg.LinAlgError) as info:
            gaussian_loglik(sigma, 100)
        assert str(info.value) == SIGMA_ERROR

    def test_stack_gives_each_sigma_its_value(self):
        sigmas = np.stack([np.eye(3), np.diag([0.5, 2.0, 4.0])])
        got = gaussian_loglik(sigmas, 100)
        assert got.shape == (2,)
        for value, sigma in zip(got, sigmas):
            assert value == gaussian_loglik(sigma, 100)
            ref = -50.0 * (3 * np.log(2 * np.pi) + np.linalg.slogdet(sigma)[1] + 3)
            assert abs(value - ref) <= 1e-14 * abs(ref)


class TestAutocov:
    def test_lag0_symmetric_psd(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((200, 4))
        C = autocov(Y, 0)
        assert np.abs(C - C.T).max() < 1e-12
        assert np.linalg.eigvalsh(C).min() > -1e-12

    def test_iid_noise_small_lag1(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((10000, 3))
        C = autocov(Y, 1)
        assert np.abs(C).max() < 3.0 / np.sqrt(10000)

    def test_constant_series_zero(self):
        Y = np.ones((50, 2)) * 7.0
        for j in (0, 1, 3):
            assert np.abs(autocov(Y, j)).max() < 1e-12

    def test_transpose_identity(self):
        # Sigma_y(j)' equals the cross-covariance with lag -j computed directly
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((300, 3))
        j = 2
        Z = Y - Y.mean(axis=0)
        direct = Z[: 300 - j].T @ Z[j:] / 300
        assert np.abs(autocov(Y, j).T - direct).max() < 1e-12

    def test_bounds(self):
        Y = np.random.default_rng(5).standard_normal((10, 2))
        with pytest.raises(ValueError):
            autocov(Y, 9)
        with pytest.raises(ValueError):
            autocov(Y, -1)


class TestCompanion:
    def test_scalar_cases(self):
        assert abs(companion_spectral_radius([0.5 * np.eye(3)]) - 0.5) < 1e-12
        assert companion_spectral_radius([np.zeros((2, 2))]) < 1e-12

    def test_matches_direct_eigen_oracle(self):
        rng = np.random.default_rng(6)
        phis = [0.3 * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal((3, 3))]
        comp = np.zeros((6, 6))
        comp[:3, :3] = phis[0]
        comp[:3, 3:] = phis[1]
        comp[3:, :3] = np.eye(3)
        expected = np.max(np.abs(np.linalg.eigvals(comp)))
        assert abs(companion_spectral_radius(phis) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            companion_matrix([np.eye(2), np.eye(3)])


class TestHarAggregates:
    def test_constant_series(self):
        Yd = Panel(np.full((60, 2), 3.5), ["a", "b"])
        Yw, Ym = har_aggregates(Yd)
        assert np.abs(Yw.values - 3.5).max() < 1e-12
        assert np.abs(Ym.values - 3.5).max() < 1e-12
        assert (Yw.names, Ym.names) == (["a_w", "b_w"], ["a_m", "b_m"])

    def test_partial_windows(self):
        # row t averages the last min(t + 1, window) rows: monthly rows 0-20
        # (weekly rows 0-3) are means of the rows so far, the later rows
        # full 5- and 22-row means
        vals = np.random.default_rng(3).standard_normal((40, 2)).cumsum(axis=0)
        Yw, Ym = har_aggregates(Panel(vals))
        for got, window in ((Yw.values, 5), (Ym.values, 22)):
            expected = [vals[max(t + 1 - window, 0): t + 1].mean(axis=0) for t in range(40)]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_ramp_mean(self):
        Yd = Panel(np.arange(1.0, 31.0).reshape(30, 1))
        Yw, _ = har_aggregates(Yd)
        # at t=5 (index 4) the 5-day mean of 1..5 is 3
        assert abs(Yw.values[4, 0] - 3.0) < 1e-12

    def test_exact_weights(self):
        # impulse response of the averaging: weights exactly 1/5 and 1/22
        vals = np.zeros((80, 1))
        vals[40, 0] = 1.0
        Yw, Ym = har_aggregates(Panel(vals))
        assert np.allclose(Yw.values[40:45, 0], 0.2, atol=1e-15)
        assert np.allclose(Ym.values[40:62, 0], 1.0 / 22.0, atol=1e-15)
        assert abs(Yw.values[45, 0]) < 1e-15
        assert abs(Ym.values[62, 0]) < 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 3))
        B = rng.standard_normal((50, 3))
        a, b = 2.5, -1.25
        w1, m1 = har_aggregates(Panel(A))
        w2, m2 = har_aggregates(Panel(B))
        wc, mc = har_aggregates(Panel(a * A + b * B))
        assert np.abs(wc.values - a * w1.values - b * w2.values).max() < 1e-12
        assert np.abs(mc.values - a * m1.values - b * m2.values).max() < 1e-12

    def test_short_sample(self):
        with pytest.raises(ValueError, match="22"):
            har_aggregates(Panel(np.zeros((21, 1)) + 1.0))


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1.5,2\n-0.25,1e-3\n")
        panel = read_panel_csv(path)
        assert panel.names == ["a", "b"]
        assert panel.values.tolist() == [[1.5, 2.0], [-0.25, 0.001]]

    def test_parse_error_names_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match=r"row 3, column 'b'"):
            read_panel_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_panel_csv(path)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Panel(np.array([[1.0, np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^panel has no rows$"):
            Panel(np.zeros((0, 3)))

    # What the reader accepts, with the values it reads, and what it rejects,
    # with its message. Several are files numpy's C reader reads differently
    # on its own (a quoted cell, a blank line, a "#" line, "1_0", \x1c).
    ACCEPTED = {
        "quoted cells": ('a,b\n"1.5",2\n', [[1.5, 2.0]]),
        "underscore": ("a,b\n1_0,2\n", [[10.0, 2.0]]),
        "crlf": ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        "spaces around cells": ("a,b\n 1.5 ,\t2 \n", [[1.5, 2.0]]),
        "one data row, no final newline": ("a,b\n1,2", [[1.0, 2.0]]),
        "one column": ("a\n1\n2\n", [[1.0], [2.0]]),
        "non-ASCII digit": ("a,b\n١,2\n", [[1.0, 2.0]]),
    }
    REJECTED = {
        "blank line in the middle": ("a,b\n1,2\n\n3,4\n", "row 3 has 0 cells, expected 2"),
        "blank line at the end": ("a,b\n1,2\n\n", "row 3 has 0 cells, expected 2"),
        "comment line": ("a,b\n#x\n1,2\n", "row 2 has 1 cells, expected 2"),
        "comment after a cell": ("a,b\n1,2#x\n", "row 2, column 'b': cannot parse '2#x'"),
        "nan": ("a,b\nnan,2\n", "panel contains non-finite values"),
        "inf": ("a,b\n1,-inf\n", "panel contains non-finite values"),
        "short row": ("a,b\n1,2\n3\n", "row 3 has 1 cells, expected 2"),
        "every row short": ("a,b\n1\n3\n", "row 2 has 1 cells, expected 2"),
        "header only": ("a,b\n", "no data rows"),
        "empty file": ("", "empty file"),
        "unparsable cell": ("a,b\n1,2\n3,x4\n", "row 3, column 'b': cannot parse 'x4'"),
        "empty cell": ("a,b\n1,\n", "row 2, column 'b': cannot parse ''"),
        "whitespace line": ("a\n1\n  \n", "row 3, column 'a': cannot parse '  '"),
        "separator control": ("a,b\n1\x1c,2\n", "row 2, column 'a': cannot parse '1\\x1c'"),
        "quote spanning the header": ('"a\n1\n', "no data rows"),
    }

    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepts(self, tmp_path, case):
        text, values = self.ACCEPTED[case]
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        panel = read_panel_csv(path)
        assert panel.values.tolist() == values
        assert panel.names == ["a", "b"][:len(values[0])]

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejects(self, tmp_path, case):
        text, message = self.REJECTED[case]
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            read_panel_csv(path)
        prefix = "" if message.startswith("panel") else f"{path}: "
        assert str(info.value) == prefix + message

    @pytest.mark.parametrize("header, row_by_row", [("a,b", False), ('"a","b"', True)])
    def test_a_byte_order_mark_is_not_read_into_the_names(self, tmp_path, monkeypatch, header,
                                                          row_by_row):
        # spreadsheets write UTF-8 with a leading byte-order mark; a quoted header takes the
        # row-by-row reader, an unquoted one numpy's
        read_rows, rows_read = tscore._read_rows, []
        monkeypatch.setattr(tscore, "_read_rows", lambda path: rows_read.append(path) or read_rows(path))
        panels = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "p.csv"
            path.write_bytes(mark + f"{header}\n1.5,2\n-0.25,1e-3\n".encode())
            panels.append(read_panel_csv(path))
        assert len(rows_read) == 2 * row_by_row
        for panel in panels:
            assert panel.names == ["a", "b"]
            assert panel.values.tolist() == [[1.5, 2.0], [-0.25, 0.001]]


class TestSubspace:
    def test_rotation_invariant(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 2))
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        assert subspace_distance(A, A @ Q) < 1e-12

    def test_orthogonal_spans(self):
        A = np.eye(4)[:, :2]
        B = np.eye(4)[:, 2:]
        assert abs(subspace_distance(A, B) - 1.0) < 1e-12

    def test_orth_complement(self):
        rng = np.random.default_rng(10)
        om = rng.standard_normal((5, 2))
        perp = orth_complement(om)
        assert perp.shape == (5, 3)
        assert np.abs(perp.T @ om).max() < 1e-12
        assert np.abs(perp.T @ perp - np.eye(3)).max() < 1e-12


class TestSigmaGuard:
    def test_ratio_and_margin(self):
        assert sigma_cond(np.diag([4.0, 1.0, 2.0])) == 0.25
        assert sigma_cond(np.diag([1.0, 2e-12])) == 2e-12
        for sigma in (np.diag([1.0, SIGMA_RTOL]), np.diag([1.0, -1.0]), np.diag([1.0, 0.0])):
            with pytest.raises(np.linalg.LinAlgError) as info:
                sigma_cond(sigma)
            assert str(info.value) == SIGMA_ERROR

    def test_zero_covariance_raises_without_dividing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                sigma_cond(np.zeros((3, 3)))

    def test_stack_gives_each_ratio_and_fails_as_a_whole(self):
        sigmas = np.stack([np.eye(2), np.diag([1.0, 0.5])])
        assert np.array_equal(sigma_cond(sigmas), [1.0, 0.5])
        with pytest.raises(np.linalg.LinAlgError):
            sigma_cond(np.stack([np.eye(2), np.diag([1.0, 0.0])]))

    def test_pd_factor_gives_the_factor_or_the_callers_message(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(pd_factor(A, "unused"), np.linalg.cholesky(A))
        with pytest.raises(np.linalg.LinAlgError) as info:
            pd_factor(np.stack([A, np.diag([1.0, -1.0])]), "the caller's message")
        assert str(info.value) == "the caller's message"


def _sv(A) -> np.ndarray:
    return np.linalg.svd(np.asarray(A, float), compute_uv=False)


class TestRankRule:
    def test_empty_matrix_passes(self):
        for shape in ((0, 0), (3, 0), (0, 3)):
            assert full_rank(_sv(np.zeros(shape)))
        check_rank(np.zeros((4, 0)))

    def test_zero_matrix_fails_without_dividing(self):
        # 0 > RANK_RTOL * 0 is false, where the ratio test read 0 < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not full_rank(_sv(np.zeros((3, 2))))
            with pytest.raises(SingularDesignError, match="rank deficient"):
                check_rank(np.zeros((5, 2)))
            with pytest.raises(ValueError, match="omega is not full column rank"):
                orth_complement(np.zeros((3, 1)))

    def test_ratio_at_the_tolerance_fails(self):
        assert np.array_equal(_sv(np.diag([1.0, RANK_RTOL])), [1.0, RANK_RTOL])
        assert not full_rank(_sv(np.diag([1.0, RANK_RTOL])))
        assert full_rank(_sv(np.diag([1.0, 2.0 * RANK_RTOL])))
        with pytest.raises(SingularDesignError, match="1e-10"):
            check_rank(np.diag([1.0, RANK_RTOL]))

    def test_singular_design_names_tolerance(self):
        with pytest.raises(SingularDesignError, match="1e-10"):
            check_rank(np.ones((10, 2)))

    def test_orth_complement_takes_the_rule(self):
        # a least over largest singular value of 1e-11 passed the old 1e-12 test
        with pytest.raises(ValueError, match="omega is not full column rank"):
            orth_complement(np.diag([1.0, 1e-11, 0.0])[:, :2])
        assert orth_complement(np.diag([1.0, 1e-9, 0.0])[:, :2]).shape == (3, 1)


class TestMisshapenRecursionInputs:
    """A misshapen init or drive is refused by name, not by a numpy broadcast,
    matmul or reshape message."""

    @staticmethod
    def form():
        return random_mai_params(4, 2, 2, seed=0).state_form()   # p = 2, n = 4

    def test_run_refuses_init_with_more_rows_than_lags(self):
        with pytest.raises(ValueError, match=r"init has shape \(3, 4\), expected at most 2 rows"):
            self.form().run(np.zeros((5, 4)), np.zeros((3, 4)))

    def test_run_refuses_init_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match=r"init has shape \(2, 3\).*drive's, \(4,\)"):
            self.form().run(np.zeros((5, 4)), np.zeros((2, 3)))

    def test_run_refuses_drive_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match=r"drive rows have shape \(3,\), expected \(4,\)"):
            self.form().run(np.zeros((5, 3)))

    def test_var_recursion_refuses_init_with_more_rows_than_lags(self):
        with pytest.raises(ValueError, match=r"init has shape \(3, 2\), expected \(1, 2\)"):
            var_recursion([0.5 * np.eye(2)], np.zeros((3, 2)), np.zeros((5, 2)))

    def test_var_recursion_refuses_drive_rows_the_coefficients_cannot_advance(self):
        with pytest.raises(ValueError, match=r"drive rows have shape \(3,\), which Phi_1 \(2, 2\)"):
            var_recursion([0.5 * np.eye(2)], np.zeros((1, 3)), np.zeros((5, 3)))

    def test_run_refuses_a_level_unlike_drive_rows(self):
        form = random_ciaar_params(6, 2, 1, 2, 2, seed=0).state_form()   # integrated, n = 6
        with pytest.raises(ValueError, match=r"level has shape \(3,\), expected \(6,\) like drive's rows"):
            form.run(np.zeros((5, 6)), None, np.zeros(3))

    def test_well_shaped_inputs_still_run(self):
        y = self.form().run(np.ones((5, 4, 2)), np.ones((1, 4, 2)))
        assert y.shape == (5, 4, 2)
        assert var_recursion([0.5 * np.eye(2)], np.ones((1, 2)), np.zeros((3, 2)))[-1].tolist() == [0.125] * 2
