"""Rolling windows started from the full-sample fit (the CLI's forecast refits)."""

import numpy as np
import pytest

from indexvar import cli, estimators
from indexvar.cli import RunConfig, _fit_from_config
from indexvar.estimators import FitOptions, fit_ciaar, fit_mai, fit_many
from indexvar.forecast import rolling_evaluate
from indexvar.simulate import random_ciaar_params, random_mai_params, simulate_ciaar, simulate_mai
from indexvar.tscore import SIGMA_ERROR, Panel, read_panel_csv


def _windows(Y, width, count):
    return [Panel(Y.values[i: i + width], list(Y.names)) for i in range(count)]


def _assert_bit_equal(fit, ref):
    assert fit.iterations == ref.iterations
    assert fit.diagnostics["stop"] == ref.diagnostics["stop"]
    assert np.array_equal(fit.loglik_trace, ref.loglik_trace)
    for name, value in vars(ref.params).items():
        assert np.array_equal(np.asarray(getattr(fit.params, name)), np.asarray(value)), name


def _start(params):
    """The start the CLI hands every window: the full fit's (gamma, omega, D)."""
    return getattr(params, "gamma", None), params.omega, getattr(params, "ds", [])


@pytest.mark.parametrize("orders", [(2, 2, 2, 1), (2, 1, 3, 1)])
def test_warm_ciaar_window_equals_fit_ciaar_from_the_same_init(orders):
    # (2, 1, 3, 1) has no index lag: its start maps through beta0 = omega0 gamma0
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 260, seed=3)
    p, s, q, r = orders
    start = _start(fit_ciaar(Y, *orders).params)
    cfg = RunConfig(subcommand="forecast", out=".", model="ciaar", p=p, s=s, q=q, r=r)
    windows = _windows(Y, 220, 6)
    for window, fit in zip(windows, _fit_from_config(cfg, windows, start)):
        _assert_bit_equal(fit, next(fit_many("ciaar", [window], init=start, p=p, s=s, q=q, r=r)))


def test_warm_mai_window_equals_fit_mai_from_the_same_omega():
    Y = simulate_mai(random_mai_params(5, 2, 2, seed=1), 300, seed=4)
    start = _start(fit_mai(Y, 2, 2).params)
    cfg = RunConfig(subcommand="forecast", out=".", model="mai", p=2, q=2)
    windows = _windows(Y, 260, 6)
    for window, fit in zip(windows, _fit_from_config(cfg, windows, start)):
        _assert_bit_equal(fit, next(fit_many("mai", [window], init=start, p=2, q=2)))


def test_cli_forecast_refits_every_window_from_the_full_fit(tmp_path):
    Y = simulate_ciaar(random_ciaar_params(5, 2, 1, 2, 2, seed=0), 300, seed=8)
    cli.write_panel_csv(Y, tmp_path / "panel.csv")
    assert cli.main(["forecast", "--input", str(tmp_path / "panel.csv"), "--model", "ciaar",
                     "--p", "2", "--s", "2", "--q", "2", "--r", "1", "--horizon", "3",
                     "--origins", "5", "--out", str(tmp_path / "out")]) == 0
    Y = read_panel_csv(tmp_path / "panel.csv")
    start = _start(fit_ciaar(Y, 2, 2, 2, 1).params)
    table, _, _ = rolling_evaluate(
        Y, lambda ws: fit_many("ciaar", ws, init=start, p=2, s=2, q=2, r=1), 3, 5)
    table.to_csv(tmp_path / "ref.csv")
    written = (tmp_path / "out" / "msfe.csv").read_text()
    assert written.startswith((tmp_path / "ref.csv").read_text())


@pytest.mark.parametrize("n, orders, seed", [(4, (2, 2, 2, 1), 11), (5, (2, 2, 2, 1), 12),
                                             (6, (2, 1, 3, 1), 13)])
def test_warm_and_cold_windows_reach_the_same_maximum(n, orders, seed):
    # the start only sets where the climb begins: run to a tight stop, every
    # window's cold and warm fits that stop on tol end at one log-likelihood.
    # On seed 12 the cold start of six windows climbs a ridge (gamma's second
    # entry past 17) by ~5e-7 a sweep and reaches the cap 2-3 units below
    # where the warm fit stops.
    Y = simulate_ciaar(random_ciaar_params(n, 2, 1, 2, 2, seed=seed), 300, seed=seed)
    p, s, q, r = orders
    start = _start(fit_ciaar(Y, *orders).params)
    windows = _windows(Y, 280, 8)
    tight = FitOptions(tol=1e-13)
    cold = fit_many("ciaar", windows, opts=tight, p=p, s=s, q=q, r=r)
    warm = fit_many("ciaar", windows, opts=tight, init=start, p=p, s=s, q=q, r=r)
    for a, b in zip(cold, warm):
        assert b.diagnostics["stop"] == "tol"
        if a.diagnostics["stop"] == "tol":
            assert abs(a.loglik - b.loglik) <= 1e-9 * abs(a.loglik)
        else:
            assert b.loglik > a.loglik


@pytest.mark.parametrize("model, orders", [("vecim", (1, 2, 1)), ("ciaar", (1, 1, 2, 1))])
def test_no_lag_windows_take_their_default_starts(model, orders):
    # with no short-run lag the fit is Johansen's, whose default start is the
    # maximum: the CLI's 50 windows of 939 rows (T = 1000, h = 12) fitted
    # from the full-sample start are the cold windows, bit for bit
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 1000, seed=1)
    named = dict(zip(estimators.MODELS[model].orders, orders))
    start = _start(next(fit_many(model, [Y], **named)).params)
    cfg = RunConfig(subcommand="forecast", out=".", model=model, **named)
    windows = _windows(Y, 939, 50)
    cold = fit_many(model, windows, **named)
    for fit, ref in zip(_fit_from_config(cfg, windows, start), cold):
        _assert_bit_equal(fit, ref)


def test_a_start_on_too_few_rows_is_refused_when_fit_many_is_called():
    # CIAAR (2, 2, 2, 1) has r + (s - 1) q + (p - 1) = 4 engine regressors: a start on 6 rows
    # leaves 4 of them and is refused at the call, as a misshapen start is; on 7 rows the fits
    # run, and each ends on the sigma guard in its turn
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=1)
    init = (np.eye(2, 1), np.eye(6, 2), [np.zeros(6)])
    short = Panel(Y.values[:6])
    with pytest.raises(ValueError, match=r"^effective sample 4 too small for 4 regressors$"):
        fit_many("ciaar", [short, short], init=init, p=2, s=2, q=2, r=1)
    longer = Panel(Y.values[:7])
    fits = fit_many("ciaar", [longer, longer], init=init, p=2, s=2, q=2, r=1)
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError) as info:
            next(fits)
        assert str(info.value) == SIGMA_ERROR


def test_a_default_start_on_too_few_rows_after_t_start_fails_its_fit():
    # the default start is solved on Johansen's rows, which a late t_start leaves more of than
    # the engine's: the same rule refuses each fit in its turn
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=1)
    fits = fit_many("ciaar", [Y, Y], t_start=Y.T - 3, p=2, s=2, q=2, r=1)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^effective sample 3 too small for 4 regressors$"):
            next(fits)


@pytest.mark.parametrize("omega0, gamma0", [
    (np.eye(6)[:, :2], np.zeros((2, 1))),                               # a zero gamma0
    (np.repeat(np.eye(6)[:, :1], 2, axis=1), np.array([[1.0], [-1.0]])),  # in omega0's null space
])
def test_rank_deficient_beta0_is_refused_before_the_engine(monkeypatch, omega0, gamma0):
    # with no index lag a start maps to the basis of beta0 = omega0 gamma0 (_setup_ciaar), and a
    # rank-deficient beta0 has none: the one rank rule refuses it by name, before any engine work
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=1)
    monkeypatch.setattr(estimators, "_sa_engine", lambda *args: pytest.fail("the engine ran"))
    with pytest.raises(ValueError, match=r"^beta0 = omega0 gamma0 is not full rank$"):
        fit_many("ciaar", [Y], init=(gamma0, omega0, [np.zeros(6)]), p=2, s=1, q=2, r=1)


@pytest.fixture(scope="module")
def ciaar_start():
    """A CIAAR (2, 2, 2, 1) panel, n = 6, and the start of its full fit: gamma0 (2, 1),
    omega0 (6, 2) and one D0 vector of length 6."""
    Y = simulate_ciaar(random_ciaar_params(6, 2, 1, 2, 2, seed=0), 300, seed=1)
    return Y, _start(fit_ciaar(Y, 2, 2, 2, 1).params)


@pytest.mark.parametrize("orders, slot, value, message", [
    ((2, 2, 2, 1), 1, np.zeros((5, 2)), r"^omega0 has shape \(5, 2\), expected \(6, 2\)$"),
    ((2, 2, 2, 1), 0, np.zeros((3, 1)), r"^gamma0 has shape \(3, 1\), expected \(2, 1\)$"),
    ((2, 1, 2, 1), 0, np.zeros((3, 1)), r"^gamma0 has shape \(3, 1\), expected \(2, 1\)$"),
    ((2, 2, 2, 1), 2, [np.zeros(5)], r"^D0 holds vectors of lengths \[5\], expected 1 of length 6$"),
    ((2, 2, 2, 1), 2, [np.zeros(6)] * 2,
     r"^D0 holds vectors of lengths \[6, 6\], expected 1 of length 6$"),
    ((2, 2, 2, 1), 2, None, r"^D0 holds vectors of lengths None, expected 1 of length 6$"),
], ids=["omega0", "gamma0", "gamma0-through-beta0", "D0-length", "D0-count", "D0-none"])
def test_a_misshapen_start_is_refused_by_name(monkeypatch, ciaar_start, orders, slot, value,
                                               message):
    # fit_many checks a start once at the model's orders, before warm() maps it (s = 1 maps
    # it through beta0 = omega0 gamma0) and before any engine work, naming the argument
    # where numpy's reshape or broadcast message stood
    Y, start = ciaar_start
    init = list(start)
    init[slot] = value
    monkeypatch.setattr(estimators, "_sa_engine", lambda *args: pytest.fail("the engine ran"))
    with pytest.raises(ValueError, match=message):
        fit_many("ciaar", [Y], init=tuple(init), **dict(zip("psqr", orders)))


def test_a_start_that_reshapes_fits_as_its_arrays_do(ciaar_start):
    # nested lists, a flat gamma0 and omega0, and D0 as one array or as columns are the
    # start of the arrays they reshape to, bit for bit
    Y, (gamma0, omega0, d0) = ciaar_start
    orders = dict(p=2, s=2, q=2, r=1)
    ref = next(fit_many("ciaar", [Y], init=(gamma0, omega0, d0), **orders))
    for init in [(gamma0.tolist(), omega0.tolist(), [d.tolist() for d in d0]),
                 (gamma0.ravel(), omega0.ravel(), np.array(d0)),
                 (gamma0, omega0, [d[:, None] for d in d0])]:
        _assert_bit_equal(next(fit_many("ciaar", [Y], init=init, **orders)), ref)
