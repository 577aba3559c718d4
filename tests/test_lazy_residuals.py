"""An engine fit forms its residuals only when they are read.

Past the engine run a fit keeps what its FitResult needs of its panel's
setup, and builds the setup again for its residual pass when .residuals is
first read (the last panel of a lockstep run keeps its setup). So each
window of fit_many builds its setup once, and the selection grid, rolling
forecasts and the fit and forecast subcommands, which never read residuals,
run no residual pass.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from indexvar import cli, estimators
from indexvar.forecast import rolling_evaluate
from indexvar.select import grid_search
from indexvar.simulate import random_ciaar_params, simulate_ciaar
from indexvar.tscore import Panel

ORDERS = dict(p=2, s=2, q=2, r=1)
FLAGS = ["--model", "ciaar", "--p", "2", "--s", "2", "--q", "2", "--r", "1"]


@pytest.fixture(scope="module")
def panel():
    return simulate_ciaar(random_ciaar_params(n=4, q=2, r=1, p=2, s=2, seed=0), 300, seed=1)


@pytest.fixture
def passes(monkeypatch):
    """Counts of residual passes and of CIAAR setup builds."""
    counts = {"setups": 0, "residuals": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapper

    setup = counted("setups", estimators._setup_ciaar)
    monkeypatch.setattr(estimators, "_setup_ciaar", setup)
    monkeypatch.setitem(estimators.MODELS, "ciaar",
                        estimators.MODELS["ciaar"]._replace(setup=setup))
    monkeypatch.setattr(estimators, "_residuals", counted("residuals", estimators._residuals))
    return counts


def test_fit_many_residuals_equal_each_window_single_fit(panel, passes):
    windows = [Panel(panel.values[i: i + 200], list(panel.names)) for i in range(4)]
    fits = list(estimators.fit_many("ciaar", windows, **ORDERS))
    assert passes == {"setups": 4, "residuals": 0}          # one build per window
    refs = [estimators.fit_ciaar(Y, **ORDERS) for Y in windows]
    for fit, ref in zip(fits, refs):
        assert np.array_equal(fit.residuals, ref.residuals)
    # a read is one pass; every window but the last builds its setup again
    assert passes == {"setups": 4 + 4 + 3, "residuals": 8}


def test_each_window_of_a_50_window_batch_forms_its_own_residuals(panel):
    # every member's deferred residuals hold its own setup and state, not
    # the batch's last ones
    windows = [Panel(panel.values[i: i + 200], list(panel.names)) for i in range(50)]
    fits = list(estimators.fit_many("ciaar", windows, **ORDERS))
    for i in (0, 25, 49):
        ref = estimators.fit_ciaar(windows[i], **ORDERS)
        assert np.array_equal(fits[i].residuals, ref.residuals)
    assert not np.array_equal(fits[0].residuals, fits[49].residuals)


def test_T_eff_and_n_params_leave_the_residuals_unformed(panel, passes):
    fit = estimators.fit_ciaar(panel, **ORDERS)
    assert fit.T_eff == panel.T - fit.t_start
    assert fit.n_params == fit.params.n_free_params()
    assert passes["residuals"] == 0
    assert fit.residuals.shape == (fit.T_eff, panel.n)
    assert fit.residuals is fit.residuals                  # formed once, then kept
    assert passes == {"setups": 1, "residuals": 1}         # from the held setup


def test_a_pickled_fit_carries_its_residuals(panel, passes):
    fit = estimators.fit_ciaar(panel, **ORDERS)
    back = pickle.loads(pickle.dumps(fit))
    assert passes["residuals"] == 1
    assert np.array_equal(back.residuals, fit.residuals) and back.T_eff == fit.T_eff
    assert np.array_equal(back.params.omega, fit.params.omega)


def test_replace_sets_the_residuals(panel, passes):
    fit = estimators.fit_ciaar(panel, **ORDERS)
    x = np.zeros((fit.T_eff - 1, panel.n))
    off = dataclasses.replace(fit, residuals=x)
    assert off.residuals is x and off.T_eff == fit.T_eff - 1
    assert off.params is fit.params and passes["residuals"] == 0


def test_grid_rolling_and_cli_form_residuals_only_to_decompose(panel, passes, tmp_path):
    for prune in (True, False):
        grid_search(panel, (1, 2), (1, 2), model="ciaar", prune=prune)
    rolling_evaluate(panel, lambda ws: estimators.fit_many("ciaar", ws, **ORDERS), 4, 5)
    path = tmp_path / "panel.csv"
    cli.write_panel_csv(panel, path)
    for step, extra in (("fit", []), ("forecast", ["--horizon", "4", "--origins", "5"])):
        argv = [step, "--input", str(path), *FLAGS, *extra, "--out", str(tmp_path / step)]
        assert cli.main(argv) == 0
    assert passes["residuals"] == 0
    built = passes["setups"]
    argv = ["decompose", "--input", str(path), *FLAGS, "--out", str(tmp_path / "decompose")]
    assert cli.main(argv) == 0
    assert passes == {"setups": built + 1, "residuals": 1}
