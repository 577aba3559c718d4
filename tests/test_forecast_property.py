"""Property tests: zero-dynamics forecasts are flat, and panel CSVs round-trip."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from indexvar.cli import write_panel_csv
from indexvar.estimators import FitResult
from indexvar.forecast import forecast
from indexvar.params import CIAARParams, DRVARParams, IAARParams, MAIParams
from indexvar.tscore import Panel, read_panel_csv

SETTINGS = settings(max_examples=25, deadline=None)
finite = st.floats(-1e6, 1e6, allow_nan=False)


def rows(n, min_size, max_size):
    return st.lists(st.lists(finite, min_size=n, max_size=n), min_size=min_size, max_size=max_size)


def _zero_stationary(model, n, q, p):
    omega = np.eye(n)[:, :q]
    if model == "mai":
        return MAIParams(omega, [np.zeros((n, q))] * p, np.eye(n))
    if model == "iaar":
        return IAARParams([np.zeros(n)] * p, [np.zeros((n, q))] * p, omega, np.eye(n))
    return DRVARParams(omega, [np.zeros((q, q))] * p, np.eye(n))


@pytest.mark.filterwarnings("ignore:q=.* is not more parsimonious")
@SETTINGS
@given(
    model=st.sampled_from(["mai", "iaar", "drvar"]),
    n=st.integers(2, 5),
    p=st.integers(0, 3),
    h=st.integers(1, 12),
    data=st.data(),
)
def test_zero_loadings_forecast_the_mean(model, n, p, h, data):
    q = data.draw(st.integers(1, n))
    values = np.array(data.draw(rows(n, p + 1, p + 6)))
    mu = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    fit = FitResult(model, _zero_stationary(model, n, q, p), np.array([0.0]),
                    np.zeros((1, n)), True, 1, p, means={"level": mu})
    path = forecast(fit, Panel(values), h)
    assert np.array_equal(path.values, np.tile(mu, (h, 1)))


@SETTINGS
@given(
    n=st.integers(2, 5),
    nd=st.integers(0, 2),
    na=st.integers(0, 2),
    h=st.integers(1, 12),
    data=st.data(),
)
def test_zero_error_correction_forecasts_the_last_level(n, nd, na, h, data):
    q = data.draw(st.integers(1, n - 1))
    r = data.draw(st.integers(0, q))
    params = CIAARParams(
        [np.zeros(n)] * nd, np.zeros((n, r)), np.eye(q)[:, :r], np.eye(n)[:, :q],
        [np.zeros((n, q))] * na, np.eye(n),
    )
    m = max(nd, na)
    values = np.array(data.draw(rows(n, m + 1, m + 6)))
    mu_l = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    fit = FitResult("ciaar", params, np.array([0.0]), np.zeros((1, n)), True, 1, m + 1,
                    means={"level": mu_l, "diff": np.zeros(n)})
    path = forecast(fit, Panel(values), h).values
    assert np.all(path == path[0])
    last = values[-1]
    # the level mean comes off and back on: one rounding of |last| + |mu_l|
    assert np.all(np.abs(path[0] - last) <= 4e-16 * (np.abs(last) + np.abs(mu_l)))


names = st.text("abcxyz_.019-", min_size=1, max_size=8)


# the extreme exponents, the least normal and subnormal magnitudes, and -0.0
EDGES = [1.7976931348623157e308, -1e308, 1e-300, 2.2250738585072014e-308, 5e-324,
         -4.9406564584124654e-324, 1e-310, -0.0, 0.0, 1e22, 1e23, 0.1]


@settings(max_examples=50, deadline=None)
@given(
    cols=st.lists(names, min_size=1, max_size=4),
    T=st.integers(1, 8),
    data=st.data(),
)
def test_panel_csv_round_trip(cols, T, data):
    """write_panel_csv then read_panel_csv gives the values back bit for bit."""
    cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
    values = np.array(data.draw(
        st.lists(st.lists(cell, min_size=len(cols), max_size=len(cols)), min_size=T, max_size=T)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        write_panel_csv(Panel(values, list(cols)), path)
        back = read_panel_csv(path)
    assert back.names == list(cols)
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
