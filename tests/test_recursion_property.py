"""Property test: the blocked lag recursion equals the one-row-per-step oracle.

tscore.var_recursion advances L rows per Python step through the companion
powers and the block Toeplitz matrix of the Wold coefficients. Drawn here:
stationary VARs with n 1-20 and p 0-4, T 1-400, vector and n x k drives, a
nonzero pre-sample, the error-correction path with a level, and either the
block length the kernel chooses or a forced one. The error-correction
draws run through the state form of VECMParams(alpha, beta, phis, I), the
VAR of (x_t, beta'y_t), and are checked against the oracle's levels form
with ec = alpha beta', which runs in extended precision: one rank-one draw
alpha = -0.1 u/|u|, beta = u/|u|, and random n x r factors, r 0-3, whose
state companion has spectral radius below RADIUS_CAP.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import tscore
from indexvar.params import VECMParams
from indexvar.tscore import companion_spectral_radius, var_recursion
from rowlevel import step_recursion

# near the stability boundary only an extended-precision oracle stays far
# below the kernel's own rounding; where np.longdouble is plain double the
# oracle is no better than the kernel, and the draws keep the old margin
RADIUS_CAP = 0.98 if np.finfo(np.longdouble).eps < 1e-18 else 0.9


@st.composite
def recursions(draw):
    n = draw(st.integers(1, 20))
    p = draw(st.integers(0, 4))
    T = draw(st.integers(1, 400))
    k = draw(st.sampled_from([None, 1, 3, n]))          # None: vector rows
    ec = draw(st.sampled_from([None, "u", "random"]))
    L = draw(st.sampled_from([None, 2, 4, 8, 16, 32]))  # None: the kernel's choice
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    phis = [rng.standard_normal((n, n)) for _ in range(p)]
    if p:
        # scale Phi_j by c^j, which scales the companion roots by c
        c = draw(st.floats(0.0, 0.5 if ec else 0.98)) / companion_spectral_radius(phis)
        phis = [phi * c ** j for j, phi in enumerate(phis, start=1)]
    row = (n,) if k is None else (n, k)
    case = {"phis": phis, "init": rng.standard_normal((p,) + row),
            "drive": rng.standard_normal((T,) + row)}
    if ec == "u":
        u = rng.standard_normal((n, 1))
        u /= np.linalg.norm(u)
        case["ec"] = (-0.1 * u, u)
    elif ec == "random":
        r = draw(st.integers(0, min(n, 3)))
        beta = np.linalg.qr(rng.standard_normal((n, r)))[0]
        alpha = rng.standard_normal((n, r)) / np.sqrt(n)
        # beta'alpha = -kappa I puts the state's own roots at 1 - kappa; shrinking
        # the lags by 0.5^j then moves every root towards {0, 1 - kappa}
        kappa = draw(st.floats(0.2, 1.8))
        alpha -= beta @ (beta.T @ alpha + kappa * np.eye(r))
        while _state_radius(case["phis"], alpha, beta) >= RADIUS_CAP:
            case["phis"] = [phi * 0.5 ** j for j, phi in enumerate(case["phis"], start=1)]
        case["ec"] = (alpha, beta)
    if ec:
        case["level"] = rng.standard_normal(row)
    return case, L


def _state_radius(phis, alpha, beta):
    """Spectral radius of the companion of (x_t, beta'y_t), built here from its blocks."""
    n, r = beta.shape
    aug = [np.block([[pi, np.zeros((n, r))], [beta.T @ pi, np.zeros((r, r))]])
           for pi in phis or [np.zeros((n, n))]]
    aug[0][:, n:] = np.vstack([alpha, np.eye(r) + beta.T @ alpha])
    return companion_spectral_radius(aug)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recursions())
def test_blocked_recursion_equals_the_row_by_row_oracle(drawn):
    case, L = drawn
    if "ec" in case:
        alpha, beta = case["ec"]
        ref = step_recursion(**{**case, "ec": alpha @ beta.T})
        form = VECMParams(alpha, beta, case["phis"], np.eye(len(alpha))).state_form()
        run = lambda: form.run(case["drive"], case["init"], case["level"])  # noqa: E731
    else:
        ref = step_recursion(**case)
        run = lambda: var_recursion(**case)  # noqa: E731
    if L is None:
        got = run()
    else:
        # L for the outer call; the shorter calls that build C and Psi take one row a step
        with mock.patch.object(tscore, "_block_length", lambda n, p, k, T: L if T > L else 1):
            got = run()
    for g, r in zip(got, ref) if "ec" in case else [(got, ref)]:
        assert g.shape == r.shape
        assert np.abs(g - r).max(initial=0.0) <= 1e-12 * np.abs(r).max(initial=1e-300)


def test_block_length_is_one_for_short_calls_and_grows_with_the_sample():
    assert tscore._block_length(6, 2, 1, 12) == 1        # a 12-step forecast
    assert tscore._block_length(6, 0, 1, 2500) == 1      # white noise
    assert tscore._block_length(20, 2, 1, 2500) > 1      # n = 20 replications of 2500 rows
    # error-correction calls run on n + r: a 12-step forecast and simulate_ciaar's
    # 1500 rows at n = 6, r = 1, and a CIAAR with no short-run lags and r = 0
    assert tscore._block_length(7, 2, 1, 12) == 1
    assert tscore._block_length(7, 2, 1, 1500) > 1
    assert tscore._block_length(6, 1, 1, 1500) > 1
    for n, p, k, T in [(1, 1, 1, 3), (6, 2, 1, 60), (20, 2, 20, 200), (40, 1, 1, 2500),
                       (7, 2, 1, 12), (7, 2, 1, 1500), (6, 1, 1, 12), (6, 1, 1, 1500)]:
        L = tscore._block_length(n, p, k, T)
        assert L == 1 or (L < T and L * n <= 256)
