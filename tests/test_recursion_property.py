"""Property test: the blocked lag recursion equals the one-row-per-step oracle.

tscore.var_recursion advances L rows per Python step through the companion
powers and the block Toeplitz matrix of the Wold coefficients. Drawn here:
stationary VARs with n 1-20 and p 0-4, T 1-400, vector and n x k drives, a
nonzero pre-sample, the error-correction path with a level, and either the
block length the kernel chooses or a forced one.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import tscore
from indexvar.tscore import companion_spectral_radius, var_recursion
from rowlevel import step_recursion


@st.composite
def recursions(draw):
    n = draw(st.integers(1, 20))
    p = draw(st.integers(0, 4))
    T = draw(st.integers(1, 400))
    k = draw(st.sampled_from([None, 1, 3, n]))          # None: vector rows
    ec = draw(st.booleans())
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
    if ec:
        u = rng.standard_normal((n, 1))
        case["ec"] = -0.1 * u @ u.T / (u.T @ u)
        case["level"] = rng.standard_normal(row)
    return case, L


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recursions())
def test_blocked_recursion_equals_the_row_by_row_oracle(drawn):
    case, L = drawn
    ref = step_recursion(**case)
    if L is None:
        got = var_recursion(**case)
    else:
        # L for the outer call; the shorter calls that build C and Psi take one row a step
        with mock.patch.object(tscore, "_block_length", lambda n, p, k, T: L if T > L else 1):
            got = var_recursion(**case)
    for g, r in zip(got, ref) if "ec" in case else [(got, ref)]:
        assert g.shape == r.shape
        assert np.abs(g - r).max(initial=0.0) <= 1e-12 * np.abs(r).max(initial=1e-300)


def test_block_length_is_one_for_short_calls_and_grows_with_the_sample():
    assert tscore._block_length(6, 2, 1, 12) == 1        # a 12-step forecast
    assert tscore._block_length(6, 0, 1, 2500) == 1      # white noise
    assert tscore._block_length(20, 2, 1, 2500) > 1      # n = 20 replications of 2500 rows
    for n, p, k, T in [(1, 1, 1, 3), (6, 2, 1, 60), (20, 2, 20, 200), (40, 1, 1, 2500)]:
        L = tscore._block_length(n, p, k, T)
        assert L == 1 or (L < T and L * n <= 256)
