"""Property test: the index simulators equal the levels VAR they imply.

simulate_mai, simulate_vhari and simulate_drvar iterate the q-dimensional
VAR of the indexes f_t = omega'Y_t and lift it to the levels; given the
same shocks, simulate_var on params.var_coeffs() iterates the n-dimensional
levels VAR. Drawn here: n 2-8, q 1-n (VHARI and DRVAR q < n), p 1-4 (VHARI
always 22), burn 0-60 (VHARI at least 22), T 1-300 and Gaussian or
log-normal GARCH shocks. spectral_radius(), read from the q p companion of
omega'A_j, must equal the radius of the n p levels companion.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar.simulate import (
    draw_shocks,
    random_drvar_params,
    random_mai_params,
    random_vhari_params,
    simulate_drvar,
    simulate_mai,
    simulate_var,
    simulate_vhari,
)
from indexvar.tscore import companion_spectral_radius


@st.composite
def cases(draw):
    model = draw(st.sampled_from(["mai", "vhari", "drvar"]))
    n = draw(st.integers(2, 8))
    q = draw(st.integers(1, n if model == "mai" else n - 1))
    p = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31))
    burn = draw(st.integers(22 if model == "vhari" else 0, 60))
    T = draw(st.integers(1, 300))
    dist = draw(st.sampled_from(["gaussian", "lognormal_garch"]))
    if model == "mai":
        return simulate_mai, random_mai_params(n, q, p, seed=seed), T, burn, seed, dist
    if model == "vhari":
        return simulate_vhari, random_vhari_params(n, q, seed=seed), T, burn, seed, dist
    return simulate_drvar, random_drvar_params(n, q, p, seed=seed), T, burn, seed, dist


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_index_simulation_is_the_levels_var(case):
    simulate, params, T, burn, seed, dist = case
    phis = params.var_coeffs()
    assert abs(params.spectral_radius() - companion_spectral_radius(phis)) <= 1e-12
    eps = draw_shocks(params.sigma, burn + T, seed, dist)
    Y = simulate(params, T, burn=burn, shocks=eps).values
    ref = simulate_var(phis, params.sigma, T, burn=burn, shocks=eps).values
    assert Y.shape == ref.shape == (T, params.n)
    assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()
