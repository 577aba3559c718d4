"""Property tests: a simulator reuses a params object's checked state form
only while it is the same form.

simulate_<model> keeps the checked state form of each params object it has
simulated, with the block operators its recursion built, while the object
lives and its arrays hold the same bytes. Drawn here: two DGPs of one of the
five simulated classes, simulated in the order A, B, A, then A again after
one of its arrays is scaled in place. Every panel, or the error raised, must
equal that of a fresh copy type(P)(**vars(P)), which has no kept form.
"""

import gc
import weakref

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from indexvar import simulate as sim
from indexvar.params import CIAARParams, MAIParams

DGPS = {   # model: (simulator, draw of its params by seed, the array a mutation scales)
    "mai": (sim.simulate_mai, lambda seed: sim.random_mai_params(5, 2, 2, seed=seed),
            lambda P: P.alphas[0]),
    "iaar": (sim.simulate_iaar, lambda seed: sim.random_iaar_params(5, 1, 2, 2, seed=seed),
             lambda P: P.ds[0]),
    "vhari": (sim.simulate_vhari, lambda seed: sim.random_vhari_params(4, 2, seed=seed),
              lambda P: P.alpha_d),
    "drvar": (sim.simulate_drvar, lambda seed: sim.random_drvar_params(5, 2, 2, seed=seed),
              lambda P: P.phis[0]),
    "ciaar": (sim.simulate_ciaar, lambda seed: sim.random_ciaar_params(5, 2, 1, 2, 2, seed=seed),
              lambda P: P.alpha0),
}


def _outcome(simulate, params, **kw):
    """The panel's values, or the type and message of the error raised."""
    try:
        return simulate(params, **kw).values
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == ref.tobytes()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=st.sampled_from(sorted(DGPS)),
    seeds=st.lists(st.integers(0, 50), min_size=2, max_size=2, unique=True),
    T=st.integers(1, 150),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)
def test_a_reused_form_gives_the_fresh_copys_panel(model, seeds, T, seed, scale):
    simulate, draw, mutable = DGPS[model]
    A, B = map(draw, seeds)

    def check(P):
        _assert_same(_outcome(simulate, P, T=T, seed=seed),
                     _outcome(simulate, type(P)(**vars(P)), T=T, seed=seed))

    for P in (A, B, A):
        check(P)
    mutable(A)[...] *= scale            # in place: no array of A is replaced
    check(A)
    check(A)                            # a refused DGP keeps raising its message


@pytest.mark.parametrize("model", sorted(DGPS))
def test_given_shocks_and_lognormal_garch_stay_bit_equal(model):
    simulate, draw, _ = DGPS[model]
    P, burn, T = draw(3), 100, 80
    shocks = sim.draw_shocks(P.sigma, burn + T, seed=4)
    for kw in ({"shocks": shocks}, {"dist": "lognormal_garch", "seed": 5}):
        first = simulate(P, T, burn=burn, **kw).values
        again = simulate(P, T, burn=burn, **kw).values
        fresh = simulate(type(P)(**vars(P)), T, burn=burn, **kw).values
        assert first.tobytes() == again.tobytes() == fresh.tobytes()


def test_the_form_is_kept_while_the_arrays_hold_their_bytes():
    P = sim.random_mai_params(5, 2, 2, seed=0)
    sim.simulate_mai(P, 100)
    form = sim._checked_form(P)
    assert sim._checked_form(P) is form and form.ops        # reused, with its operators
    P.alphas[1][0, 0] += 1e-3
    assert sim._checked_form(P) is not form


def test_unstable_and_i2_parameters_raise_on_every_call():
    P = sim.random_mai_params(4, 1, 1, seed=3)
    unstable = MAIParams(P.omega, [1.2 * P.omega], P.sigma)
    # alpha0_perp' (I - D_1) beta_perp = 1 - 1 = 0 with alpha0_perp = beta_perp = e2
    i2 = CIAARParams([np.array([0.0, 1.0])], [[-0.5], [0.0]], [[1.0]], [[1.0], [0.0]], [], np.eye(2))
    for simulate, bad, message in ((sim.simulate_mai, unstable, "nonstationary"),
                                   (sim.simulate_ciaar, i2, "I\\(2\\)")):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                simulate(bad, 50, seed=0)
        assert id(bad) not in sim._CHECKED


def test_a_dropped_params_objects_form_is_collected():
    P = sim.random_ciaar_params(5, 2, 1, 2, 2, seed=0)
    sim.simulate_ciaar(P, 100)
    kept, key = weakref.ref(sim._checked_form(P)), id(P)
    del P
    gc.collect()
    assert kept() is None and key not in sim._CHECKED
