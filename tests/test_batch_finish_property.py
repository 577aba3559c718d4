"""Property tests of fit_many's batch finish: each member's params container
is built once, equal to the one its public constructor builds; a member that
fails a check raises its single fit's exception while the others finish; and
the IAAR parsimony warning is given for every container, as the constructor
gives it."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from indexvar import estimators
from indexvar.estimators import MODELS, SIGMA_ERROR, FitOptions, fit_many
from indexvar.simulate import (
    random_ciaar_params,
    random_mai_params,
    random_vhari_params,
    simulate_ciaar,
    simulate_mai,
    simulate_vhari,
)
from indexvar.tscore import full_rank

OPTS = FitOptions(max_iter=40)
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SINGLE = {"ciaar": estimators.fit_ciaar, "vecim": estimators.fit_vecim, "mai": estimators.fit_mai,
          "vhari": estimators.fit_vhari, "iaar": estimators.fit_iaar}
PARSIMONY = "is not more parsimonious"


@st.composite
def batches(draw, models=tuple(sorted(SINGLE)), estimated_gamma=False):
    """An engine model, its orders at n = 3 or 4, and 2 to 4 short panels of
    one length, from a DGP of the model's family. With estimated_gamma, a
    CIAAR or VECIM order whose gamma step 3 estimates: 0 < r < q with an
    index lag."""
    model = draw(st.sampled_from(models))
    n = draw(st.integers(3, 4))
    q = draw(st.integers(1 + estimated_gamma, n - 1))
    r = draw(st.integers(1, q - 1) if estimated_gamma else st.integers(0, q))
    if model == "ciaar":
        p = draw(st.integers(0, 3))
        s = draw(st.integers(1 + estimated_gamma, p if p >= 2 else 3))   # s > p without a diagonal lag
        orders = dict(p=p, s=s, q=q, r=r)
    elif model == "vecim":
        orders = dict(p=draw(st.integers(1 + estimated_gamma, 3)), q=q, r=r)
    elif model == "mai":
        orders = dict(p=draw(st.integers(1, 2)), q=q)
    elif model == "vhari":
        orders = dict(q=q)
    else:
        p = draw(st.integers(1, 2))
        orders = dict(p=p, s=draw(st.integers(1, p)), q=q)
    T, seed, count = draw(st.integers(60, 150)), draw(st.integers(0, 2**31)), draw(st.integers(2, 4))
    return model, orders, panels(model, n, T, range(seed, seed + count))


def panels(model: str, n: int, T: int, seeds) -> list:
    if model in ("ciaar", "vecim"):
        simulate, dgp = simulate_ciaar, random_ciaar_params(n, 2, 1, 2, 2, seed=0)
    elif model == "vhari":
        simulate, dgp = simulate_vhari, random_vhari_params(n, 2, seed=0)
    else:
        simulate, dgp = simulate_mai, random_mai_params(n, 2, 2, seed=0)
    return [simulate(dgp, T, seed=seed) for seed in seeds]


def test_every_engine_model_is_drawn():
    assert SINGLE.keys() == {m for m, model in MODELS.items() if model.setup}


def same_bits(a, b) -> bool:
    """a and b hold the same float64 bits in the same shapes, lists item by item."""
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_bits, a, b))
    return (isinstance(b, np.ndarray) and a.dtype == b.dtype == np.float64
            and a.shape == b.shape and a.tobytes() == b.tobytes())


def outcomes(fits, count: int) -> list:
    """Each fit of a fit_many iterator, or the exception it raised in its turn."""
    out = []
    for _ in range(count):
        try:
            out.append(next(fits))
        except (ValueError, np.linalg.LinAlgError) as exc:
            out.append(exc)
    return out


def single(model, Y, orders):
    try:
        return SINGLE[model](Y, opts=OPTS, **orders)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return exc


def assert_same_outcome(got, ref):
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert got.iterations == ref.iterations
    assert got.diagnostics == ref.diagnostics
    gap = np.abs(got.loglik_trace - ref.loglik_trace).max()
    assert gap <= 1e-10 * np.abs(ref.loglik_trace).max()
    for name, value in vars(ref.params).items():
        for a, b in zip(*(v if isinstance(v, list) else [v] for v in (vars(got.params)[name], value))):
            assert np.abs(a - b).max(initial=0.0) <= 1e-8 * max(np.abs(b).max(initial=0.0), 1.0)


@pytest.mark.filterwarnings(f"ignore:.*{PARSIMONY}")
@SETTINGS
@given(batches())
def test_each_container_is_its_public_constructors(case):
    model, orders, Ys = case
    for fit in outcomes(fit_many(model, Ys, opts=OPTS, **orders), len(Ys)):
        if isinstance(fit, Exception):
            continue
        params = fit.params
        built = type(params)(**vars(params))            # every check, on the same fields
        assert list(vars(built)) == list(vars(params))  # the order _write_params_text walks
        for name, value in vars(params).items():
            assert same_bits(value, vars(built)[name]), name


@pytest.mark.filterwarnings(f"ignore:.*{PARSIMONY}")
@SETTINGS
@given(batches(), st.data())
def test_a_member_whose_sigma_fails_the_guard_keeps_its_single_fit_error(case, data):
    # the guard refuses one member's sigma wherever it is judged: in the
    # batch and in that member's single fit alike
    assert_refused(*case, data, by_head=False)


@pytest.mark.filterwarnings(f"ignore:.*{PARSIMONY}")
@SETTINGS
@given(batches(("ciaar", "vecim"), estimated_gamma=True), st.data())
def test_a_member_whose_gamma_head_is_refused_keeps_its_single_fit(case, data):
    # one member's gamma head is not full rank wherever it is judged, so it
    # is left unnormalized, as in its single fit
    assert_refused(*case, data, by_head=True)


def assert_refused(model, orders, Ys, data, by_head):
    fits = outcomes(fit_many(model, Ys, opts=OPTS, **orders), len(Ys))
    done = [k for k, fit in enumerate(fits) if not isinstance(fit, Exception)]
    if not done:
        return
    k = data.draw(st.sampled_from(done))
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = refused(model, orders, Ys, k, fits[k], by_head, monkeypatch)
    for i, (fit, ref) in enumerate(got):
        assert_same_outcome(fit, ref)
        if i == k and by_head:                         # left as the engine's, not scaled to I_r
            r = fit.params.r
            assert fit.diagnostics["gamma_unnormalized"] is True
            assert np.abs(fit.params.gamma[:r] - np.eye(r)).max() > 1e-6
        elif i == k:
            assert isinstance(fit, np.linalg.LinAlgError) and str(fit) == SIGMA_ERROR


def refused(model, orders, Ys, k, target_fit, by_head, monkeypatch):
    """Each panel's outcome in one fit_many batch and in its single fit, with
    panel k's gamma head (by_head) or sigma refused by the checks."""
    if by_head:
        heads = []
        monkeypatch.setattr(estimators, "full_rank", lambda sv: heads.append(sv[0]) or full_rank(sv))
        single(model, Ys[k], orders)
        target = heads[0]
        monkeypatch.setattr(estimators, "full_rank",
                            lambda sv: full_rank(sv) & ~(sv == target).all(-1))
    else:
        sigma, guard = target_fit.params.sigma, estimators.sigma_cond

        def judged(s):                                 # a stack: refused if it holds the target
            if (np.abs(s - sigma).max((-2, -1)) <= 1e-9 * np.abs(sigma).max()).any():
                raise np.linalg.LinAlgError(SIGMA_ERROR)
            return guard(s)

        monkeypatch.setattr(estimators, "sigma_cond", judged)
    got = outcomes(fit_many(model, Ys, opts=OPTS, **orders), len(Ys))
    return [(fit, single(model, Y, orders)) for fit, Y in zip(got, Ys)]


@SETTINGS
@given(batches(("iaar", "mai")))
@example(("iaar", dict(p=2, s=2, q=2), panels("iaar", 3, 80, (1, 2, 3))))
def test_an_iaar_container_warns_as_its_constructor_does(case):
    model, orders, Ys = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = outcomes(fit_many(model, Ys, opts=OPTS, **orders), len(Ys))
        one = single(model, Ys[0], orders)
    built = [fit for fit in fits if not isinstance(fit, Exception)]
    expected = 0
    if model == "iaar" and orders["s"] == orders["p"] >= 2 and orders["q"] >= Ys[0].n - 1:
        expected = len(built) + (not isinstance(one, Exception))
    assert sum(PARSIMONY in str(w.message) for w in caught) == expected
    for fit in built:                                  # the constructor warns alike
        with warnings.catch_warnings(record=True) as again:
            warnings.simplefilter("always")
            type(fit.params)(**vars(fit.params))
        assert sum(PARSIMONY in str(w.message) for w in again) == (expected > 0)
