"""Property tests of the switching engine's omega normalization (_qr_normalize).

A well-conditioned omega is normalized by Cholesky-QR, which must give the
QR factorization with R's diagonal positive to rounding, and so today's
sign-fixed Householder Q. An ill-conditioned or rank-deficient omega must
take the Householder path itself, bit for bit, with no numpy message, and
every member of a stack takes its own path.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from indexvar.estimators import _qr_normalize
from rowlevel import householder_normalize


@st.composite
def omegas(draw, kind="well", min_q=1, shape=None):
    """A stack of n x q matrices, n <= 20 and q <= 3 (or (n, q) = shape), at a scale
    10^-3 .. 10^3.

    kind "well" has condition numbers at most 10, "ill" exactly 1e6 (q >= 2),
    "zero" one zero column and "duplicate" two equal columns (q >= 2).
    """
    n = draw(st.integers(min_q, 20)) if shape is None else shape[0]
    q = draw(st.integers(min_q, min(3, n))) if shape is None else shape[1]
    B = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((B, n, q)))[0]
    V = np.linalg.qr(rng.standard_normal((B, q, q)))[0]
    sv = np.exp(rng.uniform(0.0, np.log(10.0), (B, q)))
    if kind == "ill":
        sv = np.exp(rng.uniform(np.log(1e-6), 0.0, (B, q)))
        sv[:, 0], sv[:, -1] = 1.0, 1e-6
    omega = (U * sv[:, None, :]) @ V.swapaxes(1, 2) * 10.0 ** draw(st.integers(-3, 3))
    col = draw(st.integers(0, q - 1))
    if kind == "zero":
        omega[:, :, col] = 0.0
    elif kind == "duplicate":
        omega[:, :, col] = omega[:, :, col - 1]
    return omega


def _normalized(omega):
    """_qr_normalize(omega), with any numpy warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _qr_normalize(omega)


@settings(max_examples=200, deadline=None)
@given(omegas())
def test_well_conditioned_omega_gets_its_positive_diagonal_qr(omega):
    Q, R = _normalized(omega)
    q = omega.shape[-1]
    assert np.abs(Q.swapaxes(1, 2) @ Q - np.eye(q)).max() <= 1e-13
    assert np.array_equal(R, np.triu(R)) and (R.diagonal(0, 1, 2) > 0).all()
    assert np.abs(Q @ R - omega).max() <= 1e-13 * np.abs(omega).max()
    for w, Qw in zip(omega, Q):
        assert np.abs(Qw - householder_normalize(w)[0]).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.one_of(omegas("ill", min_q=2), omegas("zero"), omegas("duplicate", min_q=2)))
def test_ill_conditioned_or_rank_deficient_omega_takes_householder_bit_for_bit(omega):
    Q, R = _normalized(omega)
    for w, Qw, Rw in zip(omega, Q, R):
        Qh, Rh = householder_normalize(w)
        assert np.array_equal(Qw, Qh) and np.array_equal(Rw, Rh)


@settings(max_examples=100, deadline=None)
@given(omegas(min_q=2), st.sampled_from(["ill", "zero", "duplicate"]), st.integers(0, 4), st.data())
def test_every_member_of_a_stack_takes_its_own_path(well, kind, at, data):
    # a degenerate member, whose omega'omega may not even factor, leaves the others' path alone
    degenerate = data.draw(omegas(kind, shape=well.shape[1:]))
    stack = np.insert(well, min(at, len(well)), degenerate[0], axis=0)
    Q, R = _normalized(stack)
    for w, Qw, Rw in zip(stack, Q, R):
        Q1, R1 = _normalized(w[None])
        assert np.array_equal(Qw, Q1[0]) and np.array_equal(Rw, R1[0])
