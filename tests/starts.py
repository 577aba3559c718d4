"""The engine's default start, for tests that start a fit or an oracle from it."""

from indexvar.estimators import MODELS, _default_starts, _raised


def engine_start(model, Y, **kwargs):
    """The default start (gamma0, omega0, D0) a fit_many run of model on Y solves, at the
    engine's index count setup.q: r, not q, for a CIAAR order with s <= 1 (_setup_ciaar)."""
    setup = MODELS[model].setup(Y, **kwargs)
    return _raised(_default_starts([setup.start()], setup.r, setup.shape[0], setup.q)[0])
