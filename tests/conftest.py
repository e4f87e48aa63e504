import pytest

from helpers import make_system


@pytest.fixture
def base_params():
    """The (kappa_wg, kappa_sc, g) = (100, 300, 20) two-atom system, C = 4."""
    return make_system()


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20260810)


@pytest.fixture
def dark_point_calls(monkeypatch):
    """The flat indices of each call of the fold's dark-point rule, in order."""
    from chiralcav import solver

    calls = []
    rule = solver._contour_mean

    def recording(params, index, *points):
        calls.append(index.tolist())
        return rule(params, index, *points)

    monkeypatch.setattr(solver, "_contour_mean", recording)
    return calls


@pytest.fixture
def fold_shapes(monkeypatch):
    """The delta shape of each call of the fold, in order."""
    import numpy as np

    from chiralcav import solver

    calls = []
    fold = solver._fold

    def counted(params, delta, *args, **kwargs):
        calls.append(np.shape(delta))
        return fold(params, delta, *args, **kwargs)

    monkeypatch.setattr(solver, "_fold", counted)
    return calls


@pytest.fixture
def complex_blocks(monkeypatch):
    """The shape of each complex ``np.empty`` call (the fold's block), in order."""
    import numpy as np

    blocks, empty = [], np.empty

    def recording(shape, dtype=float, *args, **kw):
        if np.dtype(dtype) == complex:
            blocks.append(shape)
        return empty(shape, dtype, *args, **kw)

    monkeypatch.setattr(np, "empty", recording)
    return blocks
