import numpy as np
import pytest
from hypothesis import strategies as st

from srlab.group import MetivierStructure, make_heisenberg

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture(scope="session")
def heis():
    return make_heisenberg()


@pytest.fixture(scope="session")
def aniso():
    """Metivier but not H-type: n=2, m=1, singular values {1, 2}."""
    j = np.zeros((1, 4, 4))
    j[0, :2, :2] = ROT
    j[0, 2:, 2:] = 2.0 * ROT
    return MetivierStructure(n=2, m=1, maps=j)


@pytest.fixture(scope="session")
def degenerate():
    """Fails the Metivier condition: J annihilates the second block."""
    j = np.zeros((1, 4, 4))
    j[0, :2, :2] = ROT
    return MetivierStructure(n=2, m=1, maps=j)


@st.composite
def skew_structures(draw, n_range=(1, 2), m_range=(1, 2)):
    """Random skew maps with n, m in the inclusive ranges; the h_type flag stays off."""
    n = draw(st.integers(*n_range))
    m = draw(st.integers(*m_range))
    d = 2 * n
    upper = np.triu_indices(d, 1)
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=m * upper[0].size,
                            max_size=m * upper[0].size))
    maps = np.zeros((m, d, d))
    for k in range(m):
        maps[k][upper] = entries[k * upper[0].size:(k + 1) * upper[0].size]
    return MetivierStructure(n=n, m=m, maps=maps - np.swapaxes(maps, 1, 2))


def count_calls(monkeypatch, name, *modules):
    """Wrap `name` in every module that has it; the returned list grows by one per call."""
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            real = getattr(mod, name)

            def counting(*args, _real=real, **kwargs):
                calls.append(name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
    return calls


def random_points(s, count, seed, box=2.0, min_norm=0.0):
    """Random off-identity coordinate arrays in a box, optionally bounded away."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box, box, size=(count, s.horizontal_dim))
    t = rng.uniform(-box, box, size=(count, s.m))
    if min_norm > 0.0:
        from srlab.norms import norm_xt
        keep = norm_xt(x, t) >= min_norm
        x, t = x[keep], t[keep]
    return x, t
