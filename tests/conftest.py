import contextlib
import json
import signal

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


def quaternion_maps():
    """Left multiplications by the quaternion units i, j, k on R^4."""
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], float)
    return np.stack([li, lj, li @ lj])


@pytest.fixture(scope="session")
def quaternion():
    """H-type with n = 2, m = 3 (Q = 10): the quaternionic Heisenberg group."""
    return MetivierStructure(n=2, m=3, maps=quaternion_maps())


@pytest.fixture(scope="session")
def degenerate():
    """Fails the Metivier condition: J annihilates the second block."""
    j = np.zeros((1, 4, 4))
    j[0, :2, :2] = ROT
    return MetivierStructure(n=2, m=1, maps=j)


@st.composite
def skew_structures(draw, n_range=(1, 2), m_range=(1, 2)):
    """Random skew maps with n, m in the inclusive ranges; a draw may be H-type
    (such as +-ROT), which the structure derives from its maps."""
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


def write_structure(path, s, **extra):
    """Write `s` to `path` as a structure file {"n", "m", "J"} plus the `extra` keys."""
    path.write_text(json.dumps({"n": s.n, "m": s.m, "J": s.maps.tolist(), **extra}))
    return path


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


@contextlib.contextmanager
def time_cap(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass (main thread, POSIX)."""
    def expire(signum, frame):
        raise TimeoutError(f"time cap of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
