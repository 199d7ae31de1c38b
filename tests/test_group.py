import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.group import (GroupPoint, MetivierStructure, dilate,
                         exact_condition_extremes, homogeneous_dimension,
                         identity, inverse, make_heisenberg, multiply, point,
                         product, unit_sample, verify_metivier)

from conftest import ROT, random_points, skew_structures


def test_heisenberg_canonical(heis):
    assert heis.n == 1 and heis.m == 1 and heis.h_type
    assert np.array_equal(heis.maps[0], ROT)
    assert np.array_equal(heis.maps[0] @ heis.maps[0], -np.eye(2))
    assert homogeneous_dimension(heis) == 4


def test_homogeneous_dimension_formula():
    j = np.zeros((3, 4, 4))
    j[:, :2, :2] = ROT
    j[:, 2:, 2:] = ROT
    s = MetivierStructure(n=2, m=3, maps=j)
    assert homogeneous_dimension(s) == 10
    j6 = np.zeros((1, 6, 6))
    for b in range(3):
        j6[0, 2 * b: 2 * b + 2, 2 * b: 2 * b + 2] = ROT
    assert homogeneous_dimension(MetivierStructure(n=3, m=1, maps=j6)) == 8


def test_skew_validation_rejected():
    bad = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match="skew"):
        MetivierStructure(n=1, m=1, maps=bad)
    for n, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="positive integers"):
            MetivierStructure(n=n, m=m, maps=ROT[None])
    with pytest.raises(ValueError, match="shape"):
        MetivierStructure(n=1, m=2, maps=ROT[None])


def test_h_type_flag_validated(aniso, quaternion):
    with pytest.raises(ValueError, match="h_type"):
        MetivierStructure(n=2, m=1, maps=aniso.maps, h_type=True)
    # a skew perturbation of one map breaks the Clifford relations
    maps = quaternion.maps.copy()
    maps[2, 0, 3] += 1e-9
    maps[2, 3, 0] -= 1e-9
    with pytest.raises(ValueError, match="h_type"):
        MetivierStructure(n=2, m=3, maps=maps, h_type=True)
    assert not MetivierStructure(n=2, m=3, maps=maps).h_type


def test_group_product_example(heis):
    p = point(heis, [1.0, 0.0], [0.0])
    q = point(heis, [0.0, 1.0], [0.0])
    r = multiply(heis, p, q)
    assert np.allclose(r.x, [1.0, 1.0])
    assert np.allclose(r.t, [-0.5])


def test_identity_and_inverse(heis):
    p = point(heis, [1.0, 2.0], [3.0])
    e = identity(heis)
    assert np.array_equal(multiply(heis, p, e).x, p.x)
    assert np.array_equal(multiply(heis, p, e).t, p.t)
    inv = inverse(heis, p)
    assert np.array_equal(inv.x, [-1.0, -2.0]) and np.array_equal(inv.t, [-3.0])
    back = multiply(heis, p, inv)
    assert np.all(back.x == 0.0) and np.all(back.t == 0.0)


def test_inverse_involution(heis):
    x, t = random_points(heis, 100, seed=1)
    for i in range(100):
        p = GroupPoint(x[i], t[i])
        pp = inverse(heis, inverse(heis, p))
        assert np.array_equal(pp.x, p.x) and np.array_equal(pp.t, p.t)


def test_dimension_mismatch_rejected(heis, aniso):
    p = point(aniso, [1.0, 0, 0, 0], [0.0])
    with pytest.raises(ValueError, match="dims"):
        multiply(heis, p, p)
    # a non-finite centre made ball_intersection_volume return 0.0 silently
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            point(heis, [0.3, 0.0], [bad])
        with pytest.raises(ValueError, match="finite"):
            GroupPoint(np.array([bad, 0.0]), np.zeros(1))


def test_dilation_examples(heis):
    p = point(heis, [1.0, 0.0], [1.0])
    d = dilate(heis, 2.0, p)
    assert np.allclose(d.x, [2.0, 0.0]) and np.allclose(d.t, [4.0])
    d1 = dilate(heis, 1.0, p)
    assert np.array_equal(d1.x, p.x) and np.array_equal(d1.t, p.t)
    with pytest.raises(ValueError):
        dilate(heis, 0.0, p)


def test_dilation_composition(heis):
    x, t = random_points(heis, 100, seed=2)
    rng = np.random.default_rng(3)
    for i in range(100):
        p = GroupPoint(x[i], t[i])
        r, sc = rng.uniform(0.1, 3.0, size=2)
        a = dilate(heis, r, dilate(heis, sc, p))
        b = dilate(heis, r * sc, p)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.t - b.t)) <= 1e-12


def test_associativity(heis, aniso):
    for s in (heis, aniso):
        x1, t1 = random_points(s, 1000, seed=4, box=10.0)
        x2, t2 = random_points(s, 1000, seed=5, box=10.0)
        x3, t3 = random_points(s, 1000, seed=6, box=10.0)
        ax, at = product(s, *product(s, x1, t1, x2, t2), x3, t3)
        bx, bt = product(s, x1, t1, *product(s, x2, t2, x3, t3))
        assert np.max(np.abs(ax - bx)) <= 1e-12
        assert np.max(np.abs(at - bt)) <= 1e-12


def test_dilations_are_automorphisms(heis):
    x1, t1 = random_points(heis, 1000, seed=7)
    x2, t2 = random_points(heis, 1000, seed=8)
    r = 1.7
    px, pt = product(heis, r * x1, r * r * t1, r * x2, r * r * t2)
    qx, qt = product(heis, x1, t1, x2, t2)
    assert np.max(np.abs(px - r * qx)) <= 1e-12
    assert np.max(np.abs(pt - r * r * qt)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=skew_structures(), r=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_group_axioms_random_structures(s, r, seed):
    """Associativity, identity, inverses and dilation automorphisms, to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    (x1, x2, x3), (t1, t2, t3) = (rng.uniform(-10.0, 10.0, size=(3, 50, s.horizontal_dim)),
                                  rng.uniform(-10.0, 10.0, size=(3, 50, s.m)))

    def close(a, b, scale=None):
        scale = np.max(np.abs(b)) if scale is None else scale
        return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, scale)

    ax, at = product(s, *product(s, x1, t1, x2, t2), x3, t3)
    bx, bt = product(s, x1, t1, *product(s, x2, t2, x3, t3))
    assert close(ax, bx) and close(at, bt)
    e = identity(s)
    for x, t in (product(s, x1, t1, e.x, e.t), product(s, e.x, e.t, x1, t1)):
        assert close(x, x1) and close(t, t1)
    for i in range(3):
        p = GroupPoint(x1[i], t1[i])
        inv = inverse(s, p)
        for q in (multiply(s, p, inv), multiply(s, inv, p)):
            # the central part cancels terms of size |J| |x|^2
            assert close(q.x, e.x) and close(q.t, e.t, np.max(np.abs(s.maps)) * x1[i] @ x1[i])
    px, pt = product(s, r * x1, r * r * t1, r * x2, r * r * t2)
    qx, qt = product(s, x1, t1, x2, t2)
    assert close(px, r * qx) and close(pt, r * r * qt)


def test_left_translation_unimodular(heis):
    """Finite-difference Jacobian determinant of p -> g.p is 1."""
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(20):
        g = rng.uniform(-3.0, 3.0, size=3)
        p = rng.uniform(-3.0, 3.0, size=3)

        def push(v):
            x, t = product(heis, g[:2], g[2:], v[:2], v[2:])
            return np.concatenate([x, t])

        jac = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            jac[:, i] = (push(p + e) - push(p - e)) / (2.0 * h)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-8


def test_verify_metivier_heisenberg(heis):
    est = verify_metivier(heis, 10_000, seed=0)
    assert abs(est.c0 - 1.0) <= 1e-12
    assert abs(est.C0 - 1.0) <= 1e-12
    assert est.sample_count == 10_000


def test_verify_metivier_degenerate(degenerate):
    est = verify_metivier(degenerate, 10_000, seed=0)
    assert est.c0 <= 1e-3
    # direct witness: J annihilates e3 exactly
    e3 = np.zeros(4)
    e3[2] = 1.0
    assert np.all(degenerate.maps[0] @ e3 == 0.0)


def test_verify_metivier_aniso_against_svd(aniso):
    est = verify_metivier(aniso, 10_000, seed=0)
    lo, hi = exact_condition_extremes(aniso)
    assert (lo, hi) == (1.0, 4.0)
    assert lo <= est.c0 <= lo + 0.05
    assert hi - 0.05 <= est.C0 <= hi
    bigger = verify_metivier(aniso, 40_000, seed=0)
    assert bigger.c0 <= est.c0 and bigger.C0 >= est.C0


def test_verify_metivier_determinism_and_errors(heis):
    a = verify_metivier(heis, 500, seed=42)
    b = verify_metivier(heis, 500, seed=42)
    assert a.c0 == b.c0 and a.C0 == b.C0
    with pytest.raises(ValueError):
        verify_metivier(heis, 0)


@pytest.mark.parametrize("dim", range(1, 8))
def test_unit_sample_matches_linalg_norm(dim):
    """The in-order column sum of the squares is np.linalg.norm's row norm, bit for bit."""
    got = unit_sample(np.random.default_rng(dim), 20_000, dim)
    v = np.random.default_rng(dim).standard_normal((20_000, dim))
    assert np.array_equal(got, v / np.linalg.norm(v, axis=1, keepdims=True))


def test_serialization_round_trip(aniso):
    text = aniso.to_json()
    back = MetivierStructure.from_json(text)
    assert back.n == aniso.n and back.m == aniso.m
    assert np.array_equal(back.maps, aniso.maps)
    assert back.h_type == aniso.h_type
    doc = json.loads(text)
    assert set(doc) == {"n", "m", "J", "h_type"}
