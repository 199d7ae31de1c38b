import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from srlab.cli import _load_structure
from srlab.forms import horizontal_coefficients
from srlab.group import (_BLOCK, GroupPoint, MetivierStructure, _dot, homogeneous_dimension,
                         make_heisenberg, product, uniform_ball, unit_sample, verify_metivier)
from srlab.sublevel import SublevelSpec, ball_intersection_volume, thinness_integral

import oracles
from conftest import ROT, random_points, skew_structures, write_structure


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


def test_h_type_flag_validated(aniso, quaternion, tmp_path):
    """h_type is whether the maps meet the Clifford relations: no argument sets
    it, and a structure file's claim is checked, never trusted."""
    assert quaternion.h_type and not aniso.h_type
    with pytest.raises(TypeError):
        MetivierStructure(n=2, m=3, maps=quaternion.maps, h_type=True)
    # a skew perturbation of one map breaks the Clifford relations
    maps = quaternion.maps.copy()
    maps[2, 0, 3] += 1e-9
    maps[2, 3, 0] -= 1e-9
    assert not MetivierStructure(n=2, m=3, maps=maps).h_type
    sf = tmp_path / "structure.json"
    for claim in ({"h_type": False}, {}):
        s = _load_structure(str(write_structure(sf, quaternion, **claim)))
        assert s.h_type and s._condition_extremes == (1.0, 1.0)
    for bad in (aniso, MetivierStructure(n=2, m=3, maps=maps)):
        with pytest.raises(ValueError, match=r"h_type claimed .* \(defect \d"):
            _load_structure(str(write_structure(sf, bad, h_type=True)))


def test_group_product_example(heis):
    x, t = product(heis, [1.0, 0.0], [0.0], [0.0, 1.0], [0.0])
    assert np.allclose(x, [1.0, 1.0])
    assert np.allclose(t, [-0.5])


def test_identity_and_inverse(heis):
    """(0, 0) is the identity and (-x, -t) the inverse of (x, t), exactly."""
    p = GroupPoint([1.0, 2.0], [3.0])
    x, t = product(heis, p.x, p.t, np.zeros(2), np.zeros(1))
    assert np.array_equal(x, p.x) and np.array_equal(t, p.t)
    x, t = product(heis, p.x, p.t, -p.x, -p.t)
    assert np.all(x == 0.0) and np.all(t == 0.0)


def test_inverse_involution(heis):
    """(-x, -t) is a two-sided inverse on a batch, exactly on Heisenberg,
    so the inverse of the inverse is the point itself."""
    x, t = random_points(heis, 100, seed=1)
    for a, b in (((x, t), (-x, -t)), ((-x, -t), (x, t))):
        qx, qt = product(heis, *a, *b)
        assert np.all(qx == 0.0) and np.all(qt == 0.0)


def test_dimension_mismatch_rejected(heis, aniso):
    p = GroupPoint([1.0, 0, 0, 0], [0.0])
    with pytest.raises(ValueError, match="dims"):
        product(heis, p.x, p.t, p.x, p.t)
    with pytest.raises(ValueError, match="1-D"):   # a point, not a batch
        GroupPoint([[1.0, 0.0]], [[0.0]])
    with pytest.raises(ValueError, match="dims"):   # an x of length 1 used to broadcast
        horizontal_coefficients(heis, np.ones((3, 1)))
    # a non-finite centre made ball_intersection_volume return 0.0 silently
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            GroupPoint([0.3, 0.0], [bad])
        with pytest.raises(ValueError, match="finite"):
            GroupPoint(np.array([bad, 0.0]), np.zeros(1))


def test_dilation_examples(heis):
    """delta_r (x, t) = (r x, r^2 t) commutes with the product; at r = 2 and
    r = 1 the scaling is exact, so the two sides agree bit for bit."""
    p, q = GroupPoint([1.0, 0.0], [1.0]), GroupPoint([0.0, 1.0], [0.0])
    for r in (2.0, 1.0):
        x, t = product(heis, r * p.x, r * r * p.t, r * q.x, r * r * q.t)
        px, pt = product(heis, p.x, p.t, q.x, q.t)
        assert np.array_equal(x, r * px) and np.array_equal(t, r * r * pt)
    assert np.array_equal(x, [1.0, 1.0]) and np.array_equal(t, [0.5])


def test_dilation_composition(heis):
    """delta_r delta_sc = delta_{r sc} on products of random points."""
    x1, t1 = random_points(heis, 100, seed=2)
    x2, t2 = random_points(heis, 100, seed=9)
    rng = np.random.default_rng(3)
    r, sc = rng.uniform(0.1, 3.0, size=(2, 100, 1))
    ax, at = product(heis, r * (sc * x1), r * r * (sc * sc * t1),
                     r * (sc * x2), r * r * (sc * sc * t2))
    bx, bt = product(heis, x1, t1, x2, t2)
    assert np.max(np.abs(ax - (r * sc) * bx)) <= 1e-12
    assert np.max(np.abs(at - (r * sc) ** 2 * bt)) <= 1e-12


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
    ex, et = np.zeros(s.horizontal_dim), np.zeros(s.m)
    for x, t in (product(s, x1, t1, ex, et), product(s, ex, et, x1, t1)):
        assert close(x, x1) and close(t, t1)
    for i in range(3):
        for qx, qt in (product(s, x1[i], t1[i], -x1[i], -t1[i]),
                       product(s, -x1[i], -t1[i], x1[i], t1[i])):
            # the central part cancels terms of size |J| |x|^2
            assert close(qx, ex) and close(qt, et, np.max(np.abs(s.maps)) * x1[i] @ x1[i])
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
    lo, hi = aniso._condition_extremes
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


@pytest.mark.parametrize("dim", range(1, 6))
def test_uniform_ball_is_uniform(dim):
    """Exactly `count` rows inside the ball, (|x|/radius)^dim uniform on (0, 1)
    by the KS distance, and each coordinate's mean within 4 standard errors of 0."""
    count, radius = 20_000, 2.5
    x = uniform_ball(np.random.default_rng(dim), count, dim, radius)
    assert x.shape == (count, dim)
    norms = np.linalg.norm(x, axis=1)
    assert np.all(norms <= radius)
    # 1.95 / sqrt(count) is the KS distance's 0.1 % point
    assert kstest((norms / radius) ** dim, "uniform").statistic < 1.95 / math.sqrt(count)
    assert np.all(np.abs(x.mean(axis=0)) <= 4.0 * x.std(axis=0, ddof=1) / math.sqrt(count))


def _assert_gaussian_directions(dim, count):
    got = uniform_ball(np.random.default_rng(dim), count, dim, 1.5)
    rng = np.random.default_rng(dim)
    want = unit_sample(rng, count, dim) * rng.uniform(size=(count, 1)) ** (1.0 / dim) * 1.5
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [3, 4, 5, 8])
def test_uniform_ball_keeps_gaussian_directions_above_dim_2(dim):
    """From dim 3 on the draw is `unit_sample` directions times radius U^(1/dim), bit for bit."""
    _assert_gaussian_directions(dim, 5_000)


@pytest.mark.parametrize("dim", [3, 4, 5, 8])
def test_uniform_ball_keeps_gaussian_directions_across_blocks(dim):
    """The same holds bit for bit when the directions and the radii are scaled
    in blocks, at a count three rows past two blocks."""
    _assert_gaussian_directions(dim, 2 * _BLOCK + 3)


class _Stream:
    """A generator stand-in whose `random` hands out a fixed stream of uniforms in order."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, size):
        n = math.prod(size)
        out = self.values[self.used:self.used + n].reshape(size)
        self.used += n
        return out.copy()


@pytest.mark.parametrize("dim, count", [(1, 7), (2, 1), (2, 3), (2, 500)])
def test_uniform_ball_keeps_the_cube_points_in_draw_order(dim, count):
    """Up to dim 2 the points are the first `count` cube points 2u - 1 of the
    uniform stream that lie in the unit ball, times radius.  Dim 1 keeps every
    draw; at dim 2 a stream that opens with 30 corner points makes a small
    count's first round come back empty."""
    stream = np.concatenate([np.full(30 * dim, 0.99),
                             np.random.default_rng(count).random(4 * count * dim + 100)])
    rng = _Stream(stream)
    got = uniform_ball(rng, count, dim, 3.0)
    cube = 2.0 * stream.reshape(-1, dim) - 1.0
    inside = cube[np.sum(cube * cube, axis=1) <= 1.0]
    assert np.array_equal(got, inside[:count] * 3.0)
    assert rng.used == count if dim == 1 else rng.used > 60


def _first_round_count(rows: int) -> int:
    """The smallest count whose first disc round draws `rows` rows."""
    count = max(0, -(-3 * (rows - 16) // 4))
    assert count * 4 // 3 + 16 == rows
    return count


# a first round of _BLOCK - 1 rows does not occur (count * 4 // 3 skips 3 mod 4); _BLOCK - 2 does
@pytest.mark.parametrize("count, seed, rounds", [
    (1, 0, 1), (268, 2715, 2), (3 * _BLOCK + 5, 0, 1),
    *[(_first_round_count(rows), 0, 1)
      for rows in (_BLOCK - 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]])
def test_uniform_disc_matches_take_then_copy(count, seed, rounds):
    """The disc's kept rows, drawn and tested in blocks and taken straight into
    the output, have the bits of the one-call take-then-copy reference and leave
    the stream where it does, also when a round's last block is drawn untested
    or a round is one row past a block; seed 2715 at count 268 needs a second
    rejection round."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, used = oracles.disc_take_then_copy(ref_rng, count, 1.5)
    assert used == rounds
    assert uniform_ball(rng, count, 2, 1.5).tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("outer", [_BLOCK - 1, _BLOCK + 1])
def test_thinness_blocked_membership_matches_one_shot(heis, outer):
    """The outer membership test over `_BLOCK`-row slices gives the integral of
    the one-shot test, bit for bit, on either side of a block edge."""
    spec = SublevelSpec(3.0, 10.0)
    got = thinness_integral(spec, heis, 1.0, 2.0, 16.0, outer, 20, seed=5)
    want = oracles.thinness_one_shot(spec, heis, 1.0, 2.0, 16.0, outer, 20, seed=5)
    assert got.members > 0 and got.evaluated > 0
    assert (got.value, got.std_error, got.members, got.evaluated) == (
        want.value, want.std_error, want.members, want.evaluated)


def test_sampling_memory_is_bounded_by_the_block(heis):
    """Traced peaks of 1 M-sample draws: a ball draw holds its output and a few
    blocks, at dims 2-4, and a ball volume its two draws (23 MB) and a few blocks."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for dim in (2, 3, 4):
        out, top = peak(uniform_ball, np.random.default_rng(0), 10 ** 6, dim, 1.0)
        assert top <= 1.25 * out.nbytes
    _, top = peak(ball_intersection_volume, SublevelSpec(3.0, 10.0), heis,
                  GroupPoint([0.5, 0.0], [8.0]), 1.0, 10 ** 6, np.random.default_rng(0))
    assert top <= 28 * 2 ** 20


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_uniform_ball_seeded_and_small_counts(dim):
    """The same seed gives the same array; count 0 is a (0, dim) array, count 1
    one point in the ball, radius 0 the centre."""
    a = uniform_ball(np.random.default_rng(11), 300, dim, 2.0)
    assert np.array_equal(a, uniform_ball(np.random.default_rng(11), 300, dim, 2.0))
    rng = np.random.default_rng(0)
    assert uniform_ball(rng, 0, dim, 1.0).shape == (0, dim)
    one = uniform_ball(rng, 1, dim, 0.5)
    assert one.shape == (1, dim) and np.linalg.norm(one) <= 0.5
    assert np.array_equal(uniform_ball(rng, 4, dim, 0.0), np.zeros((4, dim)))


@pytest.mark.parametrize("dim, count, radius", [
    (0, 5, 1.0), (-1, 5, 1.0), (2, -1, 1.0), (3, -1, 1.0), (2, 5, -1.0), (4, 5, -0.5),
    (1, 5, math.nan), (2, 5, math.inf), (3, 5, -math.inf)])
def test_uniform_ball_refuses_bad_input(dim, count, radius):
    with pytest.raises(ValueError):
        uniform_ball(np.random.default_rng(0), count, dim, radius)


def test_structure_file_read(aniso, tmp_path):
    """A structure file reads back with equal dimensions, bit-equal maps and
    the same h_type."""
    back = _load_structure(str(write_structure(tmp_path / "aniso.json", aniso)))
    assert (back.n, back.m, back.h_type) == (aniso.n, aniso.m, aniso.h_type)
    assert back.maps.tobytes() == aniso.maps.tobytes()


def _check_against_einsum(got, want, scale, exact: bool):
    """Equal to the einsum when `exact`, else within 1e-14 of the row's absolute sum."""
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40))
def test_contraction_helpers_match_einsum(heis, aniso, quaternion, degenerate, data, seed, count):
    """`_dot` and `apply_maps` against the einsums they replace: the same bits
    when 2n = 2 and m = 1, and within 1e-14 of the row's absolute sum otherwise."""
    s = data.draw(st.one_of(st.sampled_from([heis, aniso, quaternion, degenerate]),
                            skew_structures(n_range=(1, 2), m_range=(1, 3))))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))
    x = rng.uniform(-2.0, 2.0, size=(count, s.horizontal_dim)) * scale
    y = rng.uniform(-2.0, 2.0, size=(count, s.horizontal_dim)) * scale
    t = rng.uniform(-2.0, 2.0, size=(count, s.m)) * scale ** 2
    small = s.horizontal_dim == 2 and s.m == 1
    _check_against_einsum(s.apply_maps(x), np.einsum("kij,...j->...ki", s.maps, x),
                          np.einsum("kij,...j->...ki", np.abs(s.maps), np.abs(x)), small)
    for a, b, exact in ((x, x, s.horizontal_dim == 2), (x, y, s.horizontal_dim == 2),
                        (t, t, s.m == 1)):
        _check_against_einsum(_dot(a, b), np.einsum("...i,...i->...", a, b),
                              np.einsum("...i,...i->...", np.abs(a), np.abs(b)), exact)


def test_contraction_helpers_edge_cases(heis, aniso, quaternion, degenerate):
    """An empty batch, a single point against a batch, and an all-zero map row."""
    for s in (heis, aniso, quaternion, degenerate):
        d, m = s.horizontal_dim, s.m
        assert s.apply_maps(np.zeros((0, d))).shape == (0, m, d)
        assert _dot(np.zeros((0, d)), np.zeros((0, d))).shape == (0,)
        px, pt = product(s, np.zeros((0, d)), np.zeros((0, m)), np.zeros((0, d)), np.zeros((0, m)))
        assert px.shape == (0, d) and pt.shape == (0, m)
        x, t = random_points(s, 50, seed=11)
        for (x1, t1), (x2, t2) in (((x[0], t[0]), (x, t)), ((x, t), (x[0], t[0]))):
            got = product(s, x1, t1, x2, t2)
            rows = [product(s, *(np.broadcast_to(a, x.shape[:1] + a.shape[-1:])[i]
                                 for a in (x1, t1, x2, t2))) for i in range(50)]
            assert np.array_equal(got[0], np.array([r[0] for r in rows]))
            assert np.array_equal(got[1], np.array([r[1] for r in rows]))
        assert s.apply_maps(x[0]).shape == (m, d)
        assert np.array_equal(s.apply_maps(x[0]), s.apply_maps(x)[0])
    zero_rows = degenerate.apply_maps(random_points(degenerate, 50, seed=12)[0])[:, 0, 2:]
    assert np.all(zero_rows == 0.0) and not np.any(np.signbit(zero_rows))
