"""Step-two Metivier group structures in exponential coordinates.

A group element is a pair (x, t) with x in R^{2n} (horizontal part) and
t in R^m (central part).  The structure is encoded by m skew-symmetric
2n x 2n matrices J_1, ..., J_m; writing J_t = sum_k t_k J_k, the product is

    (x, t) . (x', t') = (x + x', t + t' + (1/2) sum_k (J_k x, x') u_k)

with u_k the standard basis of the centre.  The Metivier condition asks
that J_t is non-degenerate for every t != 0; the H-type condition is the
stronger J_t^2 = -|t|^2 Id.  Dilations act as (x, t) -> (r x, r^2 t) and
the homogeneous dimension is Q = 2n + 2m.

Sign convention: (J_t x)_i = sum_j (J_t)_{ij} x_j.  The Heisenberg
instance is fixed to J = [[0, 1], [-1, 0]], which makes the left-invariant
horizontal fields X_1 = d/dx_1 + (x_2/2) d/dt and X_2 = d/dx_2 - (x_1/2) d/dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SKEW_TOL = 1e-14
HTYPE_TOL = 1e-12
_BLOCK = 1 << 14   # rows per block of a node sum or of a sampling stage's temporaries


def _require_finite(name: str, value: float, positive: bool = False):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _dot(a, b) -> np.ndarray:
    """sum_i a[..., i] * b[..., i], broadcast over the leading axes; the terms
    are added in index order, so the sum is the same on every numpy build."""
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def _scaled(x, j: int, c: float):
    """c x[..., j]; a coefficient of +-1 is a view or a negation."""
    return x[..., j] if c == 1.0 else -x[..., j] if c == -1.0 else c * x[..., j]


def _finite_readonly(name: str, a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    if not np.isfinite(out).all():   # NaN would pass every comparison after this
        raise ValueError(f"{name} must be finite, got {out.tolist()}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MetivierStructure:
    """Dimensions (n, m) and the m skew maps acting on the horizontal layer.

    ``maps`` has shape (m, 2n, 2n).  ``h_type`` is derived from the maps: it
    is True when the stronger J_t^2 = -|t|^2 Id identity holds, checked
    through the equivalent Clifford relations
    (J_k J_l + J_l J_k) / 2 = -delta_kl Id to HTYPE_TOL.
    """

    n: int
    m: int
    maps: np.ndarray
    h_type: bool = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")
        maps = _finite_readonly("maps", self.maps)
        d = 2 * self.n
        if maps.shape != (self.m, d, d):
            raise ValueError(f"maps must have shape ({self.m}, {d}, {d}), got {maps.shape}")
        skew_defect = np.max(np.abs(maps + np.swapaxes(maps, 1, 2)))
        if skew_defect > SKEW_TOL:
            raise ValueError(f"maps are not skew-symmetric (defect {skew_defect:.3e})")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "h_type", bool(self._clifford_defect <= HTYPE_TOL))

    @property
    def _clifford_defect(self) -> float:
        """max |(J_k J_l + J_l J_k) / 2 + delta_kl Id|: 0 exactly on H-type maps."""
        prods = np.einsum("kij,ljh->klih", self.maps, self.maps)
        clifford = np.einsum("kl,ih->klih", np.eye(self.m), np.eye(2 * self.n))
        return float(np.max(np.abs(0.5 * (prods + prods.transpose(1, 0, 2, 3)) + clifford)))

    @property
    def horizontal_dim(self) -> int:
        return 2 * self.n

    @cached_property
    def _map_singular_values(self) -> np.ndarray:
        """Singular values of each map, shape (m, 2n), descending; one SVD per structure."""
        return np.linalg.svd(self.maps, compute_uv=False)

    @cached_property
    def _condition_extremes(self) -> tuple:
        """(c0, C0), the extremes of |J_t x|^2 over unit pairs, once per structure.

        Exact on H-type maps, (1, 1), and for m = 1, the squared extreme
        singular values of the single map (t = +-u_1).  Otherwise heuristic:
        the extremes of a 10,000-pair `verify_metivier` sample at seed 0.
        """
        if self.h_type:
            return 1.0, 1.0
        if self.m == 1:
            sv = self._map_singular_values[0]
            return float(sv[-1] ** 2), float(sv[0] ** 2)
        est = verify_metivier(self, samples=10_000, seed=0)
        return est.c0, est.C0

    @cached_property
    def _map_plan(self) -> tuple:
        """For each (k, i), the nonzero entries (j, J_k[i, j]) of that row in j order."""
        return tuple(tuple(tuple((j, float(c)) for j, c in enumerate(row) if c != 0.0)
                           for row in jk)
                     for jk in self.maps)

    def apply_maps(self, x) -> np.ndarray:
        """J_k x for every k, shape (..., m, 2n), from `_map_plan`.

        Each row adds its nonzero terms in j order; a coefficient of +-1 is a
        copy or a negation, and a row with no nonzero entry is zeros.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.m, self.horizontal_dim))
        for k, rows in enumerate(self._map_plan):
            for i, row in enumerate(rows):
                o = out[..., k, i]
                o[...] = _scaled(x, *row[0]) if row else 0.0
                for term in row[1:]:
                    o += _scaled(x, *term)
        return out

    def check_dims(self, x, t=None):
        """Refuse coordinates whose trailing axes are not (2n,) and (m,), x alone if t
        is None: a wrong length would broadcast through `apply_maps`."""
        if np.shape(x)[-1:] != (self.horizontal_dim,) or (
                t is not None and np.shape(t)[-1:] != (self.m,)):
            raise ValueError(f"coordinate dims {np.shape(x)}/{np.shape(t)} do not match "
                             f"structure (2n={self.horizontal_dim}, m={self.m})")


@dataclass(frozen=True)
class GroupPoint:
    """Element (x, t) of the group in exponential coordinates; finite coordinates only."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _finite_readonly("point x", np.atleast_1d(self.x)))
        object.__setattr__(self, "t", _finite_readonly("point t", np.atleast_1d(self.t)))
        if self.x.ndim != 1 or self.t.ndim != 1:
            raise ValueError(f"a point has 1-D coordinates, got {self.x.shape}/{self.t.shape}")


@dataclass(frozen=True)
class ConditionEstimate:
    """Sampled extremes of |J_t x|^2 over unit x, unit t.

    c0 > 0 certifies the Metivier condition on the drawn sample; for H-type
    structures c0 = C0 = 1 up to rounding.
    """

    c0: float
    C0: float
    sample_count: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.c0 <= self.C0):
            raise ValueError("expected 0 <= c0 <= C0")


def make_heisenberg() -> MetivierStructure:
    """Canonical 3-dimensional instance: n = m = 1, J = [[0, 1], [-1, 0]]."""
    j = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
    return MetivierStructure(n=1, m=1, maps=j)


def product(s: MetivierStructure, x1, t1, x2, t2):
    """Group product on raw coordinate arrays; broadcasts over leading axes."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    s.check_dims(x1, t1)
    s.check_dims(x2, t2)
    central = 0.5 * _dot(s.apply_maps(x1), x2[..., None, :])
    return x1 + x2, t1 + t2 + central


def homogeneous_dimension(s: MetivierStructure) -> int:
    return 2 * s.n + 2 * s.m


def unit_sample(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on the unit sphere S^{dim-1}, one Gaussian draw per row,
    normalised in place over blocks of `_BLOCK` rows."""
    v = rng.standard_normal((count, dim))
    for b in range(0, count, _BLOCK):
        blk = v[b:b + _BLOCK]
        # the squared columns added in order: np.linalg.norm's bits for dim <= 7, 1/5 the time
        norms = np.sqrt(_dot(blk, blk))[:, None]
        # a Gaussian draw is never exactly zero in practice; guard anyway
        norms[norms == 0.0] = 1.0
        blk /= norms
    return v


def uniform_ball(rng: np.random.Generator, count: int, dim: int,
                 radius: float) -> np.ndarray:
    """Uniform points in the ball of `radius` in R^dim, shape (count, dim).

    Dims 1 and 2 scale points 2u - 1 of the cube [-1, 1]^dim, at dim 2 the first
    `count` in the unit disc in draw order (acceptance pi/4); higher dims scale
    `unit_sample` directions by U^(1/dim), as a normal costs about six uniforms
    and the cube's acceptance falls with dim (Devroye 1986, ch. 2).  Every stage
    runs in blocks of `_BLOCK` rows: a disc round of need * 4 // 3 + 16 rows is
    drawn block by block, each block's kept rows taken into the output and the
    blocks after it is full drawn untested, so points and stream are a one-call
    draw's and no stage holds more than `_BLOCK` rows beyond the output.
    """
    if dim < 1 or count < 0 or not 0.0 <= radius < math.inf:
        raise ValueError(f"need dim >= 1, count >= 0 and a finite radius >= 0, "
                         f"got {dim}, {count}, {radius}")
    if dim > 2:
        out = unit_sample(rng, count, dim)
        for b in range(0, count, _BLOCK):
            u = rng.uniform(size=(min(_BLOCK, count - b), 1))
            u **= 1.0 / dim
            out[b:b + _BLOCK] *= u
    elif dim == 1:
        out = rng.random((count, 1))
        out *= 2.0
        out -= 1.0
    else:
        # mode "clip" takes into `out` unbuffered; every index is in range
        out = np.empty((count, 2))
        kept = 0
        while kept < count:     # a second round is rare: the first keeps ~1.05 need + 12
            left = (count - kept) * 4 // 3 + 16
            while left:
                v = rng.random((min(left, _BLOCK), 2))
                left -= len(v)
                if kept < count:
                    v *= 2.0
                    v -= 1.0
                    idx = np.flatnonzero(_dot(v, v) <= 1.0)[:count - kept]
                    np.take(v, idx, axis=0, out=out[kept:kept + idx.size], mode="clip")
                    kept += idx.size
    out *= radius
    return out


def verify_metivier(s: MetivierStructure, samples: int, seed: int = 0) -> ConditionEstimate:
    """Sampled min/max of |J_t x|^2 over unit pairs; deterministic given seed.

    The min is a lower-bound *witness* only over the drawn sample: the true
    minimum over the product of spheres is a nonconvex problem.  Drawing all
    sample data as one array makes the estimate for a larger count an
    extension of the smaller one under the same seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, s.horizontal_dim + s.m))
    x = raw[:, : s.horizontal_dim]
    t = raw[:, s.horizontal_dim:]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    jt_x = _dot(np.swapaxes(s.apply_maps(x), -1, -2), t[..., None, :])
    sq = _dot(jt_x, jt_x)
    return ConditionEstimate(c0=float(sq.min()), C0=float(sq.max()),
                             sample_count=samples, seed=seed)

