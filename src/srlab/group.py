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

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SKEW_TOL = 1e-14
HTYPE_TOL = 1e-12


def _require_finite(name: str, value: float, positive: bool = False):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MetivierStructure:
    """Dimensions (n, m) and the m skew maps acting on the horizontal layer.

    ``maps`` has shape (m, 2n, 2n).  ``h_type`` records that the stronger
    J_t^2 = -|t|^2 Id identity was requested and verified exactly at
    construction time, through the equivalent Clifford relations
    (J_k J_l + J_l J_k) / 2 = -delta_kl Id, to HTYPE_TOL.
    """

    n: int
    m: int
    maps: np.ndarray
    h_type: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")
        maps = _as_readonly(np.asarray(self.maps, dtype=float))
        d = 2 * self.n
        if maps.shape != (self.m, d, d):
            raise ValueError(f"maps must have shape ({self.m}, {d}, {d}), got {maps.shape}")
        skew_defect = np.max(np.abs(maps + np.swapaxes(maps, 1, 2)))
        if skew_defect > SKEW_TOL:
            raise ValueError(f"maps are not skew-symmetric (defect {skew_defect:.3e})")
        object.__setattr__(self, "maps", maps)
        if self.h_type:
            self._check_h_type()

    def _check_h_type(self):
        prods = np.einsum("kij,ljh->klih", self.maps, self.maps)
        clifford = np.einsum("kl,ih->klih", np.eye(self.m), np.eye(2 * self.n))
        defect = np.max(np.abs(0.5 * (prods + prods.transpose(1, 0, 2, 3)) + clifford))
        if defect > HTYPE_TOL:
            raise ValueError(f"h_type requested but J_t^2 != -|t|^2 Id (defect {defect:.3e})")

    @property
    def horizontal_dim(self) -> int:
        return 2 * self.n

    @cached_property
    def _map_singular_values(self) -> np.ndarray:
        """Singular values of each map, shape (m, 2n), descending; one SVD per structure."""
        return np.linalg.svd(self.maps, compute_uv=False)

    @cached_property
    def _condition_extremes(self) -> tuple:
        """(c0, C0) when no estimate is supplied, computed once per structure.

        Exact where `exact_condition_extremes` applies, else the extremes of
        a 10,000-pair `verify_metivier` sample at seed 0.
        """
        exact = exact_condition_extremes(self)
        if exact is not None:
            return exact
        est = verify_metivier(self, samples=10_000, seed=0)
        return est.c0, est.C0

    def check_point(self, p: "GroupPoint"):
        if p.x.shape != (self.horizontal_dim,) or p.t.shape != (self.m,):
            raise ValueError(
                f"point dims {p.x.shape}/{p.t.shape} do not match structure "
                f"(2n={self.horizontal_dim}, m={self.m})"
            )

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "J": self.maps.tolist(), "h_type": self.h_type}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "MetivierStructure":
        return cls(n=int(d["n"]), m=int(d["m"]), maps=np.asarray(d["J"], dtype=float),
                   h_type=bool(d.get("h_type", False)))

    @classmethod
    def from_json(cls, text: str) -> "MetivierStructure":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GroupPoint:
    """Element (x, t) of the group in exponential coordinates; finite coordinates only."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_readonly(np.atleast_1d(self.x)))
        object.__setattr__(self, "t", _as_readonly(np.atleast_1d(self.t)))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.t))):
            raise ValueError(f"point coordinates must be finite, got x={self.x}, t={self.t}")


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
    return MetivierStructure(n=1, m=1, maps=j, h_type=True)


def identity(s: MetivierStructure) -> GroupPoint:
    return GroupPoint(np.zeros(s.horizontal_dim), np.zeros(s.m))


def point(s: MetivierStructure, x, t) -> GroupPoint:
    p = GroupPoint(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    s.check_point(p)
    return p


def product(s: MetivierStructure, x1, t1, x2, t2):
    """Group product on raw coordinate arrays; broadcasts over leading axes."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    jk_x1 = np.einsum("kij,...j->...ki", s.maps, x1)
    central = 0.5 * np.einsum("...ki,...i->...k", jk_x1, x2)
    return x1 + x2, t1 + t2 + central


def multiply(s: MetivierStructure, p: GroupPoint, q: GroupPoint) -> GroupPoint:
    s.check_point(p)
    s.check_point(q)
    x, t = product(s, p.x, p.t, q.x, q.t)
    return GroupPoint(x, t)


def inverse(s: MetivierStructure, p: GroupPoint) -> GroupPoint:
    s.check_point(p)
    return GroupPoint(-p.x, -p.t)


def dilate(s: MetivierStructure, r: float, p: GroupPoint) -> GroupPoint:
    if r <= 0:
        raise ValueError("dilation parameter must be positive")
    s.check_point(p)
    return GroupPoint(r * p.x, r * r * p.t)


def homogeneous_dimension(s: MetivierStructure) -> int:
    return 2 * s.n + 2 * s.m


def unit_sample(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on the unit sphere S^{dim-1}, one Gaussian draw per row."""
    v = rng.standard_normal((count, dim))
    # the squared columns added in order: np.linalg.norm's bits for dim <= 7, 1/5 the time
    norms = np.sqrt(sum(v[:, j] * v[:, j] for j in range(dim)))[:, None]
    # a Gaussian draw is never exactly zero in practice; guard anyway
    norms[norms == 0.0] = 1.0
    return v / norms


def uniform_ball(rng: np.random.Generator, count: int, dim: int,
                 radius: float) -> np.ndarray:
    """Uniform points in the ball of `radius` in R^dim: `unit_sample` directions
    scaled by radius U^(1/dim)."""
    return unit_sample(rng, count, dim) * rng.uniform(size=(count, 1)) ** (1.0 / dim) * radius


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
    jk_x = np.einsum("kij,sj->ski", s.maps, x)
    jt_x = np.einsum("sk,ski->si", t, jk_x)
    sq = np.einsum("si,si->s", jt_x, jt_x)
    return ConditionEstimate(c0=float(sq.min()), C0=float(sq.max()),
                             sample_count=samples, seed=seed)


def exact_condition_extremes(s: MetivierStructure):
    """Exact (c0, C0) where tractable, else None.

    H-type gives (1, 1).  For a one-dimensional centre the unit central
    vectors are +-u_1 and the extremes are the squared extreme singular
    values of the single map.
    """
    if s.h_type:
        return 1.0, 1.0
    if s.m == 1:
        sv = s._map_singular_values[0]
        return float(sv[-1] ** 2), float(sv[0] ** 2)
    return None
