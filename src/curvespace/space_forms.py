"""Constant-curvature model spaces and their geodesic polar geometry.

All four models use a fixed ambient embedding so that the Levi-Civita
covariant derivative is the ambient derivative followed by a tangent
projection:

* ``plane2d``       -- R^2, curvature 0
* ``sphere2d``      -- sphere of radius 1/sqrt(K) in R^3, K > 0
* ``hyperbolic2d``  -- upper hyperboloid <x,x> = 1/K in Minkowski R^{2,1}
                       with signature (+, +, -), K < 0
* ``euclidean3d``   -- R^3, curvature 0

The polar length element ``omega(r)`` of geodesic circles around a point,
its radial derivative, and the closed-form exponential map of each model
live here as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError

SURFACE_TOL = 1e-9
FRAME_ORTHO_TOL = 1e-12

# switch omega(r) to its Taylor series below this value of |K| r^2
_SERIES_THRESHOLD = 1e-8


class Model(str, enum.Enum):
    PLANE2D = "plane2d"
    SPHERE2D = "sphere2d"
    HYPERBOLIC2D = "hyperbolic2d"
    EUCLIDEAN3D = "euclidean3d"


@dataclass(frozen=True)
class SpaceForm:
    """Ambient space of constant sectional curvature.

    Immutable value type; all operations on it are pure.
    """

    model: Model
    curvature: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "curvature", float(self.curvature))
        K = self.curvature
        if not math.isfinite(K):
            raise DomainError(f"curvature must be finite, got {K}")
        if self.model in (Model.PLANE2D, Model.EUCLIDEAN3D) and K != 0.0:
            raise DomainError(f"{self.model.value} requires curvature 0, got {K}")
        if self.model is Model.SPHERE2D and K <= 0.0:
            raise DomainError(f"sphere2d requires curvature > 0, got {K}")
        if self.model is Model.HYPERBOLIC2D and K >= 0.0:
            raise DomainError(f"hyperbolic2d requires curvature < 0, got {K}")

    @property
    def ambient_dim(self) -> int:
        return 2 if self.model is Model.PLANE2D else 3

    @property
    def curved(self) -> bool:
        return self.model in (Model.SPHERE2D, Model.HYPERBOLIC2D)

    @property
    def lorentzian(self) -> bool:
        return self.model is Model.HYPERBOLIC2D

    @property
    def radius(self) -> float:
        """Embedding radius 1/sqrt(|K|) of the curved models."""
        if not self.curved:
            raise DomainError("flat models have no embedding radius")
        return 1.0 / math.sqrt(abs(self.curvature))

    # -- ambient metric ------------------------------------------------

    def inner(self, u, v):
        """Ambient inner product, Minkowski on the hyperboloid model."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.lorentzian:
            return (
                u[..., 0] * v[..., 0]
                + u[..., 1] * v[..., 1]
                - u[..., 2] * v[..., 2]
            )
        return np.sum(u * v, axis=-1)

    def norm(self, u):
        # tangent vectors of the hyperboloid are spacelike; clip roundoff
        return np.sqrt(np.clip(self.inner(u, u), 0.0, None))

    # -- surface membership --------------------------------------------

    def surface_distance(self, p):
        """Approximate ambient distance of ``p`` from the model surface."""
        p = np.asarray(p, dtype=float)
        if not self.curved:
            return np.zeros(p.shape[:-1])
        R = self.radius
        if self.model is Model.SPHERE2D:
            return np.abs(np.sqrt(np.sum(p * p, axis=-1)) - R)
        # |f - R| / |grad f| for f = sqrt(q): rounding floor eps |p|, not eps |p|^2
        q = -self.inner(p, p)
        bad = (q <= 0.0) | (p[..., 2] <= 0.0)
        root = np.sqrt(np.abs(q))
        dist = np.abs(root - R) * root / np.linalg.norm(p, axis=-1)
        return np.where(bad, np.inf, dist)

    def check_on_surface(self, p):
        scale = 1.0 + (self.radius if self.curved else 1.0)
        if np.any(self.surface_distance(p) > SURFACE_TOL * scale):
            raise DomainError(f"point is not on the {self.model.value} surface")

    def project_to_surface(self, p):
        """Radially rescale ``p`` back onto the model surface."""
        p = np.asarray(p, dtype=float)
        if not self.curved:
            return p
        R = self.radius
        if self.model is Model.SPHERE2D:
            return p * (R / np.linalg.norm(p, axis=-1))[..., None]
        q = -self.inner(p, p)
        if np.any(q <= 0.0) or np.any(p[..., 2] <= 0.0):
            raise DomainError("point cannot be projected onto the upper hyperboloid")
        return p * (R / np.sqrt(q))[..., None]

    # -- tangent projection --------------------------------------------

    def tangent_project(self, point, v, *, check: bool = True):
        """Component of ``v`` tangent to the surface at ``point``.

        Linear and idempotent.  Identity on the flat models; Euclidean
        projection on the sphere and Minkowski projection on the
        hyperboloid.  Broadcasts over leading axes.
        """
        v = np.asarray(v, dtype=float)
        if not self.curved:
            return v
        point = np.asarray(point, dtype=float)
        if check:
            self.check_on_surface(point)
        coeff = self.inner(v, point) / self.inner(point, point)
        return v - coeff[..., None] * point


def plane() -> SpaceForm:
    return SpaceForm(Model.PLANE2D, 0.0)


def sphere(curvature: float = 1.0) -> SpaceForm:
    return SpaceForm(Model.SPHERE2D, curvature)


def hyperbolic(curvature: float = -1.0) -> SpaceForm:
    return SpaceForm(Model.HYPERBOLIC2D, curvature)


def euclidean3d() -> SpaceForm:
    return SpaceForm(Model.EUCLIDEAN3D, 0.0)


def surface_of_curvature(K: float) -> SpaceForm:
    """The 2D space form with sectional curvature ``K``."""
    if K > 0.0:
        return sphere(K)
    if K < 0.0:
        return hyperbolic(K)
    return SpaceForm(Model.PLANE2D, K)  # rejects NaN


# ---------------------------------------------------------------------------
# polar length element


def _omega_series(K: float, r):
    om = r * (1.0 - K * r * r / 6.0 + (K * r * r) ** 2 / 120.0)
    om_r = 1.0 - K * r * r / 2.0 + (K * r * r) ** 2 / 24.0
    return om, om_r


def _check_radius(space: SpaceForm, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("polar radius must be positive")
    K = space.curvature
    if space.model is Model.SPHERE2D and np.any(r >= math.pi / math.sqrt(K)):
        raise DomainError("polar radius reaches the spherical cut locus")
    return r


def omega_profile(space: SpaceForm, r):
    """Length element ``omega(r)`` of the polar circle and its r-derivative.

    Case table: sin(sqrt(K) r)/sqrt(K) for K > 0, r for K = 0, and
    sinh(sqrt(-K) r)/sqrt(-K) for K < 0.  Near K = 0 a Taylor series is
    used to avoid cancellation, so the profile is continuous in K.
    """
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = _check_radius(space, r)
    K = space.curvature
    if K == 0.0:
        om, om_r = r.copy(), np.ones_like(r)
    else:
        series = np.abs(K) * r * r < _SERIES_THRESHOLD
        if K > 0.0:
            s = math.sqrt(K)
            om, om_r = np.sin(s * r) / s, np.cos(s * r)
        else:
            s = math.sqrt(-K)
            om, om_r = np.sinh(s * r) / s, np.cosh(s * r)
        if np.any(series):
            om_s, om_r_s = _omega_series(K, r)
            om = np.where(series, om_s, om)
            om_r = np.where(series, om_r_s, om_r)
    if scalar:
        return float(om), float(om_r)
    return om, om_r


def jacobi_residual(space: SpaceForm, r):
    """Defect ``omega_rr + K omega`` of the closed-form profile.

    The second derivative is evaluated from its own closed form, so the
    result measures genuine floating-point consistency rather than being
    zero by construction.
    """
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = _check_radius(space, r)
    K = space.curvature
    om, _ = omega_profile(space, r)
    if K == 0.0:
        om_rr = np.zeros_like(r)
    else:
        series = np.abs(K) * r * r < _SERIES_THRESHOLD
        if K > 0.0:
            s = math.sqrt(K)
            om_rr = -s * np.sin(s * r)
        else:
            s = math.sqrt(-K)
            om_rr = s * np.sinh(s * r)
        if np.any(series):
            om_rr_s = -K * r * (1.0 - K * r * r / 6.0 + (K * r * r) ** 2 / 120.0)
            om_rr = np.where(series, om_rr_s, om_rr)
    res = om_rr + K * om
    return float(res) if scalar else res


# ---------------------------------------------------------------------------
# polar frames and the exponential map


@dataclass(frozen=True)
class PolarFrame:
    """Center point plus an orthonormal tangent pair spanning polar coordinates."""

    center: np.ndarray
    e1: np.ndarray
    e2: np.ndarray


def polar_frame(space: SpaceForm, center, e1, e2) -> PolarFrame:
    """Validated polar frame; orthonormality is required, never repaired."""
    center = np.asarray(center, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if center.shape != (space.ambient_dim,):
        raise DomainError("frame center has the wrong ambient dimension")
    space.check_on_surface(center)
    for e in (e1, e2):
        resid = e - space.tangent_project(center, e, check=False)
        if float(space.norm(resid)) > SURFACE_TOL:
            raise DomainError("frame vector is not tangent at the center")
    if (
        abs(float(space.inner(e1, e1)) - 1.0) > FRAME_ORTHO_TOL
        or abs(float(space.inner(e2, e2)) - 1.0) > FRAME_ORTHO_TOL
        or abs(float(space.inner(e1, e2))) > FRAME_ORTHO_TOL
    ):
        raise DomainError("frame vectors are not orthonormal to 1e-12")
    return PolarFrame(center=center, e1=e1, e2=e2)


def standard_frame(space: SpaceForm) -> PolarFrame:
    """Canonical frame: origin of the plane, pole of the curved models."""
    if space.model is Model.PLANE2D:
        return polar_frame(space, [0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    if space.model is Model.EUCLIDEAN3D:
        return polar_frame(space, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    center = np.array([0.0, 0.0, space.radius])
    return polar_frame(space, center, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def exp_polar(space: SpaceForm, frame: PolarFrame, r, t):
    """Riemannian exponential of ``r (cos t e1 + sin t e2)`` at the frame center.

    ``t`` may be an array; the result then has shape ``(len(t), dim)``.
    ``r`` may be an array of m radii; the result then has a leading axis
    of length m, ``(m, len(t), dim)``.  The radius factors are scalar
    ``math`` functions of each radius, the same arithmetic for one radius
    or many.
    """
    radii = _check_radius(space, r)
    t = np.asarray(t, dtype=float)
    direction = (
        np.cos(t)[..., None] * frame.e1 + np.sin(t)[..., None] * frame.e2
    )
    shape = radii.shape + (1,) * direction.ndim
    if not space.curved:
        return frame.center + radii.reshape(shape) * direction
    R = space.radius
    cos, sin = (math.cos, math.sin) if space.model is Model.SPHERE2D else (math.cosh, math.sinh)
    rs = radii.ravel().tolist()
    a = np.array([cos(x / R) for x in rs]).reshape(shape)
    b = np.array([R * sin(x / R) for x in rs]).reshape(shape)
    return a * frame.center + b * direction


# ---------------------------------------------------------------------------
# serialization


def space_to_dict(space: SpaceForm) -> dict:
    return {"model": space.model.value, "curvature": space.curvature}


def json_number(data: dict, key: str) -> float:
    """``data[key]`` as a float; a JSON number, not a boolean or a string."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{key} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise DomainError(f"{key} is out of range") from exc


def json_count(data: dict, key: str) -> int:
    """``data[key]`` as an int; a JSON integer, not a boolean or a float."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{key} must be an integer, not {value!r}")
    return value


def json_flag(data: dict, key: str) -> bool:
    """``data[key]``; a JSON boolean, not any truthy value."""
    value = data[key]
    if not isinstance(value, bool):
        raise DomainError(f"{key} must be true or false, not {value!r}")
    return value


def json_array(data: dict, key: str) -> np.ndarray:
    """``data[key]`` as a float array; nested JSON arrays of numbers.

    A string, a null, a boolean or an integer beyond int64 anywhere is
    rejected; a ragged nesting raises ValueError.  numpy reads a boolean
    among numbers as 0 or 1, so the elements' types are also checked, in
    one C-level pass over the innermost lists.
    """
    values = np.asarray(data[key])
    flat = data[key] if values.ndim else [data[key]]
    for _ in range(values.ndim - 1):
        flat = chain.from_iterable(flat)
    if values.dtype.kind not in "iuf" or bool in set(map(type, flat)):
        raise DomainError(f"{key} must be an array of numbers")
    return values.astype(float)


def space_from_dict(data: dict) -> SpaceForm:
    try:
        return SpaceForm(Model(data["model"]), json_number(data, "curvature"))
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"invalid space form description: {data!r}") from exc
