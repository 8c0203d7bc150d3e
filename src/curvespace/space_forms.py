"""Constant-curvature model spaces and their geodesic polar geometry.

All four models use a fixed ambient embedding so that the Levi-Civita
covariant derivative is the ambient derivative followed by a tangent
projection:

* ``plane2d``       -- R^2, curvature 0
* ``sphere2d``      -- sphere of radius 1/sqrt(K) in R^3, K > 0
* ``hyperbolic2d``  -- upper hyperboloid <x,x> = 1/K in Minkowski R^{2,1}
                       with signature (+, +, -), K < 0
* ``euclidean3d``   -- R^3, curvature 0

``SpaceForm`` is the one place that knows each model's surface geometry:
the ambient inner product, the distance of a point from the surface and
of a vector from the tangent plane, the tangent projection, tangent
coordinates in which the metric is Euclidean, and the 2D normal.  The
polar length element ``omega(r)`` of geodesic circles around a point and
its r-derivatives (one case table), and the closed-form exponential map
of each model live here as well.
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
        """Ambient inner product, Minkowski on the hyperboloid model.

        One component sum in index order: the rounding of
        ``np.sum(u * v, axis=-1)`` without its (..., dim) product array
        (only a sum of negative zeros keeps its sign here).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        out = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
        if self.ambient_dim == 2:
            return out
        last = u[..., 2] * v[..., 2]
        return out - last if self.lorentzian else out + last

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

    # -- tangent plane -------------------------------------------------

    def tangent_distance(self, point, v):
        """Euclidean distance of ``v`` from the tangent plane at ``point``.

        ``|<v, p>| / |p|``, model inner product over Euclidean length: the
        plane's Euclidean normal is p on the sphere, (p0, p1, -p2) on the
        hyperboloid.  Rounding stays near eps |v| at any |p|; 0 when flat.
        """
        v = np.asarray(v, dtype=float)
        if not self.curved:
            return np.zeros(v.shape[:-1])
        point = np.asarray(point, dtype=float)
        return np.abs(self.inner(v, point)) / np.linalg.norm(point, axis=-1)

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

    def tangent_coordinates(self, point, v):
        """Coordinates of tangent vectors ``v`` at ``point`` in which the metric is Euclidean.

        The sum of their squares is ``inner(v, v)``.  The ambient components
        on the flat models and the sphere; on the hyperboloid the two
        coordinates ``v_xy - (p_xy . v_xy) / (p_z (p_z + R)) p_xy``, exact
        because tangency gives v_z = p_xy . v_xy / p_z and the surface
        p_z^2 - |p_xy|^2 = R^2.
        """
        v = np.asarray(v, dtype=float)
        if not self.lorentzian:
            return v
        p = np.asarray(point, dtype=float)
        pxy, vxy, pz = p[..., :2], v[..., :2], p[..., 2]
        coeff = (pxy[..., 0] * vxy[..., 0] + pxy[..., 1] * vxy[..., 1]) / (pz * (pz + self.radius))
        return vxy - coeff[..., None] * pxy

    def normal_2d(self, points, T):
        """``T`` rotated by +pi/2 in the oriented tangent plane of a 2D model."""
        if self.model is Model.PLANE2D:
            return np.stack([-T[..., 1], T[..., 0]], axis=-1)
        if self.model is Model.SPHERE2D:
            nu = points / np.linalg.norm(points, axis=-1, keepdims=True)
            return np.cross(nu, T)
        # hyperboloid: J (p_hat x T) is unit, tangent, and consistently oriented
        w = np.cross(points / self.radius, T)
        w[..., 2] = -w[..., 2]
        return w


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


def polar_table(K: float, r):
    """``omega``, ``omega_r`` and ``omega_rr`` at radii ``r``; callers check ``r``.

    With s = sqrt(|K|) they are sin(s r)/s, cos(s r) and -s sin(s r) for
    K > 0, sinh(s r)/s, cosh(s r) and s sinh(s r) for K < 0, and r, 1 and 0
    for K = 0.  None of these cancels near K r^2 = 0, so one closed form per
    model keeps the table continuous in K; omega_rr has its own closed form,
    not -K omega.
    """
    r = np.asarray(r, dtype=float)
    if K == 0.0:
        return r.copy(), np.ones_like(r), np.zeros_like(r)
    s = math.sqrt(abs(K))
    if K > 0.0:
        sin = np.sin(s * r)
        return sin / s, np.cos(s * r), -s * sin
    sinh = np.sinh(s * r)
    return sinh / s, np.cosh(s * r), s * sinh


def check_radius(space: SpaceForm, r) -> np.ndarray:
    """``r`` as a float array; DomainError unless inside the polar domain."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("polar radius must be positive")
    if space.model is Model.SPHERE2D and np.any(r >= math.pi / math.sqrt(space.curvature)):
        raise DomainError("polar radius reaches the spherical cut locus")
    return r


def omega_profile(space: SpaceForm, r):
    """Length element ``omega(r)`` of the polar circle and its r-derivative."""
    om, om_r, _ = polar_table(space.curvature, check_radius(space, r))
    return (float(om), float(om_r)) if np.ndim(r) == 0 else (om, om_r)


def jacobi_residual(space: SpaceForm, r):
    """Defect ``omega_rr + K omega`` of the closed-form profile.

    The second derivative is evaluated from its own closed form, so the
    result measures genuine floating-point consistency rather than being
    zero by construction.
    """
    om, _, om_rr = polar_table(space.curvature, check_radius(space, r))
    res = om_rr + space.curvature * om
    return float(res) if np.ndim(r) == 0 else res


# ---------------------------------------------------------------------------
# polar frames and the exponential map


@dataclass(frozen=True)
class PolarFrame:
    """Center point plus an orthonormal tangent pair spanning polar coordinates."""

    center: np.ndarray
    e1: np.ndarray
    e2: np.ndarray


def polar_frame(space: SpaceForm, center, e1, e2) -> PolarFrame:
    """Validated polar frame; orthonormality is required, never repaired.

    The orthonormality defects are held to ``FRAME_ORTHO_TOL``, times
    max(1, |p|^2 / R^2) on the hyperboloid (Euclidean |p|, as in
    ``tangent_distance``): there a unit tangent vector has Euclidean
    length up to |p| / R, so the rounding of <e, e> grows like
    eps |p|^2 / R^2.  The other models cancel nothing.
    """
    center, e1, e2 = (np.asarray(v, dtype=float) for v in (center, e1, e2))
    if any(v.shape != (space.ambient_dim,) for v in (center, e1, e2)):
        raise DomainError(f"frame vectors must have dimension {space.ambient_dim}")
    space.check_on_surface(center)
    for e in (e1, e2):
        if float(space.tangent_distance(center, e)) > SURFACE_TOL:
            raise DomainError("frame vector is not tangent at the center")
    scale = -space.curvature * float(center @ center) if space.lorentzian else 1.0
    tol = FRAME_ORTHO_TOL * max(1.0, scale)
    if (
        abs(float(space.inner(e1, e1)) - 1.0) > tol
        or abs(float(space.inner(e2, e2)) - 1.0) > tol
        or abs(float(space.inner(e1, e2))) > tol
    ):
        raise DomainError(f"frame vectors are not orthonormal to {tol:.3g}")
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
    radii = check_radius(space, r)
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
