"""Sampled immersed curves and their cached differential geometry.

A :class:`DiscreteCurve` stores ``n`` points of an immersed curve on a
uniform parameter grid together with the derived quantities used by the
rest of the package: length element ``omega``, unit tangent ``T`` and,
computed on first read, the frame: unit normal ``N``, signed curvature
``kappa`` (2D) and, for space curves, binormal ``B`` and torsion ``tau``.
Length, the metric and path energy need only ``omega`` and ``T``.

One ``DiscreteCurve`` may also hold a whole stack of ``m`` curves on one
grid: points of shape (m, n, dim), fields of shape (m, n) or
(m, n, dim).  The t axis is then ``points.ndim - 2``, every operation
here works along it, and ``DiscreteCurve.row`` returns curve j as views.
A path of curves (``sobolev_metric.CurvePath``) is such a stack; a
row's frame is a view of the stack's, computed once for the whole stack.

Conventions
-----------
* closed curves live on the grid ``t_i = 2 pi i / n``; open curves on
  ``t_i = i / (n - 1)`` over [0, 1],
* the 2D normal is the tangent rotated by +pi/2 in the oriented tangent
  plane, so a counterclockwise plane circle has ``kappa > 0`` and the
  normal points to its center,
* arclength derivative is ``d_theta = (1/omega) d/dt``.

All parameter derivatives (of the points and of fields along the curve)
use fourth-order central stencils, one-sided at open ends.  Matching the
two orders makes the discrete variation formulas cancel exactly on
rotationally symmetric families; fourth order specifically is what keeps
the length of a 256-point circle accurate to 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from ._fd import diff1
from .errors import CapabilityError, DomainError, ImmersionError, PreconditionError
from .space_forms import Model, SpaceForm, space_from_dict, space_to_dict

KAPPA_FLOOR = 1e-8
TANGENCY_TOL = 1e-9
MIN_SAMPLES = 8
PER_SAMPLE_FIELDS = ("points", "omega", "T")


@dataclass(frozen=True)
class TangentField:
    """Vector field along a curve, tangent to the model surface at each sample."""

    values: np.ndarray

    @staticmethod
    def along(curve: "DiscreteCurve", values, tol: float = TANGENCY_TOL) -> "TangentField":
        values = np.asarray(values, dtype=float)
        if values.shape != curve.points.shape:
            raise DomainError("field shape does not match the curve grid")
        resid = values - curve.space.tangent_project(curve.points, values, check=False)
        scale = 1.0 + float(np.max(curve.space.norm(values)))
        if float(np.max(curve.space.norm(resid))) > tol * scale:
            raise DomainError("field is not tangent to the surface along the curve")
        return TangentField(values)


def _field_values(field) -> np.ndarray:
    if isinstance(field, TangentField):
        return field.values
    return np.asarray(field, dtype=float)


class CurveFrame(NamedTuple):
    """Normal and curvature of a curve or stack; binormal, torsion and flags in 3D."""

    N: np.ndarray
    kappa: np.ndarray
    B: np.ndarray | None = None
    tau: np.ndarray | None = None
    frame_ok: np.ndarray | None = None

    def row(self, j: int) -> "CurveFrame":
        return CurveFrame(*(None if v is None else v[j] for v in self))

    @staticmethod
    def stack(frames) -> "CurveFrame":
        return CurveFrame(*(None if f[0] is None else np.stack(f) for f in zip(*frames)))


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Immutable sampled curve with cached frame and curvature data.

    ``screw_shift`` is the ambient translation identifying ``t + period``
    with ``t`` for screw-symmetric open curves (helix families); stencils
    then wrap periodically with that shift instead of using one-sided
    rows.  ``frame_ok`` flags the 3D samples where the Frenet frame is
    defined (``kappa`` at or above ``kappa_floor``).  A stack of curves
    keeps its leading axis on every per-sample field (see the module
    docstring).  ``N``, ``kappa``, ``B``, ``tau`` and ``frame_ok`` read
    ``frame``, computed on first read by ``_frame_source`` (a row or a
    stack of curves that carry frames) or else by ``_fd_frame``.
    """

    space: SpaceForm
    closed: bool
    t_grid: np.ndarray
    points: np.ndarray
    omega: np.ndarray
    T: np.ndarray
    screw_shift: np.ndarray | None = None
    kappa_floor: float = KAPPA_FLOOR
    _frame_source: Callable[[], CurveFrame] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[-2]

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @property
    def periodic(self) -> bool:
        return self.closed or self.screw_shift is not None

    @cached_property
    def frame(self) -> CurveFrame:
        return _fd_frame(self) if self._frame_source is None else self._frame_source()

    N = property(lambda self: self.frame.N)
    kappa = property(lambda self: self.frame.kappa)
    B = property(lambda self: self.frame.B)
    tau = property(lambda self: self.frame.tau)
    frame_ok = property(lambda self: self.frame.frame_ok)

    def row(self, j: int) -> "DiscreteCurve":
        """Curve j of a stack; its fields, frame included, are views of the stack's."""
        if self.points.ndim != 3:
            raise PreconditionError("row(j) takes a stack of curves, not one curve")
        if not 0 <= j < self.points.shape[0]:
            raise PreconditionError(f"stack index {j} out of range")
        views = {f: getattr(self, f)[j] for f in PER_SAMPLE_FIELDS}
        return replace(self, **views, _frame_source=lambda: self.frame.row(j))


def _normal_2d(space: SpaceForm, points: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Rotate T by +pi/2 in the oriented tangent plane of the model."""
    if space.model is Model.PLANE2D:
        return np.stack([-T[..., 1], T[..., 0]], axis=-1)
    if space.model is Model.SPHERE2D:
        nu = points / np.linalg.norm(points, axis=-1, keepdims=True)
        return np.cross(nu, T)
    # hyperboloid: J (p_hat x T) is unit, tangent, and consistently oriented
    p_hat = points / space.radius
    w = np.cross(p_hat, T)
    w[..., 2] = -w[..., 2]
    return w


def build_curve(
    space: SpaceForm,
    points,
    closed: bool,
    *,
    t_grid=None,
    screw_shift=None,
    resample_arclength: bool = False,
    kappa_floor: float = KAPPA_FLOOR,
) -> DiscreteCurve:
    """Build a :class:`DiscreteCurve` from sampled points.

    ``points`` is one (n, dim) curve or an (m, n, dim) stack of curves on
    one grid; a stack is built in one pass along its t axis.  Runs every
    check and computes ``omega`` and ``T`` from a fourth-order derivative
    of the points; the frame and curvature, from arclength derivatives of
    the same order, are computed on first read (``DiscreteCurve.frame``).
    Raises :class:`ImmersionError` when the discrete derivative vanishes;
    the frame flags (without failing) the 3D samples where the curvature
    is below ``kappa_floor``.  The curve keeps a read-only copy of
    ``points``, so its cached fields cannot go stale.
    """
    points = np.array(points, dtype=float, order="C")
    points.flags.writeable = False
    if points.ndim not in (2, 3) or points.shape[-2] < MIN_SAMPLES:
        raise PreconditionError(f"need at least {MIN_SAMPLES} samples, got {points.shape}")
    n, dim = points.shape[-2:]
    axis = points.ndim - 2
    if not np.all(np.isfinite(points)):
        raise DomainError("curve points must be finite")
    if dim != space.ambient_dim:
        raise DomainError(f"{space.model.value} expects dimension {space.ambient_dim}, got {dim}")
    space.check_on_surface(points)

    chords = np.linalg.norm(np.diff(points, axis=axis), axis=-1)
    if np.any(chords == 0.0):
        raise ImmersionError("consecutive samples coincide")

    if t_grid is None:
        t_grid = 2.0 * np.pi * np.arange(n) / n if closed else np.linspace(0.0, 1.0, n)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.shape != (n,):
            raise DomainError("t_grid length does not match the points")
    if screw_shift is not None:
        if closed:
            raise DomainError("screw_shift only applies to open curves")
        screw_shift = np.asarray(screw_shift, dtype=float)
        if not np.all(np.isfinite(screw_shift)):
            raise DomainError("screw_shift must be finite")
    dt = float(t_grid[1] - t_grid[0])
    periodic = closed or screw_shift is not None

    dc = diff1(points, dt, periodic, order=4, wrap_shift=screw_shift, axis=axis)
    omega = np.asarray(space.norm(dc))
    if np.any(omega < 1e-12):
        raise ImmersionError("curve derivative vanishes; not an immersion")
    T = dc / omega[..., None]

    if resample_arclength:
        if screw_shift is not None or points.ndim == 3:
            raise CapabilityError("arclength resampling needs one curve without screw_shift")
        points = _resample_by_arclength(space, points, t_grid, omega, closed)
        return build_curve(space, points, closed, t_grid=t_grid, kappa_floor=kappa_floor)

    return DiscreteCurve(
        space=space, closed=closed, t_grid=t_grid, points=points, omega=omega, T=T,
        screw_shift=screw_shift, kappa_floor=kappa_floor,
    )


def _fd_frame(curve: DiscreteCurve) -> CurveFrame:
    """The frame from fourth-order arclength derivatives of T (and of B in 3D)."""
    T = curve.T
    if curve.space.model is Model.EUCLIDEAN3D:
        curv = d_theta(curve, T)
        curv -= np.sum(curv * T, axis=-1)[..., None] * T  # drop tangential FD noise
        kappa = np.linalg.norm(curv, axis=-1)
        frame_ok = kappa >= curve.kappa_floor
        N = np.zeros_like(T)
        N[frame_ok] = curv[frame_ok] / kappa[frame_ok][:, None]
        B = np.cross(T, N)
        tau = np.where(frame_ok, -np.sum(d_theta(curve, B) * N, axis=-1), 0.0)
        return CurveFrame(N, kappa, B, tau, frame_ok)
    N = _normal_2d(curve.space, curve.points, T)
    return CurveFrame(N, np.asarray(curve.space.inner(d_theta(curve, T), N)))


def _resample_by_arclength(space, points, t_grid, omega, closed):
    from scipy.interpolate import CubicSpline

    dt = float(t_grid[1] - t_grid[0])
    if closed:
        t_ext = np.append(t_grid, t_grid[-1] + dt)
        om_ext = np.append(omega, omega[0])
        pts_ext = np.vstack([points, points[:1]])
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (om_ext[1:] + om_ext[:-1]) * dt)])
        targets = np.linspace(0.0, arc[-1], len(t_grid), endpoint=False)
        interp = CubicSpline(t_ext, pts_ext, axis=0, bc_type="periodic")
    else:
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (omega[1:] + omega[:-1]) * dt)])
        targets = np.linspace(0.0, arc[-1], len(t_grid))
        interp = CubicSpline(t_grid, points, axis=0)
    t_of_arc = CubicSpline(arc, t_grid if not closed else t_ext[: len(arc)])
    new_points = interp(t_of_arc(targets))
    if space.curved:
        new_points = space.project_to_surface(new_points)
    return new_points


def d_theta(curve: DiscreteCurve, field):
    """Arclength derivative ``(1/omega) d/dt`` of scalar or vector samples.

    Central differences (one-sided rows of the same order on open
    non-periodic grids), at the same fourth order as the cached curve
    quantities.
    """
    values = _field_values(field)
    if values.shape[: curve.omega.ndim] != curve.omega.shape:
        raise DomainError("field length does not match the curve grid")
    deriv = diff1(values, curve.dt, curve.periodic, order=4, axis=curve.omega.ndim - 1)
    if values.ndim == curve.omega.ndim:
        return deriv / curve.omega
    return deriv / curve.omega[..., None]


def cov_d_T(curve: DiscreteCurve, field) -> np.ndarray:
    """Covariant derivative of a tangent field along the curve.

    Ambient arclength derivative followed by the tangent projection, which
    is the exact Levi-Civita connection on the embedded models.
    """
    values = _field_values(field)
    if values.ndim != curve.points.ndim:
        raise DomainError("cov_d_T expects a vector field")
    deriv = d_theta(curve, values)
    return curve.space.tangent_project(curve.points, deriv, check=False)


def _integrate_dtheta(curve: DiscreteCurve, values):
    """Quadrature of scalar samples against d theta = omega dt, one value per curve."""
    weighted = values * curve.omega
    if curve.periodic:
        return np.sum(weighted, axis=-1) * curve.dt
    return np.trapezoid(weighted, dx=curve.dt, axis=-1)


def length(curve: DiscreteCurve):
    """Curve length: the quadrature of omega over the parameter grid."""
    return _integrate_dtheta(curve, 1.0)


# ---------------------------------------------------------------------------
# serialization; cached quantities are recomputed on load, never stored


def curve_to_dict(curve: DiscreteCurve) -> dict:
    if curve.points.ndim != 2:
        raise PreconditionError("curve_to_dict takes one curve, not a stack")
    return {
        "space": space_to_dict(curve.space),
        "closed": curve.closed,
        "t_samples": curve.n,
        "points": curve.points.tolist(),
    }


def curve_from_dict(data: dict) -> DiscreteCurve:
    try:
        space = space_from_dict(data["space"])
        closed = bool(data["closed"])
        points = np.asarray(data["points"], dtype=float)
        n = int(data["t_samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid curve record: {exc}") from exc
    if points.shape[0] != n:
        raise DomainError("t_samples disagrees with the point count")
    return build_curve(space, points, closed)
