"""Sampled immersed curves and their cached differential geometry.

A :class:`DiscreteCurve` stores ``n`` points of an immersed curve on a
uniform parameter grid together with the derived quantities used by the
rest of the package: length element ``omega``, unit tangent ``T`` and,
computed on first read, the frame: unit normal ``N``, signed curvature
``kappa`` (2D) and, for space curves, binormal ``B`` and torsion ``tau``.
Length, the metric and path energy need only ``omega`` and ``T``.

One ``DiscreteCurve`` may also hold a whole stack of ``m`` curves on one
grid: points of shape (m, n, dim), fields of shape (m, n) or
(m, n, dim), or a stack of such stacks with more leading axes.  The t
axis is then ``points.ndim - 2``, every operation here works along it,
and ``DiscreteCurve.row`` views curve j's points, ``omega`` and ``T`` of
an (m, n, dim) stack.  A path of curves (``sobolev_metric.CurvePath``) is
such a stack.  Every curve, row or stack, gets its frame from ``_fd_frame``
on first read, the one place that knows how a curve gets its frame.  The
surface geometry it needs (inner product, 2D normal, tangent projection,
tangency measure) comes from ``SpaceForm``; none is repeated here.

Conventions
-----------
* periodic curves (closed, or open with a ``screw_shift``) live on the
  grid ``t_i = 2 pi i / n``; other open curves on ``t_i = i / (n - 1)``
  over [0, 1].  Every quantity integrates against d theta = omega dt, so
  the grid is derived from ``n`` and periodicity, never stored,
* the 3D Frenet frame is defined where ``kappa >= KAPPA_FLOOR``, a
  constant,
* the 2D normal is the tangent rotated by +pi/2 in the oriented tangent
  plane (``SpaceForm.normal_2d``), so a counterclockwise plane circle has
  ``kappa > 0`` and the normal points to its center,
* arclength derivative is ``d_theta = (1/omega) d/dt``.

All parameter derivatives (of the points and of fields along the curve)
use fourth-order central stencils, one-sided at open ends.  Matching the
two orders makes the discrete variation formulas cancel exactly on
rotationally symmetric families; fourth order specifically is what keeps
the length of a 256-point circle accurate to 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._fd import diff1
from .errors import DomainError, ImmersionError, NumericFailure, PreconditionError
from .space_forms import (
    Model,
    SpaceForm,
    euclidean_norm,
    json_array,
    json_count,
    json_flag,
    space_from_dict,
    space_to_dict,
)

KAPPA_FLOOR = 1e-8
TANGENCY_TOL = 1e-9
MIN_SAMPLES = 8
# The one-sided fourth-order end row weighs its samples by |coefficients|
# summing to 128 / 12, so rounding of eps |p| per coordinate puts about
# 11 eps |p| / chord into omega, relatively.  Chords below CHORD_ROUNDING eps
# times the larger |coordinate| of their ends, where that passes 1e-5, are refused.
CHORD_ROUNDING = 128.0 / 12.0 / 1e-5
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TangentField:
    """Vector field along a curve, tangent to the model surface at each sample."""

    values: np.ndarray

    @staticmethod
    def along(curve: "DiscreteCurve", values) -> "TangentField":
        values = np.asarray(values, dtype=float)
        if values.shape != curve.points.shape:
            raise DomainError("field shape does not match the curve grid")
        off = float(np.max(curve.space.tangent_distance(curve.points, values)))
        if off > TANGENCY_TOL * (1.0 + float(np.max(euclidean_norm(values)))):
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


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Immutable sampled curve with cached frame and curvature data.

    ``screw_shift`` is the ambient translation identifying ``t + period``
    with ``t`` for screw-symmetric open curves (helix families); stencils
    then wrap periodically with that shift instead of using one-sided
    rows.  ``frame_ok`` flags the 3D samples where the Frenet frame is
    defined (``kappa`` at or above ``KAPPA_FLOOR``).  A stack of curves
    keeps its leading axis on every per-sample field (see the module
    docstring).  ``N``, ``kappa``, ``B``, ``tau`` and ``frame_ok`` read
    ``frame``, computed by ``_fd_frame`` on first read; a row of a stack
    computes its own, bitwise equal to row j of the stack's.
    """

    space: SpaceForm
    closed: bool
    points: np.ndarray
    omega: np.ndarray
    T: np.ndarray
    screw_shift: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.points.shape[-2]

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def dt(self) -> float:
        return _grid_step(self.n, self.periodic)

    @property
    def periodic(self) -> bool:
        return self.closed or self.screw_shift is not None

    @property
    def t_grid(self) -> np.ndarray:
        n = self.n
        return 2.0 * np.pi * np.arange(n) / n if self.periodic else np.linspace(0.0, 1.0, n)

    @cached_property
    def frame(self) -> CurveFrame:
        return _fd_frame(self)

    N = property(lambda self: self.frame.N)
    kappa = property(lambda self: self.frame.kappa)
    B = property(lambda self: self.frame.B)
    tau = property(lambda self: self.frame.tau)
    frame_ok = property(lambda self: self.frame.frame_ok)

    def row(self, j: int) -> "DiscreteCurve":
        """Curve j of a stack: views of the stack's points, ``omega`` and ``T``."""
        if self.points.ndim != 3:
            raise PreconditionError("row(j) takes an (m, n, dim) stack of curves")
        if not 0 <= j < self.points.shape[0]:
            raise PreconditionError(f"stack index {j} out of range")
        return replace(self, points=self.points[j], omega=self.omega[j], T=self.T[j])


def _grid_step(n: int, periodic: bool) -> float:
    """Step of the parameter grid: 2 pi / n when periodic, else 1 / (n - 1)."""
    return 2.0 * np.pi / n if periodic else 1.0 / (n - 1)


def build_curve(space: SpaceForm, points, closed: bool, *, screw_shift=None) -> DiscreteCurve:
    """Build a :class:`DiscreteCurve` from sampled points.

    ``points`` is one (n, dim) curve or a stack of curves on one grid,
    (..., n, dim) with any leading axes; a stack is built in one pass
    along its t axis.  Runs every check and computes ``omega`` and ``T``
    from a fourth-order derivative of the points; the frame and
    curvature, from arclength derivatives of the same order, are computed
    on first read (``DiscreteCurve.frame``).  The parameter grid follows
    from ``n`` and periodicity (see the module docstring); ``screw_shift``,
    one (dim,) translation of a flat model, makes an open curve periodic.
    Raises :class:`ImmersionError` when the discrete derivative vanishes,
    :class:`NumericFailure` when rounding would swamp it
    (``CHORD_ROUNDING``); the frame flags (without failing) the 3D samples
    where the curvature is below ``KAPPA_FLOOR``.  The curve keeps a
    read-only copy of ``points``, so its cached fields cannot go stale.
    """
    points = np.array(points, dtype=float, order="C")
    points.flags.writeable = False
    if points.ndim < 2 or points.shape[-2] < MIN_SAMPLES:
        raise PreconditionError(f"need at least {MIN_SAMPLES} samples, got {points.shape}")
    n, dim = points.shape[-2:]
    axis = points.ndim - 2
    if not np.all(np.isfinite(points)):
        raise DomainError("curve points must be finite")
    if dim != space.ambient_dim:
        raise DomainError(f"{space.model.value} expects dimension {space.ambient_dim}, got {dim}")
    space.check_on_surface(points)

    chords = euclidean_norm(np.diff(points, axis=axis))
    if np.any(chords == 0.0):
        raise ImmersionError("consecutive samples coincide")
    ends = np.abs(points[..., 0])  # the larger |coordinate| of each sample
    for i in range(1, dim):
        np.maximum(ends, np.abs(points[..., i]), out=ends)
    if np.any(chords < CHORD_ROUNDING * _EPS * np.maximum(ends[..., :-1], ends[..., 1:])):
        raise NumericFailure("samples too close for their size: rounding swamps the derivative")

    if screw_shift is not None:
        if closed:
            raise DomainError("screw_shift only applies to open curves")
        screw_shift = np.asarray(screw_shift, dtype=float)
        if space.curved or screw_shift.shape != (dim,):
            raise DomainError(f"screw_shift is a translation: one {dim}-vector, on flat models only")
        if not np.all(np.isfinite(screw_shift)):
            raise DomainError("screw_shift must be finite")
    periodic = closed or screw_shift is not None
    dt = _grid_step(n, periodic)

    dc = diff1(points, dt, periodic, order=4, wrap_shift=screw_shift, axis=axis)
    omega = np.asarray(space.norm(dc))
    if np.any(omega < 1e-12):
        raise ImmersionError("curve derivative vanishes; not an immersion")
    T = dc / omega[..., None]
    return DiscreteCurve(
        space=space, closed=closed, points=points, omega=omega, T=T, screw_shift=screw_shift
    )


def _fd_frame(curve: DiscreteCurve) -> CurveFrame:
    """The frame from fourth-order arclength derivatives of T (and of B in 3D)."""
    T, inner = curve.T, curve.space.inner
    if curve.space.model is Model.EUCLIDEAN3D:
        curv = d_theta(curve, T)
        curv -= inner(curv, T)[..., None] * T  # drop tangential FD noise
        kappa = euclidean_norm(curv)
        frame_ok = kappa >= KAPPA_FLOOR
        N = np.zeros_like(T)
        N[frame_ok] = curv[frame_ok] / kappa[frame_ok][:, None]
        B = np.cross(T, N)
        tau = np.where(frame_ok, -inner(d_theta(curve, B), N), 0.0)
        return CurveFrame(N, kappa, B, tau, frame_ok)
    N = curve.space.normal_2d(curve.points, T)
    return CurveFrame(N, np.asarray(inner(d_theta(curve, T), N)))


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
    """Covariant derivative D_T u of the tangent part u of any ambient field v along the curve.

    Ambient arclength derivative followed by the tangent projection P is
    the exact Levi-Civita connection on the embedded models.  On the curved
    ones v = u + c p with c = <v, p> / <p, p>, and D_theta p = T gives
    D_T u = P(D_theta v) - c T: the derivative acts on v itself, never on
    the rounding of its projection, which far out on the hyperboloid grows
    like eps |p|^2 |v| / R^2 and changes from sample to sample.
    """
    values = _field_values(field)
    if values.ndim != curve.points.ndim:
        raise DomainError("cov_d_T expects a vector field")
    space, points = curve.space, curve.points
    deriv = d_theta(curve, values)
    if not space.curved:
        return deriv
    c = space.inner(values, points) / space.inner(points, points)
    return space.tangent_project(points, deriv, check=False) - c[..., None] * curve.T


def trapezoid_weights(n: int, dx: float, periodic: bool = False) -> np.ndarray:
    """(n,) weights of the rectangle (periodic) or trapezoid rule with step ``dx``."""
    w = np.full(n, dx)
    if not periodic:
        w[[0, -1]] *= 0.5
    return w


def dtheta_weights(curve: DiscreteCurve) -> np.ndarray:
    """The one theta quadrature: f d theta over a curve is ``np.sum(f * weights, axis=-1)``."""
    return trapezoid_weights(curve.n, curve.dt, curve.periodic) * curve.omega


def length(curve: DiscreteCurve):
    """Curve length: the sum of the ``dtheta_weights``, one value per curve."""
    return np.sum(dtheta_weights(curve), axis=-1)


# ---------------------------------------------------------------------------
# serialization; cached quantities are recomputed on load, never stored


def curve_to_dict(curve: DiscreteCurve) -> dict:
    if curve.points.ndim != 2:
        raise PreconditionError("curve_to_dict takes one curve, not a stack")
    if curve.screw_shift is not None:  # the record has no field for it
        raise PreconditionError("curve_to_dict cannot record a screw_shift")
    return {
        "space": space_to_dict(curve.space),
        "closed": curve.closed,
        "t_samples": curve.n,
        "points": curve.points.tolist(),
    }


def curve_from_dict(data: dict) -> DiscreteCurve:
    try:
        space = space_from_dict(data["space"])
        closed = json_flag(data, "closed")
        points = json_array(data, "points")
        n = json_count(data, "t_samples")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid curve record: {exc}") from exc
    if points.ndim != 2:  # build_curve would take a stack
        raise DomainError("a curve record holds one (t_samples, dim) point array")
    if points.shape[0] != n:
        raise DomainError("t_samples disagrees with the point count")
    return build_curve(space, points, closed)
