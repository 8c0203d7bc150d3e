"""First-order Sobolev metric on curve spaces: speed, energy, horizontality.

The metric on variations h, k of a curve c is

    G_c(h, k) = integral of  g(h, k) + g(D_T h, D_T k)  d theta,

with D_T the covariant arclength derivative.  A path of curves is stored
as an s-indexed family on one shared grid: one (m, n, dim) point array
and one stacked ``DiscreteCurve`` whose fields carry the s axis first.
Its velocity field, Sobolev speed, energy, and the two horizontality
diagnostics (the direct defect g(eta, T) with eta = c' - D_T^2 c', and
the normal-path criterion d_theta(rho^2 kappa)) are whole-array
expressions over that stack; the per-sample functions take row j of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._fd import diff1
from .discrete_curves import (
    PER_SAMPLE_FIELDS,
    CurveFrame,
    DiscreteCurve,
    _field_values,
    _integrate_dtheta,
    build_curve,
    cov_d_T,
    d_theta,
)
from .errors import DomainError, NormalityError, PreconditionError
from .space_forms import SpaceForm, space_from_dict, space_to_dict

NORMALITY_TOL = 1e-6
MIN_PATH_SAMPLES = 3


@dataclass(frozen=True, eq=False)
class CurvePath:
    """Family of curves c(s, .) on a uniform s-grid over [0, 1], stacked in ``batch``."""

    s_grid: np.ndarray
    batch: DiscreteCurve

    @property
    def m(self) -> int:
        return self.batch.points.shape[0]

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def space(self) -> SpaceForm:
        return self.batch.space

    @property
    def closed(self) -> bool:
        return self.batch.closed

    @property
    def ds(self) -> float:
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def points(self) -> np.ndarray:
        """All sample points as an (m, n, dim) array."""
        return self.batch.points

    @property
    def curves(self) -> tuple[DiscreteCurve, ...]:
        """The m curves, as row views of ``batch``."""
        return tuple(self.batch.row(j) for j in range(self.m))

    @cached_property
    def velocity(self) -> np.ndarray:
        """c' at every sample by second-order differences in s, projected tangent; read-only."""
        v = diff1(self.points, self.ds, False, order=2)
        v = self.space.tangent_project(self.points, v, check=False)
        v.flags.writeable = False
        return v


def path_from_curves(curves) -> CurvePath:
    """Stack single curves on one grid into a path; each keeps the fields it was built with.

    The stack's frame is the curves' frames stacked, on first read.
    """
    curves = tuple(curves)
    if len(curves) < MIN_PATH_SAMPLES:
        raise PreconditionError(f"a path needs at least {MIN_PATH_SAMPLES} curves")
    if any(c.points.ndim != 2 for c in curves):
        raise PreconditionError("path_from_curves takes single curves; make_path takes a stack")
    first = curves[0]
    for c in curves[1:]:
        if c.space != first.space or c.closed != first.closed or c.n != first.n:
            raise DomainError("path curves must share space, closedness, and grid size")
        if not np.array_equal(c.t_grid, first.t_grid):
            raise DomainError("path curves must share one t-grid")
        if not np.array_equal(c.screw_shift, first.screw_shift):
            raise DomainError("path curves must share one screw_shift")
        if c.kappa_floor != first.kappa_floor:
            raise DomainError("path curves must share one kappa_floor")
    fields = {f: np.stack([getattr(c, f) for c in curves]) for f in PER_SAMPLE_FIELDS}
    fields["points"].flags.writeable = False
    batch = replace(first, **fields, _frame_source=lambda: CurveFrame.stack(c.frame for c in curves))
    return CurvePath(s_grid=np.linspace(0.0, 1.0, len(curves)), batch=batch)


def make_path(space, points, closed, *, t_grid=None, screw_shift=None) -> CurvePath:
    """Build a path from an (m, n, dim) point array."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        raise DomainError("expected an (m, n, dim) array of path points")
    if points.shape[0] < MIN_PATH_SAMPLES:
        raise PreconditionError(f"a path needs at least {MIN_PATH_SAMPLES} curves")
    batch = build_curve(space, points, closed, t_grid=t_grid, screw_shift=screw_shift)
    return CurvePath(s_grid=np.linspace(0.0, 1.0, len(points)), batch=batch)


# ---------------------------------------------------------------------------
# metric and path quantities


def sobolev_inner(curve: DiscreteCurve, h, k):
    """The metric G_c(h, k), one value per curve of a stack; symmetric and bilinear."""
    hv = _field_values(h)
    kv = _field_values(k)
    if hv.shape != curve.points.shape or kv.shape != curve.points.shape:
        raise DomainError("fields do not match the curve grid")
    dh = cov_d_T(curve, hv)
    dk = dh if kv is hv else cov_d_T(curve, kv)
    integrand = curve.space.inner(hv, kv) + curve.space.inner(dh, dk)
    return _integrate_dtheta(curve, np.asarray(integrand))


def path_velocity(path: CurvePath, j: int) -> np.ndarray:
    """Velocity field c'(s_j): row j of ``path.velocity``."""
    if not 0 <= j < path.m:
        raise PreconditionError(f"path index {j} out of range")
    return path.velocity[j]


def path_speed(path: CurvePath) -> np.ndarray:
    """Sobolev speed nu(s_j) = sqrt(G(c', c')) at every path sample."""
    v = path.velocity
    return np.sqrt(np.maximum(sobolev_inner(path.batch, v, v), 0.0))


def path_energy(path: CurvePath) -> float:
    """Riemannian path energy, the trapezoid sum of nu^2 over s."""
    nu = path_speed(path)
    return float(np.trapezoid(nu * nu, dx=path.ds))


def path_length(path: CurvePath) -> float:
    """Sobolev length of the path, the trapezoid sum of nu over s."""
    return float(np.trapezoid(path_speed(path), dx=path.ds))


# ---------------------------------------------------------------------------
# horizontality diagnostics


def horizontality_defect(path: CurvePath, j: int) -> np.ndarray:
    """Per-sample defect g(eta, T) with eta = c' - D_T^2 c'.

    Vanishes (for all t) exactly when the path velocity is orthogonal to
    every reparametrization direction.
    """
    curve = path.batch.row(j)
    v = path_velocity(path, j)
    ddv = cov_d_T(curve, cov_d_T(curve, v))
    return np.asarray(curve.space.inner(v - ddv, curve.T))


def tangential_component(path: CurvePath, j: int) -> np.ndarray:
    curve = path.batch.row(j)
    return np.asarray(curve.space.inner(path_velocity(path, j), curve.T))


def rho_normal_component(path: CurvePath, j: int) -> np.ndarray:
    curve = path.batch.row(j)
    return np.asarray(curve.space.inner(path_velocity(path, j), curve.N))


def rho_kappa_defect(path: CurvePath, j: int, *, normal_tol: float = NORMALITY_TOL) -> np.ndarray:
    """Normal-path horizontality criterion: d_theta(rho^2 kappa) per sample.

    Only meaningful for normal paths, so a tangential component above
    ``normal_tol`` raises :class:`NormalityError`.
    """
    curve = path.batch.row(j)
    tangential = tangential_component(path, j)
    if float(np.max(np.abs(tangential))) > normal_tol:
        raise NormalityError(
            "path is not normal at this sample; the rho^2 kappa criterion does not apply"
        )
    if curve.frame_ok is not None and not bool(np.all(curve.frame_ok)):
        raise DomainError("Frenet frame undefined somewhere; rho is not available")
    rho = rho_normal_component(path, j)
    return d_theta(curve, rho * rho * curve.kappa)


# ---------------------------------------------------------------------------
# bundled diagnostics


@dataclass(frozen=True, eq=False)
class PathDiagnostics:
    """Per-path report: speed, horizontality sup-defects, rho and tangential fields."""

    speed: np.ndarray
    horizontality_defect: np.ndarray
    rho: np.ndarray
    tangential: np.ndarray

    @property
    def speed_drift(self) -> float:
        mean = float(np.mean(self.speed))
        if mean == 0.0:
            return 0.0
        return float((np.max(self.speed) - np.min(self.speed)) / mean)

    @property
    def is_normal(self) -> bool:
        return float(np.max(np.abs(self.tangential))) <= NORMALITY_TOL


def diagnose_path(path: CurvePath) -> PathDiagnostics:
    """Speed and both horizontality fields of every sample, over the whole stack."""
    batch, v = path.batch, path.velocity
    ddv = cov_d_T(batch, cov_d_T(batch, v))
    inner = batch.space.inner
    return PathDiagnostics(
        speed=path_speed(path),
        horizontality_defect=np.max(np.abs(inner(v - ddv, batch.T)), axis=-1),
        rho=inner(v, batch.N),
        tangential=inner(v, batch.T),
    )


# ---------------------------------------------------------------------------
# serialization


def path_to_dict(path: CurvePath, *, pitch: float | None = None) -> dict:
    data = {
        "space": space_to_dict(path.space),
        "closed": path.closed,
        "t_samples": path.n,
        "s_samples": path.m,
        "points": path.points.tolist(),
    }
    if pitch is not None:
        # records the screw period of helix paths so that reloads rebuild
        # the same periodic stencils
        data["pitch"] = float(pitch)
    return data


def path_from_dict(data: dict) -> CurvePath:
    try:
        space = space_from_dict(data["space"])
        closed = bool(data["closed"])
        points = np.asarray(data["points"], dtype=float)
        m = int(data["s_samples"])
        n = int(data["t_samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid path record: {exc}") from exc
    if points.shape[:2] != (m, n):
        raise DomainError("point array disagrees with s_samples/t_samples")
    t_grid = None
    screw_shift = None
    if "pitch" in data and data["pitch"] is not None:
        pitch = float(data["pitch"])
        t_grid = 2.0 * np.pi * np.arange(n) / n
        screw_shift = np.array([0.0, 0.0, 2.0 * np.pi * pitch])
    return make_path(space, points, closed, t_grid=t_grid, screw_shift=screw_shift)
