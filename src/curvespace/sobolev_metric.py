"""First-order Sobolev metric on curve spaces: speed, energy, horizontality.

The metric on variations h, k of a curve c is

    G_c(h, k) = integral of  g(h, k) + g(D_T h, D_T k)  d theta,

with D_T the covariant arclength derivative.  A path of curves is stored
as an s-indexed family on one shared grid: one (m, n, dim) point array
and one stacked ``DiscreteCurve`` whose fields carry the s axis first.
``CurvePath`` caches c', D_T c' and D_T^2 c' over the stack; Sobolev speed,
energy, and the two horizontality diagnostics (the direct defect g(eta, T)
with eta = c' - D_T^2 c', and the normal-path criterion d_theta(rho^2 kappa))
are whole-array expressions over it, one value per sample or per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._fd import diff1
from .discrete_curves import (
    DiscreteCurve,
    _field_values,
    build_curve,
    cov_d_T,
    d_theta,
    dtheta_weights,
    trapezoid_weights,
)
from .errors import DomainError, NormalityError, PreconditionError
from .space_forms import (
    SpaceForm,
    json_array,
    json_count,
    json_flag,
    json_number,
    space_from_dict,
    space_to_dict,
)

NORMALITY_TOL = 1e-6
MIN_PATH_SAMPLES = 3


@dataclass(frozen=True, eq=False)
class CurvePath:
    """Family of curves c(s, .) on the uniform s-grid over [0, 1], stacked in ``batch``.

    The s-grid is ``linspace(0, 1, m)``, derived from the stack, never
    stored.  ``velocity``, ``dT_velocity`` and ``dT2_velocity`` hold c',
    D_T c' and D_T^2 c' over the whole stack, and ``residuals`` the
    ``path_residuals``, each computed once on first read.  A (..., m, n,
    dim) stack of paths sharing one grid is one ``CurvePath`` too: its
    fields and ``path_residuals`` keep the leading axes; ``curves`` and the
    scalar path quantities take one path.
    """

    batch: DiscreteCurve

    @property
    def m(self) -> int:
        return self.batch.points.shape[-3]

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
        return 1.0 / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        """All sample points as an (m, n, dim) array."""
        return self.batch.points

    @property
    def curves(self) -> tuple[DiscreteCurve, ...]:
        """The m curves, as row views of ``batch``."""
        return tuple(self.batch.row(j) for j in range(self.m))

    def _s_difference(self) -> np.ndarray:
        """c' at every sample by second-order differences in s, before its tangent projection."""
        return diff1(self.points, self.ds, False, order=2, axis=self.points.ndim - 3)

    @cached_property
    def velocity(self) -> np.ndarray:
        """c' at every sample, the s-difference projected tangent; read-only."""
        return _read_only(self.space.tangent_project(self.points, self._s_difference(), check=False))

    @cached_property
    def dT_velocity(self) -> np.ndarray:
        """D_T c' at every sample, over the whole stack; read-only.  ``cov_d_T`` takes the
        unprojected s-difference, whose projection would round to noise far out on the hyperboloid."""
        return _read_only(cov_d_T(self.batch, self._s_difference()))

    @cached_property
    def dT2_velocity(self) -> np.ndarray:
        """D_T^2 c' at every sample, over the whole stack; read-only."""
        return _read_only(cov_d_T(self.batch, self.dT_velocity))

    @cached_property
    def residuals(self) -> np.ndarray:
        """``path_residuals`` over the whole stack, computed once on first read; read-only."""
        weights = trapezoid_weights(self.m, self.ds)[:, None] * dtheta_weights(self.batch)
        coords = [self.space.tangent_coordinates(self.points, f)
                  for f in (self.velocity, self.dT_velocity)]
        r = np.sqrt(weights)[..., None] * np.concatenate(coords, axis=-1)
        return _read_only(r.reshape(*r.shape[:-3], -1))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def path_from_curves(curves) -> CurvePath:
    """Stack curves sharing one space, closedness, grid size and ``screw_shift`` into a path."""
    curves = tuple(curves)
    if len(curves) < MIN_PATH_SAMPLES:
        raise PreconditionError(f"a path needs at least {MIN_PATH_SAMPLES} curves")
    if any(c.points.ndim != 2 for c in curves):
        raise PreconditionError("path_from_curves takes single curves; make_path takes a stack")
    first = curves[0]
    for c in curves[1:]:
        if c.space != first.space or c.closed != first.closed or c.n != first.n:
            raise DomainError("path curves must share space, closedness, and grid size")
        if not np.array_equal(c.screw_shift, first.screw_shift):
            raise DomainError("path curves must share one screw_shift")
    points = np.stack([c.points for c in curves])
    return CurvePath(build_curve(first.space, points, first.closed, screw_shift=first.screw_shift))


def make_path(space, points, closed, *, screw_shift=None) -> CurvePath:
    """Build a path from an (m, n, dim) point array, on the grids ``build_curve`` derives."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        raise DomainError("expected an (m, n, dim) array of path points")
    if points.shape[0] < MIN_PATH_SAMPLES:
        raise PreconditionError(f"a path needs at least {MIN_PATH_SAMPLES} curves")
    return CurvePath(build_curve(space, points, closed, screw_shift=screw_shift))


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
    return np.sum(integrand * dtheta_weights(curve), axis=-1)


def path_speed(path: CurvePath) -> np.ndarray:
    """Sobolev speed nu(s_j) = sqrt(G(c', c')) at every path sample (``sobolev_inner``)."""
    v, dv, inner = path.velocity, path.dT_velocity, path.space.inner
    nu2 = np.sum((inner(v, v) + inner(dv, dv)) * dtheta_weights(path.batch), axis=-1)
    return np.sqrt(np.maximum(nu2, 0.0))


def path_energy(path: CurvePath) -> float:
    """Riemannian path energy, the trapezoid sum of nu^2 over s, as r . r of ``path_residuals``
    (numpy's pairwise sum of r * r, which unlike BLAS does not vary with the thread count)."""
    r = path_residuals(path)
    return float(np.sum(r * r))


def path_residuals(path: CurvePath) -> np.ndarray:
    """Residual vector r of the path energy: r . r is ``path_energy``.

    E = sum_j w_j sum_i w_i omega_ij (|c'_ij|^2 + |D_T c'_ij|^2) with the
    trapezoid weights w_j in s and the theta weights w_i omega_ij
    (``dtheta_weights``), so r holds sqrt(w_j w_i omega_ij) times the
    Euclidean tangent coordinates (``SpaceForm.tangent_coordinates``) of
    c' and D_T c', flattened: (R,) for one path, (..., R) for a stack of
    paths, row for row equal to the single-path calls.  Cached on the path
    (``CurvePath.residuals``), so ``path_energy`` and a Jacobian at the same
    path read one array.
    """
    return path.residuals


def path_length(path: CurvePath) -> float:
    """Sobolev length of the path: nu summed against the s-weights ``path_residuals`` squares."""
    return float(np.sum(trapezoid_weights(path.m, path.ds) * path_speed(path)))


# ---------------------------------------------------------------------------
# horizontality diagnostics, each an (m, n) array over the whole stack


def tangential_component(path: CurvePath) -> np.ndarray:
    """g(c', T) at every sample."""
    return np.asarray(path.space.inner(path.velocity, path.batch.T))


def rho_normal_component(path: CurvePath) -> np.ndarray:
    """rho = g(c', N) at every sample."""
    return np.asarray(path.space.inner(path.velocity, path.batch.N))


def normal_rows(path: CurvePath) -> np.ndarray:
    """(m,) flags: the rows whose tangential component stays within ``NORMALITY_TOL``."""
    return np.max(np.abs(tangential_component(path)), axis=-1) <= NORMALITY_TOL


def horizontality_defect(path: CurvePath) -> np.ndarray:
    """Defect g(eta, T) with eta = c' - D_T^2 c' at every sample.

    Vanishes (for all t) on row j exactly when c'(s_j) is orthogonal to
    every reparametrization direction.
    """
    return np.asarray(path.space.inner(path.velocity - path.dT2_velocity, path.batch.T))


def rho_kappa_defect(path: CurvePath) -> np.ndarray:
    """Normal-path horizontality criterion d_theta(rho^2 kappa) at every sample.

    NaN on the rows ``normal_rows`` rejects; :class:`NormalityError` if it
    rejects all, :class:`DomainError` if a normal row has no Frenet frame.
    """
    normal, batch = normal_rows(path), path.batch
    if not normal.any():
        raise NormalityError("path is nowhere normal; the rho^2 kappa criterion does not apply")
    if batch.frame_ok is not None and not bool(np.all(batch.frame_ok[normal])):
        raise DomainError("Frenet frame undefined somewhere; rho is not available")
    rho = rho_normal_component(path)
    return np.where(normal[:, None], d_theta(batch, rho * rho * batch.kappa), np.nan)


# ---------------------------------------------------------------------------
# bundled diagnostics


@dataclass(frozen=True, eq=False)
class PathDiagnostics:
    """Per-path report: speed, horizontality sup-defects, rho and tangential fields."""

    speed: np.ndarray
    horizontality_defect: np.ndarray
    rho: np.ndarray
    tangential: np.ndarray
    normal: np.ndarray  # ``normal_rows``
    rho_kappa_sup: np.ndarray | None  # sup_t |d_theta(rho^2 kappa)| if normal, else None
    standing: bool  # every c' within the rounding of the s-stencil: the path does not move

    @property
    def speed_drift(self) -> float:
        """(max - min) / mean of the speed; 0 for a path that does not move."""
        mean = float(np.mean(self.speed))
        if self.standing or mean == 0.0:
            return 0.0
        return float((np.max(self.speed) - np.min(self.speed)) / mean)

    @property
    def is_normal(self) -> bool:
        return bool(np.all(self.normal))


def diagnose_path(path: CurvePath) -> PathDiagnostics:
    """Speed and both horizontality criteria of every sample, over the whole stack.

    The rho^2 kappa criterion is reported only when every row is normal; a
    normal path whose Frenet frame is undefined somewhere raises :class:`DomainError`.
    """
    normal = normal_rows(path)
    # rounding bound of the s-stencil (-3, 4, -1) / (2 ds) on points of this size
    floor = 8.0 * np.finfo(float).eps * np.max(np.abs(path.points)) / path.ds
    return PathDiagnostics(
        speed=path_speed(path),
        horizontality_defect=np.max(np.abs(horizontality_defect(path)), axis=-1),
        rho=rho_normal_component(path),
        tangential=tangential_component(path),
        normal=normal,
        rho_kappa_sup=np.max(np.abs(rho_kappa_defect(path)), axis=-1) if normal.all() else None,
        standing=bool(np.max(np.abs(path.velocity)) <= floor),
    )


# ---------------------------------------------------------------------------
# serialization


def pitch_shift(pitch: float) -> np.ndarray:
    """The ``screw_shift`` (0, 0, 2 pi pitch) of helices of that pitch: a record's ``pitch``."""
    return np.array([0.0, 0.0, 2.0 * np.pi * pitch])


def path_to_dict(path: CurvePath, *, pitch: float | None = None) -> dict:
    """The path record.  ``pitch`` records the screw period of a helix path, so that
    reloads rebuild the same periodic stencils: it is given exactly when the path has
    a ``screw_shift``, and that shift is ``pitch_shift(pitch)``."""
    shift = path.batch.screw_shift
    if not np.array_equal(shift, None if pitch is None else pitch_shift(float(pitch))):
        raise PreconditionError(f"pitch {pitch!r} does not record the path's screw_shift {shift}")
    data = {
        "space": space_to_dict(path.space),
        "closed": path.closed,
        "t_samples": path.n,
        "s_samples": path.m,
        "points": path.points.tolist(),
    }
    if pitch is not None:
        data["pitch"] = float(pitch)
    return data


def path_from_dict(data: dict) -> CurvePath:
    try:
        space = space_from_dict(data["space"])
        closed = json_flag(data, "closed")
        points = json_array(data, "points")
        m = json_count(data, "s_samples")
        n = json_count(data, "t_samples")
        pitch = None if data.get("pitch") is None else json_number(data, "pitch")
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid path record: {exc}") from exc
    if points.shape[:2] != (m, n):
        raise DomainError("point array disagrees with s_samples/t_samples")
    screw_shift = None if pitch is None else pitch_shift(pitch)
    return make_path(space, points, closed, screw_shift=screw_shift)
