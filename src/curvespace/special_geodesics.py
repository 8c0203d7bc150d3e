"""Reduced geodesic solvers: concentric circles and coaxial helices.

Both families collapse the geodesic equation to conservation of

    E = (r')^2 f(r),

with profile f(r) = omega + omega_r^2 / omega for circles on a
constant-curvature surface and f(r) = sqrt(r^2 + h^2) + 1/sqrt(r^2 + h^2)
for pitch-h helices in R^3.  With boundary values r(0) = r0, r(1) = r1 the
monotone solution takes E by quadrature, r(s) by one ODE solve:

    sqrt(E) = | integral_{r0}^{r1} sqrt(f) dr |,
    |r'(s)| = sqrt(E) / sqrt(f(r)).

The Sobolev speed of the materialized path is nu = sqrt(2 pi E), constant
in s, and the path distance is sqrt(2 pi E).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp

from ._fd import diff1
from .discrete_curves import MIN_SAMPLES
from .errors import DomainError, NumericFailure, PreconditionError, check_count
from .sobolev_metric import MIN_PATH_SAMPLES, CurvePath, make_path
from .space_forms import (
    Model,
    PolarFrame,
    SpaceForm,
    check_radius,
    exp_polar,
    polar_table,
    standard_frame,
)

R_MIN = 1e-4
_QUAD_TOL = 1e-12
_ODE_RTOL = 1e-13
# the solved r(1) must land on the far radius to this relative tolerance
_LANDING_TOL = 1e-11


@dataclass(frozen=True)
class ConcentricCircles:
    space: SpaceForm
    frame: PolarFrame


@dataclass(frozen=True)
class Helices:
    pitch: float


@dataclass(frozen=True, eq=False)
class RadiusTrajectory:
    """Solved radius-vs-s trajectory with its conserved quantity.

    ``conserved`` is E = (r')^2 f(r); ``distance`` the Sobolev length
    sqrt(2 pi E) of the materialized path.
    """

    family: ConcentricCircles | Helices
    s_grid: np.ndarray
    r: np.ndarray
    conserved: float
    distance: float


def circle_profile_f(space: SpaceForm, r):
    """Conserved-quantity profile f(r) = omega + omega_r^2 / omega."""
    if np.any(np.asarray(r, dtype=float) < R_MIN):
        raise DomainError(f"profile blows up near r = 0; keep r >= {R_MIN}")
    out = _circle_f(space.curvature, check_radius(space, r))
    return float(out) if out.ndim == 0 else out


def helix_profile_f(r, h: float):
    """Helix profile sqrt(r^2 + h^2) + 1 / sqrt(r^2 + h^2)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("helix radius must be positive")
    out = _helix_f(h, r)
    return float(out) if out.ndim == 0 else out


def _circle_f(K: float, r):
    om, om_r, _ = polar_table(K, r)
    return om + om_r * om_r / om


def _helix_f(h: float, r):
    rho = np.sqrt(r * r + h * h)
    return rho + 1.0 / rho


# ---------------------------------------------------------------------------
# the radius profile: E by quadrature, r(s) by one ODE solve


def _solve_radius_profile(f, r0: float, r1: float, m: int):
    """Solve (r')^2 f(r) = E with r(0) = r0, r(1) = r1 on a uniform s-grid.

    Returns (s_grid, r, E, distance).  sqrt(E) is the quadrature of sqrt(f)
    over [min(r0, r1), max(r0, r1)]; the radii solve r' = sqrt(E) / sqrt(f(r))
    upward from the smaller radius and are reversed for r1 < r0, so forward
    and reverse solves produce exactly mirrored radii.  ``f`` is evaluated
    only on that interval, which the callers have checked, so it skips the
    domain checks (``_circle_f``, ``_helix_f``).
    """
    if r0 == r1:
        raise PreconditionError("endpoint radii must differ (r0 != r1)")
    if min(r0, r1) < R_MIN:
        raise DomainError(f"radii must stay above {R_MIN}")
    check_count("m", m, MIN_PATH_SAMPLES)
    lo, hi = float(min(r0, r1)), float(max(r0, r1))
    with warnings.catch_warnings():
        # a failed quadrature is reported through NumericFailure below
        warnings.simplefilter("ignore", IntegrationWarning)
        sqrt_E, err = quad(
            lambda r: math.sqrt(f(r)), lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200
        )
    if not math.isfinite(sqrt_E) or err > 1e-8 * max(1.0, abs(sqrt_E)):
        raise NumericFailure("quadrature of sqrt(f) did not converge")
    E = sqrt_E * sqrt_E
    distance = math.sqrt(2.0 * math.pi * E)
    if not math.isfinite(distance):
        raise NumericFailure(f"conserved quantity E = {E} is not finite")

    s_grid = np.linspace(0.0, 1.0, m)
    # Runge-Kutta stages may step outside [lo, hi], where f can be undefined
    sol = solve_ivp(
        lambda s, r: sqrt_E / np.sqrt(f(np.clip(r, lo, hi))),
        (0.0, 1.0), [lo], method="DOP853", t_eval=s_grid, rtol=_ODE_RTOL, atol=0.0,
    )
    if not sol.success or not abs(sol.y[0, -1] - hi) <= _LANDING_TOL * max(1.0, hi):
        raise NumericFailure("radius inversion did not converge")
    r = sol.y[0]
    r[0], r[-1] = lo, hi
    if r1 < r0:
        r = r[::-1].copy()
    return s_grid, r, E, distance


def solve_concentric_geodesic(
    space: SpaceForm,
    r0: float,
    r1: float,
    m: int = 64,
    n: int = 256,
) -> tuple[RadiusTrajectory, CurvePath]:
    """Geodesic of concentric circles from radius r0 to r1 on a surface.

    Returns the solved trajectory and the materialized closed-curve path
    around the model's standard frame.
    """
    if space.model is Model.EUCLIDEAN3D:
        raise DomainError("concentric circle families live on 2D space forms")
    check_count("n", n, MIN_SAMPLES)
    check_radius(space, [r0, r1])
    s_grid, r, E, distance = _solve_radius_profile(partial(_circle_f, space.curvature), r0, r1, m)

    frame = standard_frame(space)
    t = 2.0 * np.pi * np.arange(n) / n
    points = exp_polar(space, frame, r, t)
    path = make_path(space, points, closed=True)
    traj = RadiusTrajectory(
        family=ConcentricCircles(space=space, frame=frame),
        s_grid=s_grid, r=r, conserved=E, distance=distance,
    )
    return traj, path


def solve_helix_geodesic(
    r0: float, r1: float, h: float, m: int = 64, n: int = 256
) -> tuple[RadiusTrajectory, CurvePath]:
    """Geodesic of coaxial pitch-h helices (r cos t, r sin t, h t) in R^3.

    The pitch is fixed along the path (h' = 0 by construction).  Curves
    are open over t in [0, 2 pi) but differentiated with screw-periodic
    stencils, the wrap translating by (0, 0, 2 pi h).
    """
    check_count("n", n, MIN_SAMPLES)
    h = float(h)
    s_grid, r, E, distance = _solve_radius_profile(partial(_helix_f, h), r0, r1, m)

    space = SpaceForm(Model.EUCLIDEAN3D, 0.0)
    t = 2.0 * np.pi * np.arange(n) / n
    points = np.empty((m, n, 3))
    points[:, :, 0] = r[:, None] * np.cos(t)
    points[:, :, 1] = r[:, None] * np.sin(t)
    points[:, :, 2] = h * t
    shift = np.array([0.0, 0.0, 2.0 * np.pi * h])
    path = make_path(space, points, closed=False, screw_shift=shift)
    traj = RadiusTrajectory(
        family=Helices(pitch=h), s_grid=s_grid, r=r, conserved=E, distance=distance,
    )
    return traj, path


# ---------------------------------------------------------------------------
# sphere check: the pendulum form of the conserved quantity


def pendulum_residual(traj: RadiusTrajectory) -> np.ndarray:
    """Deviation of (u')^2 / cos(u) from its s-mean, with u = pi/2 - r.

    Only defined for unit-sphere circle trajectories (K = 1); u' is
    estimated by fourth-order finite differences on the s-grid.
    """
    fam = traj.family
    if not isinstance(fam, ConcentricCircles) or fam.space.curvature != 1.0:
        raise DomainError("the pendulum form applies to unit-sphere circle families")
    u = 0.5 * math.pi - traj.r
    cos_u = np.cos(u)
    if np.any(np.abs(cos_u) < 1e-8):
        raise DomainError("trajectory touches the equatorial circle (cos u = 0)")
    ds = float(traj.s_grid[1] - traj.s_grid[0])
    u_prime = diff1(u, ds, False, order=4)
    value = u_prime * u_prime / cos_u
    return value - float(np.mean(value))


def conserved_drift(traj: RadiusTrajectory) -> np.ndarray:
    """FD re-evaluation of (r')^2 f(r) minus the stored constant E."""
    fam = traj.family
    if isinstance(fam, ConcentricCircles):
        f_vals = circle_profile_f(fam.space, traj.r)
    else:
        f_vals = helix_profile_f(traj.r, fam.pitch)
    ds = float(traj.s_grid[1] - traj.s_grid[0])
    r_prime = diff1(traj.r, ds, False, order=2)
    return r_prime * r_prime * f_vals - traj.conserved


# ---------------------------------------------------------------------------
# serialization


def trajectory_to_csv(traj: RadiusTrajectory) -> str:
    lines = ["s,r,conserved"]
    E = float(traj.conserved)
    for s, r in zip(traj.s_grid, traj.r):
        lines.append(f"{float(s)!r},{float(r)!r},{E!r}")
    return "\n".join(lines) + "\n"
