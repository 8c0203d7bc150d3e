"""Reduced geodesic solvers: concentric circles and coaxial helices.

Both families collapse the geodesic equation to conservation of

    E = (r')^2 f(r),

with profile f(r) = omega + omega_r^2 / omega for circles on a
constant-curvature surface and f(r) = sqrt(r^2 + h^2) + 1/sqrt(r^2 + h^2)
for pitch-h helices in R^3.  With boundary values r(0) = r0, r(1) = r1 the
solution is monotone; for r0 < r1 and Phi(r) = integral_{r0}^{r} sqrt(f) dr

    sqrt(E) = Phi(r1),    Phi(r(s)) = s sqrt(E),

so one quadrature gives E and the radii invert Phi, with no ODE solve.

The Sobolev speed of the materialized path is nu = sqrt(2 pi E), constant
in s, and the path distance is sqrt(2 pi E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fd import diff1
from .discrete_curves import MIN_SAMPLES
from .errors import DomainError, NumericFailure, PreconditionError, check_count
from .sobolev_metric import MIN_PATH_SAMPLES, CurvePath, make_path, pitch_shift
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
# tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974), step 1/8 in t up to |t| = 3.5:
# nodes 1 / (1 + exp(pi sinh |t|)) panel widths from the nearer end, weights per width.
# Built with math: numpy ufuncs run at import grow every process's resident memory
_TS_T = [k / 8.0 for k in range(1, 29)]
_TS_OFFSET = np.array([1.0 / (1.0 + math.exp(math.pi * math.sinh(t))) for t in _TS_T])
_TS_WEIGHT = np.array([math.pi / 32.0 * math.cosh(t) / math.cosh(math.pi / 2.0 * math.sinh(t)) ** 2
                       for t in _TS_T])
# panels 4-fold smaller toward hi, past which the sphere's sqrt(f) may blow up
# (cut locus); halved while the rule of twice the step misses by _SPLIT_TOL sqrt(E)
# (sqrt(f) bends sharply at the equator of large-K spheres)
_GRADED = np.array([4.0 ** -k for k in range(1, 27)])
_SPLIT_TOL, _MAX_PANELS = 1e-12, 2048
# Newton stops at |Phi(r) - s sqrt(E)| <= _INVERT_TOL (sqrt(E) + r sqrt(f(r)))
_INVERT_TOL = 1e-15


@dataclass(frozen=True)
class ConcentricCircles:
    space: SpaceForm
    frame: PolarFrame


@dataclass(frozen=True)
class Helices:
    pitch: float


@dataclass(frozen=True, eq=False)
class RadiusTrajectory:
    """Solved radii r on the uniform s-grid with the conserved quantity E = (r')^2 f(r)."""

    family: ConcentricCircles | Helices
    r: np.ndarray
    conserved: float

    @property
    def s_grid(self) -> np.ndarray:
        """The uniform grid of ``r`` over [0, 1]."""
        return np.linspace(0.0, 1.0, len(self.r))

    @property
    def distance(self) -> float:
        """The Sobolev length sqrt(2 pi E) of the materialized path."""
        return math.sqrt(2.0 * math.pi * self.conserved)


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
# the radius profile: sqrt(E) by quadrature, r(s) by inverting Phi


def quad(g, a, b):
    """Tanh-sinh integrals of ``g`` over the panels [a, b] (arrays of ends) and,
    as their error estimates, the distances to the rule of twice the step.
    A module function, so that it can be patched and traced by name."""
    width = b - a
    offset = width[..., None] * _TS_OFFSET
    sides = g(a[..., None] + offset) + g(b[..., None] - offset)
    centre = np.pi / 32.0 * g(0.5 * (a + b))
    # numpy's sums, not BLAS, whose result could depend on its thread count
    full = width * (centre + np.sum(sides * _TS_WEIGHT, axis=-1))
    half = 2.0 * width * (centre + np.sum(sides[..., 1::2] * _TS_WEIGHT[1::2], axis=-1))
    return full, np.abs(full - half)


def _solve_radius_profile(f, r0: float, r1: float, m: int):
    """Solve (r')^2 f(r) = E with r(0) = r0, r(1) = r1 on a uniform s-grid.

    Returns (r, E).  sqrt(E) = Phi(hi) over tanh-sinh panels of [lo, hi],
    geometric when hi / lo > 10; each radius solves Phi(r) = s sqrt(E) by
    Newton steps kept inside its panel.  The radii run upward from lo and
    are reversed for r1 < r0, so forward and reverse solves mirror exactly.
    ``f`` is evaluated only on [lo, hi], which the callers have checked, so
    it skips the domain checks (``_circle_f``, ``_helix_f``).
    """
    if r0 == r1:
        raise PreconditionError("endpoint radii must differ (r0 != r1)")
    if min(r0, r1) < R_MIN:
        raise DomainError(f"radii must stay above {R_MIN}")
    check_count("m", m, MIN_PATH_SAMPLES)
    lo, hi = float(min(r0, r1)), float(max(r0, r1))

    def sqrt_f(r):
        return np.sqrt(f(r))

    edges = np.geomspace(lo, hi, 17) if hi > 10.0 * lo else np.linspace(lo, hi, 17)
    edges = np.unique(np.concatenate([edges[:-1], hi - (hi - edges[-2]) * _GRADED, [hi]]))
    # overflow of extreme radii or pitch ends in the finite check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(64):  # a panel one ulp wide no longer splits
            values, err = quad(sqrt_f, edges[:-1], edges[1:])
            sqrt_E = float(np.sum(values))
            E = sqrt_E * sqrt_E
            if not math.isfinite(2.0 * math.pi * E):
                raise NumericFailure(f"conserved quantity E = {E} is not finite")
            bad = err > _SPLIT_TOL * sqrt_E
            if not bad.any() or len(edges) > _MAX_PANELS:
                break
            edges = np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])[bad]]))
    if bad.any():
        raise NumericFailure("quadrature of sqrt(f) did not converge")

    phi = np.concatenate([[0.0], np.cumsum(values)])
    target = sqrt_E * np.linspace(0.0, 1.0, m)[1:-1]
    p = np.searchsorted(phi, target, side="right") - 1
    start, low, high = edges[p], edges[p], edges[p + 1]
    r = low + (high - low) * (target - phi[p]) / (phi[p + 1] - phi[p])
    for _ in range(64):
        resid = phi[p] + quad(sqrt_f, start, r)[0] - target
        slope = sqrt_f(r)
        done = np.abs(resid) <= _INVERT_TOL * (sqrt_E + r * slope)
        if done.all():
            break
        high, low = np.where(resid > 0.0, r, high), np.where(resid < 0.0, r, low)
        step = r - resid / slope
        r = np.where(done, r, np.where((low <= step) & (step <= high), step, 0.5 * (low + high)))
    else:
        raise NumericFailure("radius inversion did not converge")
    r = np.concatenate([[lo], r, [hi]])
    return (r if r0 < r1 else r[::-1].copy()), E


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
    r, E = _solve_radius_profile(partial(_circle_f, space.curvature), r0, r1, m)

    frame = standard_frame(space)
    t = 2.0 * np.pi * np.arange(n) / n
    path = _path_of(space, exp_polar(space, frame, r, t), closed=True)
    return RadiusTrajectory(ConcentricCircles(space=space, frame=frame), r, E), path


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
    r, E = _solve_radius_profile(partial(_helix_f, h), r0, r1, m)

    space = SpaceForm(Model.EUCLIDEAN3D, 0.0)
    t = 2.0 * np.pi * np.arange(n) / n
    points = exp_polar(space, standard_frame(space), r, t)  # the planar circles, z = 0
    points[:, :, 2] = h * t
    path = _path_of(space, points, closed=False, screw_shift=pitch_shift(h))
    return RadiusTrajectory(Helices(pitch=h), r, E), path


def _path_of(space: SpaceForm, points: np.ndarray, **kwargs) -> CurvePath:
    """``make_path`` on a solver's own points: a refusal there is a numeric failure."""
    try:
        return make_path(space, points, **kwargs)
    except DomainError as exc:
        raise NumericFailure(str(exc)) from exc


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
