"""Variation formulas for length element and curvature, with FD oracles.

For a path of curves c(s, t) the first variations of the scalar geometric
quantities are

    omega' = g(D_T c', T) omega,
    kappa' = g(D_T^2 c', N) - 2 kappa g(D_T c', T) + K g(c', N),

and for normal paths (c' = rho N) additionally omega' = -rho kappa omega.
Each analytic formula is paired with an independent finite-difference
oracle in the path parameter so the identities can be verified on any
discretized family.

Two conserved-quantity identities of normal horizontal families live here
as well: the curvature-conservation residual

    2 kappa kappa_tt - 3 kappa_t^2 - 4 kappa^2 (kappa^2 + K)

(zero exactly when kappa' = 0 along the family) and the parallel-tangent
geodesic constant alpha = (omega')^2 (1 + kappa^2) / (omega kappa^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fd import diff1
from .discrete_curves import DiscreteCurve, d_theta
from .errors import DomainError, NormalityError, PreconditionError, check_count
from .sobolev_metric import CurvePath, normal_rows, rho_normal_component
from .space_forms import Model

VARIATION_QUANTITIES = ("omega", "kappa")
# relative tolerances of ``parallel_geodesic_alpha`` on kappa_theta and the t-spread of alpha
KAPPA_THETA_TOL = 1e-6
ALPHA_SPREAD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VariationReport:
    """Analytic prediction vs. finite-difference observation on rows k .. m-1-k."""

    quantity: str
    predicted: np.ndarray
    observed: np.ndarray

    @property
    def abs_error(self) -> np.ndarray:
        """Sup over t of |predicted - observed|, one value per row."""
        return np.max(np.abs(self.predicted - self.observed), axis=-1)


def predicted_omega_variation(path: CurvePath) -> np.ndarray:
    """g(D_T c', T) omega at every sample.

    On normal paths ``normal_omega_discrepancy`` compares it with the
    reduced form -rho kappa omega.
    """
    batch = path.batch
    return np.asarray(batch.space.inner(path.dT_velocity, batch.T)) * batch.omega


def normal_omega_discrepancy(path: CurvePath) -> np.ndarray:
    """Sup over t of the difference between the general formula and -rho kappa omega.

    The two agree on normal rows; the others are NaN, and a path with no
    normal row raises :class:`NormalityError`.
    """
    normal, batch = normal_rows(path), path.batch
    if not normal.any():
        raise NormalityError("the -rho kappa omega form only applies to normal paths")
    gap = predicted_omega_variation(path) + rho_normal_component(path) * batch.kappa * batch.omega
    return np.where(normal, np.max(np.abs(gap), axis=-1), np.nan)


def predicted_kappa_variation(path: CurvePath) -> np.ndarray:
    """g(D_T^2 c', N) - 2 kappa g(D_T c', T) + K g(c', N) at every sample."""
    batch, inner = path.batch, path.space.inner
    return np.asarray(
        inner(path.dT2_velocity, batch.N)
        - 2.0 * batch.kappa * inner(path.dT_velocity, batch.T)
        + path.space.curvature * inner(path.velocity, batch.N)
    )


def fd_variation(path: CurvePath, quantity: str, eps_steps: int = 1) -> np.ndarray:
    """Rows j = k .. m-1-k of the centered FD oracle (q(s_{j+k}) - q(s_{j-k})) / (2 k ds)."""
    if quantity not in VARIATION_QUANTITIES:
        raise DomainError(f"unknown variation quantity {quantity!r}")
    check_count("eps_steps", eps_steps, 1)
    k = eps_steps
    if 2 * k >= path.m:
        raise PreconditionError("eps_steps too large for the path: the FD oracle needs 2 k < m")
    q = getattr(path.batch, quantity)
    return (q[2 * k:] - q[:-2 * k]) / (2.0 * k * path.ds)


def predicted_variation(path: CurvePath, quantity: str) -> np.ndarray:
    """The analytic variation of ``quantity`` ("omega" or "kappa") at every sample."""
    if quantity not in VARIATION_QUANTITIES:
        raise DomainError(f"unknown variation quantity {quantity!r}")
    predict = predicted_omega_variation if quantity == "omega" else predicted_kappa_variation
    return predict(path)


def variation_report(path: CurvePath, quantity: str, eps_steps: int = 1) -> VariationReport:
    """The analytic variation of omega or kappa against ``fd_variation``, row for row."""
    observed = fd_variation(path, quantity, eps_steps)
    predicted = predicted_variation(path, quantity)[eps_steps:path.m - eps_steps]
    return VariationReport(quantity, predicted, observed)


# ---------------------------------------------------------------------------
# conserved quantities of normal horizontal families


def curvature_conservation_residual(curve: DiscreteCurve) -> np.ndarray:
    """2 kappa kappa_tt - 3 kappa_t^2 - 4 kappa^2 (kappa^2 + K) per sample.

    Zero along normal horizontal families whose curvature is conserved in s.
    """
    if curve.space.model is Model.EUCLIDEAN3D:
        raise DomainError("curvature conservation residual is a surface (2D) identity")
    kap = curve.kappa
    kap_t = d_theta(curve, kap)
    kap_tt = d_theta(curve, kap_t)
    return 2.0 * kap * kap_tt - 3.0 * kap_t**2 - 4.0 * kap**2 * (kap**2 + curve.space.curvature)


def parallel_geodesic_alpha(path: CurvePath) -> np.ndarray:
    """alpha(s) = (omega')^2 (1 + kappa^2) / (omega kappa^2), one value per s.

    Requires a normal family of constant-curvature curves (kappa_theta = 0
    within tolerance); equal values across s characterize a geodesic.  The
    expression is evaluated at t = 0 after checking its relative spread
    over t stays below ``ALPHA_SPREAD_TOL``.
    """
    batch = path.batch
    omega_prime = diff1(batch.omega, path.ds, False, order=2)
    if float(np.max(np.abs(omega_prime))) < 1e-12:
        raise PreconditionError("constant path: alpha is degenerate (omega' = 0)")
    if not np.all(normal_rows(path)):
        raise NormalityError("alpha requires a normal path")
    kap = batch.kappa
    kap_scale = np.max(np.abs(kap), axis=-1)
    if float(np.min(kap_scale)) < 1e-8:
        raise DomainError("alpha is undefined for geodesic (kappa = 0) curves")
    kap_t = d_theta(batch, kap)
    if np.any(np.max(np.abs(kap_t), axis=-1) > KAPPA_THETA_TOL * np.maximum(1.0, kap_scale)):
        raise PreconditionError("alpha requires constant-curvature curves (kappa_theta = 0)")
    field = omega_prime**2 * (1.0 + kap**2) / (batch.omega * kap**2)
    mean = np.mean(field, axis=-1)
    spread = np.max(np.abs(field - mean[:, None]), axis=-1)
    if np.any((mean != 0.0) & (spread > ALPHA_SPREAD_TOL * np.abs(mean))):
        raise PreconditionError("alpha expression is not t-independent on this family")
    return field[:, 0]


def shortening_flow_field(curve: DiscreteCurve) -> np.ndarray:
    """The flow field kappa N of the curve-shortening flow (2D curves or stacks)."""
    if curve.space.model is Model.EUCLIDEAN3D:
        raise DomainError("the shortening flow field is defined for 2D curves")
    return curve.kappa[..., None] * curve.N
