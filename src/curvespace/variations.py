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
from .errors import DomainError, NormalityError, PreconditionError
from .sobolev_metric import (
    CurvePath,
    _check_index,
    _is_normal,
    path_velocity,
    rho_normal_component,
    tangential_component,
)
from .space_forms import Model

VARIATION_QUANTITIES = ("omega", "kappa")
# relative tolerances of ``parallel_geodesic_alpha`` on kappa_theta and the t-spread of alpha
KAPPA_THETA_TOL = 1e-6
ALPHA_SPREAD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VariationReport:
    """Analytic prediction vs. finite-difference observation on one sample."""

    quantity: str
    predicted: np.ndarray
    observed: np.ndarray

    @property
    def abs_error(self) -> float:
        return float(np.max(np.abs(self.predicted - self.observed)))


def predicted_omega_variation(path: CurvePath, j: int) -> np.ndarray:
    """g(D_T c', T) omega per t-sample.

    On normal paths ``normal_omega_discrepancy`` compares it with the
    reduced form -rho kappa omega.
    """
    _check_index(path, j)
    batch = path.batch
    return np.asarray(batch.space.inner(path.dT_velocity[j], batch.T[j])) * batch.omega[j]


def normal_omega_discrepancy(path: CurvePath, j: int) -> float:
    """Sup difference between the general formula and -rho kappa omega.

    Only defined on normal paths, where the two expressions agree.
    """
    if not _is_normal(tangential_component(path, j)):
        raise NormalityError("the -rho kappa omega form only applies to normal paths")
    rho = rho_normal_component(path, j)
    general = predicted_omega_variation(path, j)
    return float(np.max(np.abs(general + rho * path.batch.kappa[j] * path.batch.omega[j])))


def predicted_kappa_variation(path: CurvePath, j: int) -> np.ndarray:
    """g(D_T^2 c', N) - 2 kappa g(D_T c', T) + K g(c', N) per t-sample."""
    v = path_velocity(path, j)
    batch, inner = path.batch, path.space.inner
    return np.asarray(
        inner(path.dT2_velocity[j], batch.N[j])
        - 2.0 * batch.kappa[j] * inner(path.dT_velocity[j], batch.T[j])
        + path.space.curvature * inner(v, batch.N[j])
    )


def fd_variation(path: CurvePath, quantity: str, j: int, eps_steps: int = 1) -> np.ndarray:
    """Centered FD oracle (q(s_{j+k}) - q(s_{j-k})) / (2 k ds), q in {omega, kappa}."""
    if quantity not in VARIATION_QUANTITIES:
        raise DomainError(f"unknown variation quantity {quantity!r}")
    k = int(eps_steps)
    if k < 1:
        raise PreconditionError("eps_steps must be a positive integer")
    if not k <= j <= path.m - 1 - k:
        raise PreconditionError("index too close to the path boundary for the FD oracle")
    q = getattr(path.batch, quantity)
    return (q[j + k] - q[j - k]) / (2.0 * k * path.ds)


def variation_report(path: CurvePath, quantity: str, j: int, eps_steps: int = 1) -> VariationReport:
    if quantity == "omega":
        predicted = predicted_omega_variation(path, j)
    elif quantity == "kappa":
        predicted = predicted_kappa_variation(path, j)
    else:
        raise DomainError(f"unknown variation quantity {quantity!r}")
    observed = fd_variation(path, quantity, j, eps_steps)
    return VariationReport(quantity=quantity, predicted=predicted, observed=observed)


# ---------------------------------------------------------------------------
# conserved quantities of normal horizontal families


def curvature_conservation_residual(curve: DiscreteCurve, K: float | None = None) -> np.ndarray:
    """2 kappa kappa_tt - 3 kappa_t^2 - 4 kappa^2 (kappa^2 + K) per sample.

    Zero along normal horizontal families whose curvature is conserved in s.
    """
    if curve.space.model is Model.EUCLIDEAN3D:
        raise DomainError("curvature conservation residual is a surface (2D) identity")
    if K is None:
        K = curve.space.curvature
    kap = curve.kappa
    kap_t = d_theta(curve, kap)
    kap_tt = d_theta(curve, kap_t)
    return 2.0 * kap * kap_tt - 3.0 * kap_t**2 - 4.0 * kap**2 * (kap**2 + K)


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
    if not _is_normal(batch.space.inner(path.velocity, batch.T)):
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
