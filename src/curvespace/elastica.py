"""Elastic curves from shape parameters and energy-minimizing paths of them.

An elastic curve in a constant-curvature ambient space is determined (up
to rigid motion) by the amplitude ``k`` of its curvature, the tension
``lambda``, and the torsion constant ``mu = kappa^2 tau``.  The curvature
profile solves the second-order ODE

    kappa_tt = -kappa^3 / 2 + mu^2 / kappa^3 + (lambda - 2 K) kappa / 2

from the amplitude (kappa(0) = k, kappa_t(0) = 0).  Its first integral
makes kappa a Jacobi elliptic function, evaluated in closed form (Langer
& Singer, *Knotted elastic curves in R^3*, 1984): sn, cn, dn and the
quarter period K come from one arithmetic-geometric mean in numpy
(DLMF 22.20(ii)).  The curve itself is rebuilt from an initial frame by
Lie-group steps: the Frenet system (or its 2D intrinsic analogue on a
surface) is linear in the frame rows, so each step is the exponential of
a fourth-order Magnus exponent, and a
blocked prefix product of the steps (about 2n products in about 2 sqrt(n)
batched rounds) gives every point at once.  The steps are closed forms:
the exponents are written entry by entry in the isometry algebra, the
exponential is a Rodrigues-type polynomial in the exponent,
and a cached 6-point Lagrange stencil gives the curvature and torsion at
the Gauss points.

Constant profiles kappa = k occur exactly on the circle locus

    k^6 + (2 K - lambda) k^4 - 2 mu^2 = 0.

The sign of the mu^2 term differs between torsion conventions in the
literature; the one used here was fixed empirically by a brute-force
first-variation test of the bending energy on discretized perturbations
of a constant-(kappa, tau) helix (the test lives in the suite and guards
the constant below).

Paths of elastica spline the shape coordinates (log k, (lambda - 2 K) /
k^2, mu / k^3) through interior control points, lie in the start's
``_gauge`` and are scored with the Sobolev path energy.  That energy is a
sum of squares of path residuals, so one deterministic Gauss-Newton
trust-region search minimizes it over the controls' shape coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .discrete_curves import MIN_SAMPLES, DiscreteCurve, build_curve
from .errors import (
    CapabilityError,
    CurveSpaceError,
    DomainError,
    NumericFailure,
    OptimizationFailure,
    PreconditionError,
    check_count,
)
from .sobolev_metric import MIN_PATH_SAMPLES, CurvePath, path_energy, path_residuals
from .space_forms import (
    Model,
    SpaceForm,
    euclidean3d,
    exp_polar,
    json_array,
    json_number,
    polar_frame,
    standard_frame,
    surface_of_curvature,
)

# Sign of the 2 mu^2 term in the circle locus (and, with opposite sign, of
# the mu^2/kappa^3 term of the profile ODE).  Fixed once by the
# first-variation oracle; see the module docstring.
MU_LOCUS_SIGN = -1.0

# fewest samples of a curvature profile, and so of every curve of a path
MIN_PROFILE_SAMPLES = 64


# ---------------------------------------------------------------------------
# parameters and frames


@dataclass(frozen=True)
class FrenetFrame:
    """Position and orthonormal frame of a curve at theta = 0."""

    origin: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray | None = None

    def __post_init__(self):
        for name in ("origin", "T", "N", "B"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
                if not np.all(np.isfinite(getattr(self, name))):
                    raise DomainError(f"frame vector {name} must be finite")


def _ambient_space(K: float) -> SpaceForm:
    return euclidean3d() if K == 0.0 else surface_of_curvature(K)


def _validate_frame(space: SpaceForm, frame: FrenetFrame) -> None:
    """Dimensions, tangency and orthonormality (``polar_frame``); the
    orientation on a surface; the binormal in 3D."""
    polar_frame(space, frame.origin, frame.T, frame.N)
    if frame.B is not None and frame.B.shape != (space.ambient_dim,):
        raise DomainError(f"frame vectors must have dimension {space.ambient_dim}")
    if space.curved:
        if float(space.inner(frame.N, space.normal_2d(frame.origin, frame.T))) < 0.0:
            raise DomainError("initial frame must be positively oriented (N = T rotated by +pi/2)")
    if space.model is Model.EUCLIDEAN3D:
        if frame.B is None:
            raise DomainError("space-curve frames need a binormal")
        if float(np.linalg.norm(frame.B - np.cross(frame.T, frame.N))) > 1e-9:
            raise DomainError("binormal must complete a right-handed frame")


@dataclass(frozen=True)
class ElasticaParams:
    """Shape parameters (k, lambda, mu) plus ambient curvature, length, and frame."""

    k: float
    lam: float
    mu: float
    K: float
    L: float
    frame: FrenetFrame

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.k, self.lam, self.mu, self.K, self.L)):
            raise DomainError("elastica parameters k, lambda, mu, K and L must be finite")
        if self.k < 0.0:
            raise DomainError("curvature amplitude k must be nonnegative")
        if self.mu != 0.0 and self.k <= 0.0:
            raise DomainError("nonzero mu needs positive curvature amplitude")
        if self.L <= 0.0:
            raise DomainError("curve length must be positive")
        _validate_frame(_ambient_space(self.K), self.frame)

    @property
    def space(self) -> SpaceForm:
        return _ambient_space(self.K)


def circle_locus_residual(params: ElasticaParams) -> float:
    """k^6 + (2K - lambda) k^4 + s 2 mu^2; zero iff kappa = k solves the ODE."""
    k, lam, mu, K = params.k, params.lam, params.mu, params.K
    return k**6 + (2.0 * K - lam) * k**4 + MU_LOCUS_SIGN * 2.0 * mu**2


def curvature_well(kappa, lam: float, mu: float, K: float):
    """Potential Q with Q' = -2 P for the profile ODE kappa_tt = P(kappa).

    kappa_t^2 + Q(kappa) is conserved along every profile.
    """
    kappa = np.asarray(kappa, dtype=float)
    val = 0.25 * kappa**4 + 0.5 * (2.0 * K - lam) * kappa**2
    if mu != 0.0:
        val = val + mu * mu / kappa**2
    return val


def first_integral(params: ElasticaParams, kappa, kappa_t):
    """The conserved quantity kappa_t^2 + Q(kappa) along a profile."""
    return np.asarray(kappa_t) ** 2 + curvature_well(kappa, params.lam, params.mu, params.K)


# ---------------------------------------------------------------------------
# curvature profile


def solve_curvature_profile(params: ElasticaParams, n: int, *, with_derivative: bool = False):
    """Closed-form curvature profile over [0, L] from the amplitude.

    Returns ``n`` samples of the Jacobi elliptic solution kappa and of
    tau = mu / kappa^2 (plus kappa_t when ``with_derivative`` is set); see
    ``_batch_profiles``.  The initial condition kappa(0) = k,
    kappa_t(0) = 0 makes k the curvature maximum whenever P(k) <= 0
    (equivalently, a nonnegative circle-locus residual); for parameters on
    the other side of the locus the profile oscillates above k instead.
    """
    check_count("n", n, MIN_PROFILE_SAMPLES)
    if params.k == 0.0:
        kappa, tau, kappa_t = (np.zeros(n) for _ in range(3))
    else:
        kappa, tau, kappa_t = (v[0] for v in _batch_profiles(
            [params.k], [params.lam], [params.mu], params.K, [params.L], n
        ))
    return (kappa, tau, kappa_t) if with_derivative else (kappa, tau)


def _jacobi(u, m, m1, shifted):
    """Jacobi sn, cn and dn of u + K(m) where ``shifted``, else of u.

    u is (rows, n); m, in [0, 1], its complement m1 = 1 - m and ``shifted``
    are (rows, 1).  One arithmetic-geometric mean of 1 and sqrt(m1) per row
    gives the quarter period K = pi / (2 a_N) and the amplitude phi,
    descending from phi_N = 2^N a_N u (DLMF 22.20(ii), 19.8.1); sn = sin phi,
    cn = cos phi and dn = sqrt(m1 + m cn^2), free of cancellation.  Where the
    argument lies nearer an odd multiple of K, phi would end near pi / 2 and
    cos phi lose the small m1, so the descent runs at v = argument - K and
    sn = cd v, cn = -sqrt(m1) sd v, dn = sqrt(m1) nd v (DLMF 22.4.3).  A row
    stops once its c / a rounds to nothing: it keeps its a, and its further
    ratios are 0, exact halvings of phi, so its values do not depend on the
    rows beside it (the last step, 0 on every row, is left out).  A NaN m
    stops at once and gives a NaN dn.  At m1 = 0 the mean does not converge:
    sn = tanh u, cn = dn = sech u, and the shifted values are their limits
    1, 0 and 0 as K grows without bound.
    """
    separatrix = m1 == 0.0  # the AGM of the separatrix rows is not read
    a, b, c = 1.0, np.sqrt(np.where(separatrix, 1.0, m1)), np.sqrt(np.where(separatrix, 0.0, m))
    ratios, go = [], c > 2.0**-53 * a
    while go.any():
        a, b, c = np.where(go, 0.5 * (a + b), a), np.sqrt(a * b), np.where(go, 0.5 * (a - b), 0.0)
        go = c > 2.0**-53 * a
        ratios.append(c / a * go)
    ratios = ratios[:-1]
    phi = a * u
    half = 0.5 * np.rint(phi * (2.0 / np.pi))  # u / 2K, to the nearest half
    turn = ((np.rint(half) != half) != shifted) & ~separatrix  # descend at the argument - K
    # an exact multiple of pi / 2: a zero offset leaves phi's bits alone
    phi = np.ldexp(phi + 0.5 * np.pi * np.subtract(shifted, turn, dtype=float), len(ratios))
    for ratio in reversed(ratios):
        phi = 0.5 * (np.arcsin(ratio * np.sin(phi)) + phi)
    sn, cn = np.sin(phi), np.cos(phi)
    rows = separatrix[:, 0]
    if rows.any():
        v, limit = u[rows], shifted[rows]
        sn[rows], cn[rows] = np.where(limit, 1.0, np.tanh(v)), np.where(limit, 0.0, 1.0 / np.cosh(v))
    dn = np.sqrt(m1 + m * cn * cn)
    k1sn = -np.sqrt(m1) * sn
    np.divide(cn, dn, out=sn, where=turn)
    np.divide(k1sn, dn, out=cn, where=turn)
    np.divide(np.sqrt(m1), dn, out=dn, where=turn)
    return sn, cn, dn


def _batch_profiles(ks, lams, mus, K: float, Ls, n: int):
    """Closed-form profiles of a whole family of parameters at once.

    u = kappa^2 solves u_t^2 = -(u - u1)(u - u2)(u - u3); deflating the
    cubic by its known root k^2 leaves u^2 + b u + c.  The motion stays in
    [u2, u1] from k^2, so u = u2 + (u1 - u2) cn^2(omega t + shift, p) with
    omega = sqrt(u1 - u3) / 2, p = (u1 - u2) / (u1 - u3) and the quarter
    period shift = K(p) when k^2 is the lower root u2.  For mu = 0 and
    u2 = 0 (wave-like branch, separatrix) kappa = k cn(.) changes sign.
    sn, cn, dn and the shift K(p) come from one AGM per row (``_jacobi``),
    handed p and its complement (u2 - u3) / (u1 - u3), which keeps its
    digits where p rounds to 1.
    Parameter arrays have shape (m,); returns kappa, tau = mu / kappa^2
    (0 where mu = 0) and kappa_t, each (m, n).
    """
    ks = np.asarray(ks, dtype=float)[:, None]
    mus = np.asarray(mus, dtype=float)[:, None]
    t = np.asarray(Ls, dtype=float)[:, None] * np.linspace(0.0, 1.0, n)
    # overflow of extreme amplitudes ends in the finite check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu2 = mus**2
        a = ks**2
        b = a + 2.0 * (2.0 * K - np.asarray(lams, dtype=float)[:, None])
        c = -4.0 * mu2 / a  # exactly 0 when mu = 0
        # cancellation-free roots of u^2 + b u + c; r1 = 0 only when c = 0
        r1 = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * c), b))
        r2 = c / np.where(r1 != 0.0, r1, 1.0)
        u3, u2, u1 = np.sort(np.stack([a, r1, r2]), axis=0)
        d = u1 - u2
        omega = 0.5 * np.sqrt(u1 - u3)
        sn, cn, dn = _jacobi(omega * t, d / (u1 - u3), (u2 - u3) / (u1 - u3), a < u1)
        signed = (mu2 == 0.0) & (u2 == 0.0)
        kappa = np.where(signed, ks * cn, np.sqrt(u2 + d * cn**2))
        kappa_t = -omega * d * sn * dn * np.where(signed, 1.0 / ks, cn / kappa)
    kappa[:, 0], kappa_t[:, 0] = ks[:, 0], 0.0
    if not np.all(np.isfinite(kappa)) or not np.all(np.isfinite(kappa_t)):
        raise NumericFailure("curvature profile evaluation produced non-finite values")
    if np.any((mu2 > 0.0) & (kappa <= 1e-9)):
        raise NumericFailure("curvature reached zero with nonzero torsion constant")
    tau = np.divide(mus, kappa**2, out=np.zeros_like(kappa), where=mus != 0.0)
    return kappa, tau, kappa_t


# ---------------------------------------------------------------------------
# curve reconstruction


# Gauss points of one step, as fractions of the step
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# power series in t^2 of (1 - cos t) / t^2 and (t - sin t) / t^3, as
# columns: (-1)^j / (2j + 2)! and (-1)^j / (2j + 3)! for j = 0..7
_RODRIGUES_SERIES = np.array(
    [[(-1) ** j / math.factorial(2 * j + k) for k in (2, 3)] for j in range(8)]
)
_STENCIL = 6  # points of the Lagrange interpolant for the Gauss-point values


def _expm(X: np.ndarray) -> np.ndarray:
    """Exponential of every matrix of an (..., 4, 4) stack of Magnus exponents.

    Each exponent lies in the isometry algebra of the model, X^T G + G X = 0
    with G = diag(K, 1, 1, 1), and its B row and column vanish when K != 0.
    So X^4 = -theta^2 X^2 with theta^2 = -tr(X^2) / 2, and the Rodrigues-type
    formula exp X = I + X + a X^2 + b X^3 holds with
    a = (1 - cos theta) / theta^2 and b = (theta - sin theta) / theta^3
    (cosh and sinh where theta^2 < 0, on the hyperboloid).  a and b are
    8-term power series in theta^2 after scaling each X to Frobenius norm
    < 1/2; squarings undo the scaling.  Not valid for general matrices.
    """
    norm = np.sqrt(np.einsum("...ij,...ij->...", X, X))  # Frobenius
    if not np.all(np.isfinite(norm)):
        raise NumericFailure("Frenet reconstruction met a non-finite generator")
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)  # |X / 2^s| < 1/2: series tail < 1e-22
    X = np.ldexp(X, -s[..., None, None])
    X2 = X @ X
    a, b = polyval(-0.5 * np.einsum("...ii->...", X2), _RODRIGUES_SERIES)
    E = np.eye(X.shape[-1]) + X + a[..., None, None] * X2 + b[..., None, None] * (X2 @ X)
    for j in range(int(s.max(initial=0))):
        E = np.where((s > j)[..., None, None], E @ E, E)
    return E


def _prefix_products(Phi: np.ndarray) -> np.ndarray:
    """P_i = Phi_{i-1} ... Phi_0 (P_0 = I) along axis 1 of an (m, n - 1, d, d) stack.

    Two-level blocked scan over blocks of about sqrt(n) steps, the last
    padded with identities: sequential products inside every block at once,
    then block after block the previous block's last product carries in.
    About 2n products in about 2 sqrt(n) batched rounds.
    """
    m, steps, d, _ = Phi.shape
    size = math.isqrt(max(steps - 1, 0)) + 1  # ceil(sqrt(steps)) steps per block
    blocks = -(-steps // size)
    P = np.empty((m, blocks * size + 1, d, d))
    P[:, 0] = np.eye(d)
    P[:, 1 : steps + 1] = Phi
    P[:, steps + 1 :] = np.eye(d)
    Q = P[:, 1:].reshape(m, blocks, size, d, d)  # a view: step k of block b is Q[:, b, k]
    for k in range(1, size):
        Q[:, :, k] = Q[:, :, k] @ Q[:, :, k - 1]
    for b in range(1, blocks):
        Q[:, b] = Q[:, b] @ Q[:, b - 1, -1:]
    return P[:, : steps + 1]


@lru_cache(maxsize=8)
def _gauss_stencil(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (n - 1, 6) and weights (n - 1, 2, 6) giving the Gauss-point values.

    Step i reads the 6 samples from i - 2, shifted inward at the ends of
    the grid, and weighs them by the Lagrange basis polynomials at its two
    Gauss points: exact for polynomials of degree <= 5.  Callers ensure n >= 8.
    """
    first = np.clip(np.arange(n - 1) - 2, 0, n - _STENCIL)
    nodes = np.arange(_STENCIL)
    # Gauss point x minus stencil node l, never 0, and the Lagrange weights
    # w_j = prod_l (x - l) / ((x - j) prod_{l != j} (j - l))
    d = ((np.arange(n - 1) - first)[:, None] + _GAUSS_NODES)[..., None] - nodes
    scale = [np.prod(j - np.delete(nodes, j)) for j in nodes]
    weights = np.prod(d, axis=-1, keepdims=True) / (d * scale)
    index = first[:, None] + nodes
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


def _gauss_values(samples: np.ndarray) -> np.ndarray:
    """Values at the two Gauss points of every step: (..., n) samples -> (..., n - 1, 2)."""
    index, weights = _gauss_stencil(samples.shape[-1])
    return np.einsum("...ik,ijk->...ij", samples[..., index], weights)


def _magnus_exponents(K: float, kappas, taus, Ls) -> np.ndarray:
    """Fourth-order Magnus exponents, (m, n - 1, 4, 4): one per step of each curve.

    Omega_i = h/2 (A_1 + A_2) + sqrt(3)/12 h^2 [A_2, A_1] with A (see
    ``_batch_reconstruct``) at the two Gauss points of step i, where a
    6-point Lagrange stencil (``_gauss_stencil``) gives kappa and tau.
    With the matrix units Eij, A = C + kappa X + tau Y for C = E01 - K E10,
    X = E12 - E21 and Y = E23 - E32; [X, C] = K E20 - E02, [X, Y] = E13 - E31
    and [Y, C] = 0, so every entry of Omega is one coefficient.
    """
    samples = np.stack([kappas, taus])
    if not np.all(np.isfinite(samples)):
        raise NumericFailure("Frenet reconstruction got a non-finite profile")
    (k1, k2), (t1, t2) = np.moveaxis(_gauss_values(samples), -1, 1)  # each (m, n - 1)
    h = (np.asarray(Ls, dtype=float) / (samples.shape[-1] - 1))[:, None]
    c = math.sqrt(3.0) / 12.0 * h * h
    a, b = 0.5 * h * (k1 + k2), 0.5 * h * (t1 + t2)
    g, d = c * (k2 - k1), c * (k2 * t1 - k1 * t2)
    Omega = np.zeros((*k1.shape, 4, 4))
    Omega[..., 0, 1], Omega[..., 1, 0] = h, -K * h
    Omega[..., 0, 2], Omega[..., 2, 0] = -g, K * g
    Omega[..., 1, 2], Omega[..., 2, 1] = a, -a
    Omega[..., 1, 3], Omega[..., 3, 1] = d, -d
    Omega[..., 2, 3], Omega[..., 3, 2] = b, -b
    return Omega


def _batch_reconstruct(K: float, frames, kappas, taus, Ls) -> np.ndarray:
    """Rebuild a family of curves from their profiles by Lie-group steps.

    The rows Y = (c, T, N, B) of each curve solve Y' = A(s) Y with
    A = [[0, 1, 0, 0], [-K, 0, kappa, 0], [0, -kappa, 0, tau], [0, 0, -tau, 0]]:
    the Frenet system for K = 0, and for K != 0 the intrinsic system on
    the surface (tau = 0, B = 0, <T, T> = 1).  Step i propagates by
    exp(Omega_i) (``_magnus_exponents``, then the closed form ``_expm``:
    A and Omega lie in the isometry algebra) and the points are the first rows
    of the prefix products (the blocked scan ``_prefix_products``) applied
    to the initial rows.  The products keep
    P^T diag(K, 1, 1, 1) P = diag(K, 1, 1, 1): frames stay orthonormal and
    points on the sphere or hyperboloid, with no projection.  ``frames``
    is (m, 4, dim), the profiles (m, n); returns (m, n, dim) points.
    """
    # overflow ends in the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        points = _prefix_products(_expm(_magnus_exponents(K, kappas, taus, Ls)))[:, :, 0] @ frames
    if not np.all(np.isfinite(points)):
        raise NumericFailure("Frenet reconstruction produced non-finite points")
    return points


def _frame_rows(frame: FrenetFrame) -> np.ndarray:
    """Initial rows (c, T, N, B) of the reconstruction; B = 0 on a surface."""
    B = np.zeros_like(frame.T) if frame.B is None else frame.B
    return np.stack([frame.origin, frame.T, frame.N, B])


def reconstruct_curve(params: ElasticaParams, kappa, tau, n: int) -> DiscreteCurve:
    """Rebuild the curve with the given profile from ``params.frame``.

    Euclidean 3-space when K = 0; the surface of curvature K when the
    torsion vanishes.  Fourth-order Magnus propagators, combined by a
    blocked prefix product (see ``_batch_reconstruct``).
    """
    check_count("n", n, MIN_SAMPLES)
    kappa = np.asarray(kappa, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if kappa.shape != (n,) or tau.shape != (n,):
        raise DomainError("profile arrays must have length n")
    if params.K != 0.0 and (params.mu != 0.0 or np.any(tau != 0.0)):
        raise CapabilityError(
            "reconstruction with torsion is only available in Euclidean 3-space (K = 0)"
        )
    points = _batch_reconstruct(
        params.K, _frame_rows(params.frame)[None], kappa[None], tau[None], [params.L]
    )[0]
    try:
        return build_curve(params.space, points, closed=False)
    except DomainError as exc:  # its own points: far out, rounding leaves the surface
        raise NumericFailure(f"curve reconstruction failed: {exc}") from exc


def generate_curve(params: ElasticaParams, n: int) -> DiscreteCurve:
    """Profile + reconstruction in one step."""
    kappa, tau = solve_curvature_profile(params, n)
    return reconstruct_curve(params, kappa, tau, n)


# ---------------------------------------------------------------------------
# paths of elastica


def _triple(params: ElasticaParams) -> list[float]:
    return [params.k, params.lam, params.mu]


def _shape(triples, K: float) -> np.ndarray:
    """Shape coordinates z = (log k, (lambda - 2 K) / k^2, mu / k^3) of (..., 3) triples.

    Scaling a flat curve by a takes (k, lambda, mu) to (k / a, lambda / a^2,
    mu / a^3), so z_2 and z_3 fix all but the scale, and the circle locus
    divided by k^6 reads z_2 = 1 - 2 z_3^2.  Refuses k <= 0 and any k whose
    k^2 or k^3 (the more extreme) is not a normal float, with ``DomainError``.
    """
    k, lam, mu = np.moveaxis(np.asarray(triples, dtype=float), -1, 0)
    with np.errstate(over="ignore", under="ignore"):
        bad = ~((k > 0.0) & (k**3 >= np.finfo(float).tiny) & (k**3 < math.inf))
    if np.any(bad):
        raise DomainError("path endpoints and controls need positive curvature amplitude"
                          f" k with normal k^2 and k^3, got k = {float(k[bad][0])!r}")
    return np.stack([np.log(k), (lam - 2.0 * K) / k**2, mu / k**3], axis=-1)


def _triples(z: np.ndarray, K: float) -> np.ndarray:
    """(k, lambda, mu) of (..., 3) shape coordinates; k = exp z_1 > 0."""
    k = np.exp(z[..., 0])
    return np.stack([k, 2.0 * K + z[..., 1] * k**2, z[..., 2] * k**3], axis=-1)


@dataclass(frozen=True, eq=False)
class ElasticaPathSpec:
    """Endpoint parameters plus interior control triples for one path.

    Every curve lies in the start's gauge (``_gauge``), the end curve too:
    ``end.L`` and ``end.frame`` are not read.  ``nodes`` are the shape
    coordinates (``_shape``) of start, controls and end.  m >= 3,
    n >= ``MIN_PROFILE_SAMPLES``.
    """

    start: ElasticaParams
    end: ElasticaParams
    control_points: np.ndarray
    m: int = 17
    n: int = 128
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "control_points", np.atleast_2d(np.asarray(self.control_points, dtype=float))
        )
        if self.start.K != self.end.K:
            raise DomainError("path endpoints must share the ambient curvature")
        if self.control_points.ndim != 2 or self.control_points.shape[1] != 3:
            raise DomainError("control points must be (k, lambda, mu) triples")
        if not np.all(np.isfinite(self.control_points)):
            raise DomainError("control points must be finite")
        if self.control_points.shape[0] < 1:
            raise PreconditionError("need at least one interior control point")
        triples = np.vstack([_triple(self.start), self.control_points, _triple(self.end)])
        object.__setattr__(self, "nodes", _shape(triples, self.K))
        if self.K != 0.0 and np.any(triples[:, 2] != 0.0):
            raise CapabilityError("torsion (mu != 0) requires a flat ambient space")
        check_count("m", self.m, MIN_PATH_SAMPLES)
        check_count("n", self.n, MIN_PROFILE_SAMPLES)

    @property
    def K(self) -> float:
        return self.start.K

    @property
    def q(self) -> int:
        return self.control_points.shape[0]


def _gauge_centre(start: ElasticaParams) -> np.ndarray:
    """The start's osculating centre at theta = 0, which ``_gauge`` pins for K = 0."""
    return start.frame.origin + start.frame.N / start.k


def _gauge(start: ElasticaParams, ks) -> tuple[np.ndarray, np.ndarray]:
    """Initial rows (r, 4, dim) and lengths (r,) of the curves with amplitudes ``ks``.

    The gauge of a path: every curve has the start's frame directions at
    theta = 0 and the shared dimensionless length ell = L k, so it spans
    one full turn of its amplitude-osculating circle.  For K = 0 the
    osculating center at theta = 0 is the start's, so circle-locus
    parameters give closed concentric circles; for K != 0 every curve
    begins at the start point, and circles do not close: length
    2 pi / sqrt(k^2 + K), not 2 pi / k.
    """
    ks = np.asarray(ks, dtype=float)
    frames = np.repeat(_frame_rows(start.frame)[None], len(ks), axis=0)
    if start.K == 0.0:
        frames[:, 0] = _gauge_centre(start) - start.frame.N / ks[:, None]
    return frames, start.L * start.k / ks


@lru_cache(maxsize=8)
def _trajectory_weights(q: int, m: int) -> np.ndarray:
    """(m, q + 2) weights of the not-a-knot cubic spline through q + 2 equispaced nodes.

    The spline is linear in the node values, so splining the unit vectors
    gives its value at each of the m equispaced path samples as a weighted
    sum.  With unit node spacing and chords d_i = y_{i+1} - y_i the slopes
    solve s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i) inside and
    s_0 + 2 s_1 = (5 d_0 + d_1) / 2 (mirrored at the far end); three nodes
    give their parabola, as ``scipy.interpolate.CubicSpline`` does.  The
    samples are cubic Hermite forms, so the end rows are exactly e_0 and e_{q+1}.
    """
    nodes, E = q + 2, np.eye(q + 2)
    d = np.diff(E, axis=0)
    A = np.eye(nodes, k=-1) + 4.0 * E + np.eye(nodes, k=1)
    A[0, :2], A[-1, -2:] = (1.0, 2.0), (2.0, 1.0)
    rhs = np.vstack([(5.0 * d[0] + d[1]) / 2.0, 3.0 * (d[:-1] + d[1:]), (d[-2] + 5.0 * d[-1]) / 2.0])
    if nodes == 3:  # the three rows are dependent; a parabola's slopes are linear
        A[1], rhs[1] = (1.0, -2.0, 1.0), 0.0
    slopes = np.linalg.solve(A, rhs)
    # sample j lies at u in [0, 1] of the interval after node `left`, exact from integers
    j = np.arange(m) * (nodes - 1)
    left = np.minimum(j // (m - 1), nodes - 2)
    u = ((j - left * (m - 1)) / (m - 1))[:, None]
    weights = (1.0 - u) ** 2 * ((1.0 + 2.0 * u) * E[left] + u * slopes[left]) + u * u * (
        (3.0 - 2.0 * u) * E[left + 1] - (1.0 - u) * slopes[left + 1]
    )
    weights.flags.writeable = False
    return weights


def parameter_trajectory(spec: ElasticaPathSpec) -> np.ndarray:
    """(k, lambda, mu) at the m path samples, (m, 3).

    The not-a-knot cubic spline of ``spec.nodes`` (cached weights of
    ``_trajectory_weights``) mapped back by ``_triples``: nodes of one shape
    keep every row on the circle locus.  The end rows are exactly the
    endpoint triples, whatever the rounding of the spline and of exp(log k).
    """
    rows = _triples(_trajectory_weights(spec.q, spec.m) @ spec.nodes, spec.K)
    rows[[0, -1]] = _triple(spec.start), _triple(spec.end)
    return rows


def _integrate_rows(spec: ElasticaPathSpec, rows: np.ndarray) -> np.ndarray:
    """Points (r, n, dim) of the elastica with (k, lambda, mu) rows (r, 3), in the path's ``_gauge``."""
    ks, lams, mus = rows.T
    frames, Ls = _gauge(spec.start, ks)
    kappas, taus, _ = _batch_profiles(ks, lams, mus, spec.K, Ls, spec.n)
    return _batch_reconstruct(spec.K, frames, kappas, taus, Ls)


def materialize_path(spec: ElasticaPathSpec) -> CurvePath:
    """Generate the m curves of the path in one batched integration and one ``build_curve``."""
    try:
        points = _integrate_rows(spec, parameter_trajectory(spec))
        return CurvePath(build_curve(spec.start.space, points, closed=False))
    except CurveSpaceError as exc:
        raise NumericFailure(f"curve generation failed along the path: {exc}") from exc


def elastica_path_energy(spec: ElasticaPathSpec) -> tuple[float, CurvePath]:
    """Materialize the path of elastica and score it with the Sobolev energy."""
    path = materialize_path(spec)
    return path_energy(path), path


# ---------------------------------------------------------------------------
# energy minimization over control coordinates


@dataclass(frozen=True)
class OptimizeOptions:
    """``seed`` (an integer >= 0) is validated but has no effect: the search
    is deterministic.  The class stays because callers construct
    ``OptimizeOptions(seed=...)``.
    """

    seed: int = 0

    def __post_init__(self):
        check_count("seed", self.seed, 0)


def _interior_seed(start: ElasticaParams, end: ElasticaParams, q: int) -> np.ndarray:
    """(q, 3) control triples at the equispaced interior nodes, linear in ``_shape``'s z.

    Endpoints that differ by a scaling get a seed of scaled copies, endpoints
    on the circle locus a seed on it; every k lies between theirs.
    """
    s = np.linspace(0.0, 1.0, q + 2)[1:-1][:, None]
    a, b = _shape([_triple(start), _triple(end)], start.K)
    return _triples((1.0 - s) * a + s * b, start.K)


# trust-region search with scipy's trust-exact defaults: initial and largest
# radius, least accepted actual / predicted reduction, gradient norm that stops
_TR_RADIUS, _TR_MAX_RADIUS, _TR_ETA, _TR_GTOL = 1.0, 1000.0, 0.15, 1e-4
# Newton's method for a boundary step's multiplier: at most 50 steps, to |p| = radius (1 +- 1e-13)
_TR_SECULAR_STEPS, _TR_SECULAR_RTOL = 50, 1e-13
# iterations of one search, accepted or not
_TR_MAX_ITER = 500


class SearchResult(NamedTuple):
    x: np.ndarray  # the last accepted point
    nit: int  # iterations, accepted or not


def _trust_region_step(g: np.ndarray, H: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """Minimizer p of g . p + p . H p / 2 over |p| <= radius, and whether |p| = radius.

    H is symmetric positive semidefinite with g in its range (H = 2 J^T J,
    g = 2 J^T r).  With H = V diag(w) V^T and a = V^T g on the numerical
    range of H, p(mu) = -V (a / (w + mu)): p(0) = -H^+ g when it fits,
    otherwise the mu > 0 with |p(mu)| = radius by Newton's method on
    1 / |p(mu)|, which is concave, so the iterates rise monotonically from
    mu = 0 (More & Sorensen, *SIAM J. Sci. Stat. Comput.* 4, 1983).
    """
    w, V = np.linalg.eigh(H)
    kept = w > w[-1] * w.size * np.finfo(float).eps
    unit = math.ldexp(1.0, -math.frexp(w[-1])[1])  # exact rescaling: a^2, w^3 stay finite
    w, V = w[kept] * unit, V[:, kept]
    a = (V.T @ g) * unit
    mu, p_norm = 0.0, np.linalg.norm(a / w)
    if p_norm <= radius:
        return -(V @ (a / w)), False
    for _ in range(_TR_SECULAR_STEPS):
        mu += p_norm**2 / np.sum(a * a / (w + mu) ** 3) * (p_norm - radius) / radius
        p_norm = np.linalg.norm(a / (w + mu))
        if abs(p_norm - radius) <= _TR_SECULAR_RTOL * radius:
            break
    return -(V @ (a / (w + mu))), True


def minimize(fun, x0: np.ndarray, *, derivatives, max_iter: int) -> SearchResult:
    """Trust-region search for a minimum of ``fun``; ``derivatives(x)`` is (gradient, Hessian).

    Each iteration evaluates ``fun`` at the exact step of the quadratic
    model (``_trust_region_step``), or reuses its value at a rejected
    interior step that fits the shrunk radius.  The ratio rho of actual to
    predicted reduction shrinks the radius by 1/4 below 1/4 and doubles it
    above 3/4 for a boundary step; rho > ``_TR_ETA`` accepts the step, and
    only then, and at ``x0``, is ``derivatives`` read, right after ``fun``
    (Nocedal & Wright, *Numerical Optimization*, alg. 4.1).  An ``inf``
    value is a rejected step.  Stops when |g| < ``_TR_GTOL``, when the model
    predicts no reduction, or after ``max_iter`` iterations, accepted or not.
    """
    x = trial = np.asarray(x0, dtype=float)  # trial: the point fun saw last
    f = f_trial = fun(x)
    g, H = derivatives(x)
    radius, nit = _TR_RADIUS, 0
    while math.hypot(*g) >= _TR_GTOL and nit < max_iter:  # no overflow of |g|^2
        p, on_boundary = _trust_region_step(g, H, radius)
        predicted = f - (f + g @ p + 0.5 * (p @ (H @ p)))
        if not predicted > 0.0:
            break
        if not np.array_equal(x + p, trial):
            trial, f_trial = x + p, fun(x + p)
        rho = (f - f_trial) / predicted
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, _TR_MAX_RADIUS)
        if rho > _TR_ETA:
            x, f, (g, H) = trial, f_trial, derivatives(trial)
        nit += 1
    return SearchResult(x, nit)


# relative step of the forward-difference Jacobian of the path residuals
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _path_jacobian(
    spec: ElasticaPathSpec, path: CurvePath, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``path_residuals`` r and its forward-difference Jacobian in the controls' z.

    Row j of the path is the elastica with shape coordinates z_j = W[j] .
    ``spec.nodes`` (``parameter_trajectory``), so it moves with its own z_j
    alone and the endpoint rows move with no control.  Block d of one
    integration of (coordinates, m - 2) interior rows steps z_jd and gives
    dc_j/dz_jd by a forward difference (Curtis, Powell & Reid, *IMA J. Appl.
    Math.* 13, 1974), except on flat paths for d = 1: z_1 = log k scales
    curve j about the centre ``_gauge`` pins, so dc_j/dz_j1 = -(c_j - centre)
    exactly.  Control (i, d) moves row j by W[j, i + 1] dc_j/dz_jd.
    Column (i, d) is the forward difference of the residuals along that
    motion with step ``steps[i, d]``.  All q * coordinates displaced paths
    are one stack, passed through every ``build_curve`` check and scored
    by one ``path_residuals`` call.  ``steps`` is (q, coordinates); the
    columns of the C-ordered J follow the flattened controls.
    """
    q, n_coords = steps.shape
    W = _trajectory_weights(q, spec.m)
    Z = (W @ spec.nodes)[1:-1]
    W = W[1:-1, 1:-1]
    c = path.points
    exact = 1 if spec.K == 0.0 else 0  # blocks in closed form: the flat scaling
    stepped = np.eye(n_coords, 3, dtype=bool)[exact:, None]  # block d steps coordinate d
    rows = np.where(stepped, Z + _FD_STEP * np.maximum(1.0, np.abs(Z)), Z)
    moved = _integrate_rows(spec, _triples(rows, spec.K).reshape(-1, 3))
    h = (rows - Z).sum(axis=-1)[..., None, None]  # the one nonzero difference of each row
    dc = (moved.reshape(n_coords - exact, *c[1:-1].shape) - c[1:-1]) / h
    if exact:
        dc = np.concatenate([(_gauge_centre(spec.start) - c[1:-1])[None], dc])
    points = np.repeat(c[None], q * n_coords, axis=0)
    motion = (steps[..., None] * W.T[:, None])[..., None, None] * dc
    points[:, 1:-1] += motion.reshape(-1, *dc.shape[1:])
    r = path_residuals(path)
    columns = path_residuals(CurvePath(build_curve(path.space, points, closed=False)))
    return r, np.ascontiguousarray(((columns - r) / steps.reshape(-1, 1)).T)


def optimize_elastica_path(
    endpoints: tuple[ElasticaParams, ElasticaParams],
    q: int = 3,
    m: int = 17,
    n: int = 128,
    opts: OptimizeOptions = OptimizeOptions(),
) -> tuple[ElasticaPathSpec, list[tuple[int, float]], CurvePath]:
    """Gauss-Newton trust-region search over the shape coordinates z of the q controls.

    The path energy is the sum of squares r . r of ``path_residuals``.
    ``minimize``, an exact-step trust-region search on the Gauss-Newton
    model, starts from ``_interior_seed``, linear in z (``_shape``), and
    moves z_3 = mu / k^3 only when an endpoint is twisted: reflection in the
    start's osculating plane maps z_3 to -z_3 and fixes untwisted paths, so
    there dE/dz_3 = 0 and mu stays exactly 0 (so on curved surfaces, whose
    endpoints are untwisted).  It gets the energy itself as its objective,
    and the gradient 2 J^T r and Gauss-Newton Hessian 2 J^T J with J from
    ``_path_jacobian`` at the seed and at each accepted step only (Nocedal
    & Wright, *Numerical Optimization*, ch. 4, 8 and 10).
    Identical endpoints too: their seed has a zero gradient, one visit.
    Infeasible controls score ``inf`` and are never accepted; only an
    infeasible Jacobian column zeroes the gradient, and the search stops
    there.  Returns the best spec, the (evaluation, energy) trace of
    improvements among the visited points, and the best path; the
    evaluation index counts the ``materialize_path`` calls, one per visited
    point.  ``opts`` has no effect (see ``OptimizeOptions``).
    """
    check_count("q", q, 1)
    start, end = endpoints
    # a bad size or endpoint fails here, before the search
    seed_spec = ElasticaPathSpec(
        start=start, end=end, control_points=_interior_seed(start, end, q), m=m, n=n
    )
    n_coords = 2 if start.mu == end.mu == 0.0 else 3

    evals = 0
    trace: list[tuple[int, float]] = []
    best = visited = None  # (spec, path) of the least energy; of the point energy saw last
    failure = None  # the error of the last infeasible point or Jacobian

    def energy(x: np.ndarray) -> float:
        """The path energy at x; ``inf`` if infeasible."""
        nonlocal evals, best, visited, failure
        visited = None
        z = np.zeros((q, 3))
        z[:, :n_coords] = x.reshape(q, n_coords)
        try:
            spec = ElasticaPathSpec(start, end, _triples(z, start.K), m, n)
            evals += 1
            value, path = elastica_path_energy(spec)
        except CurveSpaceError as exc:
            failure = exc
            return math.inf
        visited = spec, path
        if value < (trace[-1][1] if trace else math.inf):
            best = visited
            trace.append((evals, value))
        return value

    def derivatives(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """2 J^T r and 2 J^T J where ``energy`` was; zeros if it or a column is infeasible."""
        nonlocal failure
        if visited is not None:
            stepped = x + _FD_STEP * np.maximum(1.0, np.abs(x))
            try:
                r, J = _path_jacobian(*visited, (stepped - x).reshape(q, n_coords))
                return 2.0 * (J.T @ r), 2.0 * (J.T @ J)
            except CurveSpaceError as exc:
                failure = exc
        return np.zeros(x.size), np.zeros((x.size, x.size))

    x0 = seed_spec.nodes[1:-1, :n_coords].ravel()
    minimize(energy, x0, derivatives=derivatives, max_iter=_TR_MAX_ITER)
    if not trace:
        raise OptimizationFailure(f"no feasible interior point found: {failure}") from failure
    return best[0], trace, best[1]


# ---------------------------------------------------------------------------
# endpoint serialization


def default_flat_frame(k0: float) -> FrenetFrame:
    """Start frame of a radius 1/k0 circle centered at the origin of R^3."""
    return FrenetFrame(
        origin=np.array([1.0 / k0, 0.0, 0.0]),
        T=np.array([0.0, 1.0, 0.0]),
        N=np.array([-1.0, 0.0, 0.0]),
        B=np.array([0.0, 0.0, 1.0]),
    )


def default_surface_frame(K: float) -> FrenetFrame:
    """A canonical positively-oriented start frame on the surface of curvature K."""
    space = surface_of_curvature(K)
    if not space.curved:
        raise DomainError("use default_flat_frame for K = 0")
    pole = standard_frame(space)
    origin = exp_polar(space, pole, 0.7 * space.radius, 0.0)
    T = np.array([0.0, 1.0, 0.0])
    N = space.normal_2d(origin, T)
    return FrenetFrame(origin=origin, T=T, N=N)


def _frame_from_dict(data: dict) -> FrenetFrame:
    """The frame as stated; ``ElasticaParams`` validates it against K."""
    return FrenetFrame(
        origin=json_array(data, "origin"),
        T=json_array(data, "T"),
        N=json_array(data, "N"),
        B=json_array(data, "B") if data.get("B") is not None else None,
    )


def endpoints_from_dict(data: dict) -> tuple[ElasticaParams, ElasticaParams]:
    """Parse the endpoint JSON: shared K, L, init_frame plus two parameter triples.

    The stated L and frame belong to the start curve; the end curve gets
    its length and frame from the start's ``_gauge``.
    """
    try:
        K = json_number(data, "K")
        L = json_number(data, "L")
        s, e = data["start"], data["end"]
        triples = [tuple(json_number(d, key) for key in ("k", "lambda", "mu")) for d in (s, e)]
        frame = _frame_from_dict(data["init_frame"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid elastica endpoint record: {exc}") from exc
    _shape(triples, K)  # the amplitude check, before any division by k
    (k0, lam0, mu0), (k1, lam1, mu1) = triples
    start = ElasticaParams(k=k0, lam=lam0, mu=mu0, K=K, L=L, frame=frame)
    (L1,) = _gauge(start, [k1])[1]
    end = ElasticaParams(k=k1, lam=lam1, mu=mu1, K=K, L=float(L1), frame=_end_frame(start, k1))
    return start, end


def _end_frame(start: ElasticaParams, k1: float) -> FrenetFrame:
    """Frame of the curve with amplitude k1 in the start's ``_gauge``."""
    origin, T, N, B = _gauge(start, [k1])[0][0]
    return FrenetFrame(origin=origin, T=T, N=N, B=None if start.frame.B is None else B)


def endpoints_to_dict(start: ElasticaParams, end: ElasticaParams) -> dict:
    names = ("origin", "T", "N") if start.frame.B is None else ("origin", "T", "N", "B")
    frame = {name: getattr(start.frame, name).tolist() for name in names}
    return {
        "K": start.K,
        "L": start.L,
        "start": {"k": start.k, "lambda": start.lam, "mu": start.mu},
        "end": {"k": end.k, "lambda": end.lam, "mu": end.mu},
        "init_frame": frame,
    }
