"""Elastic curves from shape parameters and energy-minimizing paths of them.

An elastic curve in a constant-curvature ambient space is determined (up
to rigid motion) by the amplitude ``k`` of its curvature, the tension
``lambda``, and the torsion constant ``mu = kappa^2 tau``.  The curvature
profile solves the second-order ODE

    kappa_tt = -kappa^3 / 2 + mu^2 / kappa^3 + (lambda - 2 K) kappa / 2

from the amplitude (kappa(0) = k, kappa_t(0) = 0).  Its first integral
makes kappa a Jacobi elliptic function, evaluated in closed form (Langer
& Singer, *Knotted elastic curves in R^3*, 1984).  The curve itself is
rebuilt from an initial frame by Lie-group steps: the Frenet system (or
its 2D intrinsic analogue on a surface) is linear in the frame rows, so
each step is the exponential of a fourth-order Magnus exponent, and a
blocked prefix product of the steps (about 2n products in about 2 sqrt(n)
batched rounds) gives every point at once.  The steps are closed forms:
the exponents are one product with a constant basis of the isometry
algebra, the exponential is a Rodrigues-type polynomial in the exponent,
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
k^2, mu / k^3) through interior control points, share one initial-frame
gauge, and are scored with the Sobolev path energy.  That energy is a sum
of squares of path residuals, so one deterministic Gauss-Newton
trust-region search minimizes it over the controls' shape coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize
from scipy.special import ellipj, ellipk

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


def _batch_profiles(ks, lams, mus, K: float, Ls, n: int):
    """Closed-form profiles of a whole family of parameters at once.

    u = kappa^2 solves u_t^2 = -(u - u1)(u - u2)(u - u3); deflating the
    cubic by its known root k^2 leaves u^2 + b u + c.  The motion stays in
    [u2, u1] from k^2, so u = u2 + (u1 - u2) cn^2(omega t + shift, p) with
    omega = sqrt(u1 - u3) / 2, p = (u1 - u2) / (u1 - u3) and the quarter
    period shift = K(p) when k^2 is the lower root u2.  For mu = 0 and
    u2 = 0 (wave-like branch, separatrix) kappa = k cn(.) changes sign.
    Parameter arrays have shape (m,); returns kappa, tau = mu / kappa^2
    (0 where mu = 0) and kappa_t, each (m, n).
    """
    ks = np.asarray(ks, dtype=float)[:, None]
    mus = np.asarray(mus, dtype=float)[:, None]
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
    p = d / (u1 - u3)
    shift = np.where(a < u1, ellipk(p), 0.0)
    t = np.asarray(Ls, dtype=float)[:, None] * np.linspace(0.0, 1.0, n)
    sn, cn, dn, _ = ellipj(omega * t + shift, p)

    signed = (mu2 == 0.0) & (u2 == 0.0)
    kappa = np.where(signed, ks * cn, np.sqrt(u2 + d * cn**2))
    with np.errstate(divide="ignore", invalid="ignore"):
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


@lru_cache(maxsize=8)
def _magnus_basis(K: float) -> np.ndarray:
    """Flattened (5, 16) matrices C, X, Y, [X, C], [X, Y] of the Magnus exponents.

    A(kappa, tau) = C + kappa X + tau Y, so
    [A_2, A_1] = (kappa_2 - kappa_1) [X, C] + (tau_2 - tau_1) [Y, C]
    + (kappa_2 tau_1 - kappa_1 tau_2) [X, Y], and [Y, C] = 0.
    """
    C, X, Y = np.zeros((3, 4, 4))
    C[0, 1], C[1, 0] = 1.0, -K
    X[1, 2], X[2, 1] = 1.0, -1.0
    Y[2, 3], Y[3, 2] = 1.0, -1.0
    basis = np.stack([C, X, Y, X @ C - C @ X, X @ Y - Y @ X]).reshape(5, 16)
    basis.flags.writeable = False
    return basis


def _magnus_exponents(K: float, kappas, taus, Ls, n: int) -> np.ndarray:
    """Fourth-order Magnus exponents, (m, n - 1, 4, 4): one per step of each curve.

    Omega_i = h/2 (A_1 + A_2) + sqrt(3)/12 h^2 [A_2, A_1] with A (see
    ``_batch_reconstruct``) at the two Gauss points of step i, where a
    6-point Lagrange stencil (``_gauss_stencil``) gives kappa and tau.
    Omega is linear in the constant basis of ``_magnus_basis``, so the
    whole stack is one product of its coefficients with that basis.
    """
    samples = np.stack([kappas, taus])
    if not np.all(np.isfinite(samples)):
        raise NumericFailure("Frenet reconstruction got a non-finite profile")
    (k1, k2), (t1, t2) = np.moveaxis(_gauss_values(samples), -1, 1)  # each (m, n - 1)
    h = (np.asarray(Ls, dtype=float) / (n - 1))[:, None]
    c = math.sqrt(3.0) / 12.0 * h * h
    coefficients = np.stack(
        np.broadcast_arrays(
            h, 0.5 * h * (k1 + k2), 0.5 * h * (t1 + t2), c * (k2 - k1), c * (k2 * t1 - k1 * t2)
        ),
        axis=-1,
    )
    return (coefficients @ _magnus_basis(K)).reshape(*k1.shape, 4, 4)


def _batch_reconstruct(K: float, frames, kappas, taus, Ls, n: int) -> np.ndarray:
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
    P = _prefix_products(_expm(_magnus_exponents(K, kappas, taus, Ls, n)))
    points = P[:, :, 0] @ frames
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
        params.K, _frame_rows(params.frame)[None], kappa[None], tau[None], [params.L], n
    )[0]
    return build_curve(params.space, points, closed=False)


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
    divided by k^6 reads z_2 = 1 - 2 z_3^2.  Refuses k <= 0 (``DomainError``).
    """
    k, lam, mu = np.moveaxis(np.asarray(triples, dtype=float), -1, 0)
    if np.any(k <= 0.0):
        raise DomainError("path endpoints and controls need positive curvature amplitude")
    return np.stack([np.log(k), (lam - 2.0 * K) / k**2, mu / k**3], axis=-1)


def _triples(z: np.ndarray, K: float) -> np.ndarray:
    """(k, lambda, mu) of (..., 3) shape coordinates; k = exp z_1 > 0."""
    k = np.exp(z[..., 0])
    return np.stack([k, 2.0 * K + z[..., 1] * k**2, z[..., 2] * k**3], axis=-1)


@dataclass(frozen=True, eq=False)
class ElasticaPathSpec:
    """Endpoint parameters plus interior control triples for one path.

    All curves share the ambient curvature, the frame directions at
    theta = 0, and the dimensionless length ell = L k: each curve spans
    one full turn of its amplitude-osculating circle.  For K = 0 the gauge
    anchors the osculating center at theta = 0, so circle-locus parameters
    give closed concentric circles; on surfaces the start point is shared,
    and circles do not close: length 2 pi / sqrt(k^2 + K), not 2 pi / k.
    The end curve is the end triple in the start's gauge (``end.L`` and
    ``end.frame`` are not read).  ``nodes`` are the shape coordinates
    (``_shape``) of start, controls and end.  m >= 3, n >= ``MIN_PROFILE_SAMPLES``.
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

    @property
    def ell(self) -> float:
        """Shared dimensionless length L * k."""
        return self.start.L * self.start.k


def _gauge_anchor(start: ElasticaParams) -> np.ndarray:
    """Osculating-circle center of the start curve at theta = 0 (flat case)."""
    return start.frame.origin + start.frame.N / start.k


@lru_cache(maxsize=8)
def _trajectory_weights(q: int, m: int) -> np.ndarray:
    """(m, q + 2) weights of the not-a-knot cubic spline through q + 2 equispaced nodes.

    The spline is linear in the node values, so splining the identity gives
    its value at each of the m equispaced path samples as a weighted sum.
    """
    weights = CubicSpline(np.linspace(0.0, 1.0, q + 2), np.eye(q + 2))(np.linspace(0.0, 1.0, m))
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
    """Points (r, n, dim) of the elastica with (k, lambda, mu) rows (r, 3), in the path's gauge."""
    ks, lams, mus = rows.T
    Ls = spec.ell / ks
    frames = np.repeat(_frame_rows(spec.start.frame)[None], len(ks), axis=0)
    if spec.K == 0.0:
        frames[:, 0] = _gauge_anchor(spec.start) - spec.start.frame.N / ks[:, None]
    kappas, taus, _ = _batch_profiles(ks, lams, mus, spec.K, Ls, spec.n)
    return _batch_reconstruct(spec.K, frames, kappas, taus, Ls, spec.n)


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


# control amplitudes k are kept within this factor of the endpoint range
K_BOUNDS_FACTOR = 5.0


@dataclass(frozen=True)
class OptimizeOptions:
    """``max_iter`` caps the trust-region iterations, accepted or not.

    ``seed`` (an integer >= 0, like ``max_iter`` >= 1) is validated but has
    no effect: the search is deterministic.
    """

    seed: int = 0
    max_iter: int = 500

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        check_count("max_iter", self.max_iter, 1)


def _interior_seed(start: ElasticaParams, end: ElasticaParams, q: int) -> np.ndarray:
    """(q, 3) control triples at the equispaced interior nodes, linear in ``_shape``'s z.

    Endpoints that differ by a scaling get a seed of scaled copies, endpoints
    on the circle locus a seed on it; every k lies between theirs.
    """
    s = np.linspace(0.0, 1.0, q + 2)[1:-1][:, None]
    a, b = _shape([_triple(start), _triple(end)], start.K)
    return _triples((1.0 - s) * a + s * b, start.K)


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
    Math.* 13, 1974); control (i, d) moves row j by W[j, i + 1] dc_j/dz_jd.
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
    stepped = np.eye(n_coords, 3, dtype=bool)[:, None]  # block d steps coordinate d
    rows = np.where(stepped, Z + _FD_STEP * np.maximum(1.0, np.abs(Z)), Z)
    moved = _integrate_rows(spec, _triples(rows, spec.K).reshape(-1, 3))
    h = (rows - Z).sum(axis=-1)[..., None, None]  # the one nonzero difference of each row
    dc = (moved.reshape(n_coords, *c[1:-1].shape) - c[1:-1]) / h
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
    ``minimize`` (``trust-exact``) starts from ``_interior_seed``, linear
    in z (``_shape``; z_3 = mu / k^3 stays 0 on curved surfaces), and
    gets the energy itself as its objective, the gradient 2 J^T r and the
    Gauss-Newton Hessian 2 J^T J, with J the forward-difference Jacobian
    of r from one integration of per-row derivatives and one stacked
    residual pass (``_path_jacobian``), built once per point the search
    visits (Nocedal & Wright, *Numerical Optimization*, ch. 4, 8 and 10).
    Identical endpoints too: their seed has a zero gradient, one visit.
    The end curve is the end triple in the start's gauge; ``end.L`` and
    ``end.frame`` are not read.  Control amplitudes outside
    ``K_BOUNDS_FACTOR`` of the endpoint range (a box on z_1 = log k), and
    infeasible controls, score ``inf`` and are never accepted; only an
    infeasible Jacobian column zeroes the gradient, and the search stops
    there.  Returns the best spec, the (evaluation, energy) trace of
    improvements among the visited points, and the best path; the
    evaluation index counts the ``materialize_path`` calls, one per
    visited point within the bounds.
    """
    check_count("q", q, 1)
    start, end = endpoints
    # a bad size or endpoint fails here, before the search
    seed_spec = ElasticaPathSpec(
        start=start, end=end, control_points=_interior_seed(start, end, q), m=m, n=n
    )
    z_lo = math.log(min(start.k, end.k) / K_BOUNDS_FACTOR)
    z_hi = math.log(max(start.k, end.k) * K_BOUNDS_FACTOR)
    n_coords = 3 if start.K == 0.0 else 2  # mu frozen at 0 on curved surfaces

    evals = 0
    trace: list[tuple[int, float]] = []
    best: dict = {"energy": math.inf}
    point: dict = {"x": None}  # the point the search visited last

    def visit(x: np.ndarray) -> dict:
        """Energy, gradient 2 J^T r and Gauss-Newton Hessian 2 J^T J at x, once per point."""
        nonlocal evals
        if np.array_equal(point["x"], x):
            return point
        # zero derivatives unless the point and all its Jacobian columns are feasible
        point.update(
            x=x.copy(), energy=math.inf, grad=np.zeros(x.size), hess=np.zeros((x.size, x.size))
        )
        z = np.zeros((q, 3))
        z[:, :n_coords] = x.reshape(q, n_coords)
        if np.any(z[:, 0] < z_lo) or np.any(z[:, 0] > z_hi):
            return point  # outside the box on log k: never materialized
        try:
            spec = ElasticaPathSpec(start, end, _triples(z, start.K), m, n)
            evals += 1
            energy, path = elastica_path_energy(spec)
            point["energy"] = energy
            if energy < best["energy"]:
                best.update(energy=energy, spec=spec, path=path)
                trace.append((evals, energy))
            stepped = x + _FD_STEP * np.maximum(1.0, np.abs(x))
            r, J = _path_jacobian(spec, path, (stepped - x).reshape(q, n_coords))
        except CurveSpaceError:
            return point
        point.update(grad=2.0 * (J.T @ r), hess=2.0 * (J.T @ J))
        return point

    minimize(
        lambda x: visit(x)["energy"],
        seed_spec.nodes[1:-1, :n_coords].ravel(),
        method="trust-exact",
        jac=lambda x: visit(x)["grad"],
        hess=lambda x: visit(x)["hess"],
        options={"maxiter": opts.max_iter},
    )

    if not trace:
        raise OptimizationFailure("no feasible interior point found")
    return best["spec"], trace, best["path"]


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

    The stated L and frame belong to the start curve; the end curve's
    length and gauge frame follow from the shared dimensionless length.
    """
    try:
        K = json_number(data, "K")
        L = json_number(data, "L")
        s, e = data["start"], data["end"]
        triples = [tuple(json_number(d, key) for key in ("k", "lambda", "mu")) for d in (s, e)]
        frame = _frame_from_dict(data["init_frame"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid elastica endpoint record: {exc}") from exc
    (k0, lam0, mu0), (k1, lam1, mu1) = triples
    if k0 <= 0.0 or k1 <= 0.0:
        raise DomainError("path endpoints need positive curvature amplitude")
    start = ElasticaParams(k=k0, lam=lam0, mu=mu0, K=K, L=L, frame=frame)
    # the end curve's length and gauge frame follow from the shared ell = L k
    end = ElasticaParams(
        k=k1, lam=lam1, mu=mu1, K=K, L=L * k0 / k1, frame=_end_frame(start, k1)
    )
    return start, end


def _end_frame(start: ElasticaParams, k1: float) -> FrenetFrame:
    base = start.frame
    if start.K == 0.0:
        origin = _gauge_anchor(start) - base.N / k1
        return FrenetFrame(origin=origin, T=base.T, N=base.N, B=base.B)
    return base


def endpoints_to_dict(start: ElasticaParams, end: ElasticaParams) -> dict:
    frame = {
        "origin": start.frame.origin.tolist(),
        "T": start.frame.T.tolist(),
        "N": start.frame.N.tolist(),
    }
    if start.frame.B is not None:
        frame["B"] = start.frame.B.tolist()
    return {
        "K": start.K,
        "L": start.L,
        "start": {"k": start.k, "lambda": start.lam, "mu": start.mu},
        "end": {"k": end.k, "lambda": end.lam, "mu": end.mu},
        "init_frame": frame,
    }
