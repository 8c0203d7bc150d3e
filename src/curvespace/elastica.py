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
log-depth prefix product of the steps gives every point at once.

Constant profiles kappa = k occur exactly on the circle locus

    k^6 + (2 K - lambda) k^4 - 2 mu^2 = 0.

The sign of the mu^2 term differs between torsion conventions in the
literature; the one used here was fixed empirically by a brute-force
first-variation test of the bending energy on discretized perturbations
of a constant-(kappa, tau) helix (the test lives in the suite and guards
the constant below).

Paths of elastica interpolate (k, lambda, mu) through interior control
points, share one initial-frame gauge, and are scored with the Sobolev
path energy; a seeded simplex search minimizes it over the control
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize
from scipy.special import ellipj, ellipk

from .discrete_curves import DiscreteCurve, _normal_2d, build_curve
from .errors import (
    CapabilityError,
    CurveSpaceError,
    DomainError,
    NumericFailure,
    OptimizationFailure,
    PreconditionError,
)
from .sobolev_metric import CurvePath, path_energy, path_from_curves
from .space_forms import (
    Model,
    SpaceForm,
    euclidean3d,
    exp_polar,
    standard_frame,
    surface_of_curvature,
)

# Sign of the 2 mu^2 term in the circle locus (and, with opposite sign, of
# the mu^2/kappa^3 term of the profile ODE).  Fixed once by the
# first-variation oracle; see the module docstring.
MU_LOCUS_SIGN = -1.0

FRAME_TOL = 1e-12


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
    dim = space.ambient_dim
    for v in (frame.origin, frame.T, frame.N):
        if v.shape != (dim,):
            raise DomainError(f"frame vectors must have dimension {dim}")
    space.check_on_surface(frame.origin)
    g11 = float(space.inner(frame.T, frame.T))
    g22 = float(space.inner(frame.N, frame.N))
    g12 = float(space.inner(frame.T, frame.N))
    if abs(g11 - 1.0) > FRAME_TOL or abs(g22 - 1.0) > FRAME_TOL or abs(g12) > FRAME_TOL:
        raise DomainError("initial frame is not orthonormal to 1e-12")
    if space.curved:
        for v in (frame.T, frame.N):
            resid = v - space.tangent_project(frame.origin, v, check=False)
            if float(space.norm(resid)) > 1e-9:
                raise DomainError("initial frame is not tangent to the surface")
        oriented = _normal_2d(space, frame.origin[None, :], frame.T[None, :])[0]
        if float(space.inner(frame.N, oriented)) < 0.0:
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
    if n < 64:
        raise PreconditionError("profile needs n >= 64 samples")
    k, mu = params.k, params.mu
    if k == 0.0:
        kappa, kappa_t = np.zeros(n), np.zeros(n)
    else:
        kappa, kappa_t = (v[0] for v in _batch_profiles(
            np.array([k]), np.array([params.lam]), np.array([mu]), params.K, np.array([params.L]), n
        ))
    tau = mu / kappa**2 if mu != 0.0 else np.zeros(n)
    return (kappa, tau, kappa_t) if with_derivative else (kappa, tau)


def _batch_profiles(ks, lams, mus, K: float, Ls, n: int):
    """Closed-form profiles of a whole family of parameters at once.

    u = kappa^2 solves u_t^2 = -(u - u1)(u - u2)(u - u3); deflating the
    cubic by its known root k^2 leaves u^2 + b u + c.  The motion stays in
    [u2, u1] from k^2, so u = u2 + (u1 - u2) cn^2(omega t + shift, p) with
    omega = sqrt(u1 - u3) / 2, p = (u1 - u2) / (u1 - u3) and the quarter
    period shift = K(p) when k^2 is the lower root u2.  For mu = 0 and
    u2 = 0 (wave-like branch, separatrix) kappa = k cn(.) changes sign.
    Parameter arrays have shape (m,); returns kappa and kappa_t as (m, n).
    """
    ks = np.asarray(ks, dtype=float)[:, None]
    mu2 = np.asarray(mus, dtype=float)[:, None] ** 2
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
    return kappa, kappa_t


# ---------------------------------------------------------------------------
# curve reconstruction


# Gauss points of one step, as fractions of the step
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_INV_FACTORIAL = 1.0 / np.cumprod([1.0, *range(1, 17)])  # 1/j! for j = 0..16


def _expm(X: np.ndarray) -> np.ndarray:
    """Exponential of every matrix of an (..., d, d) stack.

    Scaling and squaring per matrix around the degree-16 Taylor polynomial,
    summed by Horner's rule in X^4 over cubic blocks (Paterson-Stockmeyer).
    """
    norm = np.linalg.norm(X, axis=(-2, -1))
    if not np.all(np.isfinite(norm)):
        raise NumericFailure("Frenet reconstruction met a non-finite generator")
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)  # |X / 2^s| < 1/2: Taylor tail < 1e-19
    X = np.ldexp(X, -s[..., None, None])
    X2 = X @ X
    powers, X4 = (np.eye(X.shape[-1]), X, X2, X2 @ X), X2 @ X2
    blocks = [sum(c * P for c, P in zip(_INV_FACTORIAL[j : j + 4], powers)) for j in (12, 8, 4, 0)]
    E = blocks[0] + _INV_FACTORIAL[16] * X4
    for block in blocks[1:]:
        E = block + X4 @ E
    for j in range(int(s.max(initial=0))):
        E = np.where((s > j)[..., None, None], E @ E, E)
    return E


def _prefix_products(Phi: np.ndarray) -> np.ndarray:
    """P_i = Phi_{i-1} ... Phi_0 (P_0 = I) along axis 1 of an (m, n - 1, d, d) stack.

    Log-depth doubling scan (Blelloch, *Prefix sums and their applications*,
    1990): after the round with offset 2^r each P_i is the product of the
    2^(r+1) factors before it.
    """
    m, steps, d, _ = Phi.shape
    P = np.concatenate([np.broadcast_to(np.eye(d), (m, 1, d, d)), Phi], axis=1)
    shift = 1
    while shift <= steps:
        P[:, shift:] = P[:, shift:] @ P[:, :-shift]
        shift *= 2
    return P


def _magnus_exponents(K: float, kappas, taus, Ls, n: int) -> np.ndarray:
    """Fourth-order Magnus exponents, (m, n - 1, 4, 4): one per step of each curve.

    Omega_i = h/2 (A_1 + A_2) + sqrt(3)/12 h^2 [A_2, A_1] with A (see
    ``_batch_reconstruct``) at the two Gauss points of step i, where a
    cubic spline through the (m, n) samples gives kappa and tau.
    """
    samples = np.stack([kappas, taus])
    if not np.all(np.isfinite(samples)):
        raise NumericFailure("Frenet reconstruction got a non-finite profile")
    m = samples.shape[1]
    sigma = np.linspace(0.0, 1.0, n)
    nodes = (sigma[:-1, None] + sigma[1] * _GAUSS_NODES).ravel()
    at_nodes = CubicSpline(sigma, samples, axis=2)(nodes).reshape(2, m, n - 1, 2)
    kap, tau = at_nodes.transpose(0, 3, 1, 2)  # axes: Gauss point, curve, step
    A = np.zeros((2, m, n - 1, 4, 4))
    A[..., 0, 1], A[..., 1, 0] = 1.0, -K
    A[..., 1, 2], A[..., 2, 1] = kap, -kap
    A[..., 2, 3], A[..., 3, 2] = tau, -tau
    h = (np.asarray(Ls, dtype=float) / (n - 1))[:, None, None, None]
    return 0.5 * h * (A[0] + A[1]) + math.sqrt(3.0) / 12.0 * h**2 * (A[1] @ A[0] - A[0] @ A[1])


def _batch_reconstruct(K: float, frames, kappas, taus, Ls, n: int) -> np.ndarray:
    """Rebuild a family of curves from their profiles by Lie-group steps.

    The rows Y = (c, T, N, B) of each curve solve Y' = A(s) Y with
    A = [[0, 1, 0, 0], [-K, 0, kappa, 0], [0, -kappa, 0, tau], [0, 0, -tau, 0]]:
    the Frenet system for K = 0, and for K != 0 the intrinsic system on
    the surface (tau = 0, B = 0, <T, T> = 1).  Step i propagates by
    exp(Omega_i) (``_magnus_exponents``) and the points are the first rows
    of the prefix products applied to the initial rows.  The products keep
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
    log-depth prefix product (see ``_batch_reconstruct``).
    """
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


@dataclass(frozen=True, eq=False)
class ElasticaPathSpec:
    """Endpoint parameters plus interior control triples for one path.

    All curves share the ambient curvature, the frame directions at
    theta = 0, and the dimensionless length ell = L k: each curve spans
    one full turn of its amplitude-osculating circle, so circle-locus
    parameters reproduce closed round circles.  For K = 0 the gauge
    anchors the osculating center at theta = 0 (concentric circles stay
    concentric); on curved surfaces the start point itself is shared.
    """

    start: ElasticaParams
    end: ElasticaParams
    control_points: np.ndarray
    m: int = 17
    n: int = 128

    def __post_init__(self):
        object.__setattr__(
            self, "control_points", np.atleast_2d(np.asarray(self.control_points, dtype=float))
        )
        if self.start.K != self.end.K:
            raise DomainError("path endpoints must share the ambient curvature")
        if self.control_points.ndim != 2 or self.control_points.shape[1] != 3:
            raise DomainError("control points must be (k, lambda, mu) triples")
        if self.control_points.shape[0] < 1:
            raise PreconditionError("need at least one interior control point")
        if np.any(self.control_points[:, 0] <= 0.0):
            raise DomainError("interior control amplitudes must be positive")
        if self.start.k <= 0.0 or self.end.k <= 0.0:
            raise DomainError("path endpoints need positive curvature amplitude")
        if self.K != 0.0 and (
            self.start.mu != 0.0
            or self.end.mu != 0.0
            or np.any(self.control_points[:, 2] != 0.0)
        ):
            raise CapabilityError("torsion (mu != 0) requires a flat ambient space")
        if self.m < 3:
            raise PreconditionError("paths need m >= 3 samples")

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


def parameter_trajectory(spec: ElasticaPathSpec):
    """Cubic interpolant of (k, lambda, mu) through endpoints and controls."""
    nodes = np.linspace(0.0, 1.0, spec.q + 2)
    values = np.vstack(
        [
            [spec.start.k, spec.start.lam, spec.start.mu],
            spec.control_points,
            [spec.end.k, spec.end.lam, spec.end.mu],
        ]
    )
    return CubicSpline(nodes, values, axis=0)


def materialize_path(spec: ElasticaPathSpec) -> CurvePath:
    """Generate the m curves of the path in one batched integration."""
    traj = parameter_trajectory(spec)
    s_grid = np.linspace(0.0, 1.0, spec.m)
    values = traj(s_grid)
    ks, lams, mus = values[:, 0], values[:, 1], values[:, 2]
    if spec.K != 0.0:
        mus = np.zeros_like(mus)
    if np.any(ks <= 0.0):
        bad = int(np.argmax(ks <= 0.0))
        raise NumericFailure(
            f"curve generation failed at s-sample {bad}: amplitude left the positive range"
        )
    Ls = spec.ell / ks

    frames = np.repeat(_frame_rows(spec.start.frame)[None], spec.m, axis=0)
    if spec.K == 0.0:
        frames[:, 0] = _gauge_anchor(spec.start) - spec.start.frame.N / ks[:, None]
    space = spec.start.space
    try:
        kappas, _ = _batch_profiles(ks, lams, mus, spec.K, Ls, spec.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            taus = np.where(mus[:, None] != 0.0, mus[:, None] / kappas**2, 0.0)
        points = _batch_reconstruct(spec.K, frames, kappas, taus, Ls, spec.n)
        curves = [build_curve(space, p, closed=False) for p in points]
    except CurveSpaceError as exc:
        raise NumericFailure(f"curve generation failed along the path: {exc}") from exc
    return path_from_curves(curves)


def elastica_path_energy(spec: ElasticaPathSpec) -> tuple[float, CurvePath]:
    """Materialize the path of elastica and score it with the Sobolev energy."""
    path = materialize_path(spec)
    return path_energy(path), path


# ---------------------------------------------------------------------------
# energy minimization over control coordinates


@dataclass(frozen=True)
class OptimizeOptions:
    seed: int = 0
    max_restarts: int = 3
    max_iter: int = 500
    rel_tol: float = 1e-8
    restart_scale: float = 0.08
    k_bounds_factor: float = 5.0


def _interior_seed(start: ElasticaParams, end: ElasticaParams, q: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, q + 2)[1:-1][:, None]
    a = np.array([start.k, start.lam, start.mu])
    b = np.array([end.k, end.lam, end.mu])
    return (1.0 - s) * a + s * b


def optimize_elastica_path(
    endpoints: tuple[ElasticaParams, ElasticaParams],
    q: int = 3,
    m: int = 17,
    n: int = 128,
    opts: OptimizeOptions = OptimizeOptions(),
) -> tuple[ElasticaPathSpec, list[tuple[int, float]], CurvePath]:
    """Simplex search over the 3q control coordinates minimizing path energy.

    Runs a deterministic Nelder-Mead descent from the linear-interpolation
    seed plus ``opts.max_restarts`` seeded random restarts around the best
    point.  Returns the best spec, the (evaluation, energy) trace of
    accepted improvements, and the final path.
    """
    start, end = endpoints
    if start.K != end.K:
        raise DomainError("endpoints must share the ambient curvature")
    if q < 1:
        raise PreconditionError("need at least one control point")

    flat = start.K == 0.0
    same = (
        start.k == end.k and start.lam == end.lam and start.mu == end.mu
    )
    if same:
        spec = ElasticaPathSpec(
            start=start, end=end,
            control_points=_interior_seed(start, end, q), m=m, n=n,
        )
        energy, path = elastica_path_energy(spec)
        return spec, [(0, energy)], path

    # reject infeasible endpoints early
    for p in (start, end):
        generate_curve(p, n)

    k_lo = min(start.k, end.k) / opts.k_bounds_factor
    k_hi = max(start.k, end.k) * opts.k_bounds_factor
    n_coords = 3 if flat else 2  # mu frozen at 0 on curved surfaces

    def unpack(x: np.ndarray) -> np.ndarray:
        ctrl = np.zeros((q, 3))
        ctrl[:, :n_coords] = x.reshape(q, n_coords)
        return ctrl

    trace: list[tuple[int, float]] = []
    state = {"best": math.inf, "evals": 0, "best_x": None}

    def objective(x: np.ndarray) -> float:
        state["evals"] += 1
        ctrl = unpack(x)
        if np.any(ctrl[:, 0] < k_lo) or np.any(ctrl[:, 0] > k_hi):
            return math.inf
        try:
            spec = ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=m, n=n)
            energy, _ = elastica_path_energy(spec)
        except CurveSpaceError:
            return math.inf
        if energy < state["best"]:
            state["best"] = energy
            state["best_x"] = x.copy()
            trace.append((state["evals"], energy))
        return energy

    x0 = _interior_seed(start, end, q)[:, :n_coords].ravel()
    objective(x0)  # seeds the trace and the restart base
    rng = np.random.default_rng(opts.seed)
    scale = opts.restart_scale * max(
        abs(start.k - end.k), abs(start.lam - end.lam), abs(start.mu - end.mu), 0.1
    )

    x_init = x0
    for attempt in range(opts.max_restarts + 1):
        before = state["best"]
        fatol = opts.rel_tol * max(1.0, before if math.isfinite(before) else 1.0)
        minimize(
            objective,
            x_init,
            method="Nelder-Mead",
            options={
                "maxiter": opts.max_iter,
                "fatol": fatol,
                "xatol": 1e-6,
                "adaptive": True,
            },
        )
        improved = math.isfinite(state["best"]) and (
            not math.isfinite(before) or before - state["best"] > opts.rel_tol * max(1.0, before)
        )
        if attempt > 0 and not improved:
            break  # restarts stopped helping; the budget is a cap, not a quota
        base = state["best_x"] if state["best_x"] is not None else x0
        x_init = base + rng.normal(scale=scale, size=base.shape)

    if state["best_x"] is None or not math.isfinite(state["best"]):
        raise OptimizationFailure(
            f"no feasible interior point found after {opts.max_restarts} restarts"
        )
    best_spec = ElasticaPathSpec(
        start=start, end=end, control_points=unpack(state["best_x"]), m=m, n=n
    )
    energy, path = elastica_path_energy(best_spec)
    return best_spec, trace, path


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
    N = _normal_2d(space, origin[None, :], T[None, :])[0]
    return FrenetFrame(origin=origin, T=T, N=N)


def _frame_from_dict(data: dict, K: float) -> FrenetFrame:
    frame = FrenetFrame(
        origin=np.asarray(data["origin"], dtype=float),
        T=np.asarray(data["T"], dtype=float),
        N=np.asarray(data["N"], dtype=float),
        B=np.asarray(data["B"], dtype=float) if "B" in data and data["B"] is not None else None,
    )
    _validate_frame(_ambient_space(K), frame)
    return frame


def endpoints_from_dict(data: dict) -> tuple[ElasticaParams, ElasticaParams]:
    """Parse the endpoint JSON: shared K, L, init_frame plus two parameter triples.

    The stated L and frame belong to the start curve; the end curve's
    length and gauge frame follow from the shared dimensionless length.
    """
    try:
        K = float(data["K"])
        L = float(data["L"])
        s, e = data["start"], data["end"]
        triples = [(float(d["k"]), float(d["lambda"]), float(d["mu"])) for d in (s, e)]
        frame = _frame_from_dict(data["init_frame"], K)
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
