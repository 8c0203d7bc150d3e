import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicSpline

from curvespace import (
    CapabilityError,
    DomainError,
    ElasticaParams,
    ElasticaPathSpec,
    FrenetFrame,
    NumericFailure,
    OptimizationFailure,
    OptimizeOptions,
    PreconditionError,
    build_curve,
    circle_locus_residual,
    elastica_path_energy,
    euclidean3d,
    length,
    optimize_elastica_path,
    plane,
    reconstruct_curve,
    solve_concentric_geodesic,
    solve_curvature_profile,
    sphere,
)
from curvespace.elastica import (
    _FD_STEP,
    MU_LOCUS_SIGN,
    _GAUSS_NODES,
    _batch_reconstruct,
    _end_frame,
    _expm,
    _frame_rows,
    _gauss_values,
    _integrate_rows,
    _interior_seed,
    _magnus_exponents,
    _path_jacobian,
    _prefix_products,
    _shape,
    _trajectory_weights,
    _triples,
    default_flat_frame,
    default_surface_frame,
    endpoints_from_dict,
    endpoints_to_dict,
    first_integral,
    generate_curve,
    materialize_path,
    parameter_trajectory,
)
from curvespace.sobolev_metric import CurvePath, path_energy, path_residuals

FLAT_DISTANCE_1_TO_2 = 3.7098994412119352


def flat_params(k, lam, mu, L=None):
    if L is None:
        L = 2 * np.pi / k
    return ElasticaParams(k=k, lam=lam, mu=mu, K=0.0, L=L, frame=default_flat_frame(k))


def surface_endpoints(K):
    """Circle-locus endpoints k = 2 -> 1.5 on the surface of curvature K, start L = pi.

    The curves do not close: a geodesic circle of curvature k has length
    2 pi / sqrt(k^2 + K) there (one turn at k = 2 on the sphere is 2.81).
    """
    frame = default_surface_frame(K)
    start = ElasticaParams(k=2.0, lam=4.0 + 2 * K, mu=0.0, K=K, L=np.pi, frame=frame)
    end = ElasticaParams(k=1.5, lam=1.5**2 + 2 * K, mu=0.0, K=K, L=2 * np.pi / 1.5, frame=frame)
    return start, end


def torsional_endpoints():
    """Two distinct off-locus (k, lambda, mu) triples with nonplanar curves."""
    start = flat_params(1.0, 0.6, 0.1)
    end = ElasticaParams(
        k=0.8, lam=0.3, mu=0.05, K=0.0, L=2 * np.pi / 0.8,
        frame=_end_frame(flat_params(1.0, 0.6, 0.1), 0.8),
    )
    return start, end


def circle_endpoints(k0=1.0, k1=0.5):
    start = flat_params(k0, k0**2, 0.0)
    end = ElasticaParams(
        k=k1, lam=k1**2, mu=0.0, K=0.0, L=2 * np.pi / k1, frame=_end_frame(flat_params(k0, k0**2, 0.0), k1)
    )
    return start, end


def scaled_torsional_endpoints(a=2.0):
    """A torsional start curve and its copy scaled by a: (k, lambda, mu) / (a, a^2, a^3)."""
    start = flat_params(1.0, 0.6, 0.1)
    k1 = start.k / a
    end = ElasticaParams(
        k=k1, lam=start.lam / a**2, mu=start.mu / a**3, K=0.0, L=2 * np.pi / k1,
        frame=_end_frame(start, k1),
    )
    return start, end


def linear_seed(start, end, q):
    """The seed the scale-free one replaced: (k, lambda, mu) linear in s."""
    s = np.linspace(0.0, 1.0, q + 2)[1:-1][:, None]
    a = np.array([start.k, start.lam, start.mu])
    b = np.array([end.k, end.lam, end.mu])
    return (1.0 - s) * a + s * b


class TestMuSignOracle:
    """Brute-force first-variation test fixing the sign of the mu^2 term.

    A constant-(kappa, tau) helix must be a critical point of the bending
    energy integral of kappa^2 + lambda for the tension lambda given by the
    circle locus.  The locus sign under which that holds is the one the
    package hard-codes.
    """

    @staticmethod
    def _bending_energy(points, lam):
        c = build_curve(euclidean3d(), points, closed=False)
        return float(np.trapezoid((c.kappa**2 + lam) * c.omega, dx=c.dt))

    @pytest.mark.parametrize("k0,t0", [(0.5, 0.5), (0.8, 0.3)])
    def test_helix_critical_only_for_adopted_sign(self, k0, t0):
        r = k0 / (k0**2 + t0**2)
        h = t0 / (k0**2 + t0**2)
        n = 2048
        t = np.linspace(0, 4 * np.pi, n)
        helix = np.stack([r * np.cos(t), r * np.sin(t), h * t], axis=1)
        tbar = (t - t[0]) / (t[-1] - t[0])
        env = np.sin(np.pi * tbar) ** 2  # v and v' vanish at the clamped ends
        v = env[:, None] * (
            0.03
            * np.stack(
                [np.sin(2.3 * t + 1.0), np.cos(1.7 * t + 0.4), np.sin(3.1 * t + 2.0)], axis=1
            )
        )
        eps = 1e-5
        mu = k0**2 * t0
        # candidate tensions solving the locus for each sign of the 2 mu^2 term
        lam_adopted = (k0**6 + MU_LOCUS_SIGN * 2 * mu**2) / k0**4
        lam_opposite = (k0**6 - MU_LOCUS_SIGN * 2 * mu**2) / k0**4
        d_adopted = (
            self._bending_energy(helix + eps * v, lam_adopted)
            - self._bending_energy(helix - eps * v, lam_adopted)
        ) / (2 * eps)
        d_opposite = (
            self._bending_energy(helix + eps * v, lam_opposite)
            - self._bending_energy(helix - eps * v, lam_opposite)
        ) / (2 * eps)
        assert abs(d_opposite) > 1e-3  # the perturbation changes length
        assert abs(d_adopted) < 1e-4 * abs(d_opposite)


class TestCircleLocus:
    def test_flat_circle(self):
        assert circle_locus_residual(flat_params(1.0, 1.0, 0.0)) == 0.0

    def test_sphere_circle(self):
        p = ElasticaParams(k=1.0, lam=3.0, mu=0.0, K=1.0, L=2 * np.pi, frame=default_surface_frame(1.0))
        assert circle_locus_residual(p) == pytest.approx(0.0, abs=1e-14)

    def test_nonzero_mu_off_locus(self):
        p = flat_params(1.0, 1.0, 0.5)
        assert circle_locus_residual(p) == pytest.approx(MU_LOCUS_SIGN * 0.5, abs=1e-14)


class TestCurvatureProfile:
    def test_circle_locus_constant(self):
        kap, tau = solve_curvature_profile(flat_params(1.0, 1.0, 0.0), 128)
        assert np.max(np.abs(kap - 1.0)) <= 1e-8
        assert np.all(tau == 0.0)

    def test_straight_line_fixed_point(self):
        p = ElasticaParams(k=0.0, lam=0.7, mu=0.0, K=0.0, L=3.0, frame=default_flat_frame(1.0))
        kap, tau = solve_curvature_profile(p, 64)
        assert np.all(kap == 0.0) and np.all(tau == 0.0)

    def test_generic_profile_periodic_positive(self):
        p = flat_params(1.2, 0.5, 0.1, L=10.0)
        kap, tau = solve_curvature_profile(p, 256)
        assert kap.max() == pytest.approx(1.2, abs=1e-6)
        assert kap.min() > 0.0
        assert np.max(np.abs(kap**2 * tau - 0.1)) <= 1e-12  # identity by construction

    def test_amplitude_is_maximum_when_feasible(self):
        for lam_off in (0.3, 0.8):
            k = 1.1
            p = flat_params(k, k**2 - lam_off, 0.05, L=12.0)
            assert circle_locus_residual(p) > 0
            kap, _ = solve_curvature_profile(p, 256)
            assert kap.max() <= k + 1e-6
            assert kap[0] == k

    def test_first_integral_conserved(self):
        p = flat_params(1.2, 0.5, 0.1, L=10.0)
        kap, tau, kap_t = solve_curvature_profile(p, 256, with_derivative=True)
        fi = first_integral(p, kap, kap_t)
        assert (fi.max() - fi.min()) / abs(fi.mean()) <= 1e-8

    def test_small_n_rejected(self):
        from curvespace import PreconditionError

        with pytest.raises(PreconditionError):
            solve_curvature_profile(flat_params(1.0, 1.0, 0.0), 32)

    def test_locus_residual_iff_constant(self):
        # small grid version of the acceptance sweep
        for k in (0.8, 1.2):
            for mu in (0.0, 0.1 * k**3):
                lam_locus = (k**6 + MU_LOCUS_SIGN * 2 * mu**2) / k**4
                on = flat_params(k, lam_locus, mu, L=8.0)
                kap, _ = solve_curvature_profile(on, 128)
                assert np.max(np.abs(kap - k)) <= 1e-8
                off = flat_params(k, lam_locus - 0.5, mu, L=8.0)
                kap_off, _ = solve_curvature_profile(off, 128)
                assert np.max(np.abs(kap_off - k)) > 1e-3


def rk4_profiles(ks, coefs, mus, Ls, n, substeps=64):
    """Reference integrator: RK4 of kappa_tt = -kappa^3/2 + coef kappa + mu^2/kappa^3.

    Vectorized over members with coef = (lambda - 2K)/2; samples every
    ``substeps`` steps, so it returns (m, n) arrays of kappa and kappa_t.
    """
    steps = substeps * (n - 1)
    h = Ls / steps
    mu2 = mus**2

    def rhs(kv):
        return -0.5 * kv**3 + coefs * kv + mu2 / np.where(mu2 > 0.0, kv, 1.0) ** 3

    y0, y1 = ks.astype(float), np.zeros(len(ks))
    kap, kap_t = [y0], [y1]
    for i in range(1, steps + 1):
        b1 = rhs(y0)
        b2 = rhs(y0 + 0.5 * h * y1)
        b3 = rhs(y0 + 0.5 * h * (y1 + 0.5 * h * b1))
        b4 = rhs(y0 + h * (y1 + 0.5 * h * b2))
        y0, y1 = (
            y0 + h * (y1 + h * (b1 + b2 + b3) / 6.0),
            y1 + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0,
        )
        if i % substeps == 0:
            kap.append(y0)
            kap_t.append(y1)
    return np.array(kap).T, np.array(kap_t).T


# (k, lambda, mu, K, L): every branch of the closed-form profile
PROFILE_CASES = {
    "flat_off_locus": (1.0, 0.7, 0.0, 0.0, 8.0),
    "flat_torsional": (1.2, 0.5, 0.1, 0.0, 10.0),
    "lower_root": (1.1, 1.1**2 + 0.5, 0.05, 0.0, 8.0 / 1.1),
    "sphere_wave": (1.0, 0.2, 0.0, 1.0, 8.0),
    "hyperbolic": (1.2, 1.2**2 - 2.0 - 0.3, 0.0, -1.0, 8.0 / 1.2),
    "hyperbolic_wave": (0.74, -2.873, 0.0, -1.0, 8.0 / 0.74),
    "separatrix": (1.0, 0.5, 0.0, 0.0, 8.0),
    "circle_locus": (0.9, (0.9**6 + MU_LOCUS_SIGN * 2 * 0.0729**2) / 0.9**4, 0.0729, 0.0, 8.0),
}


def profile_params(k, lam, mu, K, L):
    frame = default_flat_frame(k) if K == 0.0 else default_surface_frame(K)
    return ElasticaParams(k=k, lam=lam, mu=mu, K=K, L=L, frame=frame)


@pytest.fixture(scope="module")
def rk4_reference():
    k, lam, mu, K, L = (np.array(col, dtype=float) for col in zip(*PROFILE_CASES.values()))
    kap, kap_t = rk4_profiles(k, 0.5 * (lam - 2.0 * K), mu, L, 256)
    return {name: (kap[i], kap_t[i]) for i, name in enumerate(PROFILE_CASES)}


class TestClosedFormProfile:
    """The elliptic-function profile against the RK4 oracle it replaced."""

    @pytest.mark.parametrize("name", list(PROFILE_CASES))
    def test_matches_rk4(self, name, rk4_reference):
        p = profile_params(*PROFILE_CASES[name])
        kap, _, kap_t = solve_curvature_profile(p, 256, with_derivative=True)
        ref, ref_t = rk4_reference[name]
        assert kap[0] == p.k and kap_t[0] == 0.0
        assert np.max(np.abs(kap - ref)) <= 1e-9
        assert np.max(np.abs(kap_t - ref_t)) <= 1e-9

    @pytest.mark.parametrize("name", list(PROFILE_CASES))
    def test_first_integral_at_roundoff(self, name):
        # absolute: the integral vanishes on the separatrix
        p = profile_params(*PROFILE_CASES[name])
        kap, _, kap_t = solve_curvature_profile(p, 256, with_derivative=True)
        fi = first_integral(p, kap, kap_t)
        assert np.ptp(fi) <= 1e-12 * max(1.0, abs(fi[0]))

    def test_branches_are_exercised(self):
        def kappa(name):
            return solve_curvature_profile(profile_params(*PROFILE_CASES[name]), 256)[0]

        k = PROFILE_CASES["lower_root"][0]
        assert kappa("lower_root").min() >= k and kappa("lower_root").max() > k + 0.1
        assert kappa("sphere_wave").min() < 0.0  # kappa changes sign
        assert kappa("hyperbolic_wave").min() < 0.0
        assert np.all(kappa("separatrix") > 0.0)
        assert np.max(np.abs(kappa("circle_locus") - 0.9)) <= 1e-12


class TestReconstruction:
    def test_unit_circle_closes(self):
        p = flat_params(1.0, 1.0, 0.0, L=2 * np.pi)
        n = 256
        c = reconstruct_curve(p, np.ones(n), np.zeros(n), n)
        assert np.linalg.norm(c.points[-1] - c.points[0]) <= 1e-6
        assert length(c) == pytest.approx(2 * np.pi, rel=1e-6)

    def test_helix_one_turn(self):
        # kappa = tau = 1/2 over L = 2 pi sqrt(2): the (cos t, sin t, t) helix
        s2 = np.sqrt(2.0)
        frame = FrenetFrame(
            origin=[1.0, 0.0, 0.0],
            T=np.array([0.0, 1.0, 1.0]) / s2,
            N=[-1.0, 0.0, 0.0],
            B=np.array([0.0, -1.0, 1.0]) / s2,
        )
        p = ElasticaParams(k=0.5, lam=-0.25, mu=0.125, K=0.0, L=2 * np.pi * s2, frame=frame)
        n = 256
        c = reconstruct_curve(p, np.full(n, 0.5), np.full(n, 0.5), n)
        assert np.linalg.norm(c.points[-1] - np.array([1.0, 0.0, 2 * np.pi])) <= 1e-5

    def test_straight_segment(self):
        p = ElasticaParams(k=0.0, lam=1.0, mu=0.0, K=0.0, L=3.0, frame=default_flat_frame(1.0))
        n = 64
        kap, tau = solve_curvature_profile(p, n)
        c = reconstruct_curve(p, kap, tau, n)
        assert length(c) == pytest.approx(3.0, rel=1e-10)
        start, end = c.points[0], c.points[-1]
        assert np.linalg.norm(end - start) == pytest.approx(3.0, rel=1e-10)

    def test_frenet_round_trip_second_order(self):
        # kappa^2 tau recovered from the rebuilt curve within C / n^2
        p = flat_params(1.2, 0.5, 0.1, L=10.0)
        sups = {}
        for n in (256, 512):
            curve = generate_curve(p, n)
            meas = build_curve(euclidean3d(), curve.points, closed=False)
            sups[n] = np.max(np.abs(meas.kappa**2 * meas.tau - 0.1))
        assert sups[256] <= 50.0 / 256**2
        assert sups[512] <= 50.0 / 512**2
        assert sups[256] / sups[512] >= 3.0

    def test_surface_reconstruction_round_trip(self):
        K = 1.0
        p = ElasticaParams(k=1.5, lam=1.5**2 + 2 * K - 0.4, mu=0.0, K=K, L=5.0,
                           frame=default_surface_frame(K))
        n = 256
        kap, tau = solve_curvature_profile(p, n)
        c = reconstruct_curve(p, kap, tau, n)
        assert c.space == sphere(1.0)
        meas = build_curve(sphere(1.0), c.points, closed=False)
        assert np.max(np.abs(meas.kappa - kap)) <= 2e-5

    def test_long_hyperbolic_curve_builds(self):
        # far out on the hyperboloid (|p| ~ 1e4) the surface check must not
        # mistake rounding for distance
        k = 0.7396222529152228
        p = ElasticaParams(k=k, lam=-2.8732483068553294, mu=0.0, K=-1.0, L=8.0 / k,
                           frame=default_surface_frame(-1.0))
        c = generate_curve(p, 256)
        assert np.max(np.linalg.norm(c.points, axis=1)) > 1e3

    def test_torsion_on_surface_rejected(self):
        p = ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=1.0, L=2.0, frame=default_surface_frame(1.0))
        n = 64
        with pytest.raises(CapabilityError):
            reconstruct_curve(p, np.ones(n), np.full(n, 0.1), n)

    def test_frame_validation(self):
        with pytest.raises(DomainError):
            FrenetFrame(origin=[0, 0, 0], T=[0, 2, 0], N=[-1, 0, 0], B=[0, 0, 1])
            ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=0.0, L=1.0,
                           frame=FrenetFrame(origin=[0, 0, 0], T=[0, 2, 0], N=[-1, 0, 0], B=[0, 0, 1]))

    @pytest.mark.parametrize(
        "K, field, change, match",
        [
            (0.0, "origin", lambda f: f.origin[:2], "dimension 3"),
            (0.0, "T", lambda f: (1.0 + 1e-9) * f.T, "orthonormal"),
            (0.0, "N", lambda f: f.N + 1e-9 * f.T, "orthonormal"),
            (0.0, "B", lambda f: None, "binormal"),
            (0.0, "B", lambda f: -f.B, "right-handed"),
            (1.0, "origin", lambda f: 1.01 * f.origin, "not on the sphere2d surface"),
            (1.0, "T", lambda f: f.T + 1e-6 * f.origin, "not tangent"),
            (1.0, "T", lambda f: (1.0 + 1e-9) * f.T, "orthonormal"),
            (1.0, "N", lambda f: -f.N, "positively oriented"),
            (-1.0, "origin", lambda f: 1.01 * f.origin, "not on the hyperbolic2d surface"),
            (-1.0, "T", lambda f: f.T + 1e-6 * f.origin, "not tangent"),
            (-1.0, "N", lambda f: f.N + 1e-9 * f.T, "orthonormal"),
            (-1.0, "N", lambda f: -f.N, "positively oriented"),
        ],
    )
    def test_each_frame_check_rejects(self, K, field, change, match):
        base = default_flat_frame(1.0) if K == 0.0 else default_surface_frame(K)
        frame = FrenetFrame(**(vars(base) | {field: change(base)}))
        with pytest.raises(DomainError, match=match):
            ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=K, L=1.0, frame=frame)


def rk4_reconstruct(Ks, frames, kappa, tau, Ls, substeps):
    """Reference integrator: RK4 of the Frenet and surface systems.

    The form the Lie-group reconstruction replaced, vectorized over
    members: rows (c, T, N, B) with B = 0 on a surface, and
    c' = T, T' = kappa N - K <T, T> c, N' = -kappa T - K <T, N> c + tau B,
    B' = -tau N under the ambient inner product (Minkowski for K < 0);
    K = 0 is the Frenet system.  ``kappa`` and ``tau`` sample each profile
    at every half step, (m, 2 substeps (n - 1) + 1); the points are
    sampled every ``substeps`` steps, so it returns (m, n, 3).
    """
    steps = (kappa.shape[1] - 1) // 2
    h = (Ls / steps)[:, None, None]
    metric = np.ones((len(Ks), 3))
    metric[Ks < 0.0, 2] = -1.0
    K = Ks[:, None]

    def g(u, v):
        return np.sum(u * v * metric, axis=1)[:, None]

    def rhs(Y, kv, tv):
        c, T, N, B = Y[:, 0], Y[:, 1], Y[:, 2], Y[:, 3]
        kv, tv = kv[:, None], tv[:, None]
        return np.stack(
            [T, kv * N - K * g(T, T) * c, -kv * T - K * g(T, N) * c + tv * B, -tv * N], axis=1
        )

    Y = np.array(frames, dtype=float)
    points = [Y[:, 0]]
    for i in range(steps):
        (k0, km, k1), (t0, tm, t1) = kappa[:, 2 * i : 2 * i + 3].T, tau[:, 2 * i : 2 * i + 3].T
        s1 = rhs(Y, k0, t0)
        s2 = rhs(Y + 0.5 * h * s1, km, tm)
        s3 = rhs(Y + 0.5 * h * s2, km, tm)
        s4 = rhs(Y + h * s3, k1, t1)
        Y = Y + h * (s1 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0
        if (i + 1) % substeps == 0:
            points.append(Y[:, 0])
    return np.stack(points, axis=1)


# one case per branch of the curves workload: K = 0, K = 0 torsional, +1, -1
RECONSTRUCTION_CASES = ["flat_off_locus", "flat_torsional", "sphere_wave", "hyperbolic"]


@pytest.fixture(scope="module")
def rk4_curves():
    n, substeps = 256, 8
    params = [profile_params(*PROFILE_CASES[name]) for name in RECONSTRUCTION_CASES]
    fine = [solve_curvature_profile(p, 2 * substeps * (n - 1) + 1) for p in params]
    points = rk4_reconstruct(
        np.array([p.K for p in params]),
        np.stack([_frame_rows(p.frame) for p in params]),
        np.stack([kap for kap, _ in fine]),
        np.stack([tau for _, tau in fine]),
        np.array([p.L for p in params]),
        substeps,
    )
    return dict(zip(RECONSTRUCTION_CASES, points))


def algebra_elements(K, count, rng):
    """Random elements of the isometry algebra of G = diag(K, 1, 1, 1), (count, 4, 4).

    Combinations of E_0j - K E_j0 and E_ij - E_ji; on a surface (K != 0)
    only over the (c, T, N) block, so the B row and column stay zero.
    """
    dim = 4 if K == 0.0 else 3
    basis = []
    for i in range(dim):
        for j in range(i + 1, dim):
            E = np.zeros((4, 4))
            E[i, j], E[j, i] = 1.0, -K if i == 0 else -1.0
            basis.append(E)
    return np.einsum("cb,bij->cij", rng.normal(size=(count, len(basis))), np.array(basis))


_INV_FACTORIAL = 1.0 / np.cumprod([1.0, *range(1, 17)])  # 1/j! for j = 0..16


def taylor_expm(X):
    """Reference exponential of any (..., d, d) stack: the Taylor form the closed form replaced.

    Scaling and squaring per matrix to Frobenius norm < 1/2 around the
    degree-16 Taylor polynomial, summed by Horner's rule in X^4 over cubic
    blocks (Paterson-Stockmeyer).
    """
    s = np.maximum(np.frexp(2.0 * np.linalg.norm(X, axis=(-2, -1)))[1], 0)
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


def spline_gauss_values(samples):
    """Reference Gauss-point values from a cubic spline: (..., n) -> (..., n - 1, 2)."""
    n = samples.shape[-1]
    sigma = np.linspace(0.0, 1.0, n)
    nodes = (sigma[:-1, None] + sigma[1] * _GAUSS_NODES).ravel()
    return CubicSpline(sigma, samples, axis=-1)(nodes).reshape(*samples.shape[:-1], n - 1, 2)


def a_stack_exponents(K, kap, tau, Ls, n):
    """Reference Magnus exponents from an explicit stack of A at the Gauss points.

    ``kap`` and ``tau`` hold the (m, n - 1, 2) Gauss-point values; the
    commutator is formed by 4x4 products, as before the bracket basis.
    """
    kap, tau = np.moveaxis(kap, -1, 0), np.moveaxis(tau, -1, 0)  # axes: Gauss point, curve, step
    A = np.zeros(kap.shape + (4, 4))
    A[..., 0, 1], A[..., 1, 0] = 1.0, -K
    A[..., 1, 2], A[..., 2, 1] = kap, -kap
    A[..., 2, 3], A[..., 3, 2] = tau, -tau
    h = (np.asarray(Ls, dtype=float) / (n - 1))[:, None, None, None]
    return 0.5 * h * (A[0] + A[1]) + np.sqrt(3.0) / 12.0 * h**2 * (A[1] @ A[0] - A[0] @ A[1])


def case_profile(name, n=256):
    """Parameters and (1, n) kappa and tau of a ``PROFILE_CASES`` entry."""
    p = profile_params(*PROFILE_CASES[name])
    kap, tau = solve_curvature_profile(p, n)
    return p, kap[None], tau[None]


class TestClosedFormSteps:
    """Closed-form Magnus steps against the slow forms they replaced."""

    @pytest.mark.parametrize("name", list(PROFILE_CASES))
    def test_exponents_match_a_stack(self, name):
        p, kap, tau = case_profile(name)
        omega = _magnus_exponents(p.K, kap, tau, [p.L], 256)
        ref = a_stack_exponents(p.K, _gauss_values(kap), _gauss_values(tau), [p.L], 256)
        err = np.max(np.abs(omega - ref), axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
        assert np.max(err) <= 1e-14

    @pytest.mark.parametrize("name", list(PROFILE_CASES))
    def test_exp_matches_taylor_on_exponents(self, name):
        p, kap, tau = case_profile(name)
        omega = _magnus_exponents(p.K, kap, tau, [p.L], 256)
        ref = taylor_expm(omega)
        err = np.max(np.abs(_expm(omega) - ref), axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
        assert np.max(err) <= 1e-14

    @pytest.mark.parametrize("n", [6, 7, 96])
    def test_stencil_reproduces_quintics(self, n):
        coefficients = np.random.default_rng(n).normal(size=(6, 3))  # three quintics
        sigma = np.linspace(0.0, 1.0, n)
        exact = polyval(sigma[:-1, None] + sigma[1] * _GAUSS_NODES, coefficients)
        err = np.max(np.abs(_gauss_values(polyval(sigma, coefficients)) - exact))
        assert err <= 1e-14 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [64, 256])
    def test_stencil_at_least_as_accurate_as_spline(self, n):
        def f(x):
            return np.sin(9.0 * x + 0.3) * np.exp(-x)

        sigma = np.linspace(0.0, 1.0, n)
        exact = f(sigma[:-1, None] + sigma[1] * _GAUSS_NODES)
        err = np.max(np.abs(_gauss_values(f(sigma)) - exact))
        assert err <= np.max(np.abs(spline_gauss_values(f(sigma)) - exact))

    @pytest.mark.parametrize("q,m", [(1, 5), (3, 13), (4, 17)])
    def test_trajectory_matches_spline(self, q, m):
        start, end = circle_endpoints()
        ctrl = _interior_seed(start, end, q) + 0.1 * np.random.default_rng(q).normal(size=(q, 3))
        spec = ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=m, n=64)
        # the not-a-knot spline of the shape coordinates, mapped back
        nodes = _shape(np.vstack([[start.k, start.lam, start.mu], ctrl, [end.k, end.lam, end.mu]]), 0.0)
        z = CubicSpline(np.linspace(0.0, 1.0, q + 2), nodes, axis=0)(np.linspace(0.0, 1.0, m))
        assert np.max(np.abs(parameter_trajectory(spec) - _triples(z, 0.0))) <= 1e-15

    @pytest.mark.parametrize(
        "q,m", [(2, 9), (3, 13), (5, 13), (5, 33), (11, 13), (11, 25), (23, 25)]
    )
    def test_trajectory_end_rows_are_exact(self, q, m):
        # the spline leaves up to 2.2e-16 in its end rows at most of these sizes,
        # and exp(log k) may differ from k: parameter_trajectory sets the end rows
        W = _trajectory_weights(q, m)
        spline = CubicSpline(np.linspace(0.0, 1.0, q + 2), np.eye(q + 2))(np.linspace(0.0, 1.0, m))
        assert np.array_equal(W, spline)
        start, end = torsional_endpoints()
        ctrl = np.tile([0.9, 0.45, 0.07], (q, 1))
        P = parameter_trajectory(
            ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=m, n=64)
        )
        assert np.array_equal(P[0], [start.k, start.lam, start.mu])
        assert np.array_equal(P[-1], [end.k, end.lam, end.mu])

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_short_grids_keep_their_error_classes(self, n):
        # a path grid is refused when the spec is built, before any integration
        start, end = circle_endpoints()
        with pytest.raises(PreconditionError, match="n >= 64"):
            ElasticaPathSpec(
                start=start, end=end, control_points=_interior_seed(start, end, 1), m=5, n=n
            )
        with pytest.raises(PreconditionError):
            reconstruct_curve(start, np.ones(n), np.zeros(n), n)

    def test_path_grid_floor_is_the_profile_floor(self):
        start, end = circle_endpoints()
        ctrl = _interior_seed(start, end, 1)
        with pytest.raises(PreconditionError, match="n >= 64"):
            solve_curvature_profile(start, 63)
        with pytest.raises(PreconditionError, match="n >= 64"):
            ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=5, n=63)
        spec = ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=5, n=64)
        assert materialize_path(spec).n == 64


class TestLieGroupReconstruction:
    """Magnus propagators and their prefix products against RK4 and scipy."""

    @pytest.mark.parametrize("name", RECONSTRUCTION_CASES)
    def test_matches_rk4(self, name, rk4_curves):
        points = generate_curve(profile_params(*PROFILE_CASES[name]), 256).points
        ref = rk4_curves[name]
        assert np.max(np.abs(points - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", RECONSTRUCTION_CASES + ["hyperbolic_wave"])
    def test_fourth_order_convergence(self, name):
        p = profile_params(*PROFILE_CASES[name])
        end = {n: generate_curve(p, n).points[-1] for n in (256, 512, 4096)}
        err256 = np.linalg.norm(end[256] - end[4096])
        err512 = np.linalg.norm(end[512] - end[4096])
        assert err256 / err512 >= 12.0

    @pytest.mark.parametrize("name", RECONSTRUCTION_CASES + ["hyperbolic_wave"])
    def test_prefix_products_stay_in_the_group(self, name):
        # P^T G P = G: orthonormal frames, and <c, c> = 1/K on the surfaces
        p = profile_params(*PROFILE_CASES[name])
        kap, tau = solve_curvature_profile(p, 256)
        P = _prefix_products(_expm(_magnus_exponents(p.K, kap[None], tau[None], [p.L], 256)))
        G = np.diag([p.K, 1.0, 1.0, 1.0])
        defect = np.max(np.abs(np.swapaxes(P, -1, -2) @ G @ P - G))
        assert defect <= 1e-12 * max(1.0, np.max(np.abs(P)) ** 2)

    def test_prefix_products_match_sequential(self):
        rng = np.random.default_rng(2)
        Phi = np.eye(4) + 0.3 * rng.normal(size=(2, 37, 4, 4))
        P = _prefix_products(Phi)
        ref = np.eye(4)
        for i in range(38):
            assert np.allclose(P[:, i], ref, rtol=1e-13, atol=1e-13)
            if i < 37:
                ref = Phi[:, i] @ ref

    @pytest.mark.parametrize("m", [1, 13])
    @pytest.mark.parametrize("steps", [5, 36, 95, 96, 255, 256])
    def test_blocked_scan_matches_sequential(self, m, steps):
        # full, ragged and padded last blocks, on steps of all three groups
        rng = np.random.default_rng(100 * m + steps)
        for K in (-1.0, 0.0, 1.0):
            Phi = _expm(0.1 * algebra_elements(K, m * steps, rng).reshape(m, steps, 4, 4))
            P = _prefix_products(Phi)
            assert P.shape == (m, steps + 1, 4, 4)
            ref = np.broadcast_to(np.eye(4), (m, 4, 4))
            for i in range(steps + 1):
                assert np.allclose(P[:, i], ref, rtol=1e-13, atol=1e-13), (K, i)
                if i < steps:
                    ref = Phi[:, i] @ ref

    def test_taylor_exp_matches_scipy(self):
        # random elements of the three isometry algebras, where the closed form holds
        from scipy.linalg import expm

        rng = np.random.default_rng(1)
        # Frobenius norms from 0.4 to 2.5, across the 1/2 scaling threshold
        X = np.concatenate([algebra_elements(K, 334, rng) for K in (-1.0, 0.0, 1.0)])[:1000]
        X *= (rng.uniform(0.4, 2.5, size=len(X)) / np.linalg.norm(X, axis=(1, 2)))[:, None, None]
        X[0] = 0.0
        ref = expm(X)
        err = np.max(np.abs(_expm(X) - ref), axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert np.max(err) <= 1e-14
        assert np.array_equal(_expm(X[:1]), np.eye(4)[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profile_is_numeric_failure(self, bad):
        p = flat_params(1.0, 1.0, 0.0)
        kap = np.ones((1, 64))
        kap[0, 10] = bad
        with pytest.raises(NumericFailure):
            _batch_reconstruct(0.0, _frame_rows(p.frame)[None], kap, np.zeros((1, 64)), [p.L], 64)
        with pytest.raises(NumericFailure):
            _expm(np.full((2, 4, 4), bad))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("field", ["k", "lam", "mu", "K", "L"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_reject_non_finite(self, field, bad):
        values = dict(k=1.0, lam=1.0, mu=0.0, K=0.0, L=2.0, frame=default_flat_frame(1.0))
        values[field] = bad
        with pytest.raises(DomainError):
            ElasticaParams(**values)

    @pytest.mark.parametrize("field", ["origin", "T", "N", "B"])
    def test_frame_rejects_non_finite(self, field):
        values = dict(origin=[1.0, 0.0, 0.0], T=[0.0, 1.0, 0.0], N=[-1.0, 0.0, 0.0], B=[0.0, 0.0, 1.0])
        values[field] = [np.nan, 0.0, 1.0]
        with pytest.raises(DomainError):
            FrenetFrame(**values)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_path_spec_rejects_non_finite_controls(self, column, bad):
        start, end = circle_endpoints()
        ctrl = _interior_seed(start, end, 2)
        ctrl[1, column] = bad
        with pytest.raises(DomainError):
            ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=5, n=64)

    def test_endpoint_record_with_nan_length(self):
        data = endpoints_to_dict(*circle_endpoints())
        data["L"] = float("nan")
        with pytest.raises(DomainError):
            endpoints_from_dict(data)


class TestInteriorSeed:
    @pytest.mark.parametrize(
        "endpoints", [circle_endpoints, scaled_torsional_endpoints], ids=["circles", "K=0-torsional"]
    )
    def test_scaled_endpoints_seed_scaled_copies(self, endpoints):
        # log k, lambda / k^2 and mu / k^3 linear in s: endpoints that differ by
        # a scaling keep their scale-free shape at every node
        start, end = endpoints()
        k, lam, mu = _interior_seed(start, end, 5).T
        shape = np.array([start.lam / start.k**2, start.mu / start.k**3])
        assert np.allclose(shape, [end.lam / end.k**2, end.mu / end.k**3], rtol=1e-15, atol=0.0)
        assert np.allclose(lam / k**2, shape[0], rtol=1e-15, atol=0.0)
        assert np.allclose(mu / k**3, shape[1], rtol=1e-15, atol=0.0)
        assert np.all(np.diff(np.concatenate([[start.k], k, [end.k]])) < 0.0)
        assert np.allclose(np.log(k), np.linspace(np.log(start.k), np.log(end.k), 7)[1:-1], rtol=1e-15)

    def test_zero_amplitude_endpoint_is_a_domain_error(self):
        start, end = circle_endpoints()
        line = ElasticaParams(k=0.0, lam=0.0, mu=0.0, K=0.0, L=1.0, frame=start.frame)
        with pytest.raises(DomainError, match="positive curvature amplitude"):
            _interior_seed(start, line, 2)
        with pytest.raises(DomainError, match="positive curvature amplitude"):
            optimize_elastica_path((line, end), q=2, m=9, n=64)

    def test_criterion_8_visits_at_most_four_points(self, monkeypatch):
        # the shape-coordinate seed is the concentric-circle path; the linear
        # seed leaves the circle locus and needs more visited points
        import curvespace.elastica as el

        visits = []
        energy = el.elastica_path_energy

        def counting(spec):
            visits.append(spec)
            return energy(spec)

        monkeypatch.setattr(el, "elastica_path_energy", counting)
        optimize_elastica_path(circle_endpoints(), q=3, m=13, n=96)
        assert 2 <= len(visits) <= 4


def locus_defect(rows, K):
    """Largest |k^6 + (2 K - lambda) k^4 + s 2 mu^2| / k^6 over (k, lambda, mu) rows."""
    k, lam, mu = rows.T
    return float(np.max(np.abs(k**6 + (2 * K - lam) * k**4 + MU_LOCUS_SIGN * 2 * mu**2) / k**6))


def surface_circle_endpoints(K):
    start, end = surface_endpoints(K)
    return start, end, np.array([[k, k**2 + 2 * K, 0.0] for k in (1.9, 1.7, 1.6)])


def flat_helix_endpoints():
    # nodes of one shape: lambda / k^2 = 0.98 and mu / k^3 = 0.1, on the locus
    start = flat_params(1.0, 0.98, 0.1)
    end = ElasticaParams(
        k=0.5, lam=0.98 / 4, mu=0.1 / 8, K=0.0, L=4 * np.pi, frame=_end_frame(start, 0.5)
    )
    return start, end, np.array([[k, 0.98 * k**2, 0.1 * k**3] for k in (0.8, 0.7, 0.6)])


class TestShapeCoordinates:
    """The path spline runs in z = (log k, (lambda - 2K) / k^2, mu / k^3)."""

    @pytest.mark.parametrize(
        "nodes",
        [lambda: surface_circle_endpoints(1.0), lambda: surface_circle_endpoints(-1.0),
         flat_helix_endpoints],
        ids=["K=+1-circles", "K=-1-circles", "K=0-helices"],
    )
    def test_locus_nodes_keep_every_row_on_the_locus(self, nodes):
        # divided by k^6 the locus reads z_2 = 1 - 2 z_3^2: a spline of
        # nodes of one shape stays on it (closure on K != 0 needs another gauge)
        start, end, ctrl = nodes()
        assert locus_defect(np.array([[p.k, p.lam, p.mu] for p in (start, end)]), start.K) <= 1e-15
        spec = ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=13, n=64)
        assert locus_defect(parameter_trajectory(spec), start.K) <= 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        triples = np.column_stack([rng.uniform(0.2, 5.0, 20), rng.normal(size=(20, 2))])
        for K in (-1.0, 0.0, 1.0):
            assert np.allclose(_triples(_shape(triples, K), K), triples, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("where, k", [(0, 0.0), (1, 0.0), (1, -1.0), (2, 0.0)])
    def test_spec_refuses_nonpositive_amplitudes(self, where, k):
        # one check, before any logarithm: node 0 is the start, 1 a control, 2 the end
        start, end = circle_endpoints()
        ctrl = _interior_seed(start, end, 2)
        line = ElasticaParams(k=0.0, lam=0.0, mu=0.0, K=0.0, L=1.0, frame=start.frame)
        if where == 0:
            start = line
        elif where == 1:
            ctrl[1, 0] = k
        else:
            end = line
        with pytest.raises(DomainError, match="positive curvature amplitude"):
            ElasticaPathSpec(start=start, end=end, control_points=ctrl, m=5, n=64)

    @pytest.mark.parametrize("q, m, n", [(3, 13, 96), (5, 25, 128)])
    def test_criterion_8_circle_path_is_in_the_family(self, q, m, n):
        # controls on the locus at the concentric-geodesic radii of the nodes:
        # every row is a closed circle, and the search does at least as well
        start, end = circle_endpoints()
        traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=q + 2, n=64)
        k = 1.0 / traj.r[1:-1]
        spec = ElasticaPathSpec(
            start=start, end=end, control_points=np.column_stack([k, k**2, 0 * k]), m=m, n=n
        )
        assert locus_defect(parameter_trajectory(spec), 0.0) <= 1e-14
        energy, path = elastica_path_energy(spec)
        assert np.max(np.linalg.norm(path.points[:, -1] - path.points[:, 0], axis=-1)) <= 1e-12
        _, trace, _ = optimize_elastica_path((start, end), q=q, m=m, n=n)
        assert trace[-1][1] <= energy


class TestPathEnergy:
    def test_equal_endpoints_zero_energy(self):
        start, _ = circle_endpoints()
        spec = ElasticaPathSpec(
            start=start, end=start, control_points=_interior_seed(start, start, 2), m=9, n=64
        )
        energy, path = elastica_path_energy(spec)
        assert energy <= 1e-10

    def test_linear_controls_bound_below_by_distance(self):
        start, end = circle_endpoints()
        spec = ElasticaPathSpec(
            start=start, end=end, control_points=_interior_seed(start, end, 3), m=13, n=96
        )
        energy, path = elastica_path_energy(spec)
        assert energy >= FLAT_DISTANCE_1_TO_2**2
        assert path.m == 13

    def test_m_refinement_stable(self):
        start, end = circle_endpoints()
        vals = []
        for m in (9, 17):
            spec = ElasticaPathSpec(
                start=start, end=end, control_points=_interior_seed(start, end, 1), m=m, n=96
            )
            vals.append(elastica_path_energy(spec)[0])
        assert abs(vals[0] - vals[1]) <= 0.05 * vals[1]

    def test_curved_space_with_mu_rejected(self):
        p0 = ElasticaParams(k=1.5, lam=2.0, mu=0.0, K=1.0, L=3.0, frame=default_surface_frame(1.0))
        with pytest.raises(CapabilityError):
            ElasticaPathSpec(
                start=p0,
                end=p0,
                control_points=np.array([[1.5, 2.0, 0.3]]),
                m=5,
                n=64,
            )

    def test_spherical_path_generates(self):
        K = 1.0
        p0 = ElasticaParams(k=2.0, lam=4.0 + 2 * K, mu=0.0, K=K, L=np.pi, frame=default_surface_frame(K))
        p1 = ElasticaParams(k=1.5, lam=1.5**2 + 2 * K, mu=0.0, K=K, L=2 * np.pi / 1.5 * 1.0,
                            frame=default_surface_frame(K))
        spec = ElasticaPathSpec(
            start=p0, end=p1, control_points=_interior_seed(p0, p1, 1), m=7, n=96
        )
        energy, path = elastica_path_energy(spec)
        assert np.isfinite(energy) and energy > 0
        assert path.space == sphere(1.0)


class TestOptimizer:
    def test_identical_endpoints_immediate(self, monkeypatch):
        # the general search: the seed has a zero gradient, so it is the one visit
        import curvespace.elastica as el

        visits = []
        original = el.elastica_path_energy

        def counting(spec):
            visits.append(spec)
            return original(spec)

        monkeypatch.setattr(el, "elastica_path_energy", counting)
        for endpoints in (circle_endpoints(), torsional_endpoints(), surface_endpoints(1.0),
                          surface_endpoints(-1.0)):
            visits.clear()
            start = endpoints[0]
            spec, trace, path = optimize_elastica_path((start, start), q=2, m=9, n=64)
            assert len(visits) == 1
            assert trace == [(1, path_energy(path))]
            assert trace[0][1] <= 1e-10
            assert spec is visits[0]

    def test_end_row_is_the_gauge_end_curve(self):
        # end.L and end.frame disagree with the start's gauge and are not read:
        # the last row is the end triple with the shared ell = L k
        start = flat_params(1.0, 1.0, 0.0)
        end = ElasticaParams(
            k=0.5, lam=0.25, mu=0.0, K=0.0, L=3 * np.pi, frame=default_flat_frame(0.5)
        )
        gauge_end = ElasticaParams(
            k=0.5, lam=0.25, mu=0.0, K=0.0, L=4 * np.pi, frame=_end_frame(start, 0.5)
        )
        n = 64
        _, _, path = optimize_elastica_path((start, end), q=1, m=7, n=n)
        last = path.points[-1]
        assert np.max(np.abs(last - generate_curve(gauge_end, n).points)) <= 1e-12
        assert np.max(np.abs(last - generate_curve(end, n).points)) > 0.1

    def test_trace_strictly_decreasing_and_deterministic(self):
        start, end = circle_endpoints()
        opts = OptimizeOptions(seed=3, max_iter=40)
        spec1, trace1, _ = optimize_elastica_path((start, end), q=1, m=9, n=64, opts=opts)
        spec2, trace2, _ = optimize_elastica_path((start, end), q=1, m=9, n=64, opts=opts)
        assert trace1 == trace2
        assert np.array_equal(spec1.control_points, spec2.control_points)
        energies = [e for _, e in trace1]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(seed=-1), dict(max_iter=0), dict(max_iter=2.5), dict(max_iter=True),
            dict(max_iter=np.nan), dict(seed=1.5), dict(seed=True), dict(seed=np.nan),
        ],
    )
    def test_options_reject_out_of_range_values(self, bad):
        with pytest.raises(DomainError):
            OptimizeOptions(**bad)

    def test_one_trust_region_search_per_call(self, monkeypatch):
        import curvespace.elastica as el

        calls = []
        original = el.minimize

        def counting(*args, **kwargs):
            calls.append(kwargs["method"])
            return original(*args, **kwargs)

        monkeypatch.setattr(el, "minimize", counting)
        start, end = circle_endpoints()
        optimize_elastica_path((start, end), q=1, m=7, n=64, opts=OptimizeOptions(max_iter=30))
        assert calls == ["trust-exact"]

    def test_too_few_path_samples_fail_before_the_search(self, monkeypatch):
        import curvespace.elastica as el

        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(el, "minimize", no_search)
        start, end = circle_endpoints()
        with pytest.raises(PreconditionError, match="m >= 3"):
            optimize_elastica_path((start, end), q=1, m=2, n=64)

    def test_endpoints_never_modified(self):
        start, end = circle_endpoints()
        opts = OptimizeOptions(seed=1, max_iter=30)
        spec, _, _ = optimize_elastica_path((start, end), q=1, m=9, n=64, opts=opts)
        assert spec.start is start and spec.end is end
        assert (start.k, start.lam, start.mu) == (1.0, 1.0, 0.0)

    def test_generic_torsional_endpoints(self):
        # two distinct (k, lambda, mu) triples with nonplanar curves: the
        # search has no closed-form target, but the trace must decrease
        start = flat_params(1.0, 0.6, 0.1)
        end = ElasticaParams(
            k=0.8, lam=0.3, mu=0.05, K=0.0, L=2 * np.pi / 0.8,
            frame=_end_frame(flat_params(1.0, 0.6, 0.1), 0.8),
        )
        assert circle_locus_residual(start) > 0 and circle_locus_residual(end) > 0
        opts = OptimizeOptions(seed=0, max_iter=30)
        spec, trace, path = optimize_elastica_path((start, end), q=1, m=7, n=64, opts=opts)
        energies = [e for _, e in trace]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert np.isfinite(energies[-1])
        # the path is genuinely three-dimensional
        z_span = float(np.ptp(path.points[:, :, 2]))
        assert z_span > 0.1


class TestPathResiduals:
    @pytest.mark.parametrize(
        "endpoints",
        [torsional_endpoints, lambda: surface_endpoints(1.0), lambda: surface_endpoints(-1.0)],
        ids=["K=0-torsional", "K=+1", "K=-1"],
    )
    def test_sum_of_squares_is_the_path_energy(self, endpoints):
        start, end = endpoints()
        spec = ElasticaPathSpec(
            start=start, end=end, control_points=_interior_seed(start, end, 1), m=7, n=64
        )
        energy, path = elastica_path_energy(spec)
        r = path_residuals(path)
        assert r @ r == energy


class TestTrustRegionSearch:
    # materialize_path calls of the simplex search this replaced on the
    # circle_endpoints problem at q = 1, m = 7, n = 64 with default options
    SIMPLEX_MATERIALIZATIONS = 183

    @pytest.mark.parametrize("K", [1.0, -1.0])
    def test_surface_search_descends_and_repeats(self, K):
        start, end = surface_endpoints(K)
        seed = ElasticaPathSpec(
            start=start, end=end, control_points=_interior_seed(start, end, 1), m=7, n=64
        )
        seed_energy, _ = elastica_path_energy(seed)
        (spec, trace, path), (spec2, trace2, path2) = (
            optimize_elastica_path((start, end), q=1, m=7, n=64) for _ in range(2)
        )
        assert trace == trace2
        assert np.array_equal(spec.control_points, spec2.control_points)
        assert np.array_equal(path.points, path2.points)
        energies = [e for _, e in trace]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert energies[0] == seed_energy and energies[-1] < seed_energy
        assert path.space.curvature == K
        assert elastica_path_energy(spec)[0] == energies[-1]

    def test_materializations_capped_and_indexed(self, monkeypatch):
        # a fallback to a derivative-free search would far exceed the cap;
        # the trace's evaluation index counts every materialized path
        import curvespace.elastica as el

        specs = []
        original = el.materialize_path

        def counting(spec):
            specs.append(spec)
            return original(spec)

        monkeypatch.setattr(el, "materialize_path", counting)
        start, end = circle_endpoints()
        _, trace, _ = optimize_elastica_path((start, end), q=1, m=7, n=64)
        assert len(specs) <= self.SIMPLEX_MATERIALIZATIONS // 5
        for index, energy in trace:
            assert elastica_path_energy(specs[index - 1])[0] == energy

    def test_infeasible_jacobian_column_stops_at_the_point(self, monkeypatch):
        # the seed integrates, its first batch of perturbed rows does not: no
        # derivative, so the search ends at the seed
        import curvespace.elastica as el

        batches = []
        original = el._integrate_rows

        def first_only(spec, rows):
            batches.append(rows)
            if len(batches) > 1:
                raise NumericFailure("infeasible column")
            return original(spec, rows)

        monkeypatch.setattr(el, "_integrate_rows", first_only)
        start, end = circle_endpoints()
        spec, trace, path = optimize_elastica_path((start, end), q=1, m=7, n=64)
        assert len(batches) == 2
        assert trace == [(1, path_energy(path))]
        assert np.array_equal(spec.control_points, _interior_seed(start, end, 1))

    def test_no_feasible_point_is_an_optimization_failure(self, monkeypatch):
        import curvespace.elastica as el

        def no_path(spec):
            raise AssertionError("a control outside the k bounds was materialized")

        # k_lo = 2 min(k) > k_hi = max(k) / 2: every control is out of bounds
        monkeypatch.setattr(el, "K_BOUNDS_FACTOR", 0.5)
        monkeypatch.setattr(el, "materialize_path", no_path)
        with pytest.raises(OptimizationFailure, match="no feasible"):
            optimize_elastica_path(circle_endpoints(), q=1, m=7, n=64)


def per_column_jacobian(spec, n_coords):
    """Forward-difference Jacobian of the residuals in the controls' shape coordinates,
    one materialized path per coordinate."""
    x = spec.nodes[1:-1, :n_coords].ravel()
    r = path_residuals(materialize_path(spec))
    columns = []
    for k in range(x.size):
        xk = x.copy()
        xk[k] += _FD_STEP * max(1.0, abs(x[k]))
        z = np.zeros_like(spec.control_points)
        z[:, :n_coords] = xk.reshape(spec.q, n_coords)
        moved = ElasticaPathSpec(
            start=spec.start, end=spec.end, control_points=_triples(z, spec.K), m=spec.m, n=spec.n
        )
        columns.append((path_residuals(materialize_path(moved)) - r) / (xk[k] - x[k]))
    return np.stack(columns, axis=1)


def per_row_jacobian(spec, path, steps):
    """``_path_jacobian`` with one ``build_curve`` and ``path_residuals`` call per column."""
    q, n_coords = steps.shape
    Z = (_trajectory_weights(q, spec.m) @ spec.nodes)[1:-1]
    W = _trajectory_weights(q, spec.m)[1:-1, 1:-1]
    c = path.points
    r = path_residuals(path)
    J = np.empty((r.size, q, n_coords))
    for d in range(n_coords):
        rows = Z.copy()
        rows[:, d] += _FD_STEP * np.maximum(1.0, np.abs(Z[:, d]))
        moved = _integrate_rows(spec, _triples(rows, spec.K))
        dc = (moved - c[1:-1]) / (rows[:, d] - Z[:, d])[:, None, None]
        for i in range(q):
            points = c.copy()
            points[1:-1] += steps[i, d] * W[:, i, None, None] * dc
            column = CurvePath(build_curve(path.space, points, closed=False))
            J[:, i, d] = (path_residuals(column) - r) / steps[i, d]
    return r, J.reshape(r.size, -1)


class TestRowJacobian:
    """The stacked per-row Jacobian against the per-row loop and the per-column
    Jacobian it replaced, at the search's seed."""

    @pytest.mark.parametrize(
        "endpoints, q, m, n",
        [
            (circle_endpoints, 1, 7, 64),
            (torsional_endpoints, 1, 7, 64),
            (lambda: surface_endpoints(1.0), 1, 7, 64),
            (lambda: surface_endpoints(-1.0), 1, 7, 64),
            (torsional_endpoints, 3, 13, 96),
        ],
        ids=["circles", "K=0-torsional", "K=+1", "K=-1", "K=0-torsional-q3"],
    )
    def test_matches_the_per_column_jacobian(self, endpoints, q, m, n):
        start, end = endpoints()
        n_coords = 3 if start.K == 0.0 else 2
        spec = ElasticaPathSpec(
            start=start, end=end, control_points=_interior_seed(start, end, q), m=m, n=n
        )
        path = materialize_path(spec)
        x = spec.nodes[1:-1, :n_coords]
        steps = (x + _FD_STEP * np.maximum(1.0, np.abs(x))) - x
        r, J = _path_jacobian(spec, path, steps)
        # one (q, m, n, dim) stack per coordinate: the same floats as one path per column
        r_loop, J_loop = per_row_jacobian(spec, path, steps)
        assert np.array_equal(r, r_loop) and np.array_equal(J, J_loop)
        assert J.flags.c_contiguous
        reference = per_column_jacobian(spec, n_coords)
        assert np.array_equal(r, path_residuals(path))
        assert J.shape == reference.shape == (r.size, q * n_coords)
        assert np.linalg.norm(J - reference) <= 1e-5 * np.linalg.norm(reference)
        grad, grad_ref = 2.0 * (J.T @ r), 2.0 * (reference.T @ r)
        assert np.linalg.norm(grad - grad_ref) <= 1e-5 * np.linalg.norm(grad_ref)

    @pytest.mark.parametrize(
        "endpoints", [torsional_endpoints, lambda: surface_endpoints(1.0)], ids=["K=0", "K=+1"]
    )
    def test_one_pass_per_jacobian(self, monkeypatch, endpoints):
        # every coordinate's rows in one integration, all columns in one
        # build_curve and one path_residuals call besides the path's own
        import curvespace.elastica as el

        start, end = endpoints()
        q, m, n = 3, 13, 96
        n_coords = 3 if start.K == 0.0 else 2
        spec = ElasticaPathSpec(
            start=start, end=end, control_points=_interior_seed(start, end, q), m=m, n=n
        )
        path = materialize_path(spec)
        calls = {}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return original(*args, **kwargs)

            return wrapped

        for name in ("_integrate_rows", "build_curve", "path_residuals"):
            monkeypatch.setattr(el, name, counting(name, getattr(el, name)))
        x = spec.nodes[1:-1, :n_coords]
        r, J = el._path_jacobian(spec, path, (x + _FD_STEP * np.maximum(1.0, np.abs(x))) - x)
        assert [rows.shape for _, rows in calls["_integrate_rows"]] == [(n_coords * (m - 2), 3)]
        dim = path.points.shape[-1]
        assert [points.shape for _, points in calls["build_curve"]] == [(q * n_coords, m, n, dim)]
        assert [p.points.shape for (p,) in calls["path_residuals"]] == [
            (m, n, dim), (q * n_coords, m, n, dim)
        ]
        assert J.shape == (r.size, q * n_coords)

    def test_linear_seed_search_repeats_through_both_jacobians(self, monkeypatch):
        # criterion 8 from the linear seed: the same trace, controls and path
        # with either Jacobian, ending where the linear-seed search ended
        import curvespace.elastica as el

        monkeypatch.setattr(el, "_interior_seed", linear_seed)
        runs = []
        for jacobian in (per_row_jacobian, _path_jacobian):
            monkeypatch.setattr(el, "_path_jacobian", jacobian)
            runs.append(optimize_elastica_path(circle_endpoints(), q=3, m=13, n=96))
        (spec1, trace1, path1), (spec2, trace2, path2) = runs
        assert trace1 == trace2
        assert np.array_equal(spec1.control_points, spec2.control_points)
        assert np.array_equal(path1.points, path2.points)
        assert len(trace1) == 6
        assert trace1[-1][1] == pytest.approx(13.722714980864207, rel=1e-12)

    @staticmethod
    def count_profile_batches(monkeypatch, q, m, n):
        """Rows of every ``_batch_profiles`` call, and the visited specs, of one search."""
        import curvespace.elastica as el

        rows, visits = [], []
        profiles, energy = el._batch_profiles, el.elastica_path_energy

        def counting_profiles(ks, *args):
            rows.append(len(ks))
            return profiles(ks, *args)

        def counting_energy(spec):
            visits.append(spec)
            return energy(spec)

        monkeypatch.setattr(el, "_batch_profiles", counting_profiles)
        monkeypatch.setattr(el, "elastica_path_energy", counting_energy)
        optimize_elastica_path(circle_endpoints(), q=q, m=m, n=n)
        return rows, visits

    @pytest.mark.parametrize("q", [1, 3])
    def test_rows_integrated_per_visited_point(self, monkeypatch, q):
        # m rows for the point and one batch of 3 (m - 2) for its Jacobian,
        # whatever q, and nothing else; a Jacobian of materialized paths
        # integrates (1 + 3 q) m rows
        m, n = 9, 64
        rows, visits = self.count_profile_batches(monkeypatch, q, m, n)
        assert set(rows) <= {m, 3 * (m - 2)}
        assert len(visits) >= 2
        assert sum(rows) <= (m + 3 * (m - 2)) * len(visits)

    def test_criterion_8_profile_batches(self, monkeypatch):
        # 4 visits, each one batch for the point and one for every coordinate
        # of its Jacobian: no endpoint integrations besides
        rows, visits = self.count_profile_batches(monkeypatch, 3, 13, 96)
        assert len(visits) == 4
        assert len(rows) == 8
        assert rows == [13, 33] * 4


class TestEndpointsJSON:
    def test_round_trip(self):
        start, end = circle_endpoints()
        data = endpoints_to_dict(start, end)
        s2, e2 = endpoints_from_dict(data)
        assert s2.k == start.k and s2.lam == start.lam and s2.mu == start.mu
        assert e2.k == end.k
        assert e2.L == pytest.approx(end.L)
        assert np.allclose(e2.frame.origin, end.frame.origin)

    def test_shared_gauge_keeps_circles_concentric(self):
        start, end = circle_endpoints()
        # osculating centers coincide
        c0 = start.frame.origin + start.frame.N / start.k
        c1 = end.frame.origin + end.frame.N / end.k
        assert np.allclose(c0, c1, atol=1e-14)

    def test_invalid_record(self):
        with pytest.raises(DomainError):
            endpoints_from_dict({"K": 0.0, "start": {"k": 1, "lambda": 1, "mu": 0}})
