import numpy as np
import pytest

from curvespace import (
    CapabilityError,
    DomainError,
    ElasticaParams,
    ElasticaPathSpec,
    FrenetFrame,
    OptimizeOptions,
    build_curve,
    circle_locus_residual,
    elastica_path_energy,
    euclidean3d,
    length,
    optimize_elastica_path,
    reconstruct_curve,
    solve_curvature_profile,
    sphere,
)
from curvespace.elastica import (
    MU_LOCUS_SIGN,
    _end_frame,
    _interior_seed,
    default_flat_frame,
    default_surface_frame,
    endpoints_from_dict,
    endpoints_to_dict,
    first_integral,
    generate_curve,
    materialize_path,
)

FLAT_DISTANCE_1_TO_2 = 3.7098994412119352


def flat_params(k, lam, mu, L=None):
    if L is None:
        L = 2 * np.pi / k
    return ElasticaParams(k=k, lam=lam, mu=mu, K=0.0, L=L, frame=default_flat_frame(k))


def circle_endpoints(k0=1.0, k1=0.5):
    start = flat_params(k0, k0**2, 0.0)
    end = ElasticaParams(
        k=k1, lam=k1**2, mu=0.0, K=0.0, L=2 * np.pi / k1, frame=_end_frame(flat_params(k0, k0**2, 0.0), k1)
    )
    return start, end


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
    def test_identical_endpoints_immediate(self):
        start, _ = circle_endpoints()
        spec, trace, path = optimize_elastica_path((start, start), q=2, m=9, n=64)
        assert len(trace) == 1
        assert trace[0][1] <= 1e-10

    def test_trace_strictly_decreasing_and_deterministic(self):
        start, end = circle_endpoints()
        opts = OptimizeOptions(seed=3, max_iter=40, max_restarts=1)
        spec1, trace1, _ = optimize_elastica_path((start, end), q=1, m=9, n=64, opts=opts)
        spec2, trace2, _ = optimize_elastica_path((start, end), q=1, m=9, n=64, opts=opts)
        assert trace1 == trace2
        assert np.array_equal(spec1.control_points, spec2.control_points)
        energies = [e for _, e in trace1]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_endpoints_never_modified(self):
        start, end = circle_endpoints()
        opts = OptimizeOptions(seed=1, max_iter=30, max_restarts=0)
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
        opts = OptimizeOptions(seed=0, max_iter=30, max_restarts=0)
        spec, trace, path = optimize_elastica_path((start, end), q=1, m=7, n=64, opts=opts)
        energies = [e for _, e in trace]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert np.isfinite(energies[-1])
        # the path is genuinely three-dimensional
        z_span = float(np.ptp(path.points[:, :, 2]))
        assert z_span > 0.1


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
