import numpy as np
import pytest

from curvespace import (
    CurveSpaceError,
    DomainError,
    NormalityError,
    PreconditionError,
    build_curve,
    cov_d_T,
    diagnose_path,
    euclidean3d,
    horizontality_defect,
    hyperbolic,
    length,
    make_path,
    path_energy,
    path_from_dict,
    path_speed,
    path_to_dict,
    plane,
    rho_kappa_defect,
    sobolev_inner,
    solve_concentric_geodesic,
    solve_helix_geodesic,
    sphere,
)
from curvespace.sobolev_metric import CurvePath, path_from_curves, path_length, path_residuals


def circle_curve(n=256, radius=1.0):
    t = 2 * np.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    return build_curve(plane(), pts, closed=True), t


def concentric_path(radii, n=256):
    t = 2 * np.pi * np.arange(n) / n
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    pts = np.asarray(radii)[:, None, None] * ring[None]
    return make_path(plane(), pts, closed=True)


def latitude_path(r_of_s, m, n=256):
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)
    r = r_of_s(s)
    pts = np.stack(
        [
            np.outer(np.sin(r), np.cos(t)),
            np.outer(np.sin(r), np.sin(t)),
            np.repeat(np.cos(r)[:, None], n, axis=1),
        ],
        axis=2,
    )
    return make_path(sphere(1.0), pts, closed=True)


class TestSobolevInner:
    def test_constant_field_flat_circle(self):
        c, _ = circle_curve()
        h = np.tile([1.0, 0.0], (c.n, 1))
        assert sobolev_inner(c, h, h) == pytest.approx(2 * np.pi, abs=1e-6)

    def test_normal_field_gets_first_order_term(self):
        c, _ = circle_curve(n=512)
        assert sobolev_inner(c, c.N, c.N) == pytest.approx(4 * np.pi, abs=1e-3)

    def test_zero_field(self):
        c, _ = circle_curve(64)
        z = np.zeros((64, 2))
        assert sobolev_inner(c, z, z) == 0.0

    def test_symmetric_bilinear(self):
        c, t = circle_curve(128)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(128, 2))
        k = rng.normal(size=(128, 2))
        g = rng.normal(size=(128, 2))
        assert sobolev_inner(c, h, k) == pytest.approx(sobolev_inner(c, k, h), rel=1e-12)
        lhs = sobolev_inner(c, h, 2.0 * k + 0.5 * g)
        rhs = 2.0 * sobolev_inner(c, h, k) + 0.5 * sobolev_inner(c, h, g)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_dominates_l2_term(self):
        c, t = circle_curve(128)
        h = np.stack([np.sin(2 * t), np.cos(t)], axis=1)
        l2 = float(np.sum(np.asarray(c.space.inner(h, h)) * c.omega) * c.dt)
        assert sobolev_inner(c, h, h) >= l2

    def test_reparametrization_invariance(self):
        # G_{c o phi}(h o phi, k o phi) = G_c(h, k) up to O(n^-2)
        n = 256
        t = 2 * np.pi * np.arange(n) / n
        phi = t + 0.3 * np.sin(t)

        def fields(u):
            pts = np.stack([np.cos(u), np.sin(u)], axis=1)
            h = np.stack([np.sin(u), np.cos(2 * u)], axis=1)
            return pts, h

        pts1, h1 = fields(t)
        pts2, h2 = fields(phi)
        c1 = build_curve(plane(), pts1, closed=True)
        c2 = build_curve(plane(), pts2, closed=True)
        g1 = sobolev_inner(c1, h1, h1)
        g2 = sobolev_inner(c2, h2, h2)
        assert abs(g1 - g2) <= 100.0 / n**2


class TestPathVelocity:
    def test_constant_path(self):
        c, _ = circle_curve(64)
        path = path_from_curves([c, c, c])
        for j in range(3):
            assert np.max(np.abs(path.velocity[j])) <= 1e-12

    def test_concentric_velocity_is_radial(self):
        m = 9
        s = np.linspace(0, 1, m)
        path = concentric_path(1.0 + s)
        v = path.velocity[m // 2]
        t = path.curves[0].t_grid
        expected = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert np.max(np.abs(v - expected)) <= 1e-10

    def test_latitude_speed_magnitude(self):
        delta = 0.1
        path = latitude_path(lambda s: 0.6 + delta * s, m=33)
        v = path.velocity[16]
        norms = np.linalg.norm(v, axis=1)
        assert np.max(np.abs(norms - delta)) <= 1e-6


def row_s_difference(path, j):
    """Per-sample second-order s-difference of row j, one-sided at the ends."""
    p, ds = path.points, path.ds
    if j == 0:
        return (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * ds)
    if j == path.m - 1:
        return (3.0 * p[-1] - 4.0 * p[-2] + p[-3]) / (2.0 * ds)
    return (p[j + 1] - p[j - 1]) / (2.0 * ds)


def row_velocity(path, j):
    """``row_s_difference`` projected tangent."""
    return path.space.tangent_project(path.points[j], row_s_difference(path, j), check=False)


def helix_path(m=9, n=128):
    from curvespace import solve_helix_geodesic

    return solve_helix_geodesic(1.0, 2.0, 0.5, m=m, n=n)[1]


class TestBatchedPathSpeed:
    """The whole-stack speed against a per-curve loop over separately built curves."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: concentric_path(1.0 + np.linspace(0, 1, 9) ** 2),
            lambda: latitude_path(lambda s: 0.5 + 0.6 * s**2, m=9),
            lambda: solve_concentric_geodesic(hyperbolic(-1.0), 0.5, 1.0, m=9, n=128)[1],
            helix_path,
        ],
        ids=["plane", "sphere", "hyperboloid", "helix"],
    )
    def test_matches_per_row_sobolev_inner(self, make):
        path = make()
        nu = path_speed(path)
        for j in range(path.m):
            v = row_velocity(path, j)
            assert np.array_equal(path.velocity[j], v)
            row = path.curves[j]
            curve = build_curve(path.space, row.points, path.closed, screw_shift=row.screw_shift)
            ref = np.sqrt(max(sobolev_inner(curve, v, v), 0.0))
            assert nu[j] == pytest.approx(ref, rel=1e-12)

    def test_velocity_is_read_only(self):
        path = concentric_path(np.linspace(1.0, 2.0, 5))
        with pytest.raises(ValueError):
            path.velocity[2][0, 0] = 1.0


class TestPathSpeedAndEnergy:
    def test_constant_path_zero(self):
        c, _ = circle_curve(64)
        path = path_from_curves([c] * 5)
        assert np.max(path_speed(path)) <= 1e-12
        assert path_energy(path) <= 1e-24

    def test_concentric_speed_profile(self):
        m = 33
        s = np.linspace(0, 1, m)
        path = concentric_path(1.0 + s)
        nu = path_speed(path)
        expected = np.sqrt(2 * np.pi * ((1 + s) + 1 / (1 + s)))
        assert np.max(np.abs(nu - expected) / expected) <= 5e-3

    def test_geodesic_energy_equals_distance_squared(self):
        traj, path = solve_concentric_geodesic(plane(), 1.0, 2.0, m=64, n=256)
        energy = path_energy(path)
        assert energy == pytest.approx(traj.distance**2, rel=1e-2)
        assert path_length(path) == pytest.approx(traj.distance, rel=5e-3)

    def test_energy_refinement(self):
        vals = []
        for m in (17, 33):
            s = np.linspace(0, 1, m)
            path = concentric_path(1.0 + s + 0.2 * np.sin(np.pi * s))
            vals.append(path_energy(path))
        assert abs(vals[0] - vals[1]) <= 0.02 * abs(vals[1])


class TestPathResiduals:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: concentric_path(1.0 + np.linspace(0, 1, 9) ** 2),
            lambda: latitude_path(lambda s: 0.5 + 0.6 * s**2, m=9),
            lambda: solve_concentric_geodesic(hyperbolic(-1.0), 0.5, 1.0, m=9, n=128)[1],
            helix_path,
        ],
        ids=["plane", "sphere", "hyperboloid", "helix"],
    )
    def test_sum_of_squares_is_the_path_energy(self, make):
        path = make()
        r = path_residuals(path)
        assert r.shape == (2 * path.m * path.n * (2 if path.space.lorentzian else path.space.ambient_dim),)
        energy = path_energy(path)
        assert np.sum(r * r) == energy


def space_path(z, m=9, n=128):
    """Closed saddle curves (r cos t, r sin t, z sin 2t) in R^3 with r = 1 + s."""
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)[:, None]
    pts = np.stack([(1 + s) * np.cos(t), (1 + s) * np.sin(t), z * s * np.sin(2 * t)], axis=2)
    return make_path(euclidean3d(), pts, closed=True)


def path_stack(paths):
    """The paths (or stacks of paths) as one stack with a new leading axis of length B."""
    first = paths[0].batch
    points = np.stack([p.points for p in paths])
    return CurvePath(build_curve(first.space, points, first.closed, screw_shift=first.screw_shift))


class TestStackedPathResiduals:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: [concentric_path(1.0 + a * np.linspace(0, 1, 9) ** 2) for a in (0.5, 1.0, 1.5)],
            lambda: [latitude_path(lambda s, a=a: 0.5 + a * s**2, m=9) for a in (0.3, 0.6, 0.9)],
            lambda: [
                solve_concentric_geodesic(hyperbolic(-1.0), r0, 1.0, m=9, n=128)[1]
                for r0 in (0.5, 0.7, 0.9)
            ],
            lambda: [space_path(z) for z in (0.1, 0.3, 0.5)],
            lambda: [solve_helix_geodesic(r0, 2.0, 0.5, m=9, n=128)[1] for r0 in (1.0, 1.5)],
        ],
        ids=["plane", "sphere", "hyperboloid", "R3", "helix"],
    )
    def test_rows_equal_the_single_path_calls(self, make):
        paths = make()
        stack = path_stack(paths)
        r = path_residuals(stack)
        assert stack.m == paths[0].m
        assert r.shape == (len(paths), path_residuals(paths[0]).size)
        for row, path in zip(r, paths):
            assert np.array_equal(row, path_residuals(path))
        # more leading axes keep the rows too
        assert np.array_equal(path_residuals(path_stack([stack])), r[None])


class TestPathFromCurves:
    def test_mixed_screw_shift_rejected(self):
        helix = helix_path(m=3, n=64).curves[1]
        plain = build_curve(helix.space, helix.points, closed=False)
        with pytest.raises(DomainError, match="screw_shift"):
            path_from_curves([helix, plain, helix])

    def test_rebuilds_the_same_curves(self):
        path = helix_path(m=5, n=64)
        again = path_from_curves(path.curves)
        assert np.array_equal(again.points, path.points)
        assert np.array_equal(again.batch.tau, path.batch.tau)
        assert np.array_equal(path_speed(again), path_speed(path))

    def test_keeps_the_fields_each_curve_was_built_with(self):
        t = np.linspace(0.0, 1.0, 64)
        # the straight r = 0 row has no Frenet frame, the helices have one
        rows = [np.stack([r * np.cos(t), r * np.sin(t), t], axis=1) for r in (1.0, 0.0, 1.2)]
        curves = [build_curve(euclidean3d(), p, closed=False) for p in rows]
        path = path_from_curves(curves)
        ok = path.batch.frame_ok
        assert np.all(ok[[0, 2]]) and not np.any(ok[1])
        for j, c in enumerate(curves):
            for f in ("points", "omega", "T", "N", "kappa", "B", "tau", "frame_ok"):
                assert np.array_equal(getattr(path.curves[j], f), getattr(c, f)), f

    def test_stacked_curves_rejected(self):
        path = helix_path(m=3, n=64)
        with pytest.raises(PreconditionError):
            path_from_curves([path.batch] * 3)

    def test_points_are_read_only(self):
        for path in (helix_path(m=3, n=64), path_from_curves(helix_path(m=3, n=64).curves)):
            with pytest.raises(ValueError):
                path.points[0, 0, 0] = 0.0


DOCUMENTED_REFUSALS = {
    "make_path of one curve": (DomainError, lambda: make_path(plane(), circle_curve(64)[0].points, True)),
    "make_path of 2 curves": (PreconditionError, lambda: concentric_path([1.0, 2.0], n=64)),
    "path_from_curves of 2 curves": (PreconditionError, lambda: path_from_curves(
        [circle_curve(64)[0], circle_curve(64, 2.0)[0]])),
    "path_from_curves of mismatched n": (DomainError, lambda: path_from_curves(
        [circle_curve(64)[0], circle_curve(64, 2.0)[0], circle_curve(32)[0]])),
    "sobolev_inner of a wrong-shaped field": (DomainError, lambda: sobolev_inner(
        circle_curve(64)[0], np.ones((63, 2)), np.ones((64, 2)))),
}


@pytest.mark.parametrize("case", DOCUMENTED_REFUSALS)
def test_documented_refusal(case):
    error, call = DOCUMENTED_REFUSALS[case]
    with pytest.raises(CurveSpaceError) as info:
        call()
    assert type(info.value) is error


class TestHorizontality:
    def test_concentric_circles_horizontal(self):
        path = concentric_path(np.linspace(1.0, 2.0, 9))
        sup = np.max(np.abs(horizontality_defect(path)))
        assert sup <= 1e-6

    def test_vertical_path_detected(self):
        n, m = 256, 9
        t = 2 * np.pi * np.arange(n) / n
        s = np.linspace(0, 1, m)
        a = 1.0 + 0.5 * np.sin(t)
        pts = np.stack([np.stack([np.cos(t + (sj - 0.5) * a), np.sin(t + (sj - 0.5) * a)], axis=1) for sj in s])
        path = make_path(plane(), pts, closed=True)
        assert np.max(np.abs(horizontality_defect(path)[m // 2])) > 0.01

    def test_shortening_flow_on_circle_horizontal(self):
        # linear path with velocity kappa N on a circle
        n, m = 256, 5
        t = 2 * np.pi * np.arange(n) / n
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        base = build_curve(plane(), ring, closed=True)
        flow = base.kappa[:, None] * base.N
        s = np.linspace(0, 1, m)
        pts = np.stack([ring + (sj - 0.5) * 0.1 * flow for sj in s])
        path = make_path(plane(), pts, closed=True)
        assert np.max(np.abs(horizontality_defect(path)[m // 2])) <= 1e-6


class TestFarHyperboloid:
    """Concentric circles far out on the K = -1 hyperboloid, where |p| ~ e^r / 2.

    The tangent projection of the s-difference rounds there to about
    eps |p|^2 |c'| / R^2, differently at each sample; D_T c' must not
    differentiate that rounding.
    """

    @pytest.mark.parametrize("n", [256, 64])
    @pytest.mark.parametrize("r0", [12.0, 14.0])
    def test_length_and_horizontality_hold(self, r0, n):
        traj, path = solve_concentric_geodesic(hyperbolic(-1.0), r0, r0 + 1.0, m=64, n=n)
        assert path_length(path) == pytest.approx(traj.distance, rel=5e-4)
        assert np.max(np.abs(horizontality_defect(path))) <= 1e-5

    def test_horizontality_at_radius_nine(self):
        _, path = solve_concentric_geodesic(hyperbolic(-1.0), 9.0, 10.0, m=64, n=256)
        assert np.max(np.abs(horizontality_defect(path))) <= 1e-7


class TestRhoKappaDefect:
    def test_concentric_circles(self):
        path = concentric_path(np.linspace(1.0, 2.0, 9))
        assert np.max(np.abs(rho_kappa_defect(path)[4])) <= 1e-8

    def test_radial_perturbation_matches_analytic(self):
        # velocity rho(t) = 1 + 0.3 cos t normal to the unit circle at s-start
        n, m = 256, 9
        t = 2 * np.pi * np.arange(n) / n
        rho = 1.0 + 0.3 * np.cos(t)
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        s = np.linspace(0, 1, m)
        # radial expansion: at j=0 the curve is the unit circle, velocity -rho*N
        pts = np.stack([(1.0 + sj * 0.5 * rho)[:, None] * ring for sj in s])
        path = make_path(plane(), pts, closed=True)
        defect = rho_kappa_defect(path)[0]
        # d_theta(rho^2 kappa) with rho = -0.5(1 + 0.3 cos t), kappa = 1, omega = 1
        analytic = 2.0 * (0.5 * rho) * (-0.15 * np.sin(t))
        assert np.max(np.abs(defect - analytic)) <= 1e-3

    def test_tangential_path_rejected(self):
        n, m = 128, 5
        t = 2 * np.pi * np.arange(n) / n
        s = np.linspace(0, 1, m)
        pts = np.stack(
            [np.stack([np.cos(t + 0.3 * sj), np.sin(t + 0.3 * sj)], axis=1) for sj in s]
        )
        path = make_path(plane(), pts, closed=True)
        with pytest.raises(NormalityError):
            rho_kappa_defect(path)

    def test_helix_path_satisfies_criterion_in_3d(self):
        # coaxial helices are a normal horizontal family: rho^2 kappa constant
        from curvespace import solve_helix_geodesic

        _, path = solve_helix_geodesic(1.0, 2.0, 1.0, m=16, n=128)
        sup = np.max(np.abs(rho_kappa_defect(path)))
        assert sup <= 1e-10


class TestDiagnostics:
    def test_bundle_shapes_and_flags(self):
        path = concentric_path(np.linspace(1.0, 1.5, 7))
        diag = diagnose_path(path)
        assert diag.speed.shape == (7,)
        assert diag.horizontality_defect.shape == (7,)
        assert diag.rho.shape == (7, path.n)
        assert diag.tangential.shape == (7, path.n)
        assert diag.is_normal
        assert diag.speed_drift >= 0.0

    def test_standing_path_has_no_speed_drift(self):
        # three identical rows: the speed is 0 everywhere, so its drift is 0, not 0/0;
        # dyadic coordinates keep the one-sided s-stencil (-3, 4, -1) free of rounding
        t = 2 * np.pi * np.arange(64) / 64
        ring = np.round(1024 * np.stack([np.cos(t), np.sin(t)], axis=1)) / 1024
        diag = diagnose_path(make_path(plane(), np.stack([ring] * 3), closed=True))
        assert np.array_equal(diag.speed, np.zeros(3))
        assert diag.speed_drift == 0.0

    @pytest.mark.parametrize("model", ["plane", "sphere"])
    def test_speed_at_rounding_level_has_no_drift(self, model):
        # cos/sin rows round in the end-row stencil: the speed is ~1e-15 at rows
        # 0 and m - 1 and exactly 0 between, a drift of 1.5 if it were measured
        t = 2 * np.pi * np.arange(64) / 64
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        space = plane() if model == "plane" else sphere(1.0)
        if model == "sphere":
            ring = np.concatenate([0.6 * ring, np.full((64, 1), 0.8)], axis=1)
        diag = diagnose_path(make_path(space, np.stack([ring] * 3), closed=True))
        assert 0.0 < np.max(diag.speed) <= 1e-14
        assert diag.speed_drift == 0.0

    def test_slow_path_keeps_its_speed_drift(self):
        # rows 1e-12 apart move above the stencil's rounding: the drift is measured
        t = 2 * np.pi * np.arange(64) / 64
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        path = make_path(plane(), np.stack([(1.0 + 1e-12 * j) * ring for j in range(3)]), closed=True)
        diag = diagnose_path(path)
        assert diag.speed_drift == float(np.ptp(diag.speed) / np.mean(diag.speed)) > 0.0


class TestQuadrature:
    """Length, G_c, speed and path length against numpy's trapezoid rule, to rounding."""

    @pytest.mark.parametrize("closed", [True, False])
    def test_length_and_sobolev_inner(self, closed):
        t = 2 * np.pi * np.arange(96) / 96 if closed else np.linspace(0.0, 2.0, 96)
        c = build_curve(plane(), np.stack([2 * np.cos(t), np.sin(t)], axis=1), closed=closed)
        h = np.stack([np.sin(t), np.cos(2 * t)], axis=1)
        g = np.sum(h * h, axis=1) + np.sum(cov_d_T(c, h) ** 2, axis=1)
        for got, f in ((length(c), 1.0), (sobolev_inner(c, h, h), g)):
            want = np.sum(f * c.omega) * c.dt if closed else np.trapezoid(f * c.omega, dx=c.dt)
            assert got == pytest.approx(want, rel=1e-14)

    def test_path_length(self):
        path = latitude_path(lambda s: 0.5 + 0.8 * s * s, m=9, n=64)
        want = np.trapezoid(path_speed(path), dx=path.ds)
        assert path_length(path) == pytest.approx(want, rel=1e-14)


class TestPathSerialization:
    def test_round_trip_bitwise(self):
        _, path = solve_concentric_geodesic(plane(), 1.0, 1.5, m=5, n=64)
        data = path_to_dict(path)
        back = path_from_dict(data)
        assert np.array_equal(back.points, path.points)

    def test_grid_mismatch_rejected(self):
        _, path = solve_concentric_geodesic(plane(), 1.0, 1.5, m=5, n=64)
        data = path_to_dict(path)
        data["s_samples"] = 6
        with pytest.raises(DomainError):
            path_from_dict(data)

    @pytest.mark.parametrize("pitch", [None, 0.7])
    def test_helix_record_needs_its_own_pitch(self, pitch):
        # without its pitch the helix path reloads with one-sided stencils
        # (length 3.7155), with another pitch as other helices (3.8995)
        _, path = solve_helix_geodesic(1, 2, 0.5, m=16, n=64)
        assert path_length(path) == 3.744875474317819
        with pytest.raises(PreconditionError, match="screw_shift"):
            path_to_dict(path, pitch=pitch)
        assert path_length(path_from_dict(path_to_dict(path, pitch=0.5))) == path_length(path)

    def test_pitch_of_a_path_without_screw_shift_refused(self):
        _, path = solve_concentric_geodesic(plane(), 1.0, 1.5, m=5, n=64)
        with pytest.raises(PreconditionError, match="screw_shift"):
            path_to_dict(path, pitch=0.5)

    def test_helix_pitch_round_trip(self):
        from curvespace import solve_helix_geodesic

        _, path = solve_helix_geodesic(1.0, 2.0, 0.5, m=5, n=64)
        data = path_to_dict(path, pitch=0.5)
        back = path_from_dict(data)
        assert np.array_equal(back.points, path.points)
        assert back.curves[0].screw_shift is not None
        assert np.array_equal(back.curves[0].omega, path.curves[0].omega)
