import numpy as np
import pytest

from curvespace import (
    DomainError,
    ImmersionError,
    PreconditionError,
    TangentField,
    build_curve,
    cov_d_T,
    curve_from_dict,
    curve_to_dict,
    d_theta,
    euclidean3d,
    hyperbolic,
    length,
    plane,
    sphere,
)


def circle_points(n, radius=1.0):
    t = 2 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1), t


def latitude_points(n, r):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack(
        [np.sin(r) * np.cos(t), np.sin(r) * np.sin(t), np.full(n, np.cos(r))], axis=1
    ), t


def ellipse_points(n, a=2.0, b=1.0):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([a * np.cos(t), b * np.sin(t)], axis=1), t


def ellipse_curvature(t, a=2.0, b=1.0):
    return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5


class TestBuildCurve:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts, _ = circle_points(64)
        pts[7, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            build_curve(plane(), pts, closed=True)

    def test_unit_circle_curvature(self):
        pts, _ = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(c.kappa - 1.0)) <= 1e-3
        assert np.all(c.omega > 0)

    def test_great_circle_is_geodesic(self):
        t = 2 * np.pi * np.arange(256) / 256
        pts = np.stack([np.cos(t), np.sin(t), np.zeros(256)], axis=1)
        c = build_curve(sphere(1.0), pts, closed=True)
        assert np.max(np.abs(c.kappa)) <= 1e-3

    def test_helix_frenet_data(self):
        t = np.linspace(0.0, 1.0, 512)
        pts = np.stack([np.cos(t), np.sin(t), t], axis=1)
        c = build_curve(euclidean3d(), pts, closed=False)
        assert np.max(np.abs(c.kappa - 0.5)) <= 1e-3
        assert np.max(np.abs(c.tau - 0.5)) <= 1e-3
        # right-handed orthonormal frame where defined
        assert bool(np.all(c.frame_ok))
        dots = np.abs(np.sum(c.T * c.N, axis=1))
        assert np.max(dots) <= 1e-8
        assert np.max(np.abs(np.linalg.norm(c.B, axis=1) - 1.0)) <= 1e-8

    def test_hyperbolic_circle_curvature(self):
        t = 2 * np.pi * np.arange(256) / 256
        pts = np.stack(
            [np.sinh(1.0) * np.cos(t), np.sinh(1.0) * np.sin(t), np.full(256, np.cosh(1.0))],
            axis=1,
        )
        c = build_curve(hyperbolic(-1.0), pts, closed=True)
        assert np.max(np.abs(c.kappa - np.cosh(1.0) / np.sinh(1.0))) <= 1e-3

    def test_counterclockwise_circle_normal_points_inward(self):
        pts, t = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        assert np.allclose(c.N, -pts, atol=1e-10)
        assert np.all(c.kappa > 0)

    def test_straight_segment_flags_frame(self):
        pts = np.stack([np.linspace(0, 3, 64), np.zeros(64), np.zeros(64)], axis=1)
        c = build_curve(euclidean3d(), pts, closed=False)
        assert not np.any(c.frame_ok)
        assert np.all(c.tau == 0.0)

    def test_kappa_floor_override(self):
        t = np.linspace(0.0, 1.0, 128)
        pts = np.stack([np.cos(t), np.sin(t), t], axis=1)  # kappa = 1/2
        strict = build_curve(euclidean3d(), pts, closed=False, kappa_floor=1.0)
        assert not np.any(strict.frame_ok)
        default = build_curve(euclidean3d(), pts, closed=False)
        assert np.all(default.frame_ok)

    def test_too_few_samples(self):
        with pytest.raises(PreconditionError):
            build_curve(plane(), np.zeros((5, 2)), closed=False)

    def test_coincident_samples(self):
        pts = np.zeros((16, 2))
        pts[:, 0] = np.arange(16.0)
        pts[3] = pts[2]
        with pytest.raises(ImmersionError):
            build_curve(plane(), pts, closed=False)

    def test_off_surface_rejected(self):
        pts, _ = circle_points(32, radius=2.0)
        pts3 = np.concatenate([pts, np.zeros((32, 1))], axis=1)
        with pytest.raises(DomainError):
            build_curve(sphere(1.0), pts3, closed=True)

    def test_refinement_convergence(self):
        # curvature/torsion errors drop by >= 3.5 per doubling of n
        errs_k = []
        for n in (128, 256):
            pts, t = ellipse_points(n)
            c = build_curve(plane(), pts, closed=True)
            errs_k.append(np.max(np.abs(c.kappa - ellipse_curvature(t))))
        assert errs_k[0] / errs_k[1] >= 3.5

        errs_tau = []
        for n in (256, 512):
            t = np.linspace(0.0, 2.0, n)
            pts = np.stack([np.cos(t), np.sin(t), 0.5 * t], axis=1)
            c = build_curve(euclidean3d(), pts, closed=False)
            errs_tau.append(np.max(np.abs(c.tau - 0.5 / 1.25)))
        assert errs_tau[0] / errs_tau[1] >= 3.5

    def test_arclength_resampling(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        warped = u + 0.4 * np.sin(u)
        pts = np.stack([np.cos(warped), np.sin(warped)], axis=1)
        raw = build_curve(plane(), pts, closed=True)
        assert np.max(raw.omega) / np.min(raw.omega) > 1.5
        res = build_curve(plane(), pts, closed=True, resample_arclength=True)
        assert np.max(res.omega) / np.min(res.omega) <= 1.0 + 1e-3


class TestDTheta:
    def test_constant_field(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(d_theta(c, np.ones(64)))) <= 1e-12

    def test_circle_curvature_constant(self):
        pts, _ = circle_points(128)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(d_theta(c, c.kappa))) <= 1e-10

    def test_analytic_derivative(self):
        pts, t = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(d_theta(c, np.sin(t)) - np.cos(t))) <= 4e-4

    def test_grid_mismatch(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        with pytest.raises(DomainError):
            d_theta(c, np.ones(65))


class TestCovDT:
    def test_tangent_derivative_is_curvature_normal(self):
        pts, _ = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(cov_d_T(c, c.T) - c.N)) <= 1e-3

    def test_parallel_field_on_segment(self):
        pts = np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=1)
        c = build_curve(plane(), pts, closed=False)
        field = np.tile([0.3, 0.7], (64, 1))
        assert np.max(np.abs(cov_d_T(c, field))) <= 1e-10

    def test_normal_derivative_closes_frenet(self):
        pts, _ = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(cov_d_T(c, c.N) + c.T)) <= 1e-3

    def test_metric_compatibility(self):
        # d_theta g(h,h) = 2 g(D_T h, h) up to discretization error
        n = 256
        pts, t = latitude_points(n, 0.8)
        c = build_curve(sphere(1.0), pts, closed=True)
        h = np.sin(t)[:, None] * c.T + np.cos(2 * t)[:, None] * c.N
        lhs = d_theta(c, np.asarray(c.space.inner(h, h)))
        rhs = 2.0 * np.asarray(c.space.inner(cov_d_T(c, h), h))
        assert np.max(np.abs(lhs - rhs)) <= 50.0 / n**2

    def test_unit_speed_frame(self):
        # g(D_T T, T) = 0 for 2D curves; exact on circles, resolved on an ellipse
        pts, _ = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(c.space.inner(cov_d_T(c, c.T), c.T))) <= 1e-12
        pts, _ = ellipse_points(2048)
        c = build_curve(plane(), pts, closed=True)
        assert np.max(np.abs(c.space.inner(cov_d_T(c, c.T), c.T))) <= 1e-8


class TestLength:
    def test_unit_circle(self):
        pts, _ = circle_points(256)
        c = build_curve(plane(), pts, closed=True)
        assert abs(length(c) - 2 * np.pi) <= 1e-6

    def test_sphere_circle(self):
        pts, _ = latitude_points(256, 0.9)
        c = build_curve(sphere(1.0), pts, closed=True)
        assert abs(length(c) - 2 * np.pi * np.sin(0.9)) <= 1e-5

    def test_open_segment(self):
        pts = np.stack([np.linspace(0, 3, 64), np.zeros(64)], axis=1)
        c = build_curve(plane(), pts, closed=False)
        assert abs(length(c) - 3.0) <= 1e-10


class TestTangentFieldType:
    def test_validates_tangency(self):
        pts, _ = latitude_points(64, 0.7)
        c = build_curve(sphere(1.0), pts, closed=True)
        TangentField.along(c, c.T)  # fine
        with pytest.raises(DomainError):
            TangentField.along(c, pts)  # radial field is not tangent

    def test_accepted_by_operations(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        tf = TangentField.along(c, c.T)
        assert np.array_equal(cov_d_T(c, tf), cov_d_T(c, c.T))


class TestCurveSerialization:
    def test_round_trip_points_bitwise(self):
        pts, _ = latitude_points(64, 1.1)
        c = build_curve(sphere(1.0), pts, closed=True)
        c2 = curve_from_dict(curve_to_dict(c))
        assert np.array_equal(c.points, c2.points)
        assert np.array_equal(c.kappa, c2.kappa)

    def test_cached_quantities_not_serialized(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        d = curve_to_dict(c)
        assert set(d) == {"space", "closed", "t_samples", "points"}

    def test_bad_record(self):
        with pytest.raises(DomainError):
            curve_from_dict({"closed": True, "points": [[0, 0]]})
