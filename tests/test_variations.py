import numpy as np
import pytest

from curvespace import (
    DomainError,
    PreconditionError,
    build_curve,
    curvature_conservation_residual,
    euclidean3d,
    fd_variation,
    hyperbolic,
    make_path,
    parallel_geodesic_alpha,
    plane,
    predicted_kappa_variation,
    predicted_omega_variation,
    shortening_flow_field,
    solve_concentric_geodesic,
    sphere,
    variation_report,
)
from curvespace.sobolev_metric import path_from_curves
from curvespace.variations import normal_omega_discrepancy


def concentric_path(r_of_s, m, n=256, space=None):
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)
    r = r_of_s(s)
    if space is None:
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        pts = r[:, None, None] * ring[None]
        return make_path(plane(), pts, closed=True)
    pts = np.stack(
        [
            np.outer(np.sin(r), np.cos(t)),
            np.outer(np.sin(r), np.sin(t)),
            np.repeat(np.cos(r)[:, None], n, axis=1),
        ],
        axis=2,
    )
    return make_path(space, pts, closed=True)


def constant_path(n=128, m=5):
    t = 2 * np.pi * np.arange(n) / n
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    c = build_curve(plane(), ring, closed=True)
    return path_from_curves([c] * m)


class TestOmegaVariation:
    def test_concentric_unit_rate(self):
        # r(s) = 1 + s at r = 1: omega' = 1 per sample
        path = concentric_path(lambda s: 1.0 + s, m=9)
        pred = predicted_omega_variation(path)[0]
        assert np.max(np.abs(pred - 1.0)) <= 1e-3

    def test_constant_path(self):
        path = constant_path()
        assert np.max(np.abs(predicted_omega_variation(path)[2])) <= 1e-12

    def test_normal_form_agrees(self):
        path = concentric_path(lambda s: 1.0 + 0.5 * s, m=9)
        assert normal_omega_discrepancy(path)[4] <= 1e-6

    def test_tangential_reparametrization_flow(self):
        # velocity a(t) c_dot on a fixed circle: omega' = a_t omega
        n, m = 256, 9
        t = 2 * np.pi * np.arange(n) / n
        a = 0.05 * np.sin(t)
        s = np.linspace(0, 1, m)
        pts = np.stack(
            [np.stack([np.cos(t + (sj - 0.5) * a), np.sin(t + (sj - 0.5) * a)], axis=1) for sj in s]
        )
        path = make_path(plane(), pts, closed=True)
        j = m // 2
        pred = predicted_omega_variation(path)[j]
        obs = fd_variation(path, "omega")[j - 1]
        assert np.max(np.abs(pred - obs)) <= 1e-4
        assert np.max(np.abs(pred - 0.05 * np.cos(t))) <= 1e-3


class TestKappaVariation:
    def test_concentric_rate(self):
        # kappa(s) = 1/r: kappa' = -r'/r^2 = -1 at r = 1
        path = concentric_path(lambda s: 1.0 + s, m=9)
        pred = predicted_kappa_variation(path)[0]
        assert np.max(np.abs(pred + 1.0)) <= 1e-3

    def test_constant_path(self):
        path = constant_path()
        assert np.max(np.abs(predicted_kappa_variation(path)[2])) <= 1e-12

    def test_sphere_latitude_rate(self):
        # kappa = cot r: kappa' = -(1 + cot^2 r) for r' = 1
        path = concentric_path(lambda s: 0.5 + s * 0.7, m=65, space=sphere(1.0))
        j = 32
        r_mid = 0.5 + 0.5 * 0.7
        pred = predicted_kappa_variation(path)[j]
        expected = -0.7 * (1.0 + 1.0 / np.tan(r_mid) ** 2)
        assert np.max(np.abs(pred - expected)) <= 1e-3


class TestFDOracle:
    def test_constant_path(self):
        path = constant_path()
        assert np.max(np.abs(fd_variation(path, "omega")[1])) <= 1e-12

    def test_concentric_rates(self):
        path = concentric_path(lambda s: 1.0 + s, m=17)
        assert np.max(np.abs(fd_variation(path, "omega")[7] - 1.0)) <= 1e-3
        assert np.max(np.abs(fd_variation(path, "kappa")[7] + 1.0 / 1.5**2)) <= 1e-2

    def test_boundary_rejected(self):
        # rows k .. m-1-k: none is left once 2k >= m
        path = constant_path(m=5)
        assert fd_variation(path, "omega", eps_steps=2).shape == (1, path.n)
        for k in (0, 3):
            with pytest.raises(PreconditionError):
                fd_variation(path, "omega", eps_steps=k)
        with pytest.raises(PreconditionError):
            variation_report(path, "kappa", eps_steps=3)

    def test_unknown_quantity(self):
        path = constant_path(m=5)
        with pytest.raises(DomainError):
            fd_variation(path, "torsion")

    def test_report_bundles_both_sides(self):
        path = concentric_path(lambda s: 1.0 + s + 0.1 * np.sin(np.pi * s), m=17)
        rep = variation_report(path, "kappa")
        assert rep.predicted.shape == rep.observed.shape
        assert np.array_equal(rep.abs_error, np.max(np.abs(rep.predicted - rep.observed), axis=-1))


class TestCurvatureConservation:
    def test_unit_circle_residual(self):
        t = 2 * np.pi * np.arange(256) / 256
        c = build_curve(plane(), np.stack([np.cos(t), np.sin(t)], axis=1), closed=True)
        res = curvature_conservation_residual(c)
        assert np.max(np.abs(res + 4.0)) <= 1e-6

    def test_straight_line(self):
        pts = np.stack([np.linspace(0, 2, 64), np.zeros(64)], axis=1)
        c = build_curve(plane(), pts, closed=False)
        assert np.max(np.abs(curvature_conservation_residual(c))) <= 1e-8

    def test_horocycle_case(self):
        # kappa = 1 on K = -1: kappa^2 = -K makes the residual vanish
        t = np.linspace(-1.5, 1.5, 512)
        pts = np.stack([t, t**2 / 2, t**2 / 2 + 1.0], axis=1)
        c = build_curve(hyperbolic(-1.0), pts, closed=False)
        assert np.max(np.abs(c.kappa - 1.0)) <= 1e-5
        assert np.max(np.abs(curvature_conservation_residual(c))) <= 1e-4

    def test_explicit_curvature_argument(self):
        t = 2 * np.pi * np.arange(128) / 128
        c = build_curve(plane(), np.stack([np.cos(t), np.sin(t)], axis=1), closed=True)
        res = curvature_conservation_residual(c, K=-1.0)
        assert np.max(np.abs(res)) <= 1e-6  # kappa^2 = 1 = -K

    def test_3d_rejected(self):
        t = np.linspace(0, 1, 64)
        c = build_curve(euclidean3d(), np.stack([np.cos(t), np.sin(t), t], axis=1), closed=False)
        with pytest.raises(DomainError):
            curvature_conservation_residual(c)


class TestParallelGeodesicAlpha:
    def test_solved_geodesic_constant(self):
        traj, path = solve_concentric_geodesic(plane(), 1.0, 2.0, m=33, n=256)
        alpha = parallel_geodesic_alpha(path)
        spread = (alpha.max() - alpha.min()) / alpha.mean()
        assert spread <= 1e-2
        # alpha = E = nu^2 / (2 pi)
        assert alpha.mean() == pytest.approx(traj.conserved, rel=1e-2)
        assert alpha.mean() == pytest.approx(traj.distance**2 / (2 * np.pi), rel=1e-2)

    def test_linear_radius_not_geodesic(self):
        path = concentric_path(lambda s: 1.0 + s, m=33)
        alpha = parallel_geodesic_alpha(path)
        spread = (alpha.max() - alpha.min()) / alpha.mean()
        assert spread > 0.05

    def test_constant_path_degenerate(self):
        path = constant_path()
        with pytest.raises(PreconditionError):
            parallel_geodesic_alpha(path)

    def test_varying_curvature_rejected(self):
        # ellipse offsets: normal family, but kappa_theta != 0
        n, m = 256, 9
        t = 2 * np.pi * np.arange(n) / n
        ellipse = np.stack([2 * np.cos(t), np.sin(t)], axis=1)
        base = build_curve(plane(), ellipse, closed=True)
        s = np.linspace(0, 1, m)
        pts = np.stack([ellipse + (sj - 0.5) * 0.05 * base.N for sj in s])
        path = make_path(plane(), pts, closed=True)
        with pytest.raises(PreconditionError):
            parallel_geodesic_alpha(path)


class TestShorteningFlow:
    def test_unit_circle_field(self):
        t = 2 * np.pi * np.arange(256) / 256
        ring = np.stack([np.cos(t), np.sin(t)], axis=1)
        c = build_curve(plane(), ring, closed=True)
        field = shortening_flow_field(c)
        assert np.max(np.abs(field + ring)) <= 1e-3  # kappa N = -(cos, sin)

    def test_straight_segment_zero(self):
        pts = np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=1)
        c = build_curve(plane(), pts, closed=False)
        assert np.max(np.abs(shortening_flow_field(c))) <= 1e-10

    def test_ellipse_magnitude(self):
        n = 512
        t = 2 * np.pi * np.arange(n) / n
        pts = np.stack([2 * np.cos(t), np.sin(t)], axis=1)
        c = build_curve(plane(), pts, closed=True)
        field = shortening_flow_field(c)
        kappa_exact = 2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5
        assert np.max(np.abs(np.linalg.norm(field, axis=1) - kappa_exact)) <= 1e-3
        assert kappa_exact[0] == pytest.approx(2.0)

    def test_3d_rejected(self):
        t = np.linspace(0, 1, 64)
        c = build_curve(euclidean3d(), np.stack([np.cos(t), np.sin(t), t], axis=1), closed=False)
        with pytest.raises(DomainError):
            shortening_flow_field(c)

    def test_stack_matches_rows(self):
        t = 2 * np.pi * np.arange(128) / 128
        rows = np.stack([np.stack([a * np.cos(t), np.sin(t)], axis=1) for a in (1.0, 2.0, 3.0)])
        stack = build_curve(plane(), rows, closed=True)
        field = shortening_flow_field(stack)
        assert field.shape == rows.shape
        for j in range(3):
            assert np.array_equal(field[j], shortening_flow_field(stack.row(j)))

    def test_flow_horizontality_iff_constant_curvature(self):
        # circle: kappa_theta = 0 and the flow path is horizontal;
        # ellipse: neither holds
        from curvespace import d_theta, horizontality_defect

        n, m = 256, 5
        t = 2 * np.pi * np.arange(n) / n
        s = np.linspace(0, 1, m)
        for pts_base, horizontal in (
            (np.stack([np.cos(t), np.sin(t)], axis=1), True),
            (np.stack([2 * np.cos(t), np.sin(t)], axis=1), False),
        ):
            base = build_curve(plane(), pts_base, closed=True)
            flow = shortening_flow_field(base)
            pts = np.stack([pts_base + (sj - 0.5) * 0.05 * flow for sj in s])
            path = make_path(plane(), pts, closed=True)
            defect = np.max(np.abs(horizontality_defect(path)[m // 2]))
            kappa_theta = np.max(np.abs(d_theta(base, base.kappa)))
            if horizontal:
                assert defect <= 1e-6 and kappa_theta <= 1e-6
            else:
                assert defect > 1e-2 and kappa_theta > 1e-2
