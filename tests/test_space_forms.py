import math

import numpy as np
import pytest

from curvespace import (
    DomainError,
    Model,
    SpaceForm,
    euclidean3d,
    exp_polar,
    hyperbolic,
    jacobi_residual,
    omega_profile,
    plane,
    polar_frame,
    space_from_dict,
    space_to_dict,
    sphere,
    standard_frame,
    surface_of_curvature,
)


def minkowski(u, v):
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


class TestSpaceFormValidation:
    def test_curvature_sign_must_match_model(self):
        with pytest.raises(DomainError):
            SpaceForm(Model.SPHERE2D, -1.0)
        with pytest.raises(DomainError):
            SpaceForm(Model.HYPERBOLIC2D, 0.5)
        with pytest.raises(DomainError):
            SpaceForm(Model.PLANE2D, 0.1)

    @pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
    def test_non_finite_curvature_rejected(self, K):
        with pytest.raises(DomainError):
            surface_of_curvature(K)
        for model in Model:
            with pytest.raises(DomainError):
                SpaceForm(model, K)

    def test_ambient_dims(self):
        assert plane().ambient_dim == 2
        assert sphere(2.0).ambient_dim == 3
        assert hyperbolic(-0.5).ambient_dim == 3
        assert euclidean3d().ambient_dim == 3


class TestOmegaProfile:
    def test_sphere_quarter_turn(self):
        om, om_r = omega_profile(sphere(1.0), math.pi / 2)
        assert om == pytest.approx(1.0, abs=1e-14)
        assert om_r == pytest.approx(0.0, abs=1e-14)

    def test_flat_profile_is_radius(self):
        om, om_r = omega_profile(plane(), 2.0)
        assert om == 2.0
        assert om_r == 1.0

    def test_hyperbolic_small_radius_limit(self):
        om, om_r = omega_profile(hyperbolic(-1.0), 1e-7)
        assert om == pytest.approx(1e-7, rel=1e-12)
        assert om_r == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            omega_profile(plane(), 0.0)
        with pytest.raises(DomainError):
            omega_profile(plane(), -1.0)
        with pytest.raises(DomainError):
            omega_profile(sphere(1.0), math.pi)

    def test_continuity_in_curvature_at_zero(self):
        # |omega(K, r) - r| <= 1e-6 r^3 for |K| <= 1e-6 on (0, 3]
        r = np.linspace(1e-3, 3.0, 400)
        for K in (1e-6, -1e-6, 1e-9, -1e-9):
            space = sphere(K) if K > 0 else hyperbolic(K)
            om, _ = omega_profile(space, r)
            assert np.all(np.abs(om - r) <= 1e-6 * r**3 + 1e-15)

    def test_closed_form_near_small_curvature_radius(self):
        # within roundoff of the exact value on both sides of |K| r^2 = 1e-8
        for K in (1e-4, -1e-4):
            space = sphere(K) if K > 0 else hyperbolic(K)
            r = np.array([0.9e-2, 1.1e-2])
            om, om_r = omega_profile(space, r)
            exact = np.sin(np.sqrt(abs(K)) * r) / np.sqrt(abs(K)) if K > 0 else \
                np.sinh(np.sqrt(-K) * r) / np.sqrt(-K)
            assert np.allclose(om, exact, rtol=1e-12)


class TestJacobiResidual:
    @pytest.mark.parametrize("space,r", [
        (sphere(1.0), 0.7),
        (hyperbolic(-1.0), 1.3),
    ])
    def test_pointwise(self, space, r):
        assert abs(jacobi_residual(space, r)) <= 1e-12

    def test_flat_exact(self):
        assert jacobi_residual(plane(), 1.7) == 0.0

    def test_grid_uniform(self):
        for space, r_hi in ((sphere(1.0), math.pi - 1e-3), (plane(), 3.0), (hyperbolic(-1.0), 3.0)):
            r = np.linspace(1e-3, r_hi, 1000)
            assert np.max(np.abs(jacobi_residual(space, r))) <= 1e-10

    def test_general_curvature_magnitudes(self):
        for K in (2.3, 0.04):
            r = np.linspace(1e-3, math.pi / math.sqrt(K) - 1e-3, 500)
            assert np.max(np.abs(jacobi_residual(sphere(K), r))) <= 1e-10
        for K in (-2.3, -0.04):
            r = np.linspace(1e-3, 2.0, 500)
            assert np.max(np.abs(jacobi_residual(hyperbolic(K), r))) <= 1e-10


class TestExpPolar:
    def test_plane_translation(self):
        fr = standard_frame(plane())
        p = exp_polar(plane(), fr, 1.0, 0.0)
        assert np.allclose(p, [1.0, 0.0], atol=1e-15)

    def test_sphere_equator(self):
        sp = sphere(1.0)
        fr = standard_frame(sp)
        for t in (0.0, 1.1, 4.0):
            p = exp_polar(sp, fr, math.pi / 2, t)
            assert abs(p[2]) <= 1e-15
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-15

    def test_hyperboloid_point_stays_on_model(self):
        hy = hyperbolic(-1.0)
        fr = standard_frame(hy)
        p = exp_polar(hy, fr, 0.5, math.pi / 2)
        assert abs(minkowski(p, p) + 1.0) <= 1e-12

    def test_radius_scales_both_frame_legs(self):
        # the polar circle must sit at geodesic distance r for every t
        sp = sphere(1.0)
        fr = standard_frame(sp)
        r = 0.8
        for t in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            p = exp_polar(sp, fr, r, t)
            dist = math.acos(np.clip(np.dot(p, fr.center), -1, 1))
            assert dist == pytest.approx(r, abs=1e-12)

    def test_vectorized_over_t(self):
        sp = sphere(1.0)
        fr = standard_frame(sp)
        t = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        pts = exp_polar(sp, fr, 0.3, t)
        assert pts.shape == (16, 3)

    def test_array_of_radii_matches_per_radius_calls(self):
        t = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        for space, radii in (
            (plane(), np.linspace(0.4, 1.6, 7)),
            (sphere(1.0), np.linspace(0.3, 1.2, 7)),
            (hyperbolic(-1.0), np.linspace(0.5, 1.5, 7)),
        ):
            fr = standard_frame(space)
            pts = exp_polar(space, fr, radii, t)
            assert pts.shape == (7, 32, space.ambient_dim)
            assert np.array_equal(pts, np.stack([exp_polar(space, fr, r, t) for r in radii]))

    def test_array_of_radii_checks_every_radius(self):
        sp = sphere(1.0)
        with pytest.raises(DomainError):
            exp_polar(sp, standard_frame(sp), np.array([0.5, math.pi]), 0.0)

    def test_output_stays_on_the_model(self):
        t = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        for space, radii in (
            (sphere(2.3), np.linspace(0.1, math.pi / math.sqrt(2.3) - 0.05, 20)),
            (hyperbolic(-2.3), np.linspace(0.1, 2.0, 20)),
            (hyperbolic(-0.04), np.linspace(0.1, 2.0, 20)),
        ):
            fr = standard_frame(space)
            for r in radii:
                pts = exp_polar(space, fr, r, t)
                assert float(np.max(space.surface_distance(pts))) <= 1e-9


class TestSurfaceMembership:
    def test_far_hyperboloid_point_resolved(self):
        # at |p| ~ 1e4 rounding in z^2 - x^2 - y^2 is ~1e-8; a true point must
        # pass and one moved 1e-6 along the Euclidean surface normal must not
        space = hyperbolic(-1.0)
        p = exp_polar(space, standard_frame(space), 10.0, 0.3)
        assert 5e3 < np.linalg.norm(p) < 5e4
        space.check_on_surface(p)
        moved = p + 1e-6 * np.array([-p[0], -p[1], p[2]]) / np.linalg.norm(p)
        assert space.surface_distance(moved) == pytest.approx(1e-6, rel=0.05)
        with pytest.raises(DomainError):
            space.check_on_surface(moved)


class TestInner:
    @pytest.mark.parametrize("shape", [(3,), (256, 3), (13, 96, 3), (64, 256, 3), (64, 256, 2)])
    def test_component_sum_rounds_like_np_sum(self, shape):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=shape), rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, shape)
        space = plane() if shape[-1] == 2 else euclidean3d()
        assert np.array_equal(space.inner(u, v), np.sum(u * v, axis=-1))


class TestTangentDistance:
    @pytest.mark.parametrize("space", [sphere(1.0), hyperbolic(-1.0)], ids=["sphere", "hyperboloid"])
    def test_euclidean_distance_from_the_tangent_plane(self, space):
        p = exp_polar(space, standard_frame(space), 1.1, 0.4)
        normal = p * np.array([1.0, 1.0, -1.0]) if space.lorentzian else p.copy()
        normal /= np.linalg.norm(normal)
        tangent = space.tangent_project(p, np.array([0.3, -0.2, 0.5]))
        for d in (0.0, 1e-6, 0.25):
            assert space.tangent_distance(p, tangent + d * normal) == pytest.approx(d, abs=1e-15)

    def test_rounding_stays_near_eps_far_out(self):
        # radial unit vector at r = 10 (|p| ~ 1.6e4, |v| ~ 1.6e4): exactly tangent
        space, r, t = hyperbolic(-1.0), 10.0, 0.3
        p = exp_polar(space, standard_frame(space), r, t)
        v = np.array([math.cosh(r) * math.cos(t), math.cosh(r) * math.sin(t), math.sinh(r)])
        assert float(space.tangent_distance(p, v)) <= 8 * np.finfo(float).eps * np.linalg.norm(v)

    def test_zero_on_flat_models(self):
        assert np.array_equal(plane().tangent_distance(np.zeros((4, 2)), np.ones((4, 2))), np.zeros(4))
        assert euclidean3d().tangent_distance(np.zeros(3), np.ones(3)) == 0.0


class TestTangentCoordinates:
    @pytest.mark.parametrize("space", [plane(), sphere(2.0), euclidean3d()], ids=str)
    def test_ambient_components_off_the_hyperboloid(self, space):
        v = np.arange(2.0 * space.ambient_dim).reshape(2, space.ambient_dim)
        assert np.array_equal(space.tangent_coordinates(np.zeros_like(v), v), v)

    @pytest.mark.parametrize("K", [-1.0, -0.25, -4.0])
    @pytest.mark.parametrize("r", [0.0, 0.8, 6.0])
    def test_sum_of_squares_is_the_minkowski_norm(self, K, r):
        space = hyperbolic(K)
        p = exp_polar(space, standard_frame(space), r, 0.9) if r else standard_frame(space).center
        rng = np.random.default_rng(5)
        v = space.tangent_project(p, rng.normal(size=(4, 3)))
        coords = space.tangent_coordinates(p, v)
        assert coords.shape == (4, 2)
        norm2 = space.inner(v, v)
        scale = np.sum(v * v, axis=-1)  # Euclidean: the rounding scale of <v, v>
        assert np.all(np.abs(np.sum(coords * coords, axis=-1) - norm2) <= 1e-14 * scale)


class TestTangentProject:
    def test_flat_identity(self):
        sp = plane()
        v = np.array([0.3, -2.0])
        assert np.array_equal(sp.tangent_project([5.0, 1.0], v), v)

    def test_sphere_radial_killed(self):
        sp = sphere(1.0)
        p = np.array([0.0, 0.0, 1.0])
        assert np.max(np.abs(sp.tangent_project(p, p))) <= 1e-12

    def test_sphere_example(self):
        sp = sphere(1.0)
        out = sp.tangent_project(np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.4, 0.0]))
        assert np.allclose(out, [0.0, 0.4, 0.0], atol=1e-15)

    @pytest.mark.parametrize("space,point", [
        (sphere(1.0), np.array([0.6, 0.0, 0.8])),
        (hyperbolic(-1.0), np.array([np.sinh(0.9), 0.0, np.cosh(0.9)])),
    ])
    def test_linear_and_idempotent(self, space, point):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            a, b = rng.normal(size=2)
            lin = space.tangent_project(point, a * u + b * v)
            sep = a * space.tangent_project(point, u) + b * space.tangent_project(point, v)
            assert np.max(np.abs(lin - sep)) <= 1e-12
            once = space.tangent_project(point, u)
            assert np.max(np.abs(space.tangent_project(point, once) - once)) <= 1e-12
            # result is tangent: orthogonal to the position in the right metric
            assert abs(space.inner(once, point)) <= 1e-12 * (1 + np.max(np.abs(once)))

    def test_off_surface_point_rejected(self):
        with pytest.raises(DomainError):
            sphere(1.0).tangent_project(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestPolarFrame:
    def test_standard_frames_valid(self):
        for space in (plane(), sphere(2.0), hyperbolic(-0.7), euclidean3d()):
            fr = standard_frame(space)
            assert abs(float(space.inner(fr.e1, fr.e2))) <= 1e-12

    def test_orthonormality_enforced(self):
        sp = sphere(1.0)
        c = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            polar_frame(sp, c, [1.1, 0.0, 0.0], [0.0, 1.0, 0.0])
        with pytest.raises(DomainError):
            polar_frame(sp, c, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_non_tangent_rejected(self):
        sp = sphere(1.0)
        with pytest.raises(DomainError):
            polar_frame(sp, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        # the hyperboloid's normal is timelike: a 1e-6 normal part must still show
        c = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DomainError, match="not tangent"):
            polar_frame(hyperbolic(-1.0), c, np.array([1.0, 0.0, 0.0]) + 1e-6 * c, [0.0, 1.0, 0.0])

    def test_exact_far_hyperboloid_frame_accepted(self):
        # at r = 8, |p| ~ 2.1e3: the rounding of <e1, p> is no normal part
        ch, sh = math.cosh(8.0), math.sinh(8.0)
        polar_frame(hyperbolic(-1.0), [sh, 0.0, ch], [ch, 0.0, sh], [0.0, 1.0, 0.0])

    @staticmethod
    def _hyperbolic_polar(r, phi):
        ch, sh, c, s = math.cosh(r), math.sinh(r), math.cos(phi), math.sin(phi)
        return [sh * c, sh * s, ch], [ch * c, ch * s, sh], [-s, c, 0.0]

    @pytest.mark.parametrize("r", [5.0, 8.0])
    def test_exact_far_hyperboloid_frames_accepted_at_every_angle(self, r):
        # <e1, e1> = cosh^2 r - sinh^2 r rounds at about eps cosh^2 r there
        for phi in np.linspace(0.0, 2.0 * math.pi, 13):
            polar_frame(hyperbolic(-1.0), *self._hyperbolic_polar(r, phi))

    @pytest.mark.parametrize("defect", ["norm", "angle"])
    def test_small_defect_refused_near_the_pole(self, defect):
        center, e1, e2 = (np.array(v) for v in self._hyperbolic_polar(1.0, 0.7))
        if defect == "norm":
            e1 = (1.0 + 1e-8) * e1
        else:
            e2 = e2 + 1e-8 * e1
        with pytest.raises(DomainError, match="orthonormal"):
            polar_frame(hyperbolic(-1.0), center, e1, e2)


class TestSerialization:
    def test_round_trip(self):
        for space in (plane(), sphere(0.5), hyperbolic(-2.0), euclidean3d()):
            assert space_from_dict(space_to_dict(space)) == space

    def test_json_field_names(self):
        d = space_to_dict(sphere(1.0))
        assert d == {"model": "sphere2d", "curvature": 1.0}

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            space_from_dict({"model": "klein", "curvature": 1.0})
        with pytest.raises(DomainError):
            space_from_dict({"curvature": 1.0})

    @pytest.mark.parametrize("curvature", ["1", True, 10**400])
    def test_curvature_must_be_a_json_number(self, curvature):
        # once loaded as float() of itself, or escaped as an OverflowError
        with pytest.raises(DomainError, match="curvature"):
            space_from_dict({"model": "sphere2d", "curvature": curvature})
