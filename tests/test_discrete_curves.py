import numpy as np
import pytest

import curvespace.discrete_curves as discrete_curves
from curvespace import (
    CurveSpaceError,
    DomainError,
    ElasticaParams,
    ElasticaPathSpec,
    ImmersionError,
    Model,
    NumericFailure,
    PreconditionError,
    TangentField,
    build_curve,
    cov_d_T,
    curve_from_dict,
    curve_to_dict,
    d_theta,
    euclidean3d,
    exp_polar,
    hyperbolic,
    length,
    make_path,
    path_from_curves,
    path_length,
    plane,
    solve_concentric_geodesic,
    sphere,
    standard_frame,
    surface_of_curvature,
)
from curvespace._fd import diff1
from curvespace.cli import _render_svg
from curvespace.discrete_curves import KAPPA_FLOOR, MIN_SAMPLES, DiscreteCurve
from curvespace.elastica import (
    _end_frame,
    _interior_seed,
    default_flat_frame,
    elastica_path_energy,
    materialize_path,
)
from curvespace.sobolev_metric import MIN_PATH_SAMPLES, CurvePath


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

    def test_keeps_a_read_only_copy_of_the_points(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        assert not np.shares_memory(c.points, pts) and pts.flags.writeable
        with pytest.raises(ValueError):
            c.points[0, 0] = 0.0

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


def _circle_record(n):
    return curve_to_dict(build_curve(plane(), circle_points(n)[0], closed=True))


DOCUMENTED_REFUSALS = {
    "wrong dimension": (DomainError, lambda: build_curve(sphere(1.0), circle_points(64)[0], closed=True)),
    "closed with a screw_shift": (DomainError, lambda: build_curve(
        plane(), circle_points(64)[0], closed=True, screw_shift=[0.0, 1.0])),
    "t_samples disagrees": (DomainError, lambda: curve_from_dict({**_circle_record(64), "t_samples": 63})),
    # a screw shift translates the flat ambient space by one vector of its dimension
    "a 3-vector screw_shift in the plane": (DomainError, lambda: build_curve(
        plane(), circle_points(64)[0], closed=False, screw_shift=[0.0, 0.0, 1.0])),
    "a screw_shift on the sphere": (DomainError, lambda: build_curve(
        sphere(1.0), latitude_points(64, 0.5)[0], closed=False, screw_shift=[0.0, 0.0, 1.0])),
    "a field of the wrong shape": (DomainError, lambda: TangentField.along(
        build_curve(plane(), circle_points(64)[0], closed=True), np.ones((63, 2)))),
    "cov_d_T of a scalar field": (DomainError, lambda: cov_d_T(
        build_curve(plane(), circle_points(64)[0], closed=True), np.ones(64))),
    "diff1 of order 3": (PreconditionError, lambda: diff1(np.arange(8.0), 0.1, False, order=3)),
    "diff1 on 4 samples at order 4": (PreconditionError, lambda: diff1(np.arange(4.0), 0.1, False, order=4)),
    "diff1 periodic at order 2": (PreconditionError, lambda: diff1(np.arange(8.0), 0.1, True, order=2)),
}


@pytest.mark.parametrize("case", DOCUMENTED_REFUSALS)
def test_documented_refusal(case):
    error, call = DOCUMENTED_REFUSALS[case]
    with pytest.raises(CurveSpaceError) as info:
        call()
    assert type(info.value) is error


def _unit_circle(K, n):
    space = surface_of_curvature(K)
    t = 2 * np.pi * np.arange(n) / n
    return space, exp_polar(space, standard_frame(space), np.array([1.0]), t)[0]


class TestNearFlatSurfaces:
    """Samples about |K|^(-1/2) from the embedding's origin round by about eps |K|^(-1/2)."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n, accepted, refused", [(64, 1e-17, 3e-18), (256, 2e-16, 5e-17)])
    def test_unit_circle_floor(self, sign, n, accepted, refused):
        # smallest accepted |K|: about 5.8e-18 at n = 64 and 9.3e-17 at n = 256
        build_curve(*_unit_circle(sign * accepted, n), closed=True)
        with pytest.raises(NumericFailure, match="rounding"):
            build_curve(*_unit_circle(sign * refused, n), closed=True)

    def test_the_rule_reads_each_chord_at_its_own_scale(self):
        # a stack of radii 1 and 1e100: every chord is long for its own ends
        pts, _ = circle_points(64)
        stack = build_curve(plane(), np.stack([pts, 1e100 * pts]), closed=True)
        assert np.array_equal(stack.row(0).omega, build_curve(plane(), pts, closed=True).omega)
        line = np.stack([np.arange(64.0), np.full(64, 1e6)], axis=1)
        build_curve(plane(), line, closed=False)
        with pytest.raises(NumericFailure):
            build_curve(plane(), line * [1e-6, 1.0], closed=False)

    @pytest.mark.parametrize("K", [1e-8, -1e-8])
    def test_slightly_curved_paths_are_accurate(self, K):
        traj, path = solve_concentric_geodesic(surface_of_curvature(K), 0.5, 1.0, m=16, n=64)
        assert path_length(path) == pytest.approx(traj.distance, rel=2e-4)


class TestDerivedGrids:
    def test_dt_t_grid_and_ds_match_the_stored_grids_bitwise(self):
        # the grids build_curve and make_path used to store, as the oracle
        def curve(points, closed, screw_shift=None):
            space = plane() if points.shape[-1] == 2 else euclidean3d()
            return DiscreteCurve(space, closed, points, None, None, screw_shift=screw_shift)

        for n in range(MIN_SAMPLES, 4097):
            points = np.broadcast_to(0.0, (n, 2))
            periodic = 2.0 * np.pi * np.arange(n) / n
            cases = [
                (curve(points, True), periodic),
                (curve(np.broadcast_to(0.0, (n, 3)), False, np.zeros(3)), periodic),
                (curve(points, False), np.linspace(0.0, 1.0, n)),
            ]
            for c, stored in cases:
                assert np.array_equal(c.t_grid, stored) and c.dt == stored[1] - stored[0]
        for m in range(MIN_PATH_SAMPLES, 4097):
            stored = np.linspace(0.0, 1.0, m)
            path = CurvePath(curve(np.broadcast_to(0.0, (m, 8, 2)), True))
            assert path.ds == stored[1] - stored[0]


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

    @pytest.mark.parametrize("space", [sphere(1.0), hyperbolic(-1.0)], ids=["sphere", "hyperboloid"])
    def test_normal_part_of_an_ambient_field_is_dropped(self, space):
        # D_T of u + c p is D_T u, for any c(t): only the tangent part counts
        n = 256
        t = 2 * np.pi * np.arange(n) / n
        pts = exp_polar(space, standard_frame(space), 0.8, t)
        c = build_curve(space, pts, closed=True)
        u = np.sin(t)[:, None] * c.T + np.cos(2 * t)[:, None] * c.N
        v = u + (0.3 + 0.2 * np.cos(3 * t))[:, None] * pts
        assert np.max(np.abs(cov_d_T(c, v) - cov_d_T(c, u))) <= 1e-5

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

    @pytest.mark.parametrize("rho", [1.5, 9.0])
    def test_validates_tangency_on_the_hyperboloid(self, rho):
        # a polar circle, |p| up to 1.1e4; the hyperboloid's normal is timelike
        t = 2 * np.pi * np.arange(64) / 64
        pts = np.stack(
            [np.sinh(rho) * np.cos(t), np.sinh(rho) * np.sin(t), np.full(64, np.cosh(rho))], axis=1
        )
        c = build_curve(hyperbolic(-1.0), pts, closed=True)
        TangentField.along(c, c.T)
        with pytest.raises(DomainError, match="not tangent"):
            TangentField.along(c, c.T + 1e-3 * pts)

    def test_accepted_by_operations(self):
        pts, _ = circle_points(64)
        c = build_curve(plane(), pts, closed=True)
        tf = TangentField.along(c, c.T)
        assert np.array_equal(cov_d_T(c, tf), cov_d_T(c, c.T))


def _plane_stack(m=5, n=96):
    t = 2 * np.pi * np.arange(n) / n
    a = np.linspace(1.0, 2.0, m)[:, None]
    y = np.broadcast_to(np.sin(t) + 0.1 * np.sin(3 * t), (m, n))
    return np.stack([a * np.cos(t) + 0.2 * np.cos(2 * t), y], axis=2)


def _sphere_stack(m=5, n=96):
    t = 2 * np.pi * np.arange(n) / n
    r = np.linspace(0.4, 1.2, m)[:, None] + 0.1 * np.sin(2 * t)
    return np.stack([np.sin(r) * np.cos(t), np.sin(r) * np.sin(t), np.cos(r)], axis=2)


def _hyperboloid_stack(m=5, n=96):
    t = np.linspace(0.0, 2.0, n)
    r = np.linspace(0.5, 1.5, m)[:, None] + 0.2 * t**2
    return np.stack([np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t), np.cosh(r)], axis=2)


def _helix_stack(m=5, n=96, h=0.4):
    t = 2 * np.pi * np.arange(n) / n
    r = np.linspace(0.8, 1.6, m)[:, None] * (1.0 + 0.1 * np.cos(3 * t))
    return np.stack([r * np.cos(t), r * np.sin(t), np.broadcast_to(h * t, r.shape)], axis=2), t


def _torsional_elastica_spec():
    start = ElasticaParams(k=1.0, lam=0.6, mu=0.1, K=0.0, L=2 * np.pi, frame=default_flat_frame(1.0))
    end = ElasticaParams(k=0.8, lam=0.3, mu=0.05, K=0.0, L=2 * np.pi / 0.8, frame=_end_frame(start, 0.8))
    return ElasticaPathSpec(
        start=start, end=end, control_points=_interior_seed(start, end, 2), m=7, n=96
    )


def _torsional_elastica_stack():
    return materialize_path(_torsional_elastica_spec()).points


def _straight_and_helix_stack(n=96, h=0.5):
    """Open rows r (cos t, sin t) + h t e_z; the r = 0 rows are straight, so have no frame."""
    t = np.linspace(0.0, 2.0, n)
    r = np.array([0.0, 0.8, 0.0, 1.2, 0.0])[:, None]
    return np.stack([r * np.cos(t), r * np.sin(t), np.broadcast_to(h * t, (len(r), n))], axis=2)


def _batch_cases():
    helix, _ = _helix_stack()
    return {
        "plane": (plane(), _plane_stack(), dict(closed=True)),
        "sphere": (sphere(1.0), _sphere_stack(), dict(closed=True)),
        "hyperboloid": (hyperbolic(-1.0), _hyperboloid_stack(), dict(closed=False)),
        "helix": (
            euclidean3d(), helix,
            dict(closed=False, screw_shift=np.array([0.0, 0.0, 2 * np.pi * 0.4])),
        ),
        "torsional_elastica": (euclidean3d(), _torsional_elastica_stack(), dict(closed=False)),
        "straight_and_helix": (euclidean3d(), _straight_and_helix_stack(), dict(closed=False)),
    }


class TestBatchedBuild:
    """One build over an (m, n, dim) stack against m per-row builds."""

    FIELDS = ("points", "omega", "T", "N", "kappa", "B", "tau")

    @pytest.mark.parametrize(
        "case", ["plane", "sphere", "hyperboloid", "helix", "torsional_elastica"]
    )
    def test_matches_per_row_builds(self, case):
        space, pts, kwargs = _batch_cases()[case]
        batch = build_curve(space, pts, **kwargs)
        assert batch.n == pts.shape[1] and batch.dim == pts.shape[2]
        for j in range(len(pts)):
            ref = build_curve(space, pts[j], **kwargs)
            row = batch.row(j)
            for name in self.FIELDS:
                got, want = getattr(row, name), getattr(ref, name)
                if want is None:
                    assert got is None
                    continue
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (case, j, name)
            if ref.frame_ok is not None:
                assert np.array_equal(row.frame_ok, ref.frame_ok)
            assert length(row) == pytest.approx(length(ref), rel=1e-12)

    def test_checks_apply_to_every_row(self):
        pts = _plane_stack()
        pts[3, 5] = pts[3, 4]
        with pytest.raises(ImmersionError):
            build_curve(plane(), pts, closed=True)
        off = _sphere_stack()
        off[2] *= 1.01
        with pytest.raises(DomainError):
            build_curve(sphere(1.0), off, closed=True)


FRAME_FIELDS = ("N", "kappa", "B", "tau", "frame_ok")


def _eager_frame(curve):
    """The frame as build_curve computed it up front before it became lazy: the oracle."""
    space, T, omega = curve.space, curve.T, curve.omega
    axis = curve.points.ndim - 2

    def dtheta(values):
        return diff1(values, curve.dt, curve.periodic, order=4, axis=axis) / omega[..., None]

    if space.model is not Model.EUCLIDEAN3D:
        N = space.normal_2d(curve.points, T)
        return {"N": N, "kappa": np.asarray(space.inner(dtheta(T), N)),
                "B": None, "tau": None, "frame_ok": None}
    curv = dtheta(T)
    curv -= np.sum(curv * T, axis=-1)[..., None] * T
    kappa = np.linalg.norm(curv, axis=-1)
    frame_ok = kappa >= KAPPA_FLOOR
    N = np.zeros_like(T)
    N[frame_ok] = curv[frame_ok] / kappa[frame_ok][:, None]
    B = np.cross(T, N)
    tau = np.where(frame_ok, -np.sum(dtheta(B) * N, axis=-1), 0.0)
    return {"N": N, "kappa": kappa, "B": B, "tau": tau, "frame_ok": frame_ok}


def _assert_same(got, want, label):
    if want is None:
        assert got is None, label
    else:
        assert np.array_equal(got, want), label


class TestLazyFrame:
    """The frame is computed on first read, bitwise as the eager build computed it."""

    @pytest.mark.parametrize(
        "case",
        ["plane", "sphere", "hyperboloid", "helix", "torsional_elastica", "straight_and_helix"],
    )
    def test_lazy_fields_match_the_eager_build(self, case):
        space, pts, kwargs = _batch_cases()[case]
        batch = build_curve(space, pts, **kwargs)
        want = _eager_frame(batch)
        if case == "straight_and_helix":  # the straight rows are flagged, the helices not
            assert 0 < np.count_nonzero(want["frame_ok"]) < want["frame_ok"].size
        rows = [batch.row(j) for j in range(len(pts))]
        for name in FRAME_FIELDS:
            _assert_same(getattr(batch, name), want[name], (case, name))
            for j, row in enumerate(rows):
                got = getattr(row, name)
                _assert_same(got, None if want[name] is None else want[name][j], (case, j, name))
        if len(pts) >= 3:
            stacked = path_from_curves(rows).batch
            for name in FRAME_FIELDS:
                _assert_same(getattr(stacked, name), want[name], (case, "stacked", name))

    def test_row_needs_a_stack_and_an_index_in_range(self):
        pts, _ = circle_points(64)
        with pytest.raises(PreconditionError, match="stack"):
            build_curve(plane(), pts, closed=True).row(3)
        space, pts, kwargs = _batch_cases()["plane"]
        batch = build_curve(space, pts, **kwargs)
        for j in (-1, len(pts)):
            with pytest.raises(PreconditionError, match="out of range"):
                batch.row(j)

    def test_energy_length_and_render_never_compute_the_frame(self, monkeypatch):
        def no_frame(curve):
            raise AssertionError("frame computed")

        monkeypatch.setattr(discrete_curves, "_fd_frame", no_frame)
        _, path = elastica_path_energy(_torsional_elastica_spec())
        assert "frame" not in vars(path.batch)
        t = 2 * np.pi * np.arange(64) / 64
        rings = np.stack([r * np.stack([np.cos(t), np.sin(t)], axis=1) for r in (1.0, 1.5, 2.0)])
        circles = make_path(plane(), rings, closed=True)
        assert path_length(circles) > 0.0
        assert _render_svg(circles).startswith("<svg")
        assert "frame" not in vars(circles.batch)
        with pytest.raises(AssertionError, match="frame computed"):
            circles.batch.N


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

    @pytest.mark.parametrize("closed", ["no", 1, None])
    def test_closed_must_be_a_json_boolean(self, closed):
        pts, _ = circle_points(64)
        data = curve_to_dict(build_curve(plane(), pts, closed=True))
        data["closed"] = closed
        with pytest.raises(DomainError, match="closed"):
            curve_from_dict(data)

    def test_stack_rejected(self):
        pts, _ = circle_points(64)
        stack = build_curve(plane(), np.stack([pts, 2.0 * pts]), closed=True)
        with pytest.raises(PreconditionError):
            curve_to_dict(stack)

    @pytest.mark.parametrize("leading", [(2,), (2, 3)])
    def test_stacked_points_rejected_on_load(self, leading):
        pts, _ = circle_points(64)
        data = curve_to_dict(build_curve(plane(), pts, closed=True))
        data["points"] = np.broadcast_to(pts, leading + pts.shape).tolist()
        data["t_samples"] = leading[0]
        with pytest.raises(DomainError, match="one"):
            curve_from_dict(data)

    def test_screw_shift_rejected(self):
        # the record has no screw_shift: it would load as a different open curve
        pts, _ = _helix_stack(m=1)
        helix = build_curve(euclidean3d(), pts[0], closed=False, screw_shift=[0.0, 0.0, 0.8 * np.pi])
        with pytest.raises(PreconditionError, match="screw_shift"):
            curve_to_dict(helix)
