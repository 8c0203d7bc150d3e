import math
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from curvespace import (
    CurveSpaceError,
    DomainError,
    NumericFailure,
    PreconditionError,
    circle_profile_f,
    euclidean3d,
    helix_profile_f,
    hyperbolic,
    path_speed,
    pendulum_residual,
    plane,
    solve_concentric_geodesic,
    solve_helix_geodesic,
    sphere,
)
from curvespace.sobolev_metric import tangential_component
from curvespace import special_geodesics
from curvespace.special_geodesics import (
    ConcentricCircles,
    Helices,
    RadiusTrajectory,
    _solve_radius_profile,
    conserved_drift,
    trajectory_to_csv,
)

# pinned from the high-precision oracle (mpmath, 30 digits); the acceptance
# suite recomputes it independently
FLAT_DISTANCE_1_TO_2 = 3.7098994412119352
HYPERBOLIC_F_AT_1 = 3.2013205155269244  # sinh(1) + cosh(1)^2 / sinh(1)


class TestProfiles:
    def test_flat_profile(self):
        assert circle_profile_f(plane(), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_sphere_profile_simplifies(self):
        # f = 1/sin r on the unit sphere
        assert circle_profile_f(sphere(1.0), np.pi / 2) == pytest.approx(1.0, abs=1e-14)
        r = 0.37
        assert circle_profile_f(sphere(1.0), r) == pytest.approx(1 / np.sin(r), rel=1e-13)

    def test_hyperbolic_profile_value(self):
        assert circle_profile_f(hyperbolic(-1.0), 1.0) == pytest.approx(
            HYPERBOLIC_F_AT_1, rel=1e-12
        )
        # cross-check the frozen constant against the high-precision oracle
        mp.mp.dps = 30
        oracle = float(mp.sinh(1) + mp.cosh(1) ** 2 / mp.sinh(1))
        assert abs(HYPERBOLIC_F_AT_1 - oracle) <= 1e-15

    def test_small_radius_guard(self):
        with pytest.raises(DomainError):
            circle_profile_f(plane(), 1e-5)

    def test_helix_profile_examples(self):
        assert helix_profile_f(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert helix_profile_f(1.0, 0.0) == circle_profile_f(plane(), 1.0)
        assert helix_profile_f(0.6, 0.8) == pytest.approx(2.0, abs=1e-14)
        assert helix_profile_f(2.0, 0.0) == pytest.approx(2.5, abs=1e-15)

    def test_helix_radius_guard(self):
        with pytest.raises(DomainError):
            helix_profile_f(0.0, 1.0)


class TestConcentricSolver:
    def test_flat_distance(self):
        traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=16, n=64)
        assert traj.distance == pytest.approx(FLAT_DISTANCE_1_TO_2, rel=1e-9)
        assert traj.conserved == pytest.approx(traj.distance**2 / (2 * np.pi), rel=1e-12)

    def test_equal_radii_rejected(self):
        with pytest.raises(PreconditionError):
            solve_concentric_geodesic(plane(), 1.0, 1.0)

    def test_sphere_cut_locus_rejected(self):
        with pytest.raises(DomainError):
            solve_concentric_geodesic(sphere(1.0), 0.5, 3.2)

    def test_monotone_radii(self):
        traj, _ = solve_concentric_geodesic(plane(), 2.0, 1.0, m=16, n=64)
        assert np.all(np.diff(traj.r) < 0)
        assert traj.r[0] == 2.0 and traj.r[-1] == 1.0

    def test_forward_reverse_mirror(self):
        fwd, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=17, n=64)
        rev, _ = solve_concentric_geodesic(plane(), 2.0, 1.0, m=17, n=64)
        assert np.max(np.abs(fwd.r - rev.r[::-1])) <= 1e-10
        assert abs(fwd.distance - rev.distance) <= 1e-10

    @pytest.mark.parametrize("space,r0,r1", [
        (plane(), 1.0, 2.0),
        (sphere(1.0), 0.3, 1.2),
        (hyperbolic(-1.0), 0.5, 1.5),
    ])
    def test_constant_speed_and_normality(self, space, r0, r1):
        traj, path = solve_concentric_geodesic(space, r0, r1, m=32, n=128)
        nu = path_speed(path)
        drift = (nu.max() - nu.min()) / nu.mean()
        assert drift <= 5e-3
        assert nu.mean() == pytest.approx(traj.distance, rel=1e-3)
        tang = np.max(np.abs(tangential_component(path)))
        assert tang <= 1e-6

    def test_conserved_quantity_fd_drift(self):
        drifts = []
        for m in (33, 65):
            traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=m, n=64)
            drifts.append(np.max(np.abs(conserved_drift(traj))) / traj.conserved)
        assert drifts[0] <= 40.0 / 33**2
        assert drifts[0] / drifts[1] >= 3.0  # second-order in the s-grid


class TestPendulum:
    def test_solved_geodesic_residual(self):
        traj, _ = solve_concentric_geodesic(sphere(1.0), 0.3, 1.2, m=64, n=64)
        res = pendulum_residual(traj)
        assert np.max(np.abs(res)) / traj.conserved <= 1e-6

    def test_profile_identity(self):
        # f(r) = 1/sin r = 1/cos u with u = pi/2 - r
        r = 1.0
        assert circle_profile_f(sphere(1.0), r) == pytest.approx(
            1.0 / np.cos(np.pi / 2 - r), abs=1e-14
        )

    def test_non_geodesic_spread(self):
        s = np.linspace(0.0, 1.0, 33)
        r = 0.3 + 0.9 * s  # linear radius is not a geodesic
        fam = ConcentricCircles(space=sphere(1.0), frame=None)
        traj = RadiusTrajectory(family=fam, r=r, conserved=1.0)
        res = pendulum_residual(traj)
        u = np.pi / 2 - r
        mean_value = np.mean(0.9**2 / np.cos(u))
        assert np.max(np.abs(res)) / mean_value > 0.01

    def test_wrong_family_rejected(self):
        traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=16, n=64)
        with pytest.raises(DomainError):
            pendulum_residual(traj)

    def test_vanishing_cos_u_guarded(self):
        # cos u = sin r vanishes for degenerate (r -> 0) or antipodal
        # (r -> pi) circles; the pendulum form blows up there
        from curvespace import standard_frame

        sp = sphere(1.0)
        fam = ConcentricCircles(space=sp, frame=standard_frame(sp))
        s = np.linspace(0, 1, 17)
        r = np.pi - 1e-9 - 0.5 * s
        traj = RadiusTrajectory(family=fam, r=r, conserved=1.0)
        with pytest.raises(DomainError):
            pendulum_residual(traj)


DOCUMENTED_REFUSALS = {
    "circle radius below R_MIN": (DomainError, lambda: solve_concentric_geodesic(plane(), 5e-5, 1.0)),
    "helix radius below R_MIN": (DomainError, lambda: solve_helix_geodesic(5e-5, 1.0, 0.5)),
    "circles in 3-space": (DomainError, lambda: solve_concentric_geodesic(euclidean3d(), 0.5, 1.0)),
}


@pytest.mark.parametrize("case", DOCUMENTED_REFUSALS)
def test_documented_refusal(case):
    error, call = DOCUMENTED_REFUSALS[case]
    with pytest.raises(CurveSpaceError) as info:
        call()
    assert type(info.value) is error


class TestHelixSolver:
    def test_zero_pitch_reduces_to_flat_circles(self):
        flat, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=32, n=64)
        helix, _ = solve_helix_geodesic(1.0, 2.0, 0.0, m=32, n=64)
        assert np.max(np.abs(flat.r - helix.r)) <= 1e-10
        assert abs(flat.distance - helix.distance) <= 1e-10

    def test_materialized_path_screw_periodic(self):
        _, path = solve_helix_geodesic(1.0, 2.0, 1.0, m=8, n=64)
        c = path.curves[0]
        assert not c.closed
        assert c.screw_shift is not None
        # omega is constant around the turn thanks to the screw stencils
        assert np.max(c.omega) - np.min(c.omega) <= 1e-12

    def test_conserved_drift_second_order(self):
        drifts = []
        for m in (33, 65):
            traj, _ = solve_helix_geodesic(1.0, 2.0, 1.0, m=m, n=64)
            drifts.append(np.max(np.abs(conserved_drift(traj))) / traj.conserved)
        assert drifts[0] / drifts[1] >= 3.0

    def test_speed_matches_conserved_quantity(self):
        traj, path = solve_helix_geodesic(1.0, 2.0, 1.0, m=32, n=128)
        nu = path_speed(path)
        assert nu.mean() == pytest.approx(np.sqrt(2 * np.pi * traj.conserved), rel=1e-3)


class TestTrajectoryCSV:
    def test_format_and_values(self):
        traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=8, n=64)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "s,r,conserved"
        assert len(lines) == 9
        s, r, E = (float(x) for x in lines[1].split(","))
        assert s == 0.0 and r == 1.0 and E == traj.conserved


# ---------------------------------------------------------------------------
# the radius solver against the Newton-bisection inversion it replaced

_QUAD_TOL = 1e-12
_INVERT_TOL = 1e-12


def _newton_bisection_radii(sqrt_f, r0: float, r1: float, m: int):
    """Invert the arclength-like integral of sqrt(f) on a uniform s-grid.

    Returns (s_grid, r, sqrt_E).  The integral runs from min(r0, r1) to
    max(r0, r1); targets are mirrored for decreasing trajectories so
    forward and reverse solves produce exactly mirrored radii.
    """
    if m < 3:
        raise PreconditionError("need at least 3 path samples")
    lo, hi = min(r0, r1), max(r0, r1)
    with warnings.catch_warnings():
        # a failed quadrature is reported through NumericFailure below
        warnings.simplefilter("ignore", IntegrationWarning)
        total, err = quad(sqrt_f, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    if not math.isfinite(total) or err > 1e-8 * max(1.0, abs(total)):
        raise NumericFailure("quadrature of sqrt(f) did not converge")

    s_grid = np.linspace(0.0, 1.0, m)
    r_incr = np.empty(m)
    r_incr[0], r_incr[-1] = lo, hi
    r_prev, phi_prev = lo, 0.0
    for idx in range(1, m - 1):
        target = s_grid[idx] * total
        lo_b, hi_b = r_prev, hi
        r_cur, phi_cur = r_prev, phi_prev
        for _ in range(100):
            resid = phi_cur - target
            if abs(resid) <= _INVERT_TOL * max(1.0, total):
                break
            if resid > 0.0:
                hi_b = r_cur
            else:
                lo_b = r_cur
            step = -resid / sqrt_f(r_cur)
            r_next = r_cur + step
            if not lo_b < r_next < hi_b:  # Newton left the bracket; bisect
                r_next = 0.5 * (lo_b + hi_b)
            seg, _ = quad(sqrt_f, r_cur, r_next, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
            phi_cur += seg
            r_cur = r_next
        else:
            raise NumericFailure("radius inversion did not converge")
        r_incr[idx] = r_cur
        r_prev, phi_prev = r_cur, phi_cur

    r = r_incr if r1 >= r0 else r_incr[::-1].copy()
    return s_grid, r, total


def _sphere(K, lo, gap):
    """Curvature-K sphere case from lo to ``gap`` short of the cut locus."""
    return sphere(K), lo, math.pi / math.sqrt(K) - gap


RADIUS_CASES = [
    (plane(), 1e-4, 1.0), (plane(), 1.0, 2.0), (plane(), 1e-4, 1e4),
    _sphere(1.0, 1e-4, 0.5 * math.pi), _sphere(1.0, 1e-4, 1e-9), _sphere(4.0, 1e-4, 1e-4),
    _sphere(100.0, 0.09, 1e-4), _sphere(100.0, 1e-4, 1e-9),
    (hyperbolic(-0.25), 1e-4, 5.0), (hyperbolic(-1.0), 0.5, 3.0), (hyperbolic(-4.0), 1e-4, 5.0),
] + [(h, lo, hi) for h in (0.0, 1.0, 1e3, 1e150) for lo, hi in [(1e-4, 1.0), (0.5, 100.0)]]


def _profile(family):
    """(f, scalar sqrt f) of a space form's circles or of pitch-h helices."""
    if isinstance(family, float):
        return partial(helix_profile_f, h=family), lambda r: math.sqrt(helix_profile_f(r, family))
    return partial(circle_profile_f, family), lambda r: math.sqrt(circle_profile_f(family, r))


class TestRadiusSolver:
    @pytest.mark.parametrize("family,lo,hi", RADIUS_CASES)
    def test_matches_newton_bisection(self, family, lo, hi):
        f, sqrt_f = _profile(family)
        _, oracle, sqrt_E = _newton_bisection_radii(sqrt_f, lo, hi, 9)
        for r0, r1, ref in ((lo, hi, oracle), (hi, lo, oracle[::-1])):
            r, E = _solve_radius_profile(f, r0, r1, 9)
            fam = Helices(family) if isinstance(family, float) else ConcentricCircles(family, None)
            distance = RadiusTrajectory(fam, r, E).distance
            assert E == sqrt_E * sqrt_E and distance == math.sqrt(2.0 * math.pi * E)
            assert r[0] == r0 and r[-1] == r1
            assert np.max(np.abs(r - ref)) <= 1e-11 * max(1.0, hi)

    @pytest.mark.parametrize("family,lo,hi,phi", [
        (plane(), 1e-4, 1.0, lambda r: mp.sqrt(r + 1 / r)),
        (sphere(1.0), 1e-4, math.pi - 1e-4, lambda r: 1 / mp.sqrt(mp.sin(r))),
        (hyperbolic(-1.0), 1e-4, 5.0, lambda r: mp.sqrt(mp.sinh(r) + mp.cosh(r) ** 2 / mp.sinh(r))),
    ])
    def test_first_integral_against_mpmath(self, family, lo, hi, phi):
        # Phi(r_i) = integral_{lo}^{r_i} sqrt(f) dr must equal s_i sqrt(E)
        r, E = _solve_radius_profile(partial(circle_profile_f, family), lo, hi, 9)
        s = RadiusTrajectory(ConcentricCircles(family, None), r, E).s_grid
        sqrt_E = math.sqrt(E)
        with mp.workdps(30):
            Phi = [mp.quad(phi, [lo, 0.5 * (lo + ri), ri]) for ri in r[1:]]
            errors = [abs(float(P - mp.mpf(si) * mp.sqrt(E))) for P, si in zip(Phi, s[1:])]
        assert max(errors) <= 1e-12 * max(1.0, sqrt_E)

    def test_one_quadrature_per_solve(self, monkeypatch):
        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(special_geodesics, "quad", counting_quad)
        solve_concentric_geodesic(sphere(1.0), 0.3, 1.2, m=64, n=16)
        assert len(calls) == 1
        solve_helix_geodesic(1.6, 1.0, 0.5, m=64, n=16)
        assert len(calls) == 2

    def test_inconsistent_quadrature_is_refused(self):
        # QUADPACK's sqrt(E) for [0.3 pi, pi - 1e-9] on the unit sphere is 2e-5
        # too large while its error estimate passes; the radii then overshoot
        # the far endpoint by 2e-9 and the landing check refuses them
        with pytest.raises(NumericFailure, match="radius inversion"):
            solve_concentric_geodesic(sphere(1.0), 0.3 * math.pi, math.pi - 1e-9, m=9, n=16)

    def test_overflowing_conserved_quantity_raises(self):
        # sqrt(E) = 6.7e299 is finite but E overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericFailure, match="not finite"):
                solve_concentric_geodesic(plane(), 1.0, 1e200, m=9, n=16)
        assert [str(w.message) for w in caught] == []
