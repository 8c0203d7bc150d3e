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
    # sqrt(E) overflows; under warnings-as-errors no RuntimeWarning may come first
    "helix pitch 1e307": (NumericFailure, lambda: solve_helix_geodesic(1.0, 2.0, 1e307)),
    "helix pitch 1e200": (NumericFailure, lambda: solve_helix_geodesic(1.0, 2.0, 1e200)),
    "circle radius 1e300": (NumericFailure, lambda: solve_concentric_geodesic(plane(), 1.0, 1e300)),
    # -<p, p> = cosh^2 r - sinh^2 r cancels to rounding: build_curve finds the solver's own
    # points off the hyperboloid, a failure of the solve and not a bad argument
    "hyperbolic radius 18": (NumericFailure, lambda: solve_concentric_geodesic(
        hyperbolic(), 1.0, 18.0, m=8, n=16)),
    "hyperbolic radius 25": (NumericFailure, lambda: solve_concentric_geodesic(
        hyperbolic(), 1.0, 25.0, m=8, n=16)),
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


def _mp_sqrt_f(family):
    """sqrt(f) in mpmath arithmetic, from the closed forms of the profiles."""
    if isinstance(family, float):
        h = mp.mpf(family)

        def helix(r):
            rho = mp.sqrt(r * r + h * h)
            return mp.sqrt(rho + 1 / rho)

        return helix
    K = mp.mpf(family.curvature)
    s = mp.sqrt(abs(K))

    def circle(r):
        if K == 0:
            om, om_r = r, 1
        elif K > 0:
            om, om_r = mp.sin(s * r) / s, mp.cos(s * r)
        else:
            om, om_r = mp.sinh(s * r) / s, mp.cosh(s * r)
        return mp.sqrt(om + om_r**2 / om)

    return circle


def _mp_phi(family, lo, hi):
    """Phi(hi) = integral_{lo}^{hi} sqrt(f) dr by 30-digit tanh-sinh quadrature.

    Split geometrically when hi / lo > 10 (sqrt(f) ~ r^(-1/2) near 0), at the
    equator and 4-fold toward hi on a sphere, whose cut locus may sit just
    beyond hi; the integrand is scaled by its value at lo so that mpmath's
    error estimate is relative.
    """
    with mp.workdps(30):
        g = _mp_sqrt_f(family)
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        points = {lo, hi}
        if hi > 10 * lo:
            points.update(lo * (hi / lo) ** (mp.mpf(j) / 8) for j in range(1, 8))
        if not isinstance(family, float) and family.curvature > 0:
            cut = mp.pi / mp.sqrt(family.curvature)
            points.update(x for x in (cut / 2 + k * cut / 64 for k in range(-3, 4)) if lo < x < hi)
            depth = int(mp.log((hi - lo) / (cut - hi), 4)) + 2
            points.update(hi - (hi - lo) * mp.mpf(4) ** -k for k in range(1, max(1, depth)))
        g0 = g(lo)
        return g0 * mp.quad(lambda r: g(r) / g0, sorted(points))


class TestRadiusSolver:
    @pytest.mark.parametrize("family,lo,hi", RADIUS_CASES)
    def test_matches_newton_bisection(self, family, lo, hi):
        f, sqrt_f = _profile(family)
        _, oracle, _ = _newton_bisection_radii(sqrt_f, lo, hi, 9)
        phi = _mp_phi(family, lo, hi)
        # quadrature nodes near hi round to floats by up to half an ulp of hi,
        # and half an ulp of hi moves sqrt(E) by sqrt(f(hi)) ulp(hi) / 2; a
        # quarter of that is allowed, which exceeds 1e-15 only on the cases
        # 1e-9 short of the cut locus
        tol = 1e-15 + sqrt_f(hi) * np.spacing(hi) / 8.0 / float(phi)
        for r0, r1, ref in ((lo, hi, oracle), (hi, lo, oracle[::-1])):
            r, E = _solve_radius_profile(f, r0, r1, 9)
            fam = Helices(family) if isinstance(family, float) else ConcentricCircles(family, None)
            distance = RadiusTrajectory(fam, r, E).distance
            with mp.workdps(30):
                assert float(abs(mp.sqrt(E) - phi) / phi) <= tol
            assert distance == math.sqrt(2.0 * math.pi * E)
            assert r[0] == r0 and r[-1] == r1
            assert np.max(np.abs(r - ref)) <= 1e-11 * max(1.0, hi)

    @pytest.mark.parametrize("family,lo,hi", [
        (plane(), 1e-4, 1.0),
        (sphere(1.0), 1e-4, math.pi - 1e-4),
        (sphere(1.0), 0.3 * math.pi, math.pi - 1e-9),
        (hyperbolic(-1.0), 1e-4, 5.0),
        (1.0, 1e-4, 1.0),
        (0.5, 0.6, 1.8),
    ])
    def test_first_integral_against_mpmath(self, family, lo, hi):
        # Phi(r_i) = integral_{lo}^{r_i} sqrt(f) dr must equal s_i sqrt(E)
        r, E = _solve_radius_profile(_profile(family)[0], lo, hi, 9)
        fam = Helices(family) if isinstance(family, float) else ConcentricCircles(family, None)
        s = RadiusTrajectory(fam, r, E).s_grid
        sqrt_E = math.sqrt(E)
        with mp.workdps(30):
            errors = [abs(float(_mp_phi(family, lo, ri) - mp.mpf(si) * mp.sqrt(E)))
                      for ri, si in zip(r[1:], s[1:])]
        assert max(errors) <= 1e-12 * max(1.0, sqrt_E)

    @pytest.mark.parametrize("solve,lo,hi,passes", [
        (lambda: solve_concentric_geodesic(sphere(1.0), 0.3, 1.2, m=64, n=16), 0.3, 1.2, 1),
        (lambda: solve_helix_geodesic(1.6, 1.0, 0.5, m=64, n=16), 1.0, 1.6, 1),
        # the panels graded toward the cut locus resolve it; halving alone
        # would take some 30 passes
        (lambda: _solve_radius_profile(_profile(sphere(1.0))[0], 1e-4, math.pi - 1e-9, 64),
         1e-4, math.pi - 1e-9, 3),
    ])
    def test_one_quadrature_per_solve(self, monkeypatch, solve, lo, hi, passes):
        # a quadrature of the panel table over [lo, hi] (halved panels cost one
        # more pass each time), then one per Newton step over the 62 targets
        calls = []

        def recording_quad(g, a, b):
            calls.append((a.copy(), b.copy()))
            return quad_rule(g, a, b)

        quad_rule = special_geodesics.quad
        monkeypatch.setattr(special_geodesics, "quad", recording_quad)
        solve()
        n_table = sum(a[0] == lo and b[-1] == hi for a, b in calls)
        table, newton = calls[:n_table], calls[n_table:]
        assert 1 <= n_table <= passes
        assert all(a[0] == lo and b[-1] == hi and np.array_equal(a[1:], b[:-1]) for a, b in table)
        assert 1 <= len(newton) <= 6 and all(a.shape == b.shape == (62,) for a, b in newton)

    def test_cut_locus_case_is_solved(self, tmp_path, capfd):
        # QUADPACK's sqrt(E) for [0.3 pi, pi - 1e-9] on the unit sphere was 2e-5
        # too large while its error estimate passed, and the ODE radii then
        # missed the far endpoint: the case exited 2
        from curvespace.cli import run

        lo, hi = 0.3 * math.pi, math.pi - 1e-9
        out, traj = tmp_path / "c.json", tmp_path / "c.csv"
        code = run(["circles", "--curvature", "1", "--r0", repr(lo), "--r1", repr(hi),
                    "--s-samples", "9", "--t-samples", "16", "--out", str(out), "--traj", str(traj)])
        assert code == 0 and capfd.readouterr().err == ""
        E = float(traj.read_text().splitlines()[1].split(",")[2])
        with mp.workdps(30):
            oracle = mp.sqrt(2 * mp.pi) * _mp_phi(sphere(1.0), lo, hi)
            assert float(abs(math.sqrt(2.0 * math.pi * E) - oracle) / oracle) <= 1e-10

    def test_radius_one_ulp_short_of_the_cut_locus_is_refused(self):
        # rounding noise in sqrt(f) keeps the last panel's error estimate up;
        # the halving stops at a one-ulp panel instead of looping
        f = partial(circle_profile_f, sphere(1.0))
        with pytest.raises(NumericFailure, match=r"quadrature of sqrt\(f\) did not converge"):
            _solve_radius_profile(f, 0.3 * math.pi, math.nextafter(math.pi, 0.0), 9)

    def test_overflowing_conserved_quantity_raises(self):
        # sqrt(E) = 6.7e299 is finite but E overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericFailure, match="not finite"):
                solve_concentric_geodesic(plane(), 1.0, 1e200, m=9, n=16)
        assert [str(w.message) for w in caught] == []

    def test_unfinished_radius_inversion_is_a_numeric_failure(self, monkeypatch, tmp_path, capfd):
        # a negative stopping tolerance: no Newton sweep can finish
        from curvespace.cli import run

        monkeypatch.setattr(special_geodesics, "_INVERT_TOL", -1.0)
        with pytest.raises(NumericFailure, match="radius inversion did not converge"):
            solve_concentric_geodesic(plane(), 1.0, 2.0)
        out, traj = tmp_path / "c.json", tmp_path / "c.csv"
        code = run(["circles", "--curvature", "0", "--r0", "1", "--r1", "2",
                    "--out", str(out), "--traj", str(traj)])
        assert code == 2
        assert capfd.readouterr().err == "numeric failure: radius inversion did not converge\n"
        assert list(tmp_path.iterdir()) == []
