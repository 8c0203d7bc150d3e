"""Acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
runtime budget, printing one [PASS] line (run with ``pytest -s`` or
``pytest -v`` to see them).  Expected values marked as derived were
computed with independent oracles (mpmath quadrature, analytic geometry)
before being frozen here.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from curvespace import (
    build_curve,
    curvature_conservation_residual,
    fd_variation,
    horizontality_defect,
    hyperbolic,
    jacobi_residual,
    make_path,
    optimize_elastica_path,
    parallel_geodesic_alpha,
    path_speed,
    pendulum_residual,
    plane,
    predicted_kappa_variation,
    predicted_omega_variation,
    rho_kappa_defect,
    solve_concentric_geodesic,
    solve_helix_geodesic,
    sphere,
)
from curvespace.elastica import (
    MU_LOCUS_SIGN,
    ElasticaParams,
    ElasticaPathSpec,
    OptimizeOptions,
    _end_frame,
    default_flat_frame,
    generate_curve,
    solve_curvature_profile,
)
from curvespace.errors import NormalityError
from curvespace.sobolev_metric import path_from_curves, tangential_component

# frozen from the mpmath oracle (30 digits); criterion 5 recomputes it
FLAT_DISTANCE_1_TO_2 = 3.7098994412119352


def _report(num, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num}: {detail} ({elapsed:.1f}s < {budget}s)")


# ---------------------------------------------------------------------------
# families shared by criteria 2 and 3


def concentric_family(m, n=256):
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)
    r = 1.3 + 0.5 * s + 0.15 * np.sin(np.pi * s)
    pts = r[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=1)[None]
    return make_path(plane(), pts, closed=True)


def latitude_family(m, n=256):
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)
    r = 0.5 + 0.4 * s + 0.1 * np.sin(np.pi * s)
    pts = np.stack(
        [
            np.outer(np.sin(r), np.cos(t)),
            np.outer(np.sin(r), np.sin(t)),
            np.repeat(np.cos(r)[:, None], n, axis=1),
        ],
        axis=2,
    )
    return make_path(sphere(1.0), pts, closed=True)


def random_radial_family(m, n=256, seed=11):
    rng = np.random.default_rng(seed)
    t = 2 * np.pi * np.arange(n) / n
    s = np.linspace(0, 1, m)
    amps = rng.uniform(0.02, 0.05, size=(2, 2))
    phases = rng.uniform(0, 2 * np.pi, size=(2, 2))
    R = 1 + 0.25 * s[:, None] + 0.12 * np.sin(np.pi * s)[:, None] + np.zeros((m, n))
    for w in (1, 2):
        R += amps[w - 1, 0] * np.sin(np.pi * s[:, None] + phases[w - 1, 0]) * np.cos(w * t)[None]
        R += amps[w - 1, 1] * np.sin(np.pi * s[:, None] + phases[w - 1, 1]) * np.sin(w * t)[None]
    pts = R[:, :, None] * np.stack([np.cos(t), np.sin(t)], axis=1)[None]
    return make_path(plane(), pts, closed=True)


def radial_velocity_family(m=9, n=256):
    # normal at s = 0 (the unit circle) with velocity rho(t) N, rho nonconstant
    t = 2 * np.pi * np.arange(n) / n
    rho = 1.0 + 0.3 * np.cos(t)
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    s = np.linspace(0, 1, m)
    pts = np.stack([(1.0 + sj * 0.5 * rho)[:, None] * ring for sj in s])
    return make_path(plane(), pts, closed=True)


def test_criterion_1_jacobi_residual():
    t0 = time.perf_counter()
    worst = 0.0
    for space, r_hi in ((sphere(1.0), np.pi - 1e-3), (plane(), 3.0), (hyperbolic(-1.0), 3.0)):
        r = np.linspace(1e-3, r_hi, 1000)
        worst = max(worst, float(np.max(np.abs(jacobi_residual(space, r)))))
    assert worst <= 1e-10
    _report(1, f"jacobi residual sup {worst:.2e} <= 1e-10 on 1000-point grids", time.perf_counter() - t0, 1.0)


def test_criterion_2_lemma1_convergence_ladder():
    t0 = time.perf_counter()
    floor = 1e-11
    details = []
    for name, family in (
        ("concentric", concentric_family),
        ("latitude", latitude_family),
        ("radial", random_radial_family),
    ):
        errs = {"omega": [], "kappa": []}
        for m in (17, 33, 65):  # ds = 1/16, 1/32, 1/64
            path = family(m)
            j = m // 2
            errs["omega"].append(
                float(np.max(np.abs(predicted_omega_variation(path)[j] - fd_variation(path, "omega")[j - 1])))
            )
            errs["kappa"].append(
                float(np.max(np.abs(predicted_kappa_variation(path)[j] - fd_variation(path, "kappa")[j - 1])))
            )
        for quantity, seq in errs.items():
            for coarse, fine in zip(seq, seq[1:]):
                # second-order decay, or both already at the discrete floor
                assert fine <= coarse / 3.5 or fine <= floor, (
                    f"{name}/{quantity}: {coarse:.3e} -> {fine:.3e}"
                )
            details.append(f"{name}/{quantity} {seq[0]:.1e}->{seq[-1]:.1e}")
    _report(2, "; ".join(details), time.perf_counter() - t0, 10.0)


def test_criterion_3_horizontality_equivalence():
    t0 = time.perf_counter()
    # horizontal normal families: both diagnostics vanish
    for family in (concentric_family, latitude_family):
        path = family(17)
        h_sup = np.max(np.abs(horizontality_defect(path)))
        rk_sup = np.max(np.abs(rho_kappa_defect(path)))
        assert h_sup <= 1e-6 and rk_sup <= 1e-5
    # deliberately non-horizontal normal family: both diagnostics fire
    path = radial_velocity_family()
    h_bad = float(np.max(np.abs(horizontality_defect(path)[0])))
    rk_bad = float(np.max(np.abs(rho_kappa_defect(path)[0])))
    assert h_bad > 1e-2 and rk_bad > 1e-2
    _report(
        3,
        f"horizontal families <= (1e-6, 1e-5); non-horizontal ({h_bad:.2f}, {rk_bad:.2f}) > 1e-2",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_4_concentric_solver_speed_and_pendulum():
    t0 = time.perf_counter()
    drifts = {}
    for space, r0, r1, tag in (
        (plane(), 1.0, 2.0, "K=0"),
        (sphere(1.0), 0.3, 1.2, "K=1"),
        (hyperbolic(-1.0), 0.5, 1.5, "K=-1"),
    ):
        pair = []
        for m, n in ((64, 256), (128, 512)):
            _, path = solve_concentric_geodesic(space, r0, r1, m=m, n=n)
            nu = path_speed(path)
            pair.append(float((nu.max() - nu.min()) / nu.mean()))
        assert pair[0] <= 5e-3, f"{tag}: drift {pair[0]:.2e}"
        assert pair[1] < pair[0], f"{tag}: no improvement under refinement"
        drifts[tag] = pair
    traj, _ = solve_concentric_geodesic(sphere(1.0), 0.3, 1.2, m=64, n=256)
    pend = float(np.max(np.abs(pendulum_residual(traj))) / traj.conserved)
    assert pend <= 1e-6
    detail = ", ".join(f"{k} {v[0]:.1e}->{v[1]:.1e}" for k, v in drifts.items())
    _report(4, f"speed drift {detail}; pendulum {pend:.1e} <= 1e-6", time.perf_counter() - t0, 30.0)


def test_criterion_5_flat_distance_oracle():
    t0 = time.perf_counter()
    mp.mp.dps = 30
    oracle = float(mp.sqrt(2 * mp.pi) * mp.quad(lambda r: mp.sqrt(r + 1 / r), [1, 2]))
    assert abs(oracle - FLAT_DISTANCE_1_TO_2) <= 1e-12  # frozen value is the oracle's
    traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=16, n=64)
    rel = abs(traj.distance - oracle) / oracle
    assert rel <= 1e-6
    _report(5, f"distance {traj.distance:.10f} vs oracle, rel err {rel:.1e} <= 1e-6", time.perf_counter() - t0, 1.0)


def test_criterion_6_helix_reduction_and_horizontality():
    t0 = time.perf_counter()
    flat, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=32, n=64)
    zero_pitch, _ = solve_helix_geodesic(1.0, 2.0, 0.0, m=32, n=64)
    gap = float(np.max(np.abs(flat.r - zero_pitch.r)))
    assert gap <= 1e-10
    assert abs(flat.distance - zero_pitch.distance) <= 1e-10
    _, path = solve_helix_geodesic(1.0, 2.0, 1.0, m=32, n=512)
    h_sup = float(np.max(np.abs(horizontality_defect(path))))
    assert h_sup <= 1e-4
    _report(6, f"h=0 reduction gap {gap:.1e} <= 1e-10; h=1 horizontality {h_sup:.1e} <= 1e-4", time.perf_counter() - t0, 10.0)


def test_criterion_7_elastica_generator_grid():
    t0 = time.perf_counter()
    n = 256
    checked = 0
    for k in np.linspace(0.6, 1.4, 5):
        for mu_factor in (0.0, 0.1, 0.25):
            mu = mu_factor * k**3
            lam_locus = (k**6 + MU_LOCUS_SIGN * 2 * mu**2) / k**4
            for off in (0.0, 0.4, 0.8, 1.2, 1.6):
                params = ElasticaParams(
                    k=k, lam=lam_locus - off, mu=mu, K=0.0, L=8.0 / k,
                    frame=default_flat_frame(k),
                )
                kappa, tau = solve_curvature_profile(params, n)
                drift = float(np.max(np.abs(kappa - k)))
                if off == 0.0:
                    assert drift <= 1e-8, f"locus point (k={k:.2f}, mu={mu:.3f}) drifted {drift:.1e}"
                else:
                    assert drift > 1e-8, f"off-locus point stayed constant (off={off})"
                # kappa^2 tau = mu holds identically by construction
                assert float(np.max(np.abs(kappa**2 * tau - mu))) <= 1e-12
                # amplitude: the initial condition is the maximum
                assert kappa[0] == k
                assert float(kappa.max()) <= k + 1e-6
                checked += 1
    # Frenet round-trip on a torsional subset: kappa^2 tau recovered within C n^-2
    sups = {}
    for nn in (256, 512):
        worst = 0.0
        for k, off in ((0.8, 0.8), (1.2, 0.8)):
            mu = 0.1 * k**3
            lam = (k**6 + MU_LOCUS_SIGN * 2 * mu**2) / k**4 - off
            params = ElasticaParams(k=k, lam=lam, mu=mu, K=0.0, L=8.0 / k,
                                    frame=default_flat_frame(k))
            curve = generate_curve(params, nn)
            meas = build_curve(curve.space, curve.points, closed=False)
            worst = max(worst, float(np.max(np.abs(meas.kappa**2 * meas.tau - mu))))
        sups[nn] = worst
    assert sups[256] <= 100.0 / 256**2 and sups[512] <= 100.0 / 512**2
    assert sups[256] / sups[512] >= 3.0
    _report(
        7,
        f"{checked} grid points: locus<->constant, amplitude, kappa^2 tau = mu; "
        f"round-trip {sups[256]:.1e}@256 -> {sups[512]:.1e}@512",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_8_optimizer_cross_check():
    t0 = time.perf_counter()
    start = ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=0.0, L=2 * np.pi, frame=default_flat_frame(1.0))
    end = ElasticaParams(k=0.5, lam=0.25, mu=0.0, K=0.0, L=4 * np.pi, frame=_end_frame(start, 0.5))
    opts = OptimizeOptions(seed=0)
    runs = []
    for _ in range(2):
        spec, trace, _ = optimize_elastica_path((start, end), q=3, m=13, n=96, opts=opts)
        runs.append((spec, trace))
    (spec1, trace1), (spec2, trace2) = runs
    assert trace1 == trace2, "fixed seed must reproduce the identical energy trace"
    assert np.array_equal(spec1.control_points, spec2.control_points)
    energies = [e for _, e in trace1]
    assert all(b < a for a, b in zip(energies, energies[1:])), "trace must decrease at accepted steps"
    rel = abs(np.sqrt(energies[-1]) - FLAT_DISTANCE_1_TO_2) / FLAT_DISTANCE_1_TO_2
    assert rel <= 0.02
    # the optimized amplitude trajectory tracks 1/r(s) of the concentric solution
    traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=5, n=256)
    r_at_controls = np.interp([0.25, 0.5, 0.75], traj.s_grid, traj.r)
    k_match = float(np.max(np.abs(spec1.control_points[:, 0] * r_at_controls - 1.0)))
    assert k_match <= 0.02
    _report(
        8,
        f"sqrt(energy) {np.sqrt(energies[-1]):.4f} within {100 * rel:.2f}% of {FLAT_DISTANCE_1_TO_2:.4f}; "
        f"k(s) vs 1/r(s) within {100 * k_match:.2f}%; monotone trace ({len(energies)} improvements); deterministic",
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_9_conservation_identities():
    t0 = time.perf_counter()
    hy = hyperbolic(-1.0)
    n, m = 512, 9
    t = np.linspace(-1.5, 1.5, n)
    horo = np.stack([t, t**2 / 2, t**2 / 2 + 1.0], axis=1)
    base = build_curve(hy, horo, closed=False)
    s = np.linspace(0, 1, m)
    offsets = [
        build_curve(hy, np.cosh(d) * horo + np.sinh(d) * base.N, closed=False)
        for d in 0.1 + 0.3 * s
    ]
    path = path_from_curves(offsets)
    j = m // 2
    assert float(np.max(np.abs(tangential_component(path)[j]))) <= 1e-6  # normal family
    fd_zero = float(np.max(np.abs(fd_variation(path, "kappa")[j - 1])))
    res_zero = float(np.max(np.abs(curvature_conservation_residual(path.curves[j]))))
    assert fd_zero <= 1e-6 and res_zero <= 1e-4  # conserved curvature <-> zero residual

    conc = concentric_family(17)
    fd_nz = float(np.max(np.abs(fd_variation(conc, "kappa")[7])))
    res_nz = float(np.max(np.abs(curvature_conservation_residual(conc.curves[8]))))
    assert fd_nz > 0.1 and res_nz > 0.1  # varying curvature <-> nonzero residual

    _, geod = solve_concentric_geodesic(plane(), 1.0, 2.0, m=33, n=256)
    alpha = parallel_geodesic_alpha(geod)
    geod_spread = float((alpha.max() - alpha.min()) / alpha.mean())
    assert geod_spread <= 0.01

    tt = 2 * np.pi * np.arange(256) / 256
    ring = np.stack([np.cos(tt), np.sin(tt)], axis=1)
    lin = make_path(plane(), (1.0 + s)[:, None, None] * ring[None], closed=True)
    alpha_lin = parallel_geodesic_alpha(lin)
    lin_spread = float((alpha_lin.max() - alpha_lin.min()) / alpha_lin.mean())
    assert lin_spread > 0.05

    _report(
        9,
        f"conserved family (fd {fd_zero:.1e}, res {res_zero:.1e}) vs varying ({fd_nz:.2f}, {res_nz:.2f}); "
        f"alpha spread geodesic {geod_spread:.4f} <= 1% vs linear {lin_spread:.2f} > 5%",
        time.perf_counter() - t0,
        10.0,
    )
