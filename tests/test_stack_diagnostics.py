"""Whole-stack path diagnostics against the per-row implementations they replaced.

The oracles below rebuild row j with ``batch.row(j)`` and run ``cov_d_T``
on that single curve, as the per-sample functions once did; the library
computes every row at once from the derivatives it caches over the stack.
Row j of each whole-stack result must agree bitwise with the oracle's
value for row j, and be NaN exactly where the oracle finds the row not
normal.
"""

import numpy as np
import pytest

from curvespace import (
    DomainError,
    NormalityError,
    euclidean3d,
    hyperbolic,
    make_path,
    plane,
    solve_concentric_geodesic,
    solve_helix_geodesic,
    sphere,
)
from curvespace import sobolev_metric as sm
from curvespace import variations as va
from curvespace.discrete_curves import cov_d_T, d_theta
from curvespace.elastica import (
    ElasticaParams,
    ElasticaPathSpec,
    _end_frame,
    _interior_seed,
    default_flat_frame,
    materialize_path,
)


def _torsional_elastica_path():
    start = ElasticaParams(k=1.0, lam=0.6, mu=0.1, K=0.0, L=2 * np.pi, frame=default_flat_frame(1.0))
    end = ElasticaParams(k=0.8, lam=0.3, mu=0.05, K=0.0, L=2 * np.pi / 0.8, frame=_end_frame(start, 0.8))
    spec = ElasticaPathSpec(
        start=start, end=end, control_points=_interior_seed(start, end, 2), m=7, n=96
    )
    return materialize_path(spec)


def _radial_path():
    # normal only at s = 0: the unit circle moving with velocity rho(t) N
    n, m = 128, 7
    t = 2 * np.pi * np.arange(n) / n
    rho = 1.0 + 0.3 * np.cos(t)
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    pts = np.stack([(1.0 + sj * 0.5 * rho)[:, None] * ring for sj in np.linspace(0, 1, m)])
    return make_path(plane(), pts, closed=True)


PATHS = {
    "plane": lambda: solve_concentric_geodesic(plane(), 1.0, 2.0, m=9, n=64)[1],
    "sphere": lambda: solve_concentric_geodesic(sphere(1.0), 0.3, 1.2, m=9, n=64)[1],
    "hyperboloid": lambda: solve_concentric_geodesic(hyperbolic(-1.0), 0.5, 1.5, m=9, n=64)[1],
    "helix": lambda: solve_helix_geodesic(1.0, 2.0, 0.5, m=9, n=64)[1],
    "torsional_elastica": _torsional_elastica_path,
    "radial": _radial_path,
}


# ---------------------------------------------------------------------------
# per-row oracles: row j as its own curve, derivatives recomputed on it


def _row(path, j):
    return path.batch.row(j), path.velocity[j]


def oracle_horizontality_defect(path, j):
    curve, v = _row(path, j)
    ddv = cov_d_T(curve, cov_d_T(curve, v))
    return np.asarray(curve.space.inner(v - ddv, curve.T))


def oracle_tangential_component(path, j):
    curve, v = _row(path, j)
    return np.asarray(curve.space.inner(v, curve.T))


def oracle_rho_normal_component(path, j):
    curve, v = _row(path, j)
    return np.asarray(curve.space.inner(v, curve.N))


def oracle_rho_kappa_defect(path, j):
    curve, _ = _row(path, j)
    if float(np.max(np.abs(oracle_tangential_component(path, j)))) > sm.NORMALITY_TOL:
        raise NormalityError("not normal")
    if curve.frame_ok is not None and not bool(np.all(curve.frame_ok)):
        raise DomainError("frame undefined")
    rho = oracle_rho_normal_component(path, j)
    return d_theta(curve, rho * rho * curve.kappa)


def oracle_predicted_omega_variation(path, j):
    curve, v = _row(path, j)
    return np.asarray(curve.space.inner(cov_d_T(curve, v), curve.T)) * curve.omega


def oracle_predicted_kappa_variation(path, j):
    curve, v = _row(path, j)
    dv = cov_d_T(curve, v)
    ddv = cov_d_T(curve, dv)
    return np.asarray(
        curve.space.inner(ddv, curve.N)
        - 2.0 * curve.kappa * curve.space.inner(dv, curve.T)
        + curve.space.curvature * curve.space.inner(v, curve.N)
    )


def oracle_normal_omega_discrepancy(path, j):
    curve, _ = _row(path, j)
    if float(np.max(np.abs(oracle_tangential_component(path, j)))) > sm.NORMALITY_TOL:
        raise NormalityError("not normal")
    rho = oracle_rho_normal_component(path, j)
    general = oracle_predicted_omega_variation(path, j)
    return float(np.max(np.abs(general + rho * curve.kappa * curve.omega)))


def oracle_fd_variation(path, quantity, j, k):
    ahead, behind = path.batch.row(j + k), path.batch.row(j - k)
    return (getattr(ahead, quantity) - getattr(behind, quantity)) / (2.0 * k * path.ds)


def oracle_variation_report(path, quantity, j, k):
    predict = {"omega": oracle_predicted_omega_variation, "kappa": oracle_predicted_kappa_variation}
    predicted = predict[quantity](path, j)
    observed = oracle_fd_variation(path, quantity, j, k)
    return predicted, observed, float(np.max(np.abs(predicted - observed)))


PAIRS = [
    (sm.horizontality_defect, oracle_horizontality_defect),
    (sm.tangential_component, oracle_tangential_component),
    (sm.rho_normal_component, oracle_rho_normal_component),
    (sm.rho_kappa_defect, oracle_rho_kappa_defect),
    (va.predicted_omega_variation, oracle_predicted_omega_variation),
    (va.predicted_kappa_variation, oracle_predicted_kappa_variation),
    (va.normal_omega_discrepancy, oracle_normal_omega_discrepancy),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NormalityError, DomainError) as exc:
        return type(exc)


def _assert_rows_match(got, wants, label):
    """Row i of a whole-stack result against the i-th per-row oracle outcome."""
    assert (got is NormalityError) == all(w is NormalityError for w in wants), label
    if isinstance(got, type):
        assert got in wants, label
        return
    assert len(got) == len(wants), label
    for i, want in enumerate(wants):
        if want is NormalityError:
            assert np.all(np.isnan(got[i])), (label, i)
        else:
            assert np.array_equal(got[i], want), (label, i)


@pytest.mark.parametrize("case", list(PATHS))
class TestStackDiagnosticsMatchRowOracles:
    def test_per_sample_functions(self, case):
        path = PATHS[case]()
        for fn, oracle in PAIRS:
            wants = [_outcome(oracle, path, j) for j in range(path.m)]
            _assert_rows_match(_outcome(fn, path), wants, fn.__name__)

    @pytest.mark.parametrize("quantity", ["omega", "kappa"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_fd_variation_and_report(self, case, quantity, k):
        path = PATHS[case]()
        rows = range(k, path.m - k)
        wants = [oracle_variation_report(path, quantity, j, k) for j in rows]
        rep = va.variation_report(path, quantity, eps_steps=k)
        assert rep.quantity == quantity
        for field, got in enumerate((rep.predicted, rep.observed, rep.abs_error)):
            _assert_rows_match(got, [want[field] for want in wants], (quantity, k, field))
        _assert_rows_match(va.fd_variation(path, quantity, eps_steps=k),
                           [want[1] for want in wants], ("fd_variation", quantity, k))

    def test_diagnose_path_fields(self, case):
        path = PATHS[case]()
        diag = sm.diagnose_path(path)
        assert np.array_equal(diag.speed, sm.path_speed(path))
        normal = all(
            float(np.max(np.abs(oracle_tangential_component(path, j)))) <= sm.NORMALITY_TOL
            for j in range(path.m)
        )
        assert diag.is_normal == normal
        for j in range(path.m):
            tangential_sup = float(np.max(np.abs(oracle_tangential_component(path, j))))
            assert diag.normal[j] == (tangential_sup <= sm.NORMALITY_TOL)
        if not normal:
            assert diag.rho_kappa_sup is None
        for j in range(path.m):
            assert diag.horizontality_defect[j] == np.max(np.abs(oracle_horizontality_defect(path, j)))
            assert np.array_equal(diag.rho[j], oracle_rho_normal_component(path, j))
            assert np.array_equal(diag.tangential[j], oracle_tangential_component(path, j))
            if normal:
                assert diag.rho_kappa_sup[j] == np.max(np.abs(oracle_rho_kappa_defect(path, j)))

    def test_cached_derivatives_are_read_only(self, case):
        path = PATHS[case]()
        for values in (path.dT_velocity, path.dT2_velocity):
            assert values.shape == path.points.shape
            with pytest.raises(ValueError):
                values[0, 0, 0] = 1.0


def test_cases_cover_normal_and_non_normal_paths():
    assert sm.diagnose_path(PATHS["helix"]()).rho_kappa_sup is not None
    assert sm.diagnose_path(PATHS["torsional_elastica"]()).rho_kappa_sup is None
    normal = sm.normal_rows(PATHS["radial"]())
    assert normal[0] and not normal[1:].any()


def test_undefined_frame_on_a_normal_path_is_a_domain_error():
    # straight segments in R^3 moving sideways: normal, but kappa = 0
    t = np.linspace(0.0, 1.0, 32)
    pts = np.stack([np.stack([t, 0.0 * t + s, 0.0 * t], axis=1) for s in np.linspace(0, 1, 5)])
    path = make_path(euclidean3d(), pts, closed=False)
    with pytest.raises(DomainError, match="Frenet frame undefined"):
        sm.diagnose_path(path)
    with pytest.raises(DomainError, match="Frenet frame undefined"):
        sm.rho_kappa_defect(path)
