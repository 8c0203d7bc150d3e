"""The benchmark's three workloads, their seeded inputs and correctness gates.

Each workload object is built from a seed (that is the run's set-up: all
inputs are generated here) and then serves ops one after another.  Inputs
form a fixed cycle that the run loop repeats whole, so per-op averages of
counters are the same in every run with the same seed.  ``check`` runs
outside the timed region and raises :class:`GateFailure` on a wrong
result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

import curvespace
import curvespace.cli as cli
from curvespace import elastica as el
from curvespace import sobolev_metric as sm
from curvespace import special_geodesics as sg
from curvespace import variations as va
from curvespace.errors import DomainError

# sqrt(2 pi E) of the concentric geodesic from radius 1 to 2 in the plane,
# the distance the criterion-8 optimizer run must reproduce within 2%
FLAT_DISTANCE_1_TO_2 = 3.7098994412119352
OPTIMIZE_REL_TOL = 0.02
TORSION_TOL = 1e-12
SPEED_DRIFT_TOL = 5e-3
DISTANCE_TOL = 5e-3


def source_digest() -> str:
    """sha256 over the curvespace sources, by file name: identifies the code under test."""
    digest = hashlib.sha256()
    for path in sorted(Path(curvespace.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class GateFailure(Exception):
    """A result that came back but is wrong; ``gate`` names the check."""

    def __init__(self, gate: str, detail: str):
        super().__init__(f"{gate}: {detail}")
        self.gate = gate


class Optimize:
    """Criterion-8 elastica optimizer run: (1, 1, 0) -> (0.5, 0.25, 0), flat space."""

    name = "optimize"

    def __init__(self, seed: int, workdir: Path):
        start = el.ElasticaParams(
            k=1.0, lam=1.0, mu=0.0, K=0.0, L=2.0 * np.pi, frame=el.default_flat_frame(1.0)
        )
        end = el.ElasticaParams(
            k=0.5, lam=0.25, mu=0.0, K=0.0, L=4.0 * np.pi, frame=el._end_frame(start, 0.5)
        )
        self.seed = seed
        self.opts = el.OptimizeOptions(seed=seed)
        self.inputs = [(start, end)]
        # the trace of an earlier run of the same sources with this seed,
        # kept in the run directory; a change of the code starts a new one
        self.reference_file = workdir / f"optimize-trace-seed{seed}-{source_digest()[:16]}.json"
        self.reference = None
        if self.reference_file.is_file():
            self.reference = json.loads(self.reference_file.read_text())
        self.trace_repeat = "first run of these sources with this seed, trace recorded"
        self.finals: list[tuple[float, float, int, int]] = []

    def op(self, draw):
        return el.optimize_elastica_path(draw, q=3, m=13, n=96, opts=self.opts)

    def check(self, draw, result) -> None:
        _, trace, _ = result
        if not trace:
            raise GateFailure("trace", "empty optimizer trace")
        energies = [e for _, e in trace]
        if not all(b < a for a, b in zip(energies, energies[1:])):
            raise GateFailure("trace", "energy trace does not strictly decrease")
        dist = math.sqrt(energies[-1])
        rel = abs(dist - FLAT_DISTANCE_1_TO_2) / FLAT_DISTANCE_1_TO_2
        if not rel <= OPTIMIZE_REL_TOL:
            raise GateFailure("distance", f"sqrt(E) = {dist!r} is {rel:.2%} from the flat distance")
        recorded = [[it, e] for it, e in trace]
        if self.reference is None:
            self.reference = recorded
            self.reference_file.write_text(json.dumps(recorded))
        elif recorded != self.reference:
            raise GateFailure("trace", f"trace differs from an earlier run of the same "
                                       f"sources with seed {self.seed}")
        else:
            self.trace_repeat = "identical to an earlier run of the same sources with this seed"
        self.finals.append((dist, rel, trace[-1][0], len(trace)))

    @staticmethod
    def refused(draw, error) -> bool:
        """No curvespace error is expected on this problem."""
        return False

    def fields(self) -> dict:
        if not self.finals:
            return {"trace_repeat": self.trace_repeat}
        dist, rel, best_eval, improvements = self.finals[-1]
        return {
            "sqrt_energy": dist,
            "sqrt_energy_rel_err": rel,
            "best_at_evaluation": best_eval,
            "improvements": improvements,
            "trace_repeat": self.trace_repeat,
        }


class Curves:
    """One seeded elastic curve at n = 256: curvature profile + reconstruction.

    Draws cycle through four branches with criterion 7's ranges: K = 0
    planar-locus (mu = 0), K = 0 torsional, K = +1 and K = -1.
    """

    name = "curves"
    n = 256
    per_branch = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = [self._draw(rng, i % 4) for i in range(4 * self.per_branch)]
        self.spread = 0.0

    @staticmethod
    def _draw(rng, branch: int) -> el.ElasticaParams:
        K = (0.0, 0.0, 1.0, -1.0)[branch]
        k = rng.uniform(0.6, 1.4)
        off = rng.uniform(0.2, 1.6)
        mu = rng.uniform(0.05, 0.25) * k**3 if branch == 1 else 0.0
        # lambda on the circle locus k^6 + (2K - lambda) k^4 - 2 mu^2 = 0
        lam_locus = (k**6 + 2.0 * K * k**4 + el.MU_LOCUS_SIGN * 2.0 * mu**2) / k**4
        frame = el.default_flat_frame(k) if K == 0.0 else el.default_surface_frame(K)
        return el.ElasticaParams(k=k, lam=lam_locus - off, mu=mu, K=K, L=8.0 / k, frame=frame)

    def op(self, draw):
        kappa, tau, kappa_t = el.solve_curvature_profile(draw, self.n, with_derivative=True)
        curve = el.reconstruct_curve(draw, kappa, tau, self.n)
        return kappa, tau, kappa_t, curve

    def check(self, draw, result) -> None:
        kappa, tau, kappa_t, curve = result
        if kappa[0] != draw.k:
            raise GateFailure("amplitude", f"kappa[0] = {kappa[0]!r} != k = {draw.k!r}")
        torsion = float(np.max(np.abs(kappa**2 * tau - draw.mu)))
        if not torsion <= TORSION_TOL:
            raise GateFailure("torsion", f"|kappa^2 tau - mu| = {torsion:.3e}")
        if not np.all(np.isfinite(curve.points)):
            raise GateFailure("points", "non-finite curve points")
        integral = el.first_integral(draw, kappa, kappa_t)
        scale = max(float(np.max(np.abs(integral))), np.finfo(float).tiny)
        self.spread = max(self.spread, float(np.ptp(integral)) / scale)

    @staticmethod
    def refused(draw, error) -> bool:
        """The known K = -1 defect: ``build_curve`` rejects long hyperbolic curves.

        ``SpaceForm.check_on_surface`` has an absolute tolerance that meets
        cancellation far out on the hyperboloid.  Any other error is wrong.
        """
        return draw.K == -1.0 and type(error) is DomainError

    def fields(self) -> dict:
        return {"first_integral_rel_spread_max": self.spread}


def _strict_json(text: str):
    def reject(token):
        raise GateFailure("json", f"non-finite token {token} in JSON output")

    return json.loads(text, parse_constant=reject)


class CliGeodesics:
    """A session of in-process CLI calls on seeded circle and helix geodesics.

    circles -> check -> distance -> render, then helices -> check ->
    distance, at the default sizes (m = 64, n = 256).  The cycle holds 12
    sessions: each ambient curvature K in {0, +1, -1} with each direction
    (growing or shrinking radius) of the circles and of the helices, in
    seeded order with seeded radii and pitch.
    """

    name = "cli-geodesics"
    subcommands = ("circles", "helices", "check", "distance", "render")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # every K once per (circle, helix) direction pair, in seeded order
        plan = [(K, up, h_up) for K in (0.0, 1.0, -1.0) for up in (0, 1) for h_up in (0, 1)]
        order = rng.permutation(len(plan))
        self.inputs = [self._draw(rng, i, *plan[p]) for i, p in enumerate(order)]
        self.dir = workdir / f"cli-seed{seed}-pid{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.latencies: dict[str, list[float]] = {s: [] for s in self.subcommands}
        self.digests: dict[tuple, str] = {}
        self.distances: dict[str, float] = {}
        self.distance_err = 0.0
        self.repeats_checked = 0

    @staticmethod
    def _radii(rng, lo, mid, hi, increasing):
        r = (rng.uniform(lo, mid), rng.uniform(mid, hi))
        return r if increasing else r[::-1]

    def _draw(self, rng, index: int, K: float, up: int, h_up: int) -> dict:
        return {"index": index, "K": float(K), "r": self._radii(rng, 0.4, 1.0, 1.6, up),
                "pitch": rng.uniform(0.2, 0.8), "hr": self._radii(rng, 0.6, 1.1, 1.8, h_up)}

    def _files(self, draw) -> dict:
        tag = f"s{draw['index']}"
        names = ("c.json", "c.csv", "c-report.json", "c.svg", "h.json", "h.csv", "h-report.json")
        return {n: str(self.dir / f"{tag}-{n}") for n in names}

    def _calls(self, draw):
        f = self._files(draw)
        (r0, r1), (h0, h1) = draw["r"], draw["hr"]
        return [
            ["circles", "--curvature", repr(draw["K"]), "--r0", repr(r0), "--r1", repr(r1),
             "--out", f["c.json"], "--traj", f["c.csv"]],
            ["check", "--input", f["c.json"], "--report", f["c-report.json"]],
            ["distance", "--input", f["c.json"]],
            ["render", "--input", f["c.json"], "--out", f["c.svg"]],
            ["helices", "--pitch", repr(draw["pitch"]), "--r0", repr(h0), "--r1", repr(h1),
             "--out", f["h.json"], "--traj", f["h.csv"]],
            ["check", "--input", f["h.json"], "--report", f["h-report.json"]],
            ["distance", "--input", f["h.json"]],
        ]

    def op(self, draw):
        """Run the session; returns (argv, exit code, stdout, seconds) per call."""
        calls = []
        for argv in self._calls(draw):
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            calls.append((argv, code, out.getvalue(), time.perf_counter() - t0))
        return calls

    def check(self, draw, result) -> None:
        for argv, _, _, seconds in result:
            self.latencies[argv[0]].append(seconds)
        for argv, code, _, _ in result:
            if code != 0:
                raise GateFailure("exit_code", f"{argv[0]} exited {code}")
        f = self._files(draw)
        for name in ("c.json", "h.json", "c-report.json", "h-report.json"):
            data = _strict_json(Path(f[name]).read_text())
            if name.endswith("report.json") and not data["speed_drift"] <= SPEED_DRIFT_TOL:
                raise GateFailure("speed_drift", f"{name}: {data['speed_drift']!r}")
        for family, idx in (("c", 2), ("h", 6)):
            printed = float(result[idx][2])
            E = float(Path(f[f"{family}.csv"]).read_text().splitlines()[1].split(",")[2])
            err = abs(printed - math.sqrt(2.0 * math.pi * E))
            if not err <= DISTANCE_TOL:
                raise GateFailure("distance", f"{family}: printed {printed!r}, |err| = {err:.3e}")
            self.distance_err = max(self.distance_err, err)
            label = f"circles_K{draw['K']:+.0f}" if family == "c" else "helices"
            self.distances[f"session{draw['index']}.{label}"] = printed
        self._check_repeat(draw, result, f)

    def _check_repeat(self, draw, result, files) -> None:
        """Identical invocations must give identical bytes, output files and stdout."""
        outputs = {name: Path(p).read_bytes() for name, p in files.items()}
        outputs.update({f"stdout{i}": out.encode() for i, (_, _, out, _) in enumerate(result)})
        key = draw["index"]
        repeated = any((key, name) in self.digests for name in outputs)
        for name, data in outputs.items():
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault((key, name), digest) != digest:
                raise GateFailure("repeat_bytes", f"{name} changed between identical sessions")
        self.repeats_checked += repeated

    def recheck(self) -> None:
        """Run the cycle's first session once more and compare its bytes.

        The run loop calls this untimed and untraced after its ops, so
        identical invocations are compared in every run, also in one that
        makes a single cycle.
        """
        draw = self.inputs[0]
        if (draw["index"], "stdout0") not in self.digests:
            return  # the session failed in the timed ops and was counted there
        result = self.op(draw)
        for argv, code, _, _ in result:
            if code != 0:
                raise GateFailure("exit_code", f"{argv[0]} exited {code} on the repeat")
        self._check_repeat(draw, result, self._files(draw))

    @staticmethod
    def refused(draw, error) -> bool:
        """No curvespace error is expected in these sessions."""
        return False

    def fields(self) -> dict:
        return {
            "distances": dict(sorted(self.distances.items())),
            "distance_abs_err_max": self.distance_err,
            "repeat_sessions_checked": self.repeats_checked,
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Optimize, Curves, CliGeodesics)}


# ---------------------------------------------------------------------------
# trace points: (module, attribute, span name), in the namespaces the
# callers look the names up in


def install_trace(tracer) -> None:
    """Wrap every traced curvespace entry point; ``tracer.restore()`` undoes it."""
    patch = tracer.patch
    patch(el, "optimize_elastica_path", "elastica.optimize_elastica_path")
    patch(el, "minimize", "elastica.minimize", before=_objective_hook(tracer),
          after=lambda res: tracer.count("elastica.minimize.nit", int(res.nit)))
    patch(el, "elastica_path_energy", "elastica.elastica_path_energy")
    patch(el, "materialize_path", "elastica.materialize_path")
    patch(el, "solve_curvature_profile", "elastica.solve_curvature_profile")
    patch(el, "reconstruct_curve", "elastica.reconstruct_curve")
    patch(el, "path_energy", "sobolev_metric.path_energy")
    count_samples = _sample_hook(tracer)
    for module in (el, sm):
        patch(module, "build_curve", "discrete_curves.build_curve", before=count_samples)
    for module in (sm, sg):
        patch(module, "make_path", "sobolev_metric.make_path")
    for attr in ("path_to_dict", "path_from_dict", "diagnose_path", "path_length",
                 "rho_kappa_defect"):
        patch(sm, attr, f"sobolev_metric.{attr}")
    patch(va, "variation_report", "variations.variation_report")
    patch(sg, "solve_concentric_geodesic", "special_geodesics.solve_concentric_geodesic")
    patch(sg, "solve_helix_geodesic", "special_geodesics.solve_helix_geodesic")
    patch(sg, "quad", "special_geodesics.quad")
    patch(sg, "exp_polar", "space_forms.exp_polar")
    before, after = _io_hooks(tracer)
    patch(cli, "run", "cli.run", before=before, after=after)


def _sample_hook(tracer):
    def before(args, kwargs):
        points = args[1] if len(args) > 1 else kwargs["points"]
        tracer.count("discrete_curves.build_curve.samples", len(points))
        return args, kwargs

    return before


def _objective_hook(tracer):
    """Wrap the objective handed to ``minimize`` to classify its outcomes."""

    def before(args, kwargs):
        objective = args[0]

        def classified(x, *rest):
            energy_calls = tracer.counters["elastica.elastica_path_energy.calls"]
            value = objective(x, *rest)
            if math.isfinite(value):
                tracer.count("elastica.objective.finite")
            elif tracer.counters["elastica.elastica_path_energy.calls"] == energy_calls:
                tracer.count("elastica.objective.rejected_bounds")
            return value

        return (tracer.wrap("elastica.objective", classified),) + tuple(args[1:]), kwargs

    return before


def _io_hooks(tracer):
    """Count the bytes a CLI call reads from and writes to files, by file size."""
    argv = []

    def before(args, kwargs):
        argv[:] = args[0]
        for flag, value in zip(argv, argv[1:]):
            if flag == "--input":
                tracer.count("cli.bytes_read", Path(value).stat().st_size)
        return args, kwargs

    def after(_):
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--out", "--traj", "--report"):
                tracer.count("cli.bytes_written", Path(value).stat().st_size)

    return before, after
