"""Command-line front end: solve, check, measure, and render curve paths.

Subcommands
-----------
circles    solve a concentric-circle geodesic and write the path JSON
helices    solve a coaxial-helix geodesic and write the path JSON
elastica   optimize a path of elastic curves between two parameter triples
check      run speed / horizontality / variation diagnostics on a path file
distance   print the Sobolev path length of a path file
render     draw the path as an SVG (one polyline per s-sample)

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 invalid input file.
A failed command writes no output file; ``--help`` returns 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import elastica as el
from . import sobolev_metric as sm
from . import special_geodesics as sg
from . import variations as va
from .errors import (
    CapabilityError,
    CurveSpaceError,
    DomainError,
    InputFormatError,
    NormalityError,
    NumericFailure,
    PreconditionError,
)
from .space_forms import surface_of_curvature

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INPUT = 3

# Bound on the arrays one invocation may ask for, checked before any array
# exists: the s x t points of a path (--s-samples times --t-samples), and
# --control-points squared (the spline through q + 2 nodes and the Gauss-Newton
# Hessian of the 3q coordinates are quadratic in q).  A larger request is a
# usage error, exit 1.
MAX_SAMPLES = 1 << 20


@dataclass(frozen=True)
class Command:
    """Parsed invocation: one subcommand plus its validated options."""

    subcommand: str
    options: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through exit code 1
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports the ValueError as a usage error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)  # argparse reports the ValueError as a usage error
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="curvespace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("circles", help="concentric-circle geodesic")
    p.add_argument("--curvature", type=_finite_float, required=True)
    p.add_argument("--r0", type=_finite_float, required=True)
    p.add_argument("--r1", type=_finite_float, required=True)
    p.add_argument("--s-samples", type=_positive_int, default=64)
    p.add_argument("--t-samples", type=_positive_int, default=256)
    p.add_argument("--out", required=True)
    p.add_argument("--traj", default=None)

    p = sub.add_parser("helices", help="coaxial-helix geodesic")
    p.add_argument("--pitch", type=_finite_float, required=True)
    p.add_argument("--r0", type=_finite_float, required=True)
    p.add_argument("--r1", type=_finite_float, required=True)
    p.add_argument("--s-samples", type=_positive_int, default=64)
    p.add_argument("--t-samples", type=_positive_int, default=256)
    p.add_argument("--out", required=True)
    p.add_argument("--traj", default=None)

    p = sub.add_parser("elastica", help="energy-minimizing path of elastica")
    p.add_argument("--spec", required=True)
    p.add_argument("--control-points", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonneg_int, default=0,
                   help="accepted; has no effect (the trust-region search is deterministic)")
    p.add_argument("--s-samples", type=_positive_int, default=17)
    p.add_argument("--t-samples", type=_positive_int, default=128)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", required=True)

    p = sub.add_parser("check", help="diagnostics report for a path file")
    p.add_argument("--input", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("distance", help="Sobolev length of a path file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("render", help="SVG figure of a path file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    return parser


def parse_command(argv) -> Command:
    ns = _build_parser().parse_args(argv)
    options = {k: v for k, v in vars(ns).items() if k != "subcommand"}
    _check_sample_counts(options)
    return Command(subcommand=ns.subcommand, options=options)


def _check_sample_counts(options: dict) -> None:
    """Refuse sample counts past ``MAX_SAMPLES`` before anything is allocated."""
    s, t = options.get("s_samples", 1), options.get("t_samples", 1)
    if s * t > MAX_SAMPLES:
        raise _UsageError(f"--s-samples x --t-samples = {s * t} exceeds {MAX_SAMPLES}")
    q = options.get("control_points", 1)
    if q * q > MAX_SAMPLES:
        raise _UsageError(f"--control-points squared = {q * q} exceeds {MAX_SAMPLES}")


# ---------------------------------------------------------------------------
# shared IO helpers


def _json_text(data, out_path: str) -> str:
    try:  # strict JSON has no NaN or infinity; fail before any file exists
        return json.dumps(data, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericFailure(f"{out_path}: result is not finite") from exc


def _write_outputs(outputs: dict) -> None:
    """Write every output file or none: a failed write removes the ones before it."""
    written = []
    try:
        for out_path, text in outputs.items():
            with open(out_path, "w") as fh:
                written.append(out_path)
                fh.write(text)
    except OSError:
        for out_path in written:
            os.remove(out_path)
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad syntax or UTF-8, an integer past the digit limit, too deep a nesting
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: expected a JSON object")
    return data


def _load_path(path_file: str) -> sm.CurvePath:
    data = _load_json(path_file)
    try:
        return sm.path_from_dict(data)
    except CurveSpaceError as exc:
        raise InputFormatError(f"{path_file}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_circles(opt) -> int:
    space = surface_of_curvature(opt["curvature"])
    traj, path = sg.solve_concentric_geodesic(
        space, opt["r0"], opt["r1"], m=opt["s_samples"], n=opt["t_samples"]
    )
    return _write_path_and_traj(opt, sm.path_to_dict(path), traj)


def _cmd_helices(opt) -> int:
    traj, path = sg.solve_helix_geodesic(
        opt["r0"], opt["r1"], opt["pitch"], m=opt["s_samples"], n=opt["t_samples"]
    )
    return _write_path_and_traj(opt, sm.path_to_dict(path, pitch=opt["pitch"]), traj)


def _write_path_and_traj(opt, path_data: dict, traj: sg.RadiusTrajectory) -> int:
    outputs = {opt["out"]: _json_text(path_data, opt["out"])}
    if opt["traj"] is not None:
        outputs[opt["traj"]] = sg.trajectory_to_csv(traj)
    _write_outputs(outputs)
    return EXIT_OK


def _cmd_elastica(opt) -> int:
    data = _load_json(opt["spec"])
    try:
        endpoints = el.endpoints_from_dict(data)
    except CurveSpaceError as exc:
        raise InputFormatError(f"{opt['spec']}: {exc}") from exc
    spec, trace, path = el.optimize_elastica_path(
        endpoints,
        q=opt["control_points"],
        m=opt["s_samples"],
        n=opt["t_samples"],
        opts=el.OptimizeOptions(seed=opt["seed"]),
    )
    _write_outputs({
        opt["out"]: _json_text(sm.path_to_dict(path), opt["out"]),
        opt["trace"]: "iter,energy\n" + "".join(f"{it},{energy!r}\n" for it, energy in trace),
    })
    return EXIT_OK


def _variation_block(path: sm.CurvePath, normal: bool) -> dict:
    # the middle row j; a report with eps_steps = k holds rows k .. m-1-k;
    # each prediction is computed once and shared by the reports
    j = path.m // 2
    block = {}
    for quantity in va.VARIATION_QUANTITIES:
        predicted = va.predicted_variation(path, quantity)
        report = va.variation_report(path, quantity, predicted=predicted)
        sup_error = float(report.abs_error[j - 1])
        entry = {"sup_error": sup_error}
        # factor between the 2*ds and ds oracles; ~4 for second-order
        # agreement, omitted once the error sits at the roundoff floor
        if 2 <= j <= path.m - 3 and sup_error > 1e-12:
            coarse = va.variation_report(path, quantity, eps_steps=2, predicted=predicted)
            entry["convergence_factor"] = float(coarse.abs_error[j - 2]) / sup_error
        if quantity == "omega" and normal:
            entry["normal_form_discrepancy"] = float(va.normal_omega_discrepancy(path, predicted)[j])
        block[quantity] = entry
    return block


def _cmd_check(opt) -> int:
    path = _load_path(opt["input"])
    diag = sm.diagnose_path(path)
    report = {
        "speed": diag.speed.tolist(),
        "speed_drift": diag.speed_drift,
        "normal": diag.is_normal,
        "horizontality_sup": diag.horizontality_defect.tolist(),
        "rho_kappa_sup": None if diag.rho_kappa_sup is None else diag.rho_kappa_sup.tolist(),
        "variations": _variation_block(path, diag.is_normal),
    }
    _write_outputs({opt["report"]: _json_text(report, opt["report"])})
    return EXIT_OK


def _cmd_distance(opt) -> int:
    path = _load_path(opt["input"])
    distance = sm.path_length(path)
    if not math.isfinite(distance):
        raise NumericFailure(f"path length is not finite: {distance}")
    print(f"{distance:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering (static figure, no timestamps: byte-deterministic)

_VIEW = 720.0
_MARGIN = 40.0
# fixed orthographic view for space curves: azimuth 30deg, elevation 22deg
_AZ, _EL = np.radians(30.0), np.radians(22.0)
_PROJ3 = np.array(
    [
        [np.cos(_AZ), np.sin(_AZ), 0.0],
        [-np.sin(_AZ) * np.sin(_EL), np.cos(_AZ) * np.sin(_EL), np.cos(_EL)],
    ]
)


def _project(points: np.ndarray) -> np.ndarray:
    if points.shape[-1] == 2:
        return points
    return points @ _PROJ3.T


def _render_svg(path: sm.CurvePath) -> str:
    pts = _project(path.points)
    lo = pts.min(axis=(0, 1))
    hi = pts.max(axis=(0, 1))
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    scale = (_VIEW - 2.0 * _MARGIN) / span
    if path.closed:
        pts = np.concatenate([pts, pts[:, :1]], axis=1)
    xs = _MARGIN + (pts[..., 0] - lo[0]) * scale
    ys = _VIEW - _MARGIN - (pts[..., 1] - lo[1]) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW:.0f}" '
        f'height="{_VIEW:.0f}" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    template = " ".join(["%.2f,%.2f"] * xs.shape[1])
    for j, xy in enumerate(np.stack([xs, ys], axis=-1).reshape(len(xs), -1).tolist()):
        coord = template % tuple(xy)
        if j == 0:
            style = 'stroke="#1a9641" stroke-width="2.2"'
        elif j == path.m - 1:
            style = 'stroke="#2b83ba" stroke-width="2.2"'
        else:
            style = 'stroke="#bbbbbb" stroke-width="0.8"'
        lines.append(f'<polyline points="{coord}" fill="none" {style}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(opt) -> int:
    path = _load_path(opt["input"])
    _write_outputs({opt["out"]: _render_svg(path)})
    return EXIT_OK


_HANDLERS = {
    "circles": _cmd_circles,
    "helices": _cmd_helices,
    "elastica": _cmd_elastica,
    "check": _cmd_check,
    "distance": _cmd_distance,
    "render": _cmd_render,
}


def run(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        command = parse_command(list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # argparse exits only after printing --help
        return EXIT_OK
    try:
        # non-finite results surface through the checks, not as warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _HANDLERS[command.subcommand](command.options)
    except InputFormatError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, PreconditionError, NormalityError, CapabilityError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
