"""Checks that need a fresh interpreter: the import graph and BLAS threads.

``import curvespace`` loads numpy and no scipy module, and no later call
loads one: not the elastica run (its Jacobi functions come from a numpy
AGM), not the circle and helix solves (their quadrature is in numpy), and
not whole CLI sessions.  No file of the package imports scipy, also in
branches these runs do not reach.  The bytes of
the elastica runs and of two geodesic sessions (solve, check, distance,
render) must not depend on how many threads BLAS uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import curvespace
from curvespace.elastica import default_flat_frame, default_surface_frame

SRC = str(Path(curvespace.__file__).resolve().parents[1])


def run_python(code: str, *args: str, **env: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


IMPORT_GRAPH = """
import json, sys
import numpy as np

def heavy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import curvespace, curvespace.cli
from curvespace import cli, make_path, path_to_dict, plane, solve_concentric_geodesic, solve_helix_geodesic
from curvespace.elastica import ElasticaParams, _end_frame, default_flat_frame, optimize_elastica_path

seen = {"import": heavy()}
t = 2.0 * np.pi * np.arange(32) / 32
radii = np.linspace(1.0, 2.0, 5)[:, None, None]
path = make_path(plane(), radii * np.stack([np.cos(t), np.sin(t)], axis=-1), closed=True)
with open(sys.argv[1], "w") as fh:
    json.dump(path_to_dict(path), fh)
assert cli.run(["distance", "--input", sys.argv[1]]) == 0
seen["distance"] = heavy()
start = ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=0.0, L=2 * np.pi, frame=default_flat_frame(1.0))
end = ElasticaParams(k=0.5, lam=0.25, mu=0.0, K=0.0, L=4 * np.pi, frame=_end_frame(start, 0.5))
optimize_elastica_path((start, end), q=1, m=5, n=64)
seen["elastica"] = heavy()
traj, _ = solve_concentric_geodesic(plane(), 1.0, 2.0, m=5, n=64)
seen["circles"] = heavy()
seen["distance_1_to_2"] = traj.distance
solve_helix_geodesic(1.0, 2.0, 0.5, m=5, n=64)
seen["helices"] = heavy()
print(json.dumps(seen))
"""


def test_import_and_runs_load_no_scipy(tmp_path):
    seen = json.loads(run_python(IMPORT_GRAPH, str(tmp_path / "path.json")).splitlines()[-1])
    assert seen["import"] == seen["distance"] == seen["elastica"] == []
    assert seen["circles"] == seen["helices"] == []
    assert abs(seen["distance_1_to_2"] - 3.7098994412119352) <= 1e-9


SESSION_IMPORTS = """
import json, sys
from pathlib import Path
import curvespace.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
out = Path(sys.argv[1])
for name, solve in (("circles", ["circles", "--curvature", "1", "--r0", "0.5", "--r1", "1.2"]),
                    ("helices", ["helices", "--pitch", "0.5", "--r0", "1", "--r1", "2"])):
    path = str(out / f"{name}.json")
    calls = [solve + ["--out", path, "--traj", str(out / f"{name}.csv")],
             ["check", "--input", path, "--report", str(out / f"{name}-report.json")],
             ["distance", "--input", path]]
    if name == "circles":
        calls.append(["render", "--input", path, "--out", str(out / "circles.svg")])
    for argv in calls:
        assert cli.run(argv) == 0
seen["sessions"] = scipy_modules()
print(json.dumps(seen))
"""


def test_geodesic_sessions_load_no_scipy(tmp_path):
    # a lazy import anywhere in these sessions would bring scipy back
    # into every circles or helices process
    seen = json.loads(run_python(SESSION_IMPORTS, str(tmp_path)).splitlines()[-1])
    assert seen["sessions"] == seen["import"] == []


def test_no_package_file_imports_scipy():
    # also lazy imports in branches that no session above reaches
    found = []
    for file in sorted(Path(curvespace.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(), str(file))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [f"{file.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


CLI_RUNS = """
import sys
from pathlib import Path
from curvespace import cli

folder, out = Path(sys.argv[1]), Path(sys.argv[2])
out.mkdir()
for spec in sorted(folder.glob("*.json")):
    argv = ["elastica", "--spec", str(spec), "--control-points", "3", "--seed", "0",
            "--out", str(out / spec.name), "--trace", str(out / (spec.stem + ".csv"))]
    assert cli.run(argv) == 0
# geodesic sessions: render projects 3D paths by a matmul, check and distance reduce over them
sizes = ["--s-samples", "16", "--t-samples", "128"]
for name, solve in (("helices", ["helices", "--pitch", "0.5", "--r0", "1", "--r1", "2"] + sizes),
                    ("circles", ["circles", "--curvature", "-1", "--r0", "0.5", "--r1", "1.5"] + sizes)):
    path = str(out / f"{name}-path.json")
    for argv in (solve + ["--out", path, "--traj", str(out / f"{name}.csv")],
                 ["check", "--input", path, "--report", str(out / f"{name}-report.json")],
                 ["distance", "--input", path],
                 ["render", "--input", path, "--out", str(out / f"{name}.svg")]):
        assert cli.run(argv) == 0
"""


def endpoint_records() -> dict:
    flat = {key: list(getattr(default_flat_frame(1.0), key)) for key in ("origin", "T", "N", "B")}
    sphere = {key: list(getattr(default_surface_frame(1.0), key)) for key in ("origin", "T", "N")}

    def record(K, L, frame, start, end):
        return {"K": K, "L": L, "init_frame": frame,
                "start": dict(zip(("k", "lambda", "mu"), start)),
                "end": dict(zip(("k", "lambda", "mu"), end))}

    return {
        "criterion8": record(0.0, 2 * np.pi, flat, (1.0, 1.0, 0.0), (0.5, 0.25, 0.0)),
        "sphere": record(1.0, np.pi, sphere, (2.0, 3.0, 0.0), (1.5, 2.0, 0.0)),
        "torsional": record(0.0, 2 * np.pi, flat, (1.0, 0.6, 0.1), (0.8, 0.3, 0.05)),
    }


def test_elastica_bytes_do_not_depend_on_blas_threads(tmp_path):
    specs = tmp_path / "specs"
    specs.mkdir()
    for name, data in endpoint_records().items():
        (specs / f"{name}.json").write_text(json.dumps(data))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        stdout = run_python(CLI_RUNS, str(specs), str(out),
                            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append({"stdout": stdout, **{f.name: f.read_bytes() for f in sorted(out.iterdir())}})
    assert len(outputs[0]) == 1 + 6 + 2 * 4
    assert len(outputs[0]["stdout"].splitlines()) == 2  # the two distances
    assert outputs[0] == outputs[1]
