"""Boundary tests of the CLI: mutated argv lists and mutated JSON input files.

Every case holds ``cli.run`` to its exit-code contract:

* it returns 0, 1, 2 or 3 and raises nothing;
* a non-zero exit prints exactly one stderr line with the documented
  prefix, and leaves no output file (the work directory is unchanged);
* an exit 0 prints nothing to stderr and writes only strict JSON with
  finite numbers (CSV, SVG and stdout hold no nan or inf either).

The mutations are type swaps, booleans, strings, huge integers, deep
nesting, truncation, wrong shapes, documented keys a file lacks (a
``"pitch"`` on a circle path) and whole arrays scaled toward overflow.
The library entry points that take sample counts are held to one size
contract too: an integer (numpy's included) or :class:`PreconditionError`.
Hypothesis runs derandomized, as in ``test_properties.py``, so the suite
is deterministic.  Every size stays far below ``cli.MAX_SAMPLES``; the
bound is met only through its check, with counts whose product is refused
before anything is allocated.  The argv strings contain no NUL byte,
which no process argument can hold.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvespace import (
    PreconditionError,
    optimize_elastica_path,
    path_to_dict,
    plane,
    reconstruct_curve,
    solve_concentric_geodesic,
    solve_curvature_profile,
    solve_helix_geodesic,
    sphere,
)
from curvespace.cli import MAX_SAMPLES, run
from curvespace.elastica import (
    ElasticaParams,
    _end_frame,
    default_flat_frame,
    default_surface_frame,
    generate_curve,
)

FUZZ = settings(derandomize=True, max_examples=80, deadline=None, database=None)

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)
PREFIXES = {1: ("usage error: ",), 2: ("numeric failure: ",), 3: ("invalid input: ", "io error: ")}

# ---------------------------------------------------------------------------
# valid inputs, small


def _path_docs():
    _, circles = solve_concentric_geodesic(plane(), 1.0, 1.5, m=5, n=16)
    _, on_sphere = solve_concentric_geodesic(sphere(1.0), 0.5, 1.0, m=5, n=16)
    _, helices = solve_helix_geodesic(1.0, 1.4, 0.3, m=5, n=16)
    return {
        "plane": path_to_dict(circles),
        "sphere": path_to_dict(on_sphere),
        "helix": path_to_dict(helices, pitch=0.3),
    }


def _spec_doc():
    # identical endpoints stop the search after its first visit; a mutation
    # that makes them differ runs a small search (see ELASTICA_SIZES)
    frame = default_surface_frame(1.0)
    triple = {"k": 2.0, "lambda": 6.0, "mu": 0.0}
    return {"K": 1.0, "L": 3.0, "start": dict(triple), "end": dict(triple),
            "init_frame": {"origin": frame.origin.tolist(), "T": frame.T.tolist(),
                           "N": frame.N.tolist()}}


PATH_DOCS = _path_docs()
SPEC_DOC = _spec_doc()
ELASTICA_SIZES = ["--control-points", "1", "--s-samples", "3", "--t-samples", "64"]

VALID_ARGV = {
    "circles": ["circles", "--curvature", "-1", "--r0", "0.5", "--r1", "1.2", "--s-samples", "5",
                "--t-samples", "16", "--out", "path.json", "--traj", "traj.csv"],
    "helices": ["helices", "--pitch", "0.3", "--r0", "1.0", "--r1", "1.4", "--s-samples", "5",
                "--t-samples", "16", "--out", "path.json", "--traj", "traj.csv"],
    "elastica": ["elastica", "--spec", "spec.json", "--seed", "0", "--out", "path.json",
                 "--trace", "trace.csv"],
    "check": ["check", "--input", "in.json", "--report", "report.json"],
    "distance": ["distance", "--input", "in.json"],
    "render": ["render", "--input", "in.json", "--out", "fig.svg"],
}

# ---------------------------------------------------------------------------
# the contract


@contextlib.contextmanager
def _workdir(files):
    """A fresh temporary working directory holding ``files`` (name -> bytes)."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _assert_finite_json(value):
    if isinstance(value, dict):
        for item in value.values():
            _assert_finite_json(item)
    elif isinstance(value, list):
        for item in value:
            _assert_finite_json(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


def _reject_constant(token):
    raise AssertionError(f"non-finite token {token} in JSON output")


def _assert_output(name, data):
    text = data.decode("utf-8")
    if text.startswith("{"):
        _assert_finite_json(json.loads(text, parse_constant=_reject_constant))
    else:
        assert not NON_FINITE.search(text), name


def assert_contract(argv, files):
    """Run ``argv`` in a directory holding ``files`` and check the exit contract."""
    with _workdir(files) as directory:
        before = _snapshot(directory)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        after = _snapshot(directory)
    assert code in (0, 1, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(PREFIXES[code]), (argv, err.getvalue())
        assert out.getvalue() == ""
        assert after == before, f"{argv} exited {code} and left {set(after) - set(before)}"
        return code
    assert err.getvalue() == "", argv
    for name, data in after.items():
        if before.get(name) != data:
            _assert_output(name, data)
    _assert_output("stdout", out.getvalue().encode())
    return code


# ---------------------------------------------------------------------------
# argv mutations

TOKENS = [
    "", " ", ".", "0", "-0", "1", "2", "3", "7", "8", "64", "-1", "0.5", "1e308", "-1e308",
    "1e400", "nan", "inf", "-inf", "true", "false", "null", "[1, 2]", "{}", "abc", "é",
    "0x10", "1_0", "9" * 30, "9" * 5000, str(MAX_SAMPLES), str(MAX_SAMPLES + 1),
    "--out", "--r0", "--t-samples", "--input", "--spec", "-h", "--help",
    "in.json", "spec.json", "circles", "check",
]

argv_edits = st.lists(
    st.one_of(
        st.tuples(st.just("replace"), st.integers(0, 20), st.sampled_from(TOKENS)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.just(None)),
        st.tuples(st.just("insert"), st.integers(0, 20), st.sampled_from(TOKENS)),
        st.tuples(st.just("swap"), st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.just("truncate"), st.integers(0, 20), st.just(None)),
    ),
    min_size=1,
    max_size=3,
)


def mutate_argv(argv, edits):
    argv = list(argv)
    for kind, i, arg in edits:
        i = i % (len(argv) + 1)
        if kind == "replace" and i < len(argv):
            argv[i] = arg
        elif kind == "delete" and i < len(argv):
            del argv[i]
        elif kind == "insert":
            argv.insert(i, arg)
        elif kind == "swap" and argv:
            j = arg % len(argv)
            i = i % len(argv)
            argv[i], argv[j] = argv[j], argv[i]
        elif kind == "truncate":
            argv = argv[:i]
    return argv


def _valid_files():
    return {"in.json": json.dumps(PATH_DOCS["plane"]).encode(),
            "spec.json": json.dumps(SPEC_DOC).encode()}


class TestValidInputs:
    def test_every_subcommand_exits_zero(self):
        for argv in VALID_ARGV.values():
            assert assert_contract(argv, _valid_files()) == 0, argv
        for doc in PATH_DOCS.values():
            for argv in (VALID_ARGV["check"], VALID_ARGV["distance"], VALID_ARGV["render"]):
                files = {"in.json": json.dumps(doc).encode()}
                assert assert_contract(argv, files) == 0, argv

    def test_help_returns_zero(self):
        for argv in (["--help"], ["check", "-h"]):
            assert assert_contract(argv, {}) == 0

    def test_sample_bound_refused_through_its_check(self):
        # s x t one past the bound, and q^2 one past it: refused at parse time
        argv = VALID_ARGV["circles"][:7] + ["--s-samples", "1", "--t-samples", str(MAX_SAMPLES + 1),
                                            "--out", "path.json"]
        assert assert_contract(argv, {}) == 1
        argv = VALID_ARGV["elastica"] + ["--control-points", str(math.isqrt(MAX_SAMPLES) + 1)]
        assert assert_contract(argv, _valid_files()) == 1

    def test_elastica_grid_below_the_profile_floor(self):
        # refused when the path spec is built, before the search
        argv = VALID_ARGV["elastica"] + ["--t-samples", "63"]
        assert assert_contract(argv, _valid_files()) == 1


class TestOutputFiles:
    @pytest.mark.parametrize("command, option", [
        ("circles", "--traj"), ("helices", "--traj"), ("elastica", "--trace"),
    ])
    def test_unwritable_second_output_leaves_no_file(self, command, option):
        # the path JSON is written first; the directory "." then cannot be
        argv = VALID_ARGV[command] + [option, "."]
        assert assert_contract(argv, _valid_files()) == 3


def _far_hyperboloid_doc():
    # circles of radius 400, 401 and 402 about the pole: <p, p> overflows
    t = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    r = np.array([400.0, 401.0, 402.0])[:, None]
    points = np.stack([np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t), np.cosh(r) + 0 * t], axis=-1)
    return {"space": {"model": "hyperbolic2d", "curvature": -1.0}, "closed": True,
            "t_samples": 16, "s_samples": 3, "points": points.tolist()}


class TestFarHyperboloid:
    @pytest.mark.parametrize("command", ["check", "distance", "render"])
    def test_overflowing_points_are_invalid_input(self, command):
        # their surface distance is NaN: refused like any point off the surface
        files = {"in.json": json.dumps(_far_hyperboloid_doc()).encode()}
        assert assert_contract(VALID_ARGV[command], files) == 3


class TestMutatedArgv:
    @FUZZ
    @given(command=st.sampled_from(sorted(VALID_ARGV)), edits=argv_edits)
    def test_exit_contract(self, command, edits):
        assert_contract(mutate_argv(VALID_ARGV[command], edits), _valid_files())


# ---------------------------------------------------------------------------
# JSON mutations

VALUES = [
    "1.0", "", True, False, None, 0, -1, 2.5, 1e308, -1e308, float("nan"), float("inf"),
    10**400, 2**64, [], {}, [1.0], [[1.0, 2.0]], {"model": "plane2d"}, "plane2d",
]
DEEP = "\x00deep\x00"
# the documented keys a valid document may lack, with the path to their dict
OPTIONAL_KEYS = {"path": [((), "pitch")], "spec": [(("init_frame",), "B")]}


def locations(doc):
    """Paths to every value, through the first and last element of each list."""
    found = []

    def walk(value, path):
        found.append(path)
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + (key,))
        elif isinstance(value, list) and value:
            for index in sorted({0, len(value) - 1}):
                walk(value[index], path + (index,))

    walk(doc, ())
    return found


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


json_edits = st.tuples(
    st.sampled_from(["replace", "delete", "duplicate", "wrap", "deep", "transpose", "add", "scale"]),
    st.integers(0, 10**6),
    st.sampled_from(VALUES),
)
text_edits = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("bad_byte"), st.floats(0.0, 1.0)),
)


def _scaled(value, factor):
    """``value`` with every number in it (booleans aside) multiplied by ``factor``."""
    if isinstance(value, list):
        return [_scaled(item, factor) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * factor
    return value


def mutate_doc(doc, edit, text_edit, optional=()) -> bytes:
    """The mutated document as file bytes; "add" inserts one of the ``optional``
    (path to a dict, key) pairs that the document lacks, "scale" multiplies the
    numbers of one array by a float value (1e308 moves it toward overflow)."""
    doc = json.loads(json.dumps(doc))
    kind, pick, value = edit
    paths = locations(doc)[1:]
    path = paths[pick % len(paths)]
    parent, key = _parent(doc, path), path[-1]
    if kind == "add":
        lacking = [where + (name,) for where, name in optional
                   if name not in _parent(doc, where + (name,))]
        if lacking:
            added = lacking[pick % len(lacking)]
            _parent(doc, added)[added[-1]] = value
    elif kind == "scale" and isinstance(value, float) and isinstance(parent[key], list):
        parent[key] = _scaled(parent[key], value)
    elif kind == "replace":
        parent[key] = value
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif kind == "duplicate":
        parent[key] = [parent[key], parent[key]]
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "deep":
        parent[key] = DEEP
    elif kind == "transpose" and np.ndim(parent[key]) >= 2:
        parent[key] = np.swapaxes(np.array(parent[key]), 0, -1).tolist()
    text = json.dumps(doc)
    depth = 10 ** (1 + pick % 5)  # 10 .. 100 000 levels
    text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    data = text.encode()
    if text_edit is not None:
        at = int(text_edit[1] * len(data))
        data = data[:at] if text_edit[0] == "truncate" else data[:at] + b"\xff" + data[at:]
    return data


class TestMutatedJson:
    @FUZZ
    @given(family=st.sampled_from(sorted(PATH_DOCS)), edit=json_edits, text_edit=text_edits)
    def test_path_files(self, family, edit, text_edit):
        files = {"in.json": mutate_doc(PATH_DOCS[family], edit, text_edit, OPTIONAL_KEYS["path"])}
        for command in ("check", "distance", "render"):
            assert_contract(VALID_ARGV[command], files)

    @FUZZ
    @given(edit=json_edits, text_edit=text_edits)
    def test_endpoint_files(self, edit, text_edit):
        files = {"spec.json": mutate_doc(SPEC_DOC, edit, text_edit, OPTIONAL_KEYS["spec"])}
        assert_contract(VALID_ARGV["elastica"] + ELASTICA_SIZES, files)


# ---------------------------------------------------------------------------
# sample counts at the library entry points


def _circle_endpoints():
    start = ElasticaParams(k=1.0, lam=1.0, mu=0.0, K=0.0, L=2 * np.pi, frame=default_flat_frame(1.0))
    end = ElasticaParams(k=0.5, lam=0.25, mu=0.0, K=0.0, L=4 * np.pi, frame=_end_frame(start, 0.5))
    return start, end


# each entry point with its sizes as keywords: small valid values
SIZED_CALLS = {
    "optimize_elastica_path": (
        lambda **sizes: optimize_elastica_path(_circle_endpoints(), **sizes), dict(q=1, m=5, n=64)
    ),
    "solve_curvature_profile": (
        lambda **sizes: solve_curvature_profile(_circle_endpoints()[0], **sizes), dict(n=64)
    ),
    "generate_curve": (lambda **sizes: generate_curve(_circle_endpoints()[0], **sizes), dict(n=64)),
    "reconstruct_curve": (
        lambda n: reconstruct_curve(_circle_endpoints()[0], np.ones(64), np.zeros(64), n), dict(n=64)
    ),
    "solve_helix_geodesic": (
        lambda **sizes: solve_helix_geodesic(1.0, 1.4, 0.3, **sizes), dict(m=5, n=16)
    ),
    "solve_concentric_geodesic": (
        lambda **sizes: solve_concentric_geodesic(plane(), 1.0, 1.5, **sizes), dict(m=5, n=16)
    ),
}
SIZE_CASES = [(name, key) for name, (_, sizes) in SIZED_CALLS.items() for key in sizes]


class TestLibrarySizes:
    @pytest.mark.parametrize("bad", [float, bool, str, np.float64], ids=lambda t: t.__name__)
    @pytest.mark.parametrize("name, key", SIZE_CASES, ids=[f"{n}-{k}" for n, k in SIZE_CASES])
    def test_non_integral_size_is_a_precondition_error(self, name, key, bad):
        call, sizes = SIZED_CALLS[name]
        value = bad(sizes[key])  # 64.0, True, "64", ...: equal or truthy, but no integer
        with pytest.raises(PreconditionError, match=f"need an integer {key} >= "):
            call(**{**sizes, key: value})

    @pytest.mark.parametrize("name", sorted(SIZED_CALLS))
    def test_numpy_integer_sizes_are_accepted(self, name):
        call, sizes = SIZED_CALLS[name]
        assert call(**{key: np.int64(v) for key, v in sizes.items()}) is not None
