"""The benchmark reaches curvespace by attribute name and by signature.

``bench/workloads.install_trace`` patches module attributes such as
``elastica.minimize`` and ``special_geodesics.quad``; deleting or renaming
one of them breaks the traced benchmark.  The first test installs the
trace on a fresh tracer and restores it.  The untraced workloads call
further names, positional signatures and CLI flags; the second test runs
one op of each kind through its gate.  Both fail in well under a second
on such a change, and only read ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_trace_finds_and_restores_every_name(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    tracer = tracing.Tracer()
    try:
        workloads.install_trace(tracer)
        patched = list(tracer._originals)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"


def test_untraced_workloads_build_run_and_pass_their_gates(monkeypatch, tmp_path):
    # the untraced run also reaches names install_trace leaves alone
    # (``el._end_frame``, ``el.first_integral``, ``el.MU_LOCUS_SIGN``,
    # ``el.default_surface_frame``, positional ``reconstruct_curve``) and the
    # CLI flags of a session; one op of each kind keeps this fast
    workloads = _load("workloads", monkeypatch)
    optimize = workloads.Optimize(1, tmp_path)
    draw = optimize.inputs[0]
    optimize.check(draw, optimize.op(draw))

    curves = workloads.Curves(1, tmp_path)
    for draw in curves.inputs[:4]:  # one draw per branch
        curves.check(draw, curves.op(draw))

    import curvespace.cli as cli

    session = workloads.CliGeodesics(1, tmp_path)
    try:
        for argv in session._calls(session.inputs[0]):
            assert cli.parse_command(argv).subcommand == argv[0]
    finally:
        session.close()
