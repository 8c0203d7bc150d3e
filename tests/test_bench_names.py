"""The traced benchmark wraps curvespace functions by attribute name.

``bench/workloads.install_trace`` patches module attributes such as
``elastica.minimize`` and ``special_geodesics.quad``; deleting or renaming
one of them breaks the traced benchmark.  This test installs the trace on
a fresh tracer and restores it, so such a change fails here in
milliseconds.  It only reads ``bench/``.
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
