"""Tests of the benchmark's own code.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_checkout()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curvespace.errors import (  # noqa: E402
    DomainError,
    NumericFailure,
    OptimizationFailure,
    PreconditionError,
)
from workloads import CliGeodesics, Curves, GateFailure, Optimize  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(cmd):
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# inputs


def _curve_key(p):
    return (p.k, p.lam, p.mu, p.K, p.L, p.frame.origin.tolist())


def test_inputs_are_deterministic_per_seed(tmp_path):
    a, b, c = (Curves(s, tmp_path) for s in (3, 3, 4))
    assert [_curve_key(p) for p in a.inputs] == [_curve_key(p) for p in b.inputs]
    assert [_curve_key(p) for p in a.inputs] != [_curve_key(p) for p in c.inputs]
    assert [p.K for p in a.inputs[:4]] == [0.0, 0.0, 1.0, -1.0]

    a, b, c = (CliGeodesics(s, tmp_path) for s in (3, 3, 4))
    assert a.inputs == b.inputs and a.inputs != c.inputs
    assert sorted(d["K"] for d in a.inputs) == [-1.0] * 4 + [0.0] * 4 + [1.0] * 4
    for wl in (a, b, c):
        wl.close()

    assert Optimize(5, tmp_path).opts.seed == 5


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_the_union_of_direct_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("child", 1.0, 3.0, 0, 0),
        S("child", 2.0, 5.0, 0, 0),  # overlaps the first child
        S("leaf", 2.5, 4.5, 2, 0),  # grandchild: not subtracted from root
        S("child", 8.0, 12.0, 0, 0),  # sticks out past the root's end
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got["child"] == pytest.approx(2.0 + (3.0 - 2.0) + 4.0)
    assert got["leaf"] == pytest.approx(2.0)
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_tracer_records_calls_failures_and_nesting():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: 1 / x)
    outer = tr.wrap("outer", lambda x: inner(x))
    assert outer(2.0) == 0.5
    with pytest.raises(ZeroDivisionError):
        outer(0.0)
    assert tr.counters["outer.calls"] == 2 and tr.counters["inner.calls"] == 2
    assert tr.counters["inner.failed.ZeroDivisionError"] == 1
    assert [s.parent for s in tr.spans] == [-1, 0, -1, 2]


def test_traced_runs_restore_every_wrapped_attribute():
    probe = tracing.Tracer()
    workloads.install_trace(probe)
    originals = list(probe._originals)
    probe.restore()
    assert len(originals) >= 20
    for module, attr, original in originals:
        assert getattr(module, attr) is original

    for name, seed in (("curves", 1), ("cli-geodesics", 2)):
        tr = tracing.Tracer()
        res = run.run_workload(name, seed, 0.0, tr)
        assert res["ops"] == len(res["workload"].inputs) and res["correct"]
        assert tr.spans and all(s is not None for s in tr.spans)
        for module, attr, original in originals:
            assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"
        if name == "cli-geodesics":
            # 7 calls per session, each building the 64 curves of one path
            assert tr.counters["discrete_curves.build_curve.calls"] == 448 * res["ops"]
            assert tr.counters["cli.bytes_written"] > 0 and tr.counters["cli.bytes_read"] > 0
            # one cycle, and the untraced repeat of its first session after it
            assert res["workload"].fields()["repeat_sessions_checked"] == 1


def test_speed_probe_splits_out_its_samples():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 1.5, 3.0]
    probe.durations = [0.01, 0.02, 0.04, 0.01]
    assert probe.split(1.2, 2.0) == pytest.approx((0.8 - 0.04, 0.04))
    assert probe.split(0.5, 1.6) == pytest.approx((1.1 - 0.06, 0.03))
    # no sample inside: the last one before the interval is the reference
    assert probe.split(2.0, 2.5) == pytest.approx((0.5, 0.04))


def test_speed_probe_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t_end = time.perf_counter() + 0.7
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(probe.durations) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


# ---------------------------------------------------------------------------
# gates


def _gate(fn, *args):
    with pytest.raises(GateFailure) as info:
        fn(*args)
    return info.value.gate


def test_optimize_gates(tmp_path, monkeypatch):
    wl = Optimize(7, tmp_path)
    good = [(1, 14.5), (728, 13.780641708965554)]
    assert _gate(wl.check, None, (None, [(1, 14.5), (2, 14.5)], None)) == "trace"
    assert _gate(wl.check, None, (None, [(1, 20.0), (2, 16.0)], None)) == "distance"
    wl.check(None, (None, good, None))
    assert _gate(wl.check, None, (None, [(1, 14.5), (729, 13.780641708965554)], None)) == "trace"
    # the recorded trace is the reference for later runs of the same sources
    # with the same seed, and only for those
    later = Optimize(7, tmp_path)
    assert _gate(later.check, None, (None, good[1:], None)) == "trace"
    later.check(None, (None, good, None))
    Optimize(8, tmp_path).check(None, (None, good[1:], None))
    monkeypatch.setattr(workloads, "source_digest", lambda: "0" * 64)
    Optimize(7, tmp_path).check(None, (None, good[1:], None))


def test_curve_gates(tmp_path):
    wl = Curves(0, tmp_path)
    draw = next(p for p in wl.inputs if p.mu != 0.0)
    kappa, tau, kappa_t, curve = wl.op(draw)
    wl.check(draw, (kappa, tau, kappa_t, curve))
    bumped = kappa.copy()
    bumped[0] = np.nextafter(bumped[0], 2.0)
    assert _gate(wl.check, draw, (bumped, tau, kappa_t, curve)) == "amplitude"
    assert _gate(wl.check, draw, (kappa, tau * (1 + 1e-9), kappa_t, curve)) == "torsion"
    points = curve.points.copy()
    points[3, 1] = np.nan
    assert _gate(wl.check, draw, (kappa, tau, kappa_t, SimpleNamespace(points=points))) == "points"


def test_cli_gates(tmp_path):
    wl = CliGeodesics(0, tmp_path)
    draw = wl.inputs[0]
    files = wl._files(draw)
    result = wl.op(draw)
    wl.check(draw, result)

    failed = list(result)
    failed[3] = (failed[3][0], 1, "", failed[3][3])
    assert _gate(wl.check, draw, failed) == "exit_code"

    wrong = list(result)
    wrong[2] = (wrong[2][0], 0, f"{float(result[2][2]) + 0.01!r}\n", wrong[2][3])
    assert _gate(wl.check, draw, wrong) == "distance"

    report = Path(files["c-report.json"])
    original = report.read_text()
    data = json.loads(original)
    report.write_text(json.dumps(dict(data, speed_drift=0.01)))
    assert _gate(wl.check, draw, result) == "speed_drift"
    report.write_text(json.dumps(dict(data, speed_drift=float("nan"))))
    assert _gate(wl.check, draw, result) == "json"
    report.write_text(original)

    Path(files["c.svg"]).write_text("<svg/>\n")
    assert _gate(wl.check, draw, result) == "repeat_bytes"

    # the untimed repeat writes the files again and compares them
    wl.recheck()
    wl.digests[(draw["index"], "c.svg")] = "0" * 64
    assert _gate(wl.recheck) == "repeat_bytes"
    wl.close()


def _raising(base, error, K=None):
    """``base`` whose ops all raise ``error``, on the draws with ambient curvature ``K``."""

    class Raising(base):
        def __init__(self, seed, workdir):
            super().__init__(seed, workdir)
            if K is not None:
                self.inputs = [p for p in self.inputs if p.K == K]

        def op(self, draw):
            raise error

    return Raising


@pytest.mark.parametrize("name, base, error, K, correct", [
    ("optimize", Optimize, OptimizationFailure("no descent"), None, False),
    ("optimize", Optimize, NumericFailure("overflow"), None, False),
    ("cli-geodesics", CliGeodesics, PreconditionError("bad input"), None, False),
    ("curves", Curves, DomainError("point is not on the hyperbolic2d surface"), 1.0, False),
    ("curves", Curves, PreconditionError("point is not on the hyperbolic2d surface"), -1.0,
     False),
    # the known K = -1 defect: failed, but an expected refusal
    ("curves", Curves, DomainError("point is not on the hyperbolic2d surface"), -1.0, True),
])
def test_only_expected_refusals_keep_the_run_correct(monkeypatch, name, base, error, K, correct):
    monkeypatch.setitem(workloads.WORKLOADS, name, _raising(base, error, K))
    res = run.run_workload(name, 0, 0.0)
    assert res["correct"] is correct
    assert res["failures"] == {type(error).__name__: res["ops"]}


def test_runs_make_a_fixed_number_of_whole_cycles():
    assert run.cycles("optimize", 10) == 1
    assert run.cycles("curves", 10) == 4
    assert run.cycles("cli-geodesics", 10) == 2
    assert all(run.cycles(name, 0) == 1 for name in run.WORKLOAD_NAMES)
    # the count of ops and of failures does not depend on how fast they ran
    first, second = (run.run_workload("curves", 0, 0.0) for _ in range(2))
    assert first["ops"] == second["ops"] == len(first["workload"].inputs)
    assert first["failures"] == second["failures"]


# ---------------------------------------------------------------------------
# the printed result


def test_printed_metric_names_match_benchmark_json():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "curves", "--seed", "0",
           "--seconds", "0"]
    plain = _last_json(cmd + ["--trace", "0"])
    traced = _last_json(cmd + ["--trace", "1"])
    for res, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert list(res["metrics"]) == [m["name"] for m in BENCHMARK[section]]
        for m in BENCHMARK[section]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["correct"] is True and res["attempted"] == 32
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curves", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
