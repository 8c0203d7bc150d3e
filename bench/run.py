"""curvespace benchmark: one closed-loop client, ops made one after another.

Usage (from the repository root):

    python3 bench/run.py --workload optimize|curves|cli-geodesics|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own process.  Set-up (imports and input
generation) is timed separately, in fresh interpreters started before and
after the run.  The run makes a fixed number of whole input cycles, enough
for at least ``--seconds`` on a 2-core host (``cycles``), and checks every
result outside the timed region.  The count depends on
``--seconds`` alone, never on the clock, so ``attempted`` and ``failed``
repeat exactly in every run with the same seed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: median over SETUP_RUNS fresh interpreters, half started
  before the run and half after, of the time to the first op, imports and
  input generation included;
* ``op_norm_p50``: median over ops of the op latency divided by the time
  of a fixed reference computation measured during it (``speed.py``).
  Shared hosts change speed by up to 2x within seconds; the ratio stays
  put where the raw latency does not.  Raw latencies are printed too;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the curvespace entry points are wrapped (see
``workloads.install_trace``), the JSON object holds the per-layer metrics
instead, and the spans are written under ``.bench_out/``.  ``--workload
all`` runs every workload untraced and traced, each in its own process,
and reports the tracing overhead as traced minus untraced raw figures.

An op counts as failed when it raised or when a gate rejected its result.
``correct`` is false when a gate rejected a result or an op raised an
error its workload does not expect (``refused`` in ``workloads.py``: only
the known K = -1 ``DomainError`` on ``curves``); an expected refusal is
failed but not incorrect.  Latencies cover every attempted op, failed
ones included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("optimize", "curves", "cli-geodesics")
SETUP_RUNS = 6
# seconds one whole input cycle of each workload takes on a 2-core host
NOMINAL_CYCLE_S = {"optimize": 60.0, "curves": 3.0, "cli-geodesics": 8.0}


def cycles(workload: str, seconds: float) -> int:
    """Whole input cycles a run of at least ``seconds`` makes; at least one."""
    return max(1, math.ceil(seconds / NOMINAL_CYCLE_S[workload]))


def _import_checkout():
    """Import curvespace from this checkout's ``src`` and nowhere else."""
    if not (SRC / "curvespace" / "__init__.py").is_file():
        sys.exit(f"bench: no curvespace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import curvespace

    if Path(curvespace.__file__).resolve().parent != SRC / "curvespace":
        sys.exit(f"bench: imported curvespace from {curvespace.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summary(values) -> dict:
    return {"p50": statistics.median(values), "p90": percentile(values, 90), "n": len(values)}


# Per-layer metrics, per op, as BENCHMARK.json lists them.  self_s: span
# time minus its child spans; calls and other counts: per op;
# failed.<Class>: calls that raised.
PER_LAYER = [(m["name"], m["unit"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# the name, unit and scale from ms each workload's raw op latency is printed with
OP_NAMES = {"optimize": ("optimize_s", "s", 1e-3), "curves": ("curve_ms", "ms", 1.0),
            "cli-geodesics": ("session_ms", "ms", 1.0)}


def per_layer_metrics(tracer, ops: int, subcommand_latencies) -> dict:
    """Per-op averages of the trace, named as in BENCHMARK.json."""
    selfs = tracer.self_times()
    counters = tracer.counters
    values = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = selfs.get(base, 0.0) / ops
        elif kind == "useful_ratio":
            calls = counters["elastica.objective.calls"]
            values[name] = counters["elastica.objective.finite"] / calls if calls else 0.0
        elif kind == "ms_p50":
            samples = subcommand_latencies.get(base.rpartition(".")[2], [])
            values[name] = statistics.median(samples) if samples else 0.0
        else:
            values[name] = counters[name] / ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# one workload in this process


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {v: os.environ[v] for v in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
            if v in os.environ}
    config = numpy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config["Build Dependencies"]["blas"]["name"],
        "blas_thread_env": blas or "unset (library defaults)",
    }


def time_setup(workload: str, seed: int, runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up probe for {workload} failed ({child.returncode})")
    return times


def run_workload(name: str, seed: int, seconds: float, tracer=None, probe=None) -> dict:
    """Run ``cycles(name, seconds)`` whole input cycles of workload ``name``.

    With a ``tracer`` the curvespace entry points are wrapped; with a
    ``probe`` (a :class:`speed.SpeedProbe`) the host speed is sampled.
    """
    import workloads

    wl = workloads.WORKLOADS[name](seed, OUT)
    intervals, failures, first_error = [], Counter(), {}
    incorrect = False

    def record(error, draw) -> None:
        nonlocal incorrect
        key = f"GateFailure.{error.gate}" if isinstance(error, workloads.GateFailure) \
            else type(error).__name__
        failures[key] += 1
        first_error.setdefault(key, str(error))
        incorrect |= draw is None or not wl.refused(draw, error)

    with contextlib.ExitStack() as cleanup:
        if hasattr(wl, "close"):
            cleanup.callback(wl.close)
        with contextlib.ExitStack() as stack:
            if probe is not None:
                stack.enter_context(probe)
            if tracer is not None:
                stack.callback(tracer.restore)
                workloads.install_trace(tracer)
            ops = 0
            for draw in wl.inputs * cycles(name, seconds):
                if tracer is not None:
                    tracer.op = ops
                t0 = time.perf_counter()
                try:
                    result = wl.op(draw)
                except Exception as exc:  # recorded as a failed op, by class
                    result, error = None, exc
                intervals.append((t0, time.perf_counter()))
                ops += 1
                if result is not None:
                    try:
                        wl.check(draw, result)
                        continue
                    except workloads.GateFailure as exc:
                        error = exc
                record(error, draw)
        if hasattr(wl, "recheck"):  # after the timed ops, untraced
            try:
                wl.recheck()
            except Exception as exc:
                record(exc, None)
    if probe is not None:
        split = [probe.split(*iv) for iv in intervals]
        latencies = [net for net, _ in split]
        normalized = [net / ref for net, ref in split]
    else:
        latencies, normalized = [t1 - t0 for t0, t1 in intervals], None
    return {
        "workload": wl,
        "ops": ops,
        "latencies": latencies,
        "normalized": normalized,
        "failures": failures,
        "first_error": first_error,
        "correct": not incorrect,
    }


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main_one(args) -> int:
    _import_checkout()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
        print("ready", flush=True)
        if hasattr(wl, "close"):
            wl.close()
        return 0

    # half the set-ups before the run and half after, to see two host states
    setup = time_setup(args.workload, args.seed, SETUP_RUNS // 2)
    tracer = probe = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        from speed import SpeedProbe

        probe = SpeedProbe()
    run = run_workload(args.workload, args.seed, args.seconds, tracer, probe)
    setup += time_setup(args.workload, args.seed, SETUP_RUNS - len(setup))
    ops, wl = run["ops"], run["workload"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(run["failures"].values())

    op_ms = summary([1e3 * t for t in run["latencies"]])
    sub_ms = {s: [1e3 * t for t in v] for s, v in getattr(wl, "latencies", {}).items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "correct": run["correct"],
        "attempted": ops,
        "failed": failed,
        "failures": dict(run["failures"]),
        "first_error": run["first_error"],
        "setup_s": summary(setup),
        "op_ms": op_ms,
        "subcommand_ms": {s: summary(v) for s, v in sub_ms.items() if v},
        "peak_rss_mb": peak_rss_mb,
        "result": wl.fields(),
    }
    if probe is not None:
        report["op_norm"] = summary(run["normalized"])
        report["reference_ms"] = 1e3 * probe.reference_s()
        metrics = {
            "setup_s": {"value": report["setup_s"]["p50"], "unit": "s"},
            "op_norm_p50": {"value": report["op_norm"]["p50"], "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = per_layer_metrics(tracer, ops, sub_ms)
        report["per_layer"] = metrics
        report["spans"] = len(tracer.spans)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    _print_report(report)
    print(json.dumps({"correct": run["correct"], "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


def _line(name: str, st: dict, unit: str, scale: float = 1.0) -> str:
    return (f"{name:<16} p50 {_fmt(st['p50'] * scale)} {unit}  "
            f"p90 {_fmt(st['p90'] * scale)}  n {st['n']}")


def _print_report(report: dict) -> None:
    m = report["machine"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} | "
          f"nproc {m['nproc']} python {m['python']} numpy {m['numpy']} scipy {m['scipy']} "
          f"BLAS {m['blas']} threads {m['blas_thread_env']}")
    print(_line("setup_s", report["setup_s"], "s"))
    if "op_norm" in report:
        print(_line("op_norm", report["op_norm"], "ref") +
              f"  (reference kernel {_fmt(report['reference_ms'])} ms)")
    name, unit, scale = OP_NAMES[report["workload"]]
    print(_line(name, report["op_ms"], unit, scale))
    for sub, st in report["subcommand_ms"].items():
        print(_line(sub + "_ms", st, "ms"))
    print(f"peak_rss_mb      {_fmt(report['peak_rss_mb'])} MB")
    ops, failed = report["attempted"], report["failed"]
    print(f"ops {ops}  failed {failed} ({failed / ops:.1%})  " + "  ".join(
        f"{k}={v} ({report['first_error'][k]})" for k, v in sorted(report["failures"].items())))
    for key, value in report["result"].items():
        print(f"result {key} = {_fmt(value)}")
    for key, st in report.get("per_layer", {}).items():
        print(f"layer {key} = {_fmt(st['value'])} {st['unit']}")
    if "spans" in report:
        print(f"spans {report['spans']} written under {OUT.name}/")


# ---------------------------------------------------------------------------
# every workload, untraced then traced


def main_all(args) -> int:
    """Each workload untraced then traced, each in a fresh process; prints the overhead."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        reports = []
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   check=True).stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            correct &= res["correct"]
            reports.append(json.loads(
                (OUT / f"report-{name}-seed{args.seed}-trace{trace}.json").read_text()))
            if trace == 0:
                attempted, failed = attempted + res["attempted"], failed + res["failed"]
                metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        plain, traced = reports
        for key, unit in (("setup_s", "s"), ("op_ms", "ms")):
            extra = traced[key]["p50"] - plain[key]["p50"]
            print(f"trace overhead {name} {key}_p50 {_fmt(extra)} {unit} "
                  f"({extra / plain[key]['p50']:+.1%})")
        extra = traced["peak_rss_mb"] - plain["peak_rss_mb"]
        print(f"trace overhead {name} peak_rss_mb {_fmt(extra)} MB")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
