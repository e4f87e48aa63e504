#!/usr/bin/env python3
"""chiralcav benchmark runner.

    python3 bench/run.py --workload {spectra,maps,carve} --seed N \
        --seconds S --trace {0,1}

Run it from a checkout: it imports the package from ``src/`` next to
this directory and exits with code 2, printing no result, when that is
missing.  One fresh process is one closed-loop client: it times
``import chiralcav``, runs one untimed warm-up op, then runs whole cycles
of the workload's op stream until ``--seconds`` of calibrated op time
have passed, checking every op's outputs outside the timed region.
Throughout the loop an interval timer runs a fixed reference kernel
(``hostclock.py``) every 50 ms, and the runner reports op latencies
calibrated to the host's speed during and around each op; the wall-clock
values stay in the ``#`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs the workload's fixed traced op list
in two child processes that record spans around the package's module
functions, and checks that both count exactly the same work; a third
child runs the list untraced, to time the tracing overhead.  The last line of
stdout is the JSON result; a ``#`` line before it records the machine,
the thread settings and a digest of the generated inputs.  See
README.md in this directory for the metrics and workloads.
"""

import os
import sys

# pin BLAS/OpenMP pools to one thread before anything can load numpy
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib only)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: every run, children included, ends within this many seconds
DEADLINE_S = 170.0
#: extra fresh-process import timings; setup_s is the median with the run's own
#: (import time follows the reference kernel too loosely to calibrate it)
SETUP_PROBES = 4
IMPORTTIME_PROBES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import chiralcav; print(time.perf_counter() - t)"
#: at most this many failing ops are described on stderr
REPORT_PROBLEMS = 5

#: end-to-end metric -> unit, as BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

START = time.perf_counter()


def _remaining() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - START))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter in the checkout; waits for it, kills it at the deadline."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=_remaining(),
        check=True,
        **kwargs,
    )


def _import_package() -> float:
    """Import chiralcav from this checkout's src/; returns the seconds it took."""
    if "numpy" in sys.modules or "scipy" in sys.modules:
        raise RuntimeError("numpy was imported before the timed package import")
    t0 = time.perf_counter()
    import chiralcav

    elapsed = time.perf_counter() - t0
    if not Path(chiralcav.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported chiralcav from {chiralcav.__file__}, not from {SRC}")
    return elapsed


def _attempt(op, checker, run):
    """Run one op (timed) and check it unless ``checker`` is None (untimed):
    (seconds, problems, outcome)."""
    t0 = time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # a failing op is counted and the loop goes on
        return time.perf_counter() - t0, [f"raised: {type(exc).__name__}: {exc}"], None
    elapsed = time.perf_counter() - t0
    try:
        problems = checker.check(op, out) if checker else []
    except Exception as exc:  # a check that cannot run fails the op
        problems = [f"check raised: {type(exc).__name__}: {exc}"]
    return elapsed, problems, out


def _report(op, problems, reported: list) -> None:
    if problems and len(reported) < REPORT_PROBLEMS:
        reported.append(op["id"])
        print(f"op {op['id']} {json.dumps(op, sort_keys=True)} failed: {problems[:3]}", file=sys.stderr)


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _emit(info: dict, correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    print("# " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
            }
        )
    )


def timed_main(args) -> int:
    first_import = _import_package()
    import checks
    import hostclock
    import pipeline

    checker = checks.Checker(args.seed)
    reported: list = []
    warm = workloads.warmup_op(args.workload, args.seed)
    _, warm_problems, _ = _attempt(warm, checker, pipeline.run)
    _report(warm, warm_problems, reported)

    clock = hostclock.HostClock()
    clock.sample(hostclock.LEAD_SAMPLES)
    spans_s: list[tuple[float, float]] = []  # (start, end) of every timed op
    failed = 0
    attempted_ops = []
    n_cycles = 0
    loop_start = time.perf_counter()
    clock.start()
    try:
        for cycle in workloads.cycles(args.workload, args.seed):
            for op in cycle:
                start = time.perf_counter()
                elapsed, problems, _ = _attempt(op, checker, pipeline.run)
                spans_s.append((start, start + elapsed))
                attempted_ops.append(op)
                if problems:
                    failed += 1
                    _report(op, problems, reported)
            n_cycles += 1
            # whole cycles keep the stated mix; counting calibrated time makes
            # the number of cycles independent of the host's speed, and the
            # wall-clock cap keeps the run inside its deadline
            timed = sum(clock.calibrate(s, e)[1] for s, e in spans_s)
            if timed >= args.seconds or time.perf_counter() - START > DEADLINE_S / 2:
                break
    finally:
        clock.stop()
    loop_wall = time.perf_counter() - loop_start

    setup = [first_import] + [float(_python("-c", IMPORT_PROBE).stdout) for _ in range(SETUP_PROBES)]
    wall, latencies = zip(*(clock.calibrate(s, e) for s, e in spans_s))
    attempted = len(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": 1e3 * workloads.percentile(latencies, 0.5),
        "op_p90_ms": 1e3 * workloads.percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 0,
        "samples": attempted,
        "cycles": n_cycles,
        "timed_s": sum(wall),
        "latencies_ms": [round(1e3 * t, 3) for t in latencies],
        "wall": {
            "ops_per_s": attempted / sum(wall),
            "op_p50_ms": 1e3 * workloads.percentile(wall, 0.5),
            "op_p90_ms": 1e3 * workloads.percentile(wall, 0.9),
            "latencies_ms": [round(1e3 * t, 3) for t in wall],
        },
        "host_kernel": {
            "nominal_ms": 1e3 * hostclock.NOMINAL_S,
            "median_ms": 1e3 * clock.median_s(),
            "samples": len(clock.durations),
        },
        "loop_wall_s": loop_wall,
        "setup_samples_s": setup,
        "warmup_failed": bool(warm_problems),
        "stream_digest": workloads.stream_digest(args.workload, args.seed),
        "ops_digest": workloads.digest(attempted_ops),
        "machine": _machine(),
    }
    _emit(info, failed == 0 and not warm_problems, attempted, failed, values, END_TO_END)
    return 0


def child_main(args) -> int:
    """One child of a traced run: the fixed op list, traced and checked, or
    untraced and only timed; writes its spans and CSV digests."""
    _import_package()
    import checks
    import pipeline
    import spans

    ops = workloads.trace_ops(args.workload, args.seed)
    pipeline.run(workloads.warmup_op(args.workload, args.seed))
    tracer = spans.Tracer()
    run, checker = pipeline.run, None
    if not args.untraced:
        tracer.install()
        checker = checks.Checker(args.seed)

        def run(op):
            tracer.enabled = True
            row = tracer.begin(spans.OP)
            try:
                return pipeline.run(op)
            finally:
                tracer.end(row)
                tracer.enabled = False

    elapsed_total = 0.0
    digests = []
    problems_seen = []
    for op in ops:
        elapsed, problems, out = _attempt(op, checker, run)
        elapsed_total += elapsed
        digests.append(hashlib.sha256(out.csv.encode()).hexdigest() if out is not None else None)
        if problems:
            problems_seen.append({"op": op["id"], "problems": problems[:3]})
    tracer.uninstall()

    payload = {
        "attempted": len(ops),
        "failed": len(problems_seen),
        "problems": problems_seen,
        "elapsed_s": elapsed_total,
        "csv_digests": digests,
        "ops_digest": workloads.digest(ops),
        "metrics": spans.summarize(tracer.spans),
        "spans": tracer.spans,
    }
    Path(args.trace_child).write_text(json.dumps(payload), encoding="utf-8")
    return 0


def trace_main(args) -> int:
    import spans

    reports = [spans.parse_importtime(_python("-X", "importtime", "-c", "import chiralcav").stderr) for _ in range(IMPORTTIME_PROBES)]
    layer = {name: statistics.median(r[name] for r in reports) for name in reports[0]}
    t0 = time.perf_counter()
    _python("-m", "chiralcav.cli", "validate")
    layer["cli.cold_start_ms"] = 1e3 * (time.perf_counter() - t0)

    # two traced children, whose counts must agree, and one untraced child
    # that times the same op list for the tracing overhead
    OUT.mkdir(exist_ok=True)
    children = []
    for k, extra in enumerate(([], [], ["--untraced"])):
        path = OUT / f"trace-{args.workload}-{args.seed}-{k}.json"
        path.unlink(missing_ok=True)
        _python(
            str(BENCH / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1",
            "--trace-child", str(path),
            *extra,
        )
        children.append(json.loads(path.read_text(encoding="utf-8")))
    first, second, untraced = children

    counts = [name for name in first["metrics"] if spans.is_count(name)]
    mismatched = [(n, first["metrics"][n], second["metrics"][n]) for n in counts if first["metrics"][n] != second["metrics"][n]]
    if mismatched:
        print(f"per-layer counts differ between two traced runs: {mismatched}", file=sys.stderr)
    same_output = first["csv_digests"] == second["csv_digests"] == untraced["csv_digests"]
    if not same_output:
        print("traced and untraced runs of the same ops rendered different outputs", file=sys.stderr)
    for child in (first, second):
        for item in child["problems"][:REPORT_PROBLEMS]:
            print(f"traced op {item['op']} failed: {item['problems']}", file=sys.stderr)
    for name, value in first["metrics"].items():
        layer[name] = value if name in counts else (value + second["metrics"][name]) / 2.0
    traced_s = (first["elapsed_s"] + second["elapsed_s"]) / 2.0
    layer["trace.overhead_frac"] = traced_s / untraced["elapsed_s"] - 1.0

    units = {name: unit for name, unit, _better in spans.per_layer_metrics()}
    attempted = first["attempted"] + second["attempted"]
    failed = first["failed"] + second["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 1,
        "traced_ops": first["attempted"],
        "counts_repeat": not mismatched,
        "outputs_match": same_output,
        "stream_digest": workloads.stream_digest(args.workload, args.seed),
        "ops_digest": first["ops_digest"],
        "span_files": [str(OUT.relative_to(ROOT) / f"trace-{args.workload}-{args.seed}-{k}.json") for k in range(2)],
        "machine": _machine(),
    }
    _emit(info, failed == 0 and not mismatched and same_output, attempted, failed, layer, units)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="chiralcav benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--untraced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chiralcav" / "__init__.py").is_file():
        print(f"error: no chiralcav package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace_child:
        return child_main(args)
    return trace_main(args) if args.trace else timed_main(args)


if __name__ == "__main__":
    sys.exit(main())
