#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload's pipeline at minimal size and requires its outputs
to pass the checks, then feeds the checks deliberately corrupted outputs
and requires each to be flagged by the check meant to catch it.  It also
holds BENCHMARK.json to the metric names the runner prints.  Exits 0
when every case passes.
"""

from __future__ import annotations

import bisect
import json
import sys
from dataclasses import replace

import run  # pins the BLAS threads and knows the checkout layout

if not (run.SRC / "chiralcav" / "__init__.py").is_file():
    sys.exit(f"error: no chiralcav package under {run.SRC}")
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from chiralcav import spectrum  # noqa: E402

import checks  # noqa: E402
import pipeline  # noqa: E402
import spans  # noqa: E402

SEED = 7
RESULTS: list[bool] = []


def report(ok: bool, label: str, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")


def clean(op: dict):
    out = pipeline.run(op)
    problems = checks.Checker(SEED).check(op, out)
    report(not problems, f"clean {op['workload']} {op}", "; ".join(problems))
    return out


def flagged(op: dict, out, expect: str, label: str) -> None:
    """A fresh checker must report a problem from check ``expect``."""
    problems = checks.Checker(SEED).check(op, out)
    hit = [p for p in problems if p.startswith(expect + ":")]
    report(bool(hit), f"flags {label}", hit[0] if hit else f"no {expect!r} problem in {problems}")


def with_values(out, values):
    return replace(out, spectrum=replace(out.spectrum, values=values))


def spectra_cases() -> None:
    base = {"workload": "spectra", "gamma_L": 1.0, "g": 20.0, "xi": 0.0}
    clean(dict(base, id=0, n=2))
    op = dict(base, id=1, n=3)
    out = clean(op)
    values = out.spectrum.values

    flagged(op, with_values(out, values + 1e-6), "oracle", "an R array perturbed by 1e-6")
    bad = values.copy()
    bad[100] = 1.5
    flagged(op, with_values(out, bad), "range", "R above 1")
    bad = values.copy()
    bad[100] = np.nan
    flagged(op, with_values(out, bad), "range", "a non-finite R")

    dip = next(f for f in out.features if f.kind == "dip")
    moved_delta = dip.delta + 50 * (out.spectrum.deltas[1] - out.spectrum.deltas[0])
    moved = replace(dip, delta=moved_delta, value=checks.oracle_R(out.params, moved_delta))
    features = tuple(moved if f is dip else f for f in out.features)
    flagged(op, replace(out, features=features), "feature-extremum", "a dip moved off its minimum")
    features = tuple(replace(f, value=f.value - 1e-6) if f is dip else f for f in out.features)
    flagged(op, replace(out, features=features), "feature-value", "a dip value that is not R at its detuning")

    lines = out.csv.splitlines(keepends=True)
    last_row = max(i for i, line in enumerate(lines) if not line.startswith("#"))
    flagged(op, replace(out, csv="".join(lines[:last_row] + lines[last_row + 1 :])), "csv", "a CSV missing a row")


def maps_cases() -> None:
    clean({"workload": "maps", "id": 0, "n": 3, "g": 20.0})
    op = {"workload": "maps", "id": 1, "n": 2, "g": 20.0}
    out = clean(op)
    values = out.map2d.values.copy()
    values[checks.MAP_DARK_POINTS[1]] += 1e-6
    flagged(op, replace(out, map2d=replace(out.map2d, values=values)), "oracle", "a perturbed dark-mode point")
    values = out.map2d.values.copy()
    values[5, 5] = -1e-3
    flagged(op, replace(out, map2d=replace(out.map2d, values=values)), "range", "a negative R")


def carve_cases() -> None:
    op = {"workload": "carve", "id": 0, "m": 3, "reps": 2, "template": 0}
    out = clean(op)
    result = out.result

    def with_result(**changes):
        return replace(out, result=replace(result, **changes))

    state = result.final_state
    flagged(op, with_result(final_state=replace(state, amplitudes=1.01 * state.amplitudes)), "norm", "a non-normalized carved state")
    trace = list(result.trace)
    trace[0] = replace(trace[0], herald_probability=1.2)
    flagged(op, with_result(trace=tuple(trace)), "herald", "a heralding probability above 1")
    trace = list(result.trace)
    trace[-1] = replace(trace[-1], cumulative_probability=trace[-1].cumulative_probability * (1 + 1e-6))
    flagged(op, with_result(trace=tuple(trace)), "cumulative", "a cumulative probability that is not the product")
    fidelities = result.fidelity_vs_step[:-1] + (result.fidelity_vs_step[-1] + 1e-8,)
    flagged(op, with_result(fidelity_vs_step=fidelities), "replay", "a final fidelity off by 1e-8")
    plan = replace(result.plan, steps=(0.0, result.plan.steps[1] + 0.01))
    flagged(op, with_result(plan=plan), "plan", "a planned detuning outside its dip")


def contract_cases() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    report(e2e == list(run.END_TO_END.items()), "BENCHMARK.json end_to_end matches the runner", str(e2e))
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    report(layer == spans.per_layer_metrics(), "BENCHMARK.json per_layer matches the runner")
    produced = set(spans.summarize([])) | set(spans.parse_importtime("")) | {"cli.cold_start_ms", "trace.overhead_frac"}
    declared = {name for name, _unit, _better in spans.per_layer_metrics()}
    report(produced == declared, "the traced run produces every declared per-layer metric", str(produced ^ declared))
    names = [w["name"] for w in bench["workloads"]]
    report(set(names) <= set(run.workloads.WORKLOADS), "BENCHMARK.json workloads are runner workloads", str(names))

    # a module function that a refactor removed is skipped, not an error
    saved = spectrum.reflectivity
    del spectrum.reflectivity
    try:
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
        report(True, "tracer skips a removed module function")
    except Exception as exc:  # reported as a failed case
        report(False, "tracer skips a removed module function", repr(exc))
    finally:
        spectrum.reflectivity = saved


def calibration_cases() -> None:
    import hostclock

    nominal = hostclock.NOMINAL_S
    ops = ((1.0, 1.1), (5.0, 5.1), (5.0, 5.15), (9.0, 9.2))

    def clock(speed) -> hostclock.HostClock:
        """Kernels every 0.05 s outside the ops, taking ``speed(t)`` x nominal."""
        c = hostclock.HostClock()
        c.times = [0.05 * k for k in range(200) if not any(s <= 0.05 * k <= e for s, e in ops)]
        c.durations = [speed(t) * nominal for t in c.times]
        return c

    base = clock(lambda t: 1.0).calibrate(5.0, 5.1)
    report(abs(base[1] - 0.1) < 1e-12 and base[0] == base[1], "a host at nominal speed leaves latencies as measured", repr(base))
    slow_host = clock(lambda t: 1.5).calibrate(5.0, 5.15)[1]
    report(abs(slow_host - base[1]) < 1e-12, "a uniformly slower host cancels", repr(slow_host))
    slow_op = clock(lambda t: 1.0).calibrate(5.0, 5.15)[1]
    report(abs(slow_op - 1.5 * base[1]) < 1e-12, "a slower op on the same host shows in full", repr(slow_op))
    phased = clock(lambda t: 1.0 if t < 5.0 else 2.0)
    early, late = phased.calibrate(1.0, 1.1)[1], phased.calibrate(9.0, 9.2)[1]
    report(abs(early - late) < 1e-12, "each op is calibrated with the host speed around it", f"{early} {late}")
    inside = clock(lambda t: 1.0)
    inside.times.insert(bisect.bisect(inside.times, 5.05), 5.05)
    inside.durations.insert(inside.times.index(5.05), nominal)
    wall = inside.calibrate(5.0, 5.1)[0]
    report(abs(wall - (0.1 - nominal)) < 1e-12, "kernel time inside an op is left out of its latency", repr(wall))

    def mix(seed: int) -> list:
        return sorted((op["m"], op["reps"], op["template"]) for op in next(run.workloads.cycles("carve", seed)))

    mixes = {seed: mix(seed) for seed in (1, 2)}
    report(mixes[1] == mixes[2], "every carve cycle holds the same ops whatever the seed")


def main() -> int:
    for cases in (contract_cases, calibration_cases, spectra_cases, maps_cases, carve_cases):
        cases()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
