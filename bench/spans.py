"""Spans recorded from outside the package, for the traced run.

The tracer replaces module attributes of ``chiralcav`` with wrappers, so
it sees both the benchmark's own calls into a layer and the calls one
module makes into another through a name it imported (for instance
``spectrum.reflectivity``, the scalar solver as refinement calls it).  A
name that a later refactor removes is skipped and reports 0.

Spans live in memory as ``[name, parent, start, end, count]`` rows and
are written out when the traced run ends; ``summarize`` derives the
per-layer metrics from them.
"""

from __future__ import annotations

import importlib
import time

import workloads

#: (module, attribute, span name, what ``count`` holds).  The span name is
#: ``<layer>.<function>`` with the layer of the module that defines it.
WRAPS = (
    ("params", "validate", "params.validate", None),
    ("carving", "require_valid", "params.require_valid", None),
    ("spectrum", "reflectivity", "solver.reflectivity", None),
    ("carving", "reflectivity", "solver.reflectivity", None),
    ("spectrum", "reflectivity_batch", "solver.reflectivity_batch", "points"),
    ("carving", "reflection_amplitude", "solver.reflection_amplitude", None),
    ("carving", "r_no_atoms", "analytic.r_no_atoms", None),
    ("spectrum", "sweep_delta", "spectrum.sweep_delta", None),
    ("spectrum", "find_features", "spectrum.find_features", "features"),
    ("spectrum", "sweep_2d", "spectrum.sweep_2d", None),
    ("carving", "dip_detunings", "spectrum.dip_detunings", None),
    ("carving", "plan_protocol", "carving.plan_protocol", None),
    ("carving", "run_protocol", "carving.run_protocol", None),
    ("carving", "carving_measurement", "carving.carving_measurement", None),
    ("tables", "render_csv", "tables.render_csv", "rows"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _m, _a, name, _c in WRAPS))
OP = "op"

#: solver spans; their ``count`` is the number of solves (1 for a scalar call)
_SOLVES = ("solver.reflectivity", "solver.reflection_amplitude", "solver.reflectivity_batch")


def _count(kind, args, result) -> int:
    """Work done by one call: 1, or the points, features or rows it
    handled; 0 when a refactor changed the shapes."""
    try:
        if kind == "points":
            return int(result.size)
        if kind == "features":
            return len(result)
        if kind == "rows":
            return len(args[0].rows)
    except (AttributeError, IndexError, TypeError):
        return 0
    return 1


class Tracer:
    """In-memory span recorder; off until ``enabled`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False
        self._restore: list[tuple] = []

    def begin(self, name: str) -> list:
        row = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def end(self, row: list, count: int = 0) -> None:
        row[3] = time.perf_counter()
        row[4] = count
        self._stack.pop()

    def _wrap(self, func, name: str, kind):
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            row = self.begin(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self.end(row, _count(kind, args, result))

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module_name, attr, name, kind in WRAPS:
            module = importlib.import_module(f"chiralcav.{module_name}")
            func = getattr(module, attr, None)
            if callable(func):
                self._restore.append((module, attr, func))
                setattr(module, attr, self._wrap(func, name, kind))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._restore):
            setattr(module, attr, func)
        self._restore.clear()


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``busy`` is the summed span duration, ``self`` that minus the time its
    child spans cover.  Solves are scalar solver calls plus batch points.
    """
    n = len(spans)
    duration = [row[3] - row[2] for row in spans]
    child_time = [0.0] * n
    root = list(range(n))
    under_features = [False] * n
    under_measure = [False] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            root[i] = root[parent]
            under_features[i] = under_features[parent] or spans[parent][0] == "spectrum.find_features"
            under_measure[i] = under_measure[parent] or spans[parent][0] == "carving.carving_measurement"

    calls = dict.fromkeys(SPAN_NAMES, 0)
    counts = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    self_time = dict.fromkeys(SPAN_NAMES, 0.0)
    solves_in_features = solves_in_measure = 0
    measure_by_op: dict[int, float] = {}
    op_time: dict[int, float] = {}
    for i, (name, _parent, _t0, _t1, count) in enumerate(spans):
        if name == OP:
            op_time[i] = duration[i]
            continue
        calls[name] += 1
        counts[name] += count
        busy[name] += duration[i]
        self_time[name] += duration[i] - child_time[i]
        if name in _SOLVES:
            solves_in_features += count if under_features[i] else 0
            solves_in_measure += count if under_measure[i] else 0
        if name == "carving.carving_measurement":
            measure_by_op[root[i]] = measure_by_op.get(root[i], 0.0) + duration[i]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_ms"] = 1e3 * busy[name]
        metrics[f"{name}.self_ms"] = 1e3 * self_time[name]
    batch = "solver.reflectivity_batch"
    metrics[f"{batch}.points"] = counts[batch]
    metrics[f"{batch}.us_per_point"] = ratio(1e6 * busy[batch], counts[batch])
    metrics["spectrum.find_features.features"] = counts["spectrum.find_features"]
    metrics["spectrum.find_features.solves_per_feature"] = ratio(solves_in_features, counts["spectrum.find_features"])
    metrics["carving.carving_measurement.solves_per_call"] = ratio(solves_in_measure, calls["carving.carving_measurement"])
    metrics["tables.render_csv.rows"] = counts["tables.render_csv"]

    # share of carving-measurement time within the ops at or above the p90
    # op latency: what dominates the carve tail
    p90 = workloads.percentile(op_time.values(), 0.9) if op_time else 0.0
    slow = [i for i, t in op_time.items() if t >= p90]
    metrics["carving.carving_measurement.p90_share"] = ratio(
        sum(measure_by_op.get(i, 0.0) for i in slow), sum(op_time[i] for i in slow)
    )
    metrics["trace.ops"] = len(op_time)
    metrics["trace.spans"] = n
    return metrics


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = [
        ("import.chiralcav_ms", "ms", "lower"),
        ("import.scipy_ms", "ms", "lower"),
        ("import.numpy_ms", "ms", "lower"),
        ("cli.cold_start_ms", "ms", "lower"),
    ]
    for name in SPAN_NAMES:
        metrics += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_ms", "ms", "lower"), (f"{name}.self_ms", "ms", "lower")]
    metrics += [
        ("solver.reflectivity_batch.points", "count", "higher"),
        ("solver.reflectivity_batch.us_per_point", "us", "lower"),
        ("spectrum.find_features.features", "count", "higher"),
        ("spectrum.find_features.solves_per_feature", "solves/feature", "lower"),
        ("carving.carving_measurement.solves_per_call", "solves/call", "lower"),
        ("carving.carving_measurement.p90_share", "fraction", "lower"),
        ("tables.render_csv.rows", "count", "higher"),
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return metrics


def is_count(name: str) -> bool:
    """Metrics that count work; they must repeat exactly between traced runs."""
    return name.endswith((".calls", ".points", ".features", ".rows")) or name in ("trace.ops", "trace.spans")


def parse_importtime(stderr: str) -> dict[str, float]:
    """chiralcav cumulative, and scipy / numpy summed self times, in ms,
    from the ``-X importtime`` report of ``import chiralcav``."""
    chiralcav_us = scipy_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2].strip()
        top = module.split(".", 1)[0]
        if module == "chiralcav":
            chiralcav_us = cumulative_us
        elif top == "scipy":
            scipy_us += self_us
        elif top == "numpy":
            numpy_us += self_us
    return {
        "import.chiralcav_ms": chiralcav_us / 1e3,
        "import.scipy_ms": scipy_us / 1e3,
        "import.numpy_ms": numpy_us / 1e3,
    }
