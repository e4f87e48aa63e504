"""Seeded op streams for the three benchmark workloads.

Stdlib only, so the runner can build and digest its inputs without
importing numpy.  An op is a plain dict; the stream is a sequence of
*cycles*, each of which holds the workload's stated input mix exactly
once in a seeded order, so every run that covers whole cycles sees the
same proportions whatever its seed.

* ``spectra``: one ``chiralcav spectrum`` pipeline per op.  A cycle is
  N = 1..8 once each, with gamma_L ~ U[0.5, 1), xi ~ U[0, pi) and
  g ~ U[10, 50) drawn fresh for every op, so parameter points never
  repeat and a cross-call cache gains nothing.
* ``maps``: one ``chiralcav map`` pipeline per op on the fixed 161 x 41
  (xi, gamma_L) grid at delta = 0.  A cycle is N = 2..6 once each with
  g ~ U[10, 50).
* ``carve``: one ``chiralcav carve`` pipeline per op.  A cycle is 30
  ops: a body of 26 with M in 3..8 (every M once per template, plus
  M = 5 and 6 four times each) and reps in 1..3, and a tail of four at
  (M, reps) = (10, 3) twice, (11, 2) and (12, 1), i.e. 13 % of ops.
  Templates come from a fixed pool of three, so identical plans recur.
  Every cycle holds the same ops; the seed sets their order, so the
  cost of a cycle does not depend on the seed.
  With this composition the nearest-rank median falls inside the
  M = 5..6 class and the nearest-rank 90th percentile is the lower
  median of the (10, 3) class, two samples per cycle, for any whole
  number of cycles; neither jumps between classes by seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("spectra", "maps", "carve")

KAPPA_WG = 100.0
KAPPA_SC = 300.0

#: detuning grid of the spectrum pipeline (the CLI defaults)
SPECTRUM_GRID = (-3.0, 3.0, 4001)

#: (xi, gamma_L) grid of the map pipeline (the CLI defaults); it holds
#: gamma_L = 1/2 with xi = 0, pi and 2 pi, the three dark-mode points
MAP_XI_POINTS = 161
MAP_GAMMA_L_POINTS = 41

#: carving templates: (gamma_L, g, xi) with kappa_wg = 100, kappa_sc = 300
CARVE_TEMPLATES = ((1.0, 20.0, 0.0), (1.0, 30.0, 0.0), (0.95, 20.0, 0.3))

CARVE_BODY_M = tuple(range(3, 9))
#: more body ops at mid-cost M keep the median inside one cost class
CARVE_BODY_EXTRA = (5, 6) * 4
#: (M, reps, template) of the tail; its cheapest class comes twice, so the
#: 90th percentile rests on two samples per cycle
CARVE_TAIL = ((10, 3, 0), (10, 3, 1), (11, 2, 2), (12, 1, 0))

#: number of leading stream ops covered by the stream digest
DIGEST_OPS = 64


def _spectra_cycle(rng: random.Random) -> list[dict]:
    ns = list(range(1, 9))
    rng.shuffle(ns)
    return [
        {
            "workload": "spectra",
            "n": n,
            "gamma_L": 0.5 + 0.5 * rng.random(),
            "xi": math.pi * rng.random(),
            "g": 10.0 + 40.0 * rng.random(),
        }
        for n in ns
    ]


def _maps_cycle(rng: random.Random) -> list[dict]:
    ns = list(range(2, 7))
    rng.shuffle(ns)
    return [{"workload": "maps", "n": n, "g": 10.0 + 40.0 * rng.random()} for n in ns]


def _carve_op(m: int, reps: int, template: int) -> dict:
    return {"workload": "carve", "m": m, "reps": reps, "template": template}


def _carve_cycle(rng: random.Random) -> list[dict]:
    # each body M runs once per template and the extras cycle through the
    # templates; reps follow a Latin square over (M, template), so every
    # cycle holds the same (M, reps, template) ops and the seed sets their order
    n_templates = len(CARVE_TEMPLATES)
    body = [(m, t) for m in CARVE_BODY_M for t in range(n_templates)]
    body += [(m, i % n_templates) for i, m in enumerate(CARVE_BODY_EXTRA)]
    ops = [_carve_op(m, 1 + (i + i // n_templates) % 3, t) for i, (m, t) in enumerate(body)]
    ops += [_carve_op(*tail) for tail in CARVE_TAIL]
    rng.shuffle(ops)
    return ops


_CYCLES = {"spectra": _spectra_cycle, "maps": _maps_cycle, "carve": _carve_cycle}

#: a small fixed-class op for the untimed warm-up, drawn from its own stream
_WARMUP = {
    "spectra": lambda rng: dict(_spectra_cycle(rng)[0], n=2),
    "maps": lambda rng: dict(_maps_cycle(rng)[0], n=2),
    "carve": lambda rng: _carve_op(3, 1, rng.randrange(len(CARVE_TEMPLATES))),
}

#: cycles in the fixed op list of a traced run (whose counts must repeat);
#: for carve only the first op of each M in the cycle is kept, which still
#: holds the three tail ops but halves the cost of the traced run
TRACE_CYCLES = {"spectra": 2, "maps": 4, "carve": 1}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"chiralcav-bench/{workload}/{stream}/{seed}")


def cycles(workload: str, seed: int):
    """Endless generator of op cycles; op ids number the stream from 0."""
    make = _CYCLES[workload]
    rng = _rng(workload, seed, "ops")
    next_id = 0
    while True:
        cycle = make(rng)
        for op in cycle:
            op["id"] = next_id
            next_id += 1
        yield cycle


def warmup_op(workload: str, seed: int) -> dict:
    op = _WARMUP[workload](_rng(workload, seed, "warmup"))
    op["id"] = -1
    return op


def trace_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list of a traced run: the stream's first cycles."""
    stream = cycles(workload, seed)
    ops = [op for _ in range(TRACE_CYCLES[workload]) for op in next(stream)]
    if workload == "carve":
        ops = list({op["m"]: op for op in reversed(ops)}.values())[::-1]
    return ops


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``p`` of the samples at or below it.  On carve the 90th percentile then
    lands inside the cheapest tail class for any whole number of cycles."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def digest(ops) -> str:
    """sha256 over the canonical JSON of ``ops`` (floats by repr)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def stream_digest(workload: str, seed: int) -> str:
    """Digest of the warm-up op and the first DIGEST_OPS stream ops."""
    ops = [warmup_op(workload, seed)]
    for cycle in cycles(workload, seed):
        ops.extend(cycle)
        if len(ops) > DIGEST_OPS:
            break
    return digest(ops[: DIGEST_OPS + 1])

