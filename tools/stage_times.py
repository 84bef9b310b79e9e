"""Stage timings of the Randers verify: the stage table of README.md.

Runs the five Randers model fields of the randers-verify workload (the
sphere, reverse sphere and cylinder at 3 x 64 points, the hyperplane at
3 x 160 and the counterexample |xbar| + b.x at 3 x 128) through
``isoparametric.verify``, with each stage wrapped by a timer, and prints one
markdown row per stage: its microseconds per pass of the five verifies, the
median of RUNS runs of PASSES passes.  Pass p samples the directions of seed
p, so a run averages over PASSES direction sets.  A stage's "of which" part
is the time of the inner function called within it.

Imports ``src/`` only and writes nothing.  Run from anywhere:
``python tools/stage_times.py``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from minkgeom import calculus, hypersurface, isoparametric, norms  # noqa: E402

RUNS = 3
PASSES = 200

# (module, name) of each timed function, stages first, then their inner parts
STAGES = [
    (isoparametric, "_level_points"),
    (isoparametric, "level_geometry"),
    (isoparametric, "level_frames"),
    (isoparametric, "_level_table"),
    (isoparametric, "_randers_witness"),
]
PARTS = {"level_geometry": (calculus, "_dual_geometry"),
         "level_frames": (hypersurface, "orthonormal_basis"),
         "_randers_witness": (isoparametric, "_profile_slopes")}


def scenarios() -> list:
    """(norm, field, levels, count) of the five randers-verify scenarios."""
    sphere_norm = norms.RandersNorm([0.5, 0.0, 0.0])
    cylinder_norm = norms.RandersNorm([0.3, 0.0, 0.0])
    cex_norm = norms.RandersNorm([0.1, 0.0, 0.2])
    return [
        (sphere_norm, calculus.sphere_potential(sphere_norm), [0.5, 2.0, 4.5], 64),
        (sphere_norm, calculus.sphere_potential(sphere_norm, reverse=True),
         [-4.5, -2.0, -0.5], 64),
        (sphere_norm, calculus.linear_field(np.array([1.0, 2.0, 0.5])), [1.0, 2.0, 3.0], 160),
        (cylinder_norm, calculus.cylinder_potential(cylinder_norm, 2), [0.125, 0.5, 1.125], 64),
        (cex_norm, calculus.norm_plus_linear(cex_norm, 2), [0.8, 1.0, 1.25], 128),
    ]


def _timed(fn, totals: dict, name: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
    return wrapper


def run(cases: list, passes: int) -> dict:
    """Microseconds per pass of each stage, part and the whole pass, over ``passes`` passes."""
    timed = STAGES + list(PARTS.values())
    totals = dict.fromkeys([name for _, name in timed] + ["pass"], 0.0)
    saved = [(module, name, getattr(module, name)) for module, name in timed]
    for module, name, fn in saved:
        setattr(module, name, _timed(fn, totals, name))
    try:
        for p in range(passes):
            start = time.perf_counter()
            for norm, field, levels, count in cases:
                isoparametric.verify(norm, field, levels, count=count, seed=p)
            totals["pass"] += time.perf_counter() - start
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return {name: 1e6 * total / passes for name, total in totals.items()}


def _us(v: float) -> str:
    return f"{v:,.0f}".replace(",", " ")


def main():
    cases = scenarios()
    run(cases, 5)  # warm-up: imports, jet spaces, first-call caches
    runs = [run(cases, PASSES) for _ in range(RUNS)]
    median = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    print(f"| stage | µs a pass (median of {RUNS} runs of {PASSES} passes) |")
    print("|---|---|")
    for _, name in STAGES:
        part = PARTS.get(name)
        if part:
            print(f"| `{name}` (of which `{part[1]}`) | {_us(median[name])} "
                  f"({_us(median[part[1]])}) |")
        else:
            print(f"| `{name}` | {_us(median[name])} |")
    print(f"| whole pass | {_us(median['pass'])} |")


if __name__ == "__main__":
    main()
