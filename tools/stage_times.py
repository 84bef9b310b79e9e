"""Stage timings of the Randers, alpha-beta and reduced-row verifies: the
stage tables of README.md and ROADMAP.md.

Runs the five Randers model fields of the randers-verify workload (the
sphere, reverse sphere and cylinder at 3 x 64 points, the hyperplane at
3 x 160 and the counterexample |xbar| + b.x at 3 x 128), then the three
alpha-beta ones of the alphabeta-verify workload (profile [1, 1, 0.1],
b = 0.3, taylor: the sphere and the cylinder at n = 3 and 3 x 10 points,
the sphere at n = 5 and 3 x 8), and last two k-th root cylinders
(``cylinder_potential(KthRootNorm(4, 3), 2)`` and
``cylinder_potential(KthRootNorm(4, 5), 3)`` at levels [0.5, 2, 4.5] and
3 x 64 points), whose every row takes the subspace-dual reduction that no
benchmark workload runs, through ``isoparametric.verify``, with each stage
wrapped by a timer.  For each table it prints one markdown row per
stage: its microseconds per pass of the table's verifies, the median of
RUNS runs of PASSES passes.  Pass p samples the directions of seed p, so a
run averages over PASSES direction sets.  A stage's "of which" part is the
time of the inner function called within it.  The alpha-beta row of
``_dual_rows`` (the Legendre preimages with F and g there) runs within
``level_geometry``'s ``_dual_geometry``, so that table's rows do not sum to
the pass.  Under the alpha-beta table it prints the image evaluations per
``AlphaBetaNorm._legendre_inverse`` over one run, a deterministic count.

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

# (module or class, name) of each timed function, stages first, then their
# inner parts by the stage they lie in
RANDERS_STAGES = [
    (isoparametric, "_level_points"),
    (isoparametric, "level_geometry"),
    (isoparametric, "level_frames"),
    (isoparametric, "_level_table"),
    (isoparametric, "_randers_witness"),
]
RANDERS_PARTS = {"level_geometry": (calculus, "_dual_geometry"),
                 "level_frames": (hypersurface, "orthonormal_basis"),
                 "_randers_witness": (isoparametric, "_profile_slopes")}
ALPHA_BETA_STAGES = [
    (isoparametric, "_level_points"),
    (isoparametric, "level_geometry"),
    (norms.MinkowskiNorm, "_dual_rows"),
    (isoparametric, "level_frames"),
    (isoparametric, "_level_table"),
]
ALPHA_BETA_PARTS = {"level_geometry": (calculus, "_dual_geometry"),
                    "_dual_rows": (norms.AlphaBetaNorm, "_legendre_inverse"),
                    "level_frames": (hypersurface, "orthonormal_basis")}
REDUCED_STAGES = [
    (isoparametric, "_level_points"),
    (isoparametric, "level_geometry"),
    (isoparametric, "level_frames"),
    (isoparametric, "_level_table"),
]
REDUCED_PARTS = {"level_geometry": (calculus, "_dual_geometry"),
                 "level_frames": (hypersurface, "orthonormal_basis")}
# (counted function, per call of) of each table: its calls per call of the other
ALPHA_BETA_COUNTS = [((norms.AlphaBetaNorm, "_image"), "_legendre_inverse")]


def randers_scenarios() -> list:
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


def alpha_beta_scenarios() -> list:
    """(norm, field, levels, count) of the three alphabeta-verify scenarios."""
    profile = norms.PolynomialProfile([1.0, 1.0, 0.1])
    n3 = norms.AlphaBetaNorm(profile, 0.3, 3, strategy="taylor")
    n5 = norms.AlphaBetaNorm(profile, 0.3, 5, strategy="taylor")
    levels = [0.5, 2.0, 4.5]
    return [
        (n3, calculus.sphere_potential(n3), levels, 10),
        (n3, calculus.cylinder_potential(n3, 2), levels, 10),
        (n5, calculus.sphere_potential(n5), levels, 8),
    ]


def reduced_scenarios() -> list:
    """(norm, field, levels, count) of the two k-th root cylinders, whose rows
    are all reduced to the subspace dual."""
    n3, n5 = norms.KthRootNorm(4, 3), norms.KthRootNorm(4, 5)
    levels = [0.5, 2.0, 4.5]
    return [
        (n3, calculus.cylinder_potential(n3, 2), levels, 64),
        (n5, calculus.cylinder_potential(n5, 3), levels, 64),
    ]


# (workload, its scenarios, stages, parts, counts) of each table
TABLES = [("randers-verify", randers_scenarios, RANDERS_STAGES, RANDERS_PARTS, []),
          ("alphabeta-verify", alpha_beta_scenarios, ALPHA_BETA_STAGES, ALPHA_BETA_PARTS,
           ALPHA_BETA_COUNTS),
          ("reduced rows", reduced_scenarios, REDUCED_STAGES, REDUCED_PARTS, [])]


def _timed(fn, totals: dict, calls: dict, name: str):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
    return wrapper


def run(cases: list, stages: list, parts: dict, counted: list, passes: int) -> tuple:
    """(microseconds per pass, calls) of each stage, part and counted function and of
    the whole pass, over ``passes`` passes."""
    timed = stages + list(parts.values()) + [fn for fn, _ in counted]
    totals = dict.fromkeys([name for _, name in timed] + ["pass"], 0.0)
    calls = dict.fromkeys(totals, 0)
    saved = [(owner, name, getattr(owner, name)) for owner, name in timed]
    for owner, name, fn in saved:
        setattr(owner, name, _timed(fn, totals, calls, name))
    try:
        for p in range(passes):
            start = time.perf_counter()
            for norm, field, levels, count in cases:
                isoparametric.verify(norm, field, levels, count=count, seed=p)
            totals["pass"] += time.perf_counter() - start
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return {name: 1e6 * total / passes for name, total in totals.items()}, calls


def _us(v: float) -> str:
    return f"{v:,.0f}".replace(",", " ")


def main():
    for title, scenarios, stages, parts, counted in TABLES:
        cases = scenarios()
        run(cases, stages, parts, counted, 5)  # warm-up: imports, jet spaces, first-call caches
        runs, calls = zip(*(run(cases, stages, parts, counted, PASSES) for _ in range(RUNS)))
        median = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
        print(f"{title}:\n")
        print(f"| stage | µs a pass (median of {RUNS} runs of {PASSES} passes) |")
        print("|---|---|")
        for _, name in stages:
            part = parts.get(name)
            if part:
                print(f"| `{name}` (of which `{part[1]}`) | {_us(median[name])} "
                      f"({_us(median[part[1]])}) |")
            else:
                print(f"| `{name}` | {_us(median[name])} |")
        print(f"| whole pass | {_us(median['pass'])} |\n")
        for (_, name), per in counted:  # the same in every run: the seeds are the passes
            print(f"`{name}` calls per `{per}` call: {calls[0][name] / calls[0][per]:.3f} "
                  f"({calls[0][name]} in {calls[0][per]}, one run)\n")


if __name__ == "__main__":
    main()
