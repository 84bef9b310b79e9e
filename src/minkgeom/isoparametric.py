"""Level-set sampling and transnormal / isoparametric verification.

A function f is transnormal when F(grad f) is constant on each level set
(equal to a(f) for a profile a), and isoparametric when additionally the
Finsler Laplacian is constant on each level set (Delta f = b(f)).  The
verifier samples points of each requested level on rays from the origin along
a low-discrepancy direction set, computes F*(df), Delta f and principal
curvatures per point, and turns within-level constancy into verdicts.

The levels of a verification are one stack (``sample_levels``), met in one
pass over levels x directions through the field's ``rows`` alone: in closed
form on a field of declared degree (every catalog field), else by a ladder
walk (``_level_points``).  The points of all levels get their geometry from
one ``calculus.level_geometry`` and their frames from one
``hypersurface.level_frames``; the statistics, verdicts and curvature groups
of all levels are one pass over that stack (``_level_table``), the Randers
witness indexes only the columns it reads, and a point's frame
``frames[i]`` is built only when asked for.

Each verdict compares a level's spread with a scale from the same level, so
it does not change when the level, the field or the norm is scaled.  A
margin band above the tolerance yields "inconclusive" rather than "no",
separating numerical noise from genuine failures, whose spread is orders of
magnitude larger.

Profiles a(t), b(t) are tabulated per-level means; derivative-sensitive
identities use flow-line differencing of the measured profile, which is
accurate to the differencing step, at all the points of a level at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import duality
# ``laplacian`` and ``frame_at`` stay reachable here: the benchmark's tracer
# hooks them by these names
from .calculus import ScalarField, laplacian, level_geometry  # noqa: F401
from .errors import (
    CriticalPoint,
    CriticalPointOnLevel,
    LeftRegularRegion,
    LevelNotReached,
    MinkGeomError,
    NotIsoparametric,
)
from .hypersurface import LevelFrames, frame_at, group_runs, level_frames  # noqa: F401
from .norms import MinkowskiNorm, RandersNorm
from .randers import _isoparametric_terms
from .sampling import sphere_directions

LEVEL_RESIDUAL = 1e-10
WITNESS_POINTS = 8     # points per level fed to the Randers witness
IDENTITY_POINTS = 4    # points per level of the consistency-identity table
FLOW_STEP = 1e-4       # flow-line differencing step, relative to a(t)
FLOW_STEPS = 512       # RK4 steps of f_segment_flow
# radii s of the ray ladder s * d that brackets a level, ratio sqrt(2)
_LADDER = np.geomspace(2.0**-40, 2.0**40, 161)
_VERDICTS = ("yes", "inconclusive", "no")  # from best to worst


@dataclass
class LevelSample:
    """Sampled points of one regular level set with per-point quantities:
    views of the rows ``rows`` of ``stack``, the ``LevelFrames`` of every level.

    ``frames``, built when first read, is those rows of ``stack`` with their
    ``LevelGeometry`` (df, D^2 f, grad f); ``frames[i]`` is the frame of point i.
    """

    t: float
    points: np.ndarray          # (N, n)
    fstar: np.ndarray           # F*(df) per point
    lap: np.ndarray             # Delta f per point
    curvatures: np.ndarray      # (N, n-1) sorted principal curvatures
    skipped: int
    stack: LevelFrames
    rows: slice

    @cached_property
    def frames(self) -> LevelFrames:
        return self.stack[self.rows]


def sample_levels(norm: MinkowskiNorm, field: ScalarField, levels, count: int,
                  seed: int = 0) -> list:
    """Sample ``count`` points of each level f^{-1}(t), t in ``levels``, on rays
    from the origin, as one stack; a ``LevelSample`` per level.

    Every level uses the same directions, met in one pass (``_level_points``).
    A ray that gives no point is tried mirrored; if that fails too the
    direction is skipped, and more than half skipped raises LevelNotReached,
    which says when the level passes through the origin of a field with a
    degree.  Every returned point satisfies |f(x) - t| <= 1e-10 |t| (1e-10
    at t = 0) and is regular; F*(df), Delta f and the curvatures are read from
    one ``level_geometry`` and one ``level_frames``.  Each row is computed as
    on its own, so a level's sample is that of ``sample_level`` bit for bit,
    and when levels fail, the first failing one in the given order raises
    what it raises there.
    """
    return _sample_stack(norm, field, levels, count, seed)[0]


def _sample_stack(norm: MinkowskiNorm, field: ScalarField, levels, count: int, seed: int) -> tuple:
    """``sample_levels`` and the one ``LevelFrames`` whose slices its samples hold."""
    if count < 8:
        raise ValueError("count must be at least 8")
    levels, (lo, hi) = list(levels), field.regular_range
    inside = next((j for j, t in enumerate(levels) if not lo < t < hi), len(levels))
    X, level = _level_points(field, sphere_directions(field.dim, count, seed=seed), levels[:inside])
    sizes = np.bincount(level, minlength=inside).tolist()
    reached = next((j for j, size in enumerate(sizes) if count - size > count // 2), inside)
    starts = np.cumsum([0] + sizes[:reached]).tolist()
    X, frames = X[:starts[-1]], None
    if reached:  # the first level that fails, in the given order, raises
        try:
            frames = level_frames(norm, field, level_geometry(norm, field, X))
        except Exception:
            for t, a, b in zip(levels, starts, starts[1:]):
                try:
                    level_frames(norm, field, level_geometry(norm, field, X[a:b]))
                except CriticalPoint as exc:
                    raise CriticalPointOnLevel(f"a sampled point on level {t} is critical: "
                                               f"{exc}") from exc
            raise
    if reached < inside:
        t = levels[reached]
        raise LevelNotReached(f"level {t}: {count - sizes[reached]}/{count} directions gave no "
                              "point; " + _unreached_reason(field, t))
    if inside < len(levels):
        raise ValueError(f"level {levels[inside]} outside the declared regular range "
                         f"{field.regular_range}")
    return [LevelSample(t=float(t), points=frames.geometry.x[a:b], fstar=frames.geometry.fstar[a:b],
                        lap=frames.geometry.lap[a:b], curvatures=frames.principal_curvatures[a:b],
                        skipped=count - (b - a), stack=frames, rows=slice(a, b))
            for t, a, b in zip(levels, starts, starts[1:])], frames


def sample_level(norm: MinkowskiNorm, field: ScalarField, t: float, count: int,
                 seed: int = 0) -> LevelSample:
    """Sample ``count`` points of f^{-1}(t): ``sample_levels`` of the one level t."""
    return sample_levels(norm, field, [t], count, seed)[0]


def _level_points(field: ScalarField, dirs, levels) -> tuple:
    """(points, level): the accepted points of every level in ``levels`` on the
    rays s d, d in ``dirs``, by level and then by direction, and each point's
    level index.  One pass meets all the levels: one ``_degree_radii`` (f at
    +-d evaluated once) or one ladder walk of ``_radial_root``, one more for
    the rays that meet no point, mirrored, and one residual ``rows`` call."""
    t = np.repeat(np.asarray(levels, dtype=float), len(dirs))  # one ray per level and direction
    rays = np.tile(dirs, (len(levels), 1))

    def radii(sign, which):
        if field.degree is None:
            return _radial_root(field, sign * rays[which], t[which])
        return _degree_radii(np.tile(field.rows(sign * dirs, 0), len(levels))[which], t[which],
                             field.degree)

    s = radii(1.0, slice(None))
    level = np.repeat(np.arange(len(levels)), len(dirs))
    # half-space fields (linear levels, one-sided potentials) only meet the
    # level on one side; the mirrored ray keeps the sample full
    miss = np.isnan(s)
    if miss.any():
        s[miss] = radii(-1.0, miss)
        rays[miss] = -rays[miss]
        found = ~np.isnan(s)
        s, rays, t, level = s[found], rays[found], t[found], level[found]
    points = s[:, None] * rays
    with np.errstate(invalid="ignore"):
        kept = abs(field.rows(points, 0) - t) <= LEVEL_RESIDUAL * np.where(t != 0.0, abs(t), 1.0)
    if kept.all():  # every point passes: no gathers
        return points, level
    return points[kept], level[kept]


def _unreached_reason(field: ScalarField, t) -> str:
    """Why a level was not reached: f(0) = 0 on a field with a degree."""
    if field.degree is not None and t == 0.0:
        return "the level passes through the origin, where a field with a degree is 0"
    return "check the declared regular range; the rays start at the origin"


def _degree_radii(v, t, k: int):
    """s = (t / v)^(1/k), the radius where a field of degree k with
    f(d) = v meets level t, for each v; NaN where t / v is not in
    (0, inf): a wrong sign, a zero or infinite v, or a failed f (NaN)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.divide(t, v)
        return np.where((q > 0.0) & (q < math.inf), q, math.nan) ** (1.0 / k)


def _radial_root(field: ScalarField, dirs, t) -> np.ndarray:
    """The radius s of each ray s d, d a row of ``dirs``, where f = t nearest
    the origin, t a level or one per ray; NaN where the ray finds none.

    The rays walk the ladder ``_LADDER`` together from its bottom rung, one
    evaluation of f per rung step over the rays still walking, so f is
    evaluated only at the rungs each ray visits.  A ray stops at the first
    rung pair where f - t changes sign, or whose lower rung is an exact root,
    and a ray that reaches the top rung finds none.  Illinois regula falsi
    then narrows every bracket together, one evaluation of f per trial over
    the rays still narrowing: an end kept for a second step in a row has its
    value halved, a trial outside the open bracket falls back to the
    midpoint, and a failed evaluation (NaN) gives up the ray.  The stop is
    relative to |t|, so small levels are met as closely as large ones; a
    bracket narrowed to 1e-13 of its radius, or the one left after 60 trials,
    gives its midpoint.
    """

    def gap(s, rays):  # f - t at s d on the given rays, NaN where f fails
        return field.rows(s * dirs[rays], 0) - t[rays]

    n_rays = len(dirs)
    t = np.broadcast_to(np.asarray(t, dtype=float), n_rays)
    out, va = np.full(n_rays, math.nan), np.full(n_rays, math.nan)
    rung = np.full(n_rays, -1)  # the lower rung of each ray's bracket, -1 while none
    walking = np.arange(n_rays)
    vb = gap(_LADDER[0], walking)
    for a in range(len(_LADDER) - 1):
        if not walking.size:
            break
        va[walking] = vb[walking]
        vb[walking] = fb = gap(_LADDER[a + 1], walking)
        fa = va[walking]
        with np.errstate(over="ignore", invalid="ignore"):
            hit = (fa * fb < 0.0) | ((fa == 0.0) & ~np.isnan(fb))
        rung[walking[hit]] = a
        walking = walking[~hit]
    found = rung >= 0
    sa, sb = _LADDER[rung], _LADDER[rung + 1]
    exact = found & (va == 0.0)
    out[exact] = sa[exact]

    def midpoint(rays):
        return 0.5 * (sa[rays] + sb[rays])

    stop = 1e-3 * LEVEL_RESIDUAL * abs(t)
    moved = np.zeros(n_rays)  # the end the last trial replaced: -1 for sa, 1 for sb
    live = np.flatnonzero(found & ~exact)
    for _ in range(60):
        narrow = sb[live] - sa[live] <= 1e-13 * sb[live]
        out[live[narrow]] = midpoint(live[narrow])
        live = live[~narrow]
        if not live.size:
            break
        ra, rb, fa, fb = sa[live], sb[live], va[live], vb[live]
        with np.errstate(all="ignore"):
            s = ra - fa * (rb - ra) / (fb - fa)
        s = np.where((ra < s) & (s < rb), s, midpoint(live))
        v = gap(s[:, None], live)
        met = abs(v) <= stop[live]
        out[live[met]] = s[met]
        keep = ~(met | np.isnan(v))
        live, s, v = live[keep], s[keep], v[keep]
        left = (v < 0.0) == (va[live] < 0.0)
        lo, hi = live[left], live[~left]
        sa[lo], va[lo] = s[left], v[left]
        vb[lo[moved[lo] < 0]] *= 0.5
        moved[lo] = -1
        sb[hi], vb[hi] = s[~left], v[~left]
        va[hi[moved[hi] > 0]] *= 0.5
        moved[hi] = 1
    out[live] = midpoint(live)
    return out


# -- verification ---------------------------------------------------------------


@dataclass
class VerificationReport:
    """Per-level statistics, verdicts, and fitted profiles of one field.

    Verdicts are "yes", "inconclusive" (spread within a factor 10 of the
    tolerance) or "no".  ``transnormal`` / ``isoparametric`` booleans are the
    strict "yes" readings, and isoparametric implies transnormal by
    construction.
    """

    norm: MinkowskiNorm
    field: ScalarField
    levels: list
    count: int
    seed: int
    tolerance: float
    strategy: str
    samples: list
    level_stats: list
    transnormal_verdict: str
    isoparametric_verdict: str
    constant_principal_curvatures: bool
    group_structure: tuple
    a_nodes: np.ndarray
    b_nodes: np.ndarray
    witness: dict | None = None
    scenario_id: str = ""

    @property
    def transnormal(self) -> bool:
        return self.transnormal_verdict == "yes"

    @property
    def isoparametric(self) -> bool:
        return self.isoparametric_verdict == "yes"

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The report as ``dumps_17g`` input (numpy scalars and arrays included)."""
        return {
            "schema": 1,
            "scenario": self.scenario_id,
            "norm": {
                "family": self.norm.family,
                "dim": self.norm.dim,
                "strategy": self.norm.strategy,
            },
            "field": {"tag": self.field.tag, "uses_fd": self.field.uses_fd},
            "levels": self.levels,
            "samples_per_level": self.count,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "derivative_strategy": self.strategy,
            "verdicts": {
                "transnormal": self.transnormal_verdict,
                "isoparametric": self.isoparametric_verdict,
                "transnormal_bool": self.transnormal,
                "isoparametric_bool": self.isoparametric,
                "constant_principal_curvatures": self.constant_principal_curvatures,
            },
            "group_structure": self.group_structure,
            "profiles": {"a": self.a_nodes, "b": self.b_nodes},
            # schema 1 writes the witness pass flags as 0/1
            "witness": self.witness and {k: int(v) if isinstance(v, bool) else v
                                         for k, v in self.witness.items()},
        }

    def write_json(self, path):
        text = dumps_17g(self.to_json_dict()) + "\n"  # built first: a failed dump writes no file
        with open(path, "w") as fh:
            fh.write(text)

    def write_csv(self, path):
        """One row per sample point, with max(6, n) coordinate and max(5, n - 1)
        curvature columns, empty beyond n and n - 1."""
        n = self.field.dim
        nx, nk = max(6, n), max(5, n - 1)
        lines = [",".join(["scenario", "level"] + [f"x{i+1}" for i in range(nx)]
                          + ["fstar_df", "laplacian"] + [f"k{i+1}" for i in range(nk)])]
        for sample in self.samples:
            for i in range(len(sample.points)):
                row = ([self.scenario_id, _fmt(sample.t)] + [_fmt(c) for c in sample.points[i]]
                       + [""] * (nx - n) + [_fmt(sample.fstar[i]), _fmt(sample.lap[i])]
                       + [_fmt(k) for k in sample.curvatures[i]] + [""] * (nk - (n - 1)))
                lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def dumps_17g(obj) -> str:
    """JSON text with sorted keys, two-space indent and floats at 17 significant digits.

    Takes numpy scalars and arrays as well as Python values and rejects
    non-finite floats.  Byte-identical output for identical inputs,
    independent of platform float repr choices.
    """
    return _dump(obj, "")


def _dump(v, indent: str) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError("non-finite float in report")
        return format(float(v), ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items = [f"{json.dumps(k)}: {_dump(x, inner)}" for k, x in sorted(v.items())]
        left, right = "{", "}"
    else:
        items = [_dump(x, inner) for x in v]
        left, right = "[", "]"
    if not items:
        return left + right
    return f"{left}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{right}"


def verify(norm: MinkowskiNorm, field: ScalarField, levels, count: int = 64,
           tol: float | None = None, seed: int = 0) -> VerificationReport:
    """Verify the transnormal / isoparametric conditions on the given levels.

    Per-level relative spreads of F*(df) and Delta f drive the verdicts, each
    spread over a scale from the same level (``_level_table``); for a
    Randers norm the dual-coefficient system in the Euclidean quantities is
    evaluated as an independent second witness and recorded alongside.
    """
    levels = [float(t) for t in levels]
    if len(levels) < 3:
        raise ValueError("verification needs at least 3 levels")
    uses_fd = norm.strategy == "fd" or field.uses_fd
    if tol is None:
        tol = 1e-4 if uses_fd else 1e-6
    samples, frames = _sample_stack(norm, field, levels, count, seed)
    table = _level_table(frames, [len(s.points) for s in samples])
    stats = [{"level": s.t, "points": len(s.points), "skipped": s.skipped, **st}
             for s, st in zip(samples, table["stats"])]
    worst_f, worst_lap, worst_curv = table["worst"]

    trans_verdict = _verdict(worst_f, tol)
    # isoparametric takes the worse of the two verdicts
    iso_verdict = max(trans_verdict, _verdict(worst_lap, tol), key=_VERDICTS.index)
    const_curv = worst_curv <= tol
    a_nodes, b_nodes = (np.array(sorted(zip(levels, m))) for m in table["mean"][:2].tolist())
    witness = (_randers_witness(norm, field, frames, table, tol)
               if isinstance(norm, RandersNorm) else None)

    return VerificationReport(
        norm=norm, field=field, levels=levels, count=count, seed=seed,
        tolerance=tol, strategy=("fd" if uses_fd else norm.strategy),
        samples=samples, level_stats=stats,
        transnormal_verdict=trans_verdict,
        isoparametric_verdict=iso_verdict,
        constant_principal_curvatures=const_curv,
        group_structure=table["structure"],
        a_nodes=a_nodes, b_nodes=b_nodes, witness=witness,
    )


def _verdict(spread: float, tol: float) -> str:
    if spread <= tol:
        return "yes"
    if spread <= 10.0 * tol:
        return "inconclusive"
    return "no"


def _per_run(values, sizes, reduce) -> tuple:
    """Reductions of the consecutive runs of ``sizes`` entries of ``values`` (..., R).

    ``reduce(block, runs)`` reduces a block (..., len(runs), k) of the runs ``runs`` over
    its last axis to a tuple of (..., len(runs)) arrays, which come back as (..., runs)
    arrays, 0.0 at an empty run.  When every run has k entries, the one block is the
    (..., runs, k) view of ``values`` with runs = slice(None), and nothing is gathered or
    stored; else one C-contiguous block per run length is gathered.  A last-axis sum of a
    C-contiguous block is pairwise as the 1-D sum is (``np.add.reduceat`` is not), so each
    run's reductions have the bits of its own 1-D ones.
    """
    sizes = np.asarray(sizes)
    k = int(sizes[0])
    if k and (sizes == k).all():
        return reduce(values.reshape(values.shape[:-1] + (len(sizes), k)), slice(None))
    starts, out = np.cumsum(sizes) - sizes, None
    for k in set(sizes.tolist()) - {0} or {1}:  # no nonempty run: one empty block
        runs = sizes == k
        parts = reduce(np.ascontiguousarray(values[..., starts[runs, None] + np.arange(k)]), runs)
        out = out or [np.zeros(p.shape[:-1] + (len(sizes),)) for p in parts]
        for o, p in zip(out, parts):
            o[..., runs] = p
    return tuple(out)


def _run_means(values, sizes) -> np.ndarray:
    """The mean of each consecutive run of ``sizes`` entries of ``values`` (R,) or of its
    rows (d, R), shape (runs,) or (d, runs), 0.0 for an empty run, with the bits of the
    run's own ``mean`` (``_per_run``)."""
    sums = _per_run(values, sizes, lambda block, runs: (np.add.reduce(block, axis=-1),))[0]
    return sums / np.maximum(sizes, 1)


def _level_table(frames: LevelFrames, sizes) -> dict:
    """The statistics of every level of the stack ``frames``, whose levels are runs of
    ``sizes`` rows, each with the bits of its own level's reductions: "stats", the
    ``level_stats`` entries; "mean", (3, levels) means of F*(df), Delta f and ``lap_scale``;
    "worst", the largest spread of F*(df), Delta f and a curvature over the level's scale
    (|mean F*|; max(|mean Delta f|, mean ``lap_scale``), so that a Delta f that vanishes
    meets its terms; max |kappa|); "level", each row's level.  A level's groups are those
    of its most common structure (a row of ``LevelFrames.breaks``), kappa the mean over
    those points of their group means; "structure" holds the multiplicities of the most
    common structure of all levels.  A tie goes to the structure met first."""
    geo, k, breaks = frames.geometry, frames.principal_curvatures, frames.breaks
    level = np.repeat(np.arange(len(sizes)), sizes)
    # each point's group means, summed in order from 0 as a frame's groups
    # are, read at the last column of each group
    gm, total, run = np.empty(k.T.shape), 0.0, 0.0
    for j, new in enumerate([True, *breaks.T]):
        total, run = np.where(new, 0.0, total) + k[:, j], np.where(new, 0.0, run) + 1.0
        gm[j] = total / run
    # F*(df), Delta f and the curvatures, whose extremes are taken, then lap_scale
    # and the group means
    c = 2 + k.shape[1]
    v = np.concatenate([[geo.fstar, geo.lap], k.T, [geo.lap_scale], gm])
    count = np.maximum(sizes, 1)

    def reduce(block, runs):  # the means, the variances of F*(df) and Delta f, max and min
        mean = np.add.reduce(block, axis=-1) / count[runs]
        var = np.add.reduce((block[:2] - mean[:2, :, None]) ** 2, axis=-1) / count[runs]
        extremes = block[:c]
        return (mean, var, np.maximum.reduce(extremes, axis=-1),
                np.minimum.reduce(extremes, axis=-1))

    mean, var, hi, lo = _per_run(v, sizes, reduce)  # one plan of the level runs
    mean = np.concatenate([mean[:2], mean[c:]])  # F*(df), Delta f, lap_scale, group means
    std = np.sqrt(var)
    spread = hi - lo  # F*, Delta f, then each curvature
    scale = np.array([abs(mean[0]), np.maximum(abs(mean[1]), mean[2]),
                      np.maximum(hi[2:], -lo[2:]).max(axis=0)])
    rel, cv = (np.divide(s, scale[:len(s)], out=np.zeros_like(s), where=s != 0.0)
               for s in (np.concatenate([spread[:2], spread[2:].max(axis=0)[None]]), std))
    w = breaks.shape[1]
    code = breaks.dot(1 << np.arange(w))  # one break code per row
    if (code == code[0]).all():  # one structure on every row, as on an isoparametric stack
        first, kappa, common = (np.cumsum(sizes) - sizes).tolist(), mean[3:].T.tolist(), 0
    else:  # one count per (level, code) and per code
        key = level << w | code
        modal, codes = {}, {}  # (-count, first row)
        for kv, row, c in zip(*(a.tolist() for a in np.unique(key, return_index=True,
                                                                 return_counts=True))):
            modal[kv >> w] = min(modal.get(kv >> w, (0, row)), (-c, row))
            total, first = codes.get(kv & ~(-1 << w), (0, row))
            codes[kv & ~(-1 << w)] = (total - c, min(first, row))
        counts, first = zip(*(modal[i] for i in range(len(sizes))))
        kappa = _run_means(gm.compress(key == key[list(first)][level], axis=1),
                           [-c for c in counts]).T.tolist()
        common = min(codes.values())[1]
    stats = [{"fstar_mean": m[0], "fstar_spread": s[0], "fstar_cv": c[0], "lap_mean": m[1],
              "lap_spread": s[1], "lap_cv": c[1],
              "curvature_groups": [[kap[a + n - 1], n] for a, n in zip(*group_runs(row))],
              "curvature_spread": list(ks)}
             for m, s, c, ks, kap, row in zip(mean.T.tolist(), spread.T.tolist(), cv.T.tolist(),
                                              spread[2:].T, kappa, breaks[list(first)].tolist())]
    return {"stats": stats, "mean": mean[:3], "worst": rel.max(axis=1).tolist(), "level": level,
            "structure": tuple(group_runs(breaks[common].tolist())[1])}


def _profile_slopes(norm: MinkowskiNorm, field: ScalarField, x, normal, a) -> np.ndarray:
    """a'(t) at each row of the points x (N, n), with forward unit normals
    ``normal`` and a(t) = F*(df) there, by flow-line differencing.

    Moves +-h along the normal with h = FLOW_STEP * a(t) (the radius scale of
    the model families) and reads F*(df) at both sides from one order-1
    ``rows`` (df alone) and one ``_dual_values``; d(F*(df))/drho = a'(f) a(f).
    a' is NaN at a point where the field or the dual norm fails.
    """
    h = FLOW_STEP * a
    step = h[:, None] * normal
    fstar = norm._dual_values(field.rows(np.concatenate([x + step, x - step]), 1))
    return (fstar[:len(a)] - fstar[len(a):]) / (2.0 * h * a)


def _randers_witness(norm: RandersNorm, field: ScalarField, frames: LevelFrames, table: dict,
                     tol) -> dict:
    """The residuals r1, r2 of ``randers_isoparametric_residual`` at the first
    WITNESS_POINTS points of each level of the stack ``frames`` (only the
    columns it reads), a and b the level means of ``table``, each over the
    size of its terms: r1 over max(|df|^2, lam a^2, 2 |a zeta|) and r2 over
    max(|tr D^2 f|, |D^2 f|_F, |lam b|, |(b/a + a') zeta|), zeta = <df, b>,
    so that the pass flags do not change with the level's scale.  a' of every
    level comes from one ``_profile_slopes`` and the residuals of all the
    points from one call; a point where a' fails is left out of its level's mean."""
    level = table["level"]  # the rows whose place in their level is below WITNESS_POINTS
    take = np.flatnonzero(np.arange(len(level)) - np.searchsorted(level, level) < WITNESS_POINTS)
    geo, level = frames.geometry, level[take]
    df, hess = geo.df[take], geo.hess[take]
    slopes = _profile_slopes(norm, field, geo.x[take], frames.normal[take], geo.fstar[take])
    finite = np.isfinite(slopes)
    a_prime = _run_means(slopes[finite], np.bincount(level[finite],
                                                     minlength=table["mean"].shape[1]))[level]
    a, b = table["mean"][:2, level]
    r1, r2, dfdf, zeta, (trace, lam_b, flow) = _isoparametric_terms(norm, df, hess, a, b,
                                                                     a_prime)
    h = hess.reshape(len(hess), -1)
    r1_scale = np.maximum.reduce([dfdf, norm.lam * a**2, 2.0 * abs(a * zeta)])
    r2_scale = np.maximum.reduce([abs(trace), np.sqrt((h * h).sum(axis=1)), abs(lam_b),
                                  abs(flow)])
    r1_max, r2_max = (float(np.max(abs(r[r != 0.0]) / scale[r != 0.0], initial=0.0))
                      for r, scale in ((r1, r1_scale), (r2, r2_scale)))
    w_tol = max(100.0 * tol, 1e-4)
    return {
        "r1_max": r1_max,
        "r2_max": r2_max,
        "r1_pass": bool(r1_max <= w_tol),
        "r2_pass": bool(r2_max <= w_tol),
        "tolerance": w_tol,
    }


# -- identities, flow, reparametrization ------------------------------------------


def consistency_identities(report: VerificationReport) -> dict:
    """Residual table of the structural identities of an isoparametric field.

    (i)  sum_a k_a = a'(t) - b(t)/a(t), with a' measured by flow-line
         differencing;
    (ii) dk_a/drho = k_a^2 along f-segments (flat ambient space);
    (iii) for sphere/cylinder model potentials, sum k_a^2 = q / a(t)^2 with
         q = (model dimension - 1).
    """
    if not report.isoparametric:
        raise NotIsoparametric("consistency identities require an isoparametric verdict")
    norm, field = report.norm, report.field
    rows = {"level": [], "sum_k_vs_profile": [], "riccati": [], "model_sum_sq": []}
    q = _model_q(report)
    for s in report.samples:
        a_fit = float(s.fstar.mean())
        b_fit = float(s.lap.mean())
        frames = s.frames[:IDENTITY_POINTS]
        x, a_pts = frames.geometry.x, frames.geometry.fstar
        a_primes = _profile_slopes(norm, field, x, frames.normal, a_pts)
        if not np.isfinite(a_primes).all():
            raise LeftRegularRegion(f"level {s.t}: F*(df) fails a flow-line step "
                                    "away from a sampled point")
        k = frames.principal_curvatures
        res_i = float(np.max(np.abs(k.sum(axis=1) - (a_primes - b_fit / a_fit))))
        h = FLOW_STEP * a_pts
        step = h[:, None] * frames.normal
        k_pm = level_frames(norm, field, level_geometry(norm, field, np.concatenate(
            [x + step, x - step]))).principal_curvatures
        dk = (k_pm[:len(k)] - k_pm[len(k):]) / (2.0 * h[:, None])
        res_ii = float(np.max(np.abs(dk - k**2)))
        res_iii = float(np.max(np.abs((k**2).sum(axis=1) - q / a_fit**2))) if q is not None else 0.0
        rows["level"].append(s.t)
        rows["sum_k_vs_profile"].append(res_i)
        rows["riccati"].append(res_ii)
        rows["model_sum_sq"].append(res_iii if q is not None else math.nan)
    rows["max_sum_k_vs_profile"] = max(rows["sum_k_vs_profile"])
    rows["max_riccati"] = max(rows["riccati"])
    rows["max_model_sum_sq"] = (max(rows["model_sum_sq"]) if q is not None else math.nan)
    return rows


def _model_q(report: VerificationReport):
    tag = report.field.tag
    if tag in ("half_squared_norm", "half_squared_norm_reverse"):
        return report.field.dim - 1
    if tag in ("half_squared_subspace_dual", "half_squared_subspace_dual_reverse"):
        return report.field.meta["m"] - 1
    return None


@dataclass(frozen=True)
class FlowResult:
    endpoint: np.ndarray
    arclength: float
    trajectory: np.ndarray
    chord_deviation: float


def f_segment_flow(norm: MinkowskiNorm, field: ScalarField, x0, t1: float,
                   t2: float) -> FlowResult:
    """Integrate the unit-speed gradient flow from f = t1 up to f = t2.

    The trajectory is the f-segment through x0.  Integration runs in the
    level parameter (dx/dt = grad f / F*(df)^2, FLOW_STEPS of RK4), the endpoint
    is Newton-projected onto f = t2, and the F-arclength is accumulated along
    the polyline, which is exact for the straight segments of a Minkowski
    space.  ``chord_deviation`` is the maximum Euclidean distance of the
    trajectory from the chord, a direct straightness check.  The flow has
    left the regular region where F*(df) falls below 1e-10 of its value at x0.
    """
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    x = np.asarray(x0, dtype=float).copy()
    if abs(field.value(x) - t1) > 1e-8 * (abs(t1) or 1.0):
        raise ValueError("x0 does not lie on the level t1")

    def gradient(x_cur):  # (grad f, F*(df))
        try:
            grad = duality.legendre_inverse(norm, field.d1(x_cur))
        except MinkGeomError as exc:
            raise LeftRegularRegion(str(exc)) from exc
        return grad, norm.value(grad)

    floor = 1e-10 * gradient(x)[1]

    def velocity(x_cur):
        grad, fstar = gradient(x_cur)
        if fstar < floor:
            raise LeftRegularRegion("F(grad f) collapsed along the flow")
        return grad / fstar**2

    dt = (t2 - t1) / FLOW_STEPS
    traj = [x.copy()]
    arclength = 0.0
    for _ in range(FLOW_STEPS):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * dt * k1)
        k3 = velocity(x + 0.5 * dt * k2)
        k4 = velocity(x + dt * k3)
        delta = (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        arclength += norm.value(delta)
        x = x + delta
        traj.append(x.copy())
    for _ in range(3):
        grad, fstar = gradient(x)
        x = x - (field.value(x) - t2) / fstar**2 * grad
    tail = x - traj[-1]
    arclength += norm.value(tail) if tail.any() else 0.0
    traj[-1] = x.copy()
    traj = np.array(traj)
    chord = traj[-1] - traj[0]
    chord_norm2 = float(chord @ chord)
    rel = traj - traj[0]
    proj = np.outer(rel @ chord / chord_norm2, chord)
    deviation = float(np.max(np.linalg.norm(rel - proj, axis=1)))
    return FlowResult(endpoint=x, arclength=float(arclength),
                      trajectory=traj, chord_deviation=deviation)

