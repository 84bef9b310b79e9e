"""Level-set sampling and transnormal / isoparametric verification.

A function f is transnormal when F(grad f) is constant on each level set
(equal to a(f) for a profile a), and isoparametric when additionally the
Finsler Laplacian is constant on each level set (Delta f = b(f)).  The
verifier samples points of each requested level on rays from an anchor along
a low-discrepancy direction set, computes F*(df), Delta f and principal
curvatures per point, and turns within-level constancy into verdicts.

Each level is computed as one stack.  On a field of declared degree k
(every catalog field) f is positively homogeneous about the anchor, so a
ray meets level t at s = (t / f(anchor + d))^(1/k): one evaluation of f over
all rays of the level as one array.  On other fields a walk along a fixed
ladder of radii brackets the level nearest the anchor and Illinois regula
falsi narrows the bracket, ray by ray.  A point is kept when
|f(x) - t| <= 1e-10 |t|.  The level's points then get their geometry from
one ``calculus.level_geometry`` (stacked closed forms for the Randers,
Euclidean and scaled norms on the analytic strategy with a catalog field,
one ``point_geometry`` per point otherwise) and their frames from one
``hypersurface.level_frames``.

A margin band above the tolerance yields "inconclusive" rather than "no",
separating numerical noise from genuine failures, whose spread is orders of
magnitude larger.

Profiles a(t), b(t) are tabulated per-level means; derivative-sensitive
identities use pointwise flow-line differencing of the measured profile,
which is accurate to the differencing step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import duality
# ``laplacian`` stays reachable here: the benchmark's tracer hooks it by this name
from .calculus import ScalarField, laplacian, level_geometry, reparametrized_field  # noqa: F401
from .errors import (
    CriticalPoint,
    CriticalPointOnLevel,
    LeftRegularRegion,
    LevelNotReached,
    MinkGeomError,
    NotIsoparametric,
    NotMonotone,
)
from .hypersurface import frame_at, level_frames
from .norms import MinkowskiNorm, RandersNorm
from .randers import randers_isoparametric_residual
from .sampling import sphere_directions

LEVEL_RESIDUAL = 1e-10
WITNESS_POINTS = 8     # points per level fed to the Randers witness
IDENTITY_POINTS = 4    # points per level of the consistency-identity table
FLOW_STEP = 1e-4       # flow-line differencing step, relative to a(t)
# radii s of the ray ladder anchor + s * d that brackets a level, ratio sqrt(2)
_LADDER = np.geomspace(2.0**-40, 2.0**40, 161)


@dataclass
class LevelSample:
    """Sampled points of one regular level set with per-point quantities.

    ``frames`` holds the ``level_frames`` frame of each point, with its point
    geometry (df, D^2 f, grad f); later stages read it instead of rebuilding.
    """

    t: float
    points: np.ndarray          # (N, n)
    fstar: np.ndarray           # F*(df) per point
    lap: np.ndarray             # Delta f per point
    curvatures: np.ndarray      # (N, n-1) sorted principal curvatures
    frames: list                # per-point HypersurfacePointFrame
    skipped: int


def sample_level(norm: MinkowskiNorm, field: ScalarField, t: float, count: int,
                 seed: int = 0) -> LevelSample:
    """Sample ``count`` points of f^{-1}(t) on rays from ``field.anchor``.

    On a field with a ``degree`` every ray meets the level in closed form,
    all rays as one array (``_degree_radii``); on any other field each ray
    gets the ladder walk of ``_radial_root`` to the root nearest the anchor.
    A ray that gives no point is tried mirrored; if that fails too the
    direction is skipped, and more than half skipped raises LevelNotReached,
    which says when the level passes through the anchor of such a field.
    Every returned point satisfies |f(x) - t| <= 1e-10 |t| (1e-10 at t = 0)
    and is regular.  The points' geometry is one ``level_geometry`` and their
    frames one ``level_frames``; F*(df), Delta f and the curvatures are read
    from them.
    """
    if count < 8:
        raise ValueError("count must be at least 8")
    lo, hi = field.regular_range
    if not lo < t < hi:
        raise ValueError(f"level {t} outside the declared regular range {field.regular_range}")
    anchor = np.asarray(field.anchor, dtype=float)
    dirs = sphere_directions(field.dim, count, seed=seed)
    if field.degree is not None:
        s = _degree_radii(field.values(anchor + dirs), t, field.degree)
        # half-space fields (linear levels, one-sided potentials) only meet
        # the level on one side; the mirrored ray keeps the sample full
        miss = np.isnan(s)
        dirs[miss] = -dirs[miss]
        s[miss] = _degree_radii(field.values(anchor + dirs[miss]), t, field.degree)
    else:
        s = np.full(count, math.nan)
        for i, d in enumerate(dirs):
            root = _radial_root(field, anchor, d, t)
            if root is None:
                dirs[i] = d = -d
                root = _radial_root(field, anchor, d, t)
            if root is not None:
                s[i] = root
    points = (anchor + s[:, None] * dirs)[~np.isnan(s)]
    with np.errstate(invalid="ignore"):
        points = points[abs(field.values(points) - t) <= LEVEL_RESIDUAL * (abs(t) or 1.0)]
    skipped = count - len(points)
    if skipped > count // 2:
        raise LevelNotReached(
            f"level {t}: {skipped}/{count} directions gave no point; "
            + _unreached_reason(field, t)
        )
    try:
        frames = level_frames(norm, field, level_geometry(norm, field, points))
    except CriticalPoint as exc:
        raise CriticalPointOnLevel(f"a sampled point on level {t} is critical: {exc}") from exc
    return LevelSample(t=float(t), points=points,
                       fstar=np.array([fr.geometry.fstar for fr in frames]),
                       lap=np.array([fr.geometry.lap for fr in frames]),
                       curvatures=np.array([fr.principal_curvatures for fr in frames]),
                       frames=frames, skipped=skipped)


def _unreached_reason(field: ScalarField, t) -> str:
    """Why a level was not reached: f(anchor) = 0 on a field with a degree."""
    if field.degree is not None and t == 0.0:
        return "the level passes through the anchor, where a field with a degree is 0"
    return "check the anchor or the declared regular range"


def _gap(field: ScalarField, x, t) -> float:
    """f(x) - t, or NaN where f fails."""
    try:
        return field.value(x) - t
    except MinkGeomError:
        return math.nan


def _brackets(va, vb) -> bool:
    """Whether the rung pair with gaps va, vb holds the level; a NaN gap holds none."""
    return va * vb < 0.0 or (va == 0.0 and not math.isnan(vb))


def _degree_radii(v, t, k: int):
    """s = (t / v)^(1/k), the radius where a field of degree k with
    f(anchor + d) = v meets level t, for each v; NaN where t / v is not in
    (0, inf): a wrong sign, a zero or infinite v, or a failed f (NaN)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.divide(t, v)
        return np.where((q > 0.0) & (q < math.inf), q, math.nan) ** (1.0 / k)


def _radial_root(field: ScalarField, anchor, d, t):
    """The radius s of the ray anchor + s d where f = t, or None.

    On a field of degree k, f(anchor + s d) = s^k v with v = f(anchor + d),
    so s = (t / v)^(1/k) when 0 < t / v < inf (``_degree_radii``), and None
    for a wrong sign, a zero or infinite v, or a failed f: one evaluation of
    f.  On any other field the ladder ``_LADDER`` is walked from its bottom
    rung, evaluating f only at the rungs it visits, and the first rung pair
    where f - t changes sign is narrowed by Illinois regula falsi, so the
    root nearest the anchor is found.
    """
    if field.degree is not None:
        s = float(_degree_radii(_gap(field, anchor + d, 0.0), t, field.degree))
        return None if math.isnan(s) else s
    vb = _gap(field, anchor + _LADDER[0] * d, t)
    for a in range(len(_LADDER) - 1):
        va, vb = vb, _gap(field, anchor + _LADDER[a + 1] * d, t)
        if _brackets(va, vb):
            break
    else:
        return None
    sa, sb = _LADDER[a], _LADDER[a + 1]
    if va == 0.0:
        return sa
    # Illinois regula falsi inside the rung step: an end kept for a second
    # step in a row has its value halved, a trial outside the open bracket
    # falls back to the midpoint, and a failed evaluation gives up the ray.
    # The stop is relative to |t|, so small levels are met as closely as large
    # ones; a bracket narrowed to 1e-13 of its radius, or the one left after
    # 60 trials, gives its midpoint
    stop = 1e-3 * LEVEL_RESIDUAL * abs(t)
    moved = 0   # the end the last trial replaced: -1 for sa, 1 for sb
    for _ in range(60):
        if sb - sa <= 1e-13 * sb:
            break
        s = sa - va * (sb - sa) / (vb - va)
        if not sa < s < sb:
            s = 0.5 * (sa + sb)
        v = _gap(field, anchor + s * d, t)
        if math.isnan(v):
            return None
        if abs(v) <= stop:
            return s
        if (v < 0.0) == (va < 0.0):
            sa, va = s, v
            if moved < 0:
                vb *= 0.5
            moved = -1
        else:
            sb, vb = s, v
            if moved > 0:
                va *= 0.5
            moved = 1
    return 0.5 * (sa + sb)


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
        with open(path, "w") as fh:
            fh.write(dumps_17g(self.to_json_dict()))
            fh.write("\n")

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

    Per-level relative spreads of F*(df) and Delta f drive the verdicts; for
    a Randers norm the dual-coefficient system in the Euclidean quantities is
    evaluated as an independent second witness and recorded alongside.
    """
    levels = [float(t) for t in levels]
    if len(levels) < 3:
        raise ValueError("verification needs at least 3 levels")
    uses_fd = norm.strategy == "fd" or field.uses_fd
    if tol is None:
        tol = 1e-4 if uses_fd else 1e-6
    samples = [sample_level(norm, field, t, count, seed=seed) for t in levels]
    stats = []
    worst_f = worst_lap = worst_curv = 0.0
    for s in samples:
        st = {
            "level": s.t,
            "points": len(s.points),
            "skipped": s.skipped,
            "fstar_mean": float(s.fstar.mean()),
            "fstar_spread": float(s.fstar.max() - s.fstar.min()),
            "fstar_cv": _cv(s.fstar),
            "lap_mean": float(s.lap.mean()),
            "lap_spread": float(s.lap.max() - s.lap.min()),
            "lap_cv": _cv(s.lap),
            "curvature_groups": [list(g) for g in _modal_groups(s)],
            "curvature_spread": list(s.curvatures.max(axis=0) - s.curvatures.min(axis=0)),
        }
        stats.append(st)
        worst_f = max(worst_f, st["fstar_spread"] / (1.0 + abs(st["fstar_mean"])))
        worst_lap = max(worst_lap, st["lap_spread"] / (1.0 + abs(st["lap_mean"])))
        kscale = 1.0 + float(np.max(np.abs(s.curvatures))) if s.curvatures.size else 1.0
        worst_curv = max(worst_curv, float(np.max(st["curvature_spread"])) / kscale)

    trans_verdict = _verdict(worst_f, tol)
    lap_verdict = _verdict(worst_lap, tol)
    iso_verdict = _combine(trans_verdict, lap_verdict)
    const_curv = worst_curv <= tol

    a_nodes = np.array(sorted((s.t, float(s.fstar.mean())) for s in samples))
    b_nodes = np.array(sorted((s.t, float(s.lap.mean())) for s in samples))
    structure = _modal_structure(samples)

    witness = None
    if isinstance(norm, RandersNorm):
        witness = _randers_witness(norm, field, samples, tol)

    return VerificationReport(
        norm=norm, field=field, levels=levels, count=count, seed=seed,
        tolerance=tol, strategy=("fd" if uses_fd else norm.strategy),
        samples=samples, level_stats=stats,
        transnormal_verdict=trans_verdict,
        isoparametric_verdict=iso_verdict,
        constant_principal_curvatures=const_curv,
        group_structure=structure,
        a_nodes=a_nodes, b_nodes=b_nodes, witness=witness,
    )


def _cv(values: np.ndarray) -> float:
    m = float(values.mean())
    return float(values.std() / (1.0 + abs(m)))


def _verdict(spread: float, tol: float) -> str:
    if spread <= tol:
        return "yes"
    if spread <= 10.0 * tol:
        return "inconclusive"
    return "no"


def _combine(trans: str, lap: str) -> str:
    order = {"yes": 0, "inconclusive": 1, "no": 2}
    return max(trans, lap, key=lambda v: order[v])


def _modal_groups(sample: LevelSample):
    structures = {}
    for fr in sample.frames:
        key = tuple(m for _, m in fr.groups)
        structures.setdefault(key, []).append(fr.groups)
    key = max(structures, key=lambda k: len(structures[k]))
    chosen = structures[key]
    out = []
    for r in range(len(key)):
        out.append((float(np.mean([g[r][0] for g in chosen])), key[r]))
    return tuple(out)


def _modal_structure(samples) -> tuple:
    counts = {}
    for s in samples:
        for fr in s.frames:
            key = tuple(m for _, m in fr.groups)
            counts[key] = counts.get(key, 0) + 1
    return max(counts, key=counts.get)


def measured_profile_derivative(norm, field, frame):
    """(a(t), a'(t)) at the level through the frame's point, by flow-line differencing.

    Moves +-h along the forward unit normal with h = FLOW_STEP * a(t) (the
    radius scale of the model families); d(F*(df))/drho = a'(f) a(f).
    """
    a_pt = frame.geometry.fstar
    h = FLOW_STEP * a_pt
    ap = duality.dual_norm(norm, field.d1(frame.x + h * frame.normal))
    am = duality.dual_norm(norm, field.d1(frame.x - h * frame.normal))
    return a_pt, (ap - am) / (2.0 * h * a_pt)


def _randers_witness(norm: RandersNorm, field: ScalarField, samples, tol) -> dict:
    r1_max = r2_max = 0.0
    for s in samples:
        a_fit = float(s.fstar.mean())
        b_fit = float(s.lap.mean())
        frames = s.frames[:WITNESS_POINTS]
        a_primes = []
        for fr in frames:
            try:
                a_primes.append(measured_profile_derivative(norm, field, fr)[1])
            except MinkGeomError:
                continue
        a_prime = float(np.mean(a_primes)) if a_primes else 0.0
        for fr in frames:
            df, hess = fr.geometry.df, fr.geometry.hess
            r1, r2 = randers_isoparametric_residual(norm, df, hess, a_fit, b_fit, a_prime)
            r1_max = max(r1_max, abs(r1) / (1.0 + df.dot(df)))
            r2_max = max(r2_max, abs(r2) / (1.0 + abs(float(np.trace(hess)))))
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
        res_i = res_ii = res_iii = 0.0
        for fr in s.frames[:IDENTITY_POINTS]:
            a_pt, a_prime = measured_profile_derivative(norm, field, fr)
            sum_k = float(np.sum(fr.principal_curvatures))
            res_i = max(res_i, abs(sum_k - (a_prime - b_fit / a_fit)))
            h = FLOW_STEP * a_pt
            kp = frame_at(norm, field, fr.x + h * fr.normal).principal_curvatures
            km = frame_at(norm, field, fr.x - h * fr.normal).principal_curvatures
            dk = (kp - km) / (2.0 * h)
            res_ii = max(res_ii, float(np.max(np.abs(dk - fr.principal_curvatures**2))))
            if q is not None:
                res_iii = max(res_iii, abs(float(np.sum(fr.principal_curvatures**2)) - q / a_fit**2))
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


def f_segment_flow(norm: MinkowskiNorm, field: ScalarField, x0, t1: float, t2: float,
                   steps: int = 512) -> FlowResult:
    """Integrate the unit-speed gradient flow from f = t1 up to f = t2.

    The trajectory is the f-segment through x0.  Integration runs in the
    level parameter (dx/dt = grad f / F*(df)^2, classical RK4), the endpoint
    is Newton-projected onto f = t2, and the F-arclength is accumulated along
    the polyline, which is exact for the straight segments of a Minkowski
    space.  ``chord_deviation`` is the maximum Euclidean distance of the
    trajectory from the chord, a direct straightness check.  The flow has
    left the regular region where F*(df) falls below 1e-10 of its value at x0.
    """
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    x = np.asarray(x0, dtype=float).copy()
    if abs(field.value(x) - t1) > 1e-8 * (1.0 + abs(t1)):
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

    if steps % 2:
        steps += 1
    dt = (t2 - t1) / steps
    traj = [x.copy()]
    arclength = 0.0
    for _ in range(steps):
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


def reparametrize_isoparametric(report: VerificationReport, profile,
                                count: int | None = None) -> VerificationReport:
    """Re-verify phi o f for a monotone smooth profile.

    The verdict must remain isoparametric and the fitted profiles transform
    as a_new(phi(t)) = phi'(t) a(t) and b_new(phi(t)) = phi'' a^2 + phi' b.
    """
    if not report.isoparametric:
        raise NotIsoparametric("reparametrization requires an isoparametric report")
    for t in report.levels:
        if profile.derivatives(t)[1] <= 0.0:
            raise NotMonotone(f"profile derivative is not positive at t={t}")
    new_field = reparametrized_field(report.field, profile)
    new_levels = [profile.phi(t) for t in report.levels]
    return verify(report.norm, new_field, new_levels,
                  count=count or report.count, tol=report.tolerance,
                  seed=report.seed)
