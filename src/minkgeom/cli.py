"""Batch driver: scenario configs in, reports out.

Subcommands
-----------
verify      run the transnormal/isoparametric verifier, write JSON + CSV
curvatures  per-level principal-curvature table and curvature-identity residuals
dualcheck   Legendre round trip, norm preservation and agreement with the Newton
            oracle; for Randers (n >= 3) also the Cartan-curvature identity

Usage: ``minkgeom <command> <config.json> [--out DIR] [--seed N] [--tol X]
[--strategy analytic|taylor|fd]``.  The config is a single JSON file (see
``demos/configs/`` for worked examples); unknown keys are rejected with a
field path.  Exit codes: 0 success / expectation met, 1 runtime or config
error, 2 verdict mismatch or residual above tolerance.  Outputs are
byte-deterministic for a fixed scenario and seed (floats at 17 significant
digits).  Set MINKGEOM_LOG=debug|info for progress logging.  A norm takes
its family's default strategy (analytic; taylor for alpha-beta) unless the
config or ``--strategy`` sets one; a family without closed forms rejects
``analytic`` as a config error.

``dualcheck``'s default thresholds do not depend on the strategy: norm
preservation 1e-10, round trip 1e-9, dual agreement 1e-8, Lemma 6.1 1e-7.
``--tol`` replaces all four; the config's ``tolerance`` is read only by the
sampling commands.  So ``quartic_sphere_fd.json`` exits 2: on fd its norm
preservation is 2.6e-9 against 1e-10, its round trip 7.0e-9 against 1e-9.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import calculus, duality, hypersurface, isoparametric, norms
from .errors import ConfigError, MinkGeomError
from .isoparametric import _fmt, dumps_17g
from .randers import lemma61_check

log = logging.getLogger("minkgeom")

_TOP_KEYS = {"scenario", "norm", "field", "levels", "samples", "tolerance",
             "seed", "expect", "output", "trials"}
_NORM_KEYS = {"family", "dim", "b", "k", "b_scalar", "profile", "strategy"}
_FIELD_KEYS = {"catalog", "c", "m"}
_EXPECT_KEYS = {"transnormal", "isoparametric"}
_OUTPUT_KEYS = {"json", "csv"}
_PROFILE_KEYS = {"type", "coeffs"}

_CATALOGS = ("linear", "sphere", "reverse_sphere", "cylinder", "reverse_cylinder",
             "norm_plus_linear")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(path, str(exc)) from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(path, "top-level config must be an object")
    _reject_unknown(cfg, _TOP_KEYS, "")
    return cfg


def _reject_unknown(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}{key}" if path else key, "unknown key")


def _require(cfg: dict, key: str, typ, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}{key}", "missing required key")
    val = cfg[key]
    if typ is float:
        return _number(val, f"{path}{key}")
    if typ is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}{key}", f"expected an integer, got {type(val).__name__}")
        return val
    if not isinstance(val, typ):
        raise ConfigError(f"{path}{key}", f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def build_norm(cfg: dict, strategy_override: str | None = None) -> norms.MinkowskiNorm:
    _reject_unknown(cfg, _NORM_KEYS, "norm.")
    family = _require(cfg, "family", str, "norm.")
    # a strategy set by neither the config nor --strategy is the family's default
    strategy = strategy_override or cfg.get("strategy")
    if strategy is not None and strategy not in norms.STRATEGIES:
        raise ConfigError("norm.strategy", f"must be one of {norms.STRATEGIES}")
    kw = {} if strategy is None else {"strategy": strategy}
    try:
        if family == "euclidean":
            return norms.EuclideanNorm(_require(cfg, "dim", int, "norm."), **kw)
        if family == "randers":
            return norms.RandersNorm(np.asarray(_numbers(cfg, "b", "norm.")), **kw)
        if family == "kth_root":
            return norms.KthRootNorm(_require(cfg, "k", int, "norm."),
                                     _require(cfg, "dim", int, "norm."), **kw)
        if family == "alpha_beta":
            prof_cfg = _require(cfg, "profile", dict, "norm.")
            _reject_unknown(prof_cfg, _PROFILE_KEYS, "norm.profile.")
            if _require(prof_cfg, "type", str, "norm.profile.") != "polynomial":
                raise ConfigError("norm.profile.type", "only 'polynomial' is supported")
            profile = norms.PolynomialProfile(_numbers(prof_cfg, "coeffs", "norm.profile."))
            return norms.AlphaBetaNorm(profile, _require(cfg, "b_scalar", float, "norm."),
                                       _require(cfg, "dim", int, "norm."), **kw)
    except ConfigError:
        raise
    except MinkGeomError as exc:
        raise ConfigError("norm", str(exc)) from exc
    raise ConfigError("norm.family", f"unknown family {family!r}")


def build_field(cfg: dict, norm: norms.MinkowskiNorm) -> calculus.ScalarField:
    _reject_unknown(cfg, _FIELD_KEYS, "field.")
    catalog = _require(cfg, "catalog", str, "field.")
    try:
        if catalog == "linear":
            c = np.asarray(_numbers(cfg, "c", "field."))
            if c.size != norm.dim:
                raise ConfigError("field.c", f"length must equal dim {norm.dim}")
            return calculus.linear_field(c)
        if catalog == "sphere":
            return calculus.sphere_potential(norm)
        if catalog == "reverse_sphere":
            return calculus.sphere_potential(norm, reverse=True)
        if catalog in ("cylinder", "reverse_cylinder"):
            m = _require(cfg, "m", int, "field.")
            return calculus.cylinder_potential(norm, m, reverse=catalog.startswith("reverse"))
        if catalog == "norm_plus_linear":
            m = _require(cfg, "m", int, "field.")
            return calculus.norm_plus_linear(norm, m)
    except ConfigError:
        raise
    except MinkGeomError as exc:
        raise ConfigError("field", str(exc)) from exc
    raise ConfigError("field.catalog", f"unknown catalog {catalog!r}; use one of {_CATALOGS}")


def _optional(cfg: dict, key: str, typ, default, path: str = ""):
    if key not in cfg:
        return default
    return _require(cfg, key, typ, path)


def _number(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(where, f"expected a number, got {type(val).__name__}")
    # the bound fails for nan and inf, and compares integers too large for a float exactly
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(where, "expected a finite number")
    return float(val)


def _numbers(cfg: dict, key: str, path: str) -> list:
    vals = _require(cfg, key, list, path)
    return [_number(v, f"{path}{key}[{i}]") for i, v in enumerate(vals)]


def _levels(cfg: dict, field: calculus.ScalarField, command: str) -> list:
    levels = _numbers(cfg, "levels", "")
    if command == "verify" and len(levels) < 3:
        raise ConfigError("levels", "verify needs at least 3 levels")
    lo, hi = field.regular_range
    for i, t in enumerate(levels):
        if not lo < t < hi:
            raise ConfigError(f"levels[{i}]", f"outside the regular range ({lo}, {hi})")
    return levels


def _scenario_id(cfg: dict, path: str) -> str:
    return (_optional(cfg, "scenario", str, "")
            or os.path.splitext(os.path.basename(path))[0])


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# commands that sample level sets, with the default of their "tolerance" key
_TOLERANCE_DEFAULTS = {"verify": None, "curvatures": 1e-8}


@dataclass(frozen=True)
class Scenario:
    """A checked scenario config with the flag overrides applied; ``field``,
    ``levels`` and ``samples`` are set for the commands that sample level sets."""

    cfg: dict
    id: str
    norm: norms.MinkowskiNorm
    seed: int
    tol: float | None
    output: dict
    field: calculus.ScalarField | None = None
    levels: list | None = None
    samples: int | None = None


def load_scenario(args) -> Scenario:
    cfg = load_config(args.config)
    norm = build_norm(_require(cfg, "norm", dict, ""), args.strategy)
    sampled = args.command in _TOLERANCE_DEFAULTS
    field = build_field(_require(cfg, "field", dict, ""), norm) if sampled else None
    levels = _levels(cfg, field, args.command) if sampled else None
    samples = _optional(cfg, "samples", int, 64) if sampled else None
    if sampled and samples < 8:
        raise ConfigError("samples", "must be at least 8")
    seed = args.seed if args.seed is not None else _optional(cfg, "seed", int, 0)
    tol = args.tol
    if tol is None and sampled:
        tol = _optional(cfg, "tolerance", float, _TOLERANCE_DEFAULTS[args.command])
    expect = _optional(cfg, "expect", dict, {})
    _reject_unknown(expect, _EXPECT_KEYS, "expect.")
    for key in expect:
        _require(expect, key, bool, "expect.")
    output = _optional(cfg, "output", dict, {})
    _reject_unknown(output, _OUTPUT_KEYS, "output.")
    for key in output:
        _require(output, key, str, "output.")
    return Scenario(cfg, _scenario_id(cfg, args.config), norm, seed, tol, output,
                    field, levels, samples)


def cmd_verify(args) -> int:
    sc = load_scenario(args)
    log.info("verify %s: %d levels x %d samples", args.config, len(sc.levels), sc.samples)
    report = isoparametric.verify(sc.norm, sc.field, sc.levels, count=sc.samples, tol=sc.tol,
                                  seed=sc.seed)
    report.scenario_id = sc.id
    report.write_json(_out_path(args.out, sc.output.get("json", "report.json")))
    report.write_csv(_out_path(args.out, sc.output.get("csv", "samples.csv")))
    expect = sc.cfg.get("expect", {})
    for key in ("transnormal", "isoparametric"):
        if key in expect and getattr(report, key) != expect[key]:
            log.warning("verdict mismatch: %s is %r, expected %r",
                        key, getattr(report, key), expect[key])
            return 2
    return 0


def cmd_curvatures(args) -> int:
    sc = load_scenario(args)
    norm, field = sc.norm, sc.field
    rows = ["scenario,level,group,kappa,multiplicity,mean_curvature,sectional_products"]
    level_reports = []
    worst = 0.0
    samples, frames = isoparametric._sample_stack(norm, field, [float(t) for t in sc.levels],
                                                  sc.samples, sc.seed)
    table = isoparametric._level_table(frames, [len(s.points) for s in samples])
    for t, sample, level in zip(sc.levels, samples, table["stats"]):
        stats = level["curvature_groups"]
        hhat = sum(k * m for k, m in stats)
        products = [stats[r][0] * stats[s][0]
                    for r in range(len(stats)) for s in range(r + 1, len(stats))]
        cartan_res = 0.0
        two_curv = 0.0
        for fr in sample.frames[:8]:
            cartan_res = max(cartan_res, hypersurface.cartan_formula_residual(fr))
            tc = hypersurface.two_curvature_residuals(norm, fr)
            if tc.size:
                two_curv = max(two_curv, float(np.max(np.abs(tc))))
        worst = max(worst, cartan_res, two_curv)
        for gi, (kappa, mult) in enumerate(stats):
            rows.append(",".join([
                sc.id, _fmt(t), str(gi), _fmt(kappa), str(mult), _fmt(hhat),
                ";".join(_fmt(p) for p in products),
            ]))
        level_reports.append({
            "level": float(t),
            "groups": [[float(k), int(m)] for k, m in stats],
            "mean_curvature": float(hhat),
            "sectional_products": [float(p) for p in products],
            "cartan_formula_residual": float(cartan_res),
            "two_curvature_residual": float(two_curv),
        })
    with open(_out_path(args.out, sc.output.get("csv", "curvatures.csv")), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    payload = {"schema": 1, "scenario": sc.id, "tolerance": float(sc.tol),
               "levels": level_reports}
    with open(_out_path(args.out, sc.output.get("json", "curvatures.json")), "w") as fh:
        fh.write(dumps_17g(payload) + "\n")
    return 0 if worst <= sc.tol else 2


def cmd_dualcheck(args) -> int:
    sc = load_scenario(args)
    norm = sc.norm
    trials = _optional(sc.cfg, "trials", int, 1000)
    if trials < 1:
        raise ConfigError("trials", "must be at least 1")
    rng = np.random.default_rng(sc.seed)
    ys = np.empty((trials, norm.dim))
    for i in range(trials):
        y = rng.standard_normal(norm.dim)
        while math.sqrt(y.dot(y)) < 1e-3:  # the bits of np.linalg.norm(y)
            y = rng.standard_normal(norm.dim)
        ys[i] = y
    # every trial at once: F(y), xi = L(y), the preimage of xi with F*(xi) = F
    # there, and the Newton oracle's preimage
    F = norm._values(ys)
    xis = norm._derivative_rows(ys, 1)[1]
    back, fstar = norm._dual_rows(xis)[:2]
    newton = norm._values(duality.legendre_inverse_newton(norm, xis))
    miss = back - ys
    results = {
        "norm_preservation": float(np.max(abs(fstar - F) / F)),
        "roundtrip": float(np.max(np.sqrt(np.vecdot(miss, miss)) / np.sqrt(np.vecdot(ys, ys)))),
        "dual_agreement": float(np.max(abs(fstar - newton) / F)),
    }
    if isinstance(norm, norms.RandersNorm) and norm.dim >= 3:  # a Randers identity
        lemma = 0.0
        for _ in range(50):
            y, X, Y = hypersurface.gram_orthogonal_triple(norm, rng)
            lhs, rhs = lemma61_check(norm, y, X, Y)
            lemma = max(lemma, abs(lhs - rhs))
        results["lemma61"] = lemma
    defaults = {"norm_preservation": 1e-10, "roundtrip": 1e-9, "dual_agreement": 1e-8,
                "lemma61": 1e-7}
    thresholds = {k: sc.tol if sc.tol is not None else defaults[k] for k in results}
    payload = {
        "schema": 1,
        "scenario": sc.id,
        "trials": trials,
        "seed": sc.seed,
        "residuals": results,
        "thresholds": thresholds,
        "pass": {k: bool(results[k] <= thresholds[k]) for k in results},
    }
    with open(_out_path(args.out, sc.output.get("json", "dualcheck.json")), "w") as fh:
        fh.write(dumps_17g(payload) + "\n")
    return 0 if all(payload["pass"].values()) else 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="minkgeom", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("curvatures", cmd_curvatures),
                     ("dualcheck", cmd_dualcheck)):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a scenario config (JSON)")
        sp.add_argument("--out", default=".", help="output directory (default: cwd)")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sp.add_argument("--tol", type=float, default=None, help="override tolerances")
        sp.add_argument("--strategy", choices=norms.STRATEGIES, default=None,
                        help="override the derivative strategy")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    level = os.environ.get("MINKGEOM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MinkGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
