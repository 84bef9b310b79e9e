"""Per-layer metrics from the spans of a traced run.

``points`` is the denominator of every ``*_per_point`` metric: accepted
level-sample points where the workload samples level sets, otherwise the
checked direction bundles.  ``.s`` is the mean inclusive time of one call,
``.self_s`` the mean self time.  Derivative requests of order 1 and 2 are
reported as ``o2`` (order 1 builds the same bundle), orders 3 and 4 as ``o4``.
Only spans inside operations count, except the construction and jet-space
metrics, which are set-up work and count wherever they occur.
"""

from __future__ import annotations

import numpy as np

from tracing import FAMILY_TAGS, LAYERS, STRATEGY_TAGS, Tracer, layer_of

PER_LAYER = {
    "isoparametric.sample_level.s": "s",
    "isoparametric.sample_level.self_s": "s",
    "isoparametric.bracket_frac": "ratio",
    "isoparametric.field_evals_per_point": "calls/point",
    "isoparametric.accepted_frac": "ratio",
    "calculus.field_value.s": "s",
    "calculus.field_d1.calls_per_point": "calls/point",
    "calculus.field_d2.calls_per_point": "calls/point",
    "calculus.laplacian.s": "s",
    "hypersurface.frame_at.s": "s",
    "hypersurface.cartan_curvature_Q.s": "s",
    "duality.legendre_inverse.calls_per_point": "calls/point",
    "duality.newton_solves_per_point": "calls/point",
    "duality.newton.derivs_per_solve": "calls/solve",
    "duality.legendre_inverse_newton.s": "s",
    "duality.dual_norm.s": "s",
    "duality.dual_fundamental_tensor.s": "s",
    "norms.value.s": "s",
    **{f"norms.derivatives.s.{st}.{o}": "s" for st in STRATEGY_TAGS for o in ("o2", "o4")},
    "norms.derivatives.calls_per_point.o2": "calls/point",
    "norms.derivatives.calls_per_point.o4": "calls/point",
    **{f"norms.construct_s.{fam}": "s" for fam in ("randers", "kth_root", "alpha_beta")},
    **{f"taylor.space_s.n{n}": "s" for n in (3, 5, 6)},
    "taylor.mul.s": "s",
    "taylor.mul.calls_per_deriv": "calls/deriv",
    "randers.lemma61_check.s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_optimize_s": "s",
    "cli.config_s": "s",
    "cli.compute_s": "s",
    "cli.write_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    **{f"trace.self_frac.{layer}": "ratio" for layer in LAYERS},
    "trace.points": "count",
}


def _mean(x: np.ndarray) -> float:
    return float(x.mean()) if x.size else 0.0


def per_layer(tr: Tracer, points: int, overhead_ratio: float, imports: dict,
              report_bytes: float) -> dict:
    """Every metric of ``PER_LAYER``; 0 where the workload does not reach the layer."""
    n = len(tr)
    name = np.frombuffer(tr.name, dtype=np.intc).astype(np.int64)
    parent = np.frombuffer(tr.parent, dtype=np.intc).astype(np.int64)
    op = np.frombuffer(tr.op, dtype=np.intc)
    tag = np.frombuffer(tr.tag, dtype=np.intc)
    dur = np.frombuffer(tr.t1) - np.frombuffer(tr.t0)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child_sum
    ids = {nm: i for i, nm in enumerate(tr.names)}
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def is_(span: str) -> np.ndarray:
        return name == ids.get(span, -2)

    # spans with an ancestor of a given name; parents always precede children
    def under(span: str) -> np.ndarray:
        target = ids.get(span, -2)
        flag = bytearray(n)
        par, nm = parent.tolist(), name.tolist()
        for i in range(n):
            p = par[i]
            if p >= 0 and (flag[p] or nm[p] == target):
                flag[i] = 1
        return np.frombuffer(bytes(flag), dtype=np.uint8).astype(bool)

    in_op = op > 0
    ops = is_("op") & in_op
    op_time = float(dur[ops].sum())
    pts = max(points, 1)

    def per_point(mask) -> float:
        return float(np.count_nonzero(mask & in_op)) / pts

    def mean_s(span: str, extra=True) -> float:
        return _mean(dur[is_(span) & in_op & extra])

    m = {}
    sl = is_("isoparametric.sample_level") & in_op
    rays = is_("isoparametric.radial_root") & in_op
    m["isoparametric.sample_level.s"] = _mean(dur[sl])
    m["isoparametric.sample_level.self_s"] = _mean(self_t[sl])
    m["isoparametric.bracket_frac"] = float(dur[rays].sum()) / op_time if op_time else 0.0
    value = is_("calculus.field_value")
    m["isoparametric.field_evals_per_point"] = per_point(value & under("isoparametric.sample_level"))
    level_points = tr.counters.get("level_points", 0.0)
    m["isoparametric.accepted_frac"] = (level_points / np.count_nonzero(rays)
                                        if np.count_nonzero(rays) else 0.0)
    m["calculus.field_value.s"] = mean_s("calculus.field_value")
    m["calculus.field_d1.calls_per_point"] = per_point(is_("calculus.field_d1"))
    m["calculus.field_d2.calls_per_point"] = per_point(is_("calculus.field_d2"))
    m["calculus.laplacian.s"] = mean_s("calculus.laplacian")
    m["hypersurface.frame_at.s"] = mean_s("hypersurface.frame_at")
    m["hypersurface.cartan_curvature_Q.s"] = mean_s("hypersurface.cartan_curvature_Q")

    newton = is_("duality.legendre_inverse_newton") & in_op
    der = is_("norms.derivatives")
    der_outer = der & (parent_name != ids.get("norms.derivatives", -2))
    m["duality.legendre_inverse.calls_per_point"] = per_point(is_("duality.legendre_inverse"))
    m["duality.newton_solves_per_point"] = per_point(newton)
    n_solves = np.count_nonzero(newton)
    m["duality.newton.derivs_per_solve"] = (
        np.count_nonzero(der_outer & in_op & under("duality.legendre_inverse_newton")) / n_solves
        if n_solves else 0.0)
    m["duality.legendre_inverse_newton.s"] = _mean(dur[newton])
    m["duality.dual_norm.s"] = mean_s("duality.dual_norm")
    m["duality.dual_fundamental_tensor.s"] = mean_s("duality.dual_fundamental_tensor")

    m["norms.value.s"] = mean_s("norms.value")
    strategy, order = tag // 10, tag % 10
    for st, st_tag in STRATEGY_TAGS.items():
        for label, lo, hi in (("o2", 1, 2), ("o4", 3, 4)):
            sel = der_outer & in_op & (strategy == st_tag) & (order >= lo) & (order <= hi)
            m[f"norms.derivatives.s.{st}.{label}"] = _mean(dur[sel])
    m["norms.derivatives.calls_per_point.o2"] = per_point(der_outer & (order <= 2))
    m["norms.derivatives.calls_per_point.o4"] = per_point(der_outer & (order >= 3))
    construct = is_("norms.construct") & (parent_name != ids.get("norms.construct", -2))
    for fam in ("randers", "kth_root", "alpha_beta"):
        m[f"norms.construct_s.{fam}"] = _mean(dur[construct & (tag == FAMILY_TAGS[fam])])
    for dim in (3, 5, 6):
        m[f"taylor.space_s.n{dim}"] = _mean(dur[is_("taylor.space") & (tag == dim)])
    mul = is_("taylor.mul") & in_op
    m["taylor.mul.s"] = _mean(dur[mul])
    taylor_derivs = np.count_nonzero(der_outer & in_op & (strategy == STRATEGY_TAGS["taylor"]))
    m["taylor.mul.calls_per_deriv"] = (np.count_nonzero(mul) / taylor_derivs
                                       if taylor_derivs else 0.0)
    m["randers.lemma61_check.s"] = mean_s("randers.lemma61_check")

    commands = is_("cli.command") & in_op
    invocations = np.count_nonzero(commands)
    config = is_("cli.config") & in_op & (parent_name != ids.get("cli.config", -2))
    write = is_("cli.write") & in_op & (parent_name != ids.get("cli.write", -2))
    m["cli.import_s"] = imports.get("minkgeom_s", 0.0)
    m["cli.import.scipy_optimize_s"] = imports.get("scipy_optimize_s", 0.0)
    if invocations:
        cfg_s, write_s = float(dur[config].sum()), float(dur[write].sum())
        m["cli.config_s"] = cfg_s / invocations
        m["cli.write_s"] = write_s / invocations
        m["cli.compute_s"] = (float(dur[commands].sum()) - cfg_s - write_s) / invocations
    else:
        m["cli.config_s"] = m["cli.write_s"] = m["cli.compute_s"] = 0.0
    m["cli.report_bytes"] = float(report_bytes)

    m["trace.overhead_ratio"] = overhead_ratio
    layer_idx = np.array([LAYERS.index(layer_of(nm)) for nm in tr.names], dtype=np.int64)
    layer_self = np.bincount(layer_idx[name[in_op]], weights=self_t[in_op], minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        m[f"trace.self_frac.{layer}"] = float(layer_self[i]) / op_time if op_time else 0.0
    m["trace.points"] = float(points)
    return {k: float(m[k]) for k in PER_LAYER}
