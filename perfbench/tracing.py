"""Span tracing of minkgeom from outside the package.

The tracer wraps the public functions and methods the workloads reach, at the
place where callers look each name up: module attributes for functions that
callers reach through ``module.name``, the binding in the importing module for
names taken in by ``from ... import``, and class attributes for methods called
on instances.  Nothing under ``src/`` changes.

Spans live in flat typed arrays (32 bytes each) and are written out once, at
the end of a run.  Every span carries its name, its parent span, the operation
it belongs to (0 for set-up) and an integer tag (derivative strategy and order,
norm family, jet dimension).  Self time is a span's duration minus its
children's.

This module imports only the standard library, so a CLI child can load it
before anything else.
"""

from __future__ import annotations

import json
import re
import time
from array import array

# name -> layer, in the order the layers appear in reports
LAYERS = ("isoparametric", "calculus", "hypersurface", "duality", "norms",
          "taylor", "randers", "cli", "bench")

STRATEGY_TAGS = {"analytic": 0, "taylor": 1, "fd": 2}
FAMILY_TAGS = {"randers": 0, "kth_root": 1, "alpha_beta": 2, "scaled": 3}


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class Tracer:
    """In-memory span recorder with one operation id per operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.current_op = 0
        self.counters: dict[str, float] = {}
        self.hooked: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def __len__(self):
        return len(self.t0)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- recording -----------------------------------------------------------

    def begin(self, nid: int, tag: int = 0) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.tag.append(tag)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span_name: str, fn, tag_fn=None, on_result=None):
        nid = self.name_id(span_name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(nid, tag_fn(args, kwargs) if tag_fn else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def hook(self, owner, attr: str, span_name: str, tag_fn=None, on_result=None):
        """Replace ``owner.attr`` by a traced wrapper; a missing name is noted."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        setattr(owner, attr, self.wrap(span_name, original, tag_fn, on_result))
        self._undo.append((owner, attr, original))
        self.hooked.append(label)

    def unhook(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- operations ------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        self.current_op = op_id
        return self.begin(self.name_id("op"))

    def end_op(self, idx: int):
        self.end(idx)
        self.current_op = 0

    # -- merging and persistence -------------------------------------------------

    def absorb(self, other: "Tracer", parent_idx: int, op_id: int):
        """Append another process's spans under ``parent_idx`` as operation ``op_id``."""
        offset = len(self.t0)
        remap = [self.name_id(n) for n in other.names]
        for i in range(len(other.t0)):
            p = other.parent[i]
            self.name.append(remap[other.name[i]])
            self.parent.append(parent_idx if p < 0 else p + offset)
            self.op.append(op_id)
            self.tag.append(other.tag[i])
            self.t0.append(other.t0[i])
            self.t1.append(other.t1[i])
        for key, value in other.counters.items():
            self.count(key, value)

    def dump(self, path: str, extra: dict | None = None):
        """Write a JSON header ``path`` and the span columns to ``path + '.bin'``."""
        columns = ("name", "parent", "op", "tag", "t0", "t1")
        with open(path + ".bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        header = {"spans": len(self.t0), "columns": list(columns), "names": self.names,
                  "counters": self.counters, "hooked": self.hooked,
                  "missing": self.missing, **(extra or {})}
        with open(path, "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> tuple["Tracer", dict]:
        with open(path) as fh:
            header = json.load(fh)
        tr = cls()
        for name in header["names"]:
            tr.name_id(name)
        n = header["spans"]
        with open(path + ".bin", "rb") as fh:
            for col in header["columns"]:
                getattr(tr, col).fromfile(fh, n)
        tr.counters = dict(header["counters"])
        return tr, header


# -- hooks into minkgeom ---------------------------------------------------------


def _derivative_tag(args, kwargs) -> int:
    order = kwargs.get("order", args[2] if len(args) > 2 else 2)
    return 10 * STRATEGY_TAGS.get(args[0].strategy, 9) + int(order)


def _family_tag(args, kwargs) -> int:
    return FAMILY_TAGS.get(getattr(type(args[0]), "family", ""), 9)


def _jet_dim_tag(args, kwargs) -> int:
    return int(args[1])


def _count_level_sample(tracer: Tracer, sample):
    tracer.count("level_points", len(sample.points))


def install(tracer: Tracer):
    """Hook every layer boundary the workloads cross; idempotent per tracer."""
    from minkgeom import (_taylor, calculus, cli, duality, hypersurface,
                          isoparametric, norms, randers)

    tracer.hooked.clear()
    tracer.missing.clear()
    h = tracer.hook
    # isoparametric: verify and sample_level are reached as module attributes;
    # _radial_root is the per-ray bracketing, one call per ray tried
    h(isoparametric, "verify", "isoparametric.verify")
    h(isoparametric, "sample_level", "isoparametric.sample_level",
      on_result=_count_level_sample)
    h(isoparametric, "_radial_root", "isoparametric.radial_root")
    # calculus: field methods on the class; laplacian where it is looked up
    for meth in ("value", "d1", "d2"):
        h(calculus.ScalarField, meth, f"calculus.field_{meth}")
    h(calculus, "laplacian", "calculus.laplacian")
    h(isoparametric, "laplacian", "calculus.laplacian")
    # hypersurface
    h(hypersurface, "frame_at", "hypersurface.frame_at")
    h(isoparametric, "frame_at", "hypersurface.frame_at")
    h(hypersurface, "cartan_curvature_Q", "hypersurface.cartan_curvature_Q")
    # duality: every caller goes through the module
    for fn in ("legendre_inverse", "legendre_inverse_newton", "dual_norm",
               "dual_fundamental_tensor"):
        h(duality, fn, f"duality.{fn}")
    # norms: instance methods on the classes that define them
    h(norms.MinkowskiNorm, "value", "norms.value")
    h(norms.MinkowskiNorm, "legendre", "norms.legendre")
    h(norms.MinkowskiNorm, "derivatives", "norms.derivatives", tag_fn=_derivative_tag)
    h(norms.ScaledNorm, "derivatives", "norms.derivatives", tag_fn=_derivative_tag)
    for cls in (norms.RandersNorm, norms.KthRootNorm, norms.AlphaBetaNorm, norms.ScaledNorm):
        h(cls, "__init__", "norms.construct", tag_fn=_family_tag)
    # jets
    h(_taylor.JetSpace, "__init__", "taylor.space", tag_fn=_jet_dim_tag)
    h(_taylor.JetSpace, "mul", "taylor.mul")
    # randers, also under the name cli imported
    h(randers, "lemma61_check", "randers.lemma61_check")
    h(cli, "lemma61_check", "randers.lemma61_check")
    # cli: configuration, commands (bound when the parser is built), writers
    for fn in ("load_config", "build_norm", "build_field"):
        h(cli, fn, "cli.config")
    for fn in ("cmd_verify", "cmd_curvatures", "cmd_dualcheck"):
        h(cli, fn, "cli.command")
    h(cli, "dumps_17g", "cli.write")
    h(isoparametric.VerificationReport, "write_json", "cli.write")
    h(isoparametric.VerificationReport, "write_csv", "cli.write")


# -- -X importtime ------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> list[dict]:
    """Rows of ``python -X importtime`` output: module, self_s, cumulative_s, depth."""
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append({"module": m.group(4), "self_s": int(m.group(1)) * 1e-6,
                         "cumulative_s": int(m.group(2)) * 1e-6,
                         "depth": (len(m.group(3)) - 1) // 2})
    return rows


def import_summary(rows: list[dict], top: int = 25) -> dict:
    """Import time of minkgeom (all its top-level entries) and of scipy.optimize."""
    minkgeom_s = sum(r["cumulative_s"] for r in rows
                     if r["depth"] == 0 and r["module"].split(".")[0] == "minkgeom")
    scipy_opt = next((r["cumulative_s"] for r in rows if r["module"] == "scipy.optimize"), 0.0)
    ranked = sorted(rows, key=lambda r: r["cumulative_s"], reverse=True)[:top]
    return {"minkgeom_s": minkgeom_s, "scipy_optimize_s": scipy_opt, "top": ranked}
