"""The four benchmark workloads: inputs from a seed, operations, output checks.

Every workload is a closed loop with one caller.  ``setup(seed, root)``
builds the norms, fields and inputs (the part ``setup_s`` times in a fresh
interpreter); ``ops(state)`` lists the operations of one pass, each a
callable plus a check that returns the work items it carried and the first
failed check, if any.  Checks compare against references the benchmark
computes on its own: closed-form profiles, algebraic identities of the
tensors, expected verdicts and byte-identical reports.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# |fit - ref| <= PROFILE_RTOL * max(1, |ref|) for every fitted profile node
# (every error is at most 4e-16 at the parent commit on seeds 0 and 7)
PROFILE_RTOL = 1e-10
# relative tolerance of the tensor identities, by derivative strategy
KERNEL_RTOL = {"analytic": 1e-11, "taylor": 1e-10}

ALPHA_BETA_PROFILE = [1.0, 1.0, 0.1]

CLI_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One operation: ``run()`` is timed, ``check(result)`` is not.

    ``check`` returns (work items, None) on success or (0, reason) on a
    failed check.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, str | None]]


# -- verify workloads -----------------------------------------------------------


@dataclass
class Scenario:
    label: str
    norm: object
    field: object
    levels: list
    count: int
    expect: tuple          # (transnormal verdict, isoparametric verdict)
    a_ref: Callable | None
    b_ref: Callable | None


def check_report(sc: Scenario, report) -> tuple[int, str | None]:
    """Expected verdicts, then the fitted profile nodes against the closed forms."""
    got = (report.transnormal_verdict, report.isoparametric_verdict)
    if got != tuple(sc.expect):
        return 0, f"{sc.label}: verdicts {got}, expected {tuple(sc.expect)}"
    for which, ref, nodes in (("a", sc.a_ref, report.a_nodes), ("b", sc.b_ref, report.b_nodes)):
        if ref is None:
            continue
        for t, value in nodes:
            want = ref(float(t))
            if not abs(value - want) <= PROFILE_RTOL * max(1.0, abs(want)):
                return 0, f"{sc.label}: {which}({t}) = {value!r}, closed form {want!r}"
    return sum(len(s.points) for s in report.samples), None


def _verify_op(sc: Scenario, seed: int) -> Op:
    from minkgeom import isoparametric

    return Op(sc.label,
              lambda: isoparametric.verify(sc.norm, sc.field, sc.levels, count=sc.count, seed=seed),
              lambda report: check_report(sc, report))


def randers_dual_value(b: np.ndarray, xi: np.ndarray) -> float:
    """F*(xi) of F = |y| + b.y, written out independently of minkgeom.duality."""
    lam = 1.0 - float(b @ b)
    bxi = float(b @ xi)
    return (math.sqrt(lam * float(xi @ xi) + bxi * bxi) - bxi) / lam


def randers_scenarios() -> list[Scenario]:
    """The five Randers model fields at their committed levels.

    The hyperplane takes 160 points per level, the counterexample 128 and
    the rest 64, so that the five calls cost about the same: the median and the
    tail then lie among comparable calls and do not jump between fields.
    """
    from minkgeom import calculus, norms

    sphere_norm = norms.RandersNorm([0.5, 0.0, 0.0])
    cyl_norm = norms.RandersNorm([0.3, 0.0, 0.0])
    cex_norm = norms.RandersNorm([0.1, 0.0, 0.2])
    c = np.array([1.0, 2.0, 0.5])
    a_hyper = randers_dual_value(sphere_norm.b, c)
    yes = ("yes", "yes")
    return [
        Scenario("sphere", sphere_norm, calculus.sphere_potential(sphere_norm),
                 [0.5, 2.0, 4.5], 64, yes, lambda t: math.sqrt(2 * t), lambda t: 3.0),
        Scenario("reverse-sphere", sphere_norm,
                 calculus.sphere_potential(sphere_norm, reverse=True),
                 [-4.5, -2.0, -0.5], 64, yes, lambda t: math.sqrt(-2 * t), lambda t: -3.0),
        Scenario("hyperplane", sphere_norm, calculus.linear_field(c),
                 [1.0, 2.0, 3.0], 160, yes, lambda t: a_hyper, lambda t: 0.0),
        Scenario("cylinder", cyl_norm, calculus.cylinder_potential(cyl_norm, 2),
                 [0.125, 0.5, 1.125], 64, yes, lambda t: math.sqrt(2 * t), lambda t: 2.0),
        Scenario("counterexample", cex_norm, calculus.norm_plus_linear(cex_norm, 2),
                 [0.8, 1.0, 1.25], 128, ("yes", "no"), lambda t: 1.0, None),
    ]


def alpha_beta_scenarios() -> list[Scenario]:
    from minkgeom import calculus, norms

    profile = norms.PolynomialProfile(ALPHA_BETA_PROFILE)
    n3 = norms.AlphaBetaNorm(profile, 0.3, 3, strategy="taylor")
    n5 = norms.AlphaBetaNorm(profile, 0.3, 5, strategy="taylor")
    levels = [0.5, 2.0, 4.5]
    yes = ("yes", "yes")

    def a(t):
        return math.sqrt(2 * t)

    # 10, 10 and 8 points per level give the three calls about the same time
    # (an n=5 point costs more), so the tail percentile stays in one cluster
    # whatever the number of passes; a 15 s run still makes some 27 calls
    return [
        Scenario("sphere-n3", n3, calculus.sphere_potential(n3), levels, 10, yes, a,
                 lambda t: 3.0),
        Scenario("cylinder-n3", n3, calculus.cylinder_potential(n3, 2), levels, 10, yes, a,
                 lambda t: 2.0),
        Scenario("sphere-n5", n5, calculus.sphere_potential(n5), levels, 8, yes, a, lambda t: 5.0),
    ]


# more passes than any run makes, so the seeds of two runs never overlap
VERIFY_SEEDS_PER_RUN = 1000


class VerifyWorkload:
    item = "level point"

    def __init__(self, scenarios: Callable[[], list[Scenario]]):
        self._scenarios = scenarios

    def setup(self, seed: int, root: Path):
        return {"seed": seed, "scenarios": self._scenarios(), "pass": 0}

    def ops(self, state) -> list[Op]:
        # A verify call's time depends on its sample directions, so every pass
        # draws new ones, from the run's seed and the pass number: the times
        # of a run then average over several direction sets.
        state["pass"] += 1
        seed = VERIFY_SEEDS_PER_RUN * state["seed"] + state["pass"]
        return [_verify_op(sc, seed) for sc in state["scenarios"]]


# -- tensor kernels -----------------------------------------------------------------


@dataclass
class Bundle:
    y: np.ndarray
    d: object              # Derivatives at y, order 4
    Q: float
    xi: np.ndarray
    y_back: np.ndarray
    fstar: float
    gstar: np.ndarray


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0.0 else err


def check_bundle(norm, b: Bundle) -> tuple[int, str | None]:
    """The identities of a direction bundle at the strategy's tolerance."""
    tol = KERNEL_RTOL[norm.strategy]
    d, y, n = b.d, b.y, norm.dim
    d3_scale = float(np.linalg.norm(d.d3))
    residuals = {
        "g(y)y = L(y)": _rel(float(np.linalg.norm(d.d2 @ y - d.d1)), float(np.linalg.norm(d.d1))),
        "d3.y = 0": _rel(float(np.linalg.norm(np.einsum("ijk,k->ij", d.d3, y))),
                         d3_scale * float(np.linalg.norm(y))),
        "d4.y = -d3": _rel(float(np.linalg.norm(np.einsum("ijkl,l->ijk", d.d4, y) + d.d3)),
                           d3_scale),
        "L(y) = legendre": _rel(float(np.linalg.norm(b.xi - d.d1)), float(np.linalg.norm(d.d1))),
        "F*(L(y)) = F(y)": _rel(abs(b.fstar - d.F), d.F),
        "g*(L(y)) g(y) = I": float(np.max(np.abs(b.gstar @ d.d2 - np.eye(n)))),
        "L^-1(L(y)) = y": _rel(float(np.linalg.norm(b.y_back - y)), float(np.linalg.norm(y))),
    }
    if norm.family == "randers":
        # Lemma 6.1: 1 - Q = alpha(y/F(y)) (1 - |b|^2)
        ref = float(np.linalg.norm(y)) / d.F * (1.0 - float(norm.b @ norm.b))
        residuals["1 - Q = alpha(1 - b^2)"] = abs((1.0 - b.Q) - ref)
    elif not math.isfinite(b.Q):
        return 0, f"Q = {b.Q!r} is not finite"
    for name, res in residuals.items():
        if not res <= tol:
            return 0, f"{name}: residual {res:.3e} above {tol:.0e}"
    return 1, None


def kernel_bundle(norm, y, xr, yr) -> Bundle:
    from minkgeom import duality, hypersurface

    d = norm.derivatives(y, order=4)
    g = d.d2
    gyy = float(y @ g @ y)
    X = xr - (xr @ g @ y) / gyy * y
    Y = yr - (yr @ g @ y) / gyy * y
    Y = Y - (Y @ g @ X) / float(X @ g @ X) * X
    Q = hypersurface.cartan_curvature_Q(norm, y, X, Y)
    xi = norm.legendre(y)
    return Bundle(y=y, d=d, Q=Q, xi=xi, y_back=duality.legendre_inverse(norm, xi),
                  fstar=duality.dual_norm(norm, xi),
                  gstar=duality.dual_fundamental_tensor(norm, xi))


# Directions per family mix.  Chosen so that no family takes more than half the
# mix time at the parent commit: one alpha-beta n=6 direction costs about 35
# Randers n=3 directions.
KERNEL_COUNTS = {("randers", 3): 96, ("randers", 6): 96, ("kth_root", 3): 96,
                 ("kth_root", 6): 96, ("alpha_beta", 3): 8, ("alpha_beta", 6): 4}


def _kernel_norm(family: str, n: int):
    from minkgeom import norms

    if family == "randers":
        return norms.RandersNorm(np.r_[0.5, np.zeros(n - 1)])
    if family == "kth_root":
        return norms.KthRootNorm(4, n)
    return norms.AlphaBetaNorm(norms.PolynomialProfile(ALPHA_BETA_PROFILE), 0.3, n,
                               strategy="taylor")


def _kernel_direction(rng, family: str, n: int) -> np.ndarray:
    if family == "kth_root":
        # the k-th root g is singular on the coordinate hyperplanes by
        # definition, so every coordinate stays at least a quarter of the largest
        return rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 1.0, n)
    y = rng.standard_normal(n)
    while np.linalg.norm(y) < 0.1:
        y = rng.standard_normal(n)
    return y


# Distinct mixes per pass.  The alpha-beta cost depends on the direction
# through its Newton iterations, so a pass averages over 48 of them.
KERNEL_MIXES = 4


def check_mix(bundles: list) -> tuple[int, str | None]:
    for label, norm, bundle in bundles:
        _, error = check_bundle(norm, bundle)
        if error is not None:
            return 0, f"{label}: {error}"
    return len(bundles), None


class KernelWorkload:
    """One operation is one family mix: 396 direction bundles, every one checked.

    A single bundle costs 0.5 to 25 ms by family, and over some 16 000
    bundles a run's tail would be its tenth-slowest bundle, set by host
    hiccups.  A mix gives some 40 comparable operations per run, so the tail
    lies near p75, where a few slow seconds of the host do not reach.
    """

    item = "direction bundle"

    def setup(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        norms = {key: _kernel_norm(*key) for key in KERNEL_COUNTS}
        mixes = []
        for _ in range(KERNEL_MIXES):
            mix = []
            for (family, n), count in KERNEL_COUNTS.items():
                for _ in range(count):
                    mix.append((f"{family}-n{n}", norms[family, n], _kernel_direction(rng, family, n),
                                rng.standard_normal(n), rng.standard_normal(n)))
            mixes.append(mix)
        return {"mixes": mixes}

    def ops(self, state) -> list[Op]:
        return [Op(f"mix-{i}",
                   lambda mix=mix: [(label, norm, kernel_bundle(norm, y, xr, yr))
                                    for label, norm, y, xr, yr in mix],
                   check_mix)
                for i, mix in enumerate(state["mixes"])]


# -- cold CLI ------------------------------------------------------------------------


@dataclass
class Invocation:
    command: str
    config: str            # relative to the checkout root


@dataclass
class CliResult:
    returncode: int
    maxrss_kb: int
    reports: dict          # file name -> sha256
    report_bytes: int
    stderr: str
    trace_path: str | None


def cli_invocations(root: Path) -> list[Invocation]:
    """Every config under demos/configs through the commands it serves."""
    import json

    out = []
    for path in sorted((root / "demos" / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        rel = str(path.relative_to(root))
        if "field" in cfg:
            out += [Invocation("verify", rel), Invocation("curvatures", rel)]
        else:
            out.append(Invocation("dualcheck", rel))
    return out


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("MINKGEOM_LOG", None)
    return env


def run_cli(root: Path, inv: Invocation, out_dir: Path, seed: int,
            trace_path: Path | None = None) -> CliResult:
    """One cold ``python -m minkgeom.cli`` process, or the traced wrapper."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    args = [inv.command, inv.config, "--out", str(out_dir), "--seed", str(seed)]
    if trace_path is None:
        cmd = [sys.executable, "-m", "minkgeom.cli", *args]
    else:
        cmd = [sys.executable, "-X", "importtime",
               str(Path(__file__).with_name("cli_child.py")), str(trace_path), *args]
    err_path = out_dir.parent / (out_dir.name + ".stderr")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own peak RSS; the timer only guards a hang
        guard = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
            guard.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reports, size = {}, 0
    for f in sorted(out_dir.iterdir()):
        data = f.read_bytes()
        reports[f.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return CliResult(proc.returncode, usage.ru_maxrss, reports, size, stderr,
                     str(trace_path) if trace_path else None)


def check_cli(inv: Invocation, res: CliResult, first_reports: dict) -> tuple[int, str | None]:
    """Exit 0, and the same report bytes as the first pass of this run."""
    label = f"{inv.command} {inv.config}"
    if res.returncode != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return 0, f"{label}: exit {res.returncode} {tail[0]}"
    if not res.reports:
        return 0, f"{label}: wrote no report"
    known = first_reports.setdefault(label, res.reports)
    if known != res.reports:
        return 0, f"{label}: reports differ from the first pass"
    return 1, None


class CliWorkload:
    item = "invocation"

    def setup(self, seed: int, root: Path):
        # what every invocation repeats before computing: import, config, norm, field
        from minkgeom import cli

        invocations = cli_invocations(root)
        for inv in invocations:
            cfg = cli.load_config(str(root / inv.config))
            norm = cli.build_norm(cfg["norm"])
            if "field" in cfg:
                cli.build_field(cfg["field"], norm)
        return {"seed": seed, "root": root, "invocations": invocations,
                "first_reports": {}, "pass": 0}

    def ops(self, state) -> list[Op]:
        root, seed, trace_dir = state["root"], state["seed"], state.get("trace_dir")
        state["pass"] += 1
        base = root / ".perfbench_out" / "cli"
        out = []
        for i, inv in enumerate(state["invocations"]):
            stem = f"{inv.command}-{Path(inv.config).stem}"
            trace = None if trace_dir is None else trace_dir / f"p{state['pass']}-{i}.json"
            out.append(Op(stem,
                          lambda inv=inv, stem=stem, trace=trace:
                              run_cli(root, inv, base / stem, seed, trace),
                          lambda res, inv=inv: self._check(state, inv, res)))
        return out

    @staticmethod
    def _check(state, inv: Invocation, res: CliResult) -> tuple[int, str | None]:
        state["child_maxrss_kb"] = max(state.get("child_maxrss_kb", 0), res.maxrss_kb)
        state["report_bytes"] = state.get("report_bytes", 0) + res.report_bytes
        state["invocations_checked"] = state.get("invocations_checked", 0) + 1
        return check_cli(inv, res, state["first_reports"])


WORKLOADS = {
    "randers-verify": VerifyWorkload(randers_scenarios),
    "alphabeta-verify": VerifyWorkload(alpha_beta_scenarios),
    "tensor-kernels": KernelWorkload(),
    "cli-cold": CliWorkload(),
}
