"""minkgeom benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; minkgeom is imported from its ``src/``.
The workload's inputs come from ``--seed``.  Operations run back to back in
whole passes (a closed loop with one caller) for about ``--seconds``, and at
least two passes with at least 21 operations in all.  Every output is
checked; a failed check or an exception counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced passes, in which every layer boundary is wrapped,
prints the per-layer metrics and writes the spans and the ``-X importtime``
breakdown under ``.perfbench_out/``.  The last line of standard output is
the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# every matrix is at most 6 x 6; BLAS threads only add start-up and contention
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# the tail percentile needs ten operations beyond it, and lies above the
# median only with at least 21
MIN_OPS = 21
SPAN_BUDGET = 1_500_000

END_TO_END = {"items_per_s": "items/s", "op_s.p50": "s", "op_s.tail": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Record:
    label: str
    seconds: float
    scaled: float          # at nominal host speed; ``seconds`` where nothing scales it
    items: int
    error: str | None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the names of workloads.WORKLOADS, spelled out because importing that
    # module loads numpy before the BLAS thread count is pinned
    p.add_argument("--workload", required=True,
                   choices=("randers-verify", "alphabeta-verify", "tensor-kernels", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, env: dict, importtime: bool = False):
    """Wall time of a fresh interpreter that sets the workload up, and its stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - t0
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode}):\n{stderr}")
    return wall, stderr


def run_passes(wl, state, seconds: float, min_passes: int, tracer=None, absorb=None,
               first_op: int = 1, clock=None):
    """Whole passes until another pass would end past ``seconds``.

    ``clock`` takes a reference sample before the first operation and after
    each one, outside the timed regions and outside the pass time, and each
    operation's time is scaled by the samples around it.
    """
    records: list[Record] = []
    passes = 0
    reference_s = 0.0
    start = time.perf_counter()
    if clock is not None:
        before = clock.sample()
        reference_s += time.perf_counter() - start
    while True:
        for op in wl.ops(state):
            op_id = first_op + len(records)
            span = tracer.begin_op(op_id) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failing operation is a measured outcome
                result, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.end_op(span)
                if absorb is not None and result is not None:
                    absorb(result, span, op_id)
            items = 0
            if error is None:
                try:
                    items, error = op.check(result)
                except Exception as exc:  # a check that cannot run is a failed check
                    error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
            scaled = elapsed
            if clock is not None:
                c0 = time.perf_counter()
                after = clock.sample()
                reference_s += time.perf_counter() - c0
                scaled = clock.scale(elapsed, before, after)
                before = after
            records.append(Record(op.label, elapsed, scaled, items, error))
        passes += 1
        wall = time.perf_counter() - start - reference_s
        if passes >= min_passes and wall * (passes + 1) / passes > seconds:
            return records, passes, wall
        if tracer is not None and len(tracer) > SPAN_BUDGET:
            return records, passes, wall


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Needs at least eleven samples; with fewer there is no such percentile.
    """
    s = sorted(values)
    k = len(s) - 10
    if k < 1:
        return math.nan, math.nan
    return s[k - 1], 100.0 * k / len(s)


def environment() -> dict:
    import platform

    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor() or "?",
    }


def summarize(records: list[Record], key: str = "scaled") -> dict:
    """Counts, and the time statistics of the scaled or the raw ``seconds``."""
    times = [getattr(r, key) for r in records]
    failed = [r for r in records if r.error]
    tail_s, tail_pct = tail(times)
    return {"attempted": len(records), "failed": len(failed),
            "failed_frac": len(failed) / len(records),
            "items": sum(r.items for r in records), "op_time_s": sum(times),
            "p50": statistics.median(times), "tail": tail_s, "tail_pct": tail_pct,
            "errors": [r.error for r in failed[:5]]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "minkgeom" / "__init__.py").is_file():
        print(f"perfbench: no minkgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for the benchmark and every process it starts, so that the
    # host-speed reference runs where the operations and CLI children run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import minkgeom

    if Path(minkgeom.__file__).resolve().parent != ROOT / "src" / "minkgeom":
        print(f"perfbench: minkgeom imported from {minkgeom.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import hostclock
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = workloads.child_env(ROOT)
    clock = hostclock.HostClock()
    setup_times, setup_scaled = [], []
    try:
        before = clock.sample()
        for _ in range(SETUP_PROBES):
            setup_times.append(setup_probe(args.workload, args.seed, env)[0])
            after = clock.sample()
            setup_scaled.append(clock.scale(setup_times[-1], before, after))
            before = after
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    state = wl.setup(args.seed, ROOT)
    ops_per_pass = len(wl.ops(state))
    min_passes = max(2, -(-MIN_OPS // ops_per_pass))

    if tracer is None:
        records, passes, wall = run_passes(wl, state, args.seconds, min_passes, clock=clock)
        s = summarize(records)
        r = summarize(records, "seconds")
        if "child_maxrss_kb" in state:
            rss_kb = state["child_maxrss_kb"]
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "items_per_s": s["items"] / s["op_time_s"],
            "op_s.p50": s["p50"],
            "op_s.tail": s["tail"],
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END
        raw = {"items_per_s": r["items"] / r["op_time_s"], "op_s.p50": r["p50"],
               "op_s.tail": r["tail"], "setup_s": statistics.median(setup_times)}
        factors = sorted(x.scaled / x.seconds for x in records if x.seconds > 0)
        extra = {"host speed factor": f"per operation {statistics.median(factors):.4f} median, "
                                      f"{factors[0]:.4f}-{factors[-1]:.4f}, from "
                                      f"{len(clock.samples)} reference samples "
                                      "(times above are scaled; raw below is unscaled)",
                 "raw": json.dumps(raw)}
    else:
        tracer.unhook()
        metrics, units, s, passes, wall, extra = traced_run(
            args, wl, state, tracer, env, out_dir, setup_times, workloads)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{s['attempted']} operations in {passes} passes, {wall:.2f} s wall, "
          f"{s['items']} {wl.item}s")
    print(f"  failed_frac {s['failed_frac']:.6g} ({s['failed']}/{s['attempted']})"
          f"  op_s p50 {s['p50']:.6g} s  tail p{s['tail_pct']:.1f} {s['tail']:.6g} s"
          f"  (n={s['attempted']})  setup probes {[round(t, 4) for t in setup_times]}")
    print("  environment " + json.dumps(environment(), sort_keys=True))
    for err in s["errors"]:
        print(f"  FAILED {err}")
    for key, value in extra.items():
        print(f"  {key} {value}")
    result = {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, wl, state, tracer, env, out_dir: Path, setup_times, workloads):
    import shutil

    import hostclock
    import layers
    import tracing

    _, importtime_err = setup_probe(args.workload, args.seed, env, importtime=True)
    import_rows = tracing.parse_importtime(importtime_err)
    imports = tracing.import_summary(import_rows)

    child_dir = out_dir / f"trace-{args.workload}-children"
    shutil.rmtree(child_dir, ignore_errors=True)
    child_imports = []

    def absorb(result, span, op_id):
        path = getattr(result, "trace_path", None)
        if not path or not os.path.exists(path):
            return
        child, _ = tracing.Tracer.load(path)
        tracer.absorb(child, span, op_id)
        child_imports.append(tracing.import_summary(tracing.parse_importtime(result.stderr)))

    # Untraced and traced passes alternate, so both sides of the tracing
    # overhead see the same host.  The traced passes take host clock samples,
    # and the per-layer times are scaled by the run's median factor.
    cli = isinstance(wl, workloads.CliWorkload)
    if cli:
        child_dir.mkdir(parents=True)
    clock = hostclock.HostClock()
    records: list[Record] = []
    untraced: list[Record] = []
    passes = 0
    start = time.perf_counter()
    while True:
        state.pop("trace_dir", None)
        untraced += run_passes(wl, state, 0.0, 1)[0]
        if cli:
            state["trace_dir"] = child_dir
        tracing.install(tracer)
        traced, _, _ = run_passes(wl, state, 0.0, 1, tracer, absorb,
                                  first_op=len(records) + 1, clock=clock)
        tracer.unhook()
        records += traced
        passes += 1
        wall = time.perf_counter() - start
        if wall * (passes + 1) / passes > args.seconds or len(tracer) > SPAN_BUDGET:
            break
    shutil.rmtree(child_dir, ignore_errors=True)

    # the untraced passes are checked and counted too
    checked = summarize(untraced + records)
    s = summarize(records) | {k: checked[k] for k in ("attempted", "failed", "failed_frac",
                                                      "errors")}
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in records)
    if child_imports:
        imports = {k: statistics.mean(ci[k] for ci in child_imports)
                   for k in ("minkgeom_s", "scipy_optimize_s")} | {"top": imports["top"]}
    overhead = traced_s / untraced_s if untraced_s else 0.0
    if isinstance(wl, workloads.KernelWorkload):
        points = s["items"]
    else:
        points = int(tracer.counters.get("level_points", 0))
    report_bytes = state.get("report_bytes", 0) / max(state.get("invocations_checked", 0), 1)
    f = clock.factor()
    metrics = {k: v * f if layers.PER_LAYER[k] == "s" else v
               for k, v in layers.per_layer(tracer, points, overhead, imports,
                                            report_bytes).items()}
    trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
    tracer.dump(str(trace_path), {
        "workload": args.workload, "seed": args.seed, "environment": environment(),
        "setup_s": setup_times, "importtime": imports, "per_layer": metrics,
        "untraced_op_s": untraced_s, "traced_passes": passes,
        "traced_op_s": traced_s, "host_speed_factor": f})
    extra = {"host speed factor": f"{f:.4f} from {len(clock.samples)} reference samples "
                                  "(per-layer times are scaled)",
             "trace": str(trace_path.relative_to(ROOT)),
             "spans": len(tracer), "missing hooks": tracer.missing or "none"}
    return metrics, layers.PER_LAYER, s, 2 * passes, wall, extra


if __name__ == "__main__":
    sys.exit(main())
