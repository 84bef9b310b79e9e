"""Steadiness check: run every workload once per seed, ten seeds, and report the spread.

    python3 perfbench/steadiness.py [--first-seed 0] [--out FILE]

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, which is the distance between the quartiles as a
share of the median, next to the metric's bound.  It does the same for the
raw time metrics, before the host-speed scaling of ``hostclock.py``, which
the summary line of every run prints.  A run that fails or reports
``correct: false`` stops the check.  The JSON summary goes to ``--out``
(default ``.perfbench_out/steadiness.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
RAW_PREFIX = "  raw "


def spread_rows(values: dict, bounds: dict, label: str) -> dict:
    rows = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                      "bound": bounds.get(name), "values": vals}
        print(f"  {label:22s} {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {rows[name]['spread']:.4f}  bound {bounds.get(name)}")
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--out", default=str(ROOT / ".perfbench_out" / "steadiness.json"))
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(range(args.first_seed, args.first_seed + SEEDS)),
               "workloads": {}, "raw": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in summary["seeds"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect\n{proc.stdout}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith(RAW_PREFIX):
                    for name, v in json.loads(line[len(RAW_PREFIX):]).items():
                        raw.setdefault(name, []).append(v)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary["workloads"][wl] = spread_rows(values, bounds, wl)
        summary["raw"][wl] = spread_rows(raw, bounds, f"{wl} (raw)")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
