#!/usr/bin/env python3
"""Summarise the records in ``perfbench/out/``.

For each workload and end-to-end metric it prints the median over the
records, the quartiles and the spread, (Q3 - Q1) / median, with quartiles
as ``statistics.quantiles(values, n=4)`` gives them.  Traced records
contribute the median of each per-layer metric.  Run the benchmark on
several seeds first, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload run-report --seed $s --seconds 36 --trace 0
    done
    python3 perfbench/summarize.py
    python3 perfbench/summarize.py --append "abc1234 after the sparse core"

``--append LABEL`` also adds the summary to ``trajectory.json`` as a new
point, so that a performance change can cite the point before and after.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
TRAJECTORY = HERE / "trajectory.json"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def collect_layers() -> dict:
    """workload -> {per-layer metric: [values]} from the traced records."""
    out: dict = {}
    for path in sorted(OUT_DIR.glob("*-trace1.json")):
        rec = json.loads(path.read_text())
        layers = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            layers.setdefault(name, []).append(m["value"])
    return out


def collect() -> dict:
    """workload -> {"metrics": {name: [values]}, "seeds": [...], "environment"}"""
    out: dict = {}
    for path in sorted(OUT_DIR.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        w = out.setdefault(rec["workload"], {"metrics": {}, "seeds": [], "attempted": 0,
                                             "failed": 0, "environment": rec["environment"]})
        w["seeds"].append(rec["seed"])
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--append", metavar="LABEL", help="add a trajectory point")
    args = ap.parse_args(argv)
    data = collect()
    if not data:
        print(f"no records in {OUT_DIR}", file=sys.stderr)
        return 1
    layers = collect_layers()
    point = {"label": args.append, "machine": f"{_cpu_model()}, "
             f"{data[next(iter(data))]['environment']['nproc']} CPUs", "workloads": {}}
    for workload, w in sorted(data.items()):
        print(f"{workload}: seeds {sorted(w['seeds'])}, {w['failed']} of "
              f"{w['attempted']} queries failed")
        stats = {name: summary(v) for name, v in w["metrics"].items()}
        for name, s in stats.items():
            print(f"  {name:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
        point["workloads"][workload] = {
            "seeds": sorted(w["seeds"]), "environment": w["environment"],
            "fail_frac": w["failed"] / w["attempted"], "metrics": stats,
            "layers": {name: statistics.median(v)
                       for name, v in layers.get(workload, {}).items()}}
    if args.append:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
