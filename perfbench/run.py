#!/usr/bin/env python3
"""The edgehodge benchmark: three seeded workloads, every answer checked.

    python3 perfbench/run.py --workload subdivided-edge --seed 1 --seconds 36 --trace 0

Run from the checkout root; the package is imported from ``src/``.  One
process runs one job after another (a closed loop, batch use) for
``--seconds`` seconds and checks every answer against the oracle.

``--trace 0`` reports the end-to-end metrics: ``job_s`` and ``job_cpu_s``
(wall and process CPU time of one job), ``first_answer_s`` (load a model
dict, validate it and return its first IH table; per model, summed over
the workload's models), ``setup_s`` (a fresh process imports the package
with numpy and scipy and generates the inputs; the median over several
processes) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics of ``layertrace``.

Job and first-answer times are the fastest of the run's repeats, not the
median.  On a shared host the slowdowns only ever add time and come in
bursts of seconds in which the same work takes up to 2.5 times as long,
so the median of a run moves with how much of the run a burst covered,
while the fastest repeat stays put.  The medians are kept in the record.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` (queries that
raised or disagreed with the oracle; fail_frac = failed / attempted) and
``metrics``.  The full record, with the environment and every sample, is
written to ``perfbench/out/``.  Exit code 2 means the program could not
be found, and no result is printed.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import program  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("subdivided-edge", "catalogue-sweep", "run-report")
SETUP_PROBES = 3  # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "first_answer_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time set-up in this process, print it and exit")
    return ap.parse_args(argv)


def setup(workload: str, seed: int) -> dict:
    """Import the whole package (with numpy and scipy) and make the inputs."""
    program.load()
    import layertrace

    for name in layertrace.MODULES:
        importlib.import_module(f"edgehodge.{name}")
    import inputs

    return inputs.make_inputs(workload, seed)


def probe_setup(workload: str, seed: int) -> list[float]:
    """setup_s of SETUP_PROBES fresh processes, one after another."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(workload: str, inp: dict, seconds: float, trace: bool) -> dict:
    """Run jobs for ``seconds``: a job starts only if a job of the average
    length so far would still end in time, and at least one job (with
    ``trace``, one untraced and one traced) always runs.  With ``trace``
    every second job is traced.  Returns the samples and answer counts."""
    import jobs
    import layertrace
    import oracle

    orc = oracle.Oracle.load()
    checker = jobs.Checker(orc, inp.get("config", {}).get("fibre_grid"))
    job = jobs.JOBS[workload]
    tracer = layertrace.Tracer() if trace else None
    rec = {"job_s": [], "job_cpu_s": [], "first_answer_s": [],
           "traced_job_s": [], "layers": [], "attempted": 0, "failed": 0,
           "messages": [], "absent": [], "count_s": []}
    start = time.perf_counter()
    n = 0
    while n < (2 if trace else 1) or (time.perf_counter() - start) * (n + 1) / n <= seconds:
        traced = trace and n % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            out = job(inp, n)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rec["traced_job_s"].append(wall)
            rec["layers"].append(tracer.metrics(wall))
            rec["count_s"].append(tracer.count_s)
        else:
            rec["job_s"].append(wall)
            rec["job_cpu_s"].append(cpu)
        answers, firsts = jobs.collect(workload, inp, orc, out)
        rec["first_answer_s"].extend(firsts)
        attempted, failed, messages = checker.count(answers)
        rec["attempted"] += attempted
        rec["failed"] += failed
        rec["messages"] = (rec["messages"] + messages)[:10]
        n += 1
    if tracer is not None:
        rec["absent"] = tracer.absent
    return rec


def first_answer(samples, stat) -> float:
    """Sum over models of ``stat`` of each model's times to first answer."""
    per_model: dict[str, list[float]] = {}
    for name, seconds in samples:
        per_model.setdefault(name, []).append(seconds)
    return sum(stat(v) for v in per_model.values())


def end_to_end_metrics(rec: dict, setup_samples: list[float]) -> dict:
    return {
        "job_s": min(rec["job_s"]),
        "job_cpu_s": min(rec["job_cpu_s"]),
        "first_answer_s": first_answer(rec["first_answer_s"], min),
        "setup_s": median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(rec: dict) -> dict:
    import layertrace

    out = {}
    for name in layertrace.METRICS:
        values = [m[name] for m in rec["layers"] if name in m]
        if values:
            out[name] = median(values)
    out["trace_overhead_frac"] = min(rec["traced_job_s"]) / min(rec["job_s"]) - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        inp = setup(args.workload, args.seed)
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    own_setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    import layertrace

    setup_samples = [own_setup_s] if args.trace else [own_setup_s] + probe_setup(
        args.workload, args.seed)
    rec = measure(args.workload, inp, args.seconds, bool(args.trace))
    if args.trace:
        values = per_layer_metrics(rec)
        units = {name: layertrace.METRICS[name][0] for name in values}
    else:
        values = end_to_end_metrics(rec, setup_samples)
        units = END_TO_END
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    env = program.environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "attempted": rec["attempted"], "failed": rec["failed"],
        "fail_frac": rec["failed"] / rec["attempted"], "absent": rec["absent"],
        "samples": {k: rec[k] for k in ("job_s", "job_cpu_s", "first_answer_s",
                                        "traced_job_s")},
        "medians": {"job_s": median(rec["job_s"]), "job_cpu_s": median(rec["job_cpu_s"]),
                    "first_answer_s": first_answer(rec["first_answer_s"], median)},
        "setup_samples": setup_samples,
        "trace_count_s": rec["count_s"],
        "layer_effects": layertrace.LAYER_EFFECTS,
        "failures": rec["messages"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for message in rec["messages"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  jobs "
          f"{len(rec['job_s']) + len(rec['traced_job_s'])}  environment {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {record['fail_frac']:>14.6g} "
          f"({rec['failed']} of {rec['attempted']} queries)")
    if record["absent"]:
        print(f"  absent (no longer in the program): {', '.join(record['absent'])}")
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
