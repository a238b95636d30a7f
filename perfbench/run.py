"""Benchmark of the gcr command line, end to end and per layer.

    python3 perfbench/run.py --workload check-fp --seed 1 --seconds 30 --trace 0

Runs, from the root of a source checkout, one workload of seeded JSON jobs
through `gcr.cli.main` in this process (document on a stdin stream, report
captured from stdout), as a closed loop with one client.  The loop repeats
whole rounds of the workload's jobs until `--seconds` are used up, then
checks every report with `checks.py`, which shares no code with gcr.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` every gcr layer is wrapped by `spans.py` and the
metrics are per layer, per round.  Each run also writes its per-job times
(and, traced, per-job layer times) under `perfbench/results/`.

    python3 perfbench/run.py --workload check-q --seed 1 --dump DIR

writes each job document of the round to DIR/<job id>.json, with the
expected facts in DIR/expect.json, so one job can be re-run with
`PYTHONPATH=src python3 -m gcr <command> --input DIR/<job id>.json`.
`--workload all` runs every workload, each in a fresh process, and prints
a summary of their metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Fresh processes that import gcr, for the median set-up time.
SETUP_SAMPLES = 9
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import gcr, gcr.cli; "
               "print(time.perf_counter() - t)")
# The tail is the highest percentile of per-job times with this many jobs
# beyond it.
TAIL_BEYOND = 10


def setup_seconds():
    """Median time to import gcr and its CLI, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run_rounds(cli, jobs, seconds, tracer):
    """Closed loop over whole rounds: (round wall times, job times, outputs).

    A further round starts only while it is expected to end by the deadline,
    judged by the mean round so far, so a run lasts about `seconds`.
    """
    docs = [json.dumps(j["doc"]) for j in jobs]
    times = [[] for _ in jobs]
    outputs = [[] for _ in jobs]
    round_s = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, (job, doc) in enumerate(zip(jobs, docs)):
            if tracer is not None:
                tracer.job = job["id"]
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            code = cli.main([job["command"]], stdin=io.StringIO(doc),
                            stdout=out, stderr=err)
            times[i].append(time.perf_counter() - t0)
            outputs[i].append((code, out.getvalue(), err.getvalue()))
        round_s.append(time.perf_counter() - round_start)
        wall = time.perf_counter() - start
        if wall + wall / len(round_s) / 2 >= seconds:
            return round_s, times, outputs


def check_outputs(jobs, outputs):
    """Errors of every execution; identical reports are checked once."""
    cache = {}
    errors = []
    for job, runs in zip(jobs, outputs):
        per_job = []
        for code, out, err in runs:
            if code != 0:
                per_job.append([f"exit code {code}: {err.strip()}"])
                continue
            report = json.loads(out)
            report.pop("elapsed_ms")
            key = (job["id"], json.dumps(report, sort_keys=True))
            if key not in cache:
                cache[key] = checks.report_errors(job, report)
            per_job.append(cache[key])
        errors.append(per_job)
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_all(args):
    """Every workload in its own fresh process, one summary line per metric."""
    for name in sorted(workloads.WORKLOADS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", metavar="DIR",
                    help="write the round's job documents to DIR and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcr", "cli.py")):
        print(f"error: no gcr sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    checks.pin_cases()
    jobs = workloads.jobs(args.workload, args.seed)

    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for job in jobs:
            with open(os.path.join(args.dump, job["id"] + ".json"), "w") as fh:
                json.dump(job["doc"], fh)
        with open(os.path.join(args.dump, "expect.json"), "w") as fh:
            json.dump({j["id"]: j["expect"] for j in jobs}, fh, indent=1)
        print(f"wrote {len(jobs)} jobs to {args.dump}")
        return 0

    setup_s = setup_seconds()
    sys.path.insert(0, SRC)
    from gcr import cli

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    round_s, times, outputs = run_rounds(cli, jobs, args.seconds, tracer)
    rounds = len(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = check_outputs(jobs, outputs)
    attempted = rounds * len(jobs)
    failed = sum(1 for per_job in errors for e in per_job if e)
    # Only the hidden-flag slice may fail: the program misses a flag that
    # is not in the standard basis (engine._minimal_invariant).
    correct = not any(e for job, per_job in zip(jobs, errors)
                      if not job["expect"].get("hidden") for e in per_job)
    failures = {}
    for job, per_job in zip(jobs, errors):
        for e in per_job:
            if e:
                failures.setdefault(job["id"], e[0])
    for job_id, reason in sorted(failures.items()):
        print(f"failed {job_id}: {reason}")

    per_job_ms = [1000 * statistics.median(t) for t in times]
    # Jobs of a round over the round's wall time, median over rounds, so a
    # stall of the machine during one round does not set the figure.
    jobs_per_s = len(jobs) / statistics.median(round_s)
    if tracer is None:
        metrics = {
            "jobs_per_s": metric(jobs_per_s, "1/s"),
            "job_p50_ms": metric(statistics.median(per_job_ms), "ms"),
            "job_tail_ms": metric(sorted(per_job_ms)[-1 - TAIL_BEYOND], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
    else:
        metrics = tracer.metrics(rounds)
        metrics["trace.jobs_per_s"] = metric(jobs_per_s, "1/s")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "python": sys.version.split()[0], "nproc": os.cpu_count(),
                   "metrics": metrics, "failures": failures,
                   "job_ms": dict(zip((j["id"] for j in jobs), per_job_ms)),
                   "layers": tracer.job_table(rounds) if tracer else None},
                  fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
