"""Certification benchmark for bmwcert: verdict latency and throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds T]

One client in a closed loop: a child interpreter calls
bmwcert.cli.main(argv) for one job at a time, in whole passes over the
workload's fixed job list, and every verdict is checked against its
hand-written expected answer.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run, the tracing overhead, and an exact-count self-check between
two traced processes of the same seed.  --workload all runs every workload
with untraced runs on consecutive seeds until at least 100 verdicts are
pooled, and prints the pooled end-to-end table.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names, units and reasons are listed
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import EXACT_COUNTS, pass_metrics  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 20
RUN_TIMEOUT_S = 170
POOL_MIN_VERDICTS = 100
POOL_MAX_RUNS = 20

END_TO_END = (
    ("certs_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
STAGE_METRICS = tuple(f"core.{stage}.s" for stage in (
    "yang_baxter", "nu_detect", "kappa", "kappa_inverse_form", "bmw_relations",
    "minimal_cubic", "skew_inverse", "prop1", "theorem_suite", "factor_pairings",
    "pairing_factorization", "xy", "rtt_lemma", "full_verification",
))
PER_LAYER = tuple((name, "s") for name in STAGE_METRICS) + (
    ("tensors.compose.calls", "count"),
    ("tensors.compose.s", "s"),
    ("tensors.product.madds", "count"),
    ("tensors.product.nnz_out", "count"),
    ("tensors.embed.calls", "count"),
    ("tensors.embed.s", "s"),
    ("tensors.embed.distinct_ratio", "ratio"),
    ("tensors.partial_trace.s", "s"),
    ("tensors.elim.calls", "count"),
    ("tensors.elim.s", "s"),
    ("tensors.char_poly.s", "s"),
    ("scalars.mul.calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.div.calls", "count"),
    ("scalars.s", "s"),
    ("scalars.slow_path_ratio", "ratio"),
    ("scalars.max_terms", "count"),
    ("scalars.max_coeff_bits", "bits"),
    ("scalars.parse.calls", "count"),
    ("scalars.parse.s", "s"),
    ("families.build.s", "s"),
    ("report.import.s", "s"),
    ("report.render.s", "s"),
    ("cli.recompute.s", "s"),
    ("cli.other.s", "s"),
    ("trace_overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child failed)."""


# ---------------------------------------------------------------------------
# Environment


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Children


def spawn(mode, jobs_path, out_path, seconds, deadline):
    """Run one worker to completion; returns (its result, its setup time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, jobs_path, out_path, str(seconds)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - t0


def prepare(workload, seed):
    if not os.path.isfile(os.path.join(ROOT, "src", "bmwcert", "cli.py")):
        raise BenchError(f"no bmwcert sources under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.build(workload, seed, workdir)
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)
    return workdir, jobs, jobs_path


# ---------------------------------------------------------------------------
# Statistics


def by_job(runs, traced):
    out = {}
    for r in runs:
        if r["traced"] == traced:
            out.setdefault(r["job"], []).append(r["s"])
    return out


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(runs, n_jobs, setup_samples, maxrss_kb):
    # Each job's latency is its fastest pass.  Host contention slows whole
    # stretches of 10-40 s by up to 2x; the fastest of the passes spread over
    # a run is the figure that contention moves least.  Throughput and
    # percentiles are then taken over one pass of the job list.
    times = by_job(runs, False)
    best = sorted(min(times[j]) for j in range(n_jobs))
    return {
        "certs_per_s": n_jobs / sum(best),
        "verdict_s.p50": percentile(best, 50),
        "verdict_s.p90": percentile(best, 90),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def failures(runs, jobs):
    return [
        {"pass": r["pass"], "job": r["job"], "argv": jobs[r["job"]]["argv"], "problems": r["problems"]}
        for r in runs if r["problems"]
    ]


def per_layer(traced_results, jobs):
    """Per-layer metrics and the exact-count self-check.

    traced_results: one list of {"pass", "job", "m"} records per traced
    process.  Times are the fastest traced pass, as for the end-to-end
    figures; counts come from one pass and must repeat exactly in every
    other pass of every process.
    """
    passes = []
    per_job = {}
    for records in traced_results:
        grouped = {}
        for rec in records:
            grouped.setdefault(rec["pass"], {})[rec["job"]] = rec["m"]
            per_job.setdefault(rec["job"], []).append(rec["m"])
        passes.extend(g for g in grouped.values() if len(g) == len(jobs))
    mismatches = []
    for j, ms in sorted(per_job.items()):
        for key in EXACT_COUNTS:
            values = sorted({m.get(key, 0) for m in ms})
            if len(values) > 1:
                mismatches.append(f"job {j} {jobs[j]['argv'][1:5]}: {key} took values {values}")
    totals = [pass_metrics(p.values()) for p in passes]
    first = totals[0]
    out = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] = min(t.get(name, 0.0) for t in totals)
        elif unit in ("count", "bits"):
            out[name] = first.get(name, 0)
    out["tensors.embed.distinct_ratio"] = (
        first.get("tensors.embed.distinct", 0) / max(1, first.get("tensors.embed.calls", 0))
    )
    scalar_calls = sum(first.get(f"scalars.{k}.calls", 0) for k in ("mul", "add", "div"))
    out["scalars.slow_path_ratio"] = first.get("scalars.slow_calls", 0) / max(1, scalar_calls)
    return out, mismatches, len(totals)


# ---------------------------------------------------------------------------
# One run


def run_once(workload, seed, seconds, trace):
    env = environment()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir, jobs, jobs_path = prepare(workload, seed)

    def setup_children(first):
        # Half before and half after the measured child, so the samples
        # span the run and not one moment of it.
        return [
            spawn("setup", jobs_path, os.path.join(workdir, f"setup{k}.json"), 0, deadline)[1]
            for k in range(first, first + SETUP_REPEATS // 2)
        ]

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "jobs": len(jobs)}
    if not trace:
        setup_samples = setup_children(0)
        res, s = spawn("measure", jobs_path, os.path.join(workdir, "measure.json"), seconds,
                       deadline)
        setup_samples += [s] + setup_children(SETUP_REPEATS // 2)
        runs = res["runs"]
        metrics = end_to_end(runs, len(jobs), setup_samples, res["maxrss_kb"])
        record["passes"] = 1 + max(r["pass"] for r in runs)
        record["latencies"] = sorted(r["s"] for r in runs)
        mismatches = []
    else:
        # Process A alternates untraced and traced executions of each job for
        # half the budget; process B repeats one traced pass for the
        # exact-count self-check.
        setup_samples = []
        res_a, _ = spawn("paired", jobs_path, os.path.join(workdir, "traced_a.json"),
                         seconds / 2, deadline)
        res_b, _ = spawn("traced", jobs_path, os.path.join(workdir, "traced_b.json"), 0,
                         deadline)
        runs = res_a["runs"] + res_b["runs"]
        metrics, mismatches, record["passes"] = per_layer(
            [res_a["metrics"], res_b["metrics"]], jobs
        )
        record["self_s"] = res_b["self_s"]
        plain = by_job(res_a["runs"], False)
        traced = by_job(res_a["runs"], True)
        metrics["trace_overhead"] = (
            sum(min(traced[j]) for j in traced) / sum(min(plain[j]) for j in traced) - 1.0
        )
    failed = failures(runs, jobs)
    env["loadavg_after"] = list(os.getloadavg())
    record.update(
        attempted=len(runs), failed=len(failed), failed_ratio=len(failed) / len(runs),
        failures=failed, self_check=mismatches, setup_samples=setup_samples, metrics=metrics,
    )
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


# ---------------------------------------------------------------------------
# Output


def print_env(env):
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"load {' '.join(f'{x:.2f}' for x in env['loadavg_before'])} before, "
          f"{' '.join(f'{x:.2f}' for x in env['loadavg_after'])} after")


def print_run(record):
    kind = "traced" if record["trace"] else "untraced"
    print(f"workload {record['workload']}  seed {record['seed']}  {kind}  "
          f"{record['passes']} passes of {record['jobs']} jobs  {record['attempted']} verdicts")
    units = dict(PER_LAYER if record["trace"] else END_TO_END)
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':32s} {record['failed_ratio']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for f in record["failures"]:
        print(f"  MISMATCH pass {f['pass']} job {f['job']} {' '.join(f['argv'])}: "
              f"{'; '.join(f['problems'])}")
    if record["trace"]:
        verdict = "FAILED" if record["self_check"] else "passed"
        print(f"  exact-count self-check {verdict}")
        for line in record["self_check"]:
            print(f"    {line}")
        print("  self time by span over process B's pass (scalar time sits inside these):")
        for name, value in sorted(record["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:30s} {value:12.6g} s")
    print_env(record["env"])


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def run_all(seed, seconds):
    """Every workload on consecutive seeds until POOL_MIN_VERDICTS verdicts
    are pooled.  The table holds the median of each metric over the runs;
    the raw latency percentiles are taken over the pooled verdicts."""
    summary = {}
    ok = True
    for workload in workloads.WORKLOADS:
        records = []
        while len(records) < POOL_MAX_RUNS and (
            sum(r["attempted"] for r in records) < POOL_MIN_VERDICTS
        ):
            records.append(run_once(workload, seed + len(records), seconds, 0))
            print_run(records[-1])
        metrics = {
            name: statistics.median(r["metrics"][name] for r in records)
            for name, _ in END_TO_END
        }
        failed = sum(r["failed"] for r in records)
        metrics["failed_ratio"] = failed / sum(r["attempted"] for r in records)
        pooled = sorted(x for r in records for x in r["latencies"])
        p90 = percentile(pooled, 90)
        metrics["raw_latency_s.p50"] = percentile(pooled, 50)
        metrics["raw_latency_s.p90"] = p90
        ok = ok and failed == 0
        summary[workload] = metrics
        print(f"{workload}: median of {len(records)} runs; raw latency over {len(pooled)} "
              f"pooled verdicts, {sum(1 for x in pooled if x > p90)} beyond p90")
        for name, value in metrics.items():
            print(f"  {name:32s} {value:14.6g}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        record = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_run(record)
    correct = record["failed"] == 0 and not record["self_check"]
    units = PER_LAYER if args.trace else END_TO_END
    print(result_line(correct, record["attempted"], record["failed"], record["metrics"], units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
