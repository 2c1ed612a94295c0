"""Benchmark child process: one client in a closed loop.

    python3 perfbench/worker.py MODE JOBS_JSON OUT_JSON SECONDS

The worker imports bmwcert from the checkout's src/ directory and reads
the workload's input files with the package's readers (this is what
setup_s measures), then calls bmwcert.cli.main(argv) one job at a time,
capturing the exit code and the JSON report.  It runs whole passes of
the job list, each pinned to the next of its CPUs in turn, and starts no
pass once the last pass would overrun SECONDS.

MODE:
  setup     set up and exit
  measure   untraced passes
  paired    passes in which each job runs untraced and then traced
  traced    one traced pass
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_package():
    """Import bmwcert from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import bmwcert
    import bmwcert.cli

    if not os.path.abspath(bmwcert.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bmwcert was imported from {bmwcert.__file__}, not from {SRC}")
    return bmwcert


def read_inputs(jobs):
    from bmwcert.report import import_rmatrix, import_twist

    readers = {"rmatrix": import_rmatrix, "twist": import_twist}
    for kind, path in sorted({tuple(f) for job in jobs for f in job["files"]}):
        readers[kind](path)


def run_one(call, argv):
    """(seconds, exit code, report text, exception text or None)."""
    out = io.StringIO()
    err = io.StringIO()
    code = None
    raised = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
    except SystemExit as exc:
        raised = f"SystemExit({exc.code!r}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # a crash is a failed verdict, and the loop goes on
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), raised


VARIANTS = {"setup": (), "measure": (False,), "paired": (False, True), "traced": (True,)}


def execute(cli_main, job, tracer):
    """One verdict, traced when a tracer is given."""
    # Collect the previous job's garbage off the clock: a CLI user starts
    # each verdict in a fresh process, and the loop should not make one job
    # pay for another's heap.
    gc.collect()
    if tracer is None:
        return run_one(cli_main, job["argv"])
    tracer.install()
    try:
        return run_one(lambda argv: tracer.call("cli.main", cli_main, argv), job["argv"])
    finally:
        tracer.uninstall()


def main(argv):
    mode, jobs_path, out_path, seconds = argv[1], argv[2], argv[3], float(argv[4])
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    bmwcert = load_package()
    read_inputs(jobs)
    result = {"ready": time.monotonic(), "runs": [], "metrics": []}
    sys.path.insert(0, HERE)
    from tracer import Tracer
    from verdicts import check

    tracer = Tracer() if mode in ("paired", "traced") else None
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    deadline = time.perf_counter() + seconds
    n_pass = 0
    while VARIANTS[mode]:
        # Each pass runs on the next CPU in turn.  On a shared host the CPUs
        # are slowed by other tenants at different times, so a job's fastest
        # pass has a slow stretch on one CPU and a fast one on another to
        # choose from.
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[n_pass % len(cpus)]})
        t_pass = time.perf_counter()
        for j, job in enumerate(jobs):
            for traced in VARIANTS[mode]:
                s, code, text, raised = execute(bmwcert.cli.main, job, tracer if traced else None)
                result["runs"].append({"pass": n_pass, "job": j, "traced": traced, "s": s,
                                       "problems": check(job["expected"], code, text, raised)})
                if traced:
                    result["metrics"].append({"pass": n_pass, "job": j, "m": tracer.job_metrics()})
        n_pass += 1
        now = time.perf_counter()
        if mode == "traced" or now + (now - t_pass) > deadline:
            break
    if tracer is not None:
        tracer.write_spans(out_path + ".spans.jsonl")
        result["self_s"] = tracer.self_times()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
