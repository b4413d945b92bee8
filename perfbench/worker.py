"""One workload in one fresh process: a closed-loop client, one job at a time.

Started by run.py:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace {0,1}

The worker imports qramsey from the checkout's `src/`, builds the
make_field tables the workload uses, generates the job list from the
seed in `.bench_work/W`, and repeats the list (a pass) until --seconds
have gone by and at least MIN_PASSES passes have run.  Each job is one
`qramsey.cli.main(argv)` call with stdout captured; only that call is
timed.  Every pass must reproduce the first pass's stdout and written
files byte for byte.  After the timing ends the first pass's answers are
checked.  With --trace 1 the layers' public functions are wrapped in
spans for the whole run, field set-up included, and the spans are
written to `.bench_trace/W-seedS.jsonl`.

The last line of stdout is one JSON object with the pass times, the
start and length of every timed job, peak resident memory, job
statuses, output digests and (traced) the layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A job running this long is killed and counted as failed.
JOB_LIMIT_S = 90
# The first pass runs on a fresh heap and is slower than the rest, so every
# run has at least two passes; otherwise runs with one pass and runs with
# two would report different mixes.
MIN_PASSES = 2


class JobKilled(BaseException):
    """Raised in a job that ran past JOB_LIMIT_S."""


def _on_alarm(signum, frame):
    raise JobKilled()


def load_program():
    """Import qramsey from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import qramsey
    where = os.path.dirname(os.path.abspath(qramsey.__file__))
    if where != os.path.join(SRC, "qramsey"):
        raise SystemExit(f"qramsey was imported from {where}, not from {SRC}")
    return qramsey


def run_job(cli, job) -> tuple[int | None, str, float, float, str]:
    """Run one command; returns (exit code or None, stdout, start, seconds,
    error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:          # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except JobKilled:
        code, error = None, f"killed after {JOB_LIMIT_S} s"
    except Exception:                  # a crash counts against the program
        code, error = None, traceback.format_exc()
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), start, elapsed, error


def file_digest(path: str) -> tuple[str, int]:
    """(sha256, size) of a file, read in chunks so the read adds no peak."""
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    work_dir = os.path.join(".bench_work", args.workload)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: str) -> int:
    load_program()
    sys.path.insert(0, HERE)
    from checks import WrongAnswer, check_job
    from workloads import FIELD_ORDERS, build_jobs, prepare_job
    from qramsey import cli, field

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    # through the module attribute, so a traced run times the table builds
    for q in FIELD_ORDERS[args.workload]:
        field.make_field(q)
    setup_field_s = tracer.self_s["field.make_field"] if tracer else None
    jobs = build_jobs(args.workload, args.seed, work_dir)

    pass_s: list[float] = []
    intervals: list[list[tuple[float, float]]] = []   # per pass, per job
    stdout_bytes: list[int] = []
    bundle_bytes: list[int] = []
    first: list[tuple[int | None, str, str]] = []
    digests: list[str] | None = None
    measure_start = perf_counter()
    while (len(pass_s) < MIN_PASSES
           or perf_counter() - measure_start < args.seconds):
        total = 0.0
        out_bytes = file_bytes = 0
        pass_digests = []
        pass_intervals = []
        for job in jobs:
            if not pass_s:
                prepare_job(job)
            gc.collect()
            code, out, start, elapsed, error = run_job(cli, job)
            total += elapsed
            pass_intervals.append((start, elapsed))
            out_bytes += len(out.encode())
            h = hashlib.sha256(f"{job.name}\0{code}\0{out}".encode())
            for path in job.writes:
                if code == 0:
                    digest, size = file_digest(path)
                    h.update(digest.encode())
                    file_bytes += size
            pass_digests.append(h.hexdigest())
            if not pass_s:
                first.append((code, out, error))
        if digests is None:
            digests = pass_digests
        elif pass_digests != digests:
            changed = [j.name for j, a, b in zip(jobs, digests, pass_digests)
                       if a != b]
            print(f"output changed between passes: {changed}", file=sys.stderr)
            return 6
        pass_s.append(total)
        intervals.append(pass_intervals)
        stdout_bytes.append(out_bytes)
        bundle_bytes.append(file_bytes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["field.make_field.setup_s"] = setup_field_s
        os.makedirs(".bench_trace", exist_ok=True)
        tracer.dump(os.path.join(
            ".bench_trace", f"{args.workload}-seed{args.seed}.jsonl"))

    statuses = {}
    for job, (code, out, error) in zip(jobs, first):
        if code is None or code == 4:
            statuses[job.name] = "error"
            print(f"{job.name}: exit {code} {error}", file=sys.stderr)
            continue
        try:
            statuses[job.name] = check_job(job, code, out)
        except WrongAnswer as exc:
            print(f"WRONG ANSWER: {exc}", file=sys.stderr)
            return 5

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": pass_s,
        "intervals": intervals,
        "peak_rss_mb": peak_rss_mb,
        "statuses": statuses,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "job_digests": dict(zip((j.name for j in jobs), digests)),
        "stdout_bytes": stdout_bytes,
        "bundle_bytes": bundle_bytes,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
