"""The qramsey benchmark.

    python3 perfbench/run.py --workload {search,construct,pipeline,enumerate,all}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout that has `src/qramsey`; it needs
nothing but the Python standard library.  Each workload runs in its own
fresh process (worker.py), one job at a time, and every answer is
checked.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs the workload untraced and then traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object:

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"wall_s": {"value": 9.81, "unit": "s"}, ...}}

A wrong answer, output that changes between passes or under tracing,
or a missing program ends the run with a non-zero exit.  See NOTES.md
for what each workload stresses and which cases are left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402
from workloads import FIELD_ORDERS, WORKLOADS  # noqa: E402

# Fresh interpreters timed for setup_s; the first only warms the file
# cache and the bytecode cache and is not counted.
SETUP_PROBES = 17
# The whole run, all workers included, ends within this many seconds.
RUN_LIMIT_S = 170

RATIO_SUFFIXES = ("ns_per_node", "_ratio", "input_density")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "verified_frac": "ratio"}


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _python(script: str, args: list[str], deadline: float) -> str:
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script),
                               *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} passed the run time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{script} {' '.join(args)} exited "
                         f"{proc.returncode}")
    return proc.stdout


def measure_setup(workload: str, deadline: float) -> list[tuple]:
    """(start, seconds) of SETUP_PROBES - 1 interpreters' set-up."""
    orders = [str(q) for q in FIELD_ORDERS[workload]]
    probes = [tuple(float(x) for x in _python("setup_probe.py", orders,
                                              deadline).split())
              for _ in range(SETUP_PROBES)]
    return probes[1:]


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> dict:
    out = _python("worker.py", ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds),
                                "--trace", str(trace)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def corrected_passes(result: dict, probe: SpeedProbe) -> list[float]:
    """The worker's pass times, corrected for the host's speed."""
    return [sum(probe.corrected(start, elapsed) for start, elapsed in ivs)
            for ivs in result["intervals"]]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _counts(result: dict) -> tuple[int, int, int]:
    """(attempted, failed, verified) job runs over all passes."""
    passes = len(result["pass_s"])
    statuses = list(result["statuses"].values())
    return (passes * len(statuses), passes * statuses.count("error"),
            passes * statuses.count("verified"))


def bench_workload(workload: str, seed: int, seconds: float, trace: int,
                   deadline: float) -> tuple[int, int, dict, list[str]]:
    """Run one workload; returns (attempted, failed, metrics, report lines)."""
    report = [f"workload {workload} seed {seed}"]
    with SpeedProbe() as probe:
        setup = [] if trace else measure_setup(workload, deadline)
        # a traced run needs only the fewest untraced passes: answers,
        # digests, overhead
        plain = run_worker(workload, seed, 0 if trace else seconds, 0,
                           deadline)
        traced = run_worker(workload, seed, seconds, 1,
                            deadline) if trace else None
    attempted, failed, verified = _counts(plain)
    report.append(f"  output digest {plain['digest']}")
    passes = corrected_passes(plain, probe)
    if not trace:
        setup_s = [probe.corrected(start, secs) for start, secs in setup]
        values = {
            "wall_s": (statistics.median(passes), passes),
            "setup_s": (statistics.median(setup_s), setup_s),
            "peak_rss_mb": (plain["peak_rss_mb"], [plain["peak_rss_mb"]]),
            "verified_frac": (verified / attempted, [verified / attempted]),
        }
        metrics = {}
        for name, (value, samples) in values.items():
            unit = END_TO_END_UNITS[name]
            q1, q3 = _quartiles(samples)
            report.append(f"  {name:14s} {value:12.6g} {unit:6s} "
                          f"n={len(samples)} q1={q1:.6g} q3={q3:.6g}")
            metrics[name] = {"value": value, "unit": unit}
        report.append(f"  failed_frac    {1 - verified / attempted:12.6g} "
                      "ratio  (jobs without a verified answer)")
        report.append("  uncorrected medians: wall_s "
                      f"{statistics.median(plain['pass_s']):.6g} s, setup_s "
                      f"{statistics.median(s for _, s in setup):.6g} s "
                      f"({len(probe.durations)} speed samples, median "
                      f"{1e6 * statistics.median(probe.durations):.0f} us)")
        return attempted, failed, metrics, report

    if traced["digest"] != plain["digest"]:
        changed = [name for name, d in traced["job_digests"].items()
                   if plain["job_digests"].get(name) != d]
        raise BenchError(f"tracing changed the output of {changed}")
    # totals over the traced passes, reported per pass; ratios as they are;
    # the field tables are built once, before the first pass
    layers = traced["layers"]
    npass = len(traced["pass_s"])
    figures = {name: value if name.endswith(RATIO_SUFFIXES) else value / npass
               for name, value in layers.items()}
    figures["field.make_field.self_s"] = layers["field.make_field.setup_s"]
    figures["cli.stdout_bytes"] = statistics.mean(traced["stdout_bytes"])
    figures["cli.bundle_bytes"] = statistics.mean(traced["bundle_bytes"])
    figures["trace.overhead_s"] = (
        statistics.median(corrected_passes(traced, probe))
        - statistics.median(passes))
    metrics = {}
    for spec in _per_layer_spec():
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": figures[name], "unit": unit}
        report.append(f"  {name:52s} {figures[name]:14.6g} {unit}")
    return attempted, failed, metrics, report


def _per_layer_spec() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for at least this long (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qramsey", "__init__.py")):
        print(f"no qramsey sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # the speed probe follows the drift of the CPU it shares (speed.py)
    pin_to_one_cpu()
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    print(f"seed {args.seed}")
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            a, f, m, report = bench_workload(name, args.seed, args.seconds,
                                             args.trace, deadline)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            print("\n".join(report), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
