"""Benchmark of the blockade package: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] \
        [--trace 0|1]

Run from the root of a checkout.  Without --workload every workload in
BENCHMARK.json runs in turn.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The report also prints each workload's failed_ratio, which BENCHMARK.json
does not bound because it is 0 when the program is correct.

Each workload runs in a fresh interpreter (perfbench/worker.py) with BLAS
and the sweep pool pinned to one thread; wall_s and cpu_s add up each
call's interquartile mean time over the passes, scaled to a reference
machine speed (see calibrate.py and worker.py).  setup_s is the median over
SETUP_PROBES separate fresh interpreters, each scaled the same way.  The
human-readable report goes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Output
files, full results and span traces go to .perfbench_out/ in the checkout.
The exit code is 0 when the benchmark ran, whether or not its correctness
checks passed (see "correct"), and non-zero without a result when it could
not run.
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
OUT = os.path.join(ROOT, ".perfbench_out")
TIME_LIMIT_S = 170.0            # per workload, set-up included
SETUP_PROBES = 10
# BLAS and the sweep pool run on one thread each: on a machine of a few
# shared cores, more threads measure the scheduler rather than the program.
# String hashing is fixed too: with a random hash seed per interpreter the
# same workload's speed moved by a few percent from process to process.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "BLOCKADE_THREADS": "1",
             "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}

# A fresh interpreter imports blockade from the checkout and makes its first
# steady_amplitudes call, then times the reference kernel; prints the seconds
# the set-up took, unscaled and scaled by the kernel's wall time (see
# calibrate.py).
_SETUP_PROBE = """\
import os, sys, time
t0 = time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)
import blockade
from blockade import steady_amplitudes, weak_params
steady_amplitudes(weak_params(delta=7.3e-05, lambda_gain=9.3e-07))
elapsed = time.perf_counter() - t0
if not os.path.abspath(blockade.__file__).startswith(src + os.sep):
    sys.exit("blockade imported from %s, not %s" % (blockade.__file__, src))
sys.path.insert(0, sys.argv[2])
from calibrate import REFERENCE_S, timed_kernel
kernel = timed_kernel()[0]
print(repr(elapsed), repr(elapsed * REFERENCE_S / kernel))
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def _run(cmd, timeout, cpu=None):
    """Run cmd from the checkout root; cpu pins it to that CPU."""
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out after %.0f s" % (cmd[1], timeout)) from exc


def measure_setup(deadline) -> list[tuple[float, float]]:
    """(unscaled, scaled) set-up seconds of fresh interpreters, taking the
    CPUs in turn.

    Each core's speed drifts on its own on a small shared machine, so the
    probes sample every core evenly.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    for k in range(SETUP_PROBES):
        proc = _run([sys.executable, "-c", _SETUP_PROBE,
                     os.path.join(ROOT, "src"), HERE],
                    deadline - time.monotonic(), cpus[k % len(cpus)])
        if proc.returncode != 0:
            raise BenchError("set-up probe failed with exit code %d"
                             % proc.returncode)
        raw, scaled = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times


def run_workload(name, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = measure_setup(deadline) if not trace else []
    result_path = os.path.join(OUT, "result_%s_seed%d_trace%d.json"
                               % (name, seed, trace))
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"),
                 "--root", ROOT, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--result", result_path], deadline - time.monotonic())
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError("workload %s failed with exit code %d"
                         % (name, proc.returncode))
    with open(result_path) as fh:
        result = json.load(fh)
    if setup:
        result["setup_probes_s"] = setup
        result["setup_s"] = statistics.median(t for _, t in setup)
        result["raw_setup_s"] = statistics.median(t for t, _ in setup)
        with open(result_path, "w") as fh:
            json.dump(result, fh, indent=1)
    return result


def metric_values(result, bench, trace) -> dict:
    """{name: {"value", "unit"}} for the metric list the mode reports."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = result["layers"] if trace else result
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError("no value for metrics %s" % missing)
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in wanted}


def report(result, metrics) -> None:
    ratio = result["failed"] / result["attempted"]
    print("workload %s  seed %d  trace %d  passes %d  correct %s  attempted %d"
          "  failed %d  failed_ratio %.6g"
          % (result["workload"], result["seed"], result["trace"],
             len(result["passes"]), "yes" if result["correct"] else "NO",
             result["attempted"], result["failed"], ratio))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if not result["trace"]:
        print("  unscaled: raw_wall_s %.6g s, raw_cpu_s %.6g s, over %d passes;"
              " raw_setup_s %.6g s"
              % (result["raw_wall_s"], result["raw_cpu_s"],
                 sum(not p["traced"] for p in result["passes"]),
                 result["raw_setup_s"]))
    for c in result["checks"]:
        if c["ok"] and c["pass"] > 0:
            continue            # passes repeat the checks of pass 0
        print("  check %-34s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                        c["detail"]))
    print("  env %s" % json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "blockade",
                                           "__init__.py")):
            raise BenchError("no blockade sources under %s"
                             % os.path.join(ROOT, "src"))
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload %r (choose from %s)"
                             % (args.workload, names))
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        os.makedirs(OUT, exist_ok=True)
        totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in [args.workload] if args.workload else names:
            result = run_workload(name, args.seed, seconds, args.trace)
            metrics = metric_values(result, bench, args.trace)
            report(result, metrics)
            totals["correct"] = totals["correct"] and result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            if args.workload:
                totals["metrics"] = metrics
            else:
                totals["metrics"].update(("%s.%s" % (name, k), v)
                                         for k, v in metrics.items())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
