"""Run one workload in a fresh interpreter and write its result as JSON.

run.py starts this script with BLAS pinned to one thread and the sweep pool
pinned to one worker.  Warm-up (imports, first calls and one whole pass)
happens before the timed region.  A pass makes every call of the workload
once, each timed on its own and pinned to one CPU, taking the CPUs in turn
from pass to pass, and is checked for correctness as soon as it ends.  Passes repeat while another pass of the last one's
length fits in --seconds, at least MIN_PASSES; with --trace 1 untraced and
traced passes alternate and the per-layer numbers are per traced pass.

The worker times the reference kernel of calibrate.py before every call
and after the last one, and scales each call's time by REFERENCE_S over the
mean of the two kernel times around it.  A call's time is the
interquartile mean of these scaled times over the untraced passes, and
wall_s and cpu_s add up the calls: the wall and CPU seconds of one pass on
a machine that runs the kernel in REFERENCE_S.  The result keeps the
unscaled raw_wall_s and raw_cpu_s beside them.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibrate import KERNEL_REPS, REFERENCE_S, timed_kernel

MIN_PASSES = 2                  # untraced passes, and as many traced ones


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import blockade
    if not os.path.abspath(blockade.__file__).startswith(src + os.sep):
        print("blockade imported from %s, not %s" % (blockade.__file__, src),
              file=sys.stderr)
        return 2
    import blockade.optimize
    import workloads
    from tracer import Tracer, summarize

    oracle = _count_calls(blockade.optimize, "steady_g2")
    inputs = workloads.make_inputs(args.workload, args.seed)
    outdir = os.path.join(args.root, ".perfbench_out", "files", args.workload)
    _warm_up(os.path.join(outdir, "warmup.csv"))
    cpus = sorted(os.sched_getaffinity(0))
    reps = workloads.KERNEL_REPS.get(args.workload, KERNEL_REPS)

    def one_pass(k):
        """Every call once between reference kernels; per-call wall and CPU
        seconds, the kernels' (one more than calls), and the outputs."""
        walls, cpu_times, kernel, outs = [], [], [], []
        for i, x in enumerate(inputs):
            os.sched_setaffinity(0, {cpus[(k + i) % len(cpus)]})
            kernel.append(timed_kernel(reps))
            c0, t0 = time.process_time(), time.perf_counter()
            raw = workloads.run_call(args.workload, x, outdir, oracle)
            walls.append(time.perf_counter() - t0)
            cpu_times.append(time.process_time() - c0)
            outs.append(workloads.collect(args.workload, x, raw, outdir))
        kernel.append(timed_kernel(reps))
        os.sched_setaffinity(0, cpus)
        return walls, cpu_times, kernel, outs

    one_pass(0)                         # warm-up pass, untimed

    tracer = Tracer()
    passes, checks, reference = [], [], None
    t_start = time.perf_counter()
    while (len(passes) < MIN_PASSES * (1 + args.trace)
           or time.perf_counter() - t_start + passes[-1]["elapsed_s"]
           <= args.seconds):
        t_pass, k = time.perf_counter(), len(passes)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            _install(tracer)
            walls, cpu_times, kernel, out = tracer.call("pass", one_pass, (k,))
        else:
            walls, cpu_times, kernel, out = one_pass(k)
        tracer.unwrap_all()
        # Each pass is checked as soon as it ends and only its verdict is
        # kept, so the worker's memory does not grow with the pass count.
        operations = sum(workloads.size(args.workload, x) for x in inputs)
        bad, records = workloads.check(args.workload, args.seed, inputs, out)
        comparable = _comparable(out)
        reference = comparable if reference is None else reference
        if comparable != reference:
            bad = set(range(operations))
            records.append(("repeatable", False, "pass %d output differs "
                            "from pass 0" % k))
        checks += [{"pass": k, "name": n, "ok": bool(ok), "detail": d}
                   for n, ok, d in records]
        passes.append({"traced": traced, "wall_s": sum(walls),
                       "cpu_s": sum(cpu_times), "call_wall_s": walls,
                       "call_cpu_s": cpu_times, "kernel_s": kernel,
                       "operations": operations, "failed": len(bad),
                       "certified": sum(len(o.get("pairs", ())) for o in out),
                       "err_rows": sum(any(v.startswith("err:")
                                           for v in row.values())
                                       for o in out for row in o.get("rows", ())),
                       "bytes_written": _tree_bytes(outdir),
                       "elapsed_s": time.perf_counter() - t_pass})
        del out

    attempted = sum(p["operations"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "kernel_reps": reps,
        "inputs": inputs, "env": _environment(args.root, blockade),
        "passes": passes, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "checks": checks,
        "wall_s": _pass_time(untraced, "call_wall_s", scaled=True),
        "cpu_s": _pass_time(untraced, "call_cpu_s", scaled=True),
        "raw_wall_s": _pass_time(untraced, "call_wall_s"),
        "raw_cpu_s": _pass_time(untraced, "call_cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        traced = [k for k, p in enumerate(passes) if p["traced"]]
        trace_path = os.path.join(args.root, ".perfbench_out", "trace_%s_seed%d.npz"
                                  % (args.workload, args.seed))
        tracer.save(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, args.root)
        result["layers"] = _layer_metrics(
            summarize(tracer.spans), tracer.spans, [passes[k] for k in traced],
            untraced)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _pass_time(passes, key, scaled=False) -> float:
    """Sum over the calls of each call's interquartile mean time in these
    passes.

    scaled multiplies each time by REFERENCE_S over the mean kernel time
    before and after the call: wall time by the kernel's wall time, CPU
    time by its CPU time.
    """
    def times(p):
        if not scaled:
            return p[key]
        col = 1 if key == "call_cpu_s" else 0       # kernel_s: (wall, CPU)
        k = [t[col] for t in p["kernel_s"]]
        return [t * 2 * REFERENCE_S / (k[i] + k[i + 1])
                for i, t in enumerate(p[key])]
    return sum(_interquartile_mean(call) for call in zip(*map(times, passes)))


def _interquartile_mean(values) -> float:
    """Mean of the middle half of values, a quarter cut off at each end:
    steadier than the median over a handful of passes, and as robust to a
    pass that the host slowed down."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _count_calls(module, attr):
    """Count calls of module.attr; returns a reader of the count."""
    fn, count = getattr(module, attr), [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)
    setattr(module, attr, counted)
    return lambda: count[0]


def _warm_up(csv_path) -> None:
    """First calls of every path the workloads take, outside timing."""
    import io
    from contextlib import redirect_stdout
    import blockade.cli
    import blockade.lindblad
    import blockade.optimize
    from blockade.model import weak_params
    os.makedirs(os.path.dirname(csv_path), exist_ok=True)
    p = weak_params(delta=7.3e-05, lambda_gain=9.3e-07)
    blockade.optimize.target_residual(-7.3e-05, 9.3e-07, p, 1)
    blockade.lindblad.steady_g2(p, cutoff=4)
    with redirect_stdout(io.StringIO()):
        blockade.cli.cli_main(["sweep", "--preset", "weak", "--range", "-0.01",
                               "0.01", "--points", "5", "--out", csv_path])


def _install(tracer) -> None:
    """Wrap each layer's public functions where other modules import them."""
    import blockade.amplitude
    import blockade.cli
    import blockade.lindblad
    import blockade.model
    import blockade.optimize
    import blockade.sweep

    def liouvillian_bytes(p, basis, allow_large=False):
        return float(basis.dim ** 4 * 16)       # dense (d^2)^2 complex128

    def solve_flops(liouv, check_uniqueness=False):
        n = liouv.shape[0]                      # complex LU and two solves
        return float(8 * n ** 3 // 3 + 8 * n ** 2)  # whole, so sums are exact

    for mod in (blockade.model, blockade.lindblad, blockade.sweep):
        tracer.wrap(mod, "two_mode_ops", "fock.two_mode_ops")
    tracer.wrap(blockade.amplitude, "non_hermitian_hamiltonian",
                "model.hamiltonian")
    tracer.wrap(blockade.lindblad, "effective_hamiltonian", "model.hamiltonian")
    for mod in (blockade.optimize, blockade.sweep):
        tracer.wrap(mod, "steady_amplitudes", "amplitude.solve")
    tracer.wrap(blockade.sweep, "g2_cavity", "amplitude.g2")
    for mod in (blockade.lindblad, blockade.sweep):
        tracer.wrap(mod, "liouvillian", "lindblad.liouvillian",
                    work=liouvillian_bytes)
        tracer.wrap(mod, "steady_state", "lindblad.steady_state",
                    work=solve_flops)
    tracer.wrap(blockade.lindblad, "g2_from_rho", "lindblad.moments")
    tracer.wrap(blockade.sweep, "g2_mode", "lindblad.moments")
    tracer.wrap(blockade.optimize, "find_optimal_pairs", "optimize.search")
    tracer.wrap(blockade.optimize, "target_residual", "optimize.residual")
    tracer.wrap(blockade.optimize, "steady_g2", "optimize.oracle")
    tracer.wrap(blockade.cli, "run_sweep", "sweep.run_sweep",
                work=lambda spec: float(spec.points), adopt_threads=True)
    tracer.wrap(blockade.cli, "write_csv", "sweep.write")
    tracer.wrap(blockade.cli, "cli_main", "cli.main")


def _layer_metrics(agg, spans, traced_passes, untraced) -> dict:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    n = len(traced_passes)

    def get(name, key):
        return agg[name][key] / n if name in agg else 0.0

    certified = sum(p["certified"] for p in traced_passes) / n
    err_rows = sum(p["err_rows"] for p in traced_passes) / n
    sweeps = {s[0] for s in spans if s[2] == "sweep.run_sweep"}
    workers = len({s[5] for s in spans if s[1] in sweeps})
    evals = get("optimize.residual", "calls")

    return {
        "fock.two_mode_ops.calls": get("fock.two_mode_ops", "calls"),
        "fock.two_mode_ops.s": get("fock.two_mode_ops", "s"),
        "model.hamiltonian.calls": get("model.hamiltonian", "calls"),
        "model.hamiltonian.s": get("model.hamiltonian", "s"),
        "amplitude.solve.calls": get("amplitude.solve", "calls"),
        "amplitude.solve.self_s": get("amplitude.solve", "self_s"),
        "amplitude.errors": get("amplitude.solve", "failed")
        + get("amplitude.g2", "failed"),
        "lindblad.liouvillian.calls": get("lindblad.liouvillian", "calls"),
        "lindblad.liouvillian.s": get("lindblad.liouvillian", "s"),
        "lindblad.liouvillian.bytes_computed": get("lindblad.liouvillian", "work"),
        "lindblad.steady_state.calls": get("lindblad.steady_state", "calls"),
        "lindblad.steady_state.s": get("lindblad.steady_state", "s"),
        "lindblad.solve_flops_computed": get("lindblad.steady_state", "work"),
        "lindblad.moments.calls": get("lindblad.moments", "calls"),
        "lindblad.moments.s": get("lindblad.moments", "s"),
        "optimize.residual_evals": evals,
        "optimize.residual.s": get("optimize.residual", "s"),
        "optimize.oracle.calls": get("optimize.oracle", "calls"),
        "optimize.oracle.s": get("optimize.oracle", "s"),
        "optimize.self_s": get("optimize.search", "self_s"),
        "optimize.roots_found": get("optimize.oracle", "calls"),
        "optimize.roots_certified": certified,
        "optimize.evals_per_certified_root": evals / certified if certified else 0.0,
        "sweep.points": get("sweep.run_sweep", "work"),
        "sweep.points_failed": err_rows,
        "sweep.run_sweep.self_s": get("sweep.run_sweep", "self_s"),
        "sweep.write.s": get("sweep.write", "s"),
        "sweep.bytes_written": (sum(p["bytes_written"] for p in traced_passes) / n
                                if "sweep.write" in agg else 0.0),
        "sweep.workers": float(workers),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.spans": len(spans) / n,
        "trace.overhead_s": _pass_time(traced_passes, "call_wall_s", scaled=True)
        - _pass_time(untraced, "call_wall_s", scaled=True),
    }


def _tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _comparable(out):
    """A pass's outputs as one string; CSV rows count through their digest."""
    return json.dumps([{k: v for k, v in o.items() if k != "rows"} for o in out],
                      sort_keys=True)


def _environment(root, blockade) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    worker_count = getattr(blockade.sweep, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "BLOCKADE_THREADS": os.environ.get("BLOCKADE_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "sweep_workers": worker_count() if worker_count else None,
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(os.path.dirname(blockade.__file__)),
    }


def _tree_digest(path) -> str:
    """sha256 over the package's .py files, for checkouts without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


if __name__ == "__main__":
    sys.exit(main())
