"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1 2 3 ... \
        [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed, then prints for every metric the
median, the quartiles from statistics.quantiles(values, n=4) and the
interquartile distance as a share of the median.  --out writes the values
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit code %d" % (seed, proc.returncode))
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print("seed %d: correct %s, failed %d/%d, %s" % (
            seed, last["correct"], last["failed"], last["attempted"],
            ", ".join("%s %.6g" % (k, v["value"])
                      for k, v in last["metrics"].items())), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
        print("%-40s %s" % (name, "  ".join(
            "%s %.6g" % (k, v) for k, v in summary[name].items()
            if v is not None)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
