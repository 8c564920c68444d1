"""Seeded inputs, the timed calls of each workload, and the correctness checks.

A workload is a list of calls (one optimize search, one sweep command, one
cutoff solve) that the worker times one by one and repeats.  Seed 0 gives
the shipped presets exactly.  Any other seed moves the inputs while keeping
the amount of work: the sweep grids shift by less than one step, g_om and
hop_J are scaled by at most 1% (1e-8 for the root search, whose Newton
paths branch on the parameters), and the cutoff-scan points are drawn near
the first listed optimal pair of each regime.

An operation is one optimize call, one sweep point or one cutoff solve.  A
check that fails marks the operations it covers as failed; nothing is
dropped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from contextlib import redirect_stdout

import numpy as np

import blockade.cli
import blockade.lindblad
import blockade.optimize
from blockade.amplitude import analytic_coefficients, g2_cavity
from blockade.model import SystemParams, cpb_detunings, strong_params, \
    weak_params

PARAM_JITTER = 0.01             # relative, on g_om and hop_J
# The root search's Newton paths branch on the parameters: under a jitter of
# 1e-4 or even 1e-6 its residual evaluations move by up to 6% and its oracle
# solves between 2 and 4 per call; under this one they stay within 0.4%.
OPTIMIZE_JITTER = 1e-8
# Start grids (n_delta, n_lambda) over the shipped search boxes, as with
# `blockade optimize --starts`: the shipped 24x10 and 32x10 grids take 15 s
# a call, too long to repeat within a run.  At seed 0 the weak search finds
# 2 roots and certifies 1, the strong one certifies 2, the first near
# (2.4e-2, 1.1e-6).
OPTIMIZE_STARTS = {"weak": (4, 4), "strong": (6, 4)}
# Points per figure curve: the figure command's 401 for the amplitude
# panels; 61 for figure 4a, whose master-equation points take 7 ms each.
POINTS = {"3a": 401, "3b": 401, "4a": 61, "5a": 401, "5b": 401}
# Reference-kernel calls per speed sample (calibrate.py) where the default
# does not suit: the 15 figure curves take 0.15-0.45 s each, and four
# kernel calls around each would take a third of the pass.
KERNEL_REPS = {"figures": 1}
KAPPA = weak_params().kappa     # both presets share kappa
# First listed optimal pair per regime, reporting axis (delta, lambda).
FIRST_PAIR = {"weak": (-0.73e-4, 0.93e-6), "strong": (2.4e-2, 1.1e-6)}
ORACLE_THRESHOLD = 1e-2         # find_optimal_pairs' certification level
CLOSED_FORM_G2_MAX = 1e-12      # closed-form g2 of the target cavity at a root
CME_BUDGET = 0.10               # acceptance criterion 1: share of points ...
CME_LOG_GAP = 0.3               # ... whose amplitude/ME g2 differ by 10**0.3
# Criterion 1 is stated at the optimal gain; figure 4a's third curve, at twice
# that gain, exceeds the budget (57/401 points at seed 0), so it is reported.
CME_GATED_CURVES = (0, 1)
CUTOFF_TOL = 1e-4               # relative g2 change from cutoff 5 to 6
SCAN_CUTOFFS = (3, 4, 5, 6)
SCAN_DRIVE = 0.5                # drive E in units of kappa

# Figure panels as the figure command defines them: base preset, fixed
# overrides (reporting-axis --delta, --lambda), swept axis, internal range,
# flip, method, and the (field, values) of the three curves.
_PANELS = {
    "4a": ("strong", {"lambda": 1.1e-6}, "delta", (-0.1, 0.02), True, "both",
           ("lambda", (0.0, 1.1e-6, 2.2e-6))),
    "3a": ("weak", {"lambda": 0.93e-6}, "delta", (-0.01, 0.01), True, "amp",
           ("g", (0.0, 0.02, 0.042))),
    "3b": ("weak", {"lambda": 0.93e-6}, "delta", (-0.01, 0.01), True, "amp",
           ("J", (0.0, 0.5 * KAPPA, 0.95 * KAPPA))),
    "5a": ("strong", {"delta": 2.4e-2}, "lambda", (-5e-6, 5e-6), False, "amp",
           ("g", (0.0, 0.1, 0.2))),
    "5b": ("strong", {"lambda": 1.1e-6}, "delta", (-0.1, 0.02), True, "amp",
           ("J", (0.0, 4 * KAPPA, 8 * KAPPA))),
}
_WORKLOAD_PANELS = {"figures": ("4a", "3a", "3b", "5a", "5b")}
_PRESETS = {"weak": weak_params, "strong": strong_params}


# ---------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int) -> list[dict]:
    """Plain-data inputs of one pass; the same seed gives the same list."""
    rng = np.random.default_rng(seed)

    def uniform(half_width):
        return 0.0 if seed == 0 else float(rng.uniform(-half_width, half_width))

    scale = {name: {"g": 1 + uniform(PARAM_JITTER), "J": 1 + uniform(PARAM_JITTER)}
             for name in _PRESETS}
    if workload == "optimize":
        scale = {name: {"g": 1 + uniform(OPTIMIZE_JITTER),
                        "J": 1 + uniform(OPTIMIZE_JITTER)} for name in _PRESETS}
        return [_optimize_input(name, scale[name]) for name in ("weak", "strong")]
    if workload == "cutoff_scan":
        return [solve for name in ("weak", "strong")
                for solve in _scan_inputs(name, scale[name],
                                          uniform(0.25) * KAPPA,
                                          1 + uniform(0.05))]
    if workload in _WORKLOAD_PANELS:
        curves = []
        for panel in _WORKLOAD_PANELS[workload]:
            curves += _panel_inputs(panel, scale, uniform(0.5), POINTS[panel])
        return curves
    raise ValueError("unknown workload %r" % workload)


def _scaled_params(name, scale) -> dict:
    p = _PRESETS[name]()
    return p.replace(g_om=p.g_om * scale["g"], hop_J=p.hop_J * scale["J"]).to_dict()


def _optimize_input(name, scale) -> dict:
    grid = blockade.optimize.WEAK_GRID if name == "weak" \
        else blockade.optimize.STRONG_GRID
    return {"preset": name, "cavity": 1, "params": _scaled_params(name, scale),
            "grid": [list(grid.delta_range), list(grid.lambda_range),
                     *OPTIMIZE_STARTS[name]]}


def _scan_inputs(name, scale, delta_shift, lambda_scale) -> list[dict]:
    delta, lam = FIRST_PAIR[name]
    params = _scaled_params(name, scale)
    params.update(delta=-(delta + delta_shift),      # reporting -> internal
                  lambda_gain=lam * lambda_scale, drive_E=SCAN_DRIVE * KAPPA)
    return [{"regime": name, "params": params, "cutoff": cutoff}
            for cutoff in SCAN_CUTOFFS]


def _panel_inputs(panel, scale, step_shift, points) -> list[dict]:
    preset, fixed, axis, (lo, hi), flip, method, (field, values) = _PANELS[panel]
    shift = step_shift * (hi - lo) / (points - 1)
    base = _PRESETS[preset]()
    flags = {"g": base.g_om * scale[preset]["g"],
             "J": base.hop_J * scale[preset]["J"], **fixed}
    curves = []
    for i, value in enumerate(values):
        flags[field] = value * scale[preset][field] if field in ("g", "J") \
            else value
        argv = ["sweep", "--preset", preset, "--axis", axis,
                "--range", repr(lo + shift), repr(hi + shift),
                "--points", str(points), "--method", method, "--cavity", "1",
                "--cutoff", "3"] + (["--flip-axis"] if flip else [])
        for flag in sorted(flags):
            argv += ["--" + flag, repr(float(flags[flag]))]
        curves.append({"panel": panel, "curve": i, "argv": argv,
                       "points": points, "out": "fig%s_curve%d.csv" % (panel, i)})
    return curves


def params_of(curve: dict) -> SystemParams:
    """The SystemParams that the sweep command builds from a curve's argv."""
    argv = curve["argv"]
    flag = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i] in ("--g", "--J", "--lambda", "--delta")}
    p = _PRESETS[argv[argv.index("--preset") + 1]]()
    over = {"g_om": float(flag["g"]), "hop_J": float(flag["J"])}
    if "lambda" in flag:
        over["lambda_gain"] = float(flag["lambda"])
    if "delta" in flag:
        over["delta"] = -float(flag["delta"])
    return p.replace(**over)


# ---------------------------------------------------------------- calls

def size(workload: str, x: dict) -> int:
    """Operations in one call: the points of a sweep, else 1."""
    return x["points"] if workload in _WORKLOAD_PANELS else 1


def run_call(workload: str, x: dict, outdir: str, oracle_calls) -> dict:
    """Make one call of a workload; its raw output, exceptions included.

    oracle_calls() reads the count of certification solves made so far.
    """
    try:
        if workload == "optimize":
            d_rng, l_rng, n_d, n_l = x["grid"]
            grid = blockade.optimize.SearchGrid(tuple(d_rng), tuple(l_rng),
                                                n_d, n_l)
            before = oracle_calls()
            pairs = blockade.optimize.find_optimal_pairs(
                SystemParams(**_fields(x["params"])), x["cavity"], grid)
            return {"pairs": [(q.delta_opt, q.lambda_opt, q.g2_check)
                              for q in pairs],
                    "roots_found": oracle_calls() - before}
        if workload == "cutoff_scan":
            g2 = blockade.lindblad.steady_g2(SystemParams(**_fields(x["params"])),
                                             cutoff=x["cutoff"], allow_large=True)
            return {"g2": list(g2)}
        with redirect_stdout(io.StringIO()):
            code = blockade.cli.cli_main(
                x["argv"] + ["--out", os.path.join(outdir, x["out"])])
        return {"exit": code}
    except Exception as exc:            # recorded as a failed operation
        return {"error": repr(exc)}


def collect(workload: str, x: dict, raw: dict, outdir: str) -> dict:
    """A call's output as the checks read it; figure CSVs are parsed here,
    outside the timed region."""
    if workload not in _WORKLOAD_PANELS or "error" in raw:
        return raw
    if raw["exit"] != 0:
        return {"error": "exit %r" % (raw["exit"],)}
    path = os.path.join(outdir, x["out"])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"rows": rows, "digest": digest}


def _fields(params: dict) -> dict:
    return {k: v for k, v in params.items() if k != "mu"}


# ---------------------------------------------------------------- checks

def check(workload: str, seed: int, inputs: list[dict], outputs: list[dict]):
    """Correctness of one pass: (failed operation indices, check records).

    Each record is (name, ok, detail).  Failed operations include every
    operation that raised, every err: cell and every operation a failed
    check covers.
    """
    if workload == "optimize":
        return _check_optimize(seed, inputs, outputs)
    if workload == "cutoff_scan":
        return _check_scan(inputs, outputs)
    return _check_figure(inputs, outputs)


def _check_optimize(seed, inputs, outputs):
    failed, records = set(), []
    for i, (x, out) in enumerate(zip(inputs, outputs)):
        name = x["preset"]
        if "error" in out:
            failed.add(i)
            records.append(("%s.call" % name, False, out["error"]))
            continue
        p = SystemParams(**_fields(x["params"]))
        worst_cf, worst_oracle = 0.0, 0.0
        for d, lam, g2 in out["pairs"]:
            closed = analytic_coefficients(p.replace(delta=d, lambda_gain=lam))
            worst_cf = max(worst_cf, g2_cavity(closed, x["cavity"]))
            worst_oracle = max(worst_oracle, g2)
        checks = [("%s.closed_form_roots" % name, worst_cf <= CLOSED_FORM_G2_MAX,
                   "worst closed-form g2 at a root %.2e (max %.0e)"
                   % (worst_cf, CLOSED_FORM_G2_MAX)),
                  ("%s.certified" % name, worst_oracle <= ORACLE_THRESHOLD,
                   "worst oracle g2 %.2e (max %.0e)"
                   % (worst_oracle, ORACLE_THRESHOLD))]
        if seed == 0:
            checks.append(_seed0_optimize(name, out))
        for rec in checks:
            records.append(rec)
            if not rec[1]:
                failed.add(i)
    return failed, records


def _seed0_optimize(name, out):
    """The numbers the OPTIMIZE_STARTS grids give with the shipped presets.

    The weak search keeps failing criterion 2 honestly: of its roots only
    the listed pair passes the oracle.
    """
    pairs, found = out["pairs"], out["roots_found"]
    d0, l0 = FIRST_PAIR[name]
    rel = math.hypot((pairs[0][0] - d0) / d0, (pairs[0][1] - l0) / l0) \
        if pairs else math.inf
    if name == "weak":
        ok = found == 2 and len(pairs) == 1 and rel <= 0.30
        return ("weak.seed0_roots", ok, "%d roots found, %d certified "
                "(expected 2 and 1), at %.2f relative distance from "
                "(-7.3e-5, 9.3e-7) (max 0.30)" % (found, len(pairs), rel))
    ok = len(pairs) >= 2 and rel <= 0.30
    return ("strong.seed0_roots", ok, "%d certified roots (min 2); first at "
            "%.2f relative distance from (2.4e-2, 1.1e-6) (max 0.30)"
            % (len(pairs), rel))


def _check_scan(inputs, outputs):
    failed, records = set(), []
    by_cutoff = {}                      # regime -> cutoff -> (k, g2)
    for k, (x, out) in enumerate(zip(inputs, outputs)):
        ok = "error" not in out and all(math.isfinite(v) and v >= 0
                                        for v in out["g2"]) \
            and min(out["g2"][2:]) > 0
        if ok:
            by_cutoff.setdefault(x["regime"], {})[x["cutoff"]] = (k, out["g2"])
        else:
            failed.add(k)
            records.append(("%s.cutoff%d" % (x["regime"], x["cutoff"]), False,
                            out.get("error", "g2/occupation %r" % out.get("g2"))))
    for regime in ("weak", "strong"):
        found = by_cutoff.get(regime, {})
        if 5 not in found or 6 not in found:
            continue
        (k5, g5), (k6, g6) = found[5], found[6]
        change = max(abs(g5[j] - g6[j]) / g6[j] for j in (0, 1))
        ok = change <= CUTOFF_TOL
        records.append(("%s.cutoff_5_vs_6" % regime, ok,
                        "relative g2 change %.2e (max %.0e); g2_1 at "
                        "cutoff 6 = %.6g" % (change, CUTOFF_TOL, g6[0])))
        if not ok:
            failed.update((k5, k6))
    return failed, records


def _check_figure(inputs, outputs):
    failed, records = set(), []
    first = 0
    for x, out in zip(inputs, outputs):
        label = "fig%s.curve%d" % (x["panel"], x["curve"])
        points = range(first, first + x["points"])
        first += x["points"]
        if "error" in out:
            failed.update(points)
            records.append((label, False, out["error"]))
            continue
        bad = [j for j, row in zip(points, out["rows"]) if not _row_ok(row)]
        failed.update(bad)
        if len(out["rows"]) != x["points"]:
            failed.update(points)
        records.append((label + ".cells", not bad and len(out["rows"]) == x["points"],
                        "%d rows, %d with a missing, err: or negative g2"
                        % (len(out["rows"]), len(bad))))
        if x["panel"] == "4a":
            rec = _check_methods_agree(label, out["rows"],
                                       gated=x["curve"] in CME_GATED_CURVES)
        elif x["panel"] == "5b" and x["curve"] == 2:
            rec = _check_cpb_dips(label, params_of(x), out["rows"])
        else:
            continue
        records.append(rec)
        if not rec[1]:
            failed.update(points)
    return failed, records


def _row_ok(row) -> bool:
    keys = ("g2_1_amp", "g2_1_me") if row["g2_1_me"] else ("g2_1_amp",)
    try:
        return all(float(row[k]) >= 0 and math.isfinite(float(row[k]))
                   for k in keys)
    except ValueError:           # an err: cell
        return False


def _check_methods_agree(label, rows, gated):
    """Acceptance criterion 1: amplitude and ME g2 agree outside a budget.

    An ungated curve reports its share and always passes.
    """
    checked = exempt = 0
    for row in rows:
        if not _row_ok(row) or float(row["g2_1_me"]) < 1e-3:
            continue
        checked += 1
        g_amp, g_me = float(row["g2_1_amp"]), float(row["g2_1_me"])
        if g_amp <= 0 or abs(math.log10(g_amp) - math.log10(g_me)) > CME_LOG_GAP:
            exempt += 1
    frac = exempt / max(checked, 1)
    ok = checked > 0 and frac <= CME_BUDGET
    return (label + ".methods_agree", ok or not gated,
            "%d/%d points exempted (max %.0f%%%s)"
            % (exempt, checked, 100 * CME_BUDGET, "" if gated else
               ", not gated: the budget holds up to the optimal gain only"))


def _check_cpb_dips(label, p, rows):
    """Acceptance criterion 3: local g2 minima within a step of mu -/+ J."""
    data = np.array(sorted((float(r["axis_value"]), float(r["g2_1_amp"]))
                           for r in rows))
    x, y = data[:, 0], data[:, 1]
    step = x[1] - x[0]
    minima = x[1:-1][(y[1:-1] < y[:-2]) & (y[1:-1] < y[2:])]
    targets = sorted(cpb_detunings(p))
    miss = max(float(np.min(np.abs(minima - t))) for t in targets) \
        if minima.size else math.inf
    return (label + ".cpb_dips", miss <= step + 1e-12,
            "minima within %.2e of mu -/+ J = %s (max one step %.2e)"
            % (miss, ["%.4g" % t for t in targets], step))
