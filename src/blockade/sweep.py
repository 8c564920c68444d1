"""Parameter sweeps of g2(0) by both methods and figure-dataset emission.

Sweep axes are in the internal Hamiltonian convention; ``axis_flip``
negates the emitted axis values of a delta sweep, and is refused on other
axes (the published figures plot the detuning with the opposite sign).
``g2_columns`` is the one table of g2 cells: it runs the stacked solves and
g2s over the points a sweep gives, or over one point for the ``g2``
command, and returns each field's whole column of cells, each equal to
the one-point cases bit for bit.  ``run_sweep`` adds the axis column, the
CSV is written from the columns, and Python touches each point only to
assemble ``SweepResult.rows``.  Cells carry sentinel strings ``err:<name>``
where a stack names a per-point solver failure (a ``model.SolverError``)
and ``err:FloatingPointError`` where an amplitude g2 is not finite, and ""
in the fields that the method and cavity do not ask for; metadata lives in
a sibling JSON file, never inline.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .amplitude import g2_cavity_stack, steady_amplitude_stack
from .lindblad import DEFAULT_CUTOFF, g2_stack, steady_rho_stack
from .model import (SystemParams, check_range, g2_basis, stacked_rates,
                    strong_params, to_json, weak_params)
from .optimize import STRONG_GRID, WEAK_GRID
# not called here; perfbench's tracer wraps them here by name
from .amplitude import g2_cavity, steady_amplitudes  # noqa: F401
from .model import two_mode_ops  # noqa: F401
from .lindblad import g2_mode, liouvillian, steady_state  # noqa: F401

AXES = ("delta", "lambda", "J", "g")
_AXIS_FIELD = {"delta": "delta", "lambda": "lambda_gain",
               "J": "hop_J", "g": "g_om"}

ROW_FIELDS = ("axis_value", "g2_1_amp", "g2_2_amp", "g2_1_me", "g2_2_me",
              "n1", "n2")
# Matrix entries (points times d**2) per stacked master-equation solve, whose
# memory is a few dozen (points, d, d) complex arrays.  A 401-point cutoff-3
# sweep (d = 16) ran as fast with 8 to 64 points per stack as unchunked, on
# a 2-vCPU x86-64 machine; at 32 points its traced peak was 3 MB, not 35 MB.
STACK_ENTRIES = 8192
# About 1.3 kB of peak memory per point, whatever the method: 100,000 points
# of an amplitude sweep written to CSV peaked at 158 MB RSS (29 MB after the
# imports) in 0.9 s, and 10,000 by both methods at 42 MB in 3.9 s, on a
# 2-vCPU x86-64 machine with numpy 2.4.
MAX_POINTS = 100_000


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    range: tuple[float, float]
    points: int
    base: SystemParams
    method: str = "both"            # amplitude | lindblad | both
    cavity: str = "both"            # "1" | "2" | "both"
    axis_flip: bool = False
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError("axis must be one of %s" % (AXES,))
        if self.method not in ("amplitude", "lindblad", "both"):
            raise ValueError("bad method %r" % self.method)
        if self.cavity not in ("1", "2", "both"):
            raise ValueError("bad cavity %r" % self.cavity)
        if self.axis_flip and self.axis != "delta":
            raise ValueError("axis_flip negates a delta axis only, not %r"
                             % self.axis)
        if not (isinstance(self.points, (int, np.integer))
                and 2 <= self.points <= MAX_POINTS):
            raise ValueError("points must be an integer >= 2 and <= %d"
                             % MAX_POINTS)
        check_range("range", self.range)
        for value in self.range:        # the grid lies between its ends
            self.base.replace(**{_AXIS_FIELD[self.axis]: float(value)})
        if self.method != "amplitude":
            g2_basis(self.cutoff)


@dataclass
class SweepResult:
    # ROW_FIELDS -> one cell per point: a builtin float (its repr in CSVs,
    # the shortest round-trip decimals) or a string
    columns: dict
    metadata: dict

    @cached_property
    def rows(self) -> list[dict]:
        """One dict per point, keyed by ROW_FIELDS."""
        return [dict(zip(ROW_FIELDS, cells))
                for cells in zip(*(self.columns[k] for k in ROW_FIELDS))]


def _cells(values: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """One cell per point: its value, or ``err:<name>`` where ``errors``
    names a failure."""
    return np.where(errors == "", values.astype(object), "err:" + errors)


def g2_columns(p: SystemParams, method: str, cavity: str, cutoff: int,
               **arrays) -> dict:
    """The g2 cells of ROW_FIELDS[1:] at the points of
    ``stacked_rates(p, arrays)``, one point if no array is given: per field
    an object array of one cell per point, "" where ``method`` and
    ``cavity``, as ``SweepSpec`` names them, do not ask for the field.

    The amplitude cells are filled first.  An amplitude g2 that is not
    finite is named FloatingPointError.  The master equation is solved
    STACK_ENTRIES // d**2 points at a time, into the cells in place; a
    void state names its error in the fields asked for.  A cutoff that
    ``g2_basis`` rejects raises before any solve.
    """
    basis = None if method == "amplitude" else g2_basis(cutoff)
    cavities = (1, 2) if cavity == "both" else (int(cavity),)
    size = len(stacked_rates(p, arrays)[0])
    cells = {k: np.full(size, "", dtype=object) for k in ROW_FIELDS[1:]}
    if method != "lindblad":
        amps = steady_amplitude_stack(p, **arrays)
        for cav in cavities:
            g2, names = g2_cavity_stack(amps, cav)
            names[(names == "") & ~np.isfinite(g2)] = "FloatingPointError"
            cells["g2_%d_amp" % cav] = _cells(g2, names)
    if basis is not None:
        chunk = max(1, STACK_ENTRIES // basis.dim ** 2)
        for start in range(0, size, chunk):
            part = slice(start, start + chunk)
            rhos, void = steady_rho_stack(p, basis, **{
                k: v[part] for k, v in arrays.items()})
            for cav in cavities:
                g2, n, names = g2_stack(rhos, basis, cav)
                names = np.where(void == "", names, void)
                cells["g2_%d_me" % cav][part] = _cells(g2, names)
                cells["n%d" % cav][part] = _cells(n, names)
    return cells


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate g2(0) over the axis grid; deterministic given the spec."""
    # as Python floats: linspace takes its dtype from the ends
    values = np.linspace(*map(float, spec.range), spec.points)
    t0 = time.perf_counter()
    columns = {"axis_value": -values if spec.axis_flip else values,
               **g2_columns(spec.base, spec.method, spec.cavity, spec.cutoff,
                            **{_AXIS_FIELD[spec.axis]: values})}
    meta = {"params": spec.base.to_dict(),        # then the spec's fields
            **{k: v for k, v in vars(spec).items() if k != "base"},
            "range": list(spec.range), "code_version": __version__,
            "wall_time_s": time.perf_counter() - t0}
    return SweepResult(columns={k: c.tolist() for k, c in columns.items()},
                       metadata=meta)


def _write_columns(columns: dict, csv_path) -> None:
    """CSV with a header row; csv writes a builtin float as its repr."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ROW_FIELDS)
        w.writerows(zip(*(columns[k] for k in ROW_FIELDS)))


def _metadata_path(csv_path) -> str:
    """The sibling ``.json`` of a sweep CSV, where its metadata goes."""
    return os.path.splitext(str(csv_path))[0] + ".json"


def write_csv(result: SweepResult, csv_path) -> None:
    """Rows as CSV; metadata to the sibling ``.json``."""
    text = to_json(result.metadata)     # may raise: no file yet
    _write_columns(result.columns, csv_path)
    with open(_metadata_path(csv_path), "w") as fh:
        fh.write(text)


# Figure bindings.  Detuning ranges below are on the *emitted* axis; the
# internal sweep range is negated where flip is set.  Curve-value sets not
# printed in the captions are repo choices, recorded in the metadata.
_WEAK_LAMBDA_OPT = 0.93e-6
_WEAK_LAMBDA_OPT_CAV2 = 0.4e-6
_STRONG_LAMBDA_OPT = 1.1e-6
_STRONG_LAMBDA_OPT_CAV2 = 0.01e-6
# each preset's kappa, and the delta box of its optimal-pair search, which
# is on the same reporting axis
_WEAK_KAPPA, _STRONG_KAPPA = weak_params().kappa, strong_params().kappa
_WEAK_RANGE, _STRONG_RANGE = WEAK_GRID.delta_range, STRONG_GRID.delta_range

# Per panel: preset, its fixed overrides, axis, emitted range, flip, method,
# cavity, and the field that each of the three curves sets, with its values.
_FIGURES = {
    # analytic + master-equation curves, flipped delta axis
    "2a": (weak_params, {}, "delta", _WEAK_RANGE, True, "both", "1",
           "lambda_gain", (0.0, _WEAK_LAMBDA_OPT, 2 * _WEAK_LAMBDA_OPT)),
    "2b": (weak_params, {}, "delta", _WEAK_RANGE, True, "both", "2",
           "lambda_gain",
           (0.0, _WEAK_LAMBDA_OPT_CAV2, 2 * _WEAK_LAMBDA_OPT_CAV2)),
    "3a": (weak_params, {"lambda_gain": _WEAK_LAMBDA_OPT}, "delta",
           _WEAK_RANGE, True, "amplitude", "1", "g_om", (0.0, 0.02, 0.042)),
    "3b": (weak_params, {"lambda_gain": _WEAK_LAMBDA_OPT}, "delta",
           _WEAK_RANGE, True, "amplitude", "1",
           "hop_J", (0.0, 0.5 * _WEAK_KAPPA, 0.95 * _WEAK_KAPPA)),
    "4a": (strong_params, {"lambda_gain": _STRONG_LAMBDA_OPT}, "delta",
           _STRONG_RANGE, True, "both", "1",
           "lambda_gain", (0.0, _STRONG_LAMBDA_OPT, 2 * _STRONG_LAMBDA_OPT)),
    "4b": (strong_params, {}, "delta", _STRONG_RANGE, True, "both", "2",
           "lambda_gain",
           (0.0, _STRONG_LAMBDA_OPT_CAV2, 2 * _STRONG_LAMBDA_OPT_CAV2)),
    # gain sweep at the first strong optimal detuning (reporting axis
    # 2.4e-2 -> internal -2.4e-2)
    "5a": (strong_params, {"delta": -2.4e-2}, "lambda", (-5e-6, 5e-6), False,
           "amplitude", "1", "g_om", (0.0, 0.1, 0.2)),
    "5b": (strong_params, {"lambda_gain": _STRONG_LAMBDA_OPT}, "delta",
           _STRONG_RANGE, True, "amplitude", "1",
           "hop_J", (0.0, 4 * _STRONG_KAPPA, 8 * _STRONG_KAPPA)),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_dataset(figure_id: str, outdir, points: int = 401,
                   cutoff: int = DEFAULT_CUTOFF) -> list[str]:
    """Emit one CSV per curve of a published-figure panel plus metadata.

    Returns the written file paths (CSVs first, metadata JSON last).
    """
    if figure_id not in _FIGURES:
        raise ValueError("unknown figure id %r (choose from %s)"
                         % (figure_id, FIGURE_IDS))
    preset, fixed, axis, (lo, hi), flip, method, cavity, fld, values = \
        _FIGURES[figure_id]
    internal_rng = (-hi, -lo) if flip else (lo, hi)
    written = []
    curve_meta = []
    for i, val in enumerate(values):
        base = preset(**fixed).replace(**{fld: val})
        spec = SweepSpec(axis=axis, range=internal_rng, points=points,
                         base=base, method=method, cavity=cavity,
                         axis_flip=flip, cutoff=cutoff)
        os.makedirs(outdir, exist_ok=True)      # after the first spec check
        name = "fig%s_curve%d_%s_%s.csv" % (figure_id, i, fld, repr(val))
        written.append(os.path.join(outdir, name))
        _write_columns(run_sweep(spec).columns, written[-1])
        curve_meta.append({"file": name, "varied": fld, "value": val,
                           "params": base.to_dict()})
    text = to_json({
        "figure": figure_id, "axis": axis, "emitted_range": [lo, hi],
        "axis_flip": flip, "points": points, "method": method,
        "cavity": cavity, "cutoff": cutoff, "code_version": __version__,
        "curve_values_are_repo_choice": figure_id in ("3a", "3b", "5a", "5b"),
        "curves": curve_meta})
    written.append(os.path.join(outdir, "fig%s_metadata.json" % figure_id))
    with open(written[-1], "w") as fh:
        fh.write(text)
    return written
