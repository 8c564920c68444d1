"""Command-line front end.

Subcommands: sweep, optimize, figure, g2, params.  Exit codes: 0 success,
1 usage error (also a configuration that a SystemParams, SweepSpec,
SearchGrid or FockBasis check rejects, an unopenable file, or a sweep whose
metadata file would overwrite its --out or --params-file), 2 solver error.

Detunings given on the command line (``--delta``, ``optimize`` output)
follow the published reporting axis, i.e. the sign convention of the
optimal-pair tables and figure captions; internally the Hamiltonian uses
the opposite sign.  Sweep ranges are internal unless ``--flip-axis`` is
set, which negates the emitted delta column.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .amplitude import (UndefinedCorrelationError, g2_from_amplitudes,
                        steady_amplitudes)
from .lindblad import (EmptyModeError, SingularLiouvillianError,
                       UnphysicalStateError, steady_g2)
from .model import SystemParams, load_params, strong_params, weak_params
from .optimize import (STRONG_GRID, WEAK_GRID, SearchGrid, find_optimal_pairs,
                       pairs_to_json)
from .sweep import (FIGURE_IDS, SweepSpec, _metadata_path, figure_dataset,
                    run_sweep, write_csv)

SOLVER_ERRORS = (UndefinedCorrelationError, SingularLiouvillianError,
                 EmptyModeError, UnphysicalStateError, np.linalg.LinAlgError)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept scientific notation like -0.73e-4 as a value, not an option
        self._negative_number_matcher = re.compile(
            r"^-\d*\.?\d+([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _base_params(args) -> SystemParams:
    if getattr(args, "params_file", None):
        p = load_params(args.params_file)
    elif args.preset == "weak":
        p = weak_params()
    elif args.preset == "strong":
        p = strong_params()
    else:
        raise UsageError("choose --preset weak|strong or --params-file")
    over = {}
    if getattr(args, "delta", None) is not None:
        over["delta"] = -args.delta     # reporting -> internal axis
    if getattr(args, "J", None) is not None:
        over["hop_J"] = args.J
    if getattr(args, "g", None) is not None:
        over["g_om"] = args.g
    if getattr(args, "lambda_gain", None) is not None:
        over["lambda_gain"] = args.lambda_gain
    return p.replace(**over) if over else p


def _check_writable(path) -> None:
    """Raise OSError unless path's directory exists and is writable, so that
    a run fails before it computes; creates and truncates nothing."""
    if os.path.isdir(path) or not os.access(
            os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise OSError("cannot write %s" % path)


def _add_common(sp):
    sp.add_argument("--preset", choices=("weak", "strong"))
    sp.add_argument("--params-file", help="flat JSON parameter file")
    sp.add_argument("--delta", type=float,
                    help="detuning, reporting-axis sign convention")
    sp.add_argument("--lambda", dest="lambda_gain", type=float,
                    help="parametric gain")
    sp.add_argument("--J", type=float, help="photon hopping rate")
    sp.add_argument("--g", type=float, help="optomechanical coupling")
    sp.add_argument("--cutoff", type=int, default=3,
                    help="Fock cutoff per mode for the master equation")


def build_parser() -> _Parser:
    ap = _Parser(prog="blockade",
                 description="coupled-cavity photon antibunching toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g2 = sub.add_parser("g2", parents=[], help="single-point g2(0)")
    _add_common(g2)
    g2.add_argument("--method", choices=("amp", "me", "both"), default="both")
    g2.add_argument("--cavity", choices=("1", "2", "both"), default="both")

    sw = sub.add_parser("sweep", help="1-D parameter sweep to CSV")
    _add_common(sw)
    sw.add_argument("--axis", choices=("delta", "lambda", "J", "g"),
                    default="delta")
    sw.add_argument("--range", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"), help="internal-axis sweep range")
    sw.add_argument("--points", type=int, default=201)
    sw.add_argument("--method", choices=("amp", "me", "both"), default="both")
    sw.add_argument("--cavity", choices=("1", "2", "both"), default="both")
    sw.add_argument("--flip-axis", action="store_true")
    sw.add_argument("--out", required=True, help="output CSV path")

    op = sub.add_parser("optimize", help="optimal (delta, lambda) pairs")
    _add_common(op)
    op.set_defaults(cutoff=4)       # oracle certification runs at cutoff 4
    op.add_argument("--cavity", type=int, choices=(1, 2), default=1)
    op.add_argument("--delta-range", nargs=2, type=float, metavar=("LO", "HI"))
    op.add_argument("--lambda-range", nargs=2, type=float,
                    metavar=("LO", "HI"))
    op.add_argument("--starts", nargs=2, type=int, default=None,
                    metavar=("N_DELTA", "N_LAMBDA"))
    op.add_argument("--keep-uncertified", action="store_true",
                    help="also return roots failing the master-equation "
                         "g2 check")
    op.add_argument("--out", help="output JSON path (default: stdout)")

    fig = sub.add_parser("figure", help="regenerate a figure dataset")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--points", type=int, default=401)
    fig.add_argument("--cutoff", type=int, default=3)

    pr = sub.add_parser("params", help="print resolved parameter sets")
    _add_common(pr)
    return ap


_METHOD = {"amp": "amplitude", "me": "lindblad", "both": "both"}


def _cmd_g2(args) -> int:
    p = _base_params(args)
    out = {}
    if args.method in ("amp", "both"):
        g2_1, g2_2 = g2_from_amplitudes(steady_amplitudes(p))
        out["g2_1_amp"], out["g2_2_amp"] = g2_1, g2_2
    if args.method in ("me", "both"):
        g2_1, g2_2, n1, n2 = steady_g2(p, cutoff=args.cutoff)
        out.update(g2_1_me=g2_1, g2_2_me=g2_2, n1=n1, n2=n2)
    def mode_of(key):           # "g2_1_amp" -> "1", "n2" -> "2"
        return key.split("_")[1] if key.startswith("g2_") else key[-1]
    if args.cavity in ("1", "2"):
        out = {k: v for k, v in out.items() if mode_of(k) == args.cavity}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    p = _base_params(args)
    spec = SweepSpec(axis=args.axis, range=tuple(args.range),
                     points=args.points, base=p, method=_METHOD[args.method],
                     cavity=args.cavity, axis_flip=args.flip_axis,
                     cutoff=args.cutoff)
    _check_writable(args.out)
    meta, named = _metadata_path(args.out), (args.out, args.params_file)
    if os.path.realpath(meta) in [os.path.realpath(f) for f in named if f]:
        raise UsageError("metadata %s would overwrite a named file" % meta)
    write_csv(run_sweep(spec), args.out)
    print("wrote %s" % args.out)
    return 0


def _cmd_optimize(args) -> int:
    p = _base_params(args)
    default = WEAK_GRID if args.preset == "weak" else STRONG_GRID
    grid = SearchGrid(tuple(args.delta_range or default.delta_range),
                      tuple(args.lambda_range or default.lambda_range),
                      *(args.starts or (default.n_delta, default.n_lambda)))
    thresh = None if args.keep_uncertified else 1e-2
    if args.out:
        _check_writable(args.out)
    pairs = find_optimal_pairs(p, args.cavity, grid, g2_cutoff=args.cutoff,
                               oracle_threshold=thresh)
    text = pairs_to_json(pairs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_figure(args) -> int:
    paths = figure_dataset(args.figure_id, args.out, points=args.points,
                           cutoff=args.cutoff)
    for path in paths:
        print("wrote %s" % path)
    return 0


def _cmd_params(args) -> int:
    print(json.dumps(_base_params(args).to_dict(), indent=2))
    return 0


_COMMANDS = {"g2": _cmd_g2, "sweep": _cmd_sweep, "optimize": _cmd_optimize,
             "figure": _cmd_figure, "params": _cmd_params}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except SOLVER_ERRORS as exc:
        print("solver error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # a UsageError, a configuration that a SystemParams, SweepSpec,
        # SearchGrid or FockBasis check rejects, or an unopenable file
        print("usage error: %s" % exc, file=sys.stderr)
        return 1


def main():          # console_scripts entry point
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
