"""Command-line front end.

Subcommands: sweep, optimize, figure, g2, params.  Exit codes: 0 success,
1 usage error (a configuration that a SystemParams, SweepSpec, SearchGrid,
FockBasis or g2_basis check rejects, rates that overflow H, an unopenable
file, or an output, --out or a sweep's metadata, over the --params-file or
the other output) or closed standard output (silently), 2 solver error (also
a g2 that is not finite).  A run builds the options of its own subcommand
only; argv that names none (``--help``, an unknown command) builds them all.
A usage error ends with one usage line, of the subcommand that argv names
or else of the top level.  ``g2`` prints the cells of a one-point sweep,
those of ``sweep.g2_columns`` that ``--method`` and ``--cavity`` ask for.
Every solve runs first, so rates that overflow either method's H exit 1;
then an ``err:`` cell exits 2: the first, in ROW_FIELDS order, that names a
``model.SolverError``, with the message its class states, or else a
FloatingPointError that names the fields whose g2 is not finite.
``--cutoff`` belongs to the commands whose master-equation solve reads it
(g2, sweep, figure; default ``lindblad.DEFAULT_CUTOFF``): ``optimize``
certifies at the fixed ``optimize.ORACLE_CUTOFF``, so another truncation is
checked by ``optimize --keep-uncertified``, then ``g2 --method me --cutoff``.

Detunings given on the command line (``--delta``, ``optimize`` output)
follow the published reporting axis, i.e. the sign convention of the
optimal-pair tables and figure captions; internally the Hamiltonian uses
the opposite sign.  Sweep ranges are internal unless ``--flip-axis`` is
set, which negates the emitted delta column (a usage error on other axes).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys

import numpy as np

from .lindblad import DEFAULT_CUTOFF
from .model import (PRESETS, SolverError, SystemParams, load_params,
                    raise_named, to_json)
from .optimize import (STRONG_GRID, WEAK_GRID, SearchGrid, find_optimal_pairs,
                       pairs_to_json)
from .sweep import (AXES, FIGURE_IDS, SweepSpec, _metadata_path,
                    figure_dataset, g2_columns, run_sweep, write_csv)

SOLVER_ERRORS = (SolverError, np.linalg.LinAlgError, FloatingPointError)


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
    if args.params_file:
        p = load_params(args.params_file)
    elif args.preset:
        p = PRESETS[args.preset]()
    else:
        raise UsageError("choose --preset %s or --params-file"
                         % "|".join(PRESETS))
    # each override option by the field it sets; --delta is on the
    # reporting axis, the opposite sign of the internal one
    over = {"delta": None if args.delta is None else -args.delta,
            "hop_J": args.J, "g_om": args.g, "lambda_gain": args.lambda_gain}
    return p.replace(**{k: v for k, v in over.items() if v is not None})


def _check_outputs(params_file, *paths) -> None:
    """Fail before a run computes: OSError unless the first path's directory
    exists and is writable, UsageError if a path names the parameter file
    or another path.  Creates and truncates nothing."""
    if os.path.isdir(paths[0]) or not os.access(
            os.path.dirname(os.path.abspath(paths[0])), os.W_OK):
        raise OSError("cannot write %s" % paths[0])
    named = [os.path.realpath(params_file)] if params_file else []
    for path in paths:
        if os.path.realpath(path) in named:
            raise UsageError("%s would overwrite a named file" % path)
        named.append(os.path.realpath(path))


def _add_common(sp):
    sp.add_argument("--preset", choices=PRESETS)
    sp.add_argument("--params-file", help="flat JSON parameter file")
    sp.add_argument("--delta", type=float,
                    help="detuning, reporting-axis sign convention")
    sp.add_argument("--lambda", dest="lambda_gain", type=float,
                    help="parametric gain")
    sp.add_argument("--J", type=float, help="photon hopping rate")
    sp.add_argument("--g", type=float, help="optomechanical coupling")


def _g2_options(sp):
    _add_common(sp)
    sp.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                    help="Fock cutoff per mode for the master equation")
    sp.add_argument("--method", choices=("amp", "me", "both"), default="both")
    sp.add_argument("--cavity", choices=("1", "2", "both"), default="both")


def _sweep_options(sp):
    _g2_options(sp)
    sp.add_argument("--axis", choices=AXES, default="delta")
    sp.add_argument("--range", nargs=2, type=float, required=True,
                    metavar=("LO", "HI"), help="internal-axis sweep range")
    sp.add_argument("--points", type=int, default=201)
    sp.add_argument("--flip-axis", action="store_true")
    sp.add_argument("--out", required=True, help="output CSV path")


def _optimize_options(sp):
    _add_common(sp)
    sp.add_argument("--cavity", type=int, choices=(1, 2), default=1)
    sp.add_argument("--delta-range", nargs=2, type=float, metavar=("LO", "HI"),
                    help="default: the --preset box, else STRONG_GRID's")
    sp.add_argument("--lambda-range", nargs=2, type=float,
                    metavar=("LO", "HI"), help="as --delta-range")
    sp.add_argument("--starts", nargs=2, type=int, default=None,
                    metavar=("N_DELTA", "N_LAMBDA"))
    sp.add_argument("--keep-uncertified", action="store_true",
                    help="also return roots failing the master-equation "
                         "g2 check")
    sp.add_argument("--out", help="output JSON path (default: stdout)")


def _figure_options(sp):
    sp.add_argument("figure_id", choices=FIGURE_IDS)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, each registered with its help.  If
    ``command`` names one, only that subcommand gets its options: argv that
    starts with it reaches no other subparser, and the top-level help, usage
    line and unknown-command error read only the registrations."""
    # one terminal-width probe per build instead of one per add_argument
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    ap = _Parser(prog="blockade", formatter_class=fmt,
                 description="coupled-cavity photon antibunching toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, formatter_class=fmt)
        if command not in _COMMANDS or command == name:
            add_options(sp)
    ap.commands = sub.choices       # name -> its subparser
    return ap


_METHOD = {"amp": "amplitude", "me": "lindblad", "both": "both"}


def _cmd_g2(args) -> int:
    cells = {k: c[0] for k, c in g2_columns(
        _base_params(args), _METHOD[args.method], args.cavity,
        args.cutoff).items() if c[0] != ""}
    failed = [k for k, c in cells.items() if isinstance(c, str)]
    for key in failed:      # n_j's cell is g2_j_me's, which comes first
        raise_named(cells[key][4:], cavity=key[3])
    if failed:              # each names FloatingPointError
        raise FloatingPointError("g2 not finite: %s" % ", ".join(failed))
    print(to_json(cells, allow_nan=False))
    return 0


def _cmd_sweep(args) -> int:
    p = _base_params(args)
    spec = SweepSpec(axis=args.axis, range=tuple(args.range),
                     points=args.points, base=p, method=_METHOD[args.method],
                     cavity=args.cavity, axis_flip=args.flip_axis,
                     cutoff=args.cutoff)
    _check_outputs(args.params_file, args.out, _metadata_path(args.out))
    write_csv(run_sweep(spec), args.out)
    print("wrote %s" % args.out)
    return 0


def _cmd_optimize(args) -> int:
    p = _base_params(args)
    default = WEAK_GRID if args.preset == "weak" else STRONG_GRID
    grid = SearchGrid(tuple(args.delta_range or default.delta_range),
                      tuple(args.lambda_range or default.lambda_range),
                      *(args.starts or (default.n_delta, default.n_lambda)))
    if args.out:
        _check_outputs(args.params_file, args.out)
    pairs = find_optimal_pairs(p, args.cavity, grid, args.keep_uncertified)
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
    print(to_json(_base_params(args).to_dict()))
    return 0


# name: (help, options, run), in the order of the usage line
_COMMANDS = {
    "g2": ("single-point g2(0)", _g2_options, _cmd_g2),
    "sweep": ("1-D parameter sweep to CSV", _sweep_options, _cmd_sweep),
    "optimize": ("optimal (delta, lambda) pairs", _optimize_options,
                 _cmd_optimize),
    "figure": ("regenerate a figure dataset", _figure_options, _cmd_figure),
    "params": ("print resolved parameter sets", _add_common, _cmd_params),
}


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        # the usage of the subcommand that argv names, else the top level's,
        # on one line: the last line of stderr
        usage = parser.commands.get(command, parser).format_usage()
        print(" ".join(usage.split()), file=sys.stderr)
        return 1
    _, _, run = _COMMANDS[args.command]
    try:
        status = run(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:     # as the SIGPIPE note of the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
